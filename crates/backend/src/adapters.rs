//! Engine adapters: run eBPF-sim and P4-sim programs behind the uniform
//! [`Engine`] interface so the data plane hosts them exactly like software
//! engines. The deployment layer picks the adapter matching the placement
//! decision; the processor code never knows the difference.

use adn_rpc::engine::{Engine, Verdict};
use adn_rpc::message::{MessageKind, RpcMessage};
use adn_rpc::transport::EndpointAddr;
use adn_wire::codec::{Decoder, Encoder};

use crate::ebpf::{EbpfElement, EbpfMaps, EbpfVerdict, RouteDecision};
use crate::isa;
use crate::native::ABORT_INTERNAL;
use crate::p4::{P4Pipeline, P4Tables, P4Verdict};
use crate::udf_impl::UdfRuntime;

/// An eBPF-compiled element behind the Engine interface. It runs the
/// encoded programs — the ones deploy proved — on the encoded interpreter;
/// a runtime fault aborts the call with [`ABORT_INTERNAL`].
pub struct EbpfEngine {
    name: String,
    element: EbpfElement,
    maps: EbpfMaps,
    udf: UdfRuntime,
    replicas: Vec<EndpointAddr>,
}

impl EbpfEngine {
    /// Wraps a compiled element.
    pub fn new(element: EbpfElement, seed: u64, replicas: Vec<EndpointAddr>) -> Self {
        Self {
            name: format!("ebpf:{}", element.name),
            maps: EbpfMaps::for_element(&element),
            element,
            udf: UdfRuntime::new(seed),
            replicas,
        }
    }

    /// Read access to the maps (tests, telemetry).
    pub fn maps(&self) -> &EbpfMaps {
        &self.maps
    }
}

impl Engine for EbpfEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
        let prog = match msg.kind {
            MessageKind::Request => &self.element.request,
            MessageKind::Response => &self.element.response,
        };
        let mut route = RouteDecision::default();
        let verdict = isa::execute_encoded(
            prog,
            &mut msg.fields,
            &mut self.maps,
            &mut self.udf,
            &mut route,
        );
        if let Some(hash) = route.key_hash {
            if !self.replicas.is_empty() {
                msg.dst = self.replicas[(hash % self.replicas.len() as u64) as usize];
            }
        }
        match verdict {
            Ok(EbpfVerdict::Forward) => Verdict::Forward,
            Ok(EbpfVerdict::Drop) => Verdict::Drop,
            Ok(EbpfVerdict::Abort { code }) => Verdict::Abort {
                code,
                message: "aborted by ebpf element".to_owned(),
            },
            Err(fault) => Verdict::Abort {
                code: ABORT_INTERNAL,
                message: format!("ebpf fault: {fault}"),
            },
        }
    }

    fn export_state(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_varint(self.maps.maps.len() as u64);
        for map in &self.maps.maps {
            // Deterministic order for byte-stable snapshots.
            let mut entries: Vec<(&u64, &u64)> = map.iter().collect();
            entries.sort();
            enc.put_varint(entries.len() as u64);
            for (k, v) in entries {
                enc.put_varint(*k);
                enc.put_varint(*v);
            }
        }
        enc.into_bytes()
    }

    fn import_state(&mut self, image: &[u8]) -> Result<(), String> {
        let mut dec = Decoder::new(image);
        let count = dec.get_varint().map_err(|e| e.to_string())? as usize;
        if count != self.maps.maps.len() {
            return Err("map count mismatch".into());
        }
        let mut maps = Vec::with_capacity(count);
        for _ in 0..count {
            let entries = dec.get_varint().map_err(|e| e.to_string())?;
            let mut map = std::collections::HashMap::new();
            for _ in 0..entries {
                let k = dec.get_varint().map_err(|e| e.to_string())?;
                let v = dec.get_varint().map_err(|e| e.to_string())?;
                map.insert(k, v);
            }
            maps.push(map);
        }
        self.maps.maps = maps;
        Ok(())
    }
}

/// A P4-compiled element behind the Engine interface. The switch itself has
/// no general CPU; this adapter is the *model* of the switch forwarding
/// plane, and its tables are only written through [`SwitchEngine::tables_mut`]
/// (the control-plane channel).
pub struct SwitchEngine {
    name: String,
    pipeline: P4Pipeline,
    tables: P4Tables,
    replicas: Vec<EndpointAddr>,
}

impl SwitchEngine {
    /// Wraps a compiled pipeline with its initial table entries.
    pub fn new(pipeline: P4Pipeline, replicas: Vec<EndpointAddr>) -> Self {
        Self {
            name: format!("p4:{}", pipeline.name),
            tables: pipeline.initial_tables.clone(),
            pipeline,
            replicas,
        }
    }

    /// Control-plane access to the match tables.
    pub fn tables_mut(&mut self) -> &mut P4Tables {
        &mut self.tables
    }
}

impl Engine for SwitchEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
        let stages = match msg.kind {
            MessageKind::Request => &self.pipeline.request,
            MessageKind::Response => &self.pipeline.response,
        };
        let P4Verdict {
            dropped,
            abort_code,
            route_hash,
        } = crate::p4::execute(stages, &self.tables, &mut msg.fields);
        if let Some(hash) = route_hash {
            if !self.replicas.is_empty() {
                msg.dst = self.replicas[(hash % self.replicas.len() as u64) as usize];
            }
        }
        if dropped {
            return Verdict::Drop;
        }
        if let Some(code) = abort_code {
            return Verdict::Abort {
                code,
                message: "aborted by switch element".to_owned(),
            };
        }
        Verdict::Forward
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::ebpf;
    use adn_dsl::parser::parse_element;
    use adn_dsl::typecheck::check_element;
    use adn_rpc::schema::RpcSchema;
    use adn_rpc::value::{Value, ValueType};

    fn schemas() -> (Arc<RpcSchema>, Arc<RpcSchema>) {
        (
            Arc::new(
                RpcSchema::builder()
                    .field("user_id", ValueType::U64)
                    .field("object_id", ValueType::U64)
                    .build()
                    .unwrap(),
            ),
            Arc::new(
                RpcSchema::builder()
                    .field("ok", ValueType::Bool)
                    .build()
                    .unwrap(),
            ),
        )
    }

    fn lower(src: &str) -> adn_ir::ElementIr {
        let (req, resp) = schemas();
        let checked = check_element(&parse_element(src).unwrap(), &req, &resp).unwrap();
        adn_ir::lower_element(&checked, &[], &req, &resp).unwrap()
    }

    fn request(user: u64, oid: u64) -> RpcMessage {
        let (req, _) = schemas();
        RpcMessage::request(1, 1, req)
            .with("user_id", user)
            .with("object_id", oid)
    }

    #[test]
    fn ebpf_engine_enforces_acl_and_snapshots() {
        let element = lower(
            r#"element NumAcl() {
                state acl(user_id: u64 key, allowed: u64) init { (1, 1), (2, 0) };
                on request {
                    SELECT * FROM input JOIN acl ON input.user_id == acl.user_id
                    WHERE acl.allowed == 1;
                }
            }"#,
        );
        let (req, resp) = schemas();
        let types_req: Vec<ValueType> = req.fields().iter().map(|f| f.ty).collect();
        let types_resp: Vec<ValueType> = resp.fields().iter().map(|f| f.ty).collect();
        let compiled = ebpf::compile_for_schema(&element, &types_req, &types_resp).unwrap();
        let mut engine = EbpfEngine::new(compiled, 0, vec![]);
        let mut ok = request(1, 5);
        assert_eq!(engine.process(&mut ok), Verdict::Forward);
        let mut denied = request(2, 5);
        assert_eq!(engine.process(&mut denied), Verdict::Drop);

        let image = engine.export_state();
        let mut other = EbpfEngine::new(
            ebpf::compile_for_schema(&element, &types_req, &types_resp).unwrap(),
            0,
            vec![],
        );
        other.import_state(&image).unwrap();
        assert_eq!(other.export_state(), image);
        assert!(other.import_state(&[9]).is_err());
    }

    #[test]
    fn ebpf_engine_routes_like_native() {
        let element =
            lower("element Lb() { on request { ROUTE input.object_id; SELECT * FROM input; } }");
        let (req, resp) = schemas();
        let types_req: Vec<ValueType> = req.fields().iter().map(|f| f.ty).collect();
        let types_resp: Vec<ValueType> = resp.fields().iter().map(|f| f.ty).collect();
        let compiled = ebpf::compile_for_schema(&element, &types_req, &types_resp).unwrap();
        let mut e = EbpfEngine::new(compiled, 0, vec![100, 200, 300]);
        let mut native = crate::native::compile_element(
            &element,
            &crate::native::CompileOpts {
                seed: 0,
                replicas: vec![100, 200, 300],
                ..Default::default()
            },
        );
        use adn_rpc::engine::Engine as _;
        for oid in 0..50 {
            let mut m1 = request(1, oid);
            let mut m2 = m1.clone();
            e.process(&mut m1);
            native.process(&mut m2);
            assert_eq!(m1.dst, m2.dst, "replica choice diverged for {oid}");
        }
    }

    #[test]
    fn ebpf_fault_aborts_with_internal_code() {
        // `r2 = 0x1234; r0 = *(u64 *)(r2 + 0)` loads from an unmapped
        // address: the interpreter faults and the call aborts.
        let mut prog = vec![isa::mov64_reg(isa::CTX_REG, 1)];
        prog.extend(isa::lddw(2, 0x1234));
        prog.extend([isa::ldx(isa::BPF_DW, 0, 2, 0), isa::exit()]);
        let element = EbpfElement {
            name: "Faulty".into(),
            request: prog,
            response: vec![isa::mov64_imm(0, 0), isa::exit()],
            map_inits: vec![],
        };
        let mut engine = EbpfEngine::new(element, 0, vec![]);
        let mut msg = request(1, 5);
        match engine.process(&mut msg) {
            Verdict::Abort { code, message } => {
                assert_eq!(code, ABORT_INTERNAL);
                assert!(message.contains("invalid memory read"), "{message}");
            }
            other => panic!("expected an internal abort, got {other:?}"),
        }
    }

    #[test]
    fn switch_engine_runs_pipeline() {
        let element = lower(
            "element Fw() { on request { DROP WHERE input.object_id == 13; SELECT * FROM input; } }",
        );
        let pipeline = crate::p4::compile(&element).unwrap();
        let mut engine = SwitchEngine::new(pipeline, vec![]);
        let mut blocked = request(1, 13);
        assert_eq!(engine.process(&mut blocked), Verdict::Drop);
        let mut ok = request(1, 14);
        assert_eq!(engine.process(&mut ok), Verdict::Forward);
    }

    #[test]
    fn switch_table_updates_take_effect() {
        let element = lower(
            r#"element NumAcl() {
                state acl(user_id: u64 key, allowed: u64) init { (1, 1) };
                on request {
                    SELECT * FROM input JOIN acl ON input.user_id == acl.user_id
                    WHERE acl.allowed == 1;
                }
            }"#,
        );
        let pipeline = crate::p4::compile(&element).unwrap();
        let mut engine = SwitchEngine::new(pipeline, vec![]);
        let mut unknown = request(9, 1);
        assert_eq!(engine.process(&mut unknown), Verdict::Drop);
        // Control plane installs a new entry.
        engine.tables_mut().tables[0].push((Value::U64(9), crate::p4::Action::Continue));
        let mut now_ok = request(9, 1);
        assert_eq!(engine.process(&mut now_ok), Verdict::Forward);
    }
}
