//! Deployment: materializing a placement onto the data plane.
//!
//! Consecutive elements sharing a site become one processor (or one chain
//! segment inside an RPC library). Each element compiles for its site's
//! platform: software engines for libraries / sidecars / SmartNIC cores,
//! the eBPF adapter for kernel sites, the P4 adapter for the switch.
//! Processors chain via `NextHop::Fixed`; the last hop forwards to the
//! message's own destination (which a ROUTE element may have rewritten).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adn_backend::adapters::{EbpfEngine, SwitchEngine};
use adn_backend::jit::compile_engine;
use adn_backend::native::{element_seed, CompileOpts};
use adn_backend::{ebpf, isa, p4};
use adn_dataplane::processor::{
    spawn_processor, NextHop, ProcessorConfig, ProcessorHandle, DEFAULT_BATCH_MAX,
};
use adn_ir::ElementIr;
use adn_rpc::clock::Clock;
use adn_rpc::engine::{Engine, EngineChain};
use adn_rpc::schema::ServiceSchema;
use adn_rpc::transport::{EndpointAddr, InProcNetwork, Link};
use adn_rpc::value::ValueType;
use adn_telemetry::HopTelemetry;
use adn_verifier::absint::{self, AbsintOptions, OffloadVerdict};

use crate::compile::CompiledApp;
use crate::placement::{Placement, Site};

/// Allocates flat endpoint addresses for processors.
#[derive(Debug)]
pub struct AddrAllocator {
    next: AtomicU64,
}

impl AddrAllocator {
    /// Starts allocating at `base` (keep app endpoints below it).
    pub fn new(base: u64) -> Self {
        Self {
            next: AtomicU64::new(base),
        }
    }

    /// Next unused address.
    pub fn alloc(&self) -> EndpointAddr {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

/// One deployed processor group.
pub struct DeployedGroup {
    /// Which site hosts the group.
    pub site: Site,
    /// Names of the elements in the group, in order.
    pub elements: Vec<String>,
    /// Index range into the compiled chain.
    pub range: (usize, usize),
    /// The processor handle (None for in-library groups).
    pub handle: Option<ProcessorHandle>,
    /// The next hop the group's processor was wired with (recorded so a
    /// failover replacement rejoins the chain at the same position;
    /// `NextHop::Dst` for in-library groups).
    pub request_next: NextHop,
}

/// A live deployment.
pub struct Deployment {
    /// Where the client's frames should enter the chain (`None` = send
    /// straight to the destination).
    pub entry: Option<EndpointAddr>,
    /// Chain to install into the caller's RPC library.
    pub client_chain: EngineChain,
    /// Chain to install into the callee's RPC library.
    pub server_chain: EngineChain,
    /// Deployed groups in path order.
    pub groups: Vec<DeployedGroup>,
    /// The placement this deployment realizes.
    pub placement: Placement,
}

impl Deployment {
    /// All live processor handles.
    pub fn processors(&self) -> impl Iterator<Item = &ProcessorHandle> {
        self.groups.iter().filter_map(|g| g.handle.as_ref())
    }
}

/// Deployment failure.
#[derive(Debug)]
pub struct DeployError {
    pub message: String,
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeployError {}

/// Builds the engine for one element at one site.
pub fn build_engine(
    element: &ElementIr,
    site: Site,
    app: &CompiledApp,
    global_index: usize,
    replicas: &[EndpointAddr],
) -> Result<Box<dyn Engine>, DeployError> {
    let seed = element_seed(app.seed, global_index);
    match site.platform() {
        adn_backend::Platform::Software | adn_backend::Platform::SmartNic => Ok(compile_engine(
            element,
            &CompileOpts {
                seed,
                replicas: replicas.to_vec(),
                ..Default::default()
            },
        )),
        adn_backend::Platform::Ebpf => {
            let req_types: Vec<ValueType> = app
                .chain
                .request_schema
                .fields()
                .iter()
                .map(|f| f.ty)
                .collect();
            let resp_types: Vec<ValueType> = app
                .chain
                .response_schema
                .fields()
                .iter()
                .map(|f| f.ty)
                .collect();
            let compiled =
                ebpf::compile_for_schema(element, &req_types, &resp_types).map_err(|e| {
                    DeployError {
                        message: format!("ebpf compile of {}: {e}", element.name),
                    }
                })?;
            // Re-prove the exact programs going live, against the context
            // this schema really provides (placement audited an inferred-type
            // compile with the context size unknown).
            for (dir, prog, fields) in [
                ("request", &compiled.request, req_types.len()),
                ("response", &compiled.response, resp_types.len()),
            ] {
                let opts = AbsintOptions {
                    num_maps: compiled.map_inits.len(),
                    ctx_bytes: Some(isa::CTX_SLOT_BYTES as usize * fields),
                };
                if let OffloadVerdict::Unsafe { diags } = absint::analyze(prog, &opts).verdict {
                    let why: Vec<String> = diags
                        .iter()
                        .map(|d| format!("{}: {}", d.code, d.message))
                        .collect();
                    return Err(DeployError {
                        message: format!(
                            "ebpf verifier rejected the {dir} program of {}: {}",
                            element.name,
                            why.join("; ")
                        ),
                    });
                }
            }
            Ok(Box::new(EbpfEngine::new(compiled, seed, replicas.to_vec())))
        }
        adn_backend::Platform::Switch => {
            let pipeline = p4::compile(element).map_err(|e| DeployError {
                message: format!("p4 compile of {}: {e}", element.name),
            })?;
            // Budget the header window with the real schema.
            let req_types: Vec<ValueType> = app
                .chain
                .request_schema
                .fields()
                .iter()
                .map(|f| f.ty)
                .collect();
            p4::check_header_budget(&pipeline.header_fields, &req_types).map_err(|e| {
                DeployError {
                    message: format!("switch header budget for {}: {e}", element.name),
                }
            })?;
            Ok(Box::new(SwitchEngine::new(pipeline, replicas.to_vec())))
        }
    }
}

/// Materializes `placement` of `app` onto the in-process fabric.
///
/// `service` is the destination service's schema; `replicas` its current
/// replica endpoints (bound into ROUTE elements). `telemetry` (when given)
/// is cloned into every spawned processor so their element metrics and
/// spans land in the controller's registry. `clock` (when given) becomes
/// every spawned processor's heartbeat time source — the controller passes
/// its own clock so failure detection stays on one timeline.
#[allow(clippy::too_many_arguments)]
pub fn deploy(
    app: &CompiledApp,
    placement: &Placement,
    net: &InProcNetwork,
    link: Arc<dyn Link>,
    service: Arc<ServiceSchema>,
    replicas: &[EndpointAddr],
    alloc: &AddrAllocator,
    telemetry: Option<HopTelemetry>,
    clock: Option<Arc<dyn Clock>>,
) -> Result<Deployment, DeployError> {
    assert_eq!(placement.sites.len(), app.chain.len());

    let mut client_chain = EngineChain::new();
    let mut server_chain = EngineChain::new();
    let mut groups: Vec<DeployedGroup> = Vec::new();

    // Build per-group chains first (so processor next-hops can be wired
    // back-to-front afterwards).
    struct PendingGroup {
        site: Site,
        range: (usize, usize),
        chain: EngineChain,
        names: Vec<String>,
    }
    let mut pending: Vec<PendingGroup> = Vec::new();

    for (site, start, end) in placement.groups() {
        let mut chain = EngineChain::new();
        let mut names = Vec::new();
        for (offset, element) in app.chain.elements[start..end].iter().enumerate() {
            let engine = build_engine(element, site, app, start + offset, replicas)?;
            names.push(element.name.clone());
            chain.push(engine);
        }
        match site {
            Site::ClientLib => {
                client_chain = chain;
                groups.push(DeployedGroup {
                    site,
                    elements: names,
                    range: (start, end),
                    handle: None,
                    request_next: NextHop::Dst,
                });
            }
            Site::ServerLib => {
                server_chain = chain;
                groups.push(DeployedGroup {
                    site,
                    elements: names,
                    range: (start, end),
                    handle: None,
                    request_next: NextHop::Dst,
                });
            }
            _ => pending.push(PendingGroup {
                site,
                range: (start, end),
                chain,
                names,
            }),
        }
    }

    // Spawn processors back-to-front to wire Fixed next hops.
    let mut spawned: Vec<DeployedGroup> = Vec::new();
    let mut next_hop = NextHop::Dst;
    for group in pending.into_iter().rev() {
        let addr = alloc.alloc();
        let frames = net.attach(addr);
        let handle = spawn_processor(
            ProcessorConfig {
                addr,
                service: service.clone(),
                chain: group.chain,
                request_next: next_hop,
                response_next: NextHop::Dst,
                initial_flows: Default::default(),
                telemetry: telemetry.clone(),
                clock: clock.clone(),
                batch_max: DEFAULT_BATCH_MAX,
                overload: Default::default(),
                inbox_capacity: None,
            },
            link.clone(),
            frames,
        );
        let request_next = next_hop;
        next_hop = NextHop::Fixed(addr);
        spawned.push(DeployedGroup {
            site: group.site,
            elements: group.names,
            range: group.range,
            handle: Some(handle),
            request_next,
        });
    }
    spawned.reverse();
    let entry = match next_hop {
        NextHop::Fixed(addr) => Some(addr),
        NextHop::Dst => None,
    };

    // Merge processor groups into the (path-ordered) group list.
    let mut all_groups: Vec<DeployedGroup> = Vec::new();
    let mut spawned_iter = spawned.into_iter();
    for g in groups {
        all_groups.push(g);
    }
    for g in spawned_iter.by_ref() {
        all_groups.push(g);
    }
    all_groups.sort_by_key(|g| g.range.0);

    Ok(Deployment {
        entry,
        client_chain,
        server_chain,
        groups: all_groups,
        placement: placement.clone(),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::compile::compile_app;
    use crate::placement::{place, Environment};
    use adn_cluster::resources::{
        AdnConfig, ElementSpec, NodeId, NodeSpec, PlacementConstraint, SmartNicSpec, SwitchId,
        SwitchSpec,
    };
    use adn_rpc::message::RpcMessage;
    use adn_rpc::runtime::{spawn_server, RpcClient, ServerConfig};
    use adn_rpc::schema::{MethodDef, RpcSchema};
    use adn_rpc::value::{Value, ValueType};
    use adn_rpc::RpcError;

    fn schemas() -> (Arc<RpcSchema>, Arc<RpcSchema>) {
        (
            Arc::new(
                RpcSchema::builder()
                    .field("object_id", ValueType::U64)
                    .field("username", ValueType::Str)
                    .field("payload", ValueType::Bytes)
                    .build()
                    .unwrap(),
            ),
            Arc::new(
                RpcSchema::builder()
                    .field("ok", ValueType::Bool)
                    .field("payload", ValueType::Bytes)
                    .build()
                    .unwrap(),
            ),
        )
    }

    fn service(req: Arc<RpcSchema>, resp: Arc<RpcSchema>) -> Arc<ServiceSchema> {
        Arc::new(
            ServiceSchema::new(
                "ObjectStore",
                vec![MethodDef {
                    id: 1,
                    name: "Put".into(),
                    request: req,
                    response: resp,
                }],
            )
            .unwrap(),
        )
    }

    fn env(rich: bool) -> Environment {
        let node = |id: u32| NodeSpec {
            id: NodeId(id),
            name: format!("n{id}"),
            cpu_slots: 8,
            ebpf_capable: rich,
            smartnic: rich.then_some(SmartNicSpec { cpu_slots: 4 }),
        };
        Environment {
            client_node: node(1),
            server_node: node(2),
            switch: rich.then_some(SwitchSpec {
                id: SwitchId(1),
                name: "tor".into(),
                programmable: true,
                table_capacity: 1024,
            }),
            allow_in_app: true,
        }
    }

    fn spec(element: &str, constraints: Vec<PlacementConstraint>) -> ElementSpec {
        ElementSpec {
            element: element.into(),
            source: None,
            args: vec![],
            constraints,
        }
    }

    /// Full end-to-end: compile → place → deploy → run RPCs through it.
    fn run_deployment(
        chain: Vec<ElementSpec>,
        rich: bool,
    ) -> (Arc<RpcClient>, Vec<Result<RpcMessage, RpcError>>) {
        let (req_schema, resp_schema) = schemas();
        let svc = service(req_schema.clone(), resp_schema.clone());
        let config = AdnConfig {
            app: "t".into(),
            src_service: "frontend".into(),
            dst_service: "storage".into(),
            chain,
            seed: 5,
        };
        let app = compile_app(&config, req_schema, resp_schema.clone()).unwrap();
        let placement = place(&app.chain.elements, &app.constraints, &env(rich)).unwrap();

        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let alloc = AddrAllocator::new(1000);

        // Server replica at 200.
        let server_frames = net.attach(200);
        let svc2 = svc.clone();
        let deployment = deploy(
            &app,
            &placement,
            &net,
            link.clone(),
            svc.clone(),
            &[200],
            &alloc,
            None,
            None,
        )
        .unwrap();
        let Deployment {
            entry,
            client_chain,
            server_chain,
            groups,
            placement: _,
        } = deployment;
        let _server = spawn_server(
            ServerConfig {
                addr: 200,
                service: svc.clone(),
                chain: server_chain,
            },
            link.clone(),
            server_frames,
            Box::new(move |req| {
                let m = svc2.method_by_id(1).unwrap();
                let mut resp = RpcMessage::response_to(req, m.response.clone());
                resp.set("ok", Value::Bool(true));
                resp.set("payload", req.get("payload").unwrap().clone());
                resp
            }),
        );

        let client_frames = net.attach(100);
        let client = RpcClient::new(100, link, client_frames, svc.clone(), client_chain);
        client.set_via(entry);

        let m = svc.method_by_id(1).unwrap();
        let mut results = Vec::new();
        for (i, user) in ["alice", "bob", "carol", "eve"].iter().enumerate() {
            let msg = RpcMessage::request(0, 1, m.request.clone())
                .with("object_id", i as u64)
                .with("username", *user)
                .with("payload", vec![9u8; 32]);
            results.push(client.call(msg, 200));
        }
        // Keep the processors alive until the calls complete.
        std::mem::forget(groups);
        (client, results)
    }

    #[test]
    fn bare_env_in_app_deployment_enforces_acl() {
        let (_client, results) = run_deployment(vec![spec("Acl", vec![])], false);
        // alice W, bob R, carol W, eve R.
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        assert!(results[3].is_err());
    }

    #[test]
    fn offapp_sidecar_deployment_enforces_acl() {
        let (_client, results) =
            run_deployment(vec![spec("Acl", vec![PlacementConstraint::OffApp])], false);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn rich_env_switch_deployment_enforces_acl_and_compression_roundtrips() {
        let (_client, results) = run_deployment(
            vec![
                spec("Compress", vec![]),
                spec("Acl", vec![PlacementConstraint::OffApp]),
                spec("Decompress", vec![PlacementConstraint::ReceiverSide]),
            ],
            true,
        );
        let ok = results[0].as_ref().unwrap();
        // Payload made it through compress → decompress intact.
        assert_eq!(ok.get("payload"), Some(&Value::Bytes(vec![9u8; 32])));
        assert!(results[1].is_err(), "bob must still be denied");
    }

    #[test]
    fn build_engine_refuses_programs_the_verifier_rejects() {
        // `hash(input.username)` reads field 1. Lowered against the full
        // schema it compiles for any schema (the hash helper takes a field
        // index), but a one-field deploy context holds only 8 bytes, so
        // the re-proof at deploy must refuse it.
        let (req_schema, resp_schema) = schemas();
        let element = adn_ir::lower_element(
            &adn_dsl::compile_frontend(
                "element H() { on request { SELECT hash(input.username) AS object_id FROM input; } }",
                &req_schema,
                &resp_schema,
            )
            .unwrap(),
            &[],
            &req_schema,
            &resp_schema,
        )
        .unwrap();
        let config = AdnConfig {
            app: "t".into(),
            src_service: "a".into(),
            dst_service: "b".into(),
            chain: vec![],
            seed: 1,
        };
        let mut app = compile_app(&config, req_schema, resp_schema).unwrap();
        assert!(build_engine(&element, Site::ClientEbpf, &app, 0, &[]).is_ok());

        app.chain.request_schema = Arc::new(
            RpcSchema::builder()
                .field("object_id", ValueType::U64)
                .build()
                .unwrap(),
        );
        let Err(err) = build_engine(&element, Site::ClientEbpf, &app, 0, &[]) else {
            panic!("a program reading past the context must not deploy");
        };
        assert!(err.message.contains("B0005"), "{err}");
    }

    #[test]
    fn lb_routes_between_replicas_via_deployment() {
        let (req_schema, resp_schema) = schemas();
        let svc = service(req_schema.clone(), resp_schema.clone());
        let config = AdnConfig {
            app: "t".into(),
            src_service: "a".into(),
            dst_service: "b".into(),
            chain: vec![spec("LoadBalancer", vec![PlacementConstraint::OffApp])],
            seed: 1,
        };
        let app = compile_app(&config, req_schema, resp_schema).unwrap();
        let placement = place(&app.chain.elements, &app.constraints, &env(false)).unwrap();

        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let alloc = AddrAllocator::new(1000);

        // Two replicas, each tagging responses with its identity.
        let mut servers = Vec::new();
        for addr in [201u64, 202] {
            let frames = net.attach(addr);
            let svc2 = svc.clone();
            servers.push(spawn_server(
                ServerConfig {
                    addr,
                    service: svc.clone(),
                    chain: EngineChain::new(),
                },
                link.clone(),
                frames,
                Box::new(move |req| {
                    let m = svc2.method_by_id(1).unwrap();
                    let mut resp = RpcMessage::response_to(req, m.response.clone());
                    resp.set("payload", Value::Bytes(vec![addr as u8]));
                    resp
                }),
            ));
        }

        let deployment = deploy(
            &app,
            &placement,
            &net,
            link.clone(),
            svc.clone(),
            &[201, 202],
            &alloc,
            None,
            None,
        )
        .unwrap();

        let client_frames = net.attach(100);
        let Deployment {
            entry,
            client_chain,
            groups,
            ..
        } = deployment;
        let client = RpcClient::new(100, link, client_frames, svc.clone(), client_chain);
        client.set_via(entry);

        let m = svc.method_by_id(1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..30u64 {
            let msg = RpcMessage::request(0, 1, m.request.clone())
                .with("object_id", i)
                .with("username", "alice")
                .with("payload", vec![]);
            // Logical dst = replica 201; the LB rewrites per key.
            let resp = client.call(msg, 201).unwrap();
            seen.insert(resp.get("payload").unwrap().as_bytes().unwrap()[0]);
        }
        assert_eq!(seen.len(), 2, "both replicas should serve traffic");
        std::mem::forget(groups);
    }
}
