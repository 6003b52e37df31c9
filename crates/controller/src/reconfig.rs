//! Live reconfiguration: migration, scale-out, scale-in.
//!
//! Paper §5.2: "To migrate or scale out a load balancer, the controller can
//! copy over its state and start running a new instance; while reducing the
//! number of load balancer instances, it can merge their states. Some
//! reconfigurations may require us to put the network in intermediate
//! states to prevent transient disruptions."
//!
//! The migration protocol here is make-before-break and lossless:
//!
//! 1. **Pause** the old processor — frames queue, nothing is processed.
//! 2. **Snapshot** its per-engine state images.
//! 3. Build the successor with the imported state.
//! 4. **Take over the flat address** — attaching the successor to the same
//!    address atomically redirects all new frames.
//! 5. **Drain** — the old processor re-emits its queued frames onto the
//!    link; they land at the successor. Every in-flight message is
//!    processed exactly once, after the state it depends on has moved.
//! 6. Retire the old processor.

use std::sync::Arc;

use adn_backend::jit::compile_engine;
use adn_backend::native::{element_seed, CompileOpts};
use adn_backend::state::StateTable;
use adn_dataplane::processor::{
    spawn_processor, NextHop, ProcessorConfig, ProcessorHandle, DEFAULT_BATCH_MAX,
};
use adn_dataplane::scaleout::{spawn_sharded, ShardRouter, ShardedHandle};
use adn_ir::element::{ChainIr, ElementIr, IrStmt, JoinStrategy};
use adn_rpc::engine::EngineChain;
use adn_rpc::schema::ServiceSchema;
use adn_rpc::transport::{EndpointAddr, InProcNetwork, Link};
use adn_telemetry::HopTelemetry;
use adn_verifier::{codes, verify_chain, ChainVerifyOptions};
use adn_wire::codec::{Decoder, Encoder};

use crate::deploy::AddrAllocator;

/// Reconfiguration failure.
#[derive(Debug)]
pub struct ReconfigError {
    pub message: String,
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ReconfigError {}

fn err(message: impl Into<String>) -> ReconfigError {
    ReconfigError {
        message: message.into(),
    }
}

/// Migrates a processor to a fresh instance (e.g. new logic or a new host
/// in a real deployment) at the same flat address, losing no messages.
/// `make_chain` builds the successor's chain; the old state is imported
/// into it before any message reaches it.
pub fn migrate_processor(
    old: ProcessorHandle,
    mut make_chain: impl FnMut() -> EngineChain,
    net: &InProcNetwork,
    link: Arc<dyn Link>,
    service: Arc<ServiceSchema>,
    request_next: NextHop,
) -> Result<ProcessorHandle, ReconfigError> {
    let addr = old.addr();
    // 1-2: pause and snapshot (element state AND in-flight NAT flows).
    old.pause();
    let images = old
        .export_state()
        .map_err(|e| err(format!("snapshot of {addr:#x}: {e}")))?;
    let flows = old.export_flows();
    // 3: successor with imported state.
    let mut chain = make_chain();
    chain
        .import_states(&images)
        .map_err(|e| err(format!("state import: {e}")))?;
    // 4: address takeover.
    let frames = net.attach(addr);
    let successor = spawn_processor(
        ProcessorConfig {
            addr,
            service,
            chain,
            request_next,
            response_next: NextHop::Dst,
            initial_flows: flows,
            telemetry: None,
            // The successor keeps the predecessor's (possibly virtual)
            // heartbeat time source across the migration.
            clock: Some(old.clock()),
            batch_max: DEFAULT_BATCH_MAX,
            overload: Default::default(),
        },
        link,
        frames,
    );
    // 5: drain queued frames to the successor.
    old.drain()
        .map_err(|e| err(format!("drain of {addr:#x}: {e}")))?;
    // 6: retire.
    old.stop();
    Ok(successor)
}

// ---------------------------------------------------------------------------
// State image surgery for scale-out / scale-in
// ---------------------------------------------------------------------------

/// Parses a NativeEngine state image into its tables.
pub fn decode_engine_image(
    element: &ElementIr,
    image: &[u8],
) -> Result<Vec<StateTable>, ReconfigError> {
    let mut dec = Decoder::new(image);
    let count = dec
        .get_varint()
        .map_err(|e| err(format!("image header: {e}")))? as usize;
    if count != element.tables.len() {
        return Err(err(format!(
            "element {} image has {count} tables, IR has {}",
            element.name,
            element.tables.len()
        )));
    }
    let mut tables = Vec::with_capacity(count);
    for layout in &element.tables {
        let bytes = dec
            .get_bytes()
            .map_err(|e| err(format!("table bytes: {e}")))?;
        let mut table = StateTable::new(adn_ir::TableIr {
            init_rows: vec![],
            ..layout.clone()
        });
        table
            .restore(bytes)
            .map_err(|e| err(format!("table restore: {e}")))?;
        tables.push(table);
    }
    Ok(tables)
}

/// Re-encodes tables into a NativeEngine state image.
fn encode_engine_image(tables: &[StateTable]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_varint(tables.len() as u64);
    for t in tables {
        enc.put_bytes(&t.snapshot());
    }
    enc.into_bytes()
}

/// Whether `table_idx` of `element` is keyed by the shard field: some
/// key-lookup join (or keyed update/delete) maps `shard_field` onto the
/// table's key column. Aligned tables partition by key; others replicate.
fn table_aligned_with(element: &ElementIr, table_idx: usize, shard_field: usize) -> bool {
    let key_cols = &element.tables[table_idx].key_columns;
    let [key_col] = key_cols.as_slice() else {
        return false; // composite/empty keys never partition
    };
    for stmt in element.all_stmts() {
        match stmt {
            IrStmt::Select {
                join: Some(join), ..
            } if join.table == table_idx => {
                if let JoinStrategy::KeyLookup { input_fields } = &join.strategy {
                    if input_fields.as_slice() == [shard_field] {
                        return true;
                    }
                }
            }
            IrStmt::Update {
                table,
                condition: Some(cond),
                ..
            }
            | IrStmt::Delete {
                table,
                condition: Some(cond),
            } if *table == table_idx && cond_matches_key_field(cond, *key_col, shard_field) => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Whether a condition contains the conjunct `Col(key_col) == Field(field)`.
fn cond_matches_key_field(cond: &adn_ir::IrExpr, key_col: usize, field: usize) -> bool {
    use adn_ir::expr::IrBinOp;
    use adn_ir::IrExpr;
    match cond {
        IrExpr::Binary {
            op: IrBinOp::And,
            left,
            right,
        } => {
            cond_matches_key_field(left, key_col, field)
                || cond_matches_key_field(right, key_col, field)
        }
        IrExpr::Binary {
            op: IrBinOp::Eq,
            left,
            right,
        } => matches!(
            (left.as_ref(), right.as_ref()),
            (IrExpr::Col(c), IrExpr::Field(f)) | (IrExpr::Field(f), IrExpr::Col(c))
                if *c == key_col && *f == field
        ),
        _ => false,
    }
}

/// Splits one engine image into `shards` images. Tables keyed by the shard
/// field partition by `stable_hash(key) % shards` (matching the router);
/// other tables are replicated to every shard (safe for read-mostly state;
/// the caller is responsible for choosing a shard field that keys all
/// write-heavy tables).
pub fn partition_engine_image(
    element: &ElementIr,
    image: &[u8],
    shard_field: usize,
    shards: usize,
) -> Result<Vec<Vec<u8>>, ReconfigError> {
    let tables = decode_engine_image(element, image)?;
    let mut per_shard: Vec<Vec<StateTable>> = (0..shards).map(|_| Vec::new()).collect();
    for (ti, table) in tables.iter().enumerate() {
        if table_aligned_with(element, ti, shard_field) {
            let key_col = element.tables[ti].key_columns[0];
            let parts = table.partition_by_column(key_col, shards);
            for (s, part) in parts.into_iter().enumerate() {
                per_shard[s].push(part);
            }
        } else {
            for shard_tables in per_shard.iter_mut() {
                shard_tables.push(table.clone());
            }
        }
    }
    Ok(per_shard.iter().map(|t| encode_engine_image(t)).collect())
}

/// Merges shard engine images back into one (scale-in). Keyed tables union
/// by key; key-less tables concatenate.
pub fn merge_engine_images(
    element: &ElementIr,
    images: &[Vec<u8>],
) -> Result<Vec<u8>, ReconfigError> {
    let mut merged: Option<Vec<StateTable>> = None;
    for image in images {
        let tables = decode_engine_image(element, image)?;
        match &mut merged {
            None => merged = Some(tables),
            Some(acc) => {
                for (a, t) in acc.iter_mut().zip(&tables) {
                    a.merge_from(t);
                }
            }
        }
    }
    Ok(encode_engine_image(&merged.unwrap_or_default()))
}

/// A scaled-out processor group.
pub struct ScaledGroup {
    /// The shard router (serving the group's original address).
    pub router: ShardedHandle,
    /// The per-shard processors.
    pub instances: Vec<ProcessorHandle>,
}

/// Whether a group can be sharded on request field `shard_field`. The
/// field must exist in every method's request schema (the router reads it
/// from every request), and the verifier's partitionability lint
/// (`V0005`) must find no mutated state keyed by anything else (each shard
/// would hold a diverging replica of it).
pub fn check_shard_safe(
    service: &ServiceSchema,
    chain: &ChainIr,
    shard_field: usize,
) -> Result<(), ReconfigError> {
    for method in service.methods() {
        if shard_field >= method.request.len() {
            return Err(err(format!(
                "shard field {shard_field} is out of range for method {}'s request schema ({} fields)",
                method.name,
                method.request.len()
            )));
        }
    }
    let opts = ChainVerifyOptions {
        shard_field: Some(shard_field),
        ..Default::default()
    };
    match verify_chain(chain, &opts)
        .into_iter()
        .find(|d| d.diagnostic.code == codes::NON_PARTITIONABLE)
    {
        Some(finding) => Err(err(format!(
            "chain is not shard-safe on field {shard_field}: {}",
            finding.diagnostic.message
        ))),
        None => Ok(()),
    }
}

/// One shard of a [`ScalePlan`]: an image and a compile seed per element.
pub struct ShardPlan {
    pub images: Vec<Vec<u8>>,
    pub seeds: Vec<u64>,
}

/// The pure part of a scale-out, one entry per shard. It compiles nothing,
/// so each caller builds engines at its own tier.
pub type ScalePlan = Vec<ShardPlan>;

/// Plans a scale-out of a group hosting `elements` (one engine each, in
/// order) whose state is `images`: keyed tables partition by the router's
/// hash of `shard_field`, other tables replicate, and every shard gets its
/// own RNG stream derived from `seed`.
pub fn plan_scale_out(
    images: &[Vec<u8>],
    elements: &[ElementIr],
    shard_field: usize,
    shards: usize,
    seed: u64,
) -> Result<ScalePlan, ReconfigError> {
    if images.len() != elements.len() {
        return Err(err("engine/image arity mismatch"));
    }
    let mut plan: ScalePlan = (0..shards)
        .map(|s| ShardPlan {
            images: Vec::with_capacity(elements.len()),
            seeds: (0..elements.len())
                .map(|i| element_seed(seed ^ ((s as u64 + 1) << 32), i))
                .collect(),
        })
        .collect();
    for (element, image) in elements.iter().zip(images) {
        let parts = partition_engine_image(element, image, shard_field, shards)?;
        for (shard, part) in plan.iter_mut().zip(parts) {
            shard.images.push(part);
        }
    }
    Ok(plan)
}

/// Builds each shard's chain from the plan of `old`'s state. `old` must be
/// paused.
fn shard_chains(
    old: &ProcessorHandle,
    elements: &[ElementIr],
    shard_field: usize,
    shards: usize,
    seed: u64,
    replicas: &[EndpointAddr],
) -> Result<Vec<EngineChain>, ReconfigError> {
    let images = old
        .export_state()
        .map_err(|e| err(format!("snapshot of {:#x}: {e}", old.addr())))?;
    let plan = plan_scale_out(&images, elements, shard_field, shards, seed)?;
    let mut chains = Vec::with_capacity(shards);
    for (s, shard) in plan.into_iter().enumerate() {
        let mut chain = EngineChain::new();
        for (element, &seed) in elements.iter().zip(&shard.seeds) {
            chain.push(compile_engine(
                element,
                &CompileOpts {
                    seed,
                    replicas: replicas.to_vec(),
                    ..Default::default()
                },
            ));
        }
        chain
            .import_states(&shard.images)
            .map_err(|e| err(format!("shard {s} import: {e}")))?;
        chains.push(chain);
    }
    Ok(chains)
}

/// Scales a single-processor group out to `shards` instances behind a shard
/// router that takes over the group's address (clients are untouched):
/// [`plan_scale_out`], then spawn. `elements` are the IR elements the old
/// processor hosted (one engine each, in order); `shard_field` is the
/// request-schema field index the router hashes. `telemetry` is cloned
/// into each instance so the scaled group keeps reporting element metrics.
///
/// Every fallible step (snapshot, partition, import) runs before the router
/// takes the address. On error `old` is resumed and keeps serving. On
/// success `old` has been drained into the router and the caller stops it.
#[allow(clippy::too_many_arguments)]
pub fn scale_out(
    old: &ProcessorHandle,
    elements: &[ElementIr],
    shard_field: usize,
    shards: usize,
    seed: u64,
    replicas: &[EndpointAddr],
    net: &InProcNetwork,
    link: Arc<dyn Link>,
    service: Arc<ServiceSchema>,
    request_next: NextHop,
    alloc: &AddrAllocator,
    telemetry: Option<HopTelemetry>,
) -> Result<ScaledGroup, ReconfigError> {
    let addr = old.addr();
    old.pause();
    let chains = match shard_chains(old, elements, shard_field, shards, seed, replicas) {
        Ok(chains) => chains,
        Err(e) => {
            old.resume();
            return Err(e);
        }
    };
    let inherited_flows = old.export_flows();

    // Spawn instances with their shard of the state.
    let mut instances = Vec::with_capacity(shards);
    let mut instance_addrs = Vec::with_capacity(shards);
    for chain in chains {
        let instance_addr = alloc.alloc();
        let frames = net.attach(instance_addr);
        instances.push(spawn_processor(
            ProcessorConfig {
                addr: instance_addr,
                service: service.clone(),
                chain,
                request_next,
                response_next: NextHop::Dst,
                initial_flows: Default::default(),
                telemetry: telemetry.clone(),
                clock: Some(old.clock()),
                batch_max: DEFAULT_BATCH_MAX,
                overload: Default::default(),
            },
            link.clone(),
            frames,
        ));
        instance_addrs.push(instance_addr);
    }

    // Router takes over the group's address, then the old processor drains.
    let router_frames = net.attach(addr);
    let router = spawn_sharded(
        addr,
        ShardRouter::new(instance_addrs, service, shard_field, inherited_flows),
        link,
        router_frames,
    );
    // The router owns the address now, so the group serves through it
    // whatever the drain reports. A drain can only fail if `old` died after
    // its snapshot; its queued frames are then lost either way, and the
    // senders' retries recover them.
    let _ = old.drain();

    Ok(ScaledGroup { router, instances })
}

/// Scales a group back in: merges instance state into one processor that
/// takes over the router's address.
#[allow(clippy::too_many_arguments)]
pub fn scale_in(
    group: ScaledGroup,
    elements: &[ElementIr],
    seed: u64,
    replicas: &[EndpointAddr],
    net: &InProcNetwork,
    link: Arc<dyn Link>,
    service: Arc<ServiceSchema>,
    request_next: NextHop,
) -> Result<ProcessorHandle, ReconfigError> {
    let addr = group.router.addr();

    // Quiesce each instance: responses for its in-flight calls are
    // addressed to the instance's own endpoint, which retires with it, so
    // wait (processing continues) until its NAT flow table drains before
    // pausing. New requests keep arriving through the router during this
    // window, so quiescing is per-instance and bounded by one server RTT
    // once the router is stopped; stop the router first.
    group.router.stop_routing();
    for instance in &group.instances {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if instance.export_flows().is_empty() {
                instance.pause();
                if instance.export_flows().is_empty() {
                    break;
                }
                instance.resume();
            }
            if std::time::Instant::now() > deadline {
                return Err(err("instance failed to quiesce within 10s"));
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    let mut per_element_images: Vec<Vec<Vec<u8>>> = vec![Vec::new(); elements.len()];
    let merged_flows = group.router.export_flows();
    for instance in &group.instances {
        let images = instance
            .export_state()
            .map_err(|e| err(format!("instance snapshot: {e}")))?;
        if images.len() != elements.len() {
            return Err(err("instance image arity mismatch"));
        }
        for (i, image) in images.into_iter().enumerate() {
            per_element_images[i].push(image);
        }
    }

    // Merge state per element.
    let mut chain = EngineChain::new();
    let mut merged_images = Vec::with_capacity(elements.len());
    for (i, element) in elements.iter().enumerate() {
        merged_images.push(merge_engine_images(element, &per_element_images[i])?);
        chain.push(compile_engine(
            element,
            &CompileOpts {
                seed: element_seed(seed, i),
                replicas: replicas.to_vec(),
                ..Default::default()
            },
        ));
    }
    chain
        .import_states(&merged_images)
        .map_err(|e| err(format!("merged import: {e}")))?;

    // The merged processor takes over the router's address. Requests the
    // router had queued but not yet sharded re-enter through the drain;
    // the router's residual inherited flows come along so even pre-scale-
    // out stragglers find their way home.
    let frames = net.attach(addr);
    let merged = spawn_processor(
        ProcessorConfig {
            addr,
            service,
            chain,
            request_next,
            response_next: NextHop::Dst,
            initial_flows: merged_flows,
            telemetry: None,
            // The merged processor keeps the shards' (possibly virtual)
            // heartbeat time source.
            clock: group.instances.first().map(|i| i.clock()),
            batch_max: DEFAULT_BATCH_MAX,
            overload: Default::default(),
        },
        link,
        frames,
    );
    // The router already stopped routing; re-emit anything left in its
    // queue to the (now merged-processor-owned) address, then retire all.
    group.router.drain();
    group.router.stop();
    for instance in group.instances {
        // Best-effort: the instances are retiring either way.
        let _ = instance.drain();
        instance.stop();
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use super::*;
    use adn_backend::native::compile_element;
    use adn_dsl::parser::parse_element;
    use adn_dsl::typecheck::check_element;
    use adn_rpc::message::RpcMessage;
    use adn_rpc::runtime::{spawn_server, RpcClient, ServerConfig};
    use adn_rpc::schema::{MethodDef, RpcSchema};
    use adn_rpc::value::{Value, ValueType};

    fn schemas() -> (Arc<RpcSchema>, Arc<RpcSchema>) {
        (
            Arc::new(
                RpcSchema::builder()
                    .field("object_id", ValueType::U64)
                    .field("username", ValueType::Str)
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

    fn service() -> Arc<ServiceSchema> {
        let (req, resp) = schemas();
        Arc::new(
            ServiceSchema::new(
                "S",
                vec![MethodDef {
                    id: 1,
                    name: "M".into(),
                    request: req,
                    response: resp,
                }],
            )
            .unwrap(),
        )
    }

    fn lower(src: &str) -> ElementIr {
        let (req, resp) = schemas();
        let checked = check_element(&parse_element(src).unwrap(), &req, &resp).unwrap();
        adn_ir::lower_element(&checked, &[], &req, &resp).unwrap()
    }

    const COUNTER: &str = r#"
        element Counter() {
            state hits(username: string key, n: u64);
            on request {
                INSERT INTO hits VALUES (input.username, 0);
                UPDATE hits SET n = hits.n + 1 WHERE hits.username == input.username;
                SELECT * FROM input;
            }
        }
    "#;

    struct Harness {
        net: InProcNetwork,
        link: Arc<dyn Link>,
        svc: Arc<ServiceSchema>,
        client: Arc<RpcClient>,
        _server: adn_rpc::runtime::ServerHandle,
    }

    fn harness() -> Harness {
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();
        let frames = net.attach(200);
        let svc2 = svc.clone();
        let server = spawn_server(
            ServerConfig {
                addr: 200,
                service: svc.clone(),
                chain: EngineChain::new(),
            },
            link.clone(),
            frames,
            Box::new(move |req| {
                let m = svc2.method_by_id(1).unwrap();
                let mut resp = RpcMessage::response_to(req, m.response.clone());
                resp.set("ok", Value::Bool(true));
                resp
            }),
        );
        let client_frames = net.attach(100);
        let client = RpcClient::new(
            100,
            link.clone(),
            client_frames,
            svc.clone(),
            EngineChain::new(),
        );
        Harness {
            net,
            link,
            svc,
            client,
            _server: server,
        }
    }

    fn spawn_counter_processor(h: &Harness, addr: u64, element: &ElementIr) -> ProcessorHandle {
        let frames = h.net.attach(addr);
        let mut chain = EngineChain::new();
        chain.push(compile_engine(
            element,
            &CompileOpts {
                seed: 1,
                replicas: vec![],
                ..Default::default()
            },
        ));
        spawn_processor(
            ProcessorConfig {
                addr,
                service: h.svc.clone(),
                chain,
                request_next: NextHop::Fixed(200),
                response_next: NextHop::Dst,
                initial_flows: Default::default(),
                telemetry: None,
                clock: None,
                batch_max: DEFAULT_BATCH_MAX,
                overload: Default::default(),
            },
            h.link.clone(),
            frames,
        )
    }

    fn call(h: &Harness, oid: u64, user: &str) -> Result<RpcMessage, adn_rpc::RpcError> {
        let m = h.svc.method_by_id(1).unwrap();
        let msg = RpcMessage::request(0, 1, m.request.clone())
            .with("object_id", oid)
            .with("username", user);
        h.client
            .send_call(msg, 200)
            .and_then(|p| p.wait(Duration::from_secs(5)))
    }

    #[test]
    fn migration_preserves_state_and_loses_nothing() {
        let h = harness();
        h.client.set_via(Some(50));
        let element = lower(COUNTER);
        let old = spawn_counter_processor(&h, 50, &element);

        for i in 0..5 {
            call(&h, i, "alice").unwrap();
        }
        let element2 = element.clone();
        let new = migrate_processor(
            old,
            move || {
                let mut chain = EngineChain::new();
                chain.push(compile_engine(
                    &element2,
                    &CompileOpts {
                        seed: 2,
                        replicas: vec![],
                        ..Default::default()
                    },
                ));
                chain
            },
            &h.net,
            h.link.clone(),
            h.svc.clone(),
            NextHop::Fixed(200),
        )
        .unwrap();

        // Traffic keeps flowing after migration.
        for i in 5..10 {
            call(&h, i, "alice").unwrap();
        }
        // Counter state survived: 10 requests total for alice.
        let images = new.export_state().unwrap();
        let tables = decode_engine_image(&element, &images[0]).unwrap();
        let hits = &tables[0];
        let key = Value::Str("alice".into());
        let row = hits.lookup(hits.key_hash_of(&[&key])).unwrap();
        assert_eq!(row[1], Value::U64(10));
        new.stop();
    }

    #[test]
    fn scale_out_then_in_preserves_counts() {
        let h = harness();
        h.client.set_via(Some(50));
        let element = lower(COUNTER);
        let old = spawn_counter_processor(&h, 50, &element);
        let alloc = AddrAllocator::new(5000);

        let users = ["alice", "bob", "carol", "dave", "eve", "frank"];
        for (i, user) in users.iter().cycle().take(30).enumerate() {
            call(&h, i as u64, user).unwrap();
        }

        // Scale out to 3 shards on the username field (index 1).
        let group = scale_out(
            &old,
            std::slice::from_ref(&element),
            1,
            3,
            9,
            &[],
            &h.net,
            h.link.clone(),
            h.svc.clone(),
            NextHop::Fixed(200),
            &alloc,
            None,
        )
        .unwrap();
        old.stop();

        for (i, user) in users.iter().cycle().take(30).enumerate() {
            call(&h, 100 + i as u64, user).unwrap();
        }

        // Scale back in and verify merged counts: 60 total, 10 per user.
        let merged = scale_in(
            group,
            std::slice::from_ref(&element),
            9,
            &[],
            &h.net,
            h.link.clone(),
            h.svc.clone(),
            NextHop::Fixed(200),
        )
        .unwrap();

        for (i, user) in users.iter().cycle().take(6).enumerate() {
            call(&h, 200 + i as u64, user).unwrap();
        }

        let images = merged.export_state().unwrap();
        let tables = decode_engine_image(&element, &images[0]).unwrap();
        let hits = &tables[0];
        assert_eq!(hits.len(), users.len());
        for user in users {
            let key = Value::Str(user.into());
            let row = hits.lookup(hits.key_hash_of(&[&key])).unwrap();
            assert_eq!(row[1], Value::U64(11), "count for {user}");
        }
        merged.stop();
    }

    #[test]
    fn failed_scale_out_leaves_the_old_processor_serving() {
        let h = harness();
        h.client.set_via(Some(50));
        let element = lower(COUNTER);
        let old = spawn_counter_processor(&h, 50, &element);
        call(&h, 0, "alice").unwrap();

        // Two elements for a one-engine processor: the image arity check
        // fails after the old processor was paused and snapshotted.
        let result = scale_out(
            &old,
            &[element.clone(), element.clone()],
            1,
            2,
            9,
            &[],
            &h.net,
            h.link.clone(),
            h.svc.clone(),
            NextHop::Fixed(200),
            &AddrAllocator::new(5000),
            None,
        );
        assert!(result.is_err());

        for i in 1..5 {
            call(&h, i, "alice").unwrap_or_else(|e| panic!("call {i} after failed scale-out: {e}"));
        }
        old.stop();
    }

    #[test]
    fn partition_images_align_with_router() {
        let element = lower(COUNTER);
        // Build a populated engine, export, partition, check shard homes.
        let mut engine = compile_element(
            &element,
            &CompileOpts {
                seed: 0,
                replicas: vec![],
                ..Default::default()
            },
        );
        use adn_rpc::engine::Engine as _;
        let (req, _) = schemas();
        for user in ["u1", "u2", "u3", "u4", "u5"] {
            let mut msg = RpcMessage::request(1, 1, req.clone())
                .with("object_id", 1u64)
                .with("username", user);
            engine.process(&mut msg);
        }
        let image = engine.export_state();
        let parts = partition_engine_image(&element, &image, 1, 2).unwrap();
        for (s, part) in parts.iter().enumerate() {
            let tables = decode_engine_image(&element, part).unwrap();
            for row in tables[0].scan() {
                let expected = adn_dataplane::scaleout::shard_of(&row[0], 2);
                assert_eq!(expected, s, "row {:?} in wrong shard", row[0]);
            }
        }
    }

    #[test]
    fn unaligned_tables_replicate() {
        // A table not keyed by the shard field replicates to all shards.
        let element = lower(
            r#"element E() {
                state t(object_id: u64 key, v: u64) init { (1, 10), (2, 20) };
                on request {
                    SELECT * FROM input JOIN t ON input.object_id == t.object_id;
                }
            }"#,
        );
        let engine = compile_element(
            &element,
            &CompileOpts {
                seed: 0,
                replicas: vec![],
                ..Default::default()
            },
        );
        use adn_rpc::engine::Engine as _;
        let image = engine.export_state();
        // Shard on username (field 1), but the table is keyed by object_id.
        let parts = partition_engine_image(&element, &image, 1, 3).unwrap();
        for part in &parts {
            let tables = decode_engine_image(&element, part).unwrap();
            assert_eq!(tables[0].len(), 2, "replicated tables keep all rows");
        }
    }
}
