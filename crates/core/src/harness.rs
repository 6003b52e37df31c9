//! Ready-made worlds for examples, integration tests, and the benchmark
//! harness: a full ADN deployment (client, replicas, controller, cluster
//! store) and the equivalent service-mesh deployment, driving the same
//! object-store application over the same in-process fabric.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use adn_cluster::resources::{
    AdnConfig, ElementSpec, NodeId, NodeSpec, ReplicaSpec, ServiceSpec, SmartNicSpec, SwitchId,
    SwitchSpec,
};
use adn_cluster::ClusterStore;
use adn_controller::placement::Environment;
use adn_controller::runtime::AppRegistration;
use adn_controller::Controller;
use adn_mesh::filters::{AccessLogFilter, AclFilter, FaultFilter, MeshFilter};
use adn_mesh::sidecar::{spawn_sidecar, SidecarConfig, Upstream};
use adn_mesh::{MeshClient, MeshServer, SidecarHandle};
use adn_rpc::chaos::{ChaosLink, ChaosPolicy};
use adn_rpc::engine::EngineChain;
use adn_rpc::error::{RpcError, RpcResult};
use adn_rpc::message::RpcMessage;
use adn_rpc::retry::RetryPolicy;
use adn_rpc::runtime::{spawn_server, RpcClient, ServerConfig, ServerHandle, ServerStatsSnapshot};
use adn_rpc::schema::{MethodDef, RpcSchema, ServiceSchema};
use adn_rpc::transport::{InProcNetwork, Link};
use adn_rpc::value::{Value, ValueType};

/// The conventional object-store schemas used by the standard elements, the
/// examples, and the paper-evaluation benchmarks.
pub fn object_store_schemas() -> (Arc<RpcSchema>, Arc<RpcSchema>) {
    (
        Arc::new(
            RpcSchema::builder()
                .field("object_id", ValueType::U64)
                .field("username", ValueType::Str)
                .field("payload", ValueType::Bytes)
                .build()
                .expect("static schema"),
        ),
        Arc::new(
            RpcSchema::builder()
                .field("ok", ValueType::Bool)
                .field("payload", ValueType::Bytes)
                .build()
                .expect("static schema"),
        ),
    )
}

/// The object-store service schema (one method: `Put`).
pub fn object_store_service() -> Arc<ServiceSchema> {
    let (request, response) = object_store_schemas();
    Arc::new(
        ServiceSchema::new(
            "objectstore.ObjectStore",
            vec![MethodDef {
                id: 1,
                name: "Put".into(),
                request,
                response,
            }],
        )
        .expect("static service"),
    )
}

/// Hardware richness of the simulated environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvPreset {
    /// Plain hosts: software processors only (libraries + sidecars).
    Bare,
    /// eBPF-capable kernels, SmartNICs on both hosts, a programmable
    /// switch on the path.
    Rich,
}

impl EnvPreset {
    fn node(self, id: u32) -> NodeSpec {
        NodeSpec {
            id: NodeId(id),
            name: format!("node{id}"),
            cpu_slots: 16,
            ebpf_capable: self == EnvPreset::Rich,
            smartnic: (self == EnvPreset::Rich).then_some(SmartNicSpec { cpu_slots: 8 }),
        }
    }

    fn environment(self) -> Environment {
        Environment {
            client_node: self.node(1),
            server_node: self.node(2),
            switch: (self == EnvPreset::Rich).then_some(SwitchSpec {
                id: SwitchId(1),
                name: "tor".into(),
                programmable: true,
                table_capacity: 4096,
            }),
            allow_in_app: true,
        }
    }
}

/// Fault injection for an [`AdnWorld`]'s fabric: every frame (client,
/// processors, servers, controller deployments) crosses one seeded
/// [`ChaosLink`].
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Deterministic RNG seed for the fault rolls.
    pub seed: u64,
    /// Default per-frame fault policy.
    pub policy: ChaosPolicy,
}

/// Configuration of an [`AdnWorld`].
#[derive(Clone)]
pub struct WorldConfig {
    /// Element chain (sender side first).
    pub chain: Vec<ElementSpec>,
    /// Destination replica count.
    pub replicas: usize,
    /// Environment hardware.
    pub env: EnvPreset,
    /// RNG seed (fault injection, etc.).
    pub seed: u64,
    /// Wrap the fabric in a [`ChaosLink`] with this config.
    pub chaos: Option<ChaosConfig>,
    /// Record per-object-id server side-effect counts (for verifying
    /// at-most-once execution under retries).
    pub track_effects: bool,
    /// Time source for the controller (heartbeat ages, the cluster
    /// view's window). `None` uses the system clock;
    /// deterministic tests pass a shared
    /// [`adn_rpc::clock::VirtualClock`] and advance it explicitly.
    pub clock: Option<Arc<dyn adn_rpc::clock::Clock>>,
}

impl std::fmt::Debug for WorldConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldConfig")
            .field("chain", &self.chain)
            .field("replicas", &self.replicas)
            .field("env", &self.env)
            .field("seed", &self.seed)
            .field("chaos", &self.chaos)
            .field("track_effects", &self.track_effects)
            .field("clock", &self.clock.as_ref().map(|_| "<custom>"))
            .finish()
    }
}

impl WorldConfig {
    /// A chain of catalog elements by name, no args, no constraints.
    pub fn of_elements(names: &[&str]) -> Self {
        Self {
            chain: names
                .iter()
                .map(|n| ElementSpec {
                    element: n.to_string(),
                    source: None,
                    args: vec![],
                    constraints: vec![],
                })
                .collect(),
            replicas: 1,
            env: EnvPreset::Bare,
            seed: 0xADB,
            chaos: None,
            track_effects: false,
            clock: None,
        }
    }

    /// The paper §6 evaluation chain: Logging → ACL → Fault(prob).
    pub fn paper_eval_chain(fault_prob: f64) -> Self {
        let mut cfg = Self::of_elements(&["Logging", "Acl", "Fault"]);
        cfg.chain[2].args = vec![("abort_prob".into(), serde_json_number(fault_prob))];
        cfg
    }

    /// One element with arguments.
    pub fn single(name: &str, args: Vec<(String, serde_json::Value)>) -> Self {
        let mut cfg = Self::of_elements(&[name]);
        cfg.chain[0].args = args;
        cfg
    }
}

fn serde_json_number(v: f64) -> serde_json::Value {
    serde_json::Number::from_f64(v)
        .map(serde_json::Value::Number)
        .unwrap_or(serde_json::Value::Null)
}

/// Outcome counters from a closed-loop run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Calls that completed OK.
    pub completed: u64,
    /// Calls rejected by a network element or the server.
    pub aborted: u64,
    /// Transport errors / timeouts.
    pub errors: u64,
}

impl LoopStats {
    /// Total calls resolved.
    pub fn total(&self) -> u64 {
        self.completed + self.aborted + self.errors
    }
}

/// A complete ADN deployment driving the object-store app.
pub struct AdnWorld {
    store: ClusterStore,
    controller: Controller,
    client: Arc<RpcClient>,
    service: Arc<ServiceSchema>,
    events: crossbeam::channel::Receiver<adn_cluster::ClusterEvent>,
    replica_endpoints: Vec<u64>,
    servers: Vec<Arc<ServerHandle>>,
    net: InProcNetwork,
    chaos: Option<Arc<ChaosLink>>,
    effects: Option<Arc<Mutex<HashMap<u64, u64>>>>,
}

/// World construction failure.
#[derive(Debug)]
pub struct WorldError {
    pub message: String,
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WorldError {}

impl AdnWorld {
    /// Starts a world: replicas, client, controller, and the deployed
    /// chain from `config`.
    pub fn start(config: WorldConfig) -> Result<Self, WorldError> {
        let (request, response) = object_store_schemas();
        let service = object_store_service();
        let store = ClusterStore::new();
        let events = store.watch();
        let env = config.env.environment();
        store.add_node(env.client_node.clone());
        store.add_node(env.server_node.clone());

        let net = InProcNetwork::new();
        let chaos = config
            .chaos
            .map(|c| ChaosLink::with_policy(Arc::new(net.clone()), c.seed, c.policy));
        let link: Arc<dyn Link> = match &chaos {
            Some(chaos) => chaos.clone(),
            None => Arc::new(net.clone()),
        };
        let effects = config
            .track_effects
            .then(|| Arc::new(Mutex::new(HashMap::new())));

        // Replicas at 200, 201, ...; each echoes the payload back.
        let replica_endpoints: Vec<u64> = (0..config.replicas as u64).map(|i| 200 + i).collect();
        let mut servers = Vec::new();
        for &endpoint in &replica_endpoints {
            let frames = net.attach(endpoint);
            let svc = service.clone();
            let effect_log = effects.clone();
            servers.push(Arc::new(spawn_server(
                ServerConfig {
                    addr: endpoint,
                    service: service.clone(),
                    chain: EngineChain::new(),
                },
                link.clone(),
                frames,
                Box::new(move |req| {
                    if let (Some(log), Some(Value::U64(oid))) =
                        (effect_log.as_ref(), req.get("object_id"))
                    {
                        *log.lock().entry(*oid).or_insert(0) += 1;
                    }
                    let m = svc.method_by_id(req.method_id).expect("method");
                    let mut resp = RpcMessage::response_to(req, m.response.clone());
                    resp.set("ok", Value::Bool(true));
                    match req.get("payload") {
                        // Empty-payload probes get the replica's identity
                        // back, so tests can observe load-balancer spread
                        // even through multi-hop deployments.
                        Some(Value::Bytes(b)) if b.is_empty() => {
                            resp.set("payload", Value::Bytes(endpoint.to_be_bytes().to_vec()));
                        }
                        Some(p) => {
                            resp.set("payload", p.clone());
                        }
                        None => {}
                    }
                    resp
                }),
            )));
        }
        store.add_service(ServiceSpec {
            name: "storage".into(),
            replicas: replica_endpoints
                .iter()
                .map(|&endpoint| ReplicaSpec {
                    node: NodeId(2),
                    endpoint,
                })
                .collect(),
        });

        let client_frames = net.attach(100);
        let client = RpcClient::new(
            100,
            link.clone(),
            client_frames,
            service.clone(),
            EngineChain::new(),
        );

        // The controller spawns its processors on the same (possibly
        // chaos-wrapped) link the app uses, on the configured time source.
        let clock = config.clock.clone().unwrap_or_else(adn_rpc::clock::system);
        let controller =
            Controller::with_link_and_clock(store.clone(), net.clone(), link, 10_000, clock);

        // Re-export the world's ad-hoc counters through the telemetry
        // registry: one `Registry::snapshot()` now covers fault injection,
        // client resilience, and server dedup alongside element metrics.
        if let Some(chaos) = &chaos {
            let chaos = chaos.clone();
            controller.registry().register_source(move || {
                let s = chaos.stats();
                vec![
                    ("chaos.passed".into(), s.passed),
                    ("chaos.dropped".into(), s.dropped),
                    ("chaos.duplicated".into(), s.duplicated),
                    ("chaos.reordered".into(), s.reordered),
                    ("chaos.delayed".into(), s.delayed),
                    ("chaos.partitioned".into(), s.partitioned),
                ]
            });
        }
        {
            let client = client.clone();
            controller.registry().register_source(move || {
                let s = client.stats();
                vec![
                    ("client.malformed_frames".into(), s.malformed_frames),
                    ("client.orphan_responses".into(), s.orphan_responses),
                    ("client.retries".into(), s.retries),
                    ("client.breaker_rejections".into(), s.breaker_rejections),
                    ("client.fail_open_bypasses".into(), s.fail_open_bypasses),
                ]
            });
        }
        {
            let servers = servers.clone();
            controller.registry().register_source(move || {
                let mut out = Vec::new();
                for server in &servers {
                    let s = server.stats();
                    let tag = server.addr();
                    out.push((format!("server.{tag}.handled"), s.handled));
                    out.push((format!("server.{tag}.malformed_frames"), s.malformed_frames));
                    out.push((format!("server.{tag}.dedup_hits"), s.dedup_hits));
                }
                out
            });
        }
        controller.register_app(
            "app",
            AppRegistration {
                request,
                response,
                service: service.clone(),
                client: client.clone(),
                servers: servers.clone(),
                env,
            },
        );
        store.apply_config(AdnConfig {
            app: "app".into(),
            src_service: "frontend".into(),
            dst_service: "storage".into(),
            chain: config.chain,
            seed: config.seed,
        });
        let world = Self {
            store,
            controller,
            client,
            service,
            events,
            replica_endpoints,
            servers,
            net,
            chaos,
            effects,
        };
        world.sync()?;
        Ok(world)
    }

    /// Reconciles pending cluster events (config/replica changes).
    pub fn sync(&self) -> Result<usize, WorldError> {
        self.controller
            .run_pending(&self.events)
            .map_err(|e| WorldError {
                message: e.to_string(),
            })
    }

    /// Builds a request message.
    pub fn request(&self, object_id: u64, username: &str, payload: &[u8]) -> RpcMessage {
        let m = self.service.method_by_id(1).expect("method");
        RpcMessage::request(0, 1, m.request.clone())
            .with("object_id", object_id)
            .with("username", username)
            .with("payload", payload.to_vec())
    }

    /// One blocking call.
    pub fn call(&self, object_id: u64, username: &str, payload: &[u8]) -> RpcResult<RpcMessage> {
        self.client
            .call(self.request(object_id, username, payload), self.target())
    }

    /// One blocking call with retries, dedup, and circuit breaking — the
    /// path chaos tests drive.
    pub fn call_resilient(
        &self,
        object_id: u64,
        username: &str,
        payload: &[u8],
        policy: &RetryPolicy,
    ) -> RpcResult<RpcMessage> {
        self.client.call_resilient(
            self.request(object_id, username, payload),
            self.target(),
            policy,
        )
    }

    /// Starts a call without waiting.
    pub fn send(
        &self,
        object_id: u64,
        username: &str,
        payload: &[u8],
    ) -> RpcResult<adn_rpc::runtime::PendingCall> {
        self.client
            .send_call(self.request(object_id, username, payload), self.target())
    }

    /// The logical destination (first replica; ROUTE elements re-balance).
    pub fn target(&self) -> u64 {
        self.replica_endpoints[0]
    }

    /// The underlying client.
    pub fn client(&self) -> &Arc<RpcClient> {
        &self.client
    }

    /// The cluster store (apply new configs, add replicas, ...).
    pub fn store(&self) -> &ClusterStore {
        &self.store
    }

    /// The controller.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// The fabric (for advanced reconfiguration drills).
    pub fn net(&self) -> &InProcNetwork {
        &self.net
    }

    /// The chaos link, when the world was started with one.
    ///
    /// Note: for reading fault counters, prefer
    /// [`AdnWorld::telemetry_counters`] (the registry re-exports them as
    /// `chaos.*`); this getter remains for configuring policies at runtime.
    pub fn chaos(&self) -> Option<&Arc<ChaosLink>> {
        self.chaos.as_ref()
    }

    /// All re-exported counters from the telemetry registry, sorted by
    /// name: `chaos.*` fault-injection stats, `client.*` resilience stats
    /// (retries, breaker, fail-open), and `server.<addr>.*` dedup stats.
    pub fn telemetry_counters(&self) -> Vec<(String, u64)> {
        self.controller.registry().snapshot().counters
    }

    /// Per-object-id server side-effect counts (requires
    /// `track_effects`). At-most-once execution means every entry is 1.
    pub fn effect_counts(&self) -> HashMap<u64, u64> {
        self.effects
            .as_ref()
            .map(|e| e.lock().clone())
            .unwrap_or_default()
    }

    /// Stats snapshots of every replica server, in endpoint order.
    ///
    /// Note: the same numbers are re-exported through the telemetry
    /// registry as `server.<addr>.*` counters — prefer
    /// [`AdnWorld::telemetry_counters`] when reading them alongside other
    /// metrics; this getter remains for typed access.
    pub fn server_stats(&self) -> Vec<ServerStatsSnapshot> {
        self.servers.iter().map(|s| s.stats()).collect()
    }

    /// Current placement description.
    pub fn describe(&self) -> String {
        self.controller
            .describe_app("app")
            .unwrap_or_else(|| "<no deployment>".into())
    }

    /// Closed-loop driver: keeps `concurrency` calls outstanding from one
    /// thread for `duration` (the paper's workload: "128 concurrent RPC
    /// requests using a single thread").
    pub fn run_closed_loop(
        &self,
        concurrency: usize,
        duration: Duration,
        payload: &[u8],
        users: &[&str],
    ) -> LoopStats {
        run_closed_loop(
            |i| {
                let user = users[(i % users.len() as u64) as usize];
                self.send(i, user, payload)
                    .map(|p| Box::new(move |t: Duration| p.wait(t)) as WaitFn)
            },
            concurrency,
            duration,
        )
    }

    /// Sequential latency sampler: `n` calls, returning per-call wall time.
    pub fn sample_latency(&self, n: usize, payload: &[u8], user: &str) -> Vec<Duration> {
        (0..n)
            .map(|i| {
                let start = Instant::now();
                let _ = self.call(i as u64, user, payload);
                start.elapsed()
            })
            .collect()
    }
}

type WaitFn = Box<dyn FnOnce(Duration) -> RpcResult<RpcMessage>>;

/// Shared closed-loop implementation: one thread, `concurrency` outstanding.
fn run_closed_loop(
    mut send: impl FnMut(u64) -> RpcResult<WaitFn>,
    concurrency: usize,
    duration: Duration,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let deadline = Instant::now() + duration;
    let mut window: std::collections::VecDeque<WaitFn> = std::collections::VecDeque::new();
    let mut seq = 0u64;

    // Fill the window.
    for _ in 0..concurrency {
        match send(seq) {
            Ok(w) => window.push_back(w),
            Err(_) => stats.errors += 1,
        }
        seq += 1;
    }
    while Instant::now() < deadline {
        let Some(wait) = window.pop_front() else {
            break;
        };
        match wait(Duration::from_secs(10)) {
            Ok(_) => stats.completed += 1,
            Err(RpcError::Aborted { .. }) => stats.aborted += 1,
            Err(_) => stats.errors += 1,
        }
        match send(seq) {
            Ok(w) => window.push_back(w),
            Err(_) => stats.errors += 1,
        }
        seq += 1;
    }
    // Drain the window.
    for wait in window {
        match wait(Duration::from_secs(10)) {
            Ok(_) => stats.completed += 1,
            Err(RpcError::Aborted { .. }) => stats.aborted += 1,
            Err(_) => stats.errors += 1,
        }
    }
    stats
}

// ---------------------------------------------------------------------------
// The mesh (baseline) world
// ---------------------------------------------------------------------------

/// Which of the paper's three policies run in the client sidecar.
#[derive(Debug, Clone, Copy)]
pub struct MeshPolicies {
    pub logging: bool,
    pub acl: bool,
    /// Fault probability (0 disables the filter entirely).
    pub fault_prob: f64,
}

impl MeshPolicies {
    /// The full evaluation chain.
    pub fn all(fault_prob: f64) -> Self {
        Self {
            logging: true,
            acl: true,
            fault_prob,
        }
    }
}

/// The gRPC + sidecars baseline world (Figure 1 topology).
pub struct MeshWorld {
    client: Arc<MeshClient>,
    service: Arc<ServiceSchema>,
    client_sidecar: SidecarHandle,
    server_sidecar: SidecarHandle,
    _server: MeshServer,
}

impl MeshWorld {
    /// Starts the baseline: client(1) → sidecar(11) → sidecar(12) →
    /// server(2), filters per `policies` in the client sidecar.
    pub fn start(policies: MeshPolicies, seed: u64) -> Self {
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let service = object_store_service();

        let server_frames = net.attach(2);
        let svc = service.clone();
        let server = MeshServer::spawn(
            2,
            12,
            link.clone(),
            server_frames,
            service.clone(),
            Box::new(move |req| {
                let m = svc.method_by_id(req.method_id).expect("method");
                let mut resp = RpcMessage::response_to(req, m.response.clone());
                resp.set("ok", Value::Bool(true));
                if let Some(p) = req.get("payload") {
                    resp.set("payload", p.clone());
                }
                resp
            }),
        );

        let mut filters: Vec<Box<dyn MeshFilter>> = Vec::new();
        if policies.logging {
            filters.push(Box::new(AccessLogFilter::new()));
        }
        if policies.acl {
            filters.push(Box::new(AclFilter::with_default_table(2)));
        }
        if policies.fault_prob > 0.0 {
            filters.push(Box::new(FaultFilter::new(policies.fault_prob, seed)));
        }

        let cs_frames = net.attach(11);
        let client_sidecar = spawn_sidecar(
            SidecarConfig {
                addr: 11,
                filters,
                upstream: Upstream::Fixed(12),
            },
            link.clone(),
            cs_frames,
        );
        let ss_frames = net.attach(12);
        let server_sidecar = spawn_sidecar(
            SidecarConfig {
                addr: 12,
                filters: vec![],
                upstream: Upstream::Dst,
            },
            link.clone(),
            ss_frames,
        );

        let client_frames = net.attach(1);
        let client = MeshClient::new(1, 11, link, client_frames, service.clone());
        Self {
            client,
            service,
            client_sidecar,
            server_sidecar,
            _server: server,
        }
    }

    /// Builds a request message.
    pub fn request(&self, object_id: u64, username: &str, payload: &[u8]) -> RpcMessage {
        let m = self.service.method_by_id(1).expect("method");
        RpcMessage::request(0, 1, m.request.clone())
            .with("object_id", object_id)
            .with("username", username)
            .with("payload", payload.to_vec())
    }

    /// One blocking call.
    pub fn call(&self, object_id: u64, username: &str, payload: &[u8]) -> RpcResult<RpcMessage> {
        self.client
            .call(self.request(object_id, username, payload), 2)
    }

    /// Sidecar stats (client side, server side).
    pub fn sidecar_requests(&self) -> (u64, u64) {
        (
            self.client_sidecar.requests(),
            self.server_sidecar.requests(),
        )
    }

    /// Closed-loop driver matching [`AdnWorld::run_closed_loop`].
    pub fn run_closed_loop(
        &self,
        concurrency: usize,
        duration: Duration,
        payload: &[u8],
        users: &[&str],
    ) -> LoopStats {
        run_closed_loop(
            |i| {
                let user = users[(i % users.len() as u64) as usize];
                self.client
                    .send_call(self.request(i, user, payload), 2)
                    .map(|p| Box::new(move |t: Duration| p.wait(t)) as WaitFn)
            },
            concurrency,
            duration,
        )
    }

    /// Sequential latency sampler.
    pub fn sample_latency(&self, n: usize, payload: &[u8], user: &str) -> Vec<Duration> {
        (0..n)
            .map(|i| {
                let start = Instant::now();
                let _ = self.call(i as u64, user, payload);
                start.elapsed()
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Hand-coded world (Figure 5's third configuration)
// ---------------------------------------------------------------------------

/// An ADN-style world whose chain is the hand-written engines rather than
/// compiled DSL (the "hand-coded mRPC" bar of Figure 5). Built without a
/// controller: the chain is installed directly into the client library.
pub struct HandcodedWorld {
    client: Arc<RpcClient>,
    service: Arc<ServiceSchema>,
    _server: ServerHandle,
}

impl HandcodedWorld {
    /// Starts the world with Logging → ACL → Fault hand-coded engines.
    pub fn start(fault_prob: f64, seed: u64) -> Self {
        let (request_schema, _) = object_store_schemas();
        Self::start_with(adn_elements::handcoded::paper_eval_chain_handcoded(
            &request_schema,
            fault_prob,
            seed,
        ))
    }

    /// Starts the world with an arbitrary client-side engine chain.
    pub fn start_with(engines: Vec<Box<dyn adn_rpc::engine::Engine>>) -> Self {
        let service = object_store_service();
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());

        let server_frames = net.attach(200);
        let svc = service.clone();
        let server = spawn_server(
            ServerConfig {
                addr: 200,
                service: service.clone(),
                chain: EngineChain::new(),
            },
            link.clone(),
            server_frames,
            Box::new(move |req| {
                let m = svc.method_by_id(req.method_id).expect("method");
                let mut resp = RpcMessage::response_to(req, m.response.clone());
                resp.set("ok", Value::Bool(true));
                if let Some(p) = req.get("payload") {
                    resp.set("payload", p.clone());
                }
                resp
            }),
        );

        let chain = EngineChain::from_engines(engines);
        let client_frames = net.attach(100);
        let client = RpcClient::new(100, link, client_frames, service.clone(), chain);
        Self {
            client,
            service,
            _server: server,
        }
    }

    /// Builds a request.
    pub fn request(&self, object_id: u64, username: &str, payload: &[u8]) -> RpcMessage {
        let m = self.service.method_by_id(1).expect("method");
        RpcMessage::request(0, 1, m.request.clone())
            .with("object_id", object_id)
            .with("username", username)
            .with("payload", payload.to_vec())
    }

    /// One blocking call.
    pub fn call(&self, object_id: u64, username: &str, payload: &[u8]) -> RpcResult<RpcMessage> {
        self.client
            .call(self.request(object_id, username, payload), 200)
    }

    /// Closed-loop driver.
    pub fn run_closed_loop(
        &self,
        concurrency: usize,
        duration: Duration,
        payload: &[u8],
        users: &[&str],
    ) -> LoopStats {
        run_closed_loop(
            |i| {
                let user = users[(i % users.len() as u64) as usize];
                self.client
                    .send_call(self.request(i, user, payload), 200)
                    .map(|p| Box::new(move |t: Duration| p.wait(t)) as WaitFn)
            },
            concurrency,
            duration,
        )
    }

    /// Sequential latency sampler.
    pub fn sample_latency(&self, n: usize, payload: &[u8], user: &str) -> Vec<Duration> {
        (0..n)
            .map(|i| {
                let start = Instant::now();
                let _ = self.call(i as u64, user, payload);
                start.elapsed()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adn_world_runs_the_paper_chain() {
        let world = AdnWorld::start(WorldConfig::paper_eval_chain(0.0)).unwrap();
        let resp = world.call(1, "alice", b"hello").unwrap();
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        let err = world.call(2, "bob", b"hello").unwrap_err();
        assert!(matches!(err, RpcError::Aborted { code: 7, .. }));
    }

    #[test]
    fn mesh_world_matches_functionally() {
        let mesh = MeshWorld::start(MeshPolicies::all(0.0), 1);
        let resp = mesh.call(1, "alice", b"hello").unwrap();
        assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        let err = mesh.call(2, "bob", b"hello").unwrap_err();
        assert!(matches!(err, RpcError::Aborted { code: 7, .. }));
        let (cs, ss) = mesh.sidecar_requests();
        assert_eq!(cs, 2);
        assert_eq!(ss, 1, "denied request never reaches the server side");
    }

    #[test]
    fn handcoded_world_matches_functionally() {
        let world = HandcodedWorld::start(0.0, 1);
        assert!(world.call(1, "alice", b"hello").is_ok());
        assert!(matches!(
            world.call(2, "bob", b"hello").unwrap_err(),
            RpcError::Aborted { code: 7, .. }
        ));
    }

    #[test]
    fn closed_loop_counts_add_up() {
        let world = AdnWorld::start(WorldConfig::paper_eval_chain(0.1)).unwrap();
        let stats =
            world.run_closed_loop(32, Duration::from_millis(300), b"x", &["alice", "carol"]);
        assert!(stats.completed > 0, "{stats:?}");
        assert!(stats.aborted > 0, "fault injection should fire: {stats:?}");
        assert_eq!(stats.errors, 0, "{stats:?}");
    }

    #[test]
    fn world_reconfigures_via_store() {
        let world = AdnWorld::start(WorldConfig::of_elements(&["Acl"])).unwrap();
        assert!(world.call(1, "bob", b"x").is_err());
        // Swap in a pass-through chain.
        world.store().apply_config(AdnConfig {
            app: "app".into(),
            src_service: "frontend".into(),
            dst_service: "storage".into(),
            chain: WorldConfig::of_elements(&["Logging"]).chain,
            seed: 0,
        });
        world.sync().unwrap();
        assert!(world.call(1, "bob", b"x").is_ok());
    }

    #[test]
    fn latency_sampler_returns_samples() {
        let world = AdnWorld::start(WorldConfig::of_elements(&["Logging"])).unwrap();
        let samples = world.sample_latency(10, b"x", "alice");
        assert_eq!(samples.len(), 10);
        assert!(samples.iter().all(|d| *d > Duration::ZERO));
    }
}
