//! The event-driven runtime controller.
//!
//! Paper §6: "The ADN controller watches for changes to this resource
//! \[ADNConfig\] or to the deployment (e.g., a new service replica). It
//! updates the data plane processors when either changes."
//!
//! [`Controller`] subscribes to the cluster store; each event drives a
//! reconciliation: config changes recompile and redeploy the chain
//! (make-before-break: the new path is live before the old retires),
//! replica changes rebind ROUTE replica sets, and sustained high load on a
//! processor group can be answered with keyed scale-out (exposed as an
//! explicit operation; policy thresholds live with the operator).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use adn_cluster::{ClusterEvent, ClusterStore};
use adn_dataplane::processor::{
    spawn_processor, NextHop, OverloadPolicy, ProcessorConfig, DEFAULT_BATCH_MAX,
};
use adn_rpc::clock::Clock;
use adn_rpc::engine::EngineChain;
use adn_rpc::retry::DegradedMode;
use adn_rpc::runtime::{RpcClient, ServerHandle};
use adn_rpc::schema::{RpcSchema, ServiceSchema};
use adn_rpc::transport::{EndpointAddr, InProcNetwork, Link};
use adn_telemetry::{
    ClusterView, HopTelemetry, LoadAwarePolicy, ProcessorObservation, Registry, Sampler, SpanRing,
};
use adn_verifier::{codes, verify_chain, ChainVerifyOptions};

use crate::compile::{compile_app, CompiledApp};
use crate::deploy::{build_engine, deploy, AddrAllocator, Deployment};
use crate::placement::{place, Environment};
use crate::reconfig::{scale_out, ScaledGroup};

/// Failure-detection and degraded-mode policy for one app.
///
/// A processor that has not stored a heartbeat within
/// `heartbeat_timeout` is declared dead; until its replacement is live,
/// the app's client behaves per `degraded`: fail-closed calls fail fast
/// on the open circuit, fail-open calls bypass the (dead) chain entry
/// and go straight to the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Maximum tolerated heartbeat age before a processor is dead.
    pub heartbeat_timeout: Duration,
    /// What the client does while the chain entry is unreachable.
    pub degraded: DegradedMode,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        Self {
            heartbeat_timeout: Duration::from_millis(500),
            degraded: DegradedMode::FailClosed,
        }
    }
}

/// Everything the controller needs to manage one application.
pub struct AppRegistration {
    /// Request schema.
    pub request: Arc<RpcSchema>,
    /// Response schema.
    pub response: Arc<RpcSchema>,
    /// Service schema (decoding on processors).
    pub service: Arc<ServiceSchema>,
    /// The caller's RPC client (chains and via are installed here).
    pub client: Arc<RpcClient>,
    /// The callee's server handles, one per replica (server-side chains are
    /// installed here).
    pub servers: Vec<Arc<ServerHandle>>,
    /// Deployment environment for the placement solver.
    pub env: Environment,
}

/// How an app answers a load-policy breach: shard the breached group on
/// `shard_field` into `shards` instances. Enabled per app via
/// [`Controller::enable_autoscale`].
#[derive(Debug, Clone)]
pub struct AutoscaleConfig {
    /// Thresholds and cooldown.
    pub policy: LoadAwarePolicy,
    /// Request-schema field index the shard router hashes.
    pub shard_field: usize,
    /// Instances to scale out to.
    pub shards: usize,
}

struct ManagedApp {
    registration: AppRegistration,
    version: u64,
    compiled: Option<CompiledApp>,
    deployment: Option<Deployment>,
    health: HealthPolicy,
    /// Last state snapshot per processor group, keyed by the group's
    /// start index into the compiled chain. Restored into failover
    /// replacements (state since the snapshot is lost — crash, not
    /// migration).
    checkpoints: HashMap<usize, Vec<Vec<u8>>>,
    /// Scale-out-on-breach policy; `None` leaves scaling operator-driven.
    autoscale: Option<AutoscaleConfig>,
    /// The group scaled out by the autoscaler (its router holds the
    /// original group address). At most one per app.
    scaled: Option<ScaledGroup>,
    /// When the autoscaler last scaled out, on the controller's clock
    /// (cooldown anchor).
    last_scaleout: Option<Duration>,
    /// Scale-outs performed by the autoscaler since registration.
    scaleouts: u64,
    /// Overload/admission policy applied to every processor of the app.
    /// Persisted here so redeploys (sync, failover, scale-out) re-apply
    /// it to fresh processors; the default is fully permissive.
    overload: OverloadPolicy,
}

/// Controller error.
#[derive(Debug)]
pub struct ControllerError {
    pub message: String,
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ControllerError {}

fn cerr(message: impl std::fmt::Display) -> ControllerError {
    ControllerError {
        message: message.to_string(),
    }
}

/// Copies state between deployments for groups whose element sequences and
/// table layouts match exactly (same names, columns, keys, capacities).
fn transfer_matching_state(
    old_dep: &Deployment,
    old_comp: &CompiledApp,
    new_dep: &Deployment,
    new_comp: &CompiledApp,
) {
    let signature = |comp: &CompiledApp, range: (usize, usize)| {
        comp.chain.elements[range.0..range.1]
            .iter()
            .map(|e| (e.name.clone(), e.tables.clone()))
            .collect::<Vec<_>>()
    };
    for new_group in &new_dep.groups {
        let Some(new_handle) = new_group.handle.as_ref() else {
            continue;
        };
        let new_sig = signature(new_comp, new_group.range);
        if new_sig.iter().all(|(_, tables)| tables.is_empty()) {
            continue; // stateless group: nothing to carry
        }
        for old_group in &old_dep.groups {
            let Some(old_handle) = old_group.handle.as_ref() else {
                continue;
            };
            if signature(old_comp, old_group.range) == new_sig {
                // A crashed (unresponsive) old processor simply has no
                // state to carry; the new group starts fresh.
                if let Ok(images) = old_handle.export_state() {
                    let _ = new_handle.import_state(images);
                }
                break;
            }
        }
    }
}

/// The logically centralized ADN controller.
pub struct Controller {
    store: ClusterStore,
    net: InProcNetwork,
    link: Arc<dyn Link>,
    alloc: AddrAllocator,
    apps: Mutex<HashMap<String, ManagedApp>>,
    /// Shared metric registry; processors deployed by this controller
    /// record element metrics here, and heartbeats snapshot from it.
    registry: Arc<Registry>,
    /// Span sink for every traced hop of every app.
    spans: Arc<SpanRing>,
    /// Sliding-window cluster view fed by `ClusterEvent::Load`.
    view: Arc<ClusterView>,
    /// Per-app trace samplers (shared with every hop of the app).
    /// Lock ordering: never held together with `apps`.
    samplers: Mutex<HashMap<String, Arc<Sampler>>>,
    /// Time source for autoscale cooldowns, the cluster view's window, and
    /// the heartbeat clock handed to deployed processors.
    clock: Arc<dyn Clock>,
}

impl Controller {
    /// Creates a controller over the cluster store and fabric. Processor
    /// addresses are allocated starting at `addr_base`.
    pub fn new(store: ClusterStore, net: InProcNetwork, addr_base: u64) -> Self {
        let link: Arc<dyn Link> = Arc::new(net.clone());
        Self::with_link(store, net, link, addr_base)
    }

    /// Like [`Controller::new`] but with an explicit link — used to route
    /// controller-deployed processors through a wrapper link (e.g. an
    /// `adn_rpc::ChaosLink` injecting faults in tests).
    pub fn with_link(
        store: ClusterStore,
        net: InProcNetwork,
        link: Arc<dyn Link>,
        addr_base: u64,
    ) -> Self {
        Self::with_link_and_clock(store, net, link, addr_base, adn_rpc::clock::system())
    }

    /// Like [`Controller::with_link`] but with an explicit time source.
    /// Deterministic tests pass a [`adn_rpc::clock::VirtualClock`] shared
    /// with the processors so cooldowns and heartbeat ages follow
    /// controlled jumps.
    pub fn with_link_and_clock(
        store: ClusterStore,
        net: InProcNetwork,
        link: Arc<dyn Link>,
        addr_base: u64,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self {
            store,
            net,
            link,
            alloc: AddrAllocator::new(addr_base),
            apps: Mutex::new(HashMap::new()),
            registry: Arc::new(Registry::new()),
            spans: Arc::new(SpanRing::new(4096)),
            view: Arc::new(ClusterView::with_clock(
                Duration::from_secs(10),
                clock.clone(),
            )),
            samplers: Mutex::new(HashMap::new()),
            clock,
        }
    }

    /// The controller's time source.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// The shared metric registry (element metrics plus re-exported
    /// legacy counters).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The span ring every traced hop writes into.
    pub fn spans(&self) -> &Arc<SpanRing> {
        &self.spans
    }

    /// The sliding-window cluster view fed by load reports.
    pub fn view(&self) -> &Arc<ClusterView> {
        &self.view
    }

    /// The app's trace sampler (created off on first use).
    fn sampler(&self, app: &str) -> Arc<Sampler> {
        self.samplers
            .lock()
            .entry(app.to_owned())
            .or_insert_with(|| Arc::new(Sampler::off()))
            .clone()
    }

    /// Sets the app's trace-sampling rate in [0, 1]. Pushed to both the
    /// client (which synthesizes root trace contexts) and every processor
    /// hop (which decides locally for untraced frames).
    pub fn set_trace_sampling(&self, app: &str, rate: f64) {
        self.sampler(app).set_rate(rate);
        // Locks taken one at a time: sampler first, then apps.
        let client = self
            .apps
            .lock()
            .get(app)
            .map(|m| m.registration.client.clone());
        if let Some(client) = client {
            client.set_trace_sampling(rate);
        }
    }

    /// The telemetry bundle handed to every processor of `app`.
    pub fn hop_telemetry(&self, app: &str) -> HopTelemetry {
        HopTelemetry {
            app: app.to_owned(),
            registry: self.registry.clone(),
            spans: self.spans.clone(),
            sampler: self.sampler(app),
        }
    }

    /// Enables scale-out-on-breach for the app. Call after its config is
    /// applied: the compiled chain must be shard-safe on
    /// `config.shard_field`. Refused when the field is out of range for
    /// some method's request schema (the router would index past the
    /// decoded fields), or when the verifier's partitionability lint
    /// (`V0005`) finds mutated state not keyed by that field (each
    /// instance would hold a diverging replica of it).
    pub fn enable_autoscale(
        &self,
        app: &str,
        config: AutoscaleConfig,
    ) -> Result<(), ControllerError> {
        let mut apps = self.apps.lock();
        let managed = apps
            .get_mut(app)
            .ok_or_else(|| cerr(format!("app {app} not registered")))?;
        let field = config.shard_field;
        for method in managed.registration.service.methods() {
            if field >= method.request.len() {
                return Err(cerr(format!(
                    "shard field {field} is out of range for method {}'s request schema ({} fields)",
                    method.name,
                    method.request.len()
                )));
            }
        }
        let compiled = managed
            .compiled
            .as_ref()
            .ok_or_else(|| cerr(format!("app {app} has no compiled chain to check")))?;
        let opts = ChainVerifyOptions {
            shard_field: Some(field),
            ..Default::default()
        };
        if let Some(finding) = verify_chain(&compiled.chain, &opts)
            .into_iter()
            .find(|d| d.diagnostic.code == codes::NON_PARTITIONABLE)
        {
            return Err(cerr(format!(
                "chain is not shard-safe on field {field}: {}",
                finding.diagnostic.message
            )));
        }
        managed.autoscale = Some(config);
        Ok(())
    }

    /// Scale-outs the autoscaler has performed for the app.
    pub fn scaleout_count(&self, app: &str) -> u64 {
        self.apps.lock().get(app).map(|m| m.scaleouts).unwrap_or(0)
    }

    /// The least-loaded candidate per the app's load-aware policy (falls
    /// back to the default policy when autoscale is not configured).
    pub fn preferred_processor(
        &self,
        app: &str,
        candidates: &[EndpointAddr],
    ) -> Option<EndpointAddr> {
        let policy = self
            .apps
            .lock()
            .get(app)
            .and_then(|m| m.autoscale.as_ref().map(|a| a.policy.clone()))
            .unwrap_or_default();
        policy.prefer(&self.view, candidates)
    }

    /// The address allocator (shared with manual reconfiguration calls).
    pub fn alloc(&self) -> &AddrAllocator {
        &self.alloc
    }

    /// Registers an application. Call before applying its AdnConfig.
    pub fn register_app(&self, app: &str, registration: AppRegistration) {
        self.apps.lock().insert(
            app.to_owned(),
            ManagedApp {
                registration,
                version: 0,
                compiled: None,
                deployment: None,
                health: HealthPolicy::default(),
                checkpoints: HashMap::new(),
                autoscale: None,
                scaled: None,
                last_scaleout: None,
                scaleouts: 0,
                overload: OverloadPolicy::default(),
            },
        );
    }

    /// Sets the app's overload/admission policy and pushes it to every
    /// live processor. The policy persists on the controller, so later
    /// redeploys (sync, failover, scale-out) re-apply it to replacement
    /// processors. Returns how many processors received the update.
    pub fn set_overload_policy(&self, app: &str, policy: OverloadPolicy) -> usize {
        let mut apps = self.apps.lock();
        let Some(managed) = apps.get_mut(app) else {
            return 0;
        };
        managed.overload = policy;
        let mut pushed = 0;
        if let Some(deployment) = managed.deployment.as_ref() {
            for handle in deployment.processors() {
                handle.set_overload(policy);
                pushed += 1;
            }
        }
        pushed
    }

    /// Flips the app's brownout bit — refuse every `Priority::Sheddable`
    /// request regardless of backlog — keeping the rest of its overload
    /// policy intact. The fail-open degradation knob: optional work is
    /// turned away at the entry hop while important traffic keeps its
    /// full capacity. Returns how many processors received the update.
    pub fn set_brownout(&self, app: &str, on: bool) -> usize {
        let current = match self.apps.lock().get(app) {
            Some(managed) => managed.overload,
            None => return 0,
        };
        self.set_overload_policy(
            app,
            OverloadPolicy {
                brownout: on,
                ..current
            },
        )
    }

    /// Sets the app's failure-detection policy and pushes the degraded
    /// mode into its client (effective on the next resilient call).
    pub fn set_health_policy(&self, app: &str, policy: HealthPolicy) {
        let mut apps = self.apps.lock();
        if let Some(managed) = apps.get_mut(app) {
            managed.health = policy;
            managed
                .registration
                .client
                .set_degraded_mode(policy.degraded);
        }
    }

    /// The app's current failure-detection policy.
    pub fn health_policy(&self, app: &str) -> Option<HealthPolicy> {
        self.apps.lock().get(app).map(|m| m.health)
    }

    /// Current replica endpoints of an app's destination service.
    fn replicas_of(&self, dst_service: &str) -> Vec<EndpointAddr> {
        self.store
            .service(dst_service)
            .map(|s| s.replicas.iter().map(|r| r.endpoint).collect())
            .unwrap_or_default()
    }

    /// Reconciles one app against the store's current AdnConfig and
    /// replica inventory. Returns the placement description.
    pub fn sync_app(&self, app: &str) -> Result<String, ControllerError> {
        // Bundle built before the apps lock (sampler lock ordering).
        let telemetry = self.hop_telemetry(app);
        let mut apps = self.apps.lock();
        let managed = apps
            .get_mut(app)
            .ok_or_else(|| cerr(format!("app {app:?} not registered")))?;
        let (version, config) = self
            .store
            .config(app)
            .ok_or_else(|| cerr(format!("no AdnConfig for {app:?}")))?;

        let compiled = compile_app(
            &config,
            managed.registration.request.clone(),
            managed.registration.response.clone(),
        )
        .map_err(cerr)?;
        let placement = place(
            &compiled.chain.elements,
            &compiled.constraints,
            &managed.registration.env,
        )
        .map_err(cerr)?;

        let replicas = self.replicas_of(&config.dst_service);
        let deployment = deploy(
            &compiled,
            &placement,
            &self.net,
            self.link.clone(),
            managed.registration.service.clone(),
            &replicas,
            &self.alloc,
            Some(telemetry),
            Some(self.clock.clone()),
        )
        .map_err(cerr)?;

        let description = placement.describe(&compiled.chain.elements);

        // Hot logic update (paper §5.2): where the new deployment hosts a
        // group with the same elements and table layouts as the old one,
        // carry the element state over before traffic switches. Traffic
        // processed between the snapshot and the switchover updates the old
        // state only; for strictly lossless moves use
        // `reconfig::migrate_processor` (same-address takeover).
        if let (Some(old_dep), Some(old_comp)) =
            (managed.deployment.as_ref(), managed.compiled.as_ref())
        {
            transfer_matching_state(old_dep, old_comp, &deployment, &compiled);
        }

        // Make before break: install the new path, then retire the old.
        managed
            .registration
            .client
            .install_chain(deployment.client_chain);
        managed.registration.client.set_via(deployment.entry);
        for server in &managed.registration.servers {
            // Each replica gets its own instance of the server-side chain.
            let chain = {
                let mut c = adn_rpc::engine::EngineChain::new();
                for group in &deployment.groups {
                    if group.site == crate::placement::Site::ServerLib {
                        let (start, end) = group.range;
                        for (offset, element) in
                            compiled.chain.elements[start..end].iter().enumerate()
                        {
                            let engine = crate::deploy::build_engine(
                                element,
                                group.site,
                                &compiled,
                                start + offset,
                                &replicas,
                            )
                            .map_err(cerr)?;
                            c.push(engine);
                        }
                    }
                }
                c
            };
            server.install_chain(chain);
        }

        // The Deployment struct moves chains out; rebuild group handles by
        // replacing the stored deployment (old processors retire lazily).
        let old = managed.deployment.replace(Deployment {
            entry: deployment.entry,
            client_chain: adn_rpc::engine::EngineChain::new(),
            server_chain: adn_rpc::engine::EngineChain::new(),
            groups: deployment.groups,
            placement: deployment.placement,
        });
        managed.compiled = Some(compiled);
        managed.version = version;
        // Fresh processors spawn with the permissive default; re-apply the
        // app's persisted overload policy before traffic reaches them.
        if managed.overload != OverloadPolicy::default() {
            if let Some(dep) = managed.deployment.as_ref() {
                for handle in dep.processors() {
                    handle.set_overload(managed.overload);
                }
            }
        }
        drop(apps);

        if let Some(old) = old {
            for group in old.groups {
                if let Some(handle) = group.handle {
                    handle.stop_when_idle();
                }
            }
        }
        Ok(description)
    }

    /// Handles one cluster event.
    pub fn process_event(&self, event: &ClusterEvent) -> Result<(), ControllerError> {
        match event {
            ClusterEvent::ConfigUpdated { app, .. } => {
                self.sync_app(app)?;
            }
            ClusterEvent::ReplicaAdded { service, .. }
            | ClusterEvent::ReplicaRemoved { service, .. } => {
                // Re-sync every app targeting this service so ROUTE replica
                // sets rebind.
                let affected: Vec<String> = {
                    let apps = self.apps.lock();
                    apps.keys()
                        .filter(|app| {
                            self.store
                                .config(app)
                                .map(|(_, c)| &c.dst_service == service)
                                .unwrap_or(false)
                        })
                        .cloned()
                        .collect()
                };
                for app in affected {
                    self.sync_app(&app)?;
                }
            }
            ClusterEvent::NodeAdded { .. } => {
                // Inventory growth feeds placement on the next sync.
            }
            ClusterEvent::Load(report) => {
                // Every heartbeat updates the sliding-window cluster view;
                // apps with autoscale enabled are then checked for breach.
                self.view.observe(ProcessorObservation {
                    endpoint: report.endpoint,
                    processed: report.processed,
                    queue_depth: report.queue_depth,
                    shed: report.shed,
                    expired_drops: report.expired_drops,
                    elements: report.elements.clone(),
                });
                self.maybe_autoscale(report.endpoint)?;
            }
            ClusterEvent::ProcessorDown { endpoint } => {
                // Fail over every app hosting the dead processor.
                let affected: Vec<String> = {
                    let apps = self.apps.lock();
                    apps.iter()
                        .filter(|(_, m)| {
                            m.deployment
                                .as_ref()
                                .is_some_and(|d| d.processors().any(|p| p.addr() == *endpoint))
                        })
                        .map(|(app, _)| app.clone())
                        .collect()
                };
                for app in affected {
                    self.fail_over_app(&app)?;
                }
            }
        }
        Ok(())
    }

    /// Checks the breached endpoint against its owning app's autoscale
    /// policy and, at most once per cooldown, shards the group out.
    ///
    /// Exactly-once per breach episode: the whole check-and-scale runs
    /// under the apps lock, and a successful scale-out fills the `scaled`
    /// slot, which (with the cooldown) refuses re-entry. Only then is the
    /// group's old handle taken and stopped; a failed [`scale_out`] has
    /// already resumed it, so the group keeps serving under its handle.
    fn maybe_autoscale(&self, endpoint: EndpointAddr) -> Result<(), ControllerError> {
        // Find the app that autoscales this endpoint (locks: apps only).
        let app = {
            let apps = self.apps.lock();
            apps.iter()
                .find(|(_, m)| {
                    m.autoscale.is_some()
                        && m.scaled.is_none()
                        && m.deployment.as_ref().is_some_and(|d| {
                            d.groups
                                .iter()
                                .any(|g| g.handle.as_ref().is_some_and(|h| h.addr() == endpoint))
                        })
                })
                .map(|(app, _)| app.clone())
        };
        let Some(app) = app else {
            return Ok(());
        };
        let telemetry = self.hop_telemetry(&app);
        let replicas = match self.store.config(&app) {
            Some((_, config)) => self.replicas_of(&config.dst_service),
            None => Vec::new(),
        };

        let mut apps = self.apps.lock();
        let Some(managed) = apps.get_mut(&app) else {
            return Ok(());
        };
        let Some(cfg) = managed.autoscale.clone() else {
            return Ok(());
        };
        if managed.scaled.is_some() {
            return Ok(());
        }
        if let Some(last) = managed.last_scaleout {
            if self.clock.now().saturating_sub(last) < cfg.policy.cooldown {
                return Ok(());
            }
        }
        if !cfg.policy.breached(&self.view, endpoint) {
            return Ok(());
        }
        let Some(compiled) = managed.compiled.as_ref() else {
            return Ok(());
        };
        let seed = compiled.seed;
        let service = managed.registration.service.clone();
        let Some(deployment) = managed.deployment.as_mut() else {
            return Ok(());
        };
        let Some(group) = deployment
            .groups
            .iter_mut()
            .find(|g| g.handle.as_ref().is_some_and(|h| h.addr() == endpoint))
        else {
            return Ok(());
        };
        let Some(old) = group.handle.as_ref() else {
            return Ok(());
        };
        let (start, end) = group.range;
        let request_next = group.request_next;
        let scaled = scale_out(
            old,
            &compiled.chain.elements[start..end],
            cfg.shard_field,
            cfg.shards,
            seed,
            &replicas,
            &self.net,
            self.link.clone(),
            service,
            request_next,
            &self.alloc,
            Some(telemetry),
        )
        .map_err(cerr)?;
        if let Some(old) = group.handle.take() {
            old.stop();
        }
        // New shard instances spawn permissive; inherit the app's policy.
        if managed.overload != OverloadPolicy::default() {
            for instance in &scaled.instances {
                instance.set_overload(managed.overload);
            }
        }
        managed.scaled = Some(scaled);
        managed.last_scaleout = Some(self.clock.now());
        managed.scaleouts += 1;
        drop(apps);
        // The old endpoint now fronts the shard router; its congested
        // observations no longer describe a schedulable processor.
        self.view.forget(endpoint);
        Ok(())
    }

    /// Drains all pending store events, reconciling as needed.
    pub fn run_pending(
        &self,
        events: &crossbeam::channel::Receiver<ClusterEvent>,
    ) -> Result<usize, ControllerError> {
        let mut handled = 0;
        while let Ok(event) = events.try_recv() {
            self.process_event(&event)?;
            handled += 1;
        }
        Ok(handled)
    }

    /// Placement description of the app's current deployment.
    pub fn describe_app(&self, app: &str) -> Option<String> {
        let apps = self.apps.lock();
        let managed = apps.get(app)?;
        let deployment = managed.deployment.as_ref()?;
        let compiled = managed.compiled.as_ref()?;
        Some(deployment.placement.describe(&compiled.chain.elements))
    }

    /// Publishes one telemetry round for an app: every processor's counter
    /// deltas become [`adn_cluster::LoadReport`]s in the store (paper §5.3:
    /// processors "periodically send reports ... back to the controller").
    /// Returns the number of reports published.
    pub fn report_loads(&self, app: &str) -> usize {
        let stats = self.processor_stats(app);
        let mut published = 0;
        for (endpoint, snap) in stats {
            let processed = snap.requests + snap.responses;
            self.store.report_load(adn_cluster::LoadReport {
                endpoint,
                processed,
                rejected: snap.dropped + snap.aborted,
                // Utilization proxy: share of handled frames that were
                // forwarded (a saturated processor would drop/abort more);
                // a real deployment would sample CPU time instead.
                utilization: if processed == 0 {
                    0.0
                } else {
                    snap.forwarded as f64 / processed as f64
                },
                queue_depth: snap.queue_depth,
                shed: snap.shed,
                expired_drops: snap.expired_drops,
                elements: self.registry.snapshot_for(app, endpoint),
            });
            published += 1;
        }
        published
    }

    /// Stats from every processor of an app (endpoint, snapshot).
    pub fn processor_stats(
        &self,
        app: &str,
    ) -> Vec<(EndpointAddr, adn_dataplane::processor::StatsSnapshot)> {
        let apps = self.apps.lock();
        let Some(managed) = apps.get(app) else {
            return Vec::new();
        };
        let Some(deployment) = managed.deployment.as_ref() else {
            return Vec::new();
        };
        deployment
            .processors()
            .map(|p| (p.addr(), p.stats()))
            .collect()
    }

    /// Snapshots every live processor group's element state into the
    /// controller's checkpoint map (the images a failover replacement is
    /// restored from). Returns the number of groups checkpointed; groups
    /// whose processor is unresponsive keep their previous checkpoint.
    pub fn checkpoint_app(&self, app: &str) -> usize {
        let mut apps = self.apps.lock();
        let Some(managed) = apps.get_mut(app) else {
            return 0;
        };
        let Some(deployment) = managed.deployment.as_ref() else {
            return 0;
        };
        let mut taken = 0;
        for group in &deployment.groups {
            let Some(handle) = group.handle.as_ref() else {
                continue;
            };
            if let Ok(images) = handle.export_state() {
                managed.checkpoints.insert(group.range.0, images);
                taken += 1;
            }
        }
        taken
    }

    /// Endpoints of the app's processors whose heartbeat age exceeds the
    /// app's [`HealthPolicy`] timeout.
    pub fn dead_processors(&self, app: &str) -> Vec<EndpointAddr> {
        let apps = self.apps.lock();
        let Some(managed) = apps.get(app) else {
            return Vec::new();
        };
        let Some(deployment) = managed.deployment.as_ref() else {
            return Vec::new();
        };
        deployment
            .processors()
            .filter(|p| p.heartbeat_age() > managed.health.heartbeat_timeout)
            .map(|p| p.addr())
            .collect()
    }

    /// Crashes one of the app's processors (chaos testing): it stops
    /// heartbeating and blackholes traffic but stays attached to the
    /// fabric, exactly like a hung process. Returns false if no processor
    /// of the app owns `endpoint`.
    pub fn kill_processor(&self, app: &str, endpoint: EndpointAddr) -> bool {
        let apps = self.apps.lock();
        let Some(managed) = apps.get(app) else {
            return false;
        };
        let Some(deployment) = managed.deployment.as_ref() else {
            return false;
        };
        for p in deployment.processors() {
            if p.addr() == endpoint {
                p.kill();
                return true;
            }
        }
        false
    }

    /// One failure-detector sweep: reports every newly-dead processor of
    /// the app to the cluster store (whose watchers — including this
    /// controller via [`Controller::process_event`] — drive failover).
    /// Returns the endpoints reported.
    pub fn monitor_health(&self, app: &str) -> Vec<EndpointAddr> {
        let dead = self.dead_processors(app);
        for &endpoint in &dead {
            self.store.report_processor_down(endpoint);
        }
        dead
    }

    /// Re-places every heartbeat-dead processor group of the app: rebuilds
    /// the group's engines, restores the latest checkpoint, takes over the
    /// dead processor's flat address on the fabric, and rejoins the chain
    /// at the recorded next hop. The old handle is dropped (its crashed
    /// thread exits on the stop signal). Returns the replaced endpoints.
    pub fn fail_over_app(&self, app: &str) -> Result<Vec<EndpointAddr>, ControllerError> {
        // Bundle built before the apps lock (sampler lock ordering).
        let telemetry = self.hop_telemetry(app);
        let mut apps = self.apps.lock();
        let managed = apps
            .get_mut(app)
            .ok_or_else(|| cerr(format!("app {app:?} not registered")))?;
        let timeout = managed.health.heartbeat_timeout;
        let replicas = match self.store.config(app) {
            Some((_, config)) => self.replicas_of(&config.dst_service),
            None => Vec::new(),
        };
        let ManagedApp {
            registration,
            compiled,
            deployment,
            checkpoints,
            overload,
            ..
        } = managed;
        let overload = *overload;
        let (Some(compiled), Some(deployment)) = (compiled.as_ref(), deployment.as_mut()) else {
            return Ok(Vec::new());
        };
        let mut replaced = Vec::new();
        for group in deployment.groups.iter_mut() {
            let Some(handle) = group.handle.as_ref() else {
                continue;
            };
            if handle.heartbeat_age() <= timeout {
                continue;
            }
            let addr = handle.addr();
            let (start, end) = group.range;
            let mut chain = EngineChain::new();
            for (offset, element) in compiled.chain.elements[start..end].iter().enumerate() {
                chain.push(
                    build_engine(element, group.site, compiled, start + offset, &replicas)
                        .map_err(cerr)?,
                );
            }
            if let Some(images) = checkpoints.get(&start) {
                chain
                    .import_states(images)
                    .map_err(|e| cerr(format!("checkpoint restore at {addr:#x}: {e}")))?;
            }
            // Same-address takeover: attaching the successor atomically
            // redirects all new frames; in-flight state since the last
            // checkpoint is lost (crash semantics, not migration).
            let frames = self.net.attach(addr);
            let successor = spawn_processor(
                ProcessorConfig {
                    addr,
                    service: registration.service.clone(),
                    chain,
                    request_next: group.request_next,
                    response_next: NextHop::Dst,
                    initial_flows: Default::default(),
                    telemetry: Some(telemetry.clone()),
                    clock: Some(self.clock.clone()),
                    batch_max: DEFAULT_BATCH_MAX,
                    // Failover replacements keep the app's overload policy:
                    // a crash must not silently disable admission control.
                    overload,
                },
                self.link.clone(),
                frames,
            );
            // Dropping the old handle signals its (crashed) thread to
            // exit; it never touched the fabric again after the kill.
            group.handle = Some(successor);
            replaced.push(addr);
        }
        Ok(replaced)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use adn_cluster::resources::{
        AdnConfig, ElementSpec, NodeId, NodeSpec, PlacementConstraint, ReplicaSpec, ServiceSpec,
    };
    use adn_rpc::engine::EngineChain;
    use adn_rpc::message::RpcMessage;
    use adn_rpc::runtime::{spawn_server, ServerConfig};
    use adn_rpc::schema::MethodDef;
    use adn_rpc::value::{Value, ValueType};

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

    fn node(id: u32) -> NodeSpec {
        NodeSpec {
            id: NodeId(id),
            name: format!("n{id}"),
            cpu_slots: 8,
            ebpf_capable: false,
            smartnic: None,
        }
    }

    struct World {
        store: ClusterStore,
        controller: Controller,
        client: Arc<RpcClient>,
        svc: Arc<ServiceSchema>,
        events: crossbeam::channel::Receiver<ClusterEvent>,
        server_tags: Vec<u64>,
        _servers: Vec<Arc<ServerHandle>>,
    }

    fn world(replica_endpoints: &[u64]) -> World {
        world_with_clock(replica_endpoints, adn_rpc::clock::system())
    }

    fn world_with_clock(replica_endpoints: &[u64], clock: Arc<dyn Clock>) -> World {
        let (req, resp) = schemas();
        let svc = Arc::new(
            ServiceSchema::new(
                "Storage",
                vec![MethodDef {
                    id: 1,
                    name: "Put".into(),
                    request: req.clone(),
                    response: resp.clone(),
                }],
            )
            .unwrap(),
        );
        let store = ClusterStore::new();
        let events = store.watch();
        store.add_node(node(1));
        store.add_node(node(2));
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

        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let mut servers = Vec::new();
        for &endpoint in replica_endpoints {
            let frames = net.attach(endpoint);
            let svc2 = svc.clone();
            servers.push(Arc::new(spawn_server(
                ServerConfig {
                    addr: endpoint,
                    service: svc.clone(),
                    chain: EngineChain::new(),
                },
                link.clone(),
                frames,
                Box::new(move |request| {
                    let m = svc2.method_by_id(1).unwrap();
                    let mut r = RpcMessage::response_to(request, m.response.clone());
                    r.set("ok", Value::Bool(true));
                    r.set("payload", Value::Bytes(vec![endpoint as u8]));
                    r
                }),
            )));
        }

        let client_frames = net.attach(100);
        let client = RpcClient::new(
            100,
            link.clone(),
            client_frames,
            svc.clone(),
            EngineChain::new(),
        );

        let controller =
            Controller::with_link_and_clock(store.clone(), net, link.clone(), 10_000, clock);
        controller.register_app(
            "shop",
            AppRegistration {
                request: req,
                response: resp,
                service: svc.clone(),
                client: client.clone(),
                servers: servers.clone(),
                env: Environment {
                    client_node: node(1),
                    server_node: node(2),
                    switch: None,
                    allow_in_app: true,
                },
            },
        );

        World {
            store,
            controller,
            client,
            svc,
            events,
            server_tags: replica_endpoints.to_vec(),
            _servers: servers,
        }
    }

    fn call(w: &World, oid: u64, user: &str) -> Result<RpcMessage, adn_rpc::RpcError> {
        let m = w.svc.method_by_id(1).unwrap();
        let msg = RpcMessage::request(0, 1, m.request.clone())
            .with("object_id", oid)
            .with("username", user)
            .with("payload", vec![1u8; 8]);
        w.client.call(msg, w.server_tags[0])
    }

    fn config(chain: Vec<ElementSpec>) -> AdnConfig {
        AdnConfig {
            app: "shop".into(),
            src_service: "frontend".into(),
            dst_service: "storage".into(),
            chain,
            seed: 3,
        }
    }

    fn spec(name: &str, constraints: Vec<PlacementConstraint>) -> ElementSpec {
        ElementSpec {
            element: name.into(),
            source: None,
            args: vec![],
            constraints,
        }
    }

    #[test]
    fn config_event_deploys_the_chain() {
        let w = world(&[200]);
        w.store
            .apply_config(config(vec![spec("Acl", vec![PlacementConstraint::OffApp])]));
        let handled = w.controller.run_pending(&w.events).unwrap();
        assert!(handled >= 1);
        assert!(call(&w, 1, "alice").is_ok());
        assert!(call(&w, 1, "bob").is_err());
        let desc = w.controller.describe_app("shop").unwrap();
        assert!(desc.contains("Sidecar"), "{desc}");
    }

    #[test]
    fn config_update_changes_behavior() {
        let w = world(&[200]);
        w.store.apply_config(config(vec![spec("Acl", vec![])]));
        w.controller.run_pending(&w.events).unwrap();
        assert!(call(&w, 1, "bob").is_err());

        // New config without the ACL: bob gets through.
        w.store.apply_config(config(vec![spec("Logging", vec![])]));
        w.controller.run_pending(&w.events).unwrap();
        assert!(call(&w, 1, "bob").is_ok());
    }

    #[test]
    fn replica_event_rebinds_load_balancer() {
        let w = world(&[200, 201]);
        // Start with only replica 200 known to the store? Both are known;
        // apply LB config and check spread, then remove one and verify all
        // traffic lands on the survivor.
        w.store.apply_config(config(vec![spec(
            "LoadBalancer",
            vec![PlacementConstraint::OffApp],
        )]));
        w.controller.run_pending(&w.events).unwrap();

        let mut seen = std::collections::HashSet::new();
        for i in 0..30 {
            let resp = call(&w, i, "alice").unwrap();
            seen.insert(resp.get("payload").unwrap().as_bytes().unwrap()[0]);
        }
        assert_eq!(seen.len(), 2);

        w.store.remove_replica("storage", 201).unwrap();
        w.controller.run_pending(&w.events).unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..30 {
            let resp = call(&w, i, "alice").unwrap();
            seen.insert(resp.get("payload").unwrap().as_bytes().unwrap()[0]);
        }
        assert_eq!(seen, std::collections::HashSet::from([200_u8]));
    }

    #[test]
    fn processor_stats_visible_through_controller() {
        let w = world(&[200]);
        w.store
            .apply_config(config(vec![spec("Acl", vec![PlacementConstraint::OffApp])]));
        w.controller.run_pending(&w.events).unwrap();
        for i in 0..5 {
            let _ = call(&w, i, "alice");
        }
        let stats = w.controller.processor_stats("shop");
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.requests, 5);
    }

    #[test]
    fn config_resync_carries_state_for_unchanged_groups() {
        let w = world(&[200]);
        // Quota sheds after `limit` requests per user; its `used` counters
        // are the state that must survive a config re-apply.
        let mut quota = spec("Quota", vec![PlacementConstraint::OffApp]);
        quota.args = vec![("limit".into(), serde_json::json!(10))];
        w.store.apply_config(config(vec![quota.clone()]));
        w.controller.run_pending(&w.events).unwrap();
        for i in 0..6 {
            call(&w, i, "alice").unwrap();
        }

        // Re-apply the same config (e.g. an unrelated metadata change).
        w.store.apply_config(config(vec![quota]));
        w.controller.run_pending(&w.events).unwrap();

        // 4 more requests reach the limit of 10; the 11th sheds. If state
        // had been lost, alice would have 10 fresh requests available.
        for i in 0..4 {
            call(&w, 100 + i, "alice").unwrap_or_else(|e| panic!("call {i}: {e}"));
        }
        assert!(
            call(&w, 999, "alice").is_err(),
            "quota counters must survive the re-deploy"
        );
    }

    #[test]
    fn telemetry_reports_reach_the_store() {
        let w = world(&[200]);
        w.store
            .apply_config(config(vec![spec("Acl", vec![PlacementConstraint::OffApp])]));
        w.controller.run_pending(&w.events).unwrap();
        for i in 0..4 {
            let _ = call(&w, i, "alice");
        }
        let watcher = w.store.watch();
        assert_eq!(w.controller.report_loads("shop"), 1);
        match watcher.try_recv().unwrap() {
            ClusterEvent::Load(report) => {
                assert_eq!(report.processed, 8, "4 requests + 4 responses");
                assert_eq!(report.rejected, 0);
            }
            other => panic!("expected a load report, got {other:?}"),
        }
    }

    #[test]
    fn unregistered_app_errors() {
        let w = world(&[200]);
        assert!(w.controller.sync_app("ghost").is_err());
    }

    fn lenient_health(w: &World) {
        w.controller.set_health_policy(
            "shop",
            HealthPolicy {
                heartbeat_timeout: Duration::from_millis(100),
                degraded: DegradedMode::FailClosed,
            },
        );
    }

    fn wait_dead(w: &World) -> Vec<EndpointAddr> {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let dead = w.controller.dead_processors("shop");
            if !dead.is_empty() || std::time::Instant::now() > deadline {
                return dead;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn killed_processor_is_detected_and_failed_over() {
        let w = world(&[200]);
        w.store
            .apply_config(config(vec![spec("Acl", vec![PlacementConstraint::OffApp])]));
        w.controller.run_pending(&w.events).unwrap();
        lenient_health(&w);
        assert!(call(&w, 1, "alice").is_ok());

        let endpoint = w.controller.processor_stats("shop")[0].0;
        assert!(w.controller.kill_processor("shop", endpoint));
        assert_eq!(wait_dead(&w), vec![endpoint]);

        // A detector sweep publishes ProcessorDown; draining the event
        // stream re-places the group at the same address.
        assert_eq!(w.controller.monitor_health("shop"), vec![endpoint]);
        assert!(w.controller.run_pending(&w.events).unwrap() >= 1);
        assert!(w.controller.dead_processors("shop").is_empty());
        assert!(call(&w, 2, "alice").is_ok());
        assert!(
            call(&w, 2, "bob").is_err(),
            "ACL must still be enforced after failover"
        );
    }

    #[test]
    fn failover_restores_checkpointed_state() {
        let w = world(&[200]);
        let mut quota = spec("Quota", vec![PlacementConstraint::OffApp]);
        quota.args = vec![("limit".into(), serde_json::json!(10))];
        w.store.apply_config(config(vec![quota]));
        w.controller.run_pending(&w.events).unwrap();
        lenient_health(&w);
        for i in 0..6 {
            call(&w, i, "alice").unwrap();
        }
        assert_eq!(w.controller.checkpoint_app("shop"), 1);

        let endpoint = w.controller.processor_stats("shop")[0].0;
        assert!(w.controller.kill_processor("shop", endpoint));
        assert!(!wait_dead(&w).is_empty());
        assert_eq!(w.controller.fail_over_app("shop").unwrap(), vec![endpoint]);

        // 6 of alice's 10 were used before the crash and restored from the
        // checkpoint: 4 remain, the 5th sheds.
        for i in 0..4 {
            call(&w, 100 + i, "alice").unwrap_or_else(|e| panic!("call {i}: {e}"));
        }
        assert!(
            call(&w, 999, "alice").is_err(),
            "quota counters must survive failover"
        );
    }

    fn load(endpoint: EndpointAddr, processed: u64, queue_depth: u64) -> adn_cluster::LoadReport {
        adn_cluster::LoadReport {
            endpoint,
            processed,
            rejected: 0,
            utilization: 0.5,
            queue_depth,
            shed: 0,
            expired_drops: 0,
            elements: vec![],
        }
    }

    /// The autoscale cooldown anchor lives on the controller's clock, not
    /// the wall clock: a breach inside the window is refused, and jumping
    /// the virtual clock past the window (no sleeping) re-arms it.
    #[test]
    fn autoscale_cooldown_gates_on_the_virtual_clock() {
        let clock = adn_rpc::clock::VirtualClock::shared();
        let w = world_with_clock(&[200], clock.clone());
        w.store
            .apply_config(config(vec![spec("Acl", vec![PlacementConstraint::OffApp])]));
        w.controller.run_pending(&w.events).unwrap();
        assert!(call(&w, 1, "alice").is_ok());
        let entry = w.controller.processor_stats("shop")[0].0;

        let cooldown = Duration::from_secs(5);
        w.controller
            .enable_autoscale(
                "shop",
                AutoscaleConfig {
                    policy: LoadAwarePolicy {
                        queue_depth_threshold: 2,
                        cooldown,
                        ..LoadAwarePolicy::default()
                    },
                    shard_field: 1, // username
                    shards: 2,
                },
            )
            .unwrap();
        // Seed the cooldown anchor at virtual-now, as if a scale-out had
        // just happened (the state a scale-in hands back): the guard — and
        // only the guard — must refuse the next breach.
        {
            let mut apps = w.controller.apps.lock();
            apps.get_mut("shop").unwrap().last_scaleout = Some(clock.now());
        }

        // A breach inside the cooldown window is refused.
        w.store.report_load(load(entry, 10, 100));
        w.controller.run_pending(&w.events).unwrap();
        assert_eq!(w.controller.scaleout_count("shop"), 0, "inside cooldown");

        // Jump virtual time past the window; the same breach now scales.
        clock.advance(cooldown + Duration::from_millis(1));
        w.store.report_load(load(entry, 20, 100));
        w.controller.run_pending(&w.events).unwrap();
        assert_eq!(w.controller.scaleout_count("shop"), 1, "cooldown expired");
        assert!(call(&w, 2, "alice").is_ok());
        assert!(call(&w, 3, "bob").is_err(), "ACL enforced on shards");
    }

    /// A sustained shed rate in the heartbeat reports is a capacity
    /// breach: the autoscaler must react to it even when queue depth and
    /// p99 look healthy (the whole point of shedding is that they will).
    #[test]
    fn shed_rate_breach_triggers_autoscale() {
        let clock = adn_rpc::clock::VirtualClock::shared();
        let w = world_with_clock(&[200], clock.clone());
        w.store
            .apply_config(config(vec![spec("Acl", vec![PlacementConstraint::OffApp])]));
        w.controller.run_pending(&w.events).unwrap();
        assert!(call(&w, 1, "alice").is_ok());
        let entry = w.controller.processor_stats("shop")[0].0;

        w.controller
            .enable_autoscale(
                "shop",
                AutoscaleConfig {
                    policy: LoadAwarePolicy {
                        // Queue depth and p99 can never trip here; only the
                        // shed rate can.
                        queue_depth_threshold: u64::MAX,
                        p99_threshold_ns: u64::MAX,
                        shed_rate_threshold: 5,
                        cooldown: Duration::from_millis(1),
                    },
                    shard_field: 1, // username
                    shards: 2,
                },
            )
            .unwrap();

        // First report seeds the window; a single observation has no rate.
        w.store.report_load(adn_cluster::LoadReport {
            shed: 0,
            ..load(entry, 10, 0)
        });
        w.controller.run_pending(&w.events).unwrap();
        assert_eq!(w.controller.scaleout_count("shop"), 0, "no rate yet");

        // 40 sheds + 10 expired drops over 2 s = 25/s > 5/s: scale out.
        clock.advance(Duration::from_secs(2));
        w.store.report_load(adn_cluster::LoadReport {
            shed: 40,
            expired_drops: 10,
            ..load(entry, 20, 0)
        });
        w.controller.run_pending(&w.events).unwrap();
        assert_eq!(w.controller.scaleout_count("shop"), 1, "shed rate breach");
        assert!(call(&w, 2, "alice").is_ok(), "service survives scale-out");
    }

    fn autoscale_on(shard_field: usize) -> AutoscaleConfig {
        AutoscaleConfig {
            policy: LoadAwarePolicy::default(),
            shard_field,
            shards: 2,
        }
    }

    /// The shard router indexes the decoded request fields by the shard
    /// field; a field past the end of a request schema is refused.
    #[test]
    fn autoscale_refuses_an_out_of_range_shard_field() {
        let w = world(&[200]);
        w.store
            .apply_config(config(vec![spec("Acl", vec![PlacementConstraint::OffApp])]));
        w.controller.run_pending(&w.events).unwrap();
        let e = w
            .controller
            .enable_autoscale("shop", autoscale_on(3))
            .unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        assert!(w.controller.apps.lock()["shop"].autoscale.is_none());
    }

    /// Quota counts per username: sharding it by object_id would give
    /// each instance a diverging replica of every user's counter (V0005).
    #[test]
    fn autoscale_refuses_state_not_keyed_by_the_shard_field() {
        let w = world(&[200]);
        w.store.apply_config(config(vec![spec(
            "Quota",
            vec![PlacementConstraint::OffApp],
        )]));
        w.controller.run_pending(&w.events).unwrap();
        let e = w
            .controller
            .enable_autoscale("shop", autoscale_on(0))
            .unwrap_err();
        assert!(e.message.contains("not shard-safe"), "{e}");
        assert!(w.controller.apps.lock()["shop"].autoscale.is_none());
        // Keyed by the field its state is keyed on, the same chain arms.
        w.controller
            .enable_autoscale("shop", autoscale_on(1))
            .unwrap();
    }

    /// The brownout knob: flipping it refuses Sheddable-stamped requests
    /// at the entry processor with zero backlog, leaves unstamped
    /// (Normal) traffic untouched, and flipping it back restores service.
    #[test]
    fn brownout_sheds_sheddable_traffic_and_is_reversible() {
        use adn_wire::header::{OverloadContext, Priority};

        let w = world(&[200]);
        w.store
            .apply_config(config(vec![spec("Acl", vec![PlacementConstraint::OffApp])]));
        w.controller.run_pending(&w.events).unwrap();
        assert!(call(&w, 1, "alice").is_ok());

        let sheddable_call = |oid: u64| {
            let m = w.svc.method_by_id(1).unwrap();
            let mut msg = RpcMessage::request(0, 1, m.request.clone())
                .with("object_id", oid)
                .with("username", "alice")
                .with("payload", vec![1u8; 8]);
            // A generous budget: only the priority class matters here.
            msg.deadline = Some(OverloadContext::root(
                Duration::from_secs(5).as_nanos() as u64,
                Priority::Sheddable,
            ));
            w.client.call(msg, w.server_tags[0])
        };

        // Off (default): sheddable traffic flows.
        assert!(sheddable_call(2).is_ok());

        assert_eq!(w.controller.set_brownout("shop", true), 1);
        match sheddable_call(3) {
            Err(adn_rpc::RpcError::Shed { .. }) => {}
            other => panic!("expected fast-fail shed, got {other:?}"),
        }
        // Unstamped traffic is Normal priority: admitted through brownout.
        assert!(call(&w, 4, "alice").is_ok());

        assert_eq!(w.controller.set_brownout("shop", false), 1);
        assert!(sheddable_call(5).is_ok(), "brownout is reversible");
    }

    /// Heartbeat staleness is pure clock arithmetic: with the cluster on a
    /// virtual clock, a crashed processor is declared dead by advancing
    /// time in one controlled jump — no sleep-polling for a detector.
    #[test]
    fn crashed_processor_staleness_follows_virtual_clock_jumps() {
        let clock = adn_rpc::clock::VirtualClock::shared();
        let w = world_with_clock(&[200], clock.clone());
        w.store
            .apply_config(config(vec![spec("Acl", vec![PlacementConstraint::OffApp])]));
        w.controller.run_pending(&w.events).unwrap();
        lenient_health(&w); // heartbeat_timeout = 100ms
        assert!(call(&w, 1, "alice").is_ok());
        assert!(w.controller.dead_processors("shop").is_empty());

        let endpoint = w.controller.processor_stats("shop")[0].0;
        assert!(w.controller.kill_processor("shop", endpoint));
        // Wait (bounded by thread latency, not wall time) for the serve
        // loop to observe the crash; after that it never beats again.
        while w.controller.checkpoint_app("shop") > 0 {
            std::thread::yield_now();
        }
        // Virtual time hasn't moved, so the corpse is not yet stale...
        assert!(w.controller.dead_processors("shop").is_empty());
        // ...one controlled jump past the timeout makes it exactly stale.
        clock.advance(Duration::from_millis(101));
        assert_eq!(w.controller.dead_processors("shop"), vec![endpoint]);

        // Failover replaces it; the successor beats at current virtual
        // time, so it is immediately live again without advancing.
        assert_eq!(w.controller.fail_over_app("shop").unwrap(), vec![endpoint]);
        assert!(w.controller.dead_processors("shop").is_empty());
        assert!(call(&w, 2, "alice").is_ok());
        assert!(call(&w, 2, "bob").is_err(), "ACL enforced after failover");
    }
}
