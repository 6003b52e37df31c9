//! Standalone ADN processor endpoints.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use adn_rpc::clock::Clock;
use adn_rpc::engine::EngineChain;
use adn_rpc::schema::ServiceSchema;
use adn_rpc::transport::{EndpointAddr, Frame, Link};
use adn_telemetry::HopTelemetry;
use adn_wire::header::Priority;

use crate::hop_core::{FlowTable, HopCore, HopOutput};

/// Entries retained in the processor's request/response dedup caches.
pub(crate) const PROCESSOR_DEDUP_WINDOW: usize = 4096;

/// Default ceiling on frames pulled per serve-loop iteration. One backlog
/// read, one control-drain, one beat, and one batched send amortize over up
/// to this many frames.
pub const DEFAULT_BATCH_MAX: usize = 32;

/// Why a control-plane query to a processor failed. Distinguishes a
/// processor whose serve loop has exited from one that is alive but wedged —
/// callers must not mistake either for an empty answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlError {
    /// The serve loop has exited (stopped or crashed); the control channel
    /// is closed.
    Stopped,
    /// The processor did not answer within the control deadline (wedged or
    /// overloaded).
    Unresponsive,
}

impl fmt::Display for CtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtlError::Stopped => write!(f, "processor stopped"),
            CtlError::Unresponsive => write!(f, "processor unresponsive"),
        }
    }
}

impl std::error::Error for CtlError {}

fn ctl_recv_err(e: RecvTimeoutError) -> CtlError {
    match e {
        RecvTimeoutError::Timeout => CtlError::Unresponsive,
        RecvTimeoutError::Disconnected => CtlError::Stopped,
    }
}

/// Admission-control tuning for a processor under overload. The default is
/// fully permissive — no shedding, expired-frame dropping on — which leaves
/// undeadlined traffic (every message in the pre-extension format)
/// completely untouched: the batch=1 golden sim log depends on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Inbound backlog (frames) above which the processor starts shedding
    /// requests lowest-priority-first. `0` disables shedding. The ladder:
    /// above `shed_high_water` only [`Priority::Sheddable`] is refused;
    /// above `2×` Normal goes too; above `4×` everything below Critical.
    pub shed_high_water: usize,
    /// Whether requests whose in-band deadline budget is exhausted are
    /// dropped before the chain runs (counted in
    /// [`StatsSnapshot::expired_drops`], never silently).
    pub drop_expired: bool,
    /// Brownout: refuse every [`Priority::Sheddable`] request regardless of
    /// backlog, conserving capacity for the classes above it. The per-app
    /// fail-open knob the controller flips when a service degrades.
    pub brownout: bool,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        Self {
            shed_high_water: 0,
            drop_expired: true,
            brownout: false,
        }
    }
}

impl OverloadPolicy {
    /// The lowest priority class still admitted at `backlog` queued frames.
    /// Everything strictly below the returned class is shed.
    pub fn admission_floor(&self, backlog: usize) -> Priority {
        if self.shed_high_water == 0 {
            return if self.brownout {
                Priority::Normal
            } else {
                Priority::Sheddable
            };
        }
        let hw = self.shed_high_water;
        let base = if backlog > hw.saturating_mul(4) {
            Priority::Critical
        } else if backlog > hw.saturating_mul(2) {
            Priority::Important
        } else if backlog > hw {
            Priority::Normal
        } else {
            Priority::Sheddable
        };
        if self.brownout && base == Priority::Sheddable {
            Priority::Normal
        } else {
            base
        }
    }
}

/// Where a processor forwards messages after processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextHop {
    /// Use the message's own destination (possibly rewritten by a ROUTE
    /// element in the chain).
    Dst,
    /// Forward to a fixed endpoint (the next processor in a split chain).
    Fixed(EndpointAddr),
}

impl NextHop {
    pub(crate) fn resolve(self, msg_dst: EndpointAddr) -> EndpointAddr {
        match self {
            NextHop::Dst => msg_dst,
            NextHop::Fixed(addr) => addr,
        }
    }
}

/// Cumulative processor counters.
#[derive(Debug, Default)]
pub struct ProcessorStats {
    pub requests: AtomicU64,
    pub responses: AtomicU64,
    pub forwarded: AtomicU64,
    pub dropped: AtomicU64,
    pub aborted: AtomicU64,
    pub decode_errors: AtomicU64,
    pub dedup_hits: AtomicU64,
    pub stale_responses: AtomicU64,
    pub queue_depth: AtomicU64,
    pub drain_drops: AtomicU64,
    pub expired_drops: AtomicU64,
    pub shed: AtomicU64,
}

/// Point-in-time snapshot of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub requests: u64,
    pub responses: u64,
    pub forwarded: u64,
    pub dropped: u64,
    pub aborted: u64,
    pub decode_errors: u64,
    /// Retransmitted frames answered from the dedup caches without
    /// re-running the chain.
    pub dedup_hits: u64,
    /// Responses with no flow entry and no cached reply (dropped: their
    /// NAT'd destination would be this processor itself).
    pub stale_responses: u64,
    /// Frames waiting in the inbound queue when the serve loop last checked
    /// — the congestion signal the controller's load-aware placement reads.
    pub queue_depth: u64,
    /// Frames lost during a [`ProcessorHandle::drain`] because the link
    /// rejected them even after a retry. Zero-loss reconfiguration demands
    /// this stays zero; the sim's loss invariant reads it.
    pub drain_drops: u64,
    /// Requests dropped before the chain because their in-band deadline
    /// budget was already exhausted — the caller gave up; executing them
    /// would be pure waste under overload.
    pub expired_drops: u64,
    /// Requests refused with a fast-fail [`adn_rpc::message::RpcStatus::Shed`]
    /// reply, by admission control or by a chain shed verdict.
    pub shed: u64,
}

impl ProcessorStats {
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            stale_responses: self.stale_responses.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            drain_drops: self.drain_drops.load(Ordering::Relaxed),
            expired_drops: self.expired_drops.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// Control messages to a running processor.
enum Ctl {
    /// Stop pulling frames; queued frames accumulate (lossless pause).
    Pause(Sender<()>),
    /// Resume pulling frames.
    Resume,
    /// Export the chain's state images.
    ExportState(Sender<Vec<Vec<u8>>>),
    /// Import state images into the chain.
    ImportState(Vec<Vec<u8>>, Sender<Result<(), String>>),
    /// Replace the engine chain (hot update). Replies with the old chain's
    /// exported state.
    InstallChain(EngineChain, Sender<Vec<Vec<u8>>>),
    /// Re-send every currently queued frame onto the link addressed to this
    /// processor's own address (used after the fabric was re-pointed to a
    /// successor), then reply with the count.
    Drain(Sender<usize>),
    /// Exit the serve loop.
    Stop,
    /// Finish the queued frames, then exit the serve loop.
    StopWhenIdle,
    /// Re-point where requests are forwarded after processing (controller
    /// re-routing during failover).
    SetRequestNext(NextHop),
    /// Replace the overload/admission policy (controller brownout and
    /// shedding knobs). Acknowledged so the caller knows admission
    /// decisions after the call use the new policy.
    SetOverload(OverloadPolicy, Sender<()>),
    /// Simulate a hard crash: stop processing frames and heartbeating, but
    /// keep the frame receiver open so traffic silently blackholes (a dead
    /// host, not a closed socket). Only `Stop` ends the crashed thread.
    Crash,
}

/// Configuration for [`spawn_processor`].
pub struct ProcessorConfig {
    /// Flat address this processor serves.
    pub addr: EndpointAddr,
    /// Service schema for decoding.
    pub service: Arc<ServiceSchema>,
    /// The compiled chain.
    pub chain: EngineChain,
    /// Where requests go after processing.
    pub request_next: NextHop,
    /// Where responses go after processing (usually `Dst` — the flow table
    /// already restored the original requester).
    pub response_next: NextHop,
    /// NAT flow entries inherited from a predecessor (live migration moves
    /// in-flight flows along with element state).
    pub initial_flows: HashMap<u64, EndpointAddr>,
    /// Observability wiring. `None` keeps the serve loop on the untimed
    /// path; `Some` costs one sampling branch per message until a message
    /// is actually sampled.
    pub telemetry: Option<HopTelemetry>,
    /// Time source for the liveness heartbeat. `None` uses the wall clock;
    /// deterministic tests share a virtual clock between processors and the
    /// controller so heartbeat ages follow controlled jumps.
    pub clock: Option<Arc<dyn Clock>>,
    /// Ceiling on frames pulled per serve-loop iteration
    /// ([`DEFAULT_BATCH_MAX`] unless overridden). `1` restores strict
    /// frame-at-a-time behavior.
    pub batch_max: usize,
    /// Admission-control tuning (shedding high-water mark, expired-frame
    /// dropping, brownout). The default touches nothing.
    pub overload: OverloadPolicy,
}

impl ProcessorConfig {
    /// Convenience constructor with an empty flow table.
    pub fn new(
        addr: EndpointAddr,
        service: Arc<ServiceSchema>,
        chain: EngineChain,
        request_next: NextHop,
        response_next: NextHop,
    ) -> Self {
        Self {
            addr,
            service,
            chain,
            request_next,
            response_next,
            initial_flows: HashMap::new(),
            telemetry: None,
            clock: None,
            batch_max: DEFAULT_BATCH_MAX,
            overload: OverloadPolicy::default(),
        }
    }

    /// Attaches observability wiring (builder style).
    pub fn with_telemetry(mut self, telemetry: HopTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Substitutes the heartbeat time source (builder style).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Overrides the per-iteration batch ceiling (builder style). Clamped
    /// to at least 1.
    pub fn with_batch(mut self, batch_max: usize) -> Self {
        self.batch_max = batch_max.max(1);
        self
    }

    /// Sets the overload/admission policy (builder style).
    pub fn with_overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }
}

/// Handle to a running processor.
pub struct ProcessorHandle {
    addr: EndpointAddr,
    ctl: Sender<Ctl>,
    stats: Arc<ProcessorStats>,
    flows: FlowTable,
    /// Nanoseconds on `clock` of the serve loop's last liveness beat.
    beat: Arc<AtomicU64>,
    clock: Arc<dyn Clock>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ProcessorHandle {
    /// The processor's flat address.
    pub fn addr(&self) -> EndpointAddr {
        self.addr
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Time since the serve loop last proved liveness. The loop beats every
    /// iteration (including while paused), so a large age means the
    /// processor is dead or wedged — the controller's failure detector
    /// compares this against its heartbeat timeout.
    pub fn heartbeat_age(&self) -> Duration {
        let last = Duration::from_nanos(self.beat.load(Ordering::Relaxed));
        self.clock.now().saturating_sub(last)
    }

    /// The time source this processor's heartbeat runs on. Reconfiguration
    /// hands it to successors so a migrated processor keeps the same
    /// (possibly virtual) clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.clock.clone()
    }

    /// Simulates a hard crash for failure testing: frames blackhole,
    /// heartbeats stop, control queries fail with [`CtlError::Stopped`].
    /// The thread itself stays joinable (drop/stop still work).
    pub fn kill(&self) {
        let _ = self.ctl.send(Ctl::Crash);
    }

    /// Re-points where requests are forwarded after processing (controller
    /// re-routing during failover).
    pub fn set_request_next(&self, next: NextHop) {
        let _ = self.ctl.send(Ctl::SetRequestNext(next));
    }

    /// Replaces the overload/admission policy (controller brownout and
    /// shedding knobs). Blocks (bounded) until the serve loop applies it:
    /// frames admitted after this returns saw the new policy, so a
    /// brownout flip cannot race the next request.
    pub fn set_overload(&self, overload: OverloadPolicy) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        if self.ctl.send(Ctl::SetOverload(overload, tx)).is_ok() {
            let _ = rx.recv_timeout(Duration::from_secs(5));
        }
    }

    /// Pauses frame processing (queued frames are retained).
    pub fn pause(&self) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        if self.ctl.send(Ctl::Pause(tx)).is_ok() {
            let _ = rx.recv_timeout(Duration::from_secs(5));
        }
    }

    /// Resumes frame processing.
    pub fn resume(&self) {
        let _ = self.ctl.send(Ctl::Resume);
    }

    /// Exports per-engine state images. Fails explicitly if the processor
    /// is stopped or unresponsive — an empty answer is a real (stateless)
    /// export, never a masked hang.
    pub fn export_state(&self) -> Result<Vec<Vec<u8>>, CtlError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.ctl
            .send(Ctl::ExportState(tx))
            .map_err(|_| CtlError::Stopped)?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(ctl_recv_err)
    }

    /// Imports per-engine state images.
    pub fn import_state(&self, images: Vec<Vec<u8>>) -> Result<(), String> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.ctl
            .send(Ctl::ImportState(images, tx))
            .map_err(|_| CtlError::Stopped.to_string())?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(|e| ctl_recv_err(e).to_string())?
    }

    /// Hot-swaps the engine chain, returning the old chain's state images.
    pub fn install_chain(&self, chain: EngineChain) -> Result<Vec<Vec<u8>>, CtlError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.ctl
            .send(Ctl::InstallChain(chain, tx))
            .map_err(|_| CtlError::Stopped)?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(ctl_recv_err)
    }

    /// Snapshot of the NAT flow table (in-flight call id → requester).
    /// Live migration hands this to the successor so in-flight responses
    /// still find their way back.
    pub fn export_flows(&self) -> HashMap<u64, EndpointAddr> {
        self.flows.lock().clone()
    }

    /// Re-emits queued frames to this processor's address (after the fabric
    /// has been re-pointed at a successor). Returns frames drained, or an
    /// explicit error if the processor is stopped or unresponsive (a hung
    /// processor must not look like an empty queue).
    pub fn drain(&self) -> Result<usize, CtlError> {
        let (tx, rx) = crossbeam::channel::bounded(1);
        self.ctl
            .send(Ctl::Drain(tx))
            .map_err(|_| CtlError::Stopped)?;
        rx.recv_timeout(Duration::from_secs(5))
            .map_err(ctl_recv_err)
    }

    /// Stops the processor thread.
    pub fn stop(mut self) {
        let _ = self.ctl.send(Ctl::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Asks the processor to finish its queued frames and then exit, and
    /// waits for it (make-before-break retirement).
    pub fn stop_when_idle(mut self) {
        let _ = self.ctl.send(Ctl::StopWhenIdle);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ProcessorHandle {
    fn drop(&mut self) {
        let _ = self.ctl.send(Ctl::Stop);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Spawns a processor thread serving `config.addr` with frames from
/// `frames` over `link`. The thread is the I/O driver of a [`HopCore`]:
/// heartbeat, control, pause/crash/stop, receive and batch fill, the
/// queue-depth gauge, then `on_batch` and two batched sends.
pub fn spawn_processor(
    mut config: ProcessorConfig,
    link: Arc<dyn Link>,
    frames: Receiver<Frame>,
) -> ProcessorHandle {
    let (ctl_tx, ctl_rx) = crossbeam::channel::unbounded();
    let clock = config.clock.take().unwrap_or_else(adn_rpc::clock::system);
    // Born live: the spawn itself counts as a beat. Otherwise a failure
    // detector polling between spawn and the serve loop's first iteration
    // sees age = now − 0 and declares a newborn (e.g. a failover
    // successor) dead — a race on the wall clock, a certainty on a
    // virtual one.
    let beat = Arc::new(AtomicU64::new(clock.now().as_nanos() as u64));
    let thread_beat = beat.clone();
    let thread_clock = clock.clone();
    let addr = config.addr;
    let batch_max = config.batch_max.max(1);
    let mut core = HopCore::new(config);
    let stats = core.stats().clone();
    let flows = core.flows().clone();

    let join = std::thread::Builder::new()
        .name(format!("adn-processor-{addr}"))
        .spawn(move || {
            let stats = core.stats().clone();
            // When the previous batch finished, on the processor's clock: a
            // frame pulled from a non-empty queue has been waiting at least
            // since then (the queue-wait approximation spans record). Read
            // through `Clock`, not `Instant`, so queue-wait is deterministic
            // under the simulator's virtual time.
            let mut last_done = thread_clock.now();
            let mut paused = false;
            let mut stopping = false;
            let mut crashed = false;
            let mut batch: Vec<Frame> = Vec::with_capacity(batch_max);
            let mut out = HopOutput::default();

            loop {
                if crashed {
                    // Blackhole: no frame processing, no heartbeats, no
                    // control replies. Only Stop (sent by stop()/drop) or a
                    // closed control channel ends the thread.
                    match ctl_rx.recv_timeout(Duration::from_millis(50)) {
                        Ok(Ctl::Stop) | Err(RecvTimeoutError::Disconnected) => return,
                        _ => continue,
                    }
                }
                thread_beat.store(thread_clock.now().as_nanos() as u64, Ordering::Relaxed);
                // Drain control messages first.
                while let Ok(ctl) = ctl_rx.try_recv() {
                    match ctl {
                        Ctl::Pause(reply) => {
                            paused = true;
                            let _ = reply.send(());
                        }
                        Ctl::Resume => paused = false,
                        Ctl::ExportState(reply) => {
                            let _ = reply.send(core.export_states());
                        }
                        Ctl::ImportState(images, reply) => {
                            let _ = reply.send(core.import_states(&images));
                        }
                        Ctl::InstallChain(new_chain, reply) => {
                            let _ = reply.send(core.install_chain(new_chain));
                        }
                        Ctl::Drain(reply) => {
                            let mut count = 0;
                            while let Ok(frame) = frames.try_recv() {
                                // Same dst: the fabric now delivers to the
                                // successor attached at this address. A
                                // failed send is retried once (the link may
                                // have been mid-repoint); a frame lost after
                                // that is recorded, never silently dropped —
                                // the sim's zero-loss invariant reads this
                                // counter.
                                if link.send(frame.clone()).is_ok() || link.send(frame).is_ok() {
                                    count += 1;
                                } else {
                                    stats.drain_drops.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            let _ = reply.send(count);
                        }
                        Ctl::Stop => return,
                        Ctl::StopWhenIdle => stopping = true,
                        Ctl::SetRequestNext(next) => core.set_request_next(next),
                        Ctl::SetOverload(policy, reply) => {
                            core.set_overload(policy);
                            let _ = reply.send(());
                        }
                        Ctl::Crash => crashed = true,
                    }
                }
                if crashed {
                    continue;
                }
                if paused {
                    // The gauge must keep tracking the backlog while intake
                    // is frozen — a paused processor with a growing queue is
                    // exactly what load-aware placement needs to see.
                    stats
                        .queue_depth
                        .store(frames.len() as u64, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
                let backlog = frames.len();
                stats.queue_depth.store(backlog as u64, Ordering::Relaxed);
                let first = if stopping {
                    // Graceful retirement: drain what is queued, then exit.
                    match frames.try_recv() {
                        Ok(f) => f,
                        Err(_) => return,
                    }
                } else {
                    match frames.recv_timeout(Duration::from_millis(20)) {
                        Ok(f) => f,
                        Err(RecvTimeoutError::Timeout) => {
                            last_done = thread_clock.now();
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                };
                // Fill the batch opportunistically: everything already
                // queued, up to the ceiling. Never blocks.
                batch.push(first);
                while batch.len() < batch_max {
                    match frames.try_recv() {
                        Ok(f) => batch.push(f),
                        Err(_) => break,
                    }
                }
                // Decay the gauge to the post-pull residue: the frames just
                // pulled are no longer "waiting", and an idle processor must
                // read zero rather than hold the last pre-drain depth.
                stats
                    .queue_depth
                    .store(frames.len() as u64, Ordering::Relaxed);
                // A frame pulled from a non-empty queue was waiting while
                // the previous batch was processed; one pulled from an
                // empty queue arrived just now. One reading per batch.
                let queue_ns = if backlog > 0 {
                    thread_clock.now().saturating_sub(last_done).as_nanos() as u64
                } else {
                    0
                };
                out.outcomes.clear();
                core.on_batch(batch.drain(..), backlog, queue_ns, &mut out);
                // One batched send for fresh forwards (these count toward
                // `forwarded`, per successful frame) and one for dedup
                // replays (these never did).
                if !out.forwards.is_empty() {
                    let sent = link.send_batch(std::mem::take(&mut out.forwards));
                    stats.forwarded.fetch_add(sent as u64, Ordering::Relaxed);
                }
                if !out.replays.is_empty() {
                    link.send_batch(std::mem::take(&mut out.replays));
                }
                last_done = thread_clock.now();
            }
        })
        .expect("spawn processor thread");

    ProcessorHandle {
        addr,
        ctl: ctl_tx,
        stats,
        flows,
        beat,
        clock,
        join: Some(join),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Arc;

    use super::*;
    use adn_rpc::engine::Engine;
    use adn_rpc::engine::Verdict;
    use adn_rpc::message::{MessageKind, RpcMessage};
    use adn_rpc::runtime::{spawn_server, RpcClient, ServerConfig};
    use adn_rpc::schema::{MethodDef, RpcSchema};
    use adn_rpc::transport::InProcNetwork;
    use adn_rpc::value::{Value, ValueType};
    use adn_rpc::wire_format;
    use adn_rpc::RpcError;
    use adn_telemetry::TraceContext;

    pub(crate) fn service() -> Arc<ServiceSchema> {
        let request = Arc::new(
            RpcSchema::builder()
                .field("x", ValueType::U64)
                .field("who", ValueType::Str)
                .build()
                .unwrap(),
        );
        let response = Arc::new(
            RpcSchema::builder()
                .field("x", ValueType::U64)
                .field("who", ValueType::Str)
                .build()
                .unwrap(),
        );
        Arc::new(
            ServiceSchema::new(
                "Echo",
                vec![MethodDef {
                    id: 1,
                    name: "Echo".into(),
                    request,
                    response,
                }],
            )
            .unwrap(),
        )
    }

    pub(crate) struct CountAndStamp {
        pub(crate) count: u64,
    }
    impl Engine for CountAndStamp {
        fn name(&self) -> &str {
            "count_stamp"
        }
        fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
            self.count += 1;
            if msg.kind == MessageKind::Response {
                msg.set("who", Value::Str("via-processor".into()));
            }
            Verdict::Forward
        }
        fn export_state(&self) -> Vec<u8> {
            self.count.to_le_bytes().to_vec()
        }
        fn import_state(&mut self, image: &[u8]) -> Result<(), String> {
            self.count = u64::from_le_bytes(image.try_into().map_err(|_| "bad image")?);
            Ok(())
        }
    }

    pub(crate) struct DenyOdd;
    impl Engine for DenyOdd {
        fn name(&self) -> &str {
            "deny_odd"
        }
        fn process(&mut self, msg: &mut RpcMessage) -> Verdict {
            if msg.kind == MessageKind::Request {
                if let Some(Value::U64(x)) = msg.get("x") {
                    if x % 2 == 1 {
                        return Verdict::Abort {
                            code: 7,
                            message: "odd".into(),
                        };
                    }
                }
            }
            Verdict::Forward
        }
    }

    /// client(1) → processor(5) → server(2)
    fn setup(
        chain: EngineChain,
    ) -> (
        Arc<RpcClient>,
        ProcessorHandle,
        adn_rpc::runtime::ServerHandle,
    ) {
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();

        let server_frames = net.attach(2);
        let svc2 = svc.clone();
        let server = spawn_server(
            ServerConfig {
                addr: 2,
                service: svc.clone(),
                chain: EngineChain::new(),
            },
            link.clone(),
            server_frames,
            Box::new(move |req| {
                let m = svc2.method_by_id(req.method_id).unwrap();
                let mut resp = RpcMessage::response_to(req, m.response.clone());
                resp.set("x", req.get("x").unwrap().clone());
                resp.set("who", Value::Str("server".into()));
                resp
            }),
        );

        let proc_frames = net.attach(5);
        let processor = spawn_processor(
            ProcessorConfig {
                addr: 5,
                service: svc.clone(),
                chain,
                request_next: NextHop::Fixed(2),
                response_next: NextHop::Dst,
                initial_flows: Default::default(),
                telemetry: None,
                clock: None,
                batch_max: DEFAULT_BATCH_MAX,
                overload: OverloadPolicy::default(),
            },
            link.clone(),
            proc_frames,
        );

        let client_frames = net.attach(1);
        let client = RpcClient::new(1, link, client_frames, svc, EngineChain::new());
        (client, processor, server)
    }

    fn req(client: &RpcClient, x: u64) -> RpcMessage {
        let m = client.service().method_by_id(1).unwrap();
        RpcMessage::request(0, 1, m.request.clone())
            .with("x", x)
            .with("who", "client")
    }

    #[test]
    fn requests_and_responses_traverse_the_processor() {
        let chain = EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]);
        let (client, processor, _server) = setup(chain);
        // Client addresses the processor (the controller's routing choice).
        let resp = client.call(req(&client, 4), 5).unwrap();
        assert_eq!(resp.get("x"), Some(&Value::U64(4)));
        // The response chain ran on the processor (NAT return path).
        assert_eq!(resp.get("who"), Some(&Value::Str("via-processor".into())));
        // The serve loop bumps its counters after handing frames to the
        // fabric, so the client can hold the response a beat before the
        // increments land — poll rather than race them.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while processor.stats().forwarded < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = processor.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.responses, 1);
        assert_eq!(stats.forwarded, 2);
    }

    #[test]
    fn sampled_calls_record_spans_and_element_metrics() {
        use adn_telemetry::{Registry, Sampler, SpanRing};

        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();
        let svc2 = svc.clone();
        let _server = spawn_server(
            ServerConfig {
                addr: 2,
                service: svc.clone(),
                chain: EngineChain::new(),
            },
            link.clone(),
            net.attach(2),
            Box::new(move |request| {
                let m = svc2.method_by_id(request.method_id).unwrap();
                let mut resp = RpcMessage::response_to(request, m.response.clone());
                resp.set("x", request.get("x").unwrap().clone());
                resp.set("who", Value::Str("server".into()));
                resp
            }),
        );
        let telemetry = HopTelemetry {
            app: "echo".into(),
            registry: Arc::new(Registry::new()),
            spans: Arc::new(SpanRing::new(64)),
            sampler: Arc::new(Sampler::off()),
        };
        let _processor = spawn_processor(
            ProcessorConfig::new(
                5,
                svc.clone(),
                EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]),
                NextHop::Fixed(2),
                NextHop::Dst,
            )
            .with_telemetry(telemetry.clone()),
            link.clone(),
            net.attach(5),
        );
        let client = RpcClient::new(1, link, net.attach(1), svc, EngineChain::new());

        // The client samples every call: each request carries a root trace
        // context the processor must honor regardless of its own sampler.
        client.set_trace_sampling(1.0);
        let resp = client.call(req(&client, 4), 5).unwrap();
        assert_eq!(resp.get("x"), Some(&Value::U64(4)));

        // Request + response each ran the one-stage chain under sampling.
        let snaps = telemetry.registry.snapshot_for("echo", 5);
        assert_eq!(snaps.len(), 1, "{snaps:?}");
        assert_eq!(snaps[0].key.element, "count_stamp");
        assert_eq!(snaps[0].count, 2);
        assert_eq!(snaps[0].errors, 0);

        // Both hop directions emitted spans under the same trace id. The
        // response-hop span lands just after the client unblocks, so give
        // the processor thread a moment.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while telemetry.spans.len() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let spans = telemetry.spans.drain();
        assert_eq!(spans.len(), 2, "{spans:?}");
        assert_eq!(spans[0].trace_id, spans[1].trace_id);
        assert!(spans.iter().all(|s| s.processor == 5));
        assert!(spans
            .iter()
            .all(|s| s.stages.len() == 1 && s.stages[0].0 == "count_stamp"));

        // With sampling off and no inbound trace, nothing is recorded.
        client.set_trace_sampling(0.0);
        client.call(req(&client, 6), 5).unwrap();
        assert!(telemetry.spans.is_empty());
        assert_eq!(telemetry.registry.snapshot_for("echo", 5)[0].count, 2);
    }

    #[test]
    fn processor_abort_reflects_to_client() {
        let chain = EngineChain::from_engines(vec![Box::new(DenyOdd)]);
        let (client, processor, _server) = setup(chain);
        assert!(client.call(req(&client, 2), 5).is_ok());
        let err = client.call(req(&client, 3), 5).unwrap_err();
        assert!(matches!(err, RpcError::Aborted { code: 7, .. }));
        assert_eq!(processor.stats().aborted, 1);
    }

    #[test]
    fn state_export_import_across_processors() {
        let chain = EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]);
        let (client, processor, _server) = setup(chain);
        for i in 0..3 {
            client.call(req(&client, i * 2), 5).unwrap();
        }
        processor.pause();
        let images = processor.export_state().unwrap();
        // 3 requests + 3 responses = 6 engine invocations.
        assert_eq!(images[0], 6u64.to_le_bytes().to_vec());
        processor.resume();

        // Import shifted state and verify.
        processor
            .import_state(vec![100u64.to_le_bytes().to_vec()])
            .unwrap();
        assert_eq!(
            processor.export_state().unwrap()[0],
            100u64.to_le_bytes().to_vec()
        );
    }

    #[test]
    fn hot_chain_swap_returns_old_state() {
        let chain = EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]);
        let (client, processor, _server) = setup(chain);
        client.call(req(&client, 0), 5).unwrap();
        let old_state = processor
            .install_chain(EngineChain::from_engines(vec![Box::new(CountAndStamp {
                count: 0,
            })]))
            .unwrap();
        assert_eq!(old_state[0], 2u64.to_le_bytes().to_vec());
        // New chain starts fresh and still works.
        client.call(req(&client, 2), 5).unwrap();
        assert_eq!(
            processor.export_state().unwrap()[0],
            2u64.to_le_bytes().to_vec()
        );
    }

    #[test]
    fn pause_is_lossless() {
        let chain = EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]);
        let (client, processor, _server) = setup(chain);
        processor.pause();
        // Send while paused: the call completes only after resume.
        let pending = client.send_call(req(&client, 8), 5).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        processor.resume();
        let resp = pending.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.get("x"), Some(&Value::U64(8)));
    }

    #[test]
    fn killed_processor_blackholes_and_control_errors() {
        let chain = EngineChain::from_engines(vec![Box::new(CountAndStamp { count: 0 })]);
        let (client, processor, _server) = setup(chain);
        client.call(req(&client, 2), 5).unwrap();
        assert!(processor.heartbeat_age() < Duration::from_secs(1));

        processor.kill();
        // Heartbeats stopped. The serve thread may emit one last beat
        // after kill() returns (it checks the flag once per iteration, and
        // a loaded scheduler can hold it mid-iteration past a fixed
        // sleep), so wait for the age to grow instead of sleeping blind —
        // it only grows without bound if the loop is truly dead.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while processor.heartbeat_age() < Duration::from_millis(100)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(processor.heartbeat_age() >= Duration::from_millis(100));
        // Control queries fail explicitly — a crashed processor is
        // distinguishable from an empty answer.
        assert_eq!(processor.export_state().unwrap_err(), CtlError::Stopped);
        assert_eq!(processor.drain().unwrap_err(), CtlError::Stopped);
        assert_eq!(
            processor.install_chain(EngineChain::new()).unwrap_err(),
            CtlError::Stopped
        );
        // Traffic blackholes: the deadline fires, no panic, no response.
        let err = client
            .send_call(req(&client, 4), 5)
            .unwrap()
            .wait(Duration::from_millis(200))
            .unwrap_err();
        assert!(matches!(err, RpcError::Timeout { .. }));
        // Drop of the handle (end of test) must still join cleanly.
    }

    #[test]
    fn set_request_next_reroutes_traffic() {
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();
        let mut servers = Vec::new();
        for (addr, tag) in [(2u64, "alpha"), (3, "beta")] {
            let svc2 = svc.clone();
            servers.push(spawn_server(
                ServerConfig {
                    addr,
                    service: svc.clone(),
                    chain: EngineChain::new(),
                },
                link.clone(),
                net.attach(addr),
                Box::new(move |request| {
                    let m = svc2.method_by_id(request.method_id).unwrap();
                    let mut resp = RpcMessage::response_to(request, m.response.clone());
                    resp.set("x", request.get("x").unwrap().clone());
                    resp.set("who", Value::Str(tag.into()));
                    resp
                }),
            ));
        }
        let processor = spawn_processor(
            ProcessorConfig::new(
                5,
                svc.clone(),
                EngineChain::new(),
                NextHop::Fixed(2),
                NextHop::Dst,
            ),
            link.clone(),
            net.attach(5),
        );
        let client = RpcClient::new(1, link, net.attach(1), svc, EngineChain::new());

        let resp = client.call(req(&client, 0), 5).unwrap();
        assert_eq!(resp.get("who"), Some(&Value::Str("alpha".into())));

        processor.set_request_next(NextHop::Fixed(3));
        std::thread::sleep(Duration::from_millis(50));
        let resp = client.call(req(&client, 2), 5).unwrap();
        assert_eq!(resp.get("who"), Some(&Value::Str("beta".into())));
    }

    /// Heartbeat staleness on a virtual clock: a processor is born live
    /// (the spawn itself beats, so a detector polling before the serve
    /// loop's first iteration finds age zero), a crashed one ages by
    /// exactly the controlled jumps and nothing else.
    #[test]
    fn heartbeat_age_follows_virtual_clock_jumps() {
        let clock = adn_rpc::clock::VirtualClock::shared();
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let processor = spawn_processor(
            ProcessorConfig::new(
                5,
                service(),
                EngineChain::new(),
                NextHop::Fixed(2),
                NextHop::Dst,
            )
            .with_clock(clock.clone()),
            link,
            net.attach(5),
        );
        // Born live, even before the serve loop has run once.
        assert_eq!(processor.heartbeat_age(), Duration::ZERO);

        processor.kill();
        // Wait (bounded by thread latency, not wall time) until the serve
        // loop observes the crash; after that it never beats again.
        while processor.export_state().is_ok() {
            std::thread::yield_now();
        }
        // Every beat so far happened at virtual zero, so staleness is
        // exactly the jump we make — deterministic, not approximate.
        clock.advance(Duration::from_millis(300));
        assert_eq!(processor.heartbeat_age(), Duration::from_millis(300));
        clock.advance(Duration::from_millis(300));
        assert_eq!(processor.heartbeat_age(), Duration::from_millis(600));
    }

    /// A link that fails its next `fail_next` sends, then recovers —
    /// models a fabric caught mid-repoint during retirement.
    struct FlakyLink {
        inner: Arc<dyn Link>,
        fail_next: AtomicU64,
    }
    impl Link for FlakyLink {
        fn send(&self, frame: Frame) -> adn_rpc::RpcResult<()> {
            if self
                .fail_next
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(RpcError::Disconnected);
            }
            self.inner.send(frame)
        }
    }

    /// Builds a paused processor at 5 over a [`FlakyLink`] with `queued`
    /// frames waiting, then re-points the fabric address at a fresh
    /// receiver (the "successor"), mirroring retirement order: frames are
    /// queued on the old instance, the fabric moves, then `drain` re-emits.
    fn drain_rig(
        queued: usize,
    ) -> (
        ProcessorHandle,
        Arc<FlakyLink>,
        crossbeam::channel::Receiver<Frame>,
    ) {
        let net = InProcNetwork::new();
        let flaky = Arc::new(FlakyLink {
            inner: Arc::new(net.clone()),
            fail_next: AtomicU64::new(0),
        });
        let svc = service();
        let processor = spawn_processor(
            ProcessorConfig::new(
                5,
                svc.clone(),
                EngineChain::new(),
                NextHop::Fixed(2),
                NextHop::Dst,
            ),
            flaky.clone(),
            net.attach(5),
        );
        processor.pause();

        let m = svc.method_by_id(1).unwrap();
        let mut msg = RpcMessage::request(0, 1, m.request.clone())
            .with("x", 1u64)
            .with("who", "c");
        msg.src = 1;
        msg.dst = 2;
        let payload = wire_format::encode_message_to_vec(&msg).unwrap();
        for _ in 0..queued {
            net.send(Frame {
                src: 1,
                dst: 5,
                payload: payload.clone(),
            })
            .unwrap();
        }
        // Re-point the address: re-emitted frames now reach the successor,
        // not the retiring processor's own queue.
        let successor_rx = net.attach(5);
        (processor, flaky, successor_rx)
    }

    /// A transiently failing link during `drain` is absorbed by the
    /// per-frame retry: nothing is lost, nothing is counted dropped.
    #[test]
    fn drain_retries_transient_link_failure() {
        let (processor, flaky, successor_rx) = drain_rig(2);
        flaky.fail_next.store(1, Ordering::SeqCst);
        assert_eq!(processor.drain().unwrap(), 2);
        assert_eq!(processor.stats().drain_drops, 0);
        // Both frames reached the successor.
        for _ in 0..2 {
            successor_rx.recv_timeout(Duration::from_secs(1)).unwrap();
        }
    }

    /// Regression for silent drain loss: a frame the link rejects on both
    /// attempts must be recorded in `drain_drops` — never silently
    /// discarded (the sim's zero-loss invariant reads this counter).
    #[test]
    fn drain_across_failing_link_counts_drops() {
        let (processor, flaky, successor_rx) = drain_rig(2);
        flaky.fail_next.store(u64::MAX, Ordering::SeqCst);
        assert_eq!(processor.drain().unwrap(), 0, "nothing was re-emitted");
        assert_eq!(processor.stats().drain_drops, 2, "loss must be counted");
        assert!(successor_rx.try_recv().is_err());
    }

    /// Regression: the gauge used to go stale — it was only written when a
    /// frame was pulled, so an idle processor kept reporting its last
    /// pre-drain depth and a paused one never showed the backlog growing.
    /// Load-aware placement steers on this number; it must track both ways.
    #[test]
    fn queue_depth_gauge_tracks_backlog_and_decays_to_zero() {
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();
        let processor = spawn_processor(
            ProcessorConfig::new(
                5,
                svc.clone(),
                EngineChain::new(),
                NextHop::Fixed(2),
                NextHop::Dst,
            ),
            link,
            net.attach(5),
        );
        // Freeze intake; queued frames must still move the gauge up.
        processor.pause();
        let m = svc.method_by_id(1).unwrap();
        for i in 0..4u64 {
            let mut msg = RpcMessage::request(100 + i, 1, m.request.clone())
                .with("x", i)
                .with("who", "c");
            msg.src = 1;
            msg.dst = 2;
            let payload = wire_format::encode_message_to_vec(&msg).unwrap();
            net.send(Frame {
                src: 1,
                dst: 5,
                payload,
            })
            .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while processor.stats().queue_depth < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            processor.stats().queue_depth,
            4,
            "paused backlog must be visible"
        );
        // Unfreeze: the batch drains (no server at 2 answers, but the
        // forward empties the inbox) and the gauge must decay to zero
        // rather than hold the pre-drain reading.
        processor.resume();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (processor.stats().queue_depth > 0 || processor.stats().requests < 4)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = processor.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.queue_depth, 0, "idle gauge must read zero");
    }

    /// Brownout refuses Sheddable-stamped requests with zero backlog and a
    /// fast-fail Shed reply, admits unstamped (Normal) traffic untouched,
    /// and is reversible via `set_overload`.
    #[test]
    fn brownout_sheds_sheddable_requests_and_is_reversible() {
        use adn_wire::header::{OverloadContext, Priority};

        let (client, processor, _server) = setup(EngineChain::new());
        let sheddable = |client: &RpcClient, x: u64| {
            let mut msg = req(client, x);
            msg.deadline = Some(OverloadContext::root(
                Duration::from_secs(5).as_nanos() as u64,
                Priority::Sheddable,
            ));
            msg
        };
        // Permissive default: sheddable traffic flows.
        assert!(client.call(sheddable(&client, 1), 5).is_ok());

        processor.set_overload(OverloadPolicy {
            brownout: true,
            ..OverloadPolicy::default()
        });
        match client.call(sheddable(&client, 2), 5) {
            Err(RpcError::Shed { .. }) => {}
            other => panic!("expected fast-fail shed, got {other:?}"),
        }
        // Unstamped traffic rides as Normal: brownout does not touch it.
        assert!(client.call(req(&client, 3), 5).is_ok());
        assert_eq!(processor.stats().shed, 1);

        processor.set_overload(OverloadPolicy::default());
        assert!(
            client.call(sheddable(&client, 4), 5).is_ok(),
            "brownout must be reversible"
        );
    }

    /// Regression for the queue-wait wall-clock leak: the serve loop used
    /// `Instant::now()` for its batch timestamps, bypassing the `Clock`
    /// trait, so spans recorded wall time even under a virtual clock. With
    /// the fix, a virtual-clock jump while frames wait shows up in the
    /// span's `queue_ns` exactly — deterministic, not approximate.
    #[test]
    fn queue_wait_is_measured_on_the_processor_clock() {
        use adn_telemetry::{Registry, Sampler, SpanRing};

        let clock = adn_rpc::clock::VirtualClock::shared();
        let net = InProcNetwork::new();
        let link: Arc<dyn Link> = Arc::new(net.clone());
        let svc = service();
        let telemetry = HopTelemetry {
            app: "echo".into(),
            registry: Arc::new(Registry::new()),
            spans: Arc::new(SpanRing::new(16)),
            sampler: Arc::new(Sampler::off()),
        };
        let processor = spawn_processor(
            ProcessorConfig::new(
                5,
                svc.clone(),
                EngineChain::new(),
                NextHop::Fixed(2),
                NextHop::Dst,
            )
            .with_clock(clock.clone())
            .with_telemetry(telemetry.clone()),
            link,
            net.attach(5),
        );
        // Freeze intake so the frame provably waits across the jump.
        processor.pause();

        let m = svc.method_by_id(1).unwrap();
        let mut msg = RpcMessage::request(0, 1, m.request.clone())
            .with("x", 1u64)
            .with("who", "c");
        msg.call_id = 42;
        msg.src = 1;
        msg.dst = 2;
        // In-band context: the hop samples it regardless of the local
        // sampler, so a span (carrying queue_ns) is emitted.
        msg.trace = Some(TraceContext::root(7));
        let payload = wire_format::encode_message_to_vec(&msg).unwrap();
        net.send(Frame {
            src: 1,
            dst: 5,
            payload,
        })
        .unwrap();

        // The wait happens entirely in virtual time.
        clock.advance(Duration::from_secs(2));
        processor.resume();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while telemetry.spans.is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let spans = telemetry.spans.drain();
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(
            spans[0].queue_ns,
            Duration::from_secs(2).as_nanos() as u64,
            "queue wait must be the virtual-clock jump, exactly"
        );
    }

    /// The thread is only a driver: a script queued behind a pause and
    /// drained as one batch leaves the processor as exactly the frames a
    /// directly-fed `HopCore` emits for that batch — fresh forwards first,
    /// then replays. This guards the wiring the simulator does not share.
    #[test]
    fn thread_driver_emits_what_the_core_emits() {
        let clock = adn_rpc::clock::VirtualClock::shared();
        let svc = service();
        let config = || {
            ProcessorConfig::new(
                5,
                svc.clone(),
                EngineChain::from_engines(vec![Box::new(DenyOdd)]),
                NextHop::Fixed(2),
                NextHop::Dst,
            )
        };
        let net = InProcNetwork::new();
        let (client_rx, server_rx) = (net.attach(1), net.attach(2));
        let processor = spawn_processor(
            config().with_clock(clock.clone()),
            Arc::new(net.clone()),
            net.attach(5),
        );
        processor.pause();

        let frame = |call_id: u64, x: u64, kind: MessageKind| {
            let m = svc.method_by_id(1).unwrap();
            let schema = match kind {
                MessageKind::Request => m.request.clone(),
                MessageKind::Response => m.response.clone(),
            };
            let mut msg = RpcMessage::request(call_id, 1, schema)
                .with("x", x)
                .with("who", "c");
            msg.kind = kind;
            (msg.src, msg.dst) = (1, 2);
            Frame {
                src: 1,
                dst: 5,
                payload: wire_format::encode_message_to_vec(&msg).unwrap(),
            }
        };
        // Fresh, duplicate, stale response, odd (aborted by the chain).
        let script = vec![
            frame(10, 2, MessageKind::Request),
            frame(10, 2, MessageKind::Request),
            frame(777, 0, MessageKind::Response),
            frame(11, 3, MessageKind::Request),
        ];
        for f in &script {
            net.send(f.clone()).unwrap();
        }

        let mut core = HopCore::new(config());
        let mut want = HopOutput::default();
        core.on_batch(script.clone(), script.len(), 0, &mut want);
        let emitted: Vec<Frame> = want.forwards.into_iter().chain(want.replays).collect();
        assert_eq!(emitted.len(), 3, "forward, abort reply, dedup replay");

        processor.resume();
        let recv = |rx: &crossbeam::channel::Receiver<Frame>, n: usize| -> Vec<Frame> {
            (0..n)
                .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
                .collect()
        };
        let want_at = |dst| emitted.iter().filter(|f| f.dst == dst).cloned().collect();
        let to_server: Vec<Frame> = want_at(2);
        let to_client: Vec<Frame> = want_at(1);
        assert_eq!(recv(&server_rx, to_server.len()), to_server);
        assert_eq!(recv(&client_rx, to_client.len()), to_client);
        assert!(server_rx.try_recv().is_err() && client_rx.try_recv().is_err());
        let stats = processor.stats();
        assert_eq!((stats.dedup_hits, stats.stale_responses), (1, 1));
    }
}
