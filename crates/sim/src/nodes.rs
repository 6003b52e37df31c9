//! Message-level models of the cluster's node types. Each model is plain
//! data driven by the scenario's event handlers; none owns a thread or a
//! clock. A simulated processor *is* the production hop: a
//! [`HopCore`] — the same sans-IO core the processor thread drives — plus
//! the sim's driver state (liveness, inbox, overload busy time). Client
//! and server reuse the real dedup windows, circuit breakers and retry
//! budgets rather than simplified copies.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use adn_dataplane::HopCore;
use adn_ir::ElementIr;
use adn_rpc::retry::{CircuitBreaker, DedupWindow, DegradedMode, RetryPolicy};
use adn_rpc::schema::RpcSchema;
use adn_rpc::transport::Frame;
use adn_wire::header::Priority;

use crate::scenario::SimAutoscale;

/// Dedup window capacity of the simulated server (processors use the
/// production window inside [`HopCore`]). Larger than any scenario's in-flight set, so eviction never weakens
/// the at-most-once invariant inside a run.
pub const DEDUP_CAP: usize = 4096;

/// The state of one in-flight or finished client call.
#[derive(Debug)]
pub struct CallState {
    /// Workload object id (unique per call in the sim workload).
    pub object_id: u64,
    /// Requesting username (drives the ACL element).
    pub user: String,
    /// The request payload, encoded once; retransmits reuse it so the
    /// trace id and field bytes are identical across attempts.
    pub payload: Vec<u8>,
    /// Current 1-based attempt number.
    pub attempt: u32,
    /// Failed attempts so far (drives backoff growth).
    pub failures: u32,
    /// Absolute virtual deadline for the whole call.
    pub deadline: Duration,
    /// Priority class stamped into the hop header (overload scenarios).
    pub priority: Priority,
    /// Terminal outcome, once resolved.
    pub outcome: Option<CallOutcome>,
}

/// Terminal result of a simulated call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallOutcome {
    /// Completed with an `Ok` response.
    Ok,
    /// Rejected by a network element (ACL, fault injection).
    Aborted,
    /// Retry budget or deadline exhausted.
    TimedOut,
    /// Fast-failed by admission control under overload; definitive (the
    /// client backs off instead of retrying).
    Shed,
}

/// The closed-loop client: issues calls against the chain entry, retries
/// with the real backoff policy, and trips the real circuit breaker.
#[derive(Debug)]
pub struct SimClient {
    /// The client's flat endpoint address.
    pub addr: u64,
    /// First hop (chain entry processor).
    pub via: u64,
    /// Final destination (the server).
    pub server: u64,
    /// Real retry policy (backoff math shared with `call_resilient`).
    pub policy: RetryPolicy,
    /// Real circuit breaker guarding the first hop.
    pub breaker: CircuitBreaker,
    /// Breaker-open behavior.
    pub degraded: DegradedMode,
    /// All calls, keyed by call id (ordered for deterministic iteration).
    pub calls: BTreeMap<u64, CallState>,
    /// Workload indices handed to `IssueCall` so far.
    pub scheduled: u64,
    /// Total calls the workload will issue.
    pub total: u64,
    /// Calls in flight at once.
    pub concurrency: u64,
}

impl SimClient {
    /// Call id for workload index `i` (offset so ids never collide with
    /// endpoint addresses in logs).
    pub fn call_id(index: u64) -> u64 {
        1000 + index
    }
}

/// A simulated chain processor: the production [`HopCore`] plus the
/// driver state the processor thread would otherwise hold.
pub struct SimProcessor {
    /// The production hop: chain, dedup windows, NAT flows, admission.
    pub core: HopCore,
    /// The chain's elements and their compile seeds, for failover and
    /// migration rebuilds and the scale-out plan.
    pub elements: Vec<ElementIr>,
    pub seeds: Vec<u64>,
    /// Where the core forwards accepted requests (kept for rebuilds).
    pub next: u64,
    /// False after a `Kill`: stops heartbeating, blackholes frames.
    pub alive: bool,
    /// Virtual time of the last heartbeat the controller saw.
    pub last_beat: Duration,
    /// Frames waiting for the next batch drain (`Scenario::batch > 1`
    /// only; the per-frame path never touches it).
    pub inbox: Vec<Frame>,
    /// True while a `FlushBatch` event is scheduled for this processor.
    pub flush_pending: bool,
    /// Virtual time until which this processor's single worker is busy
    /// (overload scenarios only; zero service time leaves it at ZERO).
    pub busy_until: Duration,
}

impl SimProcessor {
    /// A fresh processor around `core`.
    pub fn new(core: HopCore, elements: Vec<ElementIr>, seeds: Vec<u64>, next: u64) -> Self {
        Self {
            core,
            elements,
            seeds,
            next,
            alive: true,
            last_beat: Duration::ZERO,
            inbox: Vec::new(),
            flush_pending: false,
            busy_until: Duration::ZERO,
        }
    }
}

/// The application server: executes requests at most once (real dedup
/// window) and echoes responses.
#[derive(Debug)]
pub struct SimServer {
    /// Flat endpoint address.
    pub addr: u64,
    /// Request dedup window, keyed by (last-hop address, call id); holds
    /// the cached response frame for replay.
    pub dedup: DedupWindow<(u64, u64), Frame>,
    /// Response schema for building replies.
    pub resp_schema: Arc<RpcSchema>,
}

/// The simulated controller: failure detection, checkpoint/restore, and
/// the one load-triggered scale-out — the sim analog of the control loops
/// in `adn-controller`, whose scale-out plan and shard-safety check it
/// calls.
#[derive(Debug)]
pub struct SimController {
    /// Last checkpointed element-state images per processor.
    pub checkpoints: BTreeMap<u64, Vec<Vec<u8>>>,
    /// Scale-out config while armed: set when the scenario enables
    /// autoscale and the entry group is shard-safe, cleared by the
    /// scale-out.
    pub autoscale: Option<SimAutoscale>,
}

/// One recorded trace span (the sim's analog of `adn_telemetry::Span`,
/// reduced to the tree-shape fields the invariant checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanFact {
    /// End-to-end trace id.
    pub trace_id: u64,
    /// This hop's span id (`TraceContext::span_at`).
    pub span_id: u64,
    /// Upstream span id (0 when the client is the parent).
    pub parent_span: u64,
    /// Recording processor address.
    pub processor: u64,
}

/// Everything the invariant checkers observe. The event handlers update
/// these facts inline; checkers only read them.
#[derive(Debug, Default)]
pub struct Facts {
    /// Calls minted by the client.
    pub calls_issued: u64,
    /// Calls resolved `Ok`.
    pub calls_ok: u64,
    /// Calls rejected by an element.
    pub calls_aborted: u64,
    /// Calls that exhausted their retry budget or deadline.
    pub calls_timed_out: u64,
    /// Calls fast-failed with a `Shed` verdict.
    pub calls_shed: u64,
    /// Shed verdicts issued by processors, by admission control or a chain
    /// element (may exceed `calls_shed`: retransmits of an unresolved call
    /// can shed again).
    pub sheds: u64,
    /// Frames dropped at admission because their deadline budget was
    /// already exhausted — counted, never silent.
    pub expired_drops: u64,
    /// Server executions of a call whose budget was exhausted on
    /// arrival. The no-expired-execution invariant demands zero.
    pub expired_executions: u64,
    /// Deepest entry-processor backlog (in queued requests) observed.
    pub queue_peak: u64,
    /// Retransmissions scheduled by the retry layer.
    pub retries: u64,
    /// Frames handed to the link.
    pub frames_sent: u64,
    /// Frames delivered to a node.
    pub frames_delivered: u64,
    /// Frames the chaos layer dropped (incl. partition blackholes).
    pub frames_dropped: u64,
    /// Frames absorbed by dead processors.
    pub frames_blackholed: u64,
    /// Retransmits recognized by a dedup window (processor or server).
    pub dedup_hits: u64,
    /// Server executions per call id — the at-most-once ledger.
    pub executions: BTreeMap<u64, u32>,
    /// The most recent execution `(call_id, count_after)`, for O(1)
    /// per-event checking.
    pub last_exec: Option<(u64, u32)>,
    /// Every span recorded, in causal order.
    pub spans: Vec<SpanFact>,
    /// Virtual times of scale-outs, in order.
    pub scaleouts: Vec<Duration>,
    /// Kills: processor address → virtual kill time.
    pub kills: BTreeMap<u64, Duration>,
    /// Failovers: processor address → virtual repair time.
    pub failovers: BTreeMap<u64, Duration>,
    /// Live migrations performed.
    pub migrations: u64,
    /// Chain verdicts observed (request + response direction).
    pub verdicts: u64,
    /// Running FNV-1a fingerprint over the verdict stream: for each chain
    /// invocation, `(direction, processor, call_id, verdict tag, code)`.
    /// Engine tiers are pinned observably equivalent by the JIT
    /// differential tests; this fingerprint lets eval-matrix re-check
    /// that claim end-to-end — cells differing only in tier must agree.
    pub verdict_stream: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Facts {
    /// Calls resolved one way or another.
    pub fn calls_resolved(&self) -> u64 {
        self.calls_ok + self.calls_aborted + self.calls_timed_out + self.calls_shed
    }

    /// Folds one chain verdict into the verdict-stream fingerprint.
    pub fn note_verdict(
        &mut self,
        direction: u8,
        processor: u64,
        call_id: u64,
        tag: u8,
        code: u64,
    ) {
        let mut h = if self.verdicts == 0 {
            FNV_OFFSET
        } else {
            self.verdict_stream
        };
        for word in [direction as u64, processor, call_id, tag as u64, code] {
            for byte in word.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        self.verdict_stream = h;
        self.verdicts += 1;
    }
}
