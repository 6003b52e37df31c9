//! What the two load generators share: the phases of a run, what one phase
//! measured, and the failure ledger.

use adn::dataplane::processor::StatsSnapshot;

use crate::alloc;
use crate::stats::percentile_sorted;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Fills caches, pools and the dedup windows; not reported.
    Warmup,
    /// Tracing off: the only source of end-to-end numbers.
    Measured,
    /// Counting allocator armed, spans recorded, trace sampling on.
    Traced,
}

#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub kind: PhaseKind,
    pub secs: f64,
}

/// Latency of one phase, from its own samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    /// `None` when fewer than ten samples lie beyond it.
    pub p999_us: Option<f64>,
    pub samples: usize,
}

impl Latency {
    /// Sorts `samples_ns` in place. A phase whose sample cannot support a
    /// p99 (fewer than ten samples beyond it) is a failed phase.
    pub fn of(samples_ns: &mut [u32], kind: PhaseKind, failures: &mut Failures) -> Self {
        samples_ns.sort_unstable();
        let us = |ns: u32| f64::from(ns) / 1e3;
        let (Some(p50), Some(p99)) = (
            percentile_sorted(samples_ns, 50.0),
            percentile_sorted(samples_ns, 99.0),
        ) else {
            failures.add(1, || {
                format!("{kind:?} phase: too few latency samples for a p99")
            });
            return Self::default();
        };
        Self {
            p50_us: us(p50),
            p99_us: us(p99),
            p999_us: percentile_sorted(samples_ns, 99.9).map(us),
            samples: samples_ns.len(),
        }
    }
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseResult {
    pub kind: Option<PhaseKind>,
    pub elapsed_s: f64,
    /// Messages (forwarding) or calls (RPC) completed, aborts included.
    pub completed: u64,
    /// Application payload bytes delivered: forwarded frames' payloads, or
    /// the payloads echoed by successful calls.
    pub payload_bytes: u64,
    pub latency: Latency,
    /// Time the generator spent blocked on a full window, waiting for the
    /// system to complete something.
    pub blocked_s: f64,
    /// Allocation counts over the phase (traced phases only).
    pub allocs: Option<alloc::Snapshot>,
    /// Processor counters over the phase.
    pub processor: StatsSnapshot,
    /// Time inside `RpcClient::send_call`, summed (RPC workload only).
    pub send_call_ns: u64,
}

impl PhaseResult {
    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed_s
    }

    pub fn goodput_mb_s(&self) -> f64 {
        self.payload_bytes as f64 / 1e6 / self.elapsed_s
    }

    /// Share of the phase the generator spent waiting on a full window.
    /// Near 0 the generator, not the system, set the rate.
    pub fn window_full_share(&self) -> f64 {
        self.blocked_s / self.elapsed_s
    }
}

/// Counter deltas between two processor snapshots (`queue_depth` is a
/// gauge and keeps the later reading).
pub fn stats_delta(later: &StatsSnapshot, earlier: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        requests: later.requests - earlier.requests,
        responses: later.responses - earlier.responses,
        forwarded: later.forwarded - earlier.forwarded,
        dropped: later.dropped - earlier.dropped,
        aborted: later.aborted - earlier.aborted,
        decode_errors: later.decode_errors - earlier.decode_errors,
        dedup_hits: later.dedup_hits - earlier.dedup_hits,
        stale_responses: later.stale_responses - earlier.stale_responses,
        queue_depth: later.queue_depth,
        drain_drops: later.drain_drops - earlier.drain_drops,
        expired_drops: later.expired_drops - earlier.expired_drops,
        shed: later.shed - earlier.shed,
    }
}

/// Failed operations, with the first few reasons kept for the report.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub notes: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.count += n;
        if self.notes.len() < 8 {
            self.notes.push(why());
        }
    }
}

/// Everything a load run produced.
#[derive(Debug, Default)]
pub struct LoadResult {
    pub phases: Vec<PhaseResult>,
    /// Operations attempted over the whole run, warm-up included.
    pub attempted: u64,
    pub failures: Failures,
}
