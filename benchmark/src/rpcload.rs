//! The RPC workload: the paper's Figure 5 shape. One thread keeps 128
//! calls outstanding through `RpcClient::send_call` / `wait`; requests and
//! responses both cross one sidecar processor running the compiled chain.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use adn::controller::compile::CompiledApp;
use adn::dataplane::processor::StatsSnapshot;
use adn::harness::{AdnWorld, EnvPreset, WorldConfig};
use adn::rpc::engine::{EngineChain, Verdict};
use adn::rpc::error::RpcError;
use adn::rpc::runtime::PendingCall;
use adn::rpc::value::Value;

use crate::alloc;
use crate::chains;
use crate::corpus::{Corpus, Workload};
use crate::load::{stats_delta, Failures, Latency, LoadResult, Phase, PhaseKind, PhaseResult};
use crate::spans::Recorder;

/// How long one call may take before it counts as failed.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);
/// One call in this many records its `send_call` / `wait` spans.
const SPAN_EVERY: u64 = 16;
/// Outcome codes beyond the chain's own abort codes (3 and 7).
const OUTCOME_OK: u8 = 0;
const OUTCOME_FAILED: u8 = u8::MAX;

/// A running `AdnWorld` plus the log of every call made through it.
pub struct RpcSystem {
    world: AdnWorld,
    /// One byte per call in send order: 0, or the abort code.
    outcomes: Vec<u8>,
}

impl RpcSystem {
    /// DSL source to a serving deployment, through the controller: parse,
    /// typecheck, lower, optimise, verify, JIT compile, place, spawn.
    pub fn start(w: &Workload, seed: u64) -> Self {
        let config = WorldConfig {
            chain: chains::specs(w),
            replicas: 1,
            env: EnvPreset::Bare,
            seed,
            chaos: None,
            track_effects: false,
            clock: None,
        };
        let world = AdnWorld::start(config).expect("world starts");
        Self {
            world,
            outcomes: Vec::new(),
        }
    }

    pub fn world(&self) -> &AdnWorld {
        &self.world
    }

    /// Counters of the one sidecar processor the chain was placed on.
    pub fn processor_stats(&self) -> StatsSnapshot {
        let stats = self.world.controller().processor_stats("app");
        assert_eq!(
            stats.len(),
            1,
            "the OffApp chain must land on exactly one processor: {}",
            self.world.describe()
        );
        stats[0].1
    }

    fn send(&self, corpus: &Corpus, seq: u64) -> Result<PendingCall, RpcError> {
        let request = corpus.requests[seq as usize % corpus.requests.len()].clone();
        self.world.client().send_call(request, self.world.target())
    }

    /// Classifies a finished call, checking an echoed payload against the
    /// one sent, and logs it.
    fn finish(
        &mut self,
        corpus: &Corpus,
        seq: u64,
        result: Result<adn::rpc::message::RpcMessage, RpcError>,
        failures: &mut Failures,
    ) -> u8 {
        let outcome = match result {
            Ok(response) => {
                let sent = &corpus.requests[seq as usize % corpus.requests.len()];
                if response.get("payload") == sent.get("payload")
                    && response.get("ok") == Some(&Value::Bool(true))
                {
                    OUTCOME_OK
                } else {
                    failures.add(1, || format!("call {seq}: echo differs from the request"));
                    OUTCOME_FAILED
                }
            }
            Err(RpcError::Aborted { code, .. })
                if (1..u32::from(OUTCOME_FAILED)).contains(&code) =>
            {
                code as u8
            }
            Err(e) => {
                failures.add(1, || format!("call {seq}: {e}"));
                OUTCOME_FAILED
            }
        };
        self.log(seq, outcome);
        outcome
    }

    /// Calls finish in send order, except one whose send itself failed.
    fn log(&mut self, seq: u64, outcome: u8) {
        let seq = seq as usize;
        if self.outcomes.len() <= seq {
            self.outcomes.resize(seq + 1, OUTCOME_FAILED);
        }
        self.outcomes[seq] = outcome;
    }

    /// One call, sent and awaited: the last step of a set-up, and the unit
    /// of the unloaded round-trip probe.
    pub fn call_one(&mut self, corpus: &Corpus, failures: &mut Failures) -> Duration {
        let seq = self.outcomes.len() as u64;
        let start = Instant::now();
        let result = self
            .send(corpus, seq)
            .and_then(|pending| pending.wait(CALL_TIMEOUT));
        let took = start.elapsed();
        self.finish(corpus, seq, result, failures);
        took
    }

    /// Replays every call made so far, in order, through a second instance
    /// of the chain built from the same source and seed, and requires each
    /// logged outcome to equal the reference verdict: `bob` aborted with
    /// code 7, the seed's faults with code 3, everything else echoed.
    pub fn check_against_reference(
        &self,
        corpus: &Corpus,
        app: &CompiledApp,
        failures: &mut Failures,
    ) -> ReferenceCounts {
        let mut reference: EngineChain = chains::engine_chain(app);
        // Processed in place, pass after pass: the workload's chain reads
        // a request and leaves it as it was.
        let mut ring = corpus.requests.clone();
        let mut counts = ReferenceCounts::default();
        let mut mismatches = 0u64;
        let mut first = None;
        for (seq, &got) in self.outcomes.iter().enumerate() {
            let slot = seq % ring.len();
            let want = match reference.process(&mut ring[slot]) {
                Verdict::Forward => OUTCOME_OK,
                Verdict::Abort { code, .. } => code as u8,
                other => panic!("workload chains never drop or shed, got {other:?}"),
            };
            match want {
                OUTCOME_OK => counts.forwarded += 1,
                7 => counts.acl_aborts += 1,
                3 => counts.fault_aborts += 1,
                _ => {}
            }
            // A call that already failed was counted when it failed.
            if got != want && got != OUTCOME_FAILED {
                mismatches += 1;
                first.get_or_insert((seq, got, want));
            }
        }
        failures.add(mismatches, || {
            let (seq, got, want) = first.expect("a mismatch was seen");
            format!("{mismatches} calls differ from the reference chain; first: call {seq} ended {got}, reference says {want}")
        });
        counts
    }

    pub fn calls_made(&self) -> u64 {
        self.outcomes.len() as u64
    }

    pub fn stop(self) {
        // The dispatcher thread holds its own handle on the client, so the
        // client outlives the world unless told to stop.
        self.world.client().shutdown();
    }
}

/// What the reference chain decided over the calls made.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReferenceCounts {
    pub forwarded: u64,
    pub acl_aborts: u64,
    pub fault_aborts: u64,
}

impl ReferenceCounts {
    pub fn forward_share(&self) -> f64 {
        let total = self.forwarded + self.acl_aborts + self.fault_aborts;
        self.forwarded as f64 / total.max(1) as f64
    }
}

/// Keeps `w.window` calls outstanding through `phases`, then drains.
pub fn run(
    sys: &mut RpcSystem,
    w: &Workload,
    corpus: &Corpus,
    phases: &[Phase],
    mut recorder: Option<&mut Recorder>,
) -> LoadResult {
    let mut failures = Failures::default();
    let mut results = Vec::new();
    let first_seq = sys.calls_made();
    let mut next_seq = first_seq;
    // (call, when its `send_call` was entered, its sequence number)
    let mut window: VecDeque<(PendingCall, Instant, u64)> = VecDeque::with_capacity(w.window);
    let mut latency_ns: Vec<u32> = Vec::new();

    let mut now = Instant::now();
    while window.len() < w.window {
        match sys.send(corpus, next_seq) {
            Ok(pending) => window.push_back((pending, now, next_seq)),
            Err(e) => {
                failures.add(1, || format!("call {next_seq}: send failed: {e}"));
                sys.log(next_seq, OUTCOME_FAILED);
            }
        }
        next_seq += 1;
        now = Instant::now();
    }

    for phase in phases {
        let traced = phase.kind == PhaseKind::Traced;
        latency_ns.clear();
        let (mut completed, mut payload_bytes, mut send_call_ns) = (0u64, 0u64, 0u64);
        let mut blocked = Duration::ZERO;
        let phase_span = match (&mut recorder, traced) {
            (Some(r), true) => r.open("run.traced", None, 0),
            _ => None,
        };
        sys.world
            .controller()
            .set_trace_sampling("app", if traced { 1.0 } else { 0.0 });
        let stats_before = sys.processor_stats();
        alloc::arm(traced);
        let allocs_before = alloc::Snapshot::now();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(phase.secs);
        let mut now = start;
        while now < deadline {
            let Some((pending, sent, seq)) = window.pop_front() else {
                break;
            };
            let wait_from = now;
            let result = pending.wait(CALL_TIMEOUT);
            now = Instant::now();
            blocked += now.duration_since(wait_from);
            let ns = now.duration_since(sent).as_nanos();
            latency_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
            if sys.finish(corpus, seq, result, &mut failures) == OUTCOME_OK {
                payload_bytes += w.payload_len as u64;
            }
            completed += 1;

            let seq_next = next_seq;
            next_seq += 1;
            match sys.send(corpus, seq_next) {
                Ok(pending) => window.push_back((pending, now, seq_next)),
                Err(e) => {
                    failures.add(1, || format!("call {seq_next}: send failed: {e}"));
                    sys.log(seq_next, OUTCOME_FAILED);
                }
            }
            let sent_done = Instant::now();
            send_call_ns += sent_done.duration_since(now).as_nanos() as u64;
            if let (Some(r), true) = (&mut recorder, traced) {
                if seq.is_multiple_of(SPAN_EVERY) {
                    r.record("rpc.runtime.wait", wait_from, now, phase_span, seq);
                }
                if seq_next.is_multiple_of(SPAN_EVERY) {
                    r.record(
                        "rpc.runtime.send_call",
                        now,
                        sent_done,
                        phase_span,
                        seq_next,
                    );
                }
            }
            now = sent_done;
        }
        let allocs = alloc::Snapshot::now().since(&allocs_before);
        alloc::arm(false);
        if let Some(r) = &mut recorder {
            r.close(phase_span);
        }
        let latency = Latency::of(&mut latency_ns, phase.kind, &mut failures);
        results.push(PhaseResult {
            kind: Some(phase.kind),
            elapsed_s: now.duration_since(start).as_secs_f64(),
            completed,
            payload_bytes,
            latency,
            blocked_s: blocked.as_secs_f64(),
            allocs: traced.then_some(allocs),
            processor: stats_delta(&sys.processor_stats(), &stats_before),
            send_call_ns,
        });
    }
    sys.world.controller().set_trace_sampling("app", 0.0);

    for (pending, _, seq) in window {
        let result = pending.wait(CALL_TIMEOUT);
        sys.finish(corpus, seq, result, &mut failures);
    }

    LoadResult {
        phases: results,
        attempted: next_seq - first_seq,
        failures,
    }
}
