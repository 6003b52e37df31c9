//! Scenario construction and the simulation world itself.
//!
//! A [`Scenario`] describes a whole cluster — chain topology, workload,
//! chaos policy, failure schedule, controller knobs — and `run(seed)`
//! executes it deterministically inside a [`SimExecutor`]: one thread,
//! one RNG, virtual time only. Every processor hop runs the production
//! [`HopCore`] — the same sans-IO core the processor thread drives:
//! classify, dedup, admission, decode, chain, NAT, verdict, spans. The sim
//! only drives it (inbox, batch window, overload busy time, routing after
//! scale-out) and reads its outcome records into the log and the facts,
//! so the invariants checked here are checked against production code.
//! Client, server and controller reuse the real dedup windows, circuit
//! breakers and retry backoff.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use adn::harness::{object_store_schemas, object_store_service};
use adn_backend::jit::{compile_engine, JitTier};
use adn_backend::native::CompileOpts;
use adn_dataplane::processor::OverloadPolicy;
use adn_dataplane::{HopCore, HopOutput, NextHop, OutcomeKind, ProcessorConfig};
use adn_rpc::chaos::ChaosPolicy;
use adn_rpc::engine::EngineChain;
use adn_rpc::message::{MessageKind, RpcMessage, RpcStatus};
use adn_rpc::retry::{BreakerPolicy, CircuitBreaker, DedupWindow, DegradedMode, RetryPolicy};
use adn_rpc::schema::{RpcSchema, ServiceSchema};
use adn_rpc::transport::Frame;
use adn_rpc::value::Value;
use adn_rpc::wire_format::{decode_message_exact, encode_message_to_vec};
use adn_telemetry::trace::mix64;
use adn_telemetry::{HopTelemetry, Registry, Sampler, SpanRing};
use adn_wire::header::{OverloadContext, Priority};
use rand::Rng;

use crate::executor::{Event, SimExecutor};
use crate::invariant::{invariants_for, Violation};
use crate::nodes::{
    AutoscaleModel, CallOutcome, CallState, ElementSpec, Facts, SimClient, SimController,
    SimProcessor, SimServer, SpanFact, DEDUP_CAP,
};

/// The client's flat endpoint address.
pub const CLIENT_ADDR: u64 = 100;
/// The application server's flat endpoint address.
pub const SERVER_ADDR: u64 = 200;
/// First chain-processor address; hop `i` lives at `PROC_BASE + i`.
pub const PROC_BASE: u64 = 50;
/// First scale-out shard address.
pub const SHARD_BASE: u64 = 500;

/// Fixed one-way link latency before jitter and chaos delay.
const BASE_LATENCY: Duration = Duration::from_millis(1);
/// Uniform per-frame latency jitter bound (exclusive), in nanoseconds.
const JITTER_NS: u64 = 200_000;
/// How long a batching processor waits after the first inboxed frame
/// before draining — small against `BASE_LATENCY`, wide enough that
/// concurrent calls land in one batch.
const BATCH_WINDOW: Duration = Duration::from_micros(100);

/// Open-loop overload model for a scenario. When set, the workload
/// arrives at a fixed offered rate regardless of completions (the
/// defining condition of overload), every call is stamped with an
/// in-band deadline budget and a priority class, and the chain entry
/// becomes a single-worker bottleneck running the *real*
/// [`OverloadPolicy`] admission ladder from the dataplane serve loop.
#[derive(Debug, Clone)]
pub struct OverloadModel {
    /// Virtual service time per admitted request at the entry; capacity
    /// is `1 / service_time`.
    pub service_time: Duration,
    /// Open-loop inter-arrival gap; offered load is `1 / issue_interval`.
    pub issue_interval: Duration,
    /// Relative deadline budget stamped into each call's hop header.
    pub budget: Duration,
    /// The real dataplane admission policy (shed ladder + expired drop).
    pub policy: OverloadPolicy,
    /// Minimum fraction of issued calls that must complete `Ok` for the
    /// goodput-floor invariant; `0.0` disarms it (naive baselines).
    pub goodput_floor: f64,
}

/// Autoscale knobs for a scenario.
#[derive(Debug, Clone)]
pub struct SimAutoscale {
    /// Entry-processor forwards per sweep that trigger a scale-out.
    pub threshold: u64,
    /// Minimum virtual time between consecutive scale-outs.
    pub cooldown: Duration,
    /// Upper bound on shard replicas.
    pub max_shards: usize,
}

/// A whole-cluster test scenario. Build one with the preset constructors
/// or field-by-field, then `run(seed)` as many seeds as you like — each
/// run is deterministic and independent.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Name used in replay commands and reports.
    pub name: String,
    /// Number of chain processors; the paper-eval elements (Logging →
    /// ACL → Fault) are distributed contiguously across them, extra
    /// processors forward with an empty chain.
    pub processors: usize,
    /// Total calls the closed-loop workload issues.
    pub calls: u64,
    /// Calls kept in flight at once.
    pub concurrency: u64,
    /// Usernames cycled across calls (drives the ACL element: `bob` and
    /// `eve` are read-only and get aborted).
    pub users: Vec<String>,
    /// `Fault` element abort probability.
    pub fault_prob: f64,
    /// Link chaos applied to every frame.
    pub chaos: ChaosPolicy,
    /// Client ↔ entry partition window `(start, end)`, if any.
    pub partition_window: Option<(Duration, Duration)>,
    /// Crash `(time, processor index)`, if any.
    pub kill: Option<(Duration, usize)>,
    /// Live migration `(time, processor index)`, if any.
    pub migrate: Option<(Duration, usize)>,
    /// Controller autoscale, if enabled.
    pub autoscale: Option<SimAutoscale>,
    /// Open-loop overload model, if enabled. `None` (the default) keeps
    /// the closed-loop workload and the legacy byte-identical event log.
    pub overload: Option<OverloadModel>,
    /// Heartbeat age that declares a processor dead.
    pub heartbeat_timeout: Duration,
    /// Controller sweep interval.
    pub sweep_interval: Duration,
    /// Controller checkpoint interval.
    pub checkpoint_interval: Duration,
    /// Client retry policy (real backoff math, virtual time).
    pub retry: RetryPolicy,
    /// Client circuit-breaker policy.
    pub breaker: BreakerPolicy,
    /// Breaker-open behavior.
    pub degraded: DegradedMode,
    /// Whether calls carry trace contexts (enables the trace invariant).
    pub trace: bool,
    /// Whether timed-out calls are tolerated (true under chaos; false
    /// means the zero-loss invariant fails the run on any timeout).
    pub allow_timeouts: bool,
    /// Frames a processor drains per batch. `1` (the default) hands each
    /// delivered frame to the processor's `HopCore` as a batch of one.
    /// Larger values route deliveries through a per-processor inbox that
    /// drains up to `batch` frames into one `HopCore::on_batch` call one
    /// batch window after the first one lands — production's batch
    /// semantics (one admission decision, in-batch duplicate deferral,
    /// forwards sent before replays) because it is production's code.
    pub batch: usize,
    /// Element chain to distribute over the processors. `None` (the
    /// default) runs the paper-eval chain (Logging → ACL → Fault with
    /// `fault_prob`); eval-matrix cells substitute arbitrary preflighted
    /// chains here.
    pub chain_specs: Option<Vec<ElementSpec>>,
    /// Engine tier the chains compile at. `Auto` (the default) resolves
    /// exactly like production (`ADN_JIT` honored) and keeps the legacy
    /// byte-identical event log; eval-matrix pins explicit tiers to
    /// cross-check verdict-stream identity.
    pub jit: JitTier,
    /// Hard cap on processed events (replay/shrink uses this).
    pub max_events: u64,
}

impl Scenario {
    /// A quiet baseline: defaults chosen so a scenario is valid the
    /// moment it's constructed; presets tighten from here.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            processors: 1,
            calls: 20,
            concurrency: 4,
            users: vec!["alice".into()],
            fault_prob: 0.0,
            chaos: ChaosPolicy {
                drop_prob: 0.0,
                dup_prob: 0.0,
                reorder_prob: 0.0,
                delay_prob: 0.0,
                delay: Duration::ZERO,
            },
            partition_window: None,
            kill: None,
            migrate: None,
            autoscale: None,
            overload: None,
            heartbeat_timeout: Duration::from_millis(100),
            sweep_interval: Duration::from_millis(40),
            checkpoint_interval: Duration::from_millis(60),
            retry: RetryPolicy {
                max_attempts: 16,
                attempt_timeout: Duration::from_millis(250),
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(20),
                deadline: Duration::from_secs(30),
                propagate_deadline: false,
                priority: Priority::Normal,
            },
            breaker: BreakerPolicy {
                threshold: 1000,
                cooldown: Duration::from_millis(10),
            },
            degraded: DegradedMode::FailClosed,
            trace: true,
            allow_timeouts: false,
            batch: 1,
            chain_specs: None,
            jit: JitTier::Auto,
            max_events: 500_000,
        }
    }

    /// Tiny deterministic run with a mid-run live migration; the golden
    /// event log and the determinism test use this.
    pub fn smoke() -> Self {
        let mut s = Self::new("smoke");
        s.calls = 8;
        s.concurrency = 2;
        s.migrate = Some((Duration::from_millis(8), 0));
        s
    }

    /// The chaos port of `tests/chaos_failover.rs`: paper-eval chain
    /// split over two processors under drops, dups, reorders, delays and
    /// fault injection, with an ACL-denied user in the mix.
    pub fn chaos() -> Self {
        let mut s = Self::new("chaos");
        s.processors = 2;
        s.calls = 60;
        s.concurrency = 4;
        s.users = vec!["alice".into(), "bob".into()];
        s.fault_prob = 0.02;
        s.chaos = ChaosPolicy {
            drop_prob: 0.05,
            dup_prob: 0.05,
            reorder_prob: 0.05,
            delay_prob: 0.05,
            delay: Duration::from_millis(10),
        };
        s.allow_timeouts = true;
        s
    }

    /// The reconfiguration port of `tests/reconfig_zero_loss.rs`: live
    /// migration plus load-triggered scale-out on a clean link, with the
    /// strict zero-loss invariant (any timed-out call fails the run).
    pub fn reconfig() -> Self {
        let mut s = Self::new("reconfig");
        s.processors = 2;
        s.calls = 120;
        s.concurrency = 4;
        s.migrate = Some((Duration::from_millis(50), 0));
        s.autoscale = Some(SimAutoscale {
            threshold: 15,
            cooldown: Duration::from_millis(60),
            max_shards: 3,
        });
        s
    }

    /// The acceptance scenario: chaos + processor crash/failover +
    /// autoscale in one run, all five invariants armed.
    pub fn everything() -> Self {
        let mut s = Self::new("everything");
        s.processors = 2;
        s.calls = 200;
        s.concurrency = 8;
        s.users = vec!["alice".into(), "bob".into()];
        s.fault_prob = 0.01;
        s.chaos = ChaosPolicy {
            drop_prob: 0.02,
            dup_prob: 0.02,
            reorder_prob: 0.02,
            delay_prob: 0.02,
            delay: Duration::from_millis(5),
        };
        s.kill = Some((Duration::from_millis(60), 0));
        s.autoscale = Some(SimAutoscale {
            threshold: 20,
            cooldown: Duration::from_millis(120),
            max_shards: 3,
        });
        s.allow_timeouts = true;
        s
    }

    /// Open-loop overload at 2× capacity with the shed ladder armed:
    /// service time 1ms (capacity 1000/s) against a 500µs arrival gap,
    /// 50ms budgets, and a priority mix spanning every rung. Shedding
    /// fast-fails the sheddable half so admitted traffic rides a short
    /// queue; the goodput-floor and no-expired-execution invariants
    /// check that degradation is graceful, not a collapse.
    pub fn overload() -> Self {
        let mut s = Self::new("overload");
        s.calls = 600;
        s.retry = RetryPolicy {
            max_attempts: 16,
            attempt_timeout: Duration::from_millis(20),
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(8),
            deadline: Duration::from_millis(50),
            propagate_deadline: true,
            priority: Priority::Normal,
        };
        s.allow_timeouts = true;
        s.overload = Some(OverloadModel {
            service_time: Duration::from_millis(1),
            issue_interval: Duration::from_micros(500),
            budget: Duration::from_millis(50),
            policy: OverloadPolicy {
                shed_high_water: 8,
                drop_expired: true,
                brownout: false,
            },
            goodput_floor: 0.30,
        });
        s
    }

    /// The same 2× offered load with admission control disabled — the
    /// naive FIFO baseline. Every request is accepted and serviced even
    /// after its budget is gone, so the queue grows without bound and
    /// goodput collapses; the bench quantifies the gap. The goodput
    /// floor is disarmed (collapse is the expected result), and so is
    /// the no-expired-execution invariant (nothing drops expired work).
    pub fn overload_naive() -> Self {
        let mut s = Self::overload();
        s.name = "overload-naive".into();
        let model = s.overload.as_mut().expect("overload preset sets model");
        model.policy = OverloadPolicy {
            shed_high_water: 0,
            drop_expired: false,
            brownout: false,
        };
        model.goodput_floor = 0.0;
        s
    }

    /// Overload plus link chaos: drops, dups, reorders, and delays on
    /// top of 2× offered load. The shed ladder still has to hold a
    /// (lower) goodput floor while dedup keeps retransmits from forking
    /// or resurrecting deadline budgets.
    pub fn chaos_overload() -> Self {
        let mut s = Self::overload();
        s.name = "chaos-overload".into();
        s.chaos = ChaosPolicy {
            drop_prob: 0.03,
            dup_prob: 0.03,
            reorder_prob: 0.03,
            delay_prob: 0.03,
            delay: Duration::from_millis(5),
        };
        s.overload.as_mut().expect("model set").goodput_floor = 0.18;
        s
    }

    /// The failover liveness bound this scenario's controller promises:
    /// detection needs the heartbeat to go stale (one timeout) plus at
    /// most two sweeps to notice, with one sweep of slack.
    pub fn failover_bound(&self) -> Duration {
        self.heartbeat_timeout + self.sweep_interval * 3
    }

    /// Runs the scenario under `seed` and returns the full report. Same
    /// seed, same scenario ⇒ byte-identical event log.
    pub fn run(&self, seed: u64) -> SimReport {
        let mut sim = Sim::new(self, seed);
        let mut invs = invariants_for(self);
        let mut violation: Option<Violation> = None;
        let mut truncated = false;
        'outer: while let Some((now, ev)) = sim.exec.pop() {
            sim.exec.processed += 1;
            let n = sim.exec.processed;
            sim.handle(now, ev);
            for inv in invs.iter_mut() {
                if let Err(detail) = inv.check(now, &sim.facts) {
                    violation = Some(Violation {
                        invariant: inv.name().to_string(),
                        at_event: n,
                        at_ns: now.as_nanos() as u64,
                        detail,
                    });
                    break 'outer;
                }
            }
            if n >= self.max_events {
                truncated = true;
                break;
            }
        }
        let end = sim.exec.now();
        let events = sim.exec.processed;
        if violation.is_none() && !truncated {
            for inv in invs.iter_mut() {
                if let Err(detail) = inv.check_end(end, &sim.facts) {
                    violation = Some(Violation {
                        invariant: inv.name().to_string(),
                        at_event: events,
                        at_ns: end.as_nanos() as u64,
                        detail,
                    });
                    break;
                }
            }
        }
        SimReport {
            scenario: self.name.clone(),
            seed,
            events,
            truncated,
            end_ns: end.as_nanos() as u64,
            stats: SimStats::from_facts(&sim.facts),
            violation,
            log: sim.exec.into_log(),
        }
    }
}

/// Counters summarizing one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Calls minted.
    pub calls_issued: u64,
    /// Calls completed `Ok`.
    pub calls_ok: u64,
    /// Calls rejected by an element.
    pub calls_aborted: u64,
    /// Calls that exhausted retries or deadline.
    pub calls_timed_out: u64,
    /// Calls fast-failed with a `Shed` verdict.
    pub calls_shed: u64,
    /// Shed verdicts issued by processors (admission + chain).
    pub sheds: u64,
    /// Frames dropped at admission with an exhausted budget.
    pub expired_drops: u64,
    /// Server executions of already-expired calls (should be zero when
    /// expired-drop is armed).
    pub expired_executions: u64,
    /// Deepest entry backlog observed, in queued requests.
    pub queue_peak: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Frames handed to the link.
    pub frames_sent: u64,
    /// Frames delivered.
    pub frames_delivered: u64,
    /// Frames dropped by chaos or partitions.
    pub frames_dropped: u64,
    /// Frames absorbed by dead processors.
    pub frames_blackholed: u64,
    /// Dedup-window hits across processors and the server.
    pub dedup_hits: u64,
    /// Distinct calls executed at the server.
    pub server_executions: u64,
    /// Trace spans recorded.
    pub spans: u64,
    /// Failovers performed.
    pub failovers: u64,
    /// Scale-outs performed.
    pub scaleouts: u64,
    /// Live migrations performed.
    pub migrations: u64,
    /// Chain verdicts observed.
    pub verdicts: u64,
    /// FNV-1a fingerprint of the verdict stream (tier-identity check).
    pub verdict_stream: u64,
}

impl SimStats {
    fn from_facts(f: &Facts) -> Self {
        Self {
            calls_issued: f.calls_issued,
            calls_ok: f.calls_ok,
            calls_aborted: f.calls_aborted,
            calls_timed_out: f.calls_timed_out,
            calls_shed: f.calls_shed,
            sheds: f.sheds,
            expired_drops: f.expired_drops,
            expired_executions: f.expired_executions,
            queue_peak: f.queue_peak,
            retries: f.retries,
            frames_sent: f.frames_sent,
            frames_delivered: f.frames_delivered,
            frames_dropped: f.frames_dropped,
            frames_blackholed: f.frames_blackholed,
            dedup_hits: f.dedup_hits,
            server_executions: f.executions.len() as u64,
            spans: f.spans.len() as u64,
            failovers: f.failovers.len() as u64,
            scaleouts: f.scaleouts.len() as u64,
            migrations: f.migrations,
            verdicts: f.verdicts,
            verdict_stream: f.verdict_stream,
        }
    }
}

/// The result of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scenario name.
    pub scenario: String,
    /// The run seed.
    pub seed: u64,
    /// Events processed.
    pub events: u64,
    /// True when the run hit `max_events` before draining.
    pub truncated: bool,
    /// Virtual time at which the run ended, in nanoseconds.
    pub end_ns: u64,
    /// Outcome counters.
    pub stats: SimStats,
    /// First invariant violation, if any.
    pub violation: Option<Violation>,
    /// The deterministic event log.
    pub log: Vec<String>,
}

impl SimReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }

    /// The log as one newline-joined string (trailing newline included).
    pub fn log_text(&self) -> String {
        let mut s = self.log.join("\n");
        s.push('\n');
        s
    }

    /// FNV-1a fingerprint of the event log.
    pub fn fingerprint(&self) -> u64 {
        crate::executor::fingerprint(&self.log)
    }
}

/// Priority mix for the open-loop workload: half sheddable bulk, a
/// quarter normal, a quarter critical — enough spread to exercise every
/// rung of the shed ladder.
fn priority_for(index: u64) -> Priority {
    match index % 4 {
        0 | 2 => Priority::Sheddable,
        1 => Priority::Normal,
        _ => Priority::Critical,
    }
}

/// Builds the paper-eval element list for a scenario.
fn paper_elements(fault_prob: f64) -> Vec<ElementSpec> {
    vec![
        ElementSpec::plain("Logging"),
        ElementSpec::plain("Acl"),
        ElementSpec {
            name: "Fault".into(),
            args: vec![("abort_prob".into(), Value::F64(fault_prob))],
            source: None,
        },
    ]
}

/// The live simulation: executor + node models + observed facts.
pub(crate) struct Sim<'a> {
    cfg: &'a Scenario,
    pub exec: SimExecutor,
    pub facts: Facts,
    client: SimClient,
    procs: BTreeMap<u64, SimProcessor>,
    server: SimServer,
    ctl: SimController,
    /// Chain-entry address (autoscale target, partition endpoint).
    entry: u64,
    /// Entry-processor forwards since the last sweep (autoscale signal).
    entry_load: u64,
    /// Scale-out shard addresses, in creation order.
    shards: Vec<u64>,
    /// Element specs shards are built from (set at first scale-out).
    shard_elements: Vec<ElementSpec>,
    /// Downstream hop shards forward to (set at first scale-out).
    shard_downstream: u64,
    /// Shard each request the post-scale-out entry routed went to, so a
    /// replay of that forward goes where the original did.
    routes: BTreeMap<u64, u64>,
    /// Wiring every processor's `HopCore` shares; its span ring is drained
    /// into `facts.spans` after each batch.
    telemetry: HopTelemetry,
    partitioned: bool,
    compile_seed: u64,
    service: Arc<ServiceSchema>,
    req_schema: Arc<RpcSchema>,
    resp_schema: Arc<RpcSchema>,
}

impl<'a> Sim<'a> {
    pub fn new(cfg: &'a Scenario, seed: u64) -> Self {
        let (req_schema, resp_schema) = object_store_schemas();
        let service = object_store_service();
        let mut exec = SimExecutor::new(seed);
        let compile_seed = mix64(seed ^ 0x0ADD_5EED);

        // Distribute the chain contiguously over N hops; hops past the
        // element count forward with an empty chain.
        let n = cfg.processors.max(1);
        let elements = cfg
            .chain_specs
            .clone()
            .unwrap_or_else(|| paper_elements(cfg.fault_prob));
        let len = elements.len().max(1);
        let mut groups: Vec<Vec<ElementSpec>> = vec![Vec::new(); n];
        for (j, spec) in elements.into_iter().enumerate() {
            let target = (j * n) / len;
            groups[target.min(n - 1)].push(spec);
        }

        let client = SimClient {
            addr: CLIENT_ADDR,
            via: PROC_BASE,
            server: SERVER_ADDR,
            policy: cfg.retry,
            breaker: CircuitBreaker::new(cfg.breaker),
            degraded: cfg.degraded,
            calls: BTreeMap::new(),
            scheduled: 0,
            total: cfg.calls,
            concurrency: cfg.concurrency.max(1),
        };
        let server = SimServer {
            addr: SERVER_ADDR,
            dedup: DedupWindow::new(DEDUP_CAP),
            resp_schema: resp_schema.clone(),
        };
        let ctl = SimController {
            heartbeat_timeout: cfg.heartbeat_timeout,
            sweep_interval: cfg.sweep_interval,
            checkpoint_interval: cfg.checkpoint_interval,
            checkpoints: BTreeMap::new(),
            autoscale: cfg.autoscale.as_ref().map(|a| AutoscaleModel {
                threshold: a.threshold,
                cooldown: a.cooldown,
                max_shards: a.max_shards,
            }),
            last_scaleout: None,
            failed_over: BTreeMap::new(),
        };

        // Seed the event queue: workload warm-up, controller loops, and
        // the scenario's failure schedule.
        let mut client = client;
        if let Some(model) = &cfg.overload {
            // Open loop: every arrival is scheduled up front at the
            // offered rate; completions never gate arrivals.
            for i in 0..client.total {
                exec.schedule_at(
                    Duration::from_millis(1) + model.issue_interval * i as u32,
                    Event::IssueCall { index: i },
                );
            }
            client.scheduled = client.total;
        } else {
            let warmup = client.concurrency.min(client.total);
            for i in 0..warmup {
                exec.schedule_at(
                    Duration::from_millis(1) + Duration::from_micros(100 * i),
                    Event::IssueCall { index: i },
                );
            }
            client.scheduled = warmup;
        }
        exec.schedule_at(cfg.sweep_interval, Event::Sweep);
        exec.schedule_at(cfg.checkpoint_interval, Event::Checkpoint);
        if let Some((t, idx)) = cfg.kill {
            exec.schedule_at(
                t,
                Event::Kill {
                    addr: PROC_BASE + idx as u64,
                },
            );
        }
        if let Some((t, idx)) = cfg.migrate {
            exec.schedule_at(
                t,
                Event::Migrate {
                    addr: PROC_BASE + idx as u64,
                },
            );
        }
        if let Some((start, end)) = cfg.partition_window {
            exec.schedule_at(start, Event::PartitionStart);
            exec.schedule_at(end.max(start), Event::PartitionEnd);
        }
        let mut sim = Self {
            cfg,
            exec,
            facts: Facts::default(),
            client,
            procs: BTreeMap::new(),
            server,
            ctl,
            entry: PROC_BASE,
            entry_load: 0,
            shards: Vec::new(),
            shard_elements: Vec::new(),
            shard_downstream: SERVER_ADDR,
            routes: BTreeMap::new(),
            telemetry: HopTelemetry {
                app: "sim".into(),
                registry: Arc::new(Registry::new()),
                spans: Arc::new(SpanRing::new(4096)),
                sampler: Arc::new(Sampler::off()),
            },
            partitioned: false,
            compile_seed,
            service,
            req_schema,
            resp_schema,
        };
        for (i, group) in groups.into_iter().enumerate() {
            let addr = PROC_BASE + i as u64;
            let next = if i + 1 < n { addr + 1 } else { SERVER_ADDR };
            let chain = sim.build_chain(&group, &[]);
            sim.spawn_proc(addr, chain, group, next);
        }
        sim
    }

    /// Compiles `specs` with this run's fixed compile seed and engine tier
    /// (rebuilds during failover/migration replay the same random stream),
    /// then restores `images` best effort, like the real controller: an
    /// image set of the wrong shape (empty, or post-reconfig) leaves fresh
    /// state.
    fn build_chain(&self, specs: &[ElementSpec], images: &[Vec<u8>]) -> EngineChain {
        let (req, resp) = (&*self.req_schema, &*self.resp_schema);
        let mut chain = EngineChain::new();
        for spec in specs {
            let ir = match &spec.source {
                Some(src) => {
                    let ast = adn_dsl::parser::parse_element(src)
                        .unwrap_or_else(|e| panic!("element {} must parse: {e:?}", spec.name));
                    let checked = adn_dsl::typecheck::check_element(&ast, req, resp)
                        .unwrap_or_else(|e| panic!("element {} must typecheck: {e:?}", spec.name));
                    adn_ir::lower_element(&checked, &[], req, resp)
                        .unwrap_or_else(|e| panic!("element {} must lower: {e:?}", spec.name))
                }
                None => adn_elements::build(&spec.name, &spec.args, req, resp)
                    .unwrap_or_else(|e| panic!("element {} must build: {e:?}", spec.name)),
            };
            chain.push(compile_engine(
                &ir,
                &CompileOpts {
                    seed: self.compile_seed,
                    replicas: vec![],
                    jit: self.cfg.jit,
                },
            ));
        }
        let _ = chain.import_states(images);
        chain
    }

    /// Installs a fresh processor at `addr`.
    fn spawn_proc(&mut self, addr: u64, chain: EngineChain, elements: Vec<ElementSpec>, next: u64) {
        let core = self.new_core(addr, chain, next);
        self.procs
            .insert(addr, SimProcessor::new(core, elements, next));
    }

    /// A production `HopCore` for `addr` with the scenario's batch ceiling
    /// and admission policy, forwarding requests to `next` and responses
    /// along the NAT flow.
    fn new_core(&self, addr: u64, chain: EngineChain, next: u64) -> HopCore {
        let mut config = ProcessorConfig::new(
            addr,
            self.service.clone(),
            chain,
            NextHop::Fixed(next),
            NextHop::Dst,
        )
        .with_telemetry(self.telemetry.clone())
        .with_batch(self.cfg.batch);
        if let Some(model) = &self.cfg.overload {
            config = config.with_overload(model.policy);
        }
        HopCore::new(config)
    }

    fn client_done(&self) -> bool {
        self.facts.calls_resolved() >= self.client.total
    }

    pub fn handle(&mut self, now: Duration, ev: Event) {
        match ev {
            Event::IssueCall { index } => self.issue_call(now, index),
            Event::SendAttempt { call_id, attempt } => self.send_attempt(now, call_id, attempt),
            Event::RetryFire { call_id, attempt } => self.retry_fire(now, call_id, attempt),
            Event::Deliver { frame } => self.deliver(now, frame),
            Event::FlushBatch { addr } => self.flush_batch(now, addr),
            Event::Sweep => self.sweep(now),
            Event::Checkpoint => self.checkpoint(now),
            Event::Kill { addr } => self.kill(now, addr),
            Event::Migrate { addr } => self.migrate(now, addr),
            Event::PartitionStart => {
                self.partitioned = true;
                self.exec.log("partition_start");
            }
            Event::PartitionEnd => {
                self.partitioned = false;
                self.exec.log("partition_end");
            }
        }
    }

    // ---- link ----------------------------------------------------------

    /// Applies partition and chaos policy (rolls in the same order as
    /// `ChaosLink`: drop, delay, reorder, dup) and schedules delivery.
    fn send_frame(&mut self, frame: Frame) {
        self.send_frame_extra(frame, Duration::ZERO);
    }

    /// [`Self::send_frame`] with extra latency prepended — the overload
    /// model charges an admitted request's queueing + service time here,
    /// so chaos rolls stay in the same order (and the zero-extra path
    /// stays byte-identical to the golden log).
    fn send_frame_extra(&mut self, frame: Frame, extra: Duration) {
        self.facts.frames_sent += 1;
        if self.partitioned {
            let (a, b) = (frame.src, frame.dst);
            let (cl, entry) = (self.client.addr, self.entry);
            if (a == cl && b == entry) || (a == entry && b == cl) {
                self.facts.frames_dropped += 1;
                self.exec.log(format!("partition_drop src={a} dst={b}"));
                return;
            }
        }
        let p = self.cfg.chaos;
        if p.drop_prob > 0.0 && self.exec.rng.gen_bool(p.drop_prob) {
            self.facts.frames_dropped += 1;
            self.exec
                .log(format!("chaos_drop src={} dst={}", frame.src, frame.dst));
            return;
        }
        let mut latency =
            extra + BASE_LATENCY + Duration::from_nanos(self.exec.rng.gen_range(0..JITTER_NS));
        if p.delay_prob > 0.0 && self.exec.rng.gen_bool(p.delay_prob) {
            latency += p.delay;
            self.exec
                .log(format!("chaos_delay src={} dst={}", frame.src, frame.dst));
        }
        if p.reorder_prob > 0.0 && self.exec.rng.gen_bool(p.reorder_prob) {
            // Holding a frame back past its successors is, in virtual
            // time, extra latency.
            latency += BASE_LATENCY * 2;
            self.exec
                .log(format!("chaos_reorder src={} dst={}", frame.src, frame.dst));
        }
        if p.dup_prob > 0.0 && self.exec.rng.gen_bool(p.dup_prob) {
            self.exec
                .log(format!("chaos_dup src={} dst={}", frame.src, frame.dst));
            self.exec.schedule_after(
                latency + BASE_LATENCY / 2,
                Event::Deliver {
                    frame: frame.clone(),
                },
            );
        }
        self.exec.schedule_after(latency, Event::Deliver { frame });
    }

    fn deliver(&mut self, now: Duration, frame: Frame) {
        self.facts.frames_delivered += 1;
        let dst = frame.dst;
        if dst == self.client.addr {
            self.client_recv(now, frame);
        } else if dst == self.server.addr {
            self.server_recv(frame);
        } else if self.procs.contains_key(&dst) {
            self.proc_recv(now, frame);
        } else {
            self.exec.log(format!("drop_unknown dst={dst}"));
        }
    }

    // ---- client --------------------------------------------------------

    fn issue_call(&mut self, now: Duration, index: u64) {
        let call_id = SimClient::call_id(index);
        let user = self.cfg.users[index as usize % self.cfg.users.len()].clone();
        let object_id = index;
        let mut msg = RpcMessage::request(call_id, 1, self.req_schema.clone());
        msg.src = self.client.addr;
        msg.dst = self.client.server;
        msg.set("object_id", Value::U64(object_id));
        msg.set("username", Value::Str(user.clone()));
        msg.set("payload", Value::Bytes(b"sim".to_vec()));
        if self.cfg.trace {
            msg.trace = Some(adn_wire::header::TraceContext::root(mix64(call_id)));
        }
        let priority = if self.cfg.overload.is_some() {
            priority_for(index)
        } else {
            Priority::Normal
        };
        if let Some(model) = &self.cfg.overload {
            // In-band stamp: relative budget + priority ride the hop
            // header; retransmits reuse the payload so the stamp is
            // identical across attempts (no forked budgets).
            msg.deadline = Some(OverloadContext::root(
                model.budget.as_nanos() as u64,
                priority,
            ));
        }
        let payload = encode_message_to_vec(&msg).expect("request encodes");
        self.client.calls.insert(
            call_id,
            CallState {
                object_id,
                user: user.clone(),
                payload,
                attempt: 1,
                failures: 0,
                deadline: now + self.client.policy.deadline,
                priority,
                outcome: None,
            },
        );
        self.facts.calls_issued += 1;
        self.exec
            .log(format!("issue call={call_id} obj={object_id} user={user}"));
        self.exec.schedule_after(
            Duration::ZERO,
            Event::SendAttempt {
                call_id,
                attempt: 1,
            },
        );
    }

    fn send_attempt(&mut self, now: Duration, call_id: u64, attempt: u32) {
        let Some(call) = self.client.calls.get(&call_id) else {
            return;
        };
        if call.outcome.is_some() || call.attempt != attempt {
            return; // stale timer or already resolved
        }
        let deadline = call.deadline;
        if now >= deadline {
            self.resolve_call(
                call_id,
                CallOutcome::TimedOut,
                format!("call_timeout call={call_id}"),
            );
            return;
        }
        let payload = call.payload.clone();
        let dst = if self.client.breaker.allow(now) {
            self.client.via
        } else {
            match self.client.degraded {
                DegradedMode::FailOpen => {
                    // Availability over policy: skip the (dead) chain.
                    self.exec.log(format!("breaker_bypass call={call_id}"));
                    self.client.server
                }
                DegradedMode::FailClosed => {
                    self.resolve_call(
                        call_id,
                        CallOutcome::TimedOut,
                        format!("breaker_reject call={call_id}"),
                    );
                    return;
                }
            }
        };
        self.exec
            .log(format!("send call={call_id} attempt={attempt} dst={dst}"));
        self.send_frame(Frame {
            src: self.client.addr,
            dst,
            payload,
        });
        let wait = self
            .client
            .policy
            .attempt_timeout
            .min(deadline.saturating_sub(now))
            .max(Duration::from_nanos(1));
        self.exec
            .schedule_after(wait, Event::RetryFire { call_id, attempt });
    }

    fn retry_fire(&mut self, now: Duration, call_id: u64, attempt: u32) {
        let Some(call) = self.client.calls.get_mut(&call_id) else {
            return;
        };
        if call.outcome.is_some() || call.attempt != attempt {
            return; // the call moved on; this timer is stale
        }
        call.failures += 1;
        let failures = call.failures;
        let deadline = call.deadline;
        self.client.breaker.record_failure(now);
        if failures >= self.client.policy.max_attempts {
            self.resolve_call(
                call_id,
                CallOutcome::TimedOut,
                format!("call_timeout call={call_id} attempts={failures}"),
            );
            return;
        }
        let backoff = self.client.policy.backoff(failures, &mut self.exec.rng);
        if now + backoff >= deadline {
            self.resolve_call(
                call_id,
                CallOutcome::TimedOut,
                format!("call_timeout call={call_id} attempts={failures}"),
            );
            return;
        }
        self.client
            .calls
            .get_mut(&call_id)
            .expect("checked")
            .attempt = attempt + 1;
        self.facts.retries += 1;
        self.exec
            .log(format!("retry call={call_id} attempt={}", attempt + 1));
        self.exec.schedule_after(
            backoff,
            Event::SendAttempt {
                call_id,
                attempt: attempt + 1,
            },
        );
    }

    fn client_recv(&mut self, _now: Duration, frame: Frame) {
        let msg = match decode_message_exact(&frame.payload, &self.service) {
            Ok(m) => m,
            Err(e) => {
                self.exec.log(format!("client_decode_error {e:?}"));
                return;
            }
        };
        let call_id = msg.call_id;
        let resolved = match self.client.calls.get(&call_id) {
            None => true,
            Some(c) => c.outcome.is_some(),
        };
        if resolved {
            self.exec.log(format!("late_resp call={call_id}"));
            return;
        }
        self.client.breaker.record_success();
        match &msg.status {
            RpcStatus::Ok => {
                self.resolve_call(call_id, CallOutcome::Ok, format!("call_ok call={call_id}"));
            }
            RpcStatus::Aborted { code, .. } => {
                let line = format!("call_abort call={call_id} code={code}");
                self.resolve_call(call_id, CallOutcome::Aborted, line);
            }
            RpcStatus::Shed => {
                // Definitive fast-fail: the client backs off instead of
                // retrying into an overloaded chain.
                let line = format!("call_shed call={call_id}");
                self.resolve_call(call_id, CallOutcome::Shed, line);
            }
        }
    }

    /// Marks a call terminal, logs `line`, and refills the closed loop.
    fn resolve_call(&mut self, call_id: u64, outcome: CallOutcome, line: String) {
        let call = self.client.calls.get_mut(&call_id).expect("known call");
        if call.outcome.is_some() {
            return;
        }
        call.outcome = Some(outcome);
        match outcome {
            CallOutcome::Ok => self.facts.calls_ok += 1,
            CallOutcome::Aborted => self.facts.calls_aborted += 1,
            CallOutcome::TimedOut => self.facts.calls_timed_out += 1,
            CallOutcome::Shed => self.facts.calls_shed += 1,
        }
        self.exec.log(line);
        if self.client.scheduled < self.client.total {
            let index = self.client.scheduled;
            self.client.scheduled += 1;
            self.exec
                .schedule_after(Duration::from_micros(200), Event::IssueCall { index });
        }
    }

    // ---- processors ----------------------------------------------------

    fn proc_recv(&mut self, now: Duration, frame: Frame) {
        let addr = frame.dst;
        let p = self.procs.get_mut(&addr).expect("routed to a processor");
        if !p.alive {
            self.facts.frames_blackholed += 1;
            self.exec.log(format!("blackhole addr={addr}"));
            return;
        }
        p.last_beat = now;
        if self.cfg.batch > 1 {
            p.inbox.push(frame);
            if !p.flush_pending {
                p.flush_pending = true;
                self.exec
                    .schedule_after(BATCH_WINDOW, Event::FlushBatch { addr });
            }
            return;
        }
        self.run_hop(now, addr, vec![frame]);
    }

    /// Drains up to `batch` frames from a processor's inbox in arrival
    /// order into one `HopCore::on_batch` call.
    fn flush_batch(&mut self, now: Duration, addr: u64) {
        let Some(p) = self.procs.get_mut(&addr) else {
            return;
        };
        p.flush_pending = false;
        if p.inbox.is_empty() {
            return;
        }
        let take = self.cfg.batch.min(p.inbox.len());
        let frames: Vec<Frame> = p.inbox.drain(..take).collect();
        let alive = p.alive;
        if !p.inbox.is_empty() {
            p.flush_pending = true;
            self.exec
                .schedule_after(BATCH_WINDOW, Event::FlushBatch { addr });
        }
        if !alive {
            // Killed while the batch waited in the inbox: it blackholes,
            // exactly as queued frames die with the real worker thread.
            self.facts.frames_blackholed += frames.len() as u64;
            self.exec
                .log(format!("blackhole_batch addr={addr} n={}", frames.len()));
            return;
        }
        self.exec
            .log(format!("batch addr={addr} n={}", frames.len()));
        self.run_hop(now, addr, frames);
    }

    /// Runs one batch through the processor's `HopCore`, then turns its
    /// outcome records into log lines, facts and sends — forwards first,
    /// then replays, as the processor thread sends them.
    ///
    /// The overload model lives here, not in the core: at the entry, the
    /// single worker's busy time yields the `(backlog, queue wait)` pair
    /// the core's admission reads, every request that ran the chain costs
    /// one service time, and its output is charged the wait plus that
    /// service time. A dedup replay is charged the current backlog so a
    /// retransmit never leapfrogs the queue it is in.
    fn run_hop(&mut self, now: Duration, addr: u64, frames: Vec<Frame>) {
        let model = self
            .cfg
            .overload
            .as_ref()
            .filter(|_| addr == self.entry)
            .cloned();
        let mut out = HopOutput::default();
        let p = self.procs.get_mut(&addr).expect("alive processor");
        let wait = p.busy_until.saturating_sub(now);
        let backlog = model.as_ref().map_or(0, |m| {
            (wait.as_nanos() / m.service_time.as_nanos().max(1)) as usize
        });
        if model.is_some() {
            self.facts.queue_peak = self.facts.queue_peak.max(backlog as u64);
        }
        p.core
            .on_batch(frames, backlog, wait.as_nanos() as u64, &mut out);
        for s in self.telemetry.spans.drain() {
            self.facts.spans.push(SpanFact {
                trace_id: s.trace_id,
                span_id: s.span_id,
                parent_span: s.parent_span,
                processor: s.processor,
            });
        }

        let mut forwards = out.forwards.into_iter();
        let mut replays = out.replays.into_iter();
        let mut sends: Vec<(Frame, Duration)> = Vec::new();
        let mut resends: Vec<(Frame, Duration)> = Vec::new();
        for o in out.outcomes {
            let call = o.call_id;
            let req = o.dir == MessageKind::Request;
            let mut extra = Duration::ZERO;
            if let Some((tag, code)) = o.kind.verdict() {
                self.facts
                    .note_verdict(u8::from(!req), addr, call, tag, code as u64);
                if let (true, Some(m)) = (req, &model) {
                    let p = self.procs.get_mut(&addr).expect("alive processor");
                    p.busy_until = now.max(p.busy_until) + m.service_time;
                    extra = p.busy_until - now;
                }
            }
            let line = match o.kind {
                OutcomeKind::Forwarded { .. } if req => {
                    let mut f = forwards.next().expect("forward frame");
                    if addr == self.entry {
                        self.entry_load += 1;
                        f.dst = self.route(call, f.dst);
                    }
                    let line = format!("fwd addr={addr} call={call} dst={}", f.dst);
                    sends.push((f, extra));
                    line
                }
                OutcomeKind::Aborted { code, .. } if req => {
                    sends.push((forwards.next().expect("abort frame"), extra));
                    format!("abort addr={addr} call={call} code={code}")
                }
                OutcomeKind::ChainShed { .. } if req => {
                    self.facts.sheds += 1;
                    sends.push((forwards.next().expect("shed frame"), extra));
                    format!("chain_shed addr={addr} call={call}")
                }
                // A response-path abort or shed rewrites the status and
                // still travels home.
                OutcomeKind::Forwarded { dst }
                | OutcomeKind::Aborted { dst, .. }
                | OutcomeKind::ChainShed { dst } => {
                    if matches!(o.kind, OutcomeKind::ChainShed { .. }) {
                        self.facts.sheds += 1;
                    }
                    sends.push((forwards.next().expect("response frame"), extra));
                    format!("resp_fwd addr={addr} call={call} dst={dst}")
                }
                OutcomeKind::Dropped if req => format!("chain_drop addr={addr} call={call}"),
                OutcomeKind::Dropped => format!("resp_drop addr={addr} call={call}"),
                OutcomeKind::AdmissionShed { priority } => {
                    self.facts.sheds += 1;
                    resends.push((replays.next().expect("shed reply"), extra));
                    format!("shed addr={addr} call={call} prio={}", priority as u8)
                }
                OutcomeKind::Expired => {
                    self.facts.expired_drops += 1;
                    format!("expired_drop addr={addr} call={call}")
                }
                OutcomeKind::DedupReplay => {
                    self.facts.dedup_hits += 1;
                    let mut f = replays.next().expect("replay frame");
                    if req && addr == self.entry {
                        if let Some(dst) = self.routes.get(&call) {
                            f.dst = *dst;
                        }
                        if model.is_some() {
                            extra = self.procs[&addr].busy_until.saturating_sub(now);
                        }
                    }
                    resends.push((f, extra));
                    if req {
                        format!("dedup_replay addr={addr} call={call}")
                    } else {
                        format!("resp_dedup addr={addr} call={call}")
                    }
                }
                OutcomeKind::DedupDrop => {
                    self.facts.dedup_hits += 1;
                    if req {
                        format!("dedup_drop addr={addr} call={call}")
                    } else {
                        format!("resp_dedup_drop addr={addr} call={call}")
                    }
                }
                OutcomeKind::Stale => format!("stale_resp addr={addr} call={call}"),
                OutcomeKind::DecodeError => format!("proc_decode_error addr={addr} call={call}"),
                OutcomeKind::Deferred => format!("batch_defer addr={addr} call={call}"),
            };
            self.exec.log(line);
        }
        for (f, extra) in sends.into_iter().chain(resends) {
            self.send_frame_extra(f, extra);
        }
    }

    /// Where the entry sends a fresh request forward. After scale-out the
    /// entry is an empty-chain router: it spreads requests over the shards
    /// by `mix64(object_id)` and remembers the pick so a replay of the
    /// forward follows it.
    fn route(&mut self, call_id: u64, dst: u64) -> u64 {
        if self.shards.is_empty() {
            return dst;
        }
        let oid = self
            .client
            .calls
            .get(&call_id)
            .map_or(call_id, |c| c.object_id);
        let shard = self.shards[(mix64(oid) % self.shards.len() as u64) as usize];
        self.routes.insert(call_id, shard);
        shard
    }

    // ---- server --------------------------------------------------------

    fn server_recv(&mut self, frame: Frame) {
        let msg = match decode_message_exact(&frame.payload, &self.service) {
            Ok(m) => m,
            Err(e) => {
                self.exec.log(format!("server_decode_error {e:?}"));
                return;
            }
        };
        let key = (frame.src, msg.call_id);
        if let Some(f) = self.server.dedup.get(&key) {
            let f = f.clone();
            self.facts.dedup_hits += 1;
            self.exec.log(format!("server_dedup call={}", msg.call_id));
            self.send_frame(f);
            return;
        }
        if msg.deadline.as_ref().is_some_and(|d| d.expired()) {
            // The caller already gave up on this work; executing it is
            // pure waste. Counted so the no-expired-execution invariant
            // can demand zero whenever expired-drop is armed upstream.
            self.facts.expired_executions += 1;
            self.exec.log(format!("expired_exec call={}", msg.call_id));
        }
        let count = {
            let e = self.facts.executions.entry(msg.call_id).or_insert(0);
            *e += 1;
            *e
        };
        self.facts.last_exec = Some((msg.call_id, count));
        let oid = match msg.get("object_id") {
            Some(Value::U64(v)) => *v,
            _ => 0,
        };
        self.exec
            .log(format!("exec call={} obj={oid}", msg.call_id));
        let mut resp = RpcMessage::response_to(&msg, self.server.resp_schema.clone());
        resp.set("ok", Value::Bool(true));
        let payload = encode_message_to_vec(&resp).expect("response encodes");
        let f = Frame {
            src: self.server.addr,
            dst: frame.src,
            payload,
        };
        self.server.dedup.insert(key, f.clone());
        self.send_frame(f);
    }

    // ---- controller ----------------------------------------------------

    fn sweep(&mut self, now: Duration) {
        // Heartbeat collection + failure detection. Live processors beat
        // between sweeps; a killed one's last beat goes stale.
        let addrs: Vec<u64> = self.procs.keys().copied().collect();
        for addr in addrs {
            let (alive, last_beat) = {
                let p = &self.procs[&addr];
                (p.alive, p.last_beat)
            };
            if alive {
                self.procs.get_mut(&addr).expect("present").last_beat = now;
                continue;
            }
            let age = now.saturating_sub(last_beat);
            if age > self.ctl.heartbeat_timeout {
                self.failover(now, addr, age);
            }
        }
        // Load-triggered scale-out on the chain entry, gated by cooldown.
        if let Some(cfg) = self.ctl.autoscale.clone() {
            let load = self.entry_load;
            self.entry_load = 0;
            let cooled = match self.ctl.last_scaleout {
                None => true,
                Some(t) => now.saturating_sub(t) >= cfg.cooldown,
            };
            let entry_alive = self.procs.get(&self.entry).map(|p| p.alive) == Some(true);
            if load > cfg.threshold && cooled && self.shards.len() < cfg.max_shards && entry_alive {
                self.scale_out(now);
            }
        }
        if !self.client_done() || self.procs.values().any(|p| !p.alive) {
            self.exec
                .schedule_after(self.ctl.sweep_interval, Event::Sweep);
        }
    }

    fn checkpoint(&mut self, now: Duration) {
        let _ = now;
        let addrs: Vec<u64> = self.procs.keys().copied().collect();
        for addr in addrs {
            let images = {
                let p = &self.procs[&addr];
                if !p.alive {
                    continue;
                }
                p.core.export_states()
            };
            self.exec
                .log(format!("checkpoint addr={addr} engines={}", images.len()));
            self.ctl.checkpoints.insert(addr, images);
        }
        if !self.client_done() {
            self.exec
                .schedule_after(self.ctl.checkpoint_interval, Event::Checkpoint);
        }
    }

    /// Replaces a dead processor with a fresh one at the same address,
    /// restoring element state from the last checkpoint. Flows and dedup
    /// caches die with the old instance, as they do in production.
    fn failover(&mut self, now: Duration, addr: u64, age: Duration) {
        let p = &self.procs[&addr];
        let images = self.ctl.checkpoints.get(&addr).map_or(&[][..], |i| &i[..]);
        let chain = self.build_chain(&p.elements, images);
        let core = self.new_core(addr, chain, p.next);
        let p = self.procs.get_mut(&addr).expect("present");
        p.core = core;
        p.alive = true;
        p.last_beat = now;
        self.ctl.failed_over.insert(addr, now);
        self.facts.failovers.insert(addr, now);
        self.exec
            .log(format!("failover addr={addr} age_ns={}", age.as_nanos()));
    }

    fn scale_out(&mut self, now: Duration) {
        let new_addr = SHARD_BASE + self.shards.len() as u64;
        let mut images = Vec::new();
        if self.shards.is_empty() {
            // First scale-out: the entry's elements move to shard 0 (with
            // exported state) and the entry becomes a pure router.
            let p = self.procs.get_mut(&self.entry).expect("entry");
            images = p.core.install_chain(EngineChain::new());
            self.shard_elements = std::mem::take(&mut p.elements);
            self.shard_downstream = p.next;
        }
        let chain = self.build_chain(&self.shard_elements, &images);
        let elements = self.shard_elements.clone();
        self.spawn_proc(new_addr, chain, elements, self.shard_downstream);
        self.shards.push(new_addr);
        self.ctl.last_scaleout = Some(now);
        self.facts.scaleouts.push(now);
        self.exec.log(format!(
            "scaleout shards={} new_addr={new_addr}",
            self.shards.len()
        ));
    }

    fn kill(&mut self, now: Duration, addr: u64) {
        if let Some(p) = self.procs.get_mut(&addr) {
            p.alive = false;
        }
        self.facts.kills.insert(addr, now);
        self.exec.log(format!("kill addr={addr}"));
    }

    /// Live migration: export element state, rebuild the chain, import —
    /// flows and dedup caches ride along, exactly like the real
    /// `migrate_processor` (same address, no frame loss).
    fn migrate(&mut self, _now: Duration, addr: u64) {
        let Some(p) = self.procs.get(&addr) else {
            return;
        };
        if !p.alive {
            return;
        }
        let chain = self.build_chain(&p.elements, &p.core.export_states());
        let p = self.procs.get_mut(&addr).expect("present");
        p.core.install_chain(chain);
        self.facts.migrations += 1;
        self.exec.log(format!("migrate addr={addr}"));
    }
}
