//! One workload, start to finish, in this process: generate the corpus,
//! set the system up (several times, cold), load it, check what came out,
//! and print the result. With `--trace 1` the load is one untraced and one
//! traced repetition, followed by the per-layer probes.

use std::time::{Duration, Instant};

use adn::dataplane::processor::StatsSnapshot;
use adn::rpc::transport::Frame;
use adn::telemetry::Span as HopSpan;

use crate::chains;
use crate::corpus::{Corpus, Kind, Workload};
use crate::forward::{self, ForwardSystem};
use crate::load::{Failures, LoadResult, Phase, PhaseKind, PhaseResult};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{self, Probes};
use crate::rpcload::{self, RpcSystem};
use crate::spans::Recorder;
use crate::stats::{median, Better};
use crate::Args;

/// Cold set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Cold set-ups per traced run (only `controller.deploy_ms` reads them).
const SETUPS_TRACED: usize = 5;
/// Length of one measured repetition; a run is as many as fit `--seconds`,
/// and each metric is the median over them. This box's cores change speed
/// in steps that last seconds, and the median of many short repetitions
/// moved least between runs (README, "Steadiness").
const REPETITION_SECS: f64 = 0.5;
/// Least share of a forwarding run the generator must spend asleep on a
/// full window, or the run measured the generator. A share of time, so
/// lower than the half of loop iterations the issue's prototype asked for:
/// a generator idle for a third of the run is not what sets the rate.
const MIN_WINDOW_FULL_SHARE: f64 = 0.3;
/// How far `throughput x p50` may lie from the window in the RPC workload.
/// By Little's law the two move together; a run where they do not has
/// mismeasured one of them.
const LITTLE_TOLERANCE: f64 = 0.15;
/// Sequential calls behind `rpc.runtime.seq_rtt_p50_us`.
const SEQ_RTT_CALLS: usize = 5000;
/// One-at-a-time frames behind `rpc.transport.tcp_oneway_p50_us`.
const ONEWAY_FRAMES: usize = 2000;

/// Either kind of running system.
enum System {
    Forward(ForwardSystem),
    Rpc(Box<RpcSystem>),
}

impl System {
    /// DSL source → first message completed end to end.
    fn cold_start(
        w: &Workload,
        corpus: &Corpus,
        seed: u64,
        failures: &mut Failures,
    ) -> (Self, Duration) {
        let start = Instant::now();
        let sys = match w.kind {
            Kind::Forward(_) => {
                let sys = ForwardSystem::start(w, &corpus.service, seed);
                if let Err(why) = sys.first_message(corpus) {
                    failures.add(1, || why);
                }
                System::Forward(sys)
            }
            Kind::Rpc => {
                let mut sys = RpcSystem::start(w, seed);
                sys.call_one(corpus, failures);
                System::Rpc(Box::new(sys))
            }
        };
        (sys, start.elapsed())
    }

    fn stop(self) {
        match self {
            System::Forward(sys) => sys.stop(),
            System::Rpc(sys) => sys.stop(),
        }
    }
}

fn phases(args: &Args) -> Vec<Phase> {
    let s = args.seconds;
    let warmup = Phase {
        kind: PhaseKind::Warmup,
        secs: (s / 5.0).clamp(0.2, 3.0),
    };
    let mut phases = vec![warmup];
    if args.trace {
        phases.push(Phase {
            kind: PhaseKind::Measured,
            secs: s / 3.0,
        });
        phases.push(Phase {
            kind: PhaseKind::Traced,
            secs: s / 3.0,
        });
    } else {
        let reps = if args.quick {
            1
        } else {
            ((s / REPETITION_SECS).round() as usize).max(1)
        };
        phases.extend((0..reps).map(|_| Phase {
            kind: PhaseKind::Measured,
            secs: s / reps as f64,
        }));
    }
    phases
}

/// Peak resident set of this process, in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn of_kind(load: &LoadResult, kind: PhaseKind) -> Vec<PhaseResult> {
    load.phases
        .iter()
        .filter(|p| p.kind == Some(kind))
        .cloned()
        .collect()
}

fn median_of(phases: &[PhaseResult], f: impl Fn(&PhaseResult) -> f64) -> f64 {
    median(&phases.iter().map(f).collect::<Vec<_>>())
}

/// Counters that must stay zero on every workload: nothing is
/// retransmitted, over deadline, shed or malformed.
fn check_quiet(stats: &StatsSnapshot, failures: &mut Failures) {
    for (name, n) in [
        ("dropped", stats.dropped),
        ("dedup_hits", stats.dedup_hits),
        ("shed", stats.shed),
        ("expired_drops", stats.expired_drops),
        ("decode_errors", stats.decode_errors),
        ("stale_responses", stats.stale_responses),
        ("drain_drops", stats.drain_drops),
    ] {
        failures.add(n, || format!("processor counted {n} {name}"));
    }
}

struct Outcome {
    load: LoadResult,
    inbound_drops: u64,
    forward_share: f64,
    rpc: Option<RpcExtras>,
}

#[derive(Default)]
struct RpcExtras {
    seq_rtt_p50_us: f64,
    server_handled: u64,
    server_dedup_hits: u64,
    client_orphans: u64,
    client_malformed: u64,
    hop_spans: Vec<HopSpan>,
}

fn run_forward(
    sys: ForwardSystem,
    w: &Workload,
    corpus: &Corpus,
    args: &Args,
    recorder: Option<&mut Recorder>,
) -> Outcome {
    let expect = forward::expectations(w, corpus, args.seed);
    let mut load = forward::run(&sys, w, corpus, &expect, &phases(args), recorder);
    let processor = sys.processor().stats();
    let inbound_drops = sys.inbound_drops();
    sys.stop();

    check_quiet(&processor, &mut load.failures);
    // Everything sent came back, forwarded or aborted: the processor put
    // one frame on the link per request (the first message included).
    load.attempted += 1;
    let sent = load.attempted;
    if processor.forwarded != sent || processor.requests != sent {
        load.failures.add(1, || {
            format!(
                "sent {sent} requests; processor saw {} and emitted {}",
                processor.requests, processor.forwarded
            )
        });
    }
    Outcome {
        load,
        inbound_drops,
        forward_share: forward::forward_share(&expect),
        rpc: None,
    }
}

fn run_rpc(
    mut sys: RpcSystem,
    w: &Workload,
    corpus: &Corpus,
    args: &Args,
    recorder: Option<&mut Recorder>,
) -> Outcome {
    let mut extras = RpcExtras::default();
    let mut pre = Failures::default();
    if args.trace {
        // Unloaded, one at a time, before any load: printed, never gated.
        let n = if args.quick {
            SEQ_RTT_CALLS / 10
        } else {
            SEQ_RTT_CALLS
        };
        let rtts: Vec<f64> = (0..n)
            .map(|_| sys.call_one(corpus, &mut pre).as_secs_f64() * 1e6)
            .collect();
        extras.seq_rtt_p50_us = median(&rtts);
    }
    let mut load = rpcload::run(&mut sys, w, corpus, &phases(args), recorder);
    load.failures.add(pre.count, || pre.notes.join("; "));
    // Every call this world served: the set-up's, the unloaded ones, the load.
    load.attempted = sys.calls_made();

    let app = chains::compile(w, args.seed);
    let counts = sys.check_against_reference(corpus, &app, &mut load.failures);
    let processor = sys.processor_stats();
    check_quiet(&processor, &mut load.failures);
    let aborts = counts.acl_aborts + counts.fault_aborts;
    if processor.aborted != aborts || processor.responses != counts.forwarded {
        load.failures.add(1, || {
            format!(
                "reference: {aborts} aborts, {} echoed; processor: {} aborts, {} responses",
                counts.forwarded, processor.aborted, processor.responses
            )
        });
    }
    let server = sys.world().server_stats()[0];
    let client = sys.world().client().stats();
    extras.server_handled = server.handled;
    extras.server_dedup_hits = server.dedup_hits;
    extras.client_orphans = client.orphan_responses;
    extras.client_malformed = client.malformed_frames;
    for (name, n) in [
        ("server dedup hits", server.dedup_hits),
        ("server malformed frames", server.malformed_frames),
        ("client orphan responses", client.orphan_responses),
        ("client malformed frames", client.malformed_frames),
        ("client retries", client.retries),
    ] {
        load.failures.add(n, || format!("{n} {name}"));
    }
    if server.handled != counts.forwarded {
        load.failures.add(1, || {
            format!(
                "server handled {}, reference forwards {}",
                server.handled, counts.forwarded
            )
        });
    }
    extras.hop_spans = sys.world().controller().spans().drain();
    let inbound_drops = sys.world().net().inbound_drops();
    sys.stop();
    Outcome {
        load,
        inbound_drops,
        forward_share: counts.forward_share(),
        rpc: Some(extras),
    }
}

/// Runs the workload named in `args` and prints its result. Returns
/// whether every output was correct.
pub fn run_single(args: &Args) -> bool {
    let w = crate::corpus::workload(args.workload.as_deref().expect("checked by parse"))
        .expect("checked by parse");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} quick {} nproc {} tier {:?} link loopback-not-a-real-link",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        nproc,
        adn::backend::jit::resolve_tier(adn::backend::jit::JitTier::Auto),
    );

    let corpus = Corpus::generate(w, args.seed);
    let corpus_mb = corpus.heap_bytes() as f64 / 1e6;

    // Cold set-ups: each is torn down but the last, which is then loaded.
    let mut setup_failures = Failures::default();
    let setups = match (args.trace, args.quick) {
        (false, false) => SETUPS,
        _ => SETUPS_TRACED,
    };
    let mut setup_s = Vec::with_capacity(setups);
    let mut system = None;
    for _ in 0..setups {
        if let Some(previous) = system.take() {
            System::stop(previous);
        }
        let (sys, took) = System::cold_start(w, &corpus, args.seed, &mut setup_failures);
        setup_s.push(took.as_secs_f64());
        system = Some(sys);
    }
    let setup_median_s = median(&setup_s);

    let mut recorder = args.trace.then(Recorder::new);
    let mut outcome = match system.expect("at least one set-up") {
        System::Forward(sys) => run_forward(sys, w, &corpus, args, recorder.as_mut()),
        System::Rpc(sys) => run_rpc(*sys, w, &corpus, args, recorder.as_mut()),
    };
    outcome
        .load
        .failures
        .add(setup_failures.count, || setup_failures.notes.join("; "));
    outcome.load.attempted += setups as u64 - 1;
    outcome.load.failures.add(outcome.inbound_drops, || {
        format!("{} frames dropped at inbound queues", outcome.inbound_drops)
    });

    let measured = of_kind(&outcome.load, PhaseKind::Measured);
    let throughput = median_of(&measured, PhaseResult::throughput);
    let full_share = median_of(&measured, PhaseResult::window_full_share);
    // In the forwarding workloads the generator stands outside the system
    // and must outpace it; in the RPC workload it is the client.
    if matches!(w.kind, Kind::Forward(_)) && full_share < MIN_WINDOW_FULL_SHARE {
        outcome.load.failures.add(1, || {
            format!("generator waited on a full window only {full_share:.2} of the time: it, not the system, set the rate")
        });
    }
    if w.kind == Kind::Rpc {
        let in_flight = calls_in_flight(&measured);
        if (in_flight / w.window as f64 - 1.0).abs() > LITTLE_TOLERANCE {
            outcome.load.failures.add(1, || {
                format!(
                    "little's law: throughput x p50 = {in_flight:.1} calls in flight, window {}",
                    w.window
                )
            });
        }
    }

    let mut values: Vec<(&'static str, f64)> = Vec::new();
    if args.trace {
        let mut recorder = recorder.expect("trace run records spans");
        values = per_layer(
            w,
            &corpus,
            args,
            &outcome,
            &measured,
            setup_median_s,
            corpus_mb,
            &mut recorder,
        );
        write_spans(w, args, &recorder);
        print_span_summary(&recorder);
    } else {
        values.push(("throughput_msgs_s", throughput));
        values.push((
            "goodput_mb_s",
            median_of(&measured, PhaseResult::goodput_mb_s),
        ));
        values.push(("latency_p50_us", median_of(&measured, |p| p.latency.p50_us)));
        values.push(("latency_p99_us", median_of(&measured, |p| p.latency.p99_us)));
        values.push(("setup_s", setup_median_s));
        values.push(("peak_rss_mb", peak_rss_mb() - corpus_mb));
        print_repetitions(&measured, w);
    }

    let failed = outcome.load.failures.count.min(outcome.load.attempted);
    for note in &outcome.load.failures.notes {
        println!("FAILED: {note}");
    }
    print_result(
        w,
        args,
        &values,
        failed == 0,
        outcome.load.attempted,
        failed,
    );
    failed == 0
}

fn print_repetitions(measured: &[PhaseResult], w: &Workload) {
    for (i, p) in measured.iter().enumerate() {
        let p999 = p
            .latency
            .p999_us
            .map_or("n/a".to_owned(), |v| format!("{v:.1}"));
        println!(
            "  rep {i}: {:.0} msgs/s  {:.2} MB/s  p50 {:.1} us  p99 {:.1} us  p99.9 {p999} us  ({} samples)  window-full {:.2}",
            p.throughput(),
            p.goodput_mb_s(),
            p.latency.p50_us,
            p.latency.p99_us,
            p.latency.samples,
            p.window_full_share(),
        );
    }
    if w.kind == Kind::Rpc {
        println!(
            "  little's law: throughput x p50 = {:.1} calls in flight (window {})",
            calls_in_flight(measured),
            w.window
        );
    }
}

/// Little's law: calls in flight = rate x time in system.
fn calls_in_flight(measured: &[PhaseResult]) -> f64 {
    median_of(measured, |p| p.throughput() * p.latency.p50_us / 1e6)
}

/// The probes and the ledger that reconciles them with the measured hop.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    w: &Workload,
    corpus: &Corpus,
    args: &Args,
    outcome: &Outcome,
    measured: &[PhaseResult],
    setup_median_s: f64,
    corpus_mb: f64,
    recorder: &mut Recorder,
) -> Vec<(&'static str, f64)> {
    let traced = of_kind(&outcome.load, PhaseKind::Traced);
    let traced = traced.first().expect("trace run has a traced phase");
    let untraced = median_of(measured, PhaseResult::throughput);

    let rpc_frames: Vec<Frame>;
    let frames: &[Frame] = match w.kind {
        Kind::Forward(_) => &corpus.frames,
        Kind::Rpc => {
            rpc_frames = probes::frames_of_requests(&corpus.requests);
            &rpc_frames
        }
    };
    let app = chains::compile(w, args.seed);
    let mut p = Probes::new(recorder, args.quick);
    p.codec(frames, &corpus.service);
    p.transport(
        frames,
        if args.quick {
            ONEWAY_FRAMES / 10
        } else {
            ONEWAY_FRAMES
        },
    );
    p.chain(&app, frames, &corpus.service);
    p.compile_pipeline(w, args.seed);

    let compile_ms = p.get("dsl.parse_check_ms")
        + p.get("ir.lower_opt_ms")
        + p.get("verifier.preflight_ms")
        + p.get("backend.jit.compile_ms");
    let hop_ns = 1e9 / untraced;
    // What a request pays on its way through one hop, as far as probes see.
    let attributed = p.get("rpc.wire_format.peek_ns")
        + p.get("rpc.retry.dedup_get_insert_ns")
        + p.get("rpc.wire_format.decode_ns")
        + p.get("rpc.engine.exec_ns")
        + p.get("rpc.wire_format.encode_ns")
        + p.get("wire.pool_take_give_ns")
        + p.get("rpc.transport.inproc_send_batch_ns")
        + p.get("crossbeam.channel_send_recv_ns");
    let unattributed = hop_ns - attributed;
    println!(
        "  ledger: hop {hop_ns:.0} ns = probes {attributed:.0} ns + unattributed {unattributed:.0} ns ({:.0}% of the hop)",
        100.0 * unattributed / hop_ns
    );

    let allocs = traced.allocs.expect("traced phase counts allocations");
    let msgs = traced.completed.max(1) as f64;
    let stats = &traced.processor;
    let rpc = outcome.rpc.as_ref();
    let span_p50 = |f: &dyn Fn(&HopSpan) -> u64| {
        let spans = rpc.map_or(&[][..], |r| &r.hop_spans[..]);
        median(&spans.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };

    let mut v = std::mem::take(&mut p.results);
    let spans_recorded = p.spans_recorded();
    p.finish();
    v.extend([
        ("rpc.transport.inbound_drops", outcome.inbound_drops as f64),
        ("rpc.engine.forward_share", outcome.forward_share),
        ("controller.deploy_ms", setup_median_s * 1e3 - compile_ms),
        ("dataplane.processor.hop_ns", hop_ns),
        ("dataplane.processor.unattributed_ns", unattributed),
        (
            "dataplane.processor.unattributed_share",
            unattributed / hop_ns,
        ),
        (
            "dataplane.processor.allocs_per_msg",
            allocs.other_threads_allocs() as f64 / msgs,
        ),
        (
            "dataplane.processor.alloc_bytes_per_msg",
            allocs.other_threads_bytes() as f64 / msgs,
        ),
        ("dataplane.processor.forwarded", stats.forwarded as f64),
        ("dataplane.processor.aborted", stats.aborted as f64),
        ("dataplane.processor.dropped", stats.dropped as f64),
        ("dataplane.processor.dedup_hits", stats.dedup_hits as f64),
        ("dataplane.processor.shed", stats.shed as f64),
        (
            "dataplane.processor.expired_drops",
            stats.expired_drops as f64,
        ),
        (
            "dataplane.processor.decode_errors",
            stats.decode_errors as f64,
        ),
        (
            "dataplane.processor.stale_responses",
            stats.stale_responses as f64,
        ),
        (
            "dataplane.processor.queue_wait_p50_ns",
            span_p50(&|s| s.queue_ns),
        ),
        (
            "dataplane.processor.stage_sum_p50_ns",
            span_p50(&|s| s.stages.iter().map(|(_, ns)| ns).sum()),
        ),
        (
            "dataplane.processor.serialize_p50_ns",
            span_p50(&|s| s.serialize_ns),
        ),
        (
            "rpc.runtime.send_call_ns",
            traced.send_call_ns as f64 / msgs,
        ),
        (
            "rpc.runtime.server_handled",
            rpc.map_or(0.0, |r| r.server_handled as f64),
        ),
        (
            "rpc.runtime.server_dedup_hits",
            rpc.map_or(0.0, |r| r.server_dedup_hits as f64),
        ),
        (
            "rpc.runtime.client_orphan_responses",
            rpc.map_or(0.0, |r| r.client_orphans as f64),
        ),
        (
            "rpc.runtime.client_malformed_frames",
            rpc.map_or(0.0, |r| r.client_malformed as f64),
        ),
        (
            "rpc.runtime.seq_rtt_p50_us",
            rpc.map_or(0.0, |r| r.seq_rtt_p50_us),
        ),
        ("loadgen.corpus_mb", corpus_mb),
        (
            "loadgen.window_full_share",
            median_of(measured, PhaseResult::window_full_share),
        ),
        (
            "loadgen.trace_overhead_ratio",
            traced.throughput() / untraced,
        ),
        ("loadgen.traced_throughput_msgs_s", traced.throughput()),
        ("loadgen.spans_recorded", spans_recorded as f64),
    ]);
    v
}

fn write_spans(w: &Workload, args: &Args, recorder: &Recorder) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| "target".into(), std::path::PathBuf::from)
        .join("benchmark");
    let path = dir.join(format!("trace-{}.json", w.name));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, recorder.to_json(w.name, args.seed)));
    match written {
        Ok(()) => println!(
            "  spans: {} written to {}",
            recorder.spans().len(),
            path.display()
        ),
        Err(e) => println!("  spans: could not write {}: {e}", path.display()),
    }
}

fn print_span_summary(recorder: &Recorder) {
    println!("  span                                      count     total ms      self ms");
    for (name, (count, total, self_ns)) in recorder.summary() {
        println!(
            "  {name:<40} {count:>6} {:>12.2} {:>12.2}",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
}

/// Prints every metric by name and unit, then the result object as the
/// last line of standard output.
fn print_result(
    w: &Workload,
    args: &Args,
    values: &[(&'static str, f64)],
    correct: bool,
    attempted: u64,
    failed: u64,
) {
    let direction = |better: Better| match better {
        Better::Higher => "higher is better",
        Better::Lower => "lower is better",
    };
    // (name, unit, what the reader needs beside the number)
    let table: Vec<(&str, &str, String)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    format!("{}; -> {}", direction(m.better), m.moves),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let judged = if m.judged_on.contains(&w.name) {
                    format!("bound {:.0}%", 100.0 * m.bound)
                } else {
                    "printed, not judged, on this workload".to_owned()
                };
                (m.name, m.unit, format!("{}; {judged}", direction(m.better)))
            })
            .collect()
    };
    let mut metrics = serde_json::Map::new();
    for (name, unit, note) in &table {
        let value = values
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .1;
        assert!(value.is_finite(), "metric {name} is {value}");
        println!("  {name:<44} {value:>16.4} {unit:<7} {note}");
        metrics.insert(
            (*name).to_owned(),
            serde_json::json!({"value": value, "unit": (*unit)}),
        );
    }
    if args.quick {
        println!("quick: true (smoke run; not a measurement)");
    }
    println!("failed_ratio {}", failed as f64 / attempted.max(1) as f64);
    println!(
        "{}",
        serde_json::json!({
            "correct": correct,
            "attempted": (attempted.max(1)),
            "failed": failed,
            "metrics": (serde_json::Value::Object(metrics)),
        })
    );
}
