//! The metric tables. `BENCHMARK.json` carries the same names, units,
//! directions and bounds; a unit test holds the two together.

use crate::stats::Better;

/// Seconds one run measures, as `BENCHMARK.json` states.
pub const RUN_SECONDS: f64 = 20.0;

/// A metric a user of the system would see, with the share of the
/// parent's median by which it may worsen before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// The workloads on which the metric says something no other metric
    /// says. Every workload prints every metric, as the contract wants;
    /// `repeat` judges it on these only.
    pub judged_on: &'static [&'static str],
}

const EVERY_WORKLOAD: &[&str] = &["fwd_small", "chain_rpc", "fwd_small_tcp", "bulk_mutate"];

/// Failed operations are reported beside these as `failed` / `attempted`;
/// any failure at all fails the run, so the ratio needs no bound.
///
/// A bound is at least twice the furthest the medians of two sets of ten
/// runs of one build lay apart on this 2-vCPU box, whose cores change speed
/// by a fifth for seconds at a time (README, "Steadiness"): up to 10% for
/// throughput, 12% for p99 and set-up time, 2% for memory. A tighter bound
/// would at times reject a build against itself.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "throughput_msgs_s",
        unit: "msgs/s",
        better: Better::Higher,
        bound: 0.25,
        judged_on: EVERY_WORKLOAD,
    },
    // On the small-message workloads it is throughput times the payload
    // length.
    EndToEnd {
        name: "goodput_mb_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
        judged_on: &["bulk_mutate"],
    },
    // On the forwarding workloads the window is always full, so latency is
    // window / throughput by construction.
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        judged_on: &["chain_rpc"],
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        judged_on: &["chain_rpc"],
    },
    // Where the chain is empty a set-up is a thread spawn and one message:
    // a tenth of a millisecond of scheduler luck, no compile work.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        judged_on: &["chain_rpc", "bulk_mutate"],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        judged_on: EVERY_WORKLOAD,
    },
];

/// A metric of one layer (layer = module path), from the traced run. No
/// bound: these explain a movement, they do not gate one. `moves` names the
/// end-to-end metric and workload the layer metric should move; where a
/// layer is not on a workload's path its metrics read 0 there.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 53] = [
    layer(
        "rpc.wire_format.peek_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ fwd_small; none @ bulk_mutate",
    ),
    layer(
        "rpc.wire_format.decode_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ fwd_small, goodput_mb_s @ bulk_mutate",
    ),
    layer(
        "rpc.wire_format.encode_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ fwd_small, goodput_mb_s @ bulk_mutate",
    ),
    layer(
        "rpc.wire_format.wire_bytes",
        "B",
        Lower,
        "goodput_mb_s @ bulk_mutate, throughput_msgs_s @ fwd_small_tcp",
    ),
    layer(
        "rpc.wire_format.decode_allocs",
        "count",
        Lower,
        "goodput_mb_s @ bulk_mutate; peak_rss_mb",
    ),
    layer(
        "rpc.wire_format.encode_allocs",
        "count",
        Lower,
        "goodput_mb_s @ bulk_mutate; peak_rss_mb",
    ),
    layer(
        "wire.pool_take_give_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ fwd_small; none @ chain_rpc",
    ),
    layer(
        "crossbeam.channel_send_recv_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ fwd_small, chain_rpc",
    ),
    layer(
        "rpc.transport.inproc_send_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ chain_rpc",
    ),
    layer(
        "rpc.transport.inproc_send_batch_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ fwd_small; none @ fwd_small_tcp minus fwd_small",
    ),
    layer(
        "rpc.transport.tcp_send_batch_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ fwd_small_tcp; none @ fwd_small",
    ),
    layer(
        "rpc.transport.tcp_oneway_p50_us",
        "us",
        Lower,
        "diagnostic: bound by thread wake-ups",
    ),
    layer(
        "rpc.transport.inbound_drops",
        "count",
        Lower,
        "failed @ every workload; expected 0",
    ),
    layer(
        "rpc.retry.dedup_get_insert_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ fwd_small",
    ),
    layer(
        "rpc.engine.exec_ns",
        "ns",
        Lower,
        "throughput_msgs_s, latency_p50_us @ chain_rpc; none @ fwd_small",
    ),
    layer(
        "rpc.engine.forward_share",
        "ratio",
        Higher,
        "correctness check; goodput_mb_s",
    ),
    layer(
        "backend.jit.exec_interp_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ chain_rpc",
    ),
    layer(
        "backend.jit.exec_threaded_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ chain_rpc",
    ),
    layer(
        "backend.jit.exec_native_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ chain_rpc; 0 off x86-64 Linux",
    ),
    layer("backend.jit.escapes", "count", Lower, "rpc.engine.exec_ns"),
    layer(
        "backend.jit.inline_ops",
        "count",
        Higher,
        "rpc.engine.exec_ns",
    ),
    layer("backend.jit.compile_ms", "ms", Lower, "setup_s"),
    layer("dsl.parse_check_ms", "ms", Lower, "setup_s"),
    layer("ir.lower_opt_ms", "ms", Lower, "setup_s"),
    layer("verifier.preflight_ms", "ms", Lower, "setup_s"),
    layer("controller.deploy_ms", "ms", Lower, "setup_s @ chain_rpc"),
    layer(
        "dataplane.processor.hop_ns",
        "ns",
        Lower,
        "is 1e9 / throughput_msgs_s",
    ),
    layer(
        "dataplane.processor.unattributed_ns",
        "ns",
        Lower,
        "the part of hop_ns no probe owns",
    ),
    layer(
        "dataplane.processor.unattributed_share",
        "ratio",
        Lower,
        "unattributed_ns / hop_ns",
    ),
    layer(
        "dataplane.processor.allocs_per_msg",
        "count",
        Lower,
        "goodput_mb_s @ bulk_mutate; peak_rss_mb",
    ),
    layer(
        "dataplane.processor.alloc_bytes_per_msg",
        "B",
        Lower,
        "goodput_mb_s @ bulk_mutate; peak_rss_mb",
    ),
    layer(
        "dataplane.processor.forwarded",
        "count",
        Higher,
        "throughput_msgs_s",
    ),
    layer(
        "dataplane.processor.aborted",
        "count",
        Lower,
        "seed-determined share of completions",
    ),
    layer(
        "dataplane.processor.dropped",
        "count",
        Lower,
        "failed; expected 0",
    ),
    layer(
        "dataplane.processor.dedup_hits",
        "count",
        Lower,
        "failed; expected 0",
    ),
    layer(
        "dataplane.processor.shed",
        "count",
        Lower,
        "failed; expected 0",
    ),
    layer(
        "dataplane.processor.expired_drops",
        "count",
        Lower,
        "failed; expected 0",
    ),
    layer(
        "dataplane.processor.decode_errors",
        "count",
        Lower,
        "failed; expected 0",
    ),
    layer(
        "dataplane.processor.stale_responses",
        "count",
        Lower,
        "failed; expected 0",
    ),
    layer(
        "dataplane.processor.queue_wait_p50_ns",
        "ns",
        Lower,
        "latency_p50_us @ chain_rpc",
    ),
    layer(
        "dataplane.processor.stage_sum_p50_ns",
        "ns",
        Lower,
        "latency_p50_us @ chain_rpc",
    ),
    layer(
        "dataplane.processor.serialize_p50_ns",
        "ns",
        Lower,
        "latency_p50_us @ chain_rpc",
    ),
    layer(
        "rpc.runtime.send_call_ns",
        "ns",
        Lower,
        "throughput_msgs_s @ chain_rpc",
    ),
    layer(
        "rpc.runtime.server_handled",
        "count",
        Higher,
        "throughput_msgs_s @ chain_rpc",
    ),
    layer(
        "rpc.runtime.server_dedup_hits",
        "count",
        Lower,
        "failed @ chain_rpc; expected 0",
    ),
    layer(
        "rpc.runtime.client_orphan_responses",
        "count",
        Lower,
        "failed @ chain_rpc; expected 0",
    ),
    layer(
        "rpc.runtime.client_malformed_frames",
        "count",
        Lower,
        "failed @ chain_rpc; expected 0",
    ),
    layer(
        "rpc.runtime.seq_rtt_p50_us",
        "us",
        Lower,
        "diagnostic: bimodal on this box",
    ),
    layer(
        "loadgen.corpus_mb",
        "MB",
        Lower,
        "subtracted from the process's peak to give peak_rss_mb",
    ),
    layer(
        "loadgen.window_full_share",
        "ratio",
        Higher,
        "validity guard for every throughput number",
    ),
    layer(
        "loadgen.trace_overhead_ratio",
        "ratio",
        Higher,
        "traced over untraced throughput",
    ),
    layer(
        "loadgen.traced_throughput_msgs_s",
        "msgs/s",
        Higher,
        "numerator of trace_overhead_ratio",
    ),
    layer(
        "loadgen.spans_recorded",
        "count",
        Higher,
        "size of the span file",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::corpus::WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // Set-up time gets the largest bound.
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= setup.bound && setup.bound <= 0.25));
    }

    #[test]
    fn every_metric_is_judged_on_a_workload_that_exists() {
        let ours: Vec<&str> = crate::corpus::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(EVERY_WORKLOAD, ours);
        for m in &END_TO_END {
            assert!(!m.judged_on.is_empty(), "{} is judged nowhere", m.name);
            assert!(m.judged_on.iter().all(|w| ours.contains(w)), "{}", m.name);
        }
    }

    /// `BENCHMARK.json` must say what this binary prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let field =
            |v: &serde_json::Value, k: &str| v.get(k).and_then(|x| x.as_str().map(str::to_owned));

        assert_eq!(
            json.get("run_seconds").and_then(|v| v.as_f64()),
            Some(RUN_SECONDS)
        );
        let workloads = json
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads");
        let names: Vec<String> = workloads.iter().filter_map(|w| field(w, "name")).collect();
        let ours: Vec<&str> = crate::corpus::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        assert!(workloads
            .iter()
            .all(|w| field(w, "why").is_some_and(|why| why.len() <= 200 && !why.contains('\n'))));

        let e2e = json
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (theirs, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(theirs, "name").as_deref(), Some(ours.name));
            assert_eq!(field(theirs, "unit").as_deref(), Some(ours.unit));
            let better = if ours.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                field(theirs, "better").as_deref(),
                Some(better),
                "{}",
                ours.name
            );
            assert_eq!(
                theirs.get("bound").and_then(|b| b.as_f64()),
                Some(ours.bound),
                "{}",
                ours.name
            );
        }
        let layers = json
            .get("per_layer")
            .and_then(|v| v.as_array())
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (theirs, ours) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(theirs, "name").as_deref(), Some(ours.name));
            assert_eq!(
                field(theirs, "unit").as_deref(),
                Some(ours.unit),
                "{}",
                ours.name
            );
            let better = if ours.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                field(theirs, "better").as_deref(),
                Some(better),
                "{}",
                ours.name
            );
        }
    }
}
