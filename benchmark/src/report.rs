//! The multi-workload commands. Each workload runs in a child process of
//! its own, so one workload's peak memory and warmed caches are not the
//! next one's.

use std::process::{Command, Stdio};

use crate::corpus::WORKLOADS;
use crate::metrics::END_TO_END;
use crate::stats::{median, spread, worsening, Better};
use crate::{Args, Mode};

/// One child's result object.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// (name, value, unit) in the order printed.
    metrics: Vec<(String, f64, String)>,
}

/// Runs one workload in a child process, passing its report through, and
/// parses the result object off the last line.
fn child(
    args: &Args,
    workload: &str,
    seed: u64,
    trace: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let json: serde_json::Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: no result object ({e}); exit {}", output.status))?;
    let metrics = json
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or("result has no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(|v| v.as_f64()).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or_default();
            (name.clone(), value, unit.to_owned())
        })
        .collect();
    Ok(ChildResult {
        correct: json
            .get("correct")
            .and_then(|c| c.as_bool())
            .unwrap_or(false),
        attempted: json.get("attempted").and_then(|a| a.as_u64()).unwrap_or(0),
        failed: json.get("failed").and_then(|f| f.as_u64()).unwrap_or(0),
        metrics,
    })
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|only| only == *name))
        .collect()
}

/// `run` and `trace`: every workload once, then one table.
pub fn run_all(args: &Args) -> bool {
    let trace = args.mode == Mode::Trace;
    let mut ok = true;
    let mut rows = Vec::new();
    for name in selected(args) {
        match child(args, name, args.seed, trace, true) {
            Ok(result) => {
                ok &= result.correct && result.failed == 0;
                rows.push((name, result));
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    println!("\n{:<16} {:<44} {:>16} unit", "workload", "metric", "value");
    for (name, result) in &rows {
        for (metric, value, unit) in &result.metrics {
            println!("{name:<16} {metric:<44} {value:>16.4} {unit}");
        }
        println!(
            "{name:<16} {:<44} {:>16} ratio  ({} of {})",
            "failed_ratio",
            result.failed as f64 / result.attempted.max(1) as f64,
            result.failed,
            result.attempted
        );
    }
    if args.quick {
        println!("quick: true (smoke run; not a measurement)");
    }
    ok
}

/// Runs per set, each on another seed: what the acceptance check makes.
const RUNS_PER_SET: usize = 10;

/// How one metric on one workload fared over the sets.
struct Verdict {
    medians: Vec<f64>,
    /// Widest interquartile spread of a set, as a share of its median.
    /// Printed so the bounds can be checked against it; not judged.
    spread: f64,
    /// Worst worsening of a later set's median against the first's.
    gap: f64,
    ok: bool,
}

/// `bound` is `None` where the metric is not judged on the workload.
fn judge(better: Better, bound: Option<f64>, sets: &[Vec<f64>]) -> Verdict {
    let medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
    let gap = medians[1..]
        .iter()
        .map(|m| worsening(medians[0], *m, better))
        .fold(f64::MIN, f64::max);
    Verdict {
        ok: bound.is_none_or(|b| gap <= b),
        spread: sets.iter().map(|s| spread(s)).fold(0.0, f64::max),
        medians,
        gap,
    }
}

/// `repeat`: the full set of runs, `--sets` times back to back on one
/// build. Per metric and workload it prints each set's median, the gap
/// between them and the bound, and fails when a gap exceeds its bound.
pub fn repeat(args: &Args) -> bool {
    let mut ok = true;
    let heads: String = (1..=args.sets)
        .map(|i| format!(" {:>14}", format!("median {i}")))
        .collect();
    println!(
        "{:<14} {:<18}{heads} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "spread", "gap", "bound"
    );
    for name in selected(args) {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; args.sets];
        for (set, per_metric) in values.iter_mut().enumerate() {
            for run in 0..RUNS_PER_SET {
                let seed = args.seed + (set * RUNS_PER_SET + run) as u64;
                match child(args, name, seed, false, false) {
                    Ok(result) if result.correct && result.failed == 0 => {
                        for (i, metric) in END_TO_END.iter().enumerate() {
                            let value = result
                                .metrics
                                .iter()
                                .find(|(n, _, _)| n == metric.name)
                                .map_or(f64::NAN, |(_, v, _)| *v);
                            per_metric[i].push(value);
                        }
                    }
                    Ok(result) => {
                        eprintln!(
                            "{name} seed {seed}: {} of {} failed",
                            result.failed, result.attempted
                        );
                        ok = false;
                    }
                    Err(e) => {
                        eprintln!("{name} seed {seed}: {e}");
                        ok = false;
                    }
                }
            }
        }
        for (i, metric) in END_TO_END.iter().enumerate() {
            let sets: Vec<Vec<f64>> = values
                .iter()
                .map(|per_metric| per_metric[i].clone())
                .collect();
            if sets.iter().any(|s| s.len() < 2) {
                continue;
            }
            let bound = metric.judged_on.contains(&name).then_some(metric.bound);
            let v = judge(metric.better, bound, &sets);
            ok &= v.ok;
            let medians: String = v.medians.iter().map(|m| format!(" {m:>14.4}")).collect();
            let (bound, verdict) = match (bound, v.ok) {
                (None, _) => ("-".to_owned(), "not judged here"),
                (Some(b), true) => (format!("{:.0}%", 100.0 * b), "ok"),
                (Some(b), false) => (format!("{:.0}%", 100.0 * b), "OUTSIDE BOUND"),
            };
            println!(
                "{name:<14} {:<18}{medians} {:>6.1}% {:>6.1}% {bound:>6}  {verdict}",
                metric.name,
                100.0 * v.spread,
                100.0 * v.gap,
            );
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_holds_the_gap_between_medians_to_the_bound() {
        let tight = |centre: f64| -> Vec<f64> { (0..10).map(|i| centre + f64::from(i)).collect() };
        let higher = |sets: &[Vec<f64>]| judge(Better::Higher, Some(0.10), sets);
        // 5% down: inside a 10% bound.
        assert!(higher(&[tight(1000.0), tight(950.0)]).ok);
        // 15% down: outside it, whichever later set it is.
        let v = higher(&[tight(1000.0), tight(990.0), tight(850.0)]);
        assert!(!v.ok && v.gap > 0.10 && v.medians.len() == 3);
        // Getting better is never a regression.
        assert!(higher(&[tight(1000.0), tight(2000.0)]).ok);
        // A wide set is reported, not judged.
        let wide: Vec<f64> = (0..10).map(|i| 1000.0 + 60.0 * f64::from(i)).collect();
        let v = higher(&[wide.clone(), wide]);
        assert!(v.ok && v.spread > 0.10);
        // Lower is better: 40% up is outside, and fine where not judged.
        assert!(!judge(Better::Lower, Some(0.25), &[tight(100.0), tight(140.0)]).ok);
        assert!(judge(Better::Lower, None, &[tight(100.0), tight(140.0)]).ok);
    }
}
