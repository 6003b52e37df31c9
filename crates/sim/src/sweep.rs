//! Seed sweeps, failure shrinking, and replay commands.
//!
//! A sweep runs one scenario across a seed range, collecting **every**
//! failing seed (one bad seed must not mask the rest of the range).
//! Each failure is *shrunk* to the minimal event prefix that still
//! reproduces it and paired with a copy-pasteable replay command.
//! Because runs are deterministic and an invariant is checked
//! immediately after each event, the minimal prefix is exactly the
//! violation's event index — a shorter prefix truncates before the
//! violating event and cannot fail the same way. The shrinker verifies
//! that by re-running the prefix.

use crate::invariant::Violation;
use crate::scenario::Scenario;

/// A reproducible failure found by a sweep.
#[derive(Debug, Clone)]
pub struct SeedFailure {
    /// The failing seed.
    pub seed: u64,
    /// Events the full run processed before stopping.
    pub events: u64,
    /// Minimal event prefix that reproduces the violation.
    pub min_events: u64,
    /// The violation itself.
    pub violation: Violation,
    /// Copy-pasteable reproduction command.
    pub replay: String,
}

/// Result of sweeping a seed range.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Seeds that ran (always the whole range).
    pub seeds_run: u64,
    /// Every failing seed in the range, shrunk, in seed order.
    pub failures: Vec<SeedFailure>,
}

impl SweepOutcome {
    /// Whether every seed passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The first failure, if any (convenience for single-failure flows).
    pub fn failure(&self) -> Option<&SeedFailure> {
        self.failures.first()
    }

    /// Machine-readable sweep result; the CI replay-artifact step parses
    /// this to reproduce every failing seed, not just the first.
    pub fn to_json(&self) -> serde_json::Value {
        let failures: Vec<serde_json::Value> = self
            .failures
            .iter()
            .map(|f| {
                serde_json::json!({
                    "seed": (f.seed),
                    "events": (f.events),
                    "min_events": (f.min_events),
                    "invariant": (f.violation.invariant.clone()),
                    "at_event": (f.violation.at_event),
                    "at_ns": (f.violation.at_ns),
                    "detail": (f.violation.detail.clone()),
                    "replay": (f.replay.clone())
                })
            })
            .collect();
        serde_json::json!({
            "tool": "simseed",
            "schema_version": 1,
            "scenario": (self.scenario.clone()),
            "seeds_run": (self.seeds_run),
            "pass": (self.passed()),
            "failures": (failures)
        })
    }
}

/// Looks up a named scenario (the set the `simseed` binary and CI use).
pub fn scenario_by_name(name: &str) -> Option<Scenario> {
    match name {
        "smoke" => Some(Scenario::smoke()),
        "chaos" => Some(Scenario::chaos()),
        "reconfig" => Some(Scenario::reconfig()),
        "everything" => Some(Scenario::everything()),
        "overload" => Some(Scenario::overload()),
        "overload-naive" => Some(Scenario::overload_naive()),
        "chaos-overload" => Some(Scenario::chaos_overload()),
        "scaleout-last-hop" => Some(Scenario::scaleout_last_hop()),
        _ => None,
    }
}

/// Names accepted by [`scenario_by_name`].
pub const SCENARIO_NAMES: &[&str] = &[
    "smoke",
    "chaos",
    "reconfig",
    "everything",
    "overload",
    "overload-naive",
    "chaos-overload",
    "scaleout-last-hop",
];

/// The command that replays one seed up to a given event prefix.
pub fn replay_command(scenario: &str, seed: u64, max_events: u64) -> String {
    format!(
        "cargo run -q --release -p adn-sim --bin simseed -- run \
         --scenario {scenario} --seed {seed} --max-events {max_events} --dump-log"
    )
}

/// Runs `scenario` across `seeds`, shrinking every failure. The whole
/// range always runs: one bad seed reports alongside, not instead of,
/// the others.
pub fn sweep(scenario: &Scenario, seeds: impl IntoIterator<Item = u64>) -> SweepOutcome {
    let mut seeds_run = 0;
    let mut failures = Vec::new();
    for seed in seeds {
        seeds_run += 1;
        let report = scenario.run(seed);
        if report.violation.is_some() {
            failures.extend(shrink(scenario, seed));
        }
    }
    SweepOutcome {
        scenario: scenario.name.clone(),
        seeds_run,
        failures,
    }
}

/// Shrinks a failing seed to the minimal event prefix that reproduces
/// its violation, verifying the prefix by re-running it. Returns `None`
/// if the seed does not actually fail.
pub fn shrink(scenario: &Scenario, seed: u64) -> Option<SeedFailure> {
    let full = scenario.run(seed);
    let violation = full.violation?;
    // Determinism makes shrinking exact: the run with `max_events` set
    // to the violation's event index processes the identical prefix and
    // must fail identically. Verify rather than trust.
    let mut capped = scenario.clone();
    capped.max_events = violation.at_event;
    let confirm = capped.run(seed);
    let (min_events, violation) = match confirm.violation {
        Some(v) if v == violation => (violation.at_event, v),
        // An end-check violation needs the queue to drain; the full run
        // is then itself the minimal prefix.
        _ => (full.events, violation),
    };
    let mut replay = replay_command(&scenario.name, seed, min_events);
    if scenario.batch > 1 {
        replay.push_str(&format!(" --batch {}", scenario.batch));
    }
    Some(SeedFailure {
        seed,
        events: full.events,
        min_events,
        replay,
        violation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn sweep_reports_all_seeds_on_success() {
        let out = sweep(&Scenario::smoke(), 0..3);
        assert!(out.passed());
        assert_eq!(out.seeds_run, 3);
    }

    #[test]
    fn sweep_reports_every_failing_seed_with_invariant_names() {
        // Inject a guaranteed failure: a partition longer than the retry
        // deadline under the *strict* zero-loss invariant, so every seed
        // times out and fails. The sweep must still visit the whole range
        // and report each failing seed — the old behavior stopped at the
        // first one.
        let mut s = Scenario::smoke();
        s.partition_window = Some((Duration::from_millis(1), Duration::from_secs(120)));
        s.allow_timeouts = false;
        let seeds = 0..4u64;
        let expected: Vec<u64> = seeds
            .clone()
            .filter(|&sd| s.run(sd).violation.is_some())
            .collect();
        assert!(
            expected.len() >= 2,
            "injection should fail several seeds, got {expected:?}"
        );
        let out = sweep(&s, seeds);
        assert_eq!(out.seeds_run, 4);
        let got: Vec<u64> = out.failures.iter().map(|f| f.seed).collect();
        assert_eq!(got, expected, "one failure must not mask the rest");
        for f in &out.failures {
            assert!(!f.violation.invariant.is_empty());
            assert!(f.min_events <= f.events);
            assert!(f.replay.contains(&format!("--seed {}", f.seed)));
        }
        // The JSON artifact mirrors the same facts for CI replay.
        let v = out.to_json();
        assert_eq!(v.get("pass").and_then(|p| p.as_bool()), Some(false));
        assert_eq!(v.get("schema_version").and_then(|p| p.as_u64()), Some(1));
        let rows = v
            .get("failures")
            .and_then(|f| f.as_array())
            .expect("failures array")
            .clone();
        assert_eq!(rows.len(), out.failures.len());
        for (row, f) in rows.iter().zip(&out.failures) {
            assert_eq!(row.get("seed").and_then(|x| x.as_u64()), Some(f.seed));
            assert_eq!(
                row.get("invariant").and_then(|x| x.as_str()),
                Some(f.violation.invariant.as_str())
            );
        }
    }

    #[test]
    fn replay_command_is_copy_pasteable() {
        let cmd = replay_command("chaos", 42, 1000);
        assert!(cmd.contains("--scenario chaos"));
        assert!(cmd.contains("--seed 42"));
        assert!(cmd.contains("--max-events 1000"));
    }
}
