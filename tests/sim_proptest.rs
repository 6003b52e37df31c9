//! Property tests over randomly generated [`Scenario`]s: topology size,
//! chaos policy, workload mix, and optional reconfiguration hooks are
//! all drawn from strategies, and every generated cluster must hold all
//! armed invariants at every event step.
//!
//! Tier-1 keeps case counts small; `ADN_SIM_SWEEP=1` (tier-2 / the CI
//! `sim` job) multiplies them.

use std::time::Duration;

use adn_rpc::chaos::ChaosPolicy;
use adn_sim::scenario::object_store_chain;
use adn_sim::{Scenario, SimAutoscale};
use proptest::arbitrary::any;
use proptest::test_runner::ProptestConfig;
use proptest::{prop_assert, prop_assert_eq, proptest};

/// All users the workload strategy can draw from. `bob` and `eve` are
/// read-only in the ACL table, so mixes including them exercise the
/// policy-abort path.
const USER_POOL: [&str; 5] = ["alice", "bob", "carol", "dave", "eve"];

fn cases(tier1: u32) -> u32 {
    if std::env::var("ADN_SIM_SWEEP").is_ok() {
        tier1 * 4
    } else {
        tier1
    }
}

/// Builds a scenario from raw strategy draws. Probabilities arrive as
/// permille integers so the generated values are exactly representable
/// and runs stay reproducible from the printed parameters.
#[allow(clippy::too_many_arguments)]
fn scenario_from(
    procs: u64,
    calls: u64,
    concurrency: u64,
    user_mask: u64,
    drop_pm: u64,
    dup_pm: u64,
    delay_pm: u64,
    fault_pm: u64,
    migrate: bool,
    autoscale: bool,
) -> Scenario {
    let mut s = Scenario::new("prop");
    s.processors = procs as usize;
    s.calls = calls;
    s.concurrency = concurrency;
    // Non-empty user subset from the pool; the mask's low bits pick.
    s.users = USER_POOL
        .iter()
        .enumerate()
        .filter(|(i, _)| user_mask & (1 << i) != 0)
        .map(|(_, u)| u.to_string())
        .collect();
    if s.users.is_empty() {
        s.users = vec!["alice".into()];
    }
    s.fault_prob = fault_pm as f64 / 1000.0;
    s.chaos = ChaosPolicy {
        drop_prob: drop_pm as f64 / 1000.0,
        dup_prob: dup_pm as f64 / 1000.0,
        reorder_prob: 0.0,
        delay_prob: delay_pm as f64 / 1000.0,
        delay: Duration::from_millis(4),
    };
    if migrate {
        s.migrate = Some((Duration::from_millis(30), 0));
    }
    if autoscale {
        // Application order, as production deploys it: with two or more
        // processors the entry group (Fault → Acl) is shard-safe; a single
        // processor also holds Logging, so autoscale is refused and the
        // run stays unscaled.
        s.chain_specs = Some(object_store_chain(s.fault_prob));
        s.autoscale = Some(SimAutoscale {
            threshold: 12,
            shards: 3,
        });
    }
    // Chaos and fault injection legitimately abort or time out calls;
    // the invariant set still demands at-most-once and trace shape.
    s.allow_timeouts = drop_pm > 0 || dup_pm > 0 || delay_pm > 0 || fault_pm > 0;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(8)))]

    /// Any generated topology/chaos/workload combination holds every
    /// armed invariant at every event step.
    #[test]
    fn generated_scenarios_hold_all_invariants(
        procs in 1u64..=4,
        calls in 10u64..40,
        concurrency in 1u64..=6,
        user_mask in 1u64..32,
        drop_pm in 0u64..120,
        dup_pm in 0u64..120,
        delay_pm in 0u64..120,
        fault_pm in 0u64..60,
        migrate in any::<bool>(),
        autoscale in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let s = scenario_from(
            procs, calls, concurrency, user_mask, drop_pm, dup_pm, delay_pm,
            fault_pm, migrate, autoscale,
        );
        let r = s.run(seed);
        prop_assert!(
            !r.truncated,
            "scenario hit the event cap: procs={procs} calls={calls} seed={seed}"
        );
        prop_assert!(
            r.passed(),
            "invariant violated (procs={procs} calls={calls} conc={concurrency} \
             users={user_mask:#07b} drop={drop_pm}‰ dup={dup_pm}‰ delay={delay_pm}‰ \
             fault={fault_pm}‰ migrate={migrate} autoscale={autoscale} seed={seed}): {:?}",
            r.violation
        );
        prop_assert_eq!(
            r.stats.calls_ok + r.stats.calls_aborted + r.stats.calls_timed_out,
            r.stats.calls_issued,
            "every issued call must resolve (seed={})", seed
        );
    }

    /// On a clean link every generated scenario is strictly zero-loss,
    /// and determinism holds per generated scenario, not just presets:
    /// re-running the same draw reproduces the same fingerprint.
    #[test]
    fn clean_link_scenarios_are_zero_loss_and_deterministic(
        procs in 1u64..=4,
        calls in 10u64..40,
        concurrency in 1u64..=6,
        user_mask in 1u64..32,
        migrate in any::<bool>(),
        autoscale in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        let s = scenario_from(
            procs, calls, concurrency, user_mask, 0, 0, 0, 0, migrate, autoscale,
        );
        let r = s.run(seed);
        prop_assert!(r.passed(), "seed {seed}: {:?}", r.violation);
        prop_assert_eq!(r.stats.calls_timed_out, 0);
        prop_assert_eq!(
            r.stats.calls_ok + r.stats.calls_aborted,
            r.stats.calls_issued
        );
        let again = s.run(seed);
        prop_assert_eq!(r.fingerprint(), again.fingerprint());
        prop_assert_eq!(r.log_text(), again.log_text());
    }
}
