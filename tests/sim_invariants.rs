//! Whole-cluster invariant tests on the deterministic simulator. These
//! are the sim ports of `tests/chaos_failover.rs` and
//! `tests/reconfig_zero_loss.rs`: the same properties (at-most-once
//! under retransmits, zero loss across reconfiguration, failover
//! liveness, breaker fail-open) checked after *every* event of a
//! seed-swept virtual-time run instead of once at the end of a
//! wall-clock run.
//!
//! Tier-1 sweeps 4 seeds per scenario; set `ADN_SIM_SWEEP=1` (tier-2 /
//! the CI `sim` job) to sweep 64.

use std::time::Duration;

use adn_rpc::chaos::ChaosPolicy;
use adn_rpc::retry::{BreakerPolicy, DegradedMode};
use adn_sim::{shrink, sweep_seeds, Scenario};

fn seed_range() -> std::ops::Range<u64> {
    if std::env::var("ADN_SIM_SWEEP").is_ok() {
        0..64
    } else {
        0..4
    }
}

/// The acceptance sweep: chaos + processor crash/failover + autoscale,
/// with every invariant checker armed after every event.
#[test]
fn everything_scenario_sweep_holds_all_invariants() {
    let out = sweep_seeds(&Scenario::everything(), seed_range());
    assert!(
        out.passed(),
        "seed failed — {}",
        out.failure().map(|f| f.replay.clone()).unwrap_or_default()
    );
    assert_eq!(out.seeds_run, seed_range().end);
}

/// The acceptance sweep again, with batched delivery: every processor
/// drains its inbox up to 16 frames at a time, with batch-local
/// duplicate deferral — every invariant must hold exactly as it does
/// per-frame.
#[test]
fn everything_scenario_sweep_holds_all_invariants_with_batching() {
    let mut s = Scenario::everything();
    s.batch = 16;
    let out = sweep_seeds(&s, seed_range());
    assert!(
        out.passed(),
        "seed failed — {}",
        out.failure().map(|f| f.replay.clone()).unwrap_or_default()
    );
    assert_eq!(out.seeds_run, seed_range().end);
}

/// Strict zero-loss under batching: the reconfig scenario (migration +
/// scale-out, clean link) with batch=16 — a single timed-out or lost
/// call fails the run, so batching must not drop or double-execute.
#[test]
fn reconfig_stays_zero_loss_with_batching() {
    let mut s = Scenario::reconfig();
    s.batch = 16;
    for seed in seed_range() {
        let r = s.run(seed);
        assert!(r.passed(), "seed {seed}: {:?}", r.violation);
        assert_eq!(r.stats.calls_ok, r.stats.calls_issued, "seed {seed}");
        assert_eq!(r.stats.server_executions, r.stats.calls_ok, "seed {seed}");
    }
}

/// Batching must actually happen (multi-frame drains appear in the log)
/// and stay deterministic (same seed ⇒ identical fingerprint).
#[test]
fn batched_runs_form_real_batches_and_stay_deterministic() {
    let mut s = Scenario::everything();
    s.batch = 16;
    let a = s.run(42);
    assert!(a.passed(), "{:?}", a.violation);
    let multi = a
        .log
        .iter()
        .filter(|l| l.contains(" batch addr=") && !l.ends_with("n=1"))
        .count();
    assert!(multi > 0, "no multi-frame batch ever drained");
    let b = s.run(42);
    assert_eq!(a.log_text(), b.log_text());
    assert_eq!(a.fingerprint(), b.fingerprint());
}

/// Chaos port of `chain_survives_drops_and_processor_kill_exactly_once`:
/// drops, dups, reorders, delays and fault injection, checked per event.
#[test]
fn chaos_scenario_sweep_holds_all_invariants() {
    let out = sweep_seeds(&Scenario::chaos(), seed_range());
    assert!(
        out.passed(),
        "seed failed — {}",
        out.failure().map(|f| f.replay.clone()).unwrap_or_default()
    );
}

/// Reconfig port of `reconfig_zero_loss.rs`: live migration plus the
/// load-triggered scale-out on a clean link; the strict zero-loss
/// invariant means a single timed-out call fails the run. The entry group
/// scales out exactly once, as production scales a group once.
#[test]
fn reconfig_scenario_is_zero_loss_through_migration_and_scaleout() {
    for seed in seed_range() {
        let r = Scenario::reconfig().run(seed);
        assert!(r.passed(), "seed {seed}: {:?}", r.violation);
        assert_eq!(r.stats.calls_ok, r.stats.calls_issued, "seed {seed}");
        assert_eq!(r.stats.calls_timed_out, 0, "seed {seed}");
        assert_eq!(r.stats.migrations, 1, "seed {seed}");
        assert_eq!(r.stats.scaleouts, 1, "seed {seed}");
        // Every completed call executed exactly once at the server.
        assert_eq!(r.stats.server_executions, r.stats.calls_ok, "seed {seed}");
    }
}

/// The everything scenario must actually exercise the machinery it
/// claims to test: a failover, retransmissions, and dedup hits.
#[test]
fn everything_scenario_exercises_failover_and_dedup() {
    let r = Scenario::everything().run(3);
    assert!(r.passed(), "{:?}", r.violation);
    assert_eq!(r.stats.failovers, 1);
    assert!(r.stats.retries > 0, "chaos must force retries");
    assert!(r.stats.dedup_hits > 0, "retransmits must hit dedup windows");
    assert!(r.stats.frames_dropped > 0, "chaos must drop frames");
    assert!(r.stats.calls_ok > 0);
}

/// Dup-heavy chaos: at-most-once must survive a link that duplicates
/// nearly a third of all frames and drops a fifth.
#[test]
fn at_most_once_survives_dup_heavy_chaos() {
    let mut s = Scenario::chaos();
    s.name = "dup-heavy".into();
    s.chaos = ChaosPolicy {
        drop_prob: 0.2,
        dup_prob: 0.3,
        reorder_prob: 0.1,
        delay_prob: 0.1,
        delay: Duration::from_millis(8),
    };
    for seed in seed_range() {
        let r = s.run(seed);
        assert!(r.passed(), "seed {seed}: {:?}", r.violation);
        assert!(r.stats.dedup_hits > 0, "seed {seed}: dups must be caught");
    }
}

/// Sim port of `fail_open_bypasses_dead_chain_entry`: with the chain
/// entry dead, a slow failure detector, and `FailOpen`, the breaker
/// opens and traffic bypasses the (dead) ACL — even the denied user
/// gets through during the degraded window.
#[test]
fn fail_open_bypasses_dead_chain_entry_in_sim() {
    let mut s = Scenario::new("fail-open");
    s.calls = 20;
    s.concurrency = 2;
    s.users = vec!["bob".into()]; // ACL would deny every call
    s.degraded = DegradedMode::FailOpen;
    s.breaker = BreakerPolicy {
        threshold: 2,
        cooldown: Duration::from_secs(60),
    };
    s.kill = Some((Duration::from_millis(5), 0));
    // Failure detection far slower than the run: the breaker, not the
    // controller, must restore availability.
    s.heartbeat_timeout = Duration::from_secs(50);
    s.sweep_interval = Duration::from_secs(20);
    s.checkpoint_interval = Duration::from_secs(20);
    s.retry.attempt_timeout = Duration::from_millis(50);
    s.allow_timeouts = true; // the pre-breaker-open attempts may expire
    let r = s.run(11);
    assert!(r.passed(), "{:?}", r.violation);
    assert!(
        r.stats.calls_ok > 0,
        "fail-open must restore availability: {:?}",
        r.stats
    );
    assert!(
        r.log.iter().any(|l| l.contains("breaker_bypass")),
        "the breaker must have bypassed the dead entry"
    );
    // Policy was genuinely bypassed: bob (ACL-denied) completed calls.
    assert_eq!(
        r.stats.calls_aborted + r.stats.calls_ok + r.stats.calls_timed_out,
        20
    );
}

/// The overload acceptance sweep: open-loop 2× offered load with the
/// shed ladder armed, 32 seeds, with the no-expired-execution and
/// goodput-floor invariants checked alongside the universal ones.
#[test]
fn overload_sweep_holds_goodput_floor_and_never_executes_expired() {
    let out = sweep_seeds(&Scenario::overload(), 0..32);
    assert!(
        out.passed(),
        "seed failed — {}",
        out.failure().map(|f| f.replay.clone()).unwrap_or_default()
    );
    assert_eq!(out.seeds_run, 32);
}

/// Overload plus link chaos (drops, dups, reorders, delays): the ladder
/// must still hold its (lower) goodput floor, and dedup must keep
/// retransmits from resurrecting exhausted deadline budgets.
#[test]
fn chaos_overload_sweep_holds_invariants() {
    let out = sweep_seeds(&Scenario::chaos_overload(), 0..32);
    assert!(
        out.passed(),
        "seed failed — {}",
        out.failure().map(|f| f.replay.clone()).unwrap_or_default()
    );
    assert_eq!(out.seeds_run, 32);
}

/// Shedding is load-bearing. At 2× offered load the armed ladder keeps
/// goodput within 20% of single-load capacity; the naive FIFO baseline
/// (same load, admission off) collapses below half of it, burns service
/// time on already-expired work, and grows an unbounded queue.
#[test]
fn shedding_preserves_goodput_where_naive_fifo_collapses() {
    let armed = Scenario::overload();
    let model = armed.overload.clone().expect("preset sets model");
    // Work the single bottleneck can complete during the issue window.
    let capacity = armed.calls as f64 * model.issue_interval.as_nanos() as f64
        / model.service_time.as_nanos() as f64;
    let with = armed.run(7);
    let without = Scenario::overload_naive().run(7);
    assert!(with.passed(), "{:?}", with.violation);
    assert!(without.passed(), "{:?}", without.violation);
    assert!(
        with.stats.calls_ok as f64 >= 0.8 * capacity,
        "shedding goodput {} below 80% of capacity {capacity}",
        with.stats.calls_ok
    );
    assert!(
        (without.stats.calls_ok as f64) < 0.5 * capacity,
        "naive baseline should collapse, got {} ok",
        without.stats.calls_ok
    );
    assert!(with.stats.calls_shed > 0, "ladder must actually shed");
    assert_eq!(with.stats.expired_executions, 0);
    assert!(
        without.stats.expired_executions > 0,
        "naive baseline must burn service on expired work"
    );
    assert!(
        with.stats.queue_peak * 4 < without.stats.queue_peak,
        "shedding must bound the queue: {} vs {}",
        with.stats.queue_peak,
        without.stats.queue_peak
    );
}

/// Overload runs stay deterministic, the shed ladder never refuses a
/// critical call, and shed verdicts are visible in the event log.
#[test]
fn overload_run_is_deterministic_and_respects_the_ladder() {
    let a = Scenario::overload().run(3);
    let b = Scenario::overload().run(3);
    assert!(a.passed(), "{:?}", a.violation);
    assert_eq!(a.log_text(), b.log_text());
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert!(
        a.log.iter().any(|l| l.contains("shed addr=")),
        "shed verdicts must appear in the log"
    );
    assert!(
        !a.log
            .iter()
            .any(|l| l.contains("shed addr=") && l.ends_with("prio=3")),
        "critical calls must never be shed by admission"
    );
}

/// A partition that outlives every retry budget must be *caught* by the
/// strict zero-loss checker — and the failure must shrink to a minimal
/// event prefix with a copy-pasteable replay command. This exercises the
/// failure path of the whole harness: detection, shrinking, replay.
#[test]
fn partition_violation_is_caught_shrunk_and_replayable() {
    let mut s = Scenario::new("partition-loss");
    s.calls = 10;
    s.concurrency = 2;
    s.partition_window = Some((Duration::from_millis(2), Duration::from_secs(600)));
    s.retry.deadline = Duration::from_millis(400);
    s.retry.max_attempts = 3;
    s.allow_timeouts = false; // strict: any timeout is a violation

    let report = s.run(5);
    let v = report
        .violation
        .clone()
        .expect("partition must violate zero-loss");
    assert_eq!(v.invariant, "zero-loss");

    let f = shrink(&s, 5).expect("failing seed must shrink");
    assert_eq!(f.violation, v);
    assert!(f.min_events <= report.events);
    assert!(f.replay.contains("--seed 5"));
    assert!(f.replay.contains(&format!("--max-events {}", f.min_events)));

    // The replay really reproduces: the capped run fails identically.
    let mut capped = s.clone();
    capped.max_events = f.min_events;
    assert_eq!(capped.run(5).violation, Some(v));
}

/// The sim port of the old `tcp_distributed.rs` 64-call concurrent
/// storm: the same ACL chain screening a mixed user population under
/// real concurrency, but on the deterministic substrate — seed-swept,
/// strict zero-loss, and byte-identical on replay instead of racing
/// sockets against a wall-clock timeout.
#[test]
fn ported_tcp_storm_is_deterministic() {
    let (req, resp) = adn::harness::object_store_schemas();
    let acl = adn_elements::build("Acl", &[], &req, &resp).expect("catalog Acl");

    let mut s = Scenario::new("tcp-storm");
    s.calls = 64;
    s.concurrency = 8;
    s.users = vec!["carol".into(), "alice".into(), "bob".into()];
    s.chain_specs = Some(vec![acl]);
    s.allow_timeouts = false; // clean link: every call must resolve

    let out = sweep_seeds(&s, seed_range());
    assert!(
        out.passed(),
        "seed failed — {}",
        out.failure().map(|f| f.replay.clone()).unwrap_or_default()
    );

    let a = s.run(11);
    let b = s.run(11);
    assert_eq!(a.log_text(), b.log_text(), "same seed, same bytes");
    // The writer majority lands; `bob` is read-only and every one of his
    // calls is aborted by the ACL with code 7 — none time out or vanish.
    assert_eq!(
        a.stats.calls_ok + a.stats.calls_aborted,
        a.stats.calls_issued
    );
    assert!(a.stats.calls_aborted >= 64 / 3, "bob's share is denied");
}
