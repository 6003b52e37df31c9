//! The observability plane drives placement: [`LoadAwarePolicy`] reads the
//! live [`ClusterView`] the controller builds from heartbeat load reports.
//! A skewed cluster routes new work to the idle processor, and a
//! queue-depth breach triggers exactly one autoscale shard-out — a second
//! breach inside the cooldown must not flap.
//!
//! The whole world runs on a shared [`VirtualClock`]: cooldown windows
//! are entered and exited by explicit `advance` calls, never by wall
//! time, so the tests are deterministic at any machine speed.

use std::sync::Arc;
use std::time::Duration;

use adn::harness::{AdnWorld, WorldConfig};
use adn_cluster::resources::PlacementConstraint;
use adn_cluster::LoadReport;
use adn_controller::runtime::AutoscaleConfig;
use adn_rpc::clock::VirtualClock;
use adn_telemetry::LoadAwarePolicy;

/// One ACL element forced off-app: a single sidecar processor group, the
/// autoscale target — running entirely on the given virtual clock.
fn world(clock: &Arc<VirtualClock>) -> AdnWorld {
    let mut cfg = WorldConfig::of_elements(&["Acl"]);
    cfg.chain[0].constraints = vec![PlacementConstraint::OffApp];
    cfg.clock = Some(clock.clone());
    AdnWorld::start(cfg).unwrap()
}

fn report(endpoint: u64, processed: u64, queue_depth: u64) -> LoadReport {
    LoadReport {
        endpoint,
        processed,
        rejected: 0,
        utilization: 0.5,
        queue_depth,
        shed: 0,
        expired_drops: 0,
        elements: vec![],
    }
}

#[test]
fn skewed_load_prefers_the_idle_processor() {
    let clock = VirtualClock::shared();
    let w = world(&clock);
    // Two processors heartbeat with skewed congestion signals.
    w.store().report_load(report(777, 100, 50));
    w.store().report_load(report(888, 100, 1));
    w.sync().unwrap();

    // The policy consumes the live view: the idle endpoint wins.
    assert_eq!(
        w.controller().preferred_processor("app", &[777, 888]),
        Some(888)
    );
    assert!(w.controller().view().queue_depth(777) > w.controller().view().queue_depth(888));
}

#[test]
fn queue_breach_scales_out_exactly_once() {
    let clock = VirtualClock::shared();
    let w = world(&clock);
    assert!(w.call(1, "alice", b"x").is_ok());
    let entry = w.controller().processor_stats("app")[0].0;

    let cooldown = Duration::from_secs(60);
    w.controller()
        .enable_autoscale(
            "app",
            AutoscaleConfig {
                policy: LoadAwarePolicy {
                    queue_depth_threshold: 2,
                    cooldown,
                    ..LoadAwarePolicy::default()
                },
                shard_field: 1, // username
                shards: 2,
            },
        )
        .unwrap();

    // Two congested heartbeats arrive back to back; both breach, but the
    // first scale-out consumes the group and the second must find nothing
    // to scale.
    w.store().report_load(report(entry, 10, 100));
    w.store().report_load(report(entry, 20, 100));
    w.sync().unwrap();
    assert_eq!(w.controller().scaleout_count("app"), 1, "exactly one");

    // A later breach inside the cooldown window must not flap. The clock
    // is virtual: "inside the window" is a fact we set, not a race
    // against the test's own runtime.
    clock.advance(cooldown / 2);
    w.store().report_load(report(entry, 30, 100));
    w.sync().unwrap();
    assert_eq!(w.controller().scaleout_count("app"), 1, "no flapping");

    // And once the cooldown genuinely expires, a breach still finds
    // nothing left to scale: the group was consumed by the shard-out,
    // so the count stays put for the right reason.
    clock.advance(cooldown);
    w.store().report_load(report(entry, 40, 100));
    w.sync().unwrap();
    assert_eq!(
        w.controller().scaleout_count("app"),
        1,
        "group already sharded; expiry must not invent work"
    );

    // Traffic still flows through the shard router that took over the
    // old address — and the chain's policy still screens.
    assert!(w.call(2, "alice", b"x").is_ok());
    assert!(w.call(3, "bob", b"x").is_err(), "ACL enforced on shards");
}
