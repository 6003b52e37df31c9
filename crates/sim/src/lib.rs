//! # adn-sim: deterministic whole-cluster simulation
//!
//! FoundationDB-style simulation testing for the ADN runtime: an entire
//! cluster — closed-loop client, chain processors, application server,
//! controller, and a lossy network — runs on **one thread** under a
//! **virtual clock**, driven by a **seeded event executor**. Nothing
//! sleeps, nothing races, and a run's entire behavior is a pure function
//! of `(scenario, seed)`: the same seed replays byte-identically, and a
//! failing seed shrinks to the minimal event prefix that reproduces it.
//!
//! Every simulated processor hop is the production
//! [`adn_dataplane::HopCore`] — the sans-IO core the processor thread
//! drives — running compiled element chains ([`adn_elements`] →
//! [`adn_backend`]). A scale-out runs production's plan
//! ([`adn_controller::reconfig::plan_scale_out`]) and leaves a production
//! [`adn_dataplane::ShardRouter`] at the entry address. Client and server
//! reuse the real dedup windows, circuit breakers and retry backoff from
//! [`adn_rpc`]. Invariants are checked against production code, not a
//! model of it.
//!
//! ## Layout
//!
//! - [`executor`]: virtual clock + seeded RNG + the timed event queue,
//!   and the event-log fingerprint.
//! - [`nodes`]: message-level models of client, processor, server, and
//!   controller, plus the [`nodes::Facts`] record checkers observe.
//! - [`scenario`]: the [`Scenario`] builder and the simulation itself.
//! - [`invariant`]: the checkers (at-most-once, zero-loss, trace
//!   well-formedness, failover liveness, and the overload pair) evaluated
//!   after every event.
//! - [`sweep`]: seed-range sweeps, failure shrinking, replay commands.
//! - [`matrix`]: the eval-matrix — a declarative topology × chain ×
//!   chaos × engine-tier grid where every cell is an independent
//!   deterministic scenario with two extra matrix-level checks (tier
//!   verdict identity, placement-respects-offload-verdict).
//!
//! ## Quick start
//!
//! ```
//! use adn_sim::Scenario;
//!
//! let report = Scenario::smoke().run(7);
//! assert!(report.passed(), "{:?}", report.violation);
//! // Same seed ⇒ byte-identical event log.
//! assert_eq!(report.log_text(), Scenario::smoke().run(7).log_text());
//! ```
//!
//! See `docs/testing.md` for the full workflow (seed sweeps in CI,
//! replaying failures, writing new invariants).

pub mod executor;
pub mod invariant;
pub mod matrix;
pub mod nodes;
pub mod scenario;
pub mod sweep;

pub use executor::{fingerprint, Event, SimExecutor};
pub use invariant::{Invariant, Violation};
pub use matrix::{
    run_cell, run_grid, CellResult, ChainSpec, ChaosProfile, MatrixGrid, MatrixReport, TopologySpec,
};
pub use scenario::{OverloadModel, Scenario, SimAutoscale, SimReport, SimStats};
pub use sweep::{scenario_by_name, shrink, sweep as sweep_seeds, SeedFailure, SweepOutcome};

/// The virtual clock shared with the production `Clock` abstraction —
/// re-exported under the simulator's own name.
pub use adn_wire::clock::VirtualClock as SimClock;
