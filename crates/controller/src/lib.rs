//! # adn-controller — the ADN control plane
//!
//! Paper §5.2: the controller is "a logically centralized component that
//! has global knowledge ... of the network topology, service locations, and
//! available ADN processors. It provisions network processing on available
//! processors. In response to workload changes and failures, it also
//! migrates and scales ADN elements."
//!
//! * [`compile`] — AdnConfig → typechecked, lowered, optimized chain.
//! * [`placement`] — the placement solver: a DP over the path-ordered
//!   processor sites (client RPC library → client kernel/NIC → switch →
//!   server NIC/kernel → server library, with sidecars on both hosts),
//!   under trust/co-location constraints and per-platform feasibility.
//!   The four configurations of the paper's Figure 2 fall out of this
//!   solver as the environment changes.
//! * [`deploy`](mod@deploy) — materializes a placement: fuses same-site runs of
//!   elements, spawns processors, wires hop-by-hop forwarding, returns the
//!   chains to install into the client/server RPC libraries.
//! * [`reconfig`] — live operations: lossless processor migration
//!   (pause → snapshot → takeover → drain), keyed-state scale-out behind a
//!   shard router, and scale-in by state merge (paper §5.2).
//! * [`runtime`] — the event-driven controller: watches the cluster store
//!   and reacts to config updates, replica changes, and load reports.

pub mod compile;
pub mod deploy;
pub mod placement;
pub mod reconfig;
pub mod runtime;

pub use compile::{compile_app, compile_app_verified, CompileError, CompiledApp, VerifyLevel};
pub use deploy::{deploy, AddrAllocator, Deployment};
pub use placement::{
    place, place_for_class, place_whole_chain, place_with_policy, ClassPlacement, DpuSpec,
    ElementConstraints, Environment, PlaceError, Placement, ProcessorClass, Site,
};
pub use runtime::Controller;
