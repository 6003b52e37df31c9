//! # adn-dataplane — ADN processors
//!
//! Paper §5.3: "The ADN data plane is composed of ADN processors that carry
//! out the low-level executions of ADN elements. Each processor acquires
//! the compiled version of the RPC processing logic from the control plane
//! and periodically sends reports ... back to the controller."
//!
//! * [`processor`] — a standalone processor endpoint: a thread that decodes
//!   frames from the virtual link layer, runs its engine chain, and
//!   forwards. Processors NAT themselves into the path (rewriting `src` and
//!   keeping a call-id flow table) so responses traverse the same chain in
//!   reverse — the same trick sidecars use. A control channel supports
//!   pause / snapshot / restore / drain / hot-chain-swap, the primitives
//!   live migration is built from.
//! * [`hop_core`] — the sans-IO hop the processor thread drives: classify,
//!   admission, decode, chain, verdict and dedup replay over one batch,
//!   with no thread, channel, link or clock inside. The simulator drives
//!   the same core, so its invariants check production hop logic.
//! * [`scaleout`] — Figure 2 Configuration 4: a shard router endpoint in
//!   front of N processor instances, sharding by a request field so keyed
//!   element state stays shard-local. Its sans-IO core, [`ShardRouter`],
//!   is driven by the router thread and by the simulator alike.
//! * [`hop`] — minimal-header hop codec: intermediate hops carry only the
//!   fields downstream processors read (paper §4 Q2); everything else
//!   crosses as opaque bytes that are never re-parsed.

pub mod hop;
pub mod hop_core;
pub mod processor;
pub mod scaleout;

pub use hop_core::{HopCore, HopOutcome, HopOutput, OutcomeKind};
pub use processor::{
    spawn_processor, NextHop, OverloadPolicy, ProcessorConfig, ProcessorHandle, ProcessorStats,
    StatsSnapshot, DEFAULT_BATCH_MAX,
};
pub use scaleout::{spawn_sharded, Refusal, Route, ShardRouter, ShardedHandle};
