//! # adn-telemetry — the observability plane for Application Defined Networks
//!
//! The paper's runtime controller places and migrates elements using "global
//! knowledge of the cluster". This crate is that knowledge. It provides:
//!
//! * [`metrics`] — lock-free counters and log-linear-bucket latency
//!   histograms that merge exactly (bucket-wise addition), so per-processor
//!   measurements aggregate into cluster-wide distributions without loss
//!   beyond one bucket of quantile error.
//! * [`registry`] — a process-wide [`Registry`] keyed by
//!   `(app, element, processor)` plus snapshot/delta encoding over the
//!   `adn-wire` codec, cheap enough to piggyback on every heartbeat.
//! * [`trace`] — in-band trace propagation: a [`Sampler`] whose off state
//!   costs one atomic load and one branch, and a bounded [`SpanRing`] that
//!   hop instrumentation pushes spans into (queue wait, per-stage element
//!   exec, serialize).
//! * [`view`] — the controller-side sliding-window [`ClusterView`]
//!   (per-element rate, p99, queue depth) and the [`LoadAwarePolicy`] that
//!   turns it into placement and scale-out decisions.
//!
//! The wire-level trace context itself ([`TraceContext`]) lives in
//! `adn-wire::header` so the RPC and data-plane codecs can carry it without
//! depending on this crate; it is re-exported here for convenience.

pub mod metrics;
pub mod registry;
pub mod trace;
pub mod view;

use std::sync::Arc;

pub use adn_wire::header::TraceContext;
pub use metrics::{Counter, Histogram, HistogramSnapshot};
pub use registry::{ElementMetrics, ElementSnapshot, MetricKey, Registry, RegistrySnapshot};
pub use trace::{Sampler, Span, SpanRing};
pub use view::{ClusterView, LoadAwarePolicy, ProcessorObservation, ViewRow};

/// Everything a data-plane hop needs to observe itself: where to register
/// metrics, where to emit spans, and whether to sample at all. Cloned into
/// each processor at deploy time; `None` keeps the hop entirely
/// instrumentation-free.
#[derive(Clone)]
pub struct HopTelemetry {
    /// Application the hop belongs to (registry key component).
    pub app: String,
    /// Shared metric registry (typically the controller's).
    pub registry: Arc<Registry>,
    /// Bounded ring spans are emitted into.
    pub spans: Arc<SpanRing>,
    /// Per-app sampling decision, set by the controller.
    pub sampler: Arc<Sampler>,
}

impl std::fmt::Debug for HopTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HopTelemetry")
            .field("app", &self.app)
            .field("sampling", &self.sampler.rate())
            .finish_non_exhaustive()
    }
}
