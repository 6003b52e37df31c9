//! The controller-side sliding-window view of the cluster, and the
//! load-aware policy that turns it into placement decisions.
//!
//! Processors piggyback cumulative metric snapshots on their existing
//! heartbeat load reports; the controller feeds each report into a
//! [`ClusterView`], which keeps a bounded window of observations per
//! processor and answers the three questions placement cares about:
//! per-element rate, p99 latency, and queue depth.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use adn_wire::clock::Clock;
use parking_lot::Mutex;

use crate::metrics::HistogramSnapshot;
use crate::registry::ElementSnapshot;

/// One heartbeat's worth of observability data from one processor.
/// All values are cumulative since processor start; the view differences
/// consecutive observations to recover windowed rates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessorObservation {
    /// Flat endpoint address of the reporting processor.
    pub endpoint: u64,
    /// Cumulative requests processed.
    pub processed: u64,
    /// Instantaneous inbound queue depth at report time.
    pub queue_depth: u64,
    /// Cumulative requests shed by priority admission control.
    pub shed: u64,
    /// Cumulative requests dropped with an exhausted deadline budget.
    pub expired_drops: u64,
    /// Cumulative per-element metric snapshots hosted on this processor.
    pub elements: Vec<ElementSnapshot>,
}

/// One row of the aggregated view, as `adn-top` renders it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewRow {
    /// Application name.
    pub app: String,
    /// Element name.
    pub element: String,
    /// Hosting processor endpoint.
    pub processor: u64,
    /// Sampled executions in the window.
    pub count: u64,
    /// Sampled errors in the window.
    pub errors: u64,
    /// Execution-latency quantiles over the window (ns).
    pub p50_ns: u64,
    /// p95 (ns).
    pub p95_ns: u64,
    /// p99 (ns).
    pub p99_ns: u64,
    /// Max (ns, cumulative — window max is not recoverable from deltas).
    pub max_ns: u64,
    /// Requests/second through the hosting processor over the window.
    pub rate: u64,
    /// Latest reported queue depth of the hosting processor.
    pub queue_depth: u64,
}

const MAX_SAMPLES_PER_PROC: usize = 64;

/// Sliding-window aggregation of [`ProcessorObservation`]s.
///
/// Observation timestamps are durations since the view's [`Clock`] epoch;
/// the controller shares its clock with the view so window aging follows
/// virtual time under the deterministic simulator.
pub struct ClusterView {
    window: Duration,
    clock: Arc<dyn Clock>,
    procs: Mutex<HashMap<u64, VecDeque<(Duration, ProcessorObservation)>>>,
}

impl ClusterView {
    /// A view retaining observations for `window`, timestamped off the
    /// wall clock.
    pub fn new(window: Duration) -> Self {
        Self::with_clock(window, adn_wire::clock::system())
    }

    /// A view retaining observations for `window`, timestamped off `clock`.
    pub fn with_clock(window: Duration, clock: Arc<dyn Clock>) -> Self {
        Self {
            window,
            clock,
            procs: Mutex::new(HashMap::new()),
        }
    }

    /// Feeds one heartbeat observation into the window.
    pub fn observe(&self, obs: ProcessorObservation) {
        self.observe_at(self.clock.now(), obs);
    }

    /// Feeds an observation stamped at an explicit time (since the clock
    /// epoch). The simulator uses this to replay observations at exact
    /// virtual timestamps.
    pub fn observe_at(&self, now: Duration, obs: ProcessorObservation) {
        let mut procs = self.procs.lock();
        let window = procs.entry(obs.endpoint).or_default();
        window.push_back((now, obs));
        while window.len() > MAX_SAMPLES_PER_PROC
            || window
                .front()
                .is_some_and(|(t, _)| now.saturating_sub(*t) > self.window && window.len() > 2)
        {
            window.pop_front();
        }
    }

    /// Forgets a processor (e.g. after failover replaced it).
    pub fn forget(&self, endpoint: u64) {
        self.procs.lock().remove(&endpoint);
    }

    /// Endpoints with at least one observation, sorted.
    pub fn endpoints(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.procs.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Requests/second through `endpoint` over the retained window, or 0
    /// with fewer than two observations.
    pub fn rate(&self, endpoint: u64) -> f64 {
        let procs = self.procs.lock();
        let Some(window) = procs.get(&endpoint) else {
            return 0.0;
        };
        let (Some((t0, first)), Some((t1, last))) = (window.front(), window.back()) else {
            return 0.0;
        };
        let dt = t1.saturating_sub(*t0).as_secs_f64();
        if dt < 1e-3 {
            return 0.0;
        }
        last.processed.saturating_sub(first.processed) as f64 / dt
    }

    /// Requests/second `endpoint` is refusing — shed by admission control
    /// or dropped expired — over the retained window, or 0 with fewer
    /// than two observations. A sustained non-zero shed rate is the
    /// strongest overload signal the cluster emits: unlike queue depth it
    /// cannot be masked by fast draining, because every unit counted here
    /// was work the processor declined outright.
    pub fn shed_rate(&self, endpoint: u64) -> f64 {
        let procs = self.procs.lock();
        let Some(window) = procs.get(&endpoint) else {
            return 0.0;
        };
        let (Some((t0, first)), Some((t1, last))) = (window.front(), window.back()) else {
            return 0.0;
        };
        let dt = t1.saturating_sub(*t0).as_secs_f64();
        if dt < 1e-3 {
            return 0.0;
        }
        let refused = |o: &ProcessorObservation| o.shed + o.expired_drops;
        refused(last).saturating_sub(refused(first)) as f64 / dt
    }

    /// Latest reported queue depth for `endpoint`.
    pub fn queue_depth(&self, endpoint: u64) -> u64 {
        self.procs
            .lock()
            .get(&endpoint)
            .and_then(|w| w.back())
            .map(|(_, o)| o.queue_depth)
            .unwrap_or(0)
    }

    /// Worst per-element p99 (ns) on `endpoint` over the retained window,
    /// or `None` when nothing was sampled there.
    pub fn element_p99(&self, endpoint: u64) -> Option<u64> {
        let procs = self.procs.lock();
        let window = procs.get(&endpoint)?;
        let (_, first) = window.front()?;
        let (_, last) = window.back()?;
        let mut worst = None;
        for e in &last.elements {
            let delta = match first.elements.iter().find(|p| p.key == e.key) {
                Some(p) if window.len() > 1 => e.exec.delta_since(&p.exec),
                _ => e.exec.clone(),
            };
            if delta.count() > 0 {
                let p99 = delta.quantile(0.99);
                worst = Some(worst.map_or(p99, |w: u64| w.max(p99)));
            }
        }
        worst
    }

    /// A comparable load score for `endpoint`: queue depth dominates,
    /// recent request rate breaks ties. Lower is lighter.
    pub fn load_score(&self, endpoint: u64) -> f64 {
        self.queue_depth(endpoint) as f64 * 1_000.0 + self.rate(endpoint)
    }

    /// Flattens the window into per-element rows for display. Rows are
    /// sorted by `(app, element, processor)`.
    pub fn rows(&self) -> Vec<ViewRow> {
        let procs = self.procs.lock();
        let mut rows = Vec::new();
        for (endpoint, window) in procs.iter() {
            let (Some((t0, first)), Some((t1, last))) = (window.front(), window.back()) else {
                continue;
            };
            let dt = t1.saturating_sub(*t0).as_secs_f64();
            let rate = if dt < 1e-3 {
                0
            } else {
                (last.processed.saturating_sub(first.processed) as f64 / dt) as u64
            };
            for e in &last.elements {
                let delta = match first.elements.iter().find(|p| p.key == e.key) {
                    Some(p) if window.len() > 1 => {
                        let exec = e.exec.delta_since(&p.exec);
                        ElementSnapshot {
                            key: e.key.clone(),
                            count: e.count.saturating_sub(p.count),
                            errors: e.errors.saturating_sub(p.errors),
                            exec,
                        }
                    }
                    _ => e.clone(),
                };
                rows.push(ViewRow {
                    app: delta.key.app.clone(),
                    element: delta.key.element.clone(),
                    processor: *endpoint,
                    count: delta.count,
                    errors: delta.errors,
                    p50_ns: delta.exec.quantile(0.5),
                    p95_ns: delta.exec.quantile(0.95),
                    p99_ns: delta.exec.quantile(0.99),
                    max_ns: delta.exec.max(),
                    rate,
                    queue_depth: last.queue_depth,
                });
            }
        }
        rows.sort_by(|a, b| {
            (&a.app, &a.element, a.processor).cmp(&(&b.app, &b.element, b.processor))
        });
        rows
    }

    /// Merges every element histogram across the cluster into one
    /// distribution per `(app, element)` — the input to
    /// `paper_eval --latency-breakdown`.
    pub fn merged_by_element(&self) -> Vec<(String, String, HistogramSnapshot)> {
        let procs = self.procs.lock();
        let mut merged: HashMap<(String, String), HistogramSnapshot> = HashMap::new();
        for window in procs.values() {
            let Some((_, last)) = window.back() else {
                continue;
            };
            for e in &last.elements {
                merged
                    .entry((e.key.app.clone(), e.key.element.clone()))
                    .or_default()
                    .merge(&e.exec);
            }
        }
        let mut out: Vec<_> = merged
            .into_iter()
            .map(|((app, element), h)| (app, element, h))
            .collect();
        out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        out
    }
}

impl std::fmt::Debug for ClusterView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterView")
            .field("window", &self.window)
            .field("processors", &self.procs.lock().len())
            .finish()
    }
}

/// Thresholded placement policy over a [`ClusterView`]. Replaces the
/// signal-free round-robin heuristics: new element groups go to the
/// lightest processor, and a p99, queue-depth or shed-rate breach asks the
/// controller for a scale-out, which it performs once per group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadAwarePolicy {
    /// Scale out when any element's windowed p99 exceeds this (ns).
    pub p99_threshold_ns: u64,
    /// Scale out when the processor's queue depth exceeds this.
    pub queue_depth_threshold: u64,
    /// Scale out when the processor refuses (sheds + expired-drops) more
    /// than this many requests/second over the window. Shedding protects
    /// goodput but every shed is a request the cluster failed to serve,
    /// so a sustained shed rate is a capacity breach, not a steady state.
    pub shed_rate_threshold: u64,
}

impl Default for LoadAwarePolicy {
    fn default() -> Self {
        Self {
            p99_threshold_ns: 50_000_000, // 50 ms
            queue_depth_threshold: 64,
            shed_rate_threshold: 10,
        }
    }
}

impl LoadAwarePolicy {
    /// The lightest-loaded candidate (ties broken toward the lower
    /// address for determinism), or `None` when `candidates` is empty.
    pub fn prefer(&self, view: &ClusterView, candidates: &[u64]) -> Option<u64> {
        candidates
            .iter()
            .copied()
            .map(|ep| (view.load_score(ep), ep))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            })
            .map(|(_, ep)| ep)
    }

    /// Whether `endpoint` currently breaches any threshold.
    pub fn breached(&self, view: &ClusterView, endpoint: u64) -> bool {
        if view.queue_depth(endpoint) > self.queue_depth_threshold {
            return true;
        }
        if view.shed_rate(endpoint) > self.shed_rate_threshold as f64 {
            return true;
        }
        view.element_p99(endpoint)
            .is_some_and(|p99| p99 > self.p99_threshold_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricKey;

    fn obs(endpoint: u64, processed: u64, queue_depth: u64) -> ProcessorObservation {
        ProcessorObservation {
            endpoint,
            processed,
            queue_depth,
            shed: 0,
            expired_drops: 0,
            elements: vec![],
        }
    }

    #[test]
    fn rate_needs_two_observations() {
        // Drive the view off a virtual clock advanced in controlled jumps:
        // the windowed rate is exact, not a wall-clock approximation.
        let clock = adn_wire::clock::VirtualClock::shared();
        let view = ClusterView::with_clock(Duration::from_secs(10), clock.clone());
        view.observe(obs(5, 100, 0));
        assert_eq!(view.rate(5), 0.0);
        clock.advance(Duration::from_secs(2));
        view.observe(obs(5, 300, 0));
        assert!((view.rate(5) - 100.0).abs() < 1.0);
    }

    #[test]
    fn old_samples_age_out_but_two_remain() {
        let clock = adn_wire::clock::VirtualClock::shared();
        let view = ClusterView::with_clock(Duration::from_millis(10), clock.clone());
        for i in 0..5u64 {
            clock.advance_to(Duration::from_secs(i));
            view.observe(obs(5, i * 10, 0));
        }
        // Everything but the last two is far older than the window.
        let procs = view.procs.lock();
        assert_eq!(procs.get(&5).unwrap().len(), 2);
    }

    #[test]
    fn policy_prefers_idle_processor() {
        let view = ClusterView::new(Duration::from_secs(10));
        view.observe(obs(5, 1_000, 40));
        view.observe(obs(6, 10, 0));
        let policy = LoadAwarePolicy::default();
        assert_eq!(policy.prefer(&view, &[5, 6]), Some(6));
        assert_eq!(policy.prefer(&view, &[]), None);
    }

    #[test]
    fn breach_on_queue_depth_and_p99() {
        let view = ClusterView::new(Duration::from_secs(10));
        let policy = LoadAwarePolicy {
            p99_threshold_ns: 1_000,
            queue_depth_threshold: 8,
            ..LoadAwarePolicy::default()
        };
        view.observe(obs(5, 10, 9));
        assert!(policy.breached(&view, 5));

        let mut hot = HistogramSnapshot::new();
        for _ in 0..100 {
            hot.record(50_000);
        }
        view.observe(ProcessorObservation {
            endpoint: 6,
            processed: 10,
            queue_depth: 0,
            shed: 0,
            expired_drops: 0,
            elements: vec![ElementSnapshot {
                key: MetricKey {
                    app: "shop".into(),
                    element: "Acl".into(),
                    processor: 6,
                },
                count: 100,
                errors: 0,
                exec: hot,
            }],
        });
        assert!(policy.breached(&view, 6));
        assert!(!policy.breached(&view, 7));
    }

    #[test]
    fn shed_rate_is_windowed_and_breaches_the_policy() {
        let clock = adn_wire::clock::VirtualClock::shared();
        let view = ClusterView::with_clock(Duration::from_secs(10), clock.clone());
        let policy = LoadAwarePolicy {
            shed_rate_threshold: 5,
            ..LoadAwarePolicy::default()
        };
        // One observation is not a rate.
        view.observe(ProcessorObservation {
            shed: 100,
            expired_drops: 50,
            ..obs(5, 10, 0)
        });
        assert_eq!(view.shed_rate(5), 0.0);
        assert!(!policy.breached(&view, 5));
        // 20 sheds + 20 expired drops over 2 s = 20/s: breach.
        clock.advance(Duration::from_secs(2));
        view.observe(ProcessorObservation {
            shed: 120,
            expired_drops: 70,
            ..obs(5, 40, 0)
        });
        assert!((view.shed_rate(5) - 20.0).abs() < 0.5);
        assert!(policy.breached(&view, 5));
        // A quiet endpoint with the same cumulative totals does not
        // breach: the signal is the windowed delta, not the lifetime sum.
        clock.advance(Duration::from_secs(2));
        view.observe(ProcessorObservation {
            shed: 120,
            expired_drops: 70,
            ..obs(6, 40, 0)
        });
        clock.advance(Duration::from_secs(2));
        view.observe(ProcessorObservation {
            shed: 121,
            expired_drops: 70,
            ..obs(6, 80, 0)
        });
        assert!(!policy.breached(&view, 6));
    }

    #[test]
    fn rows_and_merges_cover_elements() {
        let view = ClusterView::new(Duration::from_secs(10));
        let mut h = HistogramSnapshot::new();
        h.record(1_000);
        view.observe(ProcessorObservation {
            endpoint: 5,
            processed: 1,
            queue_depth: 2,
            shed: 0,
            expired_drops: 0,
            elements: vec![ElementSnapshot {
                key: MetricKey {
                    app: "shop".into(),
                    element: "Acl".into(),
                    processor: 5,
                },
                count: 1,
                errors: 0,
                exec: h,
            }],
        });
        let rows = view.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].element, "Acl");
        assert_eq!(rows[0].queue_depth, 2);
        let merged = view.merged_by_element();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].2.count(), 1);
    }
}
