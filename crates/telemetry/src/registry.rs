//! The process-wide metric registry, keyed by `(app, element, processor)`,
//! plus the snapshot/delta encoding that rides on heartbeats.
//!
//! Ad-hoc counters that predate the registry (chaos-link injection stats,
//! client retry/breaker stats, processor frame counters) plug in as
//! *sources*: closures polled at snapshot time that contribute flat named
//! counters, so one snapshot shows the whole system.

use std::collections::HashMap;
use std::sync::Arc;

use adn_wire::{Decoder, Encoder, WireError, WireResult};
use parking_lot::RwLock;

use crate::metrics::{Counter, Histogram, HistogramSnapshot};

/// Identity of one metric series.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MetricKey {
    /// Application name.
    pub app: String,
    /// Element (chain stage) name.
    pub element: String,
    /// Flat endpoint address of the processor hosting the element.
    pub processor: u64,
}

/// Live metrics for one element instance on one processor.
#[derive(Debug, Default)]
pub struct ElementMetrics {
    /// Sampled executions observed (not total traffic — see the sampling
    /// semantics in `docs/observability.md`).
    pub count: Counter,
    /// Sampled executions that ended in a non-forward verdict.
    pub errors: Counter,
    /// Per-execution latency in nanoseconds.
    pub exec: Histogram,
}

impl ElementMetrics {
    /// Records one sampled execution.
    pub fn observe(&self, exec_ns: u64, forwarded: bool) {
        self.count.inc();
        if !forwarded {
            self.errors.inc();
        }
        self.exec.record(exec_ns);
    }
}

/// Immutable copy of one element's metrics, as shipped on heartbeats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementSnapshot {
    /// Series identity.
    pub key: MetricKey,
    /// Sampled executions.
    pub count: u64,
    /// Sampled non-forward verdicts.
    pub errors: u64,
    /// Execution latency distribution (ns).
    pub exec: HistogramSnapshot,
}

impl ElementSnapshot {
    /// Encodes onto `enc`.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.key.app);
        enc.put_str(&self.key.element);
        enc.put_varint(self.key.processor);
        enc.put_varint(self.count);
        enc.put_varint(self.errors);
        self.exec.encode(enc);
    }

    /// Decodes a snapshot written by [`ElementSnapshot::encode`].
    pub fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(Self {
            key: MetricKey {
                app: dec.get_str()?.to_owned(),
                element: dec.get_str()?.to_owned(),
                processor: dec.get_varint()?,
            },
            count: dec.get_varint()?,
            errors: dec.get_varint()?,
            exec: HistogramSnapshot::decode(dec)?,
        })
    }
}

type SourceFn = Box<dyn Fn() -> Vec<(String, u64)> + Send + Sync>;

/// The registry: element series created on demand, external counter
/// sources polled at snapshot time.
#[derive(Default)]
pub struct Registry {
    elements: RwLock<HashMap<MetricKey, Arc<ElementMetrics>>>,
    sources: RwLock<Vec<SourceFn>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the series for `(app, element, processor)`.
    pub fn element(&self, app: &str, element: &str, processor: u64) -> Arc<ElementMetrics> {
        let key = MetricKey {
            app: app.to_owned(),
            element: element.to_owned(),
            processor,
        };
        if let Some(m) = self.elements.read().get(&key) {
            return m.clone();
        }
        self.elements
            .write()
            .entry(key)
            .or_insert_with(|| Arc::new(ElementMetrics::default()))
            .clone()
    }

    /// Registers an external counter source (e.g. chaos-link or client
    /// retry stats). Polled on every [`Registry::snapshot`]; each returned
    /// pair is a flat `name → cumulative count`.
    pub fn register_source(&self, f: impl Fn() -> Vec<(String, u64)> + Send + Sync + 'static) {
        self.sources.write().push(Box::new(f));
    }

    /// Snapshots every element series plus all external sources.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut elements: Vec<ElementSnapshot> = self
            .elements
            .read()
            .iter()
            .map(|(key, m)| ElementSnapshot {
                key: key.clone(),
                count: m.count.get(),
                errors: m.errors.get(),
                exec: m.exec.snapshot(),
            })
            .collect();
        elements.sort_by(|a, b| {
            (&a.key.app, &a.key.element, a.key.processor).cmp(&(
                &b.key.app,
                &b.key.element,
                b.key.processor,
            ))
        });
        let mut counters = Vec::new();
        for src in self.sources.read().iter() {
            counters.extend(src());
        }
        counters.sort();
        RegistrySnapshot { elements, counters }
    }

    /// Snapshots only the series for one app on one processor — the slice a
    /// processor piggybacks on its heartbeat.
    pub fn snapshot_for(&self, app: &str, processor: u64) -> Vec<ElementSnapshot> {
        let mut out: Vec<ElementSnapshot> = self
            .elements
            .read()
            .iter()
            .filter(|(key, _)| key.app == app && key.processor == processor)
            .map(|(key, m)| ElementSnapshot {
                key: key.clone(),
                count: m.count.get(),
                errors: m.errors.get(),
                exec: m.exec.snapshot(),
            })
            .collect();
        out.sort_by(|a, b| a.key.element.cmp(&b.key.element));
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("series", &self.elements.read().len())
            .field("sources", &self.sources.read().len())
            .finish()
    }
}

/// A full registry snapshot: element series plus flat external counters.
/// Cumulative by construction; use [`RegistrySnapshot::delta_since`] for
/// windowed views.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    /// Per-element series, sorted by `(app, element, processor)`.
    pub elements: Vec<ElementSnapshot>,
    /// External counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl RegistrySnapshot {
    /// Encodes the snapshot into a byte vector using the wire codec.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_varint(self.elements.len() as u64);
        for e in &self.elements {
            e.encode(&mut enc);
        }
        enc.put_varint(self.counters.len() as u64);
        for (name, v) in &self.counters {
            enc.put_str(name);
            enc.put_varint(*v);
        }
        enc.into_bytes()
    }

    /// Decodes a snapshot written by [`RegistrySnapshot::encode`].
    pub fn decode(bytes: &[u8]) -> WireResult<Self> {
        let mut dec = Decoder::new(bytes);
        let n = dec.get_varint()? as usize;
        let mut elements = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            elements.push(ElementSnapshot::decode(&mut dec)?);
        }
        let m = dec.get_varint()? as usize;
        let mut counters = Vec::with_capacity(m.min(4096));
        for _ in 0..m {
            counters.push((dec.get_str()?.to_owned(), dec.get_varint()?));
        }
        if !dec.is_exhausted() {
            return Err(WireError::Malformed("trailing bytes after snapshot"));
        }
        Ok(Self { elements, counters })
    }

    /// The change since `prev`: per-series count/histogram differences and
    /// counter differences. Series absent from `prev` appear whole.
    pub fn delta_since(&self, prev: &RegistrySnapshot) -> RegistrySnapshot {
        let prev_elems: HashMap<&MetricKey, &ElementSnapshot> =
            prev.elements.iter().map(|e| (&e.key, e)).collect();
        let elements = self
            .elements
            .iter()
            .map(|e| match prev_elems.get(&e.key) {
                Some(p) => ElementSnapshot {
                    key: e.key.clone(),
                    count: e.count.saturating_sub(p.count),
                    errors: e.errors.saturating_sub(p.errors),
                    exec: e.exec.delta_since(&p.exec),
                },
                None => e.clone(),
            })
            .collect();
        let prev_counters: HashMap<&str, u64> = prev
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| {
                (
                    n.clone(),
                    v.saturating_sub(prev_counters.get(n.as_str()).copied().unwrap_or(0)),
                )
            })
            .collect();
        RegistrySnapshot { elements, counters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_series_are_shared() {
        let r = Registry::new();
        let a = r.element("shop", "Acl", 200);
        let b = r.element("shop", "Acl", 200);
        a.observe(1000, true);
        b.observe(2000, false);
        let snap = r.snapshot();
        assert_eq!(snap.elements.len(), 1);
        assert_eq!(snap.elements[0].count, 2);
        assert_eq!(snap.elements[0].errors, 1);
    }

    #[test]
    fn sources_contribute_counters() {
        let r = Registry::new();
        r.register_source(|| vec![("chaos.dropped".into(), 3), ("chaos.passed".into(), 9)]);
        r.register_source(|| vec![("client.retries".into(), 1)]);
        let snap = r.snapshot();
        assert_eq!(
            snap.counters,
            vec![
                ("chaos.dropped".into(), 3),
                ("chaos.passed".into(), 9),
                ("client.retries".into(), 1),
            ]
        );
    }

    #[test]
    fn snapshot_roundtrips_and_deltas() {
        let r = Registry::new();
        r.element("shop", "Acl", 200).observe(500, true);
        r.register_source(|| vec![("x".into(), 5)]);
        let first = r.snapshot();
        let decoded = RegistrySnapshot::decode(&first.encode()).unwrap();
        assert_eq!(decoded, first);

        r.element("shop", "Acl", 200).observe(700, true);
        let second = r.snapshot();
        let delta = second.delta_since(&first);
        assert_eq!(delta.elements[0].count, 1);
        assert_eq!(delta.elements[0].exec.count(), 1);
        assert_eq!(delta.counters, vec![("x".into(), 0)]);
    }

    #[test]
    fn snapshot_for_filters_by_app_and_processor() {
        let r = Registry::new();
        r.element("shop", "Acl", 200).observe(1, true);
        r.element("shop", "Logging", 201).observe(1, true);
        r.element("other", "Acl", 200).observe(1, true);
        let slice = r.snapshot_for("shop", 200);
        assert_eq!(slice.len(), 1);
        assert_eq!(slice[0].key.element, "Acl");
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let r = Registry::new();
        r.element("a", "E", 1).observe(42, true);
        let bytes = r.snapshot().encode();
        for cut in 0..bytes.len() {
            assert!(
                RegistrySnapshot::decode(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }
}
