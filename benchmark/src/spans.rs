//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Spans are kept in memory during the traced run and written out when it
//! ends. A span names the layer boundary it wraps, its start and end, the
//! span that caused it, and an identifier shared by the spans of one unit
//! of work (a call id, or a probe block index). Spans inside the program
//! are a later change; these are taken from outside.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Map, Value};

/// Ceiling on recorded spans; beyond it spans are counted, not kept.
const MAX_SPANS: usize = 1 << 18;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<u32>,
    /// Call id or block index shared by the spans of one unit of work.
    pub id: u64,
}

/// In-memory span store; `None` recorder means tracing is off and every
/// call site is a branch on an `Option`.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Nanoseconds since the recorder was created.
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        id: u64,
    ) -> Option<u32> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Opens a span whose end is set later by [`Recorder::close`]; used
    /// for the phase spans that parent everything recorded inside them.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, id: u64) -> Option<u32> {
        let now = Instant::now();
        self.record(name, now, now, parent, id)
    }

    pub fn close(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            self.spans[i as usize].end_ns = self.ns(Instant::now());
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many, total duration, total self time (ns).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.end_ns - span.start_ns;
            e.2 += self_ns;
        }
        out
    }

    /// The span file: every span plus the per-name summary.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let summary: Map = self
            .summary()
            .into_iter()
            .map(|(name, (count, total, self_ns))| {
                (
                    name.to_owned(),
                    json!({"count": count, "total_ns": total, "self_ns": self_ns}),
                )
            })
            .collect();
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                json!({
                    "i": i,
                    "name": (span.name),
                    "start_ns": (span.start_ns),
                    "end_ns": (span.end_ns),
                    "parent": (span.parent.map_or(Value::Null, Value::from)),
                    "id": (span.id),
                })
            })
            .collect();
        json!({
            "workload": workload,
            "seed": seed,
            "dropped": (self.dropped),
            "summary": (Value::Object(summary)),
            "spans": spans,
        })
        .to_string()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` by 10 ns: the union covers 10..50.
            span("b", 20, 50, Some(0)),
            // Sticks out past the parent: only 90..100 counts.
            span("c", 90, 120, Some(0)),
            span("leaf", 12, 18, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn summary_groups_by_name_and_file_is_well_formed() {
        let mut r = Recorder::new();
        let t0 = r.epoch;
        let at = |ns: u64| t0 + std::time::Duration::from_nanos(ns);
        let root = r.record("run", at(0), at(1000), None, 0);
        r.record("send", at(100), at(300), root, 7);
        r.record("send", at(400), at(500), root, 8);
        let summary = r.summary();
        assert_eq!(summary["send"], (2, 300, 300));
        assert_eq!(summary["run"], (1, 1000, 700));
        let file: Value = serde_json::from_str(&r.to_json("w", 3)).expect("well-formed");
        assert_eq!(file.get("workload").and_then(Value::as_str), Some("w"));
        assert_eq!(file.get("seed").and_then(Value::as_u64), Some(3));
        let spans = file.get("spans").and_then(Value::as_array).expect("spans");
        assert_eq!(spans.len(), 3);
        assert!(spans[0].get("parent").is_some_and(Value::is_null));
        let send = &spans[1];
        assert_eq!(send.get("name").and_then(Value::as_str), Some("send"));
        assert_eq!(send.get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(send.get("id").and_then(Value::as_u64), Some(7));
        let of_send = file
            .get("summary")
            .and_then(|s| s.get("send"))
            .expect("summary");
        assert_eq!(of_send.get("self_ns").and_then(Value::as_u64), Some(300));
    }
}
