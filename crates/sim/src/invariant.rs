//! Invariant checkers evaluated after every simulated event.
//!
//! A checker reads the run's [`Facts`] — it never touches node state —
//! and returns `Err(detail)` the moment its property is violated, which
//! pins the violation to an exact event index for replay and shrinking.
//! Checkers may keep cursors into append-only fact vectors so each event
//! costs O(new facts), not O(history).
//!
//! To add a new invariant: implement [`Invariant`], decide whether the
//! property is *stepwise* (checkable from the facts at any instant —
//! put it in `check`) or *terminal* (only meaningful once the run drains
//! — put it in `check_end`), and register it in [`invariants_for`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

use crate::nodes::Facts;
use crate::scenario::Scenario;

/// A violated invariant, pinned to the event that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the failed invariant.
    pub invariant: String,
    /// 1-based index of the event after which the check failed.
    pub at_event: u64,
    /// Virtual time of that event, in nanoseconds.
    pub at_ns: u64,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant {} violated at event {} (t={}ns): {}",
            self.invariant, self.at_event, self.at_ns, self.detail
        )
    }
}

/// A property of the whole cluster, checked continuously.
pub trait Invariant {
    /// Stable name used in reports and replay output.
    fn name(&self) -> &'static str;
    /// Checked after every processed event.
    fn check(&mut self, now: Duration, facts: &Facts) -> Result<(), String>;
    /// Checked once, after the event queue drains (skipped on truncated
    /// or already-failed runs).
    fn check_end(&mut self, _now: Duration, _facts: &Facts) -> Result<(), String> {
        Ok(())
    }
}

/// No call id is ever executed twice at the server, regardless of
/// retransmits, duplicated frames, failovers, or reroutes.
pub struct AtMostOnce;

impl Invariant for AtMostOnce {
    fn name(&self) -> &'static str {
        "at-most-once"
    }
    fn check(&mut self, _now: Duration, facts: &Facts) -> Result<(), String> {
        if let Some((call_id, count)) = facts.last_exec {
            if count > 1 {
                return Err(format!(
                    "call {call_id} executed {count} times at the server"
                ));
            }
        }
        Ok(())
    }
}

/// Every issued call resolves, and — unless the scenario tolerates
/// timeouts — none resolves by timing out. Under reconfiguration on a
/// clean link this is the paper's zero-loss property.
pub struct ZeroLoss {
    allow_timeouts: bool,
}

impl ZeroLoss {
    /// Strict when `allow_timeouts` is false.
    pub fn new(allow_timeouts: bool) -> Self {
        Self { allow_timeouts }
    }
}

impl Invariant for ZeroLoss {
    fn name(&self) -> &'static str {
        "zero-loss"
    }
    fn check(&mut self, _now: Duration, facts: &Facts) -> Result<(), String> {
        if !self.allow_timeouts && facts.calls_timed_out > 0 {
            return Err(format!(
                "{} call(s) timed out in a scenario that promises zero loss",
                facts.calls_timed_out
            ));
        }
        Ok(())
    }
    fn check_end(&mut self, _now: Duration, facts: &Facts) -> Result<(), String> {
        if facts.calls_resolved() != facts.calls_issued {
            return Err(format!(
                "{} of {} calls never resolved",
                facts.calls_issued - facts.calls_resolved(),
                facts.calls_issued
            ));
        }
        Ok(())
    }
}

/// Every recorded span's parent is either the client (parent id 0) or a
/// span already recorded for the same trace — i.e. traces always form
/// well-rooted trees, even under duplication, retries, and NAT.
#[derive(Default)]
pub struct TraceWellFormed {
    cursor: usize,
    seen: BTreeMap<u64, BTreeSet<u64>>,
}

impl Invariant for TraceWellFormed {
    fn name(&self) -> &'static str {
        "trace-well-formed"
    }
    fn check(&mut self, _now: Duration, facts: &Facts) -> Result<(), String> {
        while self.cursor < facts.spans.len() {
            let s = facts.spans[self.cursor];
            self.cursor += 1;
            let seen = self.seen.entry(s.trace_id).or_default();
            if s.parent_span != 0 && !seen.contains(&s.parent_span) {
                return Err(format!(
                    "span {:#x} (processor {}) of trace {:#x} has unknown parent {:#x}",
                    s.span_id, s.processor, s.trace_id, s.parent_span
                ));
            }
            seen.insert(s.span_id);
        }
        Ok(())
    }
}

/// Every killed processor is failed over within the controller's
/// promised bound (heartbeat timeout + detection sweeps + slack).
pub struct FailoverLiveness {
    bound: Duration,
}

impl FailoverLiveness {
    /// Checks repairs against `bound` past the kill time.
    pub fn new(bound: Duration) -> Self {
        Self { bound }
    }
}

impl Invariant for FailoverLiveness {
    fn name(&self) -> &'static str {
        "failover-liveness"
    }
    fn check(&mut self, now: Duration, facts: &Facts) -> Result<(), String> {
        for (addr, t_kill) in &facts.kills {
            match facts.failovers.get(addr) {
                Some(t_fail) if *t_fail >= *t_kill => {
                    let took = t_fail.saturating_sub(*t_kill);
                    if took > self.bound {
                        return Err(format!(
                            "processor {addr} repaired after {}ns, bound is {}ns",
                            took.as_nanos(),
                            self.bound.as_nanos()
                        ));
                    }
                }
                _ => {
                    if now > *t_kill + self.bound {
                        return Err(format!(
                            "processor {addr} killed at {}ns still dead at {}ns (bound {}ns)",
                            t_kill.as_nanos(),
                            now.as_nanos(),
                            self.bound.as_nanos()
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The server never executes a request whose in-band deadline budget
/// was already exhausted on arrival — expired work must die at an
/// admission check, not burn service time. Armed whenever the upstream
/// processors promise expired-drop (and vacuous when no deadlines are
/// stamped at all).
pub struct NoExpiredExecution;

impl Invariant for NoExpiredExecution {
    fn name(&self) -> &'static str {
        "no-expired-execution"
    }
    fn check(&mut self, _now: Duration, facts: &Facts) -> Result<(), String> {
        if facts.expired_executions > 0 {
            return Err(format!(
                "{} call(s) executed after their deadline budget was exhausted",
                facts.expired_executions
            ));
        }
        Ok(())
    }
}

/// Under overload with the shed ladder armed, goodput degrades
/// gracefully instead of collapsing: at least `floor` of all issued
/// calls must still complete `Ok`. The overload presets offer 2×
/// capacity, so the floor asserts that shedding protects roughly the
/// admitted (higher-priority) half of the load.
pub struct GoodputFloor {
    floor: f64,
}

impl GoodputFloor {
    /// Requires `calls_ok / calls_issued >= floor` at the end of a run.
    pub fn new(floor: f64) -> Self {
        Self { floor }
    }
}

impl Invariant for GoodputFloor {
    fn name(&self) -> &'static str {
        "goodput-floor"
    }
    fn check(&mut self, _now: Duration, _facts: &Facts) -> Result<(), String> {
        Ok(())
    }
    fn check_end(&mut self, _now: Duration, facts: &Facts) -> Result<(), String> {
        if facts.calls_issued == 0 {
            return Ok(());
        }
        let frac = facts.calls_ok as f64 / facts.calls_issued as f64;
        if frac + 1e-9 < self.floor {
            return Err(format!(
                "goodput {frac:.3} ({} ok of {} issued) below floor {:.3}",
                facts.calls_ok, facts.calls_issued, self.floor
            ));
        }
        Ok(())
    }
}

/// The checker set for a scenario: the four universal invariants plus the
/// overload pair when an overload model is armed. Failover liveness is
/// always armed — with no kills it is vacuous.
pub fn invariants_for(s: &Scenario) -> Vec<Box<dyn Invariant>> {
    let mut invs: Vec<Box<dyn Invariant>> = vec![
        Box::new(AtMostOnce),
        Box::new(ZeroLoss::new(s.allow_timeouts)),
        Box::new(TraceWellFormed::default()),
        Box::new(FailoverLiveness::new(s.failover_bound())),
    ];
    if s.overload.as_ref().is_none_or(|m| m.policy.drop_expired) {
        invs.push(Box::new(NoExpiredExecution));
    }
    if let Some(m) = &s.overload {
        if m.goodput_floor > 0.0 {
            invs.push(Box::new(GoodputFloor::new(m.goodput_floor)));
        }
    }
    invs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::SpanFact;

    #[test]
    fn at_most_once_flags_double_execution() {
        let mut facts = Facts {
            last_exec: Some((7, 1)),
            ..Facts::default()
        };
        assert!(AtMostOnce.check(Duration::ZERO, &facts).is_ok());
        facts.last_exec = Some((7, 2));
        assert!(AtMostOnce.check(Duration::ZERO, &facts).is_err());
    }

    #[test]
    fn trace_checker_requires_known_parents() {
        let mut inv = TraceWellFormed::default();
        let mut facts = Facts::default();
        facts.spans.push(SpanFact {
            trace_id: 1,
            span_id: 10,
            parent_span: 0,
            processor: 50,
        });
        facts.spans.push(SpanFact {
            trace_id: 1,
            span_id: 11,
            parent_span: 10,
            processor: 51,
        });
        assert!(inv.check(Duration::ZERO, &facts).is_ok());
        facts.spans.push(SpanFact {
            trace_id: 1,
            span_id: 12,
            parent_span: 99, // never recorded
            processor: 52,
        });
        assert!(inv.check(Duration::ZERO, &facts).is_err());
    }

    #[test]
    fn failover_liveness_waits_for_the_bound() {
        let mut inv = FailoverLiveness::new(Duration::from_millis(200));
        let mut facts = Facts::default();
        facts.kills.insert(50, Duration::from_millis(100));
        // Inside the bound: no verdict yet.
        assert!(inv.check(Duration::from_millis(250), &facts).is_ok());
        // Past the bound with no repair: violation.
        assert!(inv.check(Duration::from_millis(301), &facts).is_err());
        // Repaired in time: clean.
        facts.failovers.insert(50, Duration::from_millis(220));
        assert!(inv.check(Duration::from_millis(301), &facts).is_ok());
    }
}
