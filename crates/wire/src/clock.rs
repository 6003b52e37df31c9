//! Time source abstraction shared by every layer above the wire.
//!
//! The runtime crates (rpc, dataplane, controller, telemetry) all need a
//! notion of "now" for retry deadlines, circuit-breaker cooldowns, heartbeat
//! ages, and observation windows. Reading `Instant::now()` directly
//! hard-wires those paths to the wall clock, which makes whole-cluster tests
//! nondeterministic and slow (every timeout is a real sleep). This module
//! splits the dependency: production code runs on [`SystemClock`], and the
//! deterministic simulator (`adn-sim`) substitutes a [`VirtualClock`] it
//! advances explicitly.
//!
//! Timestamps are [`Duration`]s since the clock's epoch rather than
//! [`Instant`]s, because `Instant` values cannot be fabricated at arbitrary
//! points — a virtual clock must be able to jump to any timestamp.
//!
//! The trait lives here (and not in `adn-rpc`) because `adn-telemetry` needs
//! it too and depends only on `adn-wire`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source. `now()` is the elapsed time since the clock's
/// epoch; `sleep(d)` blocks (or, for virtual clocks, advances time) by `d`.
pub trait Clock: Send + Sync {
    /// Monotonic time since this clock's epoch.
    fn now(&self) -> Duration;

    /// Waits for `d` to pass on this clock.
    fn sleep(&self, d: Duration);
}

/// Wall-clock implementation: epoch is the moment of construction, `sleep`
/// is a real thread sleep.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// A shared wall clock, the default everywhere a caller does not supply one.
pub fn system() -> Arc<dyn Clock> {
    Arc::new(SystemClock::new())
}

/// Virtual time under explicit control. `now()` returns whatever the owner
/// last set; `sleep(d)` advances virtual time by `d` without blocking, so
/// code written against [`Clock`] (retry backoffs, cooldowns) runs in zero
/// wall time under test. Stored as nanoseconds; saturates at `u64::MAX`
/// (~584 years), far beyond any simulated horizon.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared virtual clock at time zero.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Advances virtual time by `d`.
    pub fn advance(&self, d: Duration) {
        let d_ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let mut cur = self.now_ns.load(Ordering::SeqCst);
        loop {
            let next = cur.saturating_add(d_ns);
            match self
                .now_ns
                .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Jumps virtual time forward to `t` (no-op if `t` is in the past —
    /// the clock never runs backwards).
    pub fn advance_to(&self, t: Duration) {
        let t_ns = u64::try_from(t.as_nanos()).unwrap_or(u64::MAX);
        self.now_ns.fetch_max(t_ns, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.now_ns.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_advances_only_when_told() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(5));
        assert_eq!(clock.now(), Duration::from_millis(5));
        // A long "sleep" is instantaneous and lands exactly.
        let t0 = Instant::now();
        clock.sleep(Duration::from_secs(3600));
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert_eq!(
            clock.now(),
            Duration::from_secs(3600) + Duration::from_millis(5)
        );
    }

    #[test]
    fn virtual_clock_never_runs_backwards() {
        let clock = VirtualClock::new();
        clock.advance_to(Duration::from_secs(10));
        clock.advance_to(Duration::from_secs(4));
        assert_eq!(clock.now(), Duration::from_secs(10));
    }
}
