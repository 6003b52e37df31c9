//! The deterministic heart of the simulator: a virtual clock, a seeded
//! RNG, and a priority queue of timed events processed one at a time on a
//! single thread.
//!
//! Determinism contract: given the same seed and the same scenario, the
//! executor pops the same events at the same virtual times in the same
//! order, the RNG produces the same draws, and the event log comes out
//! byte-identical. Three rules keep that true:
//!
//! 1. **Total order.** Events are ordered by `(virtual time, sequence
//!    number)`. The sequence number is assigned at scheduling time, so two
//!    events scheduled for the same instant pop in scheduling order —
//!    `BinaryHeap`'s tie-breaking never shows through.
//! 2. **One RNG.** Every random draw in a run (chaos rolls, latency
//!    jitter, retry jitter) comes from the single executor RNG, seeded
//!    from the run seed. Node models never own a generator.
//! 3. **No wall clock.** The log carries virtual nanoseconds only; real
//!    time never enters an event, a timestamp, or a log line.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;

use adn_rpc::transport::Frame;
use adn_wire::clock::{Clock, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything that can happen in a simulated cluster. Scenario hooks
/// (kill, migrate, partition) are ordinary events so they interleave with
/// traffic deterministically.
#[derive(Debug, Clone)]
pub enum Event {
    /// The closed-loop client mints call `index` of the workload.
    IssueCall {
        /// Zero-based workload index; determines call id, object and user.
        index: u64,
    },
    /// The client transmits (or retransmits) a call.
    SendAttempt {
        /// Correlation id of the call.
        call_id: u64,
        /// 1-based attempt number this transmission belongs to.
        attempt: u32,
    },
    /// The per-attempt timer fired; the client decides retry vs. give-up.
    RetryFire {
        /// Correlation id of the call.
        call_id: u64,
        /// Attempt the timer was armed for; stale if the call moved on.
        attempt: u32,
    },
    /// A frame arrives at its destination endpoint.
    Deliver {
        /// The frame, exactly as sent (possibly a chaos duplicate).
        frame: Frame,
    },
    /// A batching processor drains its inbox (scheduled one batch window
    /// after the first frame lands; never emitted when `batch == 1`).
    FlushBatch {
        /// Flat endpoint address of the draining processor.
        addr: u64,
    },
    /// Controller sweep: collect heartbeats, fail over dead processors,
    /// evaluate autoscale.
    Sweep,
    /// Controller checkpoint: snapshot element state of live processors.
    Checkpoint,
    /// Scenario hook: the processor at `addr` crashes (stops heartbeating
    /// and blackholes frames).
    Kill {
        /// Flat endpoint address of the victim.
        addr: u64,
    },
    /// Scenario hook: live-migrate the processor at `addr` (export state,
    /// rebuild, import — the sim analog of `migrate_processor`).
    Migrate {
        /// Flat endpoint address of the processor to migrate.
        addr: u64,
    },
    /// Scenario hook: the client ↔ chain-entry link partitions.
    PartitionStart,
    /// Scenario hook: the partition heals.
    PartitionEnd,
}

impl Event {
    /// Short tag used in log lines.
    pub fn tag(&self) -> &'static str {
        match self {
            Event::IssueCall { .. } => "issue",
            Event::SendAttempt { .. } => "send",
            Event::RetryFire { .. } => "retry_fire",
            Event::Deliver { .. } => "deliver",
            Event::FlushBatch { .. } => "flush_batch",
            Event::Sweep => "sweep",
            Event::Checkpoint => "checkpoint",
            Event::Kill { .. } => "kill",
            Event::Migrate { .. } => "migrate",
            Event::PartitionStart => "partition_start",
            Event::PartitionEnd => "partition_end",
        }
    }
}

/// A queued event: ordered by `(at, seq)` so ties pop in scheduling order.
#[derive(Debug)]
struct Scheduled {
    at: Duration,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Seeded single-threaded event executor. Owns the virtual clock, the
/// run's only RNG, the event queue, and the append-only event log.
#[derive(Debug)]
pub struct SimExecutor {
    /// Virtual time; advanced to each popped event's timestamp. Shared so
    /// reused components (breakers, views) can read the same timeline.
    pub clock: Arc<VirtualClock>,
    /// The run's only randomness source.
    pub rng: StdRng,
    queue: BinaryHeap<Scheduled>,
    next_seq: u64,
    /// Events processed so far (set by the run loop).
    pub processed: u64,
    log: Vec<String>,
}

impl SimExecutor {
    /// A fresh executor at virtual time zero.
    pub fn new(seed: u64) -> Self {
        Self {
            clock: VirtualClock::shared(),
            rng: StdRng::seed_from_u64(seed),
            queue: BinaryHeap::new(),
            next_seq: 0,
            processed: 0,
            log: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// Schedules `event` at absolute virtual time `at` (clamped to now —
    /// virtual time never runs backwards).
    pub fn schedule_at(&mut self, at: Duration, event: Event) {
        let at = at.max(self.clock.now());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled { at, seq, event });
    }

    /// Schedules `event` after a virtual delay.
    pub fn schedule_after(&mut self, delay: Duration, event: Event) {
        self.schedule_at(self.clock.now() + delay, event);
    }

    /// Pops the next event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Duration, Event)> {
        let s = self.queue.pop()?;
        self.clock.advance_to(s.at);
        Some((s.at, s.event))
    }

    /// Appends a log line stamped with the current virtual time. Lines
    /// must never contain wall-clock data — the log is the determinism
    /// witness (same seed ⇒ byte-identical log).
    pub fn log(&mut self, line: impl AsRef<str>) {
        self.log.push(format!(
            "t={} {}",
            self.clock.now().as_nanos(),
            line.as_ref()
        ));
    }

    /// Consumes the executor, returning the event log.
    pub fn into_log(self) -> Vec<String> {
        self.log
    }
}

/// FNV-1a over the joined log — the run's determinism fingerprint.
pub fn fingerprint(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_then_fifo_order() {
        let mut ex = SimExecutor::new(1);
        ex.schedule_at(Duration::from_millis(5), Event::Sweep);
        ex.schedule_at(Duration::from_millis(1), Event::Checkpoint);
        ex.schedule_at(Duration::from_millis(5), Event::PartitionStart);
        let (t1, e1) = ex.pop().unwrap();
        let (t2, e2) = ex.pop().unwrap();
        let (t3, e3) = ex.pop().unwrap();
        assert_eq!(t1, Duration::from_millis(1));
        assert!(matches!(e1, Event::Checkpoint));
        // Same-instant ties resolve in scheduling order.
        assert_eq!(t2, Duration::from_millis(5));
        assert!(matches!(e2, Event::Sweep));
        assert_eq!(t3, Duration::from_millis(5));
        assert!(matches!(e3, Event::PartitionStart));
        assert_eq!(ex.now(), Duration::from_millis(5));
    }

    #[test]
    fn pop_advances_the_shared_clock() {
        let mut ex = SimExecutor::new(2);
        let clock = ex.clock.clone();
        ex.schedule_at(Duration::from_secs(3), Event::Sweep);
        assert_eq!(clock.now(), Duration::ZERO);
        ex.pop().unwrap();
        assert_eq!(clock.now(), Duration::from_secs(3));
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["y".to_string(), "x".to_string()];
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }
}
