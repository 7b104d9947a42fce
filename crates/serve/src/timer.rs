//! A hashed timer wheel for connection deadlines.
//!
//! The event loop owns tens of thousands of connections, each with one
//! pending deadline (idle cutoff or request deadline). A naive "scan all
//! connections every tick" is O(conns) per tick; a sorted structure pays
//! O(log n) per re-arm. The wheel is O(1) for both: a deadline hashes to
//! the slot of its tick, and advancing the wheel only touches the slots
//! whose ticks have elapsed.
//!
//! Deadlines move constantly (every response re-arms the idle cutoff),
//! so the wheel never cancels: it fires *candidates*, and the caller
//! re-checks the connection's actual due time — a stale entry is simply
//! re-scheduled at the real deadline. This lazy-re-check pattern trades a
//! few spurious wakeups for zero bookkeeping on the hot path. To keep the
//! wheel bounded, each connection remembers the tick of its pending
//! candidate ([`TimerWheel::arm`]) and a new candidate is pushed only
//! when it would fire earlier: on a keep-alive connection deadlines only
//! move later, so it holds one live candidate, not one per request.

use std::time::{Duration, Instant};

/// One scheduled candidate: the key fires when its tick elapses.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: usize,
    tick: u64,
}

/// The wheel: `slots.len()` buckets of `tick` width each, a cursor that
/// advances with wall-clock, and a lazy contract — firing is a hint, not
/// a guarantee of dueness.
#[derive(Debug)]
pub(crate) struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    tick: Duration,
    epoch: Instant,
    /// Next tick index to process.
    cursor: u64,
    len: usize,
}

impl TimerWheel {
    /// A wheel of `slots` buckets, each `tick` wide.
    pub(crate) fn new(tick: Duration, slots: usize) -> TimerWheel {
        TimerWheel {
            slots: (0..slots.max(1)).map(|_| Vec::new()).collect(),
            tick: tick.max(Duration::from_millis(1)),
            epoch: Instant::now(),
            cursor: 0,
            len: 0,
        }
    }

    fn tick_index(&self, at: Instant) -> u64 {
        let elapsed = at.saturating_duration_since(self.epoch);
        // Round down: an entry fires on the first advance past its tick.
        (elapsed.as_nanos() / self.tick.as_nanos().max(1)) as u64
    }

    /// Schedule `key` to fire once `due` has passed (possibly earlier —
    /// the caller re-checks; never later than one tick after `due`).
    /// Returns the tick the candidate fires at.
    pub(crate) fn schedule(&mut self, key: usize, due: Instant) -> u64 {
        let tick = self.tick_index(due).max(self.cursor);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(Entry { key, tick });
        self.len += 1;
        tick
    }

    /// [`schedule`](Self::schedule) `key` at `due` unless `armed` — the
    /// tick of the key's last candidate — is still in the wheel and fires
    /// no later: that candidate's lazy re-check re-arms at the real due
    /// time, so a second one would only be waste.
    pub(crate) fn arm(&mut self, armed: &mut Option<u64>, key: usize, due: Instant) {
        let tick = self.tick_index(due).max(self.cursor);
        // Every entry below the cursor has fired (`expired` sweeps them).
        if armed.is_some_and(|t| t >= self.cursor && t <= tick) {
            return;
        }
        *armed = Some(self.schedule(key, due));
    }

    /// Advance to `now` and collect every candidate whose tick elapsed.
    /// Keys are hints: the caller must re-check actual dueness.
    pub(crate) fn expired(&mut self, now: Instant) -> Vec<usize> {
        let current = self.tick_index(now);
        if self.cursor > current {
            return Vec::new();
        }
        let mut fired = Vec::new();
        let n = self.slots.len() as u64;
        if self.len == 0 || current - self.cursor >= n {
            // Empty, or a jump past a full rotation: every slot is due
            // exactly once, so sweep them all instead of spinning ticks.
            for slot in &mut self.slots {
                slot.retain(|e| {
                    if e.tick <= current {
                        fired.push(e.key);
                        false
                    } else {
                        true
                    }
                });
            }
        } else {
            let mut cursor = self.cursor;
            while cursor <= current {
                let idx = (cursor % n) as usize;
                self.slots[idx].retain(|e| {
                    if e.tick <= current {
                        fired.push(e.key);
                        false
                    } else {
                        true
                    }
                });
                cursor += 1;
            }
        }
        self.cursor = current + 1;
        self.len -= fired.len();
        fired
    }

    /// Entries currently scheduled (including stale candidates).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// How long the event loop may sleep before the wheel needs another
    /// [`expired`](Self::expired) call; `None` when nothing is scheduled.
    pub(crate) fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        // Wake at the end of the current tick; cheap and always correct
        // because firing is permitted to be up to one tick late.
        let cursor_end =
            self.epoch + self.tick * u32::try_from(self.cursor + 1).unwrap_or(u32::MAX);
        Some(
            cursor_end
                .saturating_duration_since(now)
                .max(Duration::from_millis(1)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_after_due_and_not_before() {
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 8);
        let now = Instant::now();
        wheel.schedule(7, now + Duration::from_millis(35));
        assert!(wheel.expired(now).is_empty());
        assert!(wheel.expired(now + Duration::from_millis(20)).is_empty());
        let fired = wheel.expired(now + Duration::from_millis(50));
        assert_eq!(fired, vec![7]);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn survives_slot_collisions_across_rotations() {
        // Two entries a full rotation apart share a slot; only the near
        // one fires on the first pass.
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 4);
        let now = Instant::now();
        wheel.schedule(1, now + Duration::from_millis(10));
        wheel.schedule(2, now + Duration::from_millis(50)); // same slot, next rotation
        let first = wheel.expired(now + Duration::from_millis(25));
        assert_eq!(first, vec![1]);
        assert_eq!(wheel.len(), 1);
        let second = wheel.expired(now + Duration::from_millis(70));
        assert_eq!(second, vec![2]);
    }

    #[test]
    fn past_due_schedules_fire_on_next_advance() {
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 8);
        let now = Instant::now();
        wheel.expired(now + Duration::from_millis(100));
        // Due in the past relative to the cursor: clamped, fires next.
        wheel.schedule(3, now);
        assert_eq!(wheel.expired(now + Duration::from_millis(200)), vec![3]);
    }

    #[test]
    fn large_jumps_sweep_every_slot_once() {
        let mut wheel = TimerWheel::new(Duration::from_millis(1), 4);
        let now = Instant::now();
        for key in 0..16 {
            wheel.schedule(key, now + Duration::from_millis(key as u64));
        }
        let mut fired = wheel.expired(now + Duration::from_secs(60));
        fired.sort_unstable();
        assert_eq!(fired, (0..16).collect::<Vec<_>>());
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn keep_alive_requests_keep_one_live_candidate() {
        // The event loop's arming sequence over 1 000 requests on one
        // keep-alive connection, a millisecond apart: accept arms the idle
        // cutoff; each request arms its deadline at dispatch and the next
        // idle cutoff once its response is written.
        let (idle, deadline) = (Duration::from_secs(30), Duration::from_secs(30));
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 256);
        let mut armed = None;
        let start = Instant::now();
        wheel.arm(&mut armed, 0, start + idle);
        for i in 1..=1_000 {
            let now = start + Duration::from_millis(i);
            assert!(wheel.expired(now).is_empty());
            wheel.arm(&mut armed, 0, now + deadline);
            wheel.arm(&mut armed, 0, now + idle);
            assert!(wheel.len() <= 2, "request {i}: {} candidates", wheel.len());
        }
        // An earlier deadline still gets its own candidate.
        let now = start + Duration::from_millis(1_001);
        wheel.arm(&mut armed, 0, now);
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.expired(now + Duration::from_millis(20)), vec![0]);
        // Once fired, the next arm schedules afresh.
        wheel.arm(&mut armed, 0, now + idle);
        assert_eq!(wheel.len(), 2);
    }

    #[test]
    fn next_timeout_tracks_occupancy() {
        let mut wheel = TimerWheel::new(Duration::from_millis(10), 8);
        let now = Instant::now();
        assert_eq!(wheel.next_timeout(now), None);
        wheel.schedule(1, now + Duration::from_millis(30));
        let timeout = wheel.next_timeout(now).unwrap();
        assert!(timeout <= Duration::from_millis(20), "{timeout:?}");
    }
}
