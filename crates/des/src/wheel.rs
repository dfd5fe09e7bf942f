//! The keyed timer set of a process hosting many consensus groups: an
//! [`EventQueue`] of timer keys plus an index from each armed key to its
//! event.
//!
//! A sharded process multiplexing thousands of consensus groups arms (and
//! mostly re-arms) timers at a rate proportional to *traffic* and holds
//! armed-but-never-firing election timers proportional to *groups*, so it
//! keeps them here, keyed by an opaque timer key. The embedding arms
//! **one** simulator event at [`TimerWheel::next_deadline`] and calls
//! [`TimerWheel::advance`] when it fires, in place of one queue event per
//! timer.
//!
//! Every operation is the queue's, reached through one hash probe:
//!
//! - `schedule` of an armed key re-arms its event in place
//!   ([`EventQueue::reschedule`], matching the `TimerKind`-replacement
//!   contract of the sans-IO stack) and `cancel` is the queue's exact
//!   cancel, both O(log n), so no dead copy of a re-armed or cancelled
//!   timer is ever left behind;
//! - [`TimerWheel::next_deadline`] is O(1) (the queue's root) — the
//!   embedding asks for it after *every* step — and `deadline_of` one hash
//!   probe plus an O(1) queue lookup;
//! - an idle group whose timers were removed contributes zero work to
//!   every later call;
//! - deterministic expiry order: timers fire sorted by `(deadline,
//!   schedule sequence)`, a fresh sequence number on every `schedule`, so
//!   two runs with the same inputs produce identical schedules;
//! - no allocation in steady state: the queue reuses its freed slots.
//!
//! Any [`SimTime`] is a legal deadline, however far out. The type is a
//! heap, not a timing wheel; it once was a hierarchical one, and kept the
//! name because the benchmark under `perf/` names it.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use crate::{EventId, EventQueue, Firing, IdMap, SimTime};

/// A set of timers keyed by `K`, ordered by deadline (a heap; see the
/// module docs for the name).
///
/// Scheduling the same key again *replaces* the earlier deadline;
/// [`TimerWheel::cancel`] disarms a key. Both are O(log n) and in place.
/// See the module docs for the full contract.
///
/// # Examples
///
/// ```
/// use des::{SimTime, TimerWheel};
///
/// let mut wheel: TimerWheel<&'static str> = TimerWheel::new();
/// wheel.schedule("election", SimTime::from_millis(150));
/// wheel.schedule("heartbeat", SimTime::from_millis(100));
/// wheel.cancel(&"election");
/// assert_eq!(wheel.next_deadline(), Some(SimTime::from_millis(100)));
///
/// let mut fired = Vec::new();
/// wheel.advance(SimTime::from_millis(200), &mut fired);
/// assert_eq!(fired, vec![(SimTime::from_millis(100), "heartbeat")]);
/// assert!(wheel.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct TimerWheel<K> {
    /// One pending event per armed key, carrying the key.
    queue: EventQueue<K>,
    /// Armed keys → their event in `queue`.
    ids: IdMap<K, EventId>,
}

impl<K: Eq + Hash + Copy> Default for TimerWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Copy> TimerWheel<K> {
    /// Creates an empty timer set.
    pub fn new() -> Self {
        TimerWheel {
            queue: EventQueue::new(),
            ids: IdMap::default(),
        }
    }

    /// Number of armed (live) timers.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Arms (or re-arms) `key` to expire at `deadline`. A deadline at or
    /// before the last [`advance`] expires on the next one (never
    /// dropped). Either way the key takes a fresh schedule sequence, so it
    /// fires after every timer already armed for the same instant.
    ///
    /// [`advance`]: TimerWheel::advance
    pub fn schedule(&mut self, key: K, deadline: SimTime) {
        match self.ids.entry(key) {
            Entry::Occupied(mut e) => {
                let id = self.queue.reschedule(*e.get(), deadline);
                e.insert(id.expect("an armed key's event is pending"));
            }
            Entry::Vacant(e) => {
                e.insert(self.queue.schedule(deadline, key));
            }
        }
    }

    /// Disarms `key`. Returns `true` if it was armed.
    pub fn cancel(&mut self, key: &K) -> bool {
        self.ids.remove(key).is_some_and(|id| self.queue.cancel(id))
    }

    /// The deadline `key` is armed for, if any.
    pub fn deadline_of(&self, key: &K) -> Option<SimTime> {
        self.ids.get(key).and_then(|&id| self.queue.time_of(id))
    }

    /// The earliest armed deadline, exact: the queue's root.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Expires every timer due at or before `to`, appending each to `out`
    /// as `(deadline, key)` in deterministic `(deadline, schedule-seq)`
    /// order. A `to` before every deadline does nothing.
    pub fn advance(&mut self, to: SimTime, out: &mut Vec<(SimTime, K)>) {
        while self.queue.peek_time().is_some_and(|t| t <= to) {
            let Firing { time, event, .. } = self.queue.pop().expect("a deadline was peeked");
            self.ids.remove(&event);
            out.push((time, event));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::new();
        w.schedule("b", t(2_000));
        w.schedule("a", t(1_000));
        w.schedule("c", t(90_000_000));
        let mut out = Vec::new();
        w.advance(t(100_000_000), &mut out);
        assert_eq!(
            out,
            vec![(t(1_000), "a"), (t(2_000), "b"), (t(90_000_000), "c")]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn reschedule_replaces_deadline() {
        let mut w = TimerWheel::new();
        w.schedule(1u32, t(500));
        w.schedule(1u32, t(5_000));
        assert_eq!(w.len(), 1);
        let mut out = Vec::new();
        w.advance(t(1_000), &mut out);
        assert!(out.is_empty(), "old deadline must not fire: {out:?}");
        w.advance(t(10_000), &mut out);
        assert_eq!(out, vec![(t(5_000), 1u32)]);
    }

    #[test]
    fn cancel_disarms() {
        let mut w = TimerWheel::new();
        w.schedule(7u64, t(100));
        assert!(w.cancel(&7));
        assert!(!w.cancel(&7));
        let mut out = Vec::new();
        w.advance(t(1_000), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn next_deadline_is_exact_across_levels() {
        let mut w = TimerWheel::new();
        w.schedule("far", t(3_600_000_000)); // 1 h
        w.schedule("near", t(123_456));
        assert_eq!(w.next_deadline(), Some(t(123_456)));
        w.cancel(&"near");
        assert_eq!(w.next_deadline(), Some(t(3_600_000_000)));
    }

    #[test]
    fn due_now_fires_on_next_advance() {
        let mut w = TimerWheel::new();
        let mut out = Vec::new();
        w.advance(t(1_000), &mut out);
        w.schedule("late", t(500)); // already past
        assert_eq!(w.next_deadline(), Some(t(500)));
        w.advance(t(1_000), &mut out);
        assert_eq!(out, vec![(t(500), "late")]);
    }

    #[test]
    fn partial_advance_holds_future_entries() {
        let mut w = TimerWheel::new();
        w.schedule(1u8, t(10));
        w.schedule(2u8, t(20));
        let mut out = Vec::new();
        w.advance(t(15), &mut out);
        assert_eq!(out, vec![(t(10), 1u8)]);
        w.advance(t(25), &mut out);
        assert_eq!(out, vec![(t(10), 1u8), (t(20), 2u8)]);
    }

    #[test]
    fn far_future_beyond_span_is_clamped_not_lost() {
        let mut w = TimerWheel::new();
        // ~139 years in µs: no deadline is too far out.
        let far = t(1u64 << 52);
        w.schedule("eon", far);
        let mut out = Vec::new();
        w.advance(t(1u64 << 40), &mut out);
        assert!(out.is_empty());
        w.advance(far, &mut out);
        assert_eq!(out, vec![(far, "eon")]);
    }

    #[test]
    fn equal_deadlines_fire_in_schedule_order() {
        let mut w = TimerWheel::new();
        for k in 0..10u32 {
            w.schedule(k, t(777));
        }
        let mut out = Vec::new();
        w.advance(t(1_000), &mut out);
        let keys: Vec<u32> = out.into_iter().map(|(_, k)| k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reschedule_to_same_deadline_moves_behind_later_peers() {
        let mut w = TimerWheel::new();
        for k in 0..4u32 {
            w.schedule(k, t(777));
        }
        w.schedule(1u32, t(777)); // same instant, fresh seq
        let mut out = Vec::new();
        w.advance(t(777), &mut out);
        let keys: Vec<u32> = out.into_iter().map(|(_, k)| k).collect();
        assert_eq!(keys, vec![0, 2, 3, 1]);
    }

    #[test]
    fn cancel_then_schedule_reuses_the_slot() {
        let mut w = TimerWheel::new();
        for k in 0..16u64 {
            w.schedule(k, t(1_000 + k));
        }
        for i in 0..10_000u64 {
            let k = (i * 7) % 16;
            assert!(w.cancel(&k));
            assert_eq!(w.len(), 15);
            w.schedule(k, t(2_000 + i));
            assert_eq!(w.len(), 16);
        }
        // The queue did not grow: the 16 armed events sit in its first 16
        // slots, so every freed slot was reused, none leaked.
        let mut slots: Vec<u32> = w.ids.values().map(|id| id.slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..16).collect::<Vec<u32>>());
        // The last 16 cycles re-armed every key once, in cycle order.
        let mut out = Vec::new();
        w.advance(t(20_000), &mut out);
        let want: Vec<(SimTime, u64)> = (9_984..10_000u64)
            .map(|i| (t(2_000 + i), (i * 7) % 16))
            .collect();
        assert_eq!(out, want);
        assert!(w.is_empty());
    }

    #[test]
    fn advance_to_past_instant_is_a_no_op() {
        let mut w = TimerWheel::new();
        let mut out = Vec::new();
        w.schedule("a", t(5_000));
        w.advance(t(4_000), &mut out);
        w.advance(t(1_000), &mut out); // earlier than the last advance
        assert!(out.is_empty());
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_deadline(), Some(t(5_000)));
        assert_eq!(w.deadline_of(&"a"), Some(t(5_000)));
        w.advance(t(5_000), &mut out);
        assert_eq!(out, vec![(t(5_000), "a")]);
    }

    /// Randomized model check against a sorted-vec reference: schedules,
    /// reschedules, cancels, partial advances and `deadline_of` all agree.
    /// Half the seeds use 64 keys (dense re-arming of live keys), half
    /// 4,096 (the slab grows, and freed slots are reused deep in the heap).
    #[test]
    fn model_check_against_reference() {
        for seed in 0..64u64 {
            let key_space = if seed % 2 == 0 { 64u64 } else { 4_096 };
            let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5);
            let mut wheel: TimerWheel<u64> = TimerWheel::new();
            // Reference: key -> (deadline, seq of last schedule).
            let mut model: IdMap<u64, (u64, u64)> = IdMap::default();
            let mut now = 0u64;
            let mut seq = 0u64;
            for _ in 0..2_000 {
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let key = rng.gen_range(0..key_space);
                        let delta = match rng.gen_range(0..5u32) {
                            0 => rng.gen_range(0..100u64),
                            1 => rng.gen_range(0..10_000u64),
                            2 => rng.gen_range(0..5_000_000u64),
                            3 => rng.gen_range(0..2_000_000_000u64),
                            _ => rng.gen_range(0..(1u64 << 43)),
                        };
                        wheel.schedule(key, t(now + delta));
                        model.insert(key, (now + delta, seq));
                        seq += 1;
                    }
                    5 => {
                        let key = rng.gen_range(0..key_space);
                        assert_eq!(wheel.cancel(&key), model.remove(&key).is_some());
                    }
                    6..=8 => {
                        // Mostly small steps; occasionally a leap that
                        // expires the far-out entries too.
                        let step = if rng.gen_range(0..10u32) == 0 {
                            rng.gen_range(0..(1u64 << 42))
                        } else {
                            rng.gen_range(0..3_000_000u64)
                        };
                        now += step;
                        let mut fired = Vec::new();
                        wheel.advance(t(now), &mut fired);
                        let mut expect: Vec<(u64, u64, u64)> = model
                            .iter()
                            .filter(|(_, &(d, _))| d <= now)
                            .map(|(&k, &(d, s))| (d, s, k))
                            .collect();
                        expect.sort_unstable();
                        for (_, _, k) in &expect {
                            model.remove(k);
                        }
                        let got: Vec<(u64, u64)> =
                            fired.into_iter().map(|(d, k)| (d.as_micros(), k)).collect();
                        let want: Vec<(u64, u64)> =
                            expect.into_iter().map(|(d, _, k)| (d, k)).collect();
                        assert_eq!(got, want, "seed {seed} at now={now}");
                    }
                    _ => {
                        // next_deadline must equal the model's minimum.
                        let want = model.values().map(|&(d, _)| d).min();
                        assert_eq!(
                            wheel.next_deadline().map(|d| d.as_micros()),
                            want,
                            "seed {seed} at now={now}"
                        );
                    }
                }
                assert_eq!(wheel.len(), model.len());
                let probe = rng.gen_range(0..key_space);
                assert_eq!(
                    wheel.deadline_of(&probe).map(|d| d.as_micros()),
                    model.get(&probe).map(|&(d, _)| d),
                    "seed {seed} at now={now}"
                );
            }
        }
    }
}
