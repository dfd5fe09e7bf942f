//! The keyed timer set of a process hosting many consensus groups: an
//! **indexed binary min-heap** on `(deadline, schedule sequence)`.
//!
//! The simulation queue ([`crate::EventQueue`]) cancels an event in place
//! but cannot re-arm one: a re-armed timer there is a cancel plus a fresh
//! event carrying its own payload. A sharded process
//! multiplexing thousands of consensus groups arms (and mostly re-arms)
//! timers at a rate proportional to *traffic* and holds
//! armed-but-never-firing election timers proportional to *groups*, so it
//! keeps them here instead, keyed by an opaque timer key:
//!
//! - `schedule` and `cancel` are O(log n) and work in place: re-scheduling
//!   a key rewrites its entry and sifts it (matching the
//!   [`crate::TimerKind`]-replacement contract of the sans-IO stack), so no
//!   dead copy of a re-armed or cancelled timer is ever left behind;
//! - [`TimerWheel::next_deadline`] is O(1) (the heap root) and
//!   `deadline_of` one hash probe — the embedding asks for the next
//!   deadline after *every* step;
//! - an idle group whose timers were removed contributes zero work to
//!   every later call;
//! - deterministic expiry order: timers fire sorted by `(deadline,
//!   schedule sequence)`, a fresh sequence number on every `schedule`, so
//!   two runs with the same inputs produce identical schedules;
//! - no allocation in steady state: entries live in a slab with a free
//!   list, and the heap holds slab indices.
//!
//! The embedding arms **one** simulator event at
//! [`TimerWheel::next_deadline`] and calls [`TimerWheel::advance`] when it
//! fires, in place of one queue event per timer.
//!
//! Internally `keys` maps a key to its slab slot, each slot records its
//! own position in `heap`, and sift moves update that position — a sift
//! never hashes. Any [`SimTime`] is a legal deadline, however far out.
//!
//! # Why a heap, and why the name
//!
//! Until PR 23 this type was a hierarchical timer wheel (7 levels × 64
//! slots, generation tombstones). Its `next_deadline` re-walked the
//! earliest occupied slot of each level after every expiry, so its cost
//! grew with the live set: 30 % of `shard_zipf_g256`'s wall time. The shard
//! runner's pattern (advance to the next deadline, re-arm what fired one
//! heartbeat on, push other keys further out so that 3.6 timers are armed
//! per expiry), ns per timer armed, both on one 2-vCPU machine:
//!
//! | armed keys | 64 | 1 k | 10 k | 100 k |
//! |---|---|---|---|---|
//! | the wheel | 230 | 1,130 | 10,000 | 10,000–19,000 |
//! | this heap | 58 | 80 | 120 | 350 |
//!
//! One structure therefore serves every scale; there is no second
//! implementation to select. The public name stayed `TimerWheel` because
//! the benchmark under `perf/` names it and a change that claims a gain
//! may not edit the benchmark.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use crate::SimTime;

/// One slab entry: an armed timer, or a free slot awaiting reuse.
#[derive(Clone, Debug)]
struct Slot<K> {
    key: K,
    /// Exact expiry instant.
    deadline: SimTime,
    /// Monotone schedule sequence — the deterministic tiebreak.
    seq: u64,
    /// Where `heap` holds this slot's index (meaningless while free).
    heap_pos: u32,
}

impl<K> Slot<K> {
    fn rank(&self) -> (SimTime, u64) {
        (self.deadline, self.seq)
    }
}

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
    /// Armed keys → index into `slab`.
    keys: HashMap<K, u32>,
    slab: Vec<Slot<K>>,
    /// Indices of `slab` slots not armed.
    free: Vec<u32>,
    /// Binary min-heap of `slab` indices on [`Slot::rank`]; invariant:
    /// `slab[heap[p]].heap_pos == p`.
    heap: Vec<u32>,
    next_seq: u64,
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
            keys: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Number of armed (live) timers.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no timer is armed.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Arms (or re-arms) `key` to expire at `deadline`. A deadline at or
    /// before the last [`advance`] expires on the next one (never
    /// dropped). Either way the key takes a fresh schedule sequence, so it
    /// fires after every timer already armed for the same instant.
    ///
    /// [`advance`]: TimerWheel::advance
    pub fn schedule(&mut self, key: K, deadline: SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.keys.entry(key) {
            Entry::Occupied(e) => {
                let slot = &mut self.slab[*e.get() as usize];
                // The fresh `seq` outranks the old one, so the entry moves
                // toward the root only on a strictly earlier deadline.
                let earlier = deadline < slot.deadline;
                slot.deadline = deadline;
                slot.seq = seq;
                let pos = slot.heap_pos as usize;
                if earlier {
                    sift_up(&mut self.heap, &mut self.slab, pos);
                } else {
                    sift_down(&mut self.heap, &mut self.slab, pos);
                }
            }
            Entry::Vacant(e) => {
                let pos = self.heap.len();
                let slot = Slot {
                    key,
                    deadline,
                    seq,
                    heap_pos: pos as u32,
                };
                let i = match self.free.pop() {
                    Some(i) => {
                        self.slab[i as usize] = slot;
                        i
                    }
                    None => {
                        let i = u32::try_from(self.slab.len()).expect("fewer than 2^32 timers");
                        self.slab.push(slot);
                        i
                    }
                };
                e.insert(i);
                self.heap.push(i);
                sift_up(&mut self.heap, &mut self.slab, pos);
            }
        }
    }

    /// Disarms `key`. Returns `true` if it was armed.
    pub fn cancel(&mut self, key: &K) -> bool {
        match self.keys.remove(key) {
            Some(i) => {
                self.remove_at(self.slab[i as usize].heap_pos as usize);
                true
            }
            None => false,
        }
    }

    /// The deadline `key` is armed for, if any.
    pub fn deadline_of(&self, key: &K) -> Option<SimTime> {
        self.keys.get(key).map(|&i| self.slab[i as usize].deadline)
    }

    /// The earliest armed deadline, exact: the heap root.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.heap.first().map(|&i| self.slab[i as usize].deadline)
    }

    /// Expires every timer due at or before `to`, appending each to `out`
    /// as `(deadline, key)` in deterministic `(deadline, schedule-seq)`
    /// order. A `to` before every deadline does nothing.
    pub fn advance(&mut self, to: SimTime, out: &mut Vec<(SimTime, K)>) {
        while let Some(&i) = self.heap.first() {
            let Slot { key, deadline, .. } = self.slab[i as usize];
            if deadline > to {
                break;
            }
            out.push((deadline, key));
            self.keys.remove(&key);
            self.remove_at(0);
        }
    }

    /// Takes the entry at heap position `pos` out of the heap and frees
    /// its slot (the caller has removed it from `keys`).
    fn remove_at(&mut self, pos: usize) {
        self.free.push(self.heap.swap_remove(pos));
        if pos < self.heap.len() {
            // The former last entry now sits at `pos`; it may belong on
            // either side of it.
            if sift_up(&mut self.heap, &mut self.slab, pos) == pos {
                sift_down(&mut self.heap, &mut self.slab, pos);
            }
        }
    }
}

/// Moves the entry at heap position `pos` toward the root until its parent
/// ranks no later; returns where it came to rest. Entries passed on the
/// way move one level down, each slot's `heap_pos` following.
fn sift_up<K>(heap: &mut [u32], slab: &mut [Slot<K>], mut pos: usize) -> usize {
    let i = heap[pos];
    let rank = slab[i as usize].rank();
    while pos > 0 {
        let parent = (pos - 1) / 2;
        let p = heap[parent];
        if slab[p as usize].rank() <= rank {
            break;
        }
        heap[pos] = p;
        slab[p as usize].heap_pos = pos as u32;
        pos = parent;
    }
    heap[pos] = i;
    slab[i as usize].heap_pos = pos as u32;
    pos
}

/// Moves the entry at heap position `pos` toward the leaves until neither
/// child ranks earlier.
fn sift_down<K>(heap: &mut [u32], slab: &mut [Slot<K>], mut pos: usize) {
    let i = heap[pos];
    let rank = slab[i as usize].rank();
    loop {
        let mut child = 2 * pos + 1;
        if child >= heap.len() {
            break;
        }
        if child + 1 < heap.len()
            && slab[heap[child + 1] as usize].rank() < slab[heap[child] as usize].rank()
        {
            child += 1;
        }
        let c = heap[child];
        if rank <= slab[c as usize].rank() {
            break;
        }
        heap[pos] = c;
        slab[c as usize].heap_pos = pos as u32;
        pos = child;
    }
    heap[pos] = i;
    slab[i as usize].heap_pos = pos as u32;
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
        assert_eq!(w.slab.len(), 16, "freed slots are reused, not leaked");
        assert!(w.free.is_empty());
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
            let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
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
