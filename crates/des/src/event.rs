//! The simulation event queue.
//!
//! An **indexed binary min-heap** keyed on `(time, sequence)`. The sequence
//! number is assigned at scheduling time, which makes ordering *total and
//! deterministic*: two events scheduled for the same instant fire in the
//! order they were scheduled. Determinism of the whole simulator rests on
//! this property.
//!
//! The heap holds 24-byte keys only; sifts compare and move keys and never
//! touch a payload. Payloads sit in a slab with a free list, written once
//! on `schedule` and taken out once on `pop`, and `pos` records where each
//! slot's key sits in the heap. An [`EventId`] names a slot and the
//! sequence number it was issued under, so:
//!
//! - [`EventQueue::cancel`] is exact and in place, O(log n): the key leaves
//!   the heap and the slot is freed. A fired, cancelled or never-issued id
//!   is recognised (its slot is empty or holds a later sequence) and
//!   reports `false`; nothing is left behind;
//! - [`EventQueue::reschedule`] re-arms a pending event in place, O(log n):
//!   its key takes the new time and a fresh sequence number — the one a
//!   `schedule` in its place would have taken — so a re-arm pops exactly
//!   where a cancel plus a fresh `schedule` would have, without moving the
//!   payload or its slot;
//! - [`EventQueue::peek_time`] and [`EventQueue::time_of`] are O(1) and
//!   [`EventQueue::len`] is exact;
//! - no allocation in steady state: freed slots are reused.

use crate::SimTime;

/// Handle identifying a scheduled event, used to cancel or re-arm it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    seq: u64,
    /// The slab slot holding the event.
    pub(crate) slot: u32,
}

impl EventId {
    /// Raw sequence number, mostly useful in traces.
    pub fn as_u64(self) -> u64 {
        self.seq
    }
}

/// An event popped from the queue: when it fires and its payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Firing<E> {
    /// The instant the event fires; the simulation clock advances to this.
    pub time: SimTime,
    /// Scheduling handle (matches the value returned by `schedule`).
    pub id: EventId,
    /// The event payload.
    pub event: E,
}

/// A heap entry: the firing order of one pending event and where its
/// payload lives.
#[derive(Clone, Copy, Debug)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    fn rank(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// One slab entry: a pending payload, or a free slot (`event` is `None`)
/// remembering the sequence it last held.
#[derive(Clone, Debug)]
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// A deterministic priority queue of timed events.
///
/// # Examples
///
/// ```
/// use des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "b");
/// q.schedule(SimTime::from_millis(1), "a");
/// assert_eq!(q.pop().unwrap().event, "a");
/// assert_eq!(q.pop().unwrap().event, "b");
/// assert!(q.pop().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    /// Binary min-heap on [`Key::rank`]; invariant: `pos[heap[p].slot] == p`.
    heap: Vec<Key>,
    slab: Vec<Slot<E>>,
    /// Heap position of each occupied slot (meaningless while free).
    pos: Vec<u32>,
    /// Indices of `slab` slots holding no event.
    free: Vec<u32>,
    /// Sequence counter: the deterministic tiebreak.
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            pos: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`, returning a cancellation handle.
    ///
    /// Events at equal times fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Slot {
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
                self.slab.push(entry);
                self.pos.push(0);
                slot
            }
        };
        let at = self.heap.len();
        self.heap.push(Key { time, seq, slot });
        self.sift_up(at);
        EventId { seq, slot }
    }

    /// Cancels a previously scheduled event that has not fired yet.
    ///
    /// Returns `true` if the event was pending (now cancelled); `false` if
    /// it already fired, was already cancelled, or `id` was never issued by
    /// this queue.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(at) = self.position(id) else {
            return false;
        };
        self.slab[id.slot as usize].event = None;
        self.free.push(id.slot);
        self.remove_at(at);
        true
    }

    /// Moves a pending event to fire at `time`, keeping its payload.
    ///
    /// The event takes a fresh sequence number, so it fires after every
    /// event already scheduled for `time` — exactly where cancelling it and
    /// scheduling its payload anew would put it. Returns the event's new
    /// handle (`id` goes stale), or `None`, changing nothing, if `id` is
    /// not pending.
    pub fn reschedule(&mut self, id: EventId, time: SimTime) -> Option<EventId> {
        let at = self.position(id)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        // The fresh `seq` outranks the old one, so the key moves toward
        // the root only on a strictly earlier time.
        let earlier = time < self.heap[at].time;
        self.slab[id.slot as usize].seq = seq;
        self.heap[at] = Key {
            time,
            seq,
            slot: id.slot,
        };
        if earlier {
            self.sift_up(at);
        } else {
            self.sift_down(at);
        }
        Some(EventId { seq, slot: id.slot })
    }

    /// The firing time of a pending event; `None` if `id` is not pending.
    pub fn time_of(&self, id: EventId) -> Option<SimTime> {
        self.position(id).map(|at| self.heap[at].time)
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Firing<E>> {
        let Key { time, seq, slot } = *self.heap.first()?;
        self.remove_at(0);
        let event = self.slab[slot as usize]
            .event
            .take()
            .expect("every heap key names an occupied slot");
        self.free.push(slot);
        Some(Firing {
            time,
            id: EventId { seq, slot },
            event,
        })
    }

    /// The firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|k| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Heap position of `id`'s key, if `id` names a pending event.
    fn position(&self, id: EventId) -> Option<usize> {
        match self.slab.get(id.slot as usize) {
            Some(entry) if entry.seq == id.seq && entry.event.is_some() => {
                Some(self.pos[id.slot as usize] as usize)
            }
            _ => None,
        }
    }

    /// Takes the key at heap position `at` out of the heap (the caller
    /// frees its slot).
    fn remove_at(&mut self, at: usize) {
        let last = self.heap.pop().expect("removing from a non-empty heap");
        if at < self.heap.len() {
            // The former last key fills the hole; it may belong on either
            // side of it.
            self.heap[at] = last;
            if self.sift_up(at) == at {
                self.sift_down(at);
            }
        }
    }

    /// Moves the key at heap position `at` toward the root until its parent
    /// ranks earlier; returns where it came to rest. Keys passed on the way
    /// move one level down, each slot's `pos` following.
    fn sift_up(&mut self, mut at: usize) -> usize {
        let key = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            let p = self.heap[parent];
            if p.rank() < key.rank() {
                break;
            }
            self.heap[at] = p;
            self.pos[p.slot as usize] = at as u32;
            at = parent;
        }
        self.heap[at] = key;
        self.pos[key.slot as usize] = at as u32;
        at
    }

    /// Moves the key at heap position `at` toward the leaves until neither
    /// child ranks earlier.
    fn sift_down(&mut self, mut at: usize) {
        let key = self.heap[at];
        let len = self.heap.len();
        loop {
            let mut child = 2 * at + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.heap[child + 1].rank() < self.heap[child].rank() {
                child += 1;
            }
            let c = self.heap[child];
            if key.rank() < c.rank() {
                break;
            }
            self.heap[at] = c;
            self.pos[c.slot as usize] = at as u32;
            at = child;
        }
        self.heap[at] = key;
        self.pos[key.slot as usize] = at as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|f| f.event)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn orders_by_time_first() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), "late");
        q.schedule(SimTime::from_millis(1), "early");
        q.schedule(SimTime::from_millis(2), "mid");
        assert_eq!(q.pop().unwrap().event, "early");
        assert_eq!(q.pop().unwrap().event, "mid");
        assert_eq!(q.pop().unwrap().event, "late");
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().event, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId { seq: 999, slot: 0 }));
    }

    #[test]
    fn reschedule_fires_behind_same_instant_peers() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(1);
        let a = q.schedule(t, "a");
        q.schedule(t, "b");
        let a2 = q.reschedule(a, t).unwrap();
        assert_eq!(q.reschedule(a, t), None, "the old id went stale");
        assert_eq!(q.time_of(a), None);
        assert_eq!(q.time_of(a2), Some(t));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().id, a2);
        assert_eq!(q.reschedule(a2, t), None, "a fired id does not re-arm");
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(5), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(SimTime::ZERO, 1);
        let _b = q.schedule(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), 10);
        q.schedule(SimTime::from_millis(5), 5);
        assert_eq!(q.pop().unwrap().event, 5);
        q.schedule(SimTime::from_millis(7), 7);
        q.schedule(SimTime::from_millis(6), 6);
        assert_eq!(q.pop().unwrap().event, 6);
        assert_eq!(q.pop().unwrap().event, 7);
        assert_eq!(q.pop().unwrap().event, 10);
    }

    /// A firing delay for the model check: often zero (a tie), else near
    /// or far.
    fn delay(rng: &mut SimRng) -> u64 {
        match rng.gen_range(0..3u32) {
            0 => 0,
            1 => rng.gen_range(0..100u64),
            _ => rng.gen_range(0..100_000u64),
        }
    }

    /// Randomized model check against a `BTreeMap` on `(time, seq)`:
    /// schedules, re-arms, cancels, `time_of` lookups, pops and peeks all
    /// agree, and `len()` is exact after every step. Every schedule and
    /// re-arm takes the next sequence number; a cancel takes none. Dead ids
    /// (fired, cancelled, or left stale by a re-arm) are refused by
    /// `cancel`, `reschedule` and `time_of` alike, changing nothing. Cancels
    /// and re-arms are frequent (as with a runner re-arming its timers), so
    /// freed slots are reused while dead ids naming them are still around.
    #[test]
    fn model_check_against_reference() {
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xE7E7);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
            let (mut pending, mut dead) = (Vec::new(), Vec::new());
            let (mut now, mut next_seq) = (0u64, 0u64);
            for step in 0..2_000u64 {
                match rng.gen_range(0..16u32) {
                    0..=4 => {
                        let time = SimTime::from_micros(now + delay(&mut rng));
                        let id = q.schedule(time, step);
                        assert_eq!(id.as_u64(), next_seq, "seed {seed} at step {step}");
                        next_seq += 1;
                        model.insert((time, id.as_u64()), step);
                        pending.push((time, id));
                    }
                    5 | 6 if !pending.is_empty() => {
                        let (time, id) = pending.swap_remove(rng.gen_range(0..pending.len()));
                        assert!(q.cancel(id), "seed {seed}: pending id {id:?}");
                        assert!(model.remove(&(time, id.as_u64())).is_some());
                        dead.push(id);
                    }
                    7 | 8 if !pending.is_empty() => {
                        let i = rng.gen_range(0..pending.len());
                        let (time, id) = pending[i];
                        let to = SimTime::from_micros(now + delay(&mut rng));
                        let new = q.reschedule(id, to).expect("a pending id re-arms");
                        assert_eq!(new.as_u64(), next_seq, "seed {seed} at step {step}");
                        next_seq += 1;
                        let event = model.remove(&(time, id.as_u64())).unwrap();
                        model.insert((to, new.as_u64()), event);
                        pending[i] = (to, new);
                        dead.push(id);
                    }
                    9 if !dead.is_empty() => {
                        let id = dead[rng.gen_range(0..dead.len())];
                        assert!(!q.cancel(id), "seed {seed}: dead id {id:?}");
                        let to = SimTime::from_micros(now + delay(&mut rng));
                        assert_eq!(q.reschedule(id, to), None, "seed {seed}: dead id {id:?}");
                        assert_eq!(q.time_of(id), None, "seed {seed}: dead id {id:?}");
                    }
                    10 if !pending.is_empty() => {
                        let (time, id) = pending[rng.gen_range(0..pending.len())];
                        assert_eq!(q.time_of(id), Some(time), "seed {seed} at step {step}");
                    }
                    11..=13 => {
                        let want = model.pop_first();
                        let got = q.pop();
                        assert_eq!(
                            got.as_ref().map(|f| ((f.time, f.id.as_u64()), f.event)),
                            want,
                            "seed {seed} at step {step}"
                        );
                        if let Some(f) = got {
                            now = f.time.as_micros();
                            pending.retain(|&(_, id)| id != f.id);
                            dead.push(f.id);
                        }
                    }
                    _ => {
                        let want = model.first_key_value().map(|(&(t, _), _)| t);
                        assert_eq!(q.peek_time(), want, "seed {seed} at step {step}");
                    }
                }
                assert_eq!(q.len(), model.len(), "seed {seed} at step {step}");
                assert_eq!(q.is_empty(), model.is_empty());
            }
        }
    }
}
