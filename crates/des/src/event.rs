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
//! - [`EventQueue::peek_time`] is O(1) (the heap root) and
//!   [`EventQueue::len`] is exact;
//! - no allocation in steady state: freed slots are reused.

use crate::SimTime;

/// Handle identifying a scheduled event, used for cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    seq: u64,
    slot: u32,
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
#[derive(Debug)]
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
#[derive(Debug)]
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
        match self.slab.get_mut(id.slot as usize) {
            Some(entry) if entry.seq == id.seq && entry.event.is_some() => {
                entry.event = None;
                self.free.push(id.slot);
                self.remove_at(self.pos[id.slot as usize] as usize);
                true
            }
            _ => false,
        }
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

    /// Randomized model check against a `BTreeMap` on `(time, seq)`:
    /// schedules, cancels of pending, fired and already-cancelled ids,
    /// pops and peeks all agree, and `len()` is exact after every step.
    /// Cancels are frequent (as with a runner re-arming its timers), so
    /// freed slots are reused while stale ids naming them are still around.
    #[test]
    fn model_check_against_reference() {
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xE7E7);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
            let (mut pending, mut fired, mut cancelled) = (Vec::new(), Vec::new(), Vec::new());
            let mut now = 0u64;
            for step in 0..2_000u64 {
                match rng.gen_range(0..12u32) {
                    0..=4 => {
                        let delta = match rng.gen_range(0..3u32) {
                            0 => 0,
                            1 => rng.gen_range(0..100u64),
                            _ => rng.gen_range(0..100_000u64),
                        };
                        let time = SimTime::from_micros(now + delta);
                        let id = q.schedule(time, step);
                        model.insert((time, id.as_u64()), step);
                        pending.push((time, id));
                    }
                    5 | 6 if !pending.is_empty() => {
                        let (time, id) = pending.swap_remove(rng.gen_range(0..pending.len()));
                        assert!(q.cancel(id), "seed {seed}: pending id {id:?}");
                        assert!(model.remove(&(time, id.as_u64())).is_some());
                        cancelled.push(id);
                    }
                    7 if !fired.is_empty() => {
                        let id = fired[rng.gen_range(0..fired.len())];
                        assert!(!q.cancel(id), "seed {seed}: fired id {id:?}");
                    }
                    8 if !cancelled.is_empty() => {
                        let id = cancelled[rng.gen_range(0..cancelled.len())];
                        assert!(!q.cancel(id), "seed {seed}: cancelled id {id:?}");
                    }
                    9 | 10 => {
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
                            fired.push(f.id);
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
