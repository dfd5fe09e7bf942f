//! The simulation event queue.
//!
//! A binary heap keyed on `(time, sequence)`. The sequence number is assigned
//! at scheduling time, which makes ordering *total and deterministic*: two
//! events scheduled for the same instant fire in the order they were
//! scheduled. Determinism of the whole simulator rests on this property.
//!
//! Events can be cancelled in O(1) amortized via [`EventQueue::cancel`]
//! (tombstoning); cancelled entries are skipped on pop.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};

use crate::SimTime;

/// Handle identifying a scheduled event, used for cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Raw sequence number, mostly useful in traces.
    pub fn as_u64(self) -> u64 {
        self.0
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

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest (time, seq) first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
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
    heap: BinaryHeap<Scheduled<E>>,
    /// Sequence counter; also serves as EventId allocator.
    next_seq: u64,
    /// Tombstones for cancelled events still physically in the heap.
    cancelled: HashMap<u64, ()>,
    /// Number of live (non-cancelled) events.
    live: usize,
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
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashMap::new(),
            live: 0,
        }
    }

    /// Schedules `event` to fire at `time`, returning a cancellation handle.
    ///
    /// Events at equal times fire in scheduling order.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
        self.live += 1;
        EventId(seq)
    }

    /// Cancels a previously scheduled event that has not fired yet.
    ///
    /// Returns `true` if the event was live (now cancelled); `false` if it
    /// was already cancelled or `id` was never issued by this queue.
    ///
    /// Precondition: `id` has not fired. The queue keeps no per-id liveness
    /// map, so it cannot tell a fired id from a pending one: cancelling a
    /// fired id also returns `true`, leaves a tombstone that no pop will
    /// ever remove, and makes [`len`](Self::len) under-count by one. Callers
    /// forget an id when its event fires (the runners clear their timer
    /// slot on fire) and so never pass one here.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq {
            return false;
        }
        match self.cancelled.entry(id.0) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                // The id may have fired already; we cannot tell without a
                // per-id liveness map. Track live count optimistically: pop
                // reconciles by skipping tombstones.
                v.insert(());
                if self.live > 0 {
                    self.live -= 1;
                }
                true
            }
        }
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<Firing<E>> {
        while let Some(s) = self.heap.pop() {
            if self.cancelled.remove(&s.seq).is_some() {
                continue;
            }
            self.live = self.live.saturating_sub(1);
            return Some(Firing {
                time: s.time,
                id: EventId(s.seq),
                event: s.event,
            });
        }
        None
    }

    /// The firing time of the earliest live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let seq = self.heap.peek()?.seq;
            if self.cancelled.contains_key(&seq) {
                self.cancelled.remove(&seq);
                self.heap.pop();
                continue;
            }
            return Some(self.heap.peek().expect("peeked above").time);
        }
    }

    /// Number of live events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if there are no live events.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(!q.cancel(EventId(999)));
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
}
