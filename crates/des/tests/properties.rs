//! Property-based tests for the simulation kernel's core invariants.

use des::{EventId, EventQueue, SimDuration, SimRng, SimTime, Simulation};
use proptest::prelude::*;

/// Logical timers in the re-arm equivalence script.
const TIMERS: usize = 8;

/// Pops `sim`'s next event as `(time, seq, timer)`; that timer is no
/// longer armed.
fn pop(
    sim: &mut Simulation<usize>,
    armed: &mut [Option<EventId>],
) -> Option<(SimTime, u64, usize)> {
    let f = sim.next_event()?;
    armed[f.event] = None;
    Some((f.time, f.id.as_u64(), f.event))
}

proptest! {
    /// Events always pop in nondecreasing (time, seq) order, no matter the
    /// scheduling pattern.
    #[test]
    fn queue_pops_in_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(f) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(f.time > lt || (f.time == lt && f.event > li),
                    "order violated: {:?} after {:?}", (f.time, f.event), (lt, li));
            }
            last = Some((f.time, f.event));
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_removes_exact_subset(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_micros(t), i))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
            } else {
                kept.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some(f) = q.pop() {
            popped.push(f.event);
        }
        popped.sort_unstable();
        kept.sort_unstable();
        prop_assert_eq!(popped, kept);
    }

    /// Re-arming in place is cancel plus a fresh schedule, bit for bit: one
    /// random script of arms, re-arms, cancels and pops, run once with
    /// `reschedule` and once with `schedule_after` + `cancel`, pops identical
    /// `(time, seq, timer)` sequences. Delays are a few microseconds, so
    /// same-instant ties, which the re-armed event's fresh sequence number
    /// decides, are common.
    #[test]
    fn reschedule_matches_cancel_plus_schedule(
        script in proptest::collection::vec((0u8..4, 0..TIMERS, 0u64..4), 1..300),
    ) {
        let (mut a, mut b) = (Simulation::new(1), Simulation::new(1));
        let (mut armed_a, mut armed_b) = ([None; TIMERS], [None; TIMERS]);
        for (op, timer, delay) in script {
            let delay = SimDuration::from_micros(delay);
            match op {
                0 | 1 => {
                    let at = a.now() + delay;
                    armed_a[timer] = Some(match armed_a[timer] {
                        Some(id) => a.reschedule(id, at).expect("an armed timer is pending"),
                        None => a.schedule_after(delay, timer),
                    });
                    if let Some(old) = armed_b[timer].replace(b.schedule_after(delay, timer)) {
                        prop_assert!(b.cancel(old));
                    }
                }
                2 => {
                    if let Some(id) = armed_a[timer].take() {
                        prop_assert!(a.cancel(id));
                    }
                    if let Some(id) = armed_b[timer].take() {
                        prop_assert!(b.cancel(id));
                    }
                }
                _ => prop_assert_eq!(pop(&mut a, &mut armed_a), pop(&mut b, &mut armed_b)),
            }
        }
        loop {
            let next = pop(&mut a, &mut armed_a);
            prop_assert_eq!(next, pop(&mut b, &mut armed_b));
            if next.is_none() {
                break;
            }
        }
    }

    /// The simulation clock never moves backwards.
    #[test]
    fn clock_is_monotone(delays in proptest::collection::vec(0u64..1_000, 1..100)) {
        let mut sim = Simulation::new(5);
        for &d in &delays {
            sim.schedule_after(SimDuration::from_micros(d), ());
        }
        let mut last = sim.now();
        while let Some(f) = sim.next_event() {
            prop_assert!(f.time >= last);
            last = f.time;
        }
    }

    /// Split RNG streams are reproducible: (seed, label) fully determines
    /// the stream.
    #[test]
    fn rng_split_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        use rand::RngCore;
        let mut a = SimRng::seed_from_u64(seed).split(&label);
        let mut b = SimRng::seed_from_u64(seed).split(&label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// duration_between always respects its bounds.
    #[test]
    fn duration_between_in_bounds(seed in any::<u64>(), lo in 0u64..10_000, width in 0u64..10_000) {
        let mut rng = SimRng::seed_from_u64(seed);
        let lo_d = SimDuration::from_micros(lo);
        let hi_d = SimDuration::from_micros(lo + width);
        let d = rng.duration_between(lo_d, hi_d);
        prop_assert!(d >= lo_d && d <= hi_d);
    }

    /// Time arithmetic: (t + d) - d == t for all representable values.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((time + dur) - dur, time);
        prop_assert_eq!((time + dur) - time, dur);
    }
}
