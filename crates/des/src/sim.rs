//! The simulation driver: clock + event queue + root RNG.

use crate::{EventId, EventQueue, Firing, SimDuration, SimRng, SimTime};

/// A discrete-event simulation: a virtual clock, a deterministic event queue,
/// and a root random number generator.
///
/// The simulation is generic over the event payload `E`. Callers pop events
/// with [`Simulation::next_event`] (which advances the clock) and react to
/// them, scheduling follow-up events. Two runs with the same seed and the
/// same reaction logic produce identical traces.
///
/// # Examples
///
/// ```
/// use des::{SimDuration, Simulation};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut sim = Simulation::new(42);
/// sim.schedule_after(SimDuration::from_millis(1), Ev::Ping);
/// while let Some(firing) = sim.next_event() {
///     if firing.event == Ev::Ping && sim.now().as_millis() < 5 {
///         sim.schedule_after(SimDuration::from_millis(1), Ev::Pong);
///     }
/// }
/// assert_eq!(sim.now().as_millis(), 2);
/// ```
#[derive(Debug)]
pub struct Simulation<E> {
    now: SimTime,
    queue: EventQueue<E>,
    rng: SimRng,
    steps: u64,
    step_limit: u64,
}

impl<E> Simulation<E> {
    /// Default ceiling on processed events, a guard against runaway loops.
    pub const DEFAULT_STEP_LIMIT: u64 = 2_000_000_000;

    /// Creates a simulation at time zero from a seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: SimRng::seed_from_u64(seed),
            steps: 0,
            step_limit: Self::DEFAULT_STEP_LIMIT,
        }
    }

    /// Sets the maximum number of events this simulation may process.
    ///
    /// Exceeding the limit makes [`Simulation::next_event`] panic, turning
    /// livelock bugs into loud failures instead of hung test runs.
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The root RNG. Components should [`SimRng::split`] from it rather than
    /// drawing directly, so their streams stay independent.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedules an event at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            time
        );
        self.queue.schedule(time, event)
    }

    /// Schedules an event `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }

    /// Cancels a scheduled event. Returns `true` if it was still pending;
    /// `false` if it already fired, was already cancelled, or was never
    /// issued (see [`EventQueue::cancel`]).
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Moves a pending event to an absolute instant in place, keeping its
    /// payload; it fires exactly where cancelling it and scheduling it anew
    /// would have put it. Returns the new handle, or `None` if `id` is not
    /// pending (see [`EventQueue::reschedule`]).
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn reschedule(&mut self, id: EventId, time: SimTime) -> Option<EventId> {
        assert!(
            time >= self.now,
            "cannot reschedule into the past: now={}, requested={}",
            self.now,
            time
        );
        self.queue.reschedule(id, time)
    }

    /// The instant a pending event fires; `None` if `id` is not pending.
    pub fn time_of(&self, id: EventId) -> Option<SimTime> {
        self.queue.time_of(id)
    }

    /// Pops the next event, advancing the clock to its firing time.
    ///
    /// Returns `None` when the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if the step limit is exceeded (see
    /// [`Simulation::set_step_limit`]).
    pub fn next_event(&mut self) -> Option<Firing<E>> {
        let firing = self.queue.pop()?;
        debug_assert!(firing.time >= self.now, "time went backwards");
        self.now = firing.time;
        self.steps += 1;
        assert!(
            self.steps <= self.step_limit,
            "simulation exceeded step limit of {} events (livelock?)",
            self.step_limit
        );
        Some(firing)
    }

    /// Pops the next event only if it fires strictly before `deadline`.
    ///
    /// If the next event is at or after `deadline` (or the queue is empty),
    /// advances the clock to `deadline` and returns `None`. This is the
    /// building block for running an experiment "for 180 simulated seconds".
    pub fn next_event_before(&mut self, deadline: SimTime) -> Option<Firing<E>> {
        match self.queue.peek_time() {
            Some(t) if t < deadline => self.next_event(),
            _ => {
                if deadline > self.now {
                    self.now = deadline;
                }
                None
            }
        }
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// `true` if no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_to_event_times() {
        let mut sim = Simulation::new(1);
        sim.schedule_at(SimTime::from_millis(10), Ev::Tick(1));
        sim.schedule_at(SimTime::from_millis(20), Ev::Tick(2));
        let f = sim.next_event().unwrap();
        assert_eq!(f.event, Ev::Tick(1));
        assert_eq!(sim.now(), SimTime::from_millis(10));
        sim.next_event().unwrap();
        assert_eq!(sim.now(), SimTime::from_millis(20));
        assert!(sim.next_event().is_none());
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new(1);
        sim.schedule_at(SimTime::from_millis(5), Ev::Tick(1));
        sim.next_event();
        sim.schedule_at(SimTime::from_millis(1), Ev::Tick(2));
    }

    #[test]
    fn next_event_before_respects_deadline() {
        let mut sim = Simulation::new(1);
        sim.schedule_at(SimTime::from_millis(10), Ev::Tick(1));
        sim.schedule_at(SimTime::from_millis(30), Ev::Tick(2));
        let deadline = SimTime::from_millis(20);
        assert!(sim.next_event_before(deadline).is_some());
        assert!(sim.next_event_before(deadline).is_none());
        // Clock parked exactly at the deadline; later event still pending.
        assert_eq!(sim.now(), deadline);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn next_event_before_on_empty_queue_advances_clock() {
        let mut sim: Simulation<Ev> = Simulation::new(1);
        assert!(sim.next_event_before(SimTime::from_secs(3)).is_none());
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn deterministic_under_same_seed() {
        fn run(seed: u64) -> Vec<(u64, u32)> {
            let mut sim = Simulation::new(seed);
            sim.schedule_after(SimDuration::from_millis(1), Ev::Tick(0));
            let mut out = Vec::new();
            let mut hops = 0;
            while let Some(f) = sim.next_event() {
                let Ev::Tick(n) = f.event;
                out.push((sim.now().as_micros(), n));
                hops += 1;
                if hops < 50 {
                    let jitter = sim.rng().duration_between(
                        SimDuration::from_micros(10),
                        SimDuration::from_micros(1000),
                    );
                    sim.schedule_after(jitter, Ev::Tick(n + 1));
                }
            }
            out
        }
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    #[should_panic(expected = "step limit")]
    fn step_limit_catches_livelock() {
        let mut sim = Simulation::new(1);
        sim.set_step_limit(100);
        sim.schedule_after(SimDuration::from_micros(1), Ev::Tick(0));
        while let Some(_f) = sim.next_event() {
            sim.schedule_after(SimDuration::from_micros(1), Ev::Tick(0));
        }
    }

    #[test]
    fn cancel_through_sim() {
        let mut sim = Simulation::new(1);
        let id = sim.schedule_after(SimDuration::from_millis(1), Ev::Tick(1));
        assert!(sim.cancel(id));
        assert!(sim.next_event().is_none());
        assert!(sim.is_idle());
    }

    #[test]
    fn cancel_after_fire_is_false_and_len_is_exact() {
        let mut sim = Simulation::new(1);
        let a = sim.schedule_after(SimDuration::from_millis(1), Ev::Tick(1));
        let b = sim.schedule_after(SimDuration::from_millis(2), Ev::Tick(2));
        assert_eq!(sim.next_event().unwrap().id, a);
        assert!(!sim.cancel(a), "a fired id is no longer pending");
        assert_eq!(sim.pending(), 1);
        assert!(!sim.is_idle());
        // `c` takes the slot `a` left; the stale id must not cancel it.
        let c = sim.schedule_after(SimDuration::from_millis(3), Ev::Tick(3));
        assert!(!sim.cancel(a));
        assert_eq!(sim.pending(), 2);
        assert!(sim.cancel(b));
        assert!(!sim.cancel(b), "double-cancel reports false");
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.next_event().unwrap().id, c);
        assert!(!sim.cancel(c));
        assert_eq!(sim.pending(), 0);
        assert!(sim.is_idle());
    }
}
