//! Pluggable exploration strategies: how the next enabled event is chosen.
//!
//! All strategies draw randomness exclusively from a seeded [`SimRng`], so
//! a `(strategy, seed)` pair deterministically reproduces its schedule —
//! which is what makes a failing exploration re-runnable before the
//! minimized trace even exists.

use des::SimRng;
use wire::TimerKind;

use crate::schedule::Choice;
use crate::world::Enabled;

/// Chooses the next event among the enabled ones. Returning `None` ends
/// the exploration early (nothing worth doing).
pub trait Strategy {
    /// Picks from `view`; the world applies the result.
    fn choose(&mut self, view: &Enabled) -> Option<Choice>;
}

/// Parses a strategy by CLI name.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Strategy>> {
    Some(match name {
        "random" => Box::new(RandomWalk::new(seed)),
        "delay" => Box::new(DelayBounded::new(seed, 8)),
        "hammer" => Box::new(GateHammer::new(seed)),
        _ => return None,
    })
}

fn pick<T: Copy>(rng: &mut SimRng, items: &[T]) -> Option<T> {
    if items.is_empty() {
        None
    } else {
        let i = rng.gen_range(0..items.len() as u64) as usize;
        Some(items[i])
    }
}

/// Uniformly weighted chaos: mostly deliveries and timers, with a steady
/// trickle of duplication, loss, crash/recover, partitions, and stalls.
pub struct RandomWalk {
    rng: SimRng,
}

impl RandomWalk {
    /// A walk driven by `seed`.
    pub fn new(seed: u64) -> Self {
        RandomWalk {
            rng: SimRng::seed_from_u64(seed ^ 0x5eed_5a1f),
        }
    }
}

impl Strategy for RandomWalk {
    fn choose(&mut self, view: &Enabled) -> Option<Choice> {
        // (weight, category) for every category currently enabled.
        let dup_slots: Vec<u32> = view
            .dup_ok
            .iter()
            .enumerate()
            .filter(|(_, ok)| **ok)
            .map(|(i, _)| i as u32)
            .collect();
        let mut cats: Vec<(u32, u8)> = Vec::new();
        if !view.in_flight.is_empty() {
            cats.push((50, 0)); // deliver
            cats.push((3, 5)); // drop
        }
        if !dup_slots.is_empty() {
            cats.push((3, 4)); // duplicate
        }
        if !view.timers.is_empty() {
            cats.push((14, 1));
        }
        if !view.clients.is_empty() {
            cats.push((12, 2));
        }
        if !view.gates.is_empty() {
            cats.push((12, 3));
        }
        if view.up.len() > 1 {
            cats.push((2, 6)); // crash (keep at least one node up)
        }
        if !view.down.is_empty() {
            cats.push((4, 7)); // recover
        }
        if view.up.len() > 1 {
            cats.push((3, 8)); // cut
        }
        if !view.cuts.is_empty() {
            cats.push((3, 9)); // heal
        }
        if view.up.len() > view.stalled.len() {
            cats.push((2, 10)); // stall
        }
        if !view.stalled.is_empty() {
            cats.push((3, 11)); // unstall
        }
        let total: u32 = cats.iter().map(|(w, _)| w).sum();
        if total == 0 {
            return None;
        }
        let mut roll = self.rng.gen_range(0..u64::from(total)) as u32;
        let mut cat = cats[0].1;
        for (w, c) in &cats {
            if roll < *w {
                cat = *c;
                break;
            }
            roll -= w;
        }
        let rng = &mut self.rng;
        match cat {
            0 => Some(Choice::Deliver {
                slot: rng.gen_range(0..view.in_flight.len() as u64) as u32,
            }),
            1 => {
                // Bias toward earlier deadlines: earliest with p=1/2,
                // otherwise uniform (late timers model scheduling delay).
                let i = if rng.chance(0.5) {
                    0
                } else {
                    rng.gen_range(0..view.timers.len() as u64) as usize
                };
                let (node, kind) = view.timers[i];
                Some(Choice::Timer { node, kind })
            }
            2 => pick(rng, &view.clients).map(|(node, lane)| Choice::Client { node, lane }),
            3 => pick(rng, &view.gates).map(|(node, token)| Choice::Release { node, token }),
            4 => pick(rng, &dup_slots).map(|slot| Choice::Duplicate { slot }),
            5 => Some(Choice::Drop {
                slot: rng.gen_range(0..view.in_flight.len() as u64) as u32,
            }),
            6 => pick(rng, &view.up).map(|node| Choice::Crash { node }),
            7 => pick(rng, &view.down).map(|node| Choice::Recover { node }),
            8 => {
                let from = pick(rng, &view.up)?;
                let to = pick(rng, &view.up)?;
                (from != to).then_some(Choice::Cut { from, to })
            }
            9 => {
                if rng.chance(0.3) {
                    Some(Choice::HealAll)
                } else {
                    pick(rng, &view.cuts).map(|(from, to)| Choice::HealLink { from, to })
                }
            }
            10 => {
                let free: Vec<_> = view
                    .up
                    .iter()
                    .copied()
                    .filter(|n| !view.stalled.contains(n))
                    .collect();
                pick(rng, &free).map(|node| Choice::Stall { node })
            }
            _ => pick(rng, &view.stalled).map(|node| Choice::Unstall { node }),
        }
    }
}

/// Mostly-FIFO delivery with a bounded number of out-of-order picks — the
/// delay-bounded discipline: schedules at most `budget` deviations from
/// first-in-first-out message order, which covers most low-depth ordering
/// bugs far faster than uniform chaos.
pub struct DelayBounded {
    rng: SimRng,
    budget: u32,
}

impl DelayBounded {
    /// A discipline with `budget` out-of-order deliveries.
    pub fn new(seed: u64, budget: u32) -> Self {
        DelayBounded {
            rng: SimRng::seed_from_u64(seed ^ 0xde1a_b0dd),
            budget,
        }
    }
}

impl Strategy for DelayBounded {
    fn choose(&mut self, view: &Enabled) -> Option<Choice> {
        if !view.clients.is_empty() && self.rng.chance(0.15) {
            let (node, lane) = pick(&mut self.rng, &view.clients)?;
            return Some(Choice::Client { node, lane });
        }
        if !view.gates.is_empty() && self.rng.chance(0.3) {
            let (node, token) = pick(&mut self.rng, &view.gates)?;
            return Some(Choice::Release { node, token });
        }
        if !view.in_flight.is_empty() {
            let slot = if self.budget > 0 && view.in_flight.len() > 1 && self.rng.chance(0.12) {
                self.budget -= 1;
                self.rng.gen_range(1..view.in_flight.len() as u64) as u32
            } else {
                0
            };
            return Some(Choice::Deliver { slot });
        }
        if let Some(&(node, lane)) = view.clients.first() {
            return Some(Choice::Client { node, lane });
        }
        if let Some(&(node, token)) = view.gates.first() {
            return Some(Choice::Release { node, token });
        }
        view.timers
            .first()
            .map(|&(node, kind)| Choice::Timer { node, kind })
    }
}

/// Hammers the gate path: keeps gates armed while forcing leader churn
/// (election timers) and client traffic, then releases continuations in
/// LIFO order — the adversarial order for stale-continuation bugs.
pub struct GateHammer {
    rng: SimRng,
}

impl GateHammer {
    /// A hammer driven by `seed`.
    pub fn new(seed: u64) -> Self {
        GateHammer {
            rng: SimRng::seed_from_u64(seed ^ 0x6a7e_4a33),
        }
    }
}

impl Strategy for GateHammer {
    fn choose(&mut self, view: &Enabled) -> Option<Choice> {
        let elections: Vec<(wire::NodeId, TimerKind)> = view
            .timers
            .iter()
            .copied()
            .filter(|(_, k)| matches!(k, TimerKind::Election | TimerKind::GlobalElection))
            .collect();
        // Churn leadership while gates are armed: that is exactly when a
        // parked continuation can go stale or collide with a new leader's
        // own inserts.
        if !view.gates.is_empty() {
            if !elections.is_empty() && self.rng.chance(0.25) {
                let (node, kind) = pick(&mut self.rng, &elections)?;
                return Some(Choice::Timer { node, kind });
            }
            if self.rng.chance(0.35) {
                let &(node, token) = view.gates.last()?; // LIFO release
                return Some(Choice::Release { node, token });
            }
        }
        if !view.clients.is_empty() && self.rng.chance(0.25) {
            let (node, lane) = pick(&mut self.rng, &view.clients)?;
            return Some(Choice::Client { node, lane });
        }
        if !view.in_flight.is_empty() {
            let slot = if self.rng.chance(0.15) {
                self.rng.gen_range(0..view.in_flight.len() as u64) as u32
            } else {
                0
            };
            return Some(Choice::Deliver { slot });
        }
        if !view.timers.is_empty() {
            let i = if self.rng.chance(0.7) {
                0
            } else {
                self.rng.gen_range(0..view.timers.len() as u64) as usize
            };
            let (node, kind) = view.timers[i];
            return Some(Choice::Timer { node, kind });
        }
        view.clients
            .first()
            .map(|&(node, lane)| Choice::Client { node, lane })
    }
}
