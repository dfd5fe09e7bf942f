//! Fault shapes beyond random loss and partitions: slow-disk persist
//! stalls, deterministic given the caller's [`SimRng`] — the same seed
//! replays the same stalls. (Message duplication and reordering are the
//! schedule explorer's business: its `Choice` duplicates and reorders
//! deliveries directly.)

use des::{SimDuration, SimRng};

/// Seed-driven slow-disk persist stalls: each persistence boundary may take
/// an extra fsync-spike delay, modeling a disk whose write latency is
/// usually negligible but occasionally spikes (ext4 journal flushes, EBS
/// hiccups). Deterministic given the caller's [`SimRng`].
///
/// # Examples
///
/// ```
/// use des::{SimDuration, SimRng};
/// use simnet::PersistStalls;
///
/// let stalls = PersistStalls::new(
///     1.0,
///     SimDuration::from_millis(2),
///     SimDuration::from_millis(8),
/// );
/// let mut rng = SimRng::seed_from_u64(3);
/// let d = stalls.sample(&mut rng);
/// assert!(d >= SimDuration::from_millis(2) && d <= SimDuration::from_millis(8));
/// ```
#[derive(Clone, Debug)]
pub struct PersistStalls {
    stall_p: f64,
    min: SimDuration,
    max: SimDuration,
}

impl PersistStalls {
    /// A stall model: with probability `stall_p` a persistence boundary
    /// stalls for a uniform duration in `[min, max]`, else it is instant.
    pub fn new(stall_p: f64, min: SimDuration, max: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&stall_p), "stall_p out of range");
        assert!(min <= max, "min > max");
        PersistStalls {
            stall_p,
            min,
            max,
        }
    }

    /// Samples the stall for one persistence boundary.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        if self.stall_p > 0.0 && rng.chance(self.stall_p) {
            rng.duration_between(self.min, self.max)
        } else {
            SimDuration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalls_sample_zero_or_in_range() {
        let stalls = PersistStalls::new(
            0.5,
            SimDuration::from_millis(3),
            SimDuration::from_millis(6),
        );
        let mut rng = SimRng::seed_from_u64(4);
        let mut saw_zero = false;
        let mut saw_stall = false;
        for _ in 0..200 {
            let d = stalls.sample(&mut rng);
            if d == SimDuration::ZERO {
                saw_zero = true;
            } else {
                assert!(d >= SimDuration::from_millis(3) && d <= SimDuration::from_millis(6));
                saw_stall = true;
            }
        }
        assert!(saw_zero && saw_stall);
    }
}
