//! Deterministic, splittable randomness.
//!
//! All randomness in a simulation flows from a single `u64` seed. Components
//! obtain *independent* streams by [`SimRng::split`]ting with a label, so that
//! adding a new consumer of randomness in one module does not perturb the
//! stream seen by any other module — a property that keeps regression traces
//! stable as the codebase evolves.

use rand::distributions::uniform::{SampleRange, SampleUniform};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::SimDuration;

/// A deterministic random number generator for simulations.
///
/// Wraps [`rand::rngs::StdRng`] seeded from a `u64`, and adds labelled
/// splitting plus helpers commonly needed in discrete-event simulation
/// (jittered durations, Bernoulli trials).
///
/// # Examples
///
/// ```
/// use des::SimRng;
///
/// let mut root = SimRng::seed_from_u64(42);
/// let mut net = root.split("network");
/// let mut timers = root.split("timers");
/// // Streams are independent: draws from one do not affect the other.
/// let a: u64 = net.gen_range(0..100);
/// let b: u64 = timers.gen_range(0..100);
/// assert!(a < 100 && b < 100);
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    /// Seed material this generator was created from, for diagnostics.
    lineage: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            lineage: seed,
        }
    }

    /// Derives an independent generator for the given component label.
    ///
    /// The child stream is a pure function of `(parent seed material, label)`,
    /// so the same `(seed, label)` pair always yields the same stream
    /// regardless of how much the parent has been used in between.
    pub fn split(&self, label: &str) -> SimRng {
        let child = splitmix64(self.lineage ^ fnv1a(label.as_bytes()));
        SimRng {
            inner: StdRng::seed_from_u64(child),
            lineage: child,
        }
    }

    /// Derives an independent generator for a numbered component
    /// (e.g. per-node streams).
    pub fn split_indexed(&self, label: &str, index: u64) -> SimRng {
        let child = splitmix64(self.lineage ^ fnv1a(label.as_bytes()) ^ splitmix64(index));
        SimRng {
            inner: StdRng::seed_from_u64(child),
            lineage: child,
        }
    }

    /// The seed material this generator derives from.
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Samples a value uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.inner.gen::<f64>() < p
    }

    /// Samples a duration uniformly from `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn duration_between(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        assert!(lo <= hi, "empty duration range {lo}..{hi}");
        if lo == hi {
            return lo;
        }
        SimDuration::from_micros(self.inner.gen_range(lo.as_micros()..=hi.as_micros()))
    }

    /// Samples a duration as `base * U(1-jitter, 1+jitter)`.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is not within `0.0..=1.0`.
    pub fn jittered(&mut self, base: SimDuration, jitter: f64) -> SimDuration {
        assert!(
            (0.0..=1.0).contains(&jitter),
            "jitter out of range: {jitter}"
        );
        if jitter == 0.0 {
            return base;
        }
        let factor = self.inner.gen_range(1.0 - jitter..=1.0 + jitter);
        base.mul_f64(factor)
    }

    /// Samples an exponentially distributed duration with the given mean,
    /// clamped to at least one microsecond.
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        let sample = -u.ln() * mean.as_micros() as f64;
        SimDuration::from_micros((sample.round() as u64).max(1))
    }

    /// Picks a uniformly random element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            let i = self.inner.gen_range(0..slice.len());
            Some(&slice[i])
        }
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

/// FNV-1a hash, used to fold string labels into seed material.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// SplitMix64 finalizer, used to decorrelate derived seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let draws_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn split_is_stable_regardless_of_parent_usage() {
        let root = SimRng::seed_from_u64(99);
        let mut used = root.clone();
        for _ in 0..10 {
            used.next_u64();
        }
        // Splitting after use yields the same child stream as splitting before.
        let mut child_fresh = root.split("net");
        let mut child_used = used.split("net");
        for _ in 0..20 {
            assert_eq!(child_fresh.next_u64(), child_used.next_u64());
        }
    }

    #[test]
    fn split_labels_are_independent() {
        let root = SimRng::seed_from_u64(5);
        let mut a = root.split("a");
        let mut b = root.split("b");
        let draws_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(draws_a, draws_b);
    }

    #[test]
    fn split_indexed_distinguishes_indices() {
        let root = SimRng::seed_from_u64(5);
        let mut n0 = root.split_indexed("node", 0);
        let mut n1 = root.split_indexed("node", 1);
        assert_ne!(n0.next_u64(), n1.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn chance_rate_is_plausible() {
        let mut rng = SimRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits={hits}");
    }

    #[test]
    fn duration_between_bounds() {
        let mut rng = SimRng::seed_from_u64(13);
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(20);
        for _ in 0..1_000 {
            let d = rng.duration_between(lo, hi);
            assert!(d >= lo && d <= hi);
        }
        assert_eq!(rng.duration_between(lo, lo), lo);
    }

    #[test]
    fn jittered_bounds() {
        let mut rng = SimRng::seed_from_u64(17);
        let base = SimDuration::from_millis(100);
        for _ in 0..1_000 {
            let d = rng.jittered(base, 0.2);
            assert!(d >= SimDuration::from_millis(80) && d <= SimDuration::from_millis(120));
        }
        assert_eq!(rng.jittered(base, 0.0), base);
    }

    #[test]
    fn exponential_mean_is_plausible() {
        let mut rng = SimRng::seed_from_u64(19);
        let mean = SimDuration::from_millis(50);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| rng.exponential(mean).as_micros()).sum();
        let avg = total / n;
        assert!(
            (40_000..60_000).contains(&avg),
            "observed mean {avg}us, expected ~50_000us"
        );
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = SimRng::seed_from_u64(23);
        assert_eq!(rng.choose::<u8>(&[]), None);
        let v = [1, 2, 3];
        assert!(v.contains(rng.choose(&v).unwrap()));
        let mut s: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut s);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(s, sorted, "shuffle of 100 elements should not be identity");
    }
}
