//! The statistics every reported number goes through.

/// First quartile, median and third quartile, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// benchmark's acceptance rule uses for spreads.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range as a share of the median — the "spread" of the
/// acceptance rule. Zero for fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The percentile ladder `supported_percentile` chooses from, each rung
/// with the `k` for which one sample in `k` lies beyond it.
pub const PERCENTILE_LADDER: [(f64, usize); 7] = [
    (0.5, 2),
    (0.9, 10),
    (0.95, 20),
    (0.99, 100),
    (0.999, 1_000),
    (0.9999, 10_000),
    (0.99999, 100_000),
];

/// The highest percentile on the ladder that `n` samples support: the one
/// with at least ten samples beyond it. `None` when not even the median
/// qualifies (`n < 20`).
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rfind(|(_, k)| n >= 10 * k)
        .map(|(p, _)| *p)
}

/// Nearest-rank percentile `p` in `[0, 1]` of an ascending slice; 0 for an
/// empty one.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The largest gap between consecutive completions that overlaps
/// `[from, until]` — how long clients went without service around a fault.
/// `completions` are completion instants (any unit), ascending. The gap
/// that is open at `from` counts from the last completion before it, and
/// the gap still open at `until` runs to the first completion after it
/// (or to `until` when service never resumed in the data).
pub fn largest_gap(completions: &[u64], from: u64, until: u64) -> u64 {
    let mut prev = match completions.iter().rev().find(|&&t| t <= from) {
        Some(&t) => t,
        None => from,
    };
    let mut best = 0;
    for &t in completions.iter().filter(|&&t| t > from) {
        best = best.max(t - prev);
        prev = t;
        if t >= until {
            return best;
        }
    }
    best.max(until.saturating_sub(prev))
}

/// The `wall_ops_per_s` estimator over per-repetition rates: the mean of
/// the fastest half. Interference from the host only ever slows a
/// repetition down, so the fast half is the half least touched by it;
/// `NOISE.md` records the A/A comparison against the median and the upper
/// quartile that chose it.
pub fn fastest_half_mean(rates: &[f64]) -> f64 {
    assert!(!rates.is_empty(), "no repetitions");
    let mut v = rates.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let keep = v.len().div_ceil(2);
    v[..keep].iter().sum::<f64>() / keep as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(0.5));
        assert_eq!(supported_percentile(99), Some(0.5));
        assert_eq!(supported_percentile(100), Some(0.9));
        assert_eq!(supported_percentile(199), Some(0.9));
        assert_eq!(supported_percentile(200), Some(0.95));
        assert_eq!(supported_percentile(999), Some(0.95));
        assert_eq!(supported_percentile(1_000), Some(0.99));
        assert_eq!(supported_percentile(9_999), Some(0.99));
        assert_eq!(supported_percentile(10_000), Some(0.999));
        assert_eq!(supported_percentile(125_000), Some(0.9999));
        assert_eq!(supported_percentile(1_000_000), Some(0.99999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn largest_gap_spans_the_fault_instant() {
        // Steady completions every 10, an outage from 100 to 870.
        let mut c: Vec<u64> = (0..=10).map(|i| i * 10).collect();
        c.extend((0..10).map(|i| 870 + i * 10));
        // The crash at 105 falls inside the open gap, which started at 100.
        assert_eq!(largest_gap(&c, 105, 950), 770);
        // A search window that closes before service resumes still sees
        // the whole gap, through the first completion after it.
        assert_eq!(largest_gap(&c, 105, 500), 770);
        // Away from the outage only the steady spacing is left.
        assert_eq!(largest_gap(&c, 880, 950), 10);
    }

    #[test]
    fn a_gap_still_open_when_the_data_ends_runs_to_the_end_of_the_window() {
        assert_eq!(largest_gap(&[], 100, 400), 300);
        // Service stopped for good at 120.
        assert_eq!(largest_gap(&[100, 110, 120], 105, 400), 280);
    }

    #[test]
    fn fastest_half_mean_ignores_the_slow_half() {
        assert_eq!(fastest_half_mean(&[10.0, 1.0, 9.0, 2.0]), 9.5);
        assert_eq!(fastest_half_mean(&[10.0, 1.0, 7.0]), 8.5);
        assert_eq!(fastest_half_mean(&[4.0]), 4.0);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }
}
