//! Run metrics: commit latency, throughput, protocol-track counters.

use std::collections::BTreeMap;

use des::{SimDuration, SimTime};
use serde::Serialize;
use wire::{LogIndex, NodeId, SessionId};

/// Key of one client operation: its `(session, seq)`.
pub type ClientOpKey = (SessionId, u64);

/// One completed proposal, as measured at its proposer (the paper's
/// methodology: "the proposer started a timer when first proposing an entry
/// and stopped the timer when ... notified ... that the entry was
/// committed", §VI).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct LatencySample {
    /// The issuing session (sessions are node-derived in the harness).
    pub proposer: NodeId,
    /// When the value was first proposed.
    pub proposed_at: SimTime,
    /// When the proposer learned of the commit.
    pub committed_at: SimTime,
}

impl LatencySample {
    /// The commit latency.
    pub fn latency(&self) -> SimDuration {
        self.committed_at.saturating_since(self.proposed_at)
    }
}

/// Aggregated statistics over a set of durations.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean, in milliseconds.
    pub mean_ms: f64,
    /// Median, in milliseconds.
    pub p50_ms: f64,
    /// 95th percentile, in milliseconds.
    pub p95_ms: f64,
    /// Maximum, in milliseconds.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Computes stats from raw durations without copying or reordering
    /// them: the iterator is walked a few times (one pass for the count,
    /// sum and maximum, then a radix selection per percentile), so the
    /// memory used does not grow with the number of durations. The
    /// percentiles are exact: the same order statistics a sort would pick.
    pub fn from_durations<I>(durations: I) -> Self
    where
        I: IntoIterator<Item = SimDuration>,
        I::IntoIter: Clone,
    {
        let micros = durations.into_iter().map(|d| d.as_micros());
        let (count, sum, max) = micros
            .clone()
            .fold((0usize, 0u64, 0u64), |(n, sum, max), v| {
                (n + 1, sum + v, max.max(v))
            });
        if count == 0 {
            return LatencyStats::default();
        }
        let pct = |p: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            select_nth(micros.clone(), idx, max) as f64 / 1e3
        };
        LatencyStats {
            count,
            mean_ms: sum as f64 / count as f64 / 1e3,
            p50_ms: pct(0.5),
            p95_ms: pct(0.95),
            max_ms: max as f64 / 1e3,
        }
    }
}

/// The `k`-th smallest (0-based) of `values`, all at most `max`: a
/// most-significant-digit radix selection, one counting pass per 8-bit
/// digit of `max` with a fixed 256-bucket histogram. Each pass narrows the
/// answer's prefix by one digit and `k` to its rank among the values that
/// share that prefix.
fn select_nth(values: impl Iterator<Item = u64> + Clone, mut k: usize, max: u64) -> u64 {
    let mut prefix = 0u64;
    let mut shift = (u64::BITS - max.leading_zeros()).div_ceil(8) * 8;
    while shift > 0 {
        shift -= 8;
        let mut counts = [0usize; 256];
        for v in values.clone() {
            // Two shifts: `shift + 8` reaches 64 on the top digit.
            if (v >> shift) >> 8 == prefix {
                counts[((v >> shift) & 0xff) as usize] += 1;
            }
        }
        let mut digit = 0;
        while k >= counts[digit] {
            k -= counts[digit];
            digit += 1;
        }
        prefix = prefix << 8 | digit as u64;
    }
    prefix
}

/// Metrics collected over one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Completed writes in completion order.
    pub samples: Vec<LatencySample>,
    /// Completed reads in completion order (client-measured, from first
    /// submission to the typed `ReadOk`).
    pub read_samples: Vec<LatencySample>,
    /// Outstanding client operations by `(session, seq)`.
    inflight: BTreeMap<ClientOpKey, SimTime>,
    /// Global log indices already counted, one bit each (bit `i % 64` of
    /// word `i / 64` is index `i`): set at an index's first report in the
    /// measurement window.
    global_seen: Vec<u64>,
    /// Application values committed to the global log in the measurement
    /// window, each index counted once.
    global_items: u64,
    /// Leader fast-track commits observed.
    pub fast_commits: u64,
    /// Leader classic-track commits observed.
    pub classic_commits: u64,
    /// Elections started.
    pub elections: u64,
    /// Leaderships assumed.
    pub leaderships: u64,
    /// Members suspected of silent leaves.
    pub member_suspected: u64,
    /// Configuration entries committed.
    pub config_commits: u64,
    /// Times a leader's liveness guard re-proposed a no-op at a blocked log
    /// hole after its stalled decision ticks.
    pub hole_repairs: u64,
    /// Log-prefix compactions performed (all sites, both scopes).
    pub compactions: u64,
    /// Snapshots installed from a leader transfer (all sites, both scopes).
    pub snapshot_installs: u64,
    /// Client retries answered `Duplicate` — the write took effect on an
    /// earlier attempt and the resubmission was suppressed, not re-applied
    /// (counted once per suppressed retry, at its gateway).
    pub duplicates_suppressed: u64,
    /// Client-side resubmissions (timeouts plus Redirect/Retry outcomes).
    pub client_retries: u64,
    /// Writes refused or skipped because their session idled past
    /// `Timing::session_ttl` and was garbage-collected (terminal
    /// `SessionExpired` outcomes observed at gateways).
    pub sessions_expired: u64,
    /// Front-gapped global view detections at (re)activating C-Raft
    /// cluster leaders (ROADMAP snapshot item b probe).
    pub global_view_gaps: u64,
    /// Linearizable reads served from a live leader lease (zero messages).
    pub lease_reads: u64,
    /// Linearizable reads that ran a ReadIndex quorum round (no lease, or
    /// the lease had lapsed / was still behind the enable barrier).
    pub readindex_reads: u64,
    /// Peak per-site log residency: the maximum, over sites and time, of
    /// retained stable-storage log entries (both scopes combined). With
    /// compaction enabled this stays bounded by the snapshot thresholds;
    /// without it, it grows linearly with run length.
    pub log_residency_peak: u64,
    /// Fsync boundaries charged across all sites: one per persisting
    /// protocol step under group commit, one per command in the unbatched
    /// twin. The honest write-path cost — `persist_cmds / persist_batches`
    /// is the coalescing factor group commit buys.
    pub persist_batches: u64,
    /// Persist commands written across all sites (identical between the
    /// batched and unbatched twins; only the boundary count differs).
    pub persist_cmds: u64,
    /// Protocol steps that released at least one message.
    pub dispatches: u64,
    /// Messages offered to the network across all dispatches.
    pub messages_sent: u64,
    /// Encoded bytes offered to the network across all dispatches.
    pub bytes_sent: u64,
    /// When measurement began (samples before this are ignored).
    pub measure_from: SimTime,
}

impl Metrics {
    /// Fresh metrics measuring from `measure_from`.
    pub fn new(measure_from: SimTime) -> Self {
        Metrics {
            measure_from,
            ..Metrics::default()
        }
    }

    /// Records a client operation being issued (first submission only:
    /// retries of the same key keep the original start time, measuring
    /// client-perceived latency).
    pub fn op_started(&mut self, key: ClientOpKey, now: SimTime) {
        self.inflight.entry(key).or_insert(now);
    }

    /// Records the client receiving its typed outcome. Returns the sample
    /// when the operation was tracked. Reads are told apart from writes by
    /// their id ([`wire::is_read_id`]).
    pub fn op_completed(&mut self, key: ClientOpKey, now: SimTime) -> Option<LatencySample> {
        let proposed_at = self.inflight.remove(&key)?;
        let sample = LatencySample {
            proposer: NodeId(key.0.as_u64()),
            proposed_at,
            committed_at: now,
        };
        if now >= self.measure_from {
            if wire::is_read_id(key.1) {
                self.read_samples.push(sample);
            } else {
                self.samples.push(sample);
            }
        }
        Some(sample)
    }

    /// Records a committed global-log entry carrying `items` application
    /// values. Deduplicated by index: each global slot counts once, with
    /// the `items` of its first report in the measurement window.
    pub fn global_commit(&mut self, index: LogIndex, items: u64, now: SimTime) {
        if now >= self.measure_from {
            let (word, bit) = ((index.as_u64() / 64) as usize, 1 << (index.as_u64() % 64));
            if self.global_seen.len() <= word {
                self.global_seen.resize(word + 1, 0);
            }
            if self.global_seen[word] & bit == 0 {
                self.global_seen[word] |= bit;
                self.global_items += items;
            }
        }
    }

    /// Completed-write latency statistics.
    pub fn latency_stats(&self) -> LatencyStats {
        LatencyStats::from_durations(self.samples.iter().map(LatencySample::latency))
    }

    /// Completed-read latency statistics.
    pub fn read_latency_stats(&self) -> LatencyStats {
        LatencyStats::from_durations(self.read_samples.iter().map(LatencySample::latency))
    }

    /// Total application values committed to the global log in the
    /// measurement window.
    pub fn global_committed_items(&self) -> u64 {
        self.global_items
    }

    /// Throughput in committed values per simulated second over `window`.
    pub fn throughput(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        self.global_committed_items() as f64 / window.as_secs_f64()
    }

    /// Records one protocol step that offered `messages` totalling `bytes`
    /// to the network.
    pub fn record_dispatch(&mut self, messages: u64, bytes: u64) {
        self.dispatches += 1;
        self.messages_sent += messages;
        self.bytes_sent += bytes;
    }

    /// Records one persisting protocol step: `boundaries` fsync boundaries
    /// covering `cmds` persist commands.
    pub fn note_persists(&mut self, boundaries: u64, cmds: u64) {
        self.persist_batches += boundaries;
        self.persist_cmds += cmds;
    }

    /// Mean persist commands coalesced per fsync boundary (1.0 in the
    /// unbatched twin by construction; higher is cheaper).
    pub fn cmds_per_batch(&self) -> f64 {
        if self.persist_batches == 0 {
            0.0
        } else {
            self.persist_cmds as f64 / self.persist_batches as f64
        }
    }

    /// Records one site's current stable-log residency (retained entries
    /// across both scopes), keeping the running peak.
    pub fn note_residency(&mut self, entries: u64) {
        if entries > self.log_residency_peak {
            self.log_residency_peak = entries;
        }
    }

    /// Mean encoded bytes released per message-producing protocol step —
    /// the fan-out cost the zero-copy fabric amortizes.
    pub fn bytes_per_dispatch(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / self.dispatches as f64
        }
    }

    /// Fraction of leader commits that used the fast track.
    pub fn fast_track_ratio(&self) -> f64 {
        let total = self.fast_commits + self.classic_commits;
        if total == 0 {
            0.0
        } else {
            self.fast_commits as f64 / total as f64
        }
    }

    /// Proposals still outstanding.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64, s: u64) -> ClientOpKey {
        (SessionId::client(n), s)
    }

    #[test]
    fn latency_roundtrip() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.op_started(id(1, 0), SimTime::from_millis(10));
        let s = m.op_completed(id(1, 0), SimTime::from_millis(35)).unwrap();
        assert_eq!(s.latency(), SimDuration::from_millis(25));
        assert_eq!(m.samples.len(), 1);
        assert_eq!(m.inflight(), 0);
        // A read id, even one whose ordinal equals a write's seq, is a read.
        m.op_started(id(1, wire::read_id(0)), SimTime::from_millis(40));
        m.op_completed(id(1, wire::read_id(0)), SimTime::from_millis(41));
        assert_eq!((m.samples.len(), m.read_samples.len()), (1, 1));
    }

    #[test]
    fn unknown_completion_is_none() {
        let mut m = Metrics::new(SimTime::ZERO);
        assert!(m.op_completed(id(1, 0), SimTime::ZERO).is_none());
    }

    #[test]
    fn warmup_samples_are_dropped_from_stats() {
        let mut m = Metrics::new(SimTime::from_secs(1));
        m.op_started(id(1, 0), SimTime::from_millis(100));
        m.op_completed(id(1, 0), SimTime::from_millis(200));
        assert_eq!(m.samples.len(), 0, "pre-warmup sample recorded");
        m.op_started(id(1, 1), SimTime::from_millis(999));
        m.op_completed(id(1, 1), SimTime::from_millis(1500));
        assert_eq!(m.samples.len(), 1);
    }

    #[test]
    fn global_commits_deduplicate_by_index() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.global_commit(LogIndex(1), 10, SimTime::from_millis(1));
        m.global_commit(LogIndex(1), 10, SimTime::from_millis(2));
        m.global_commit(LogIndex(2), 5, SimTime::from_millis(3));
        assert_eq!(m.global_committed_items(), 15);
        assert!((m.throughput(SimDuration::from_secs(3)) - 5.0).abs() < 1e-9);
    }

    /// The representation `global_commit` replaced, one `Option` per
    /// global index: the reference the bitset and running sum must match.
    fn reference_items(reports: &[(u64, u64, u64)], from_ms: u64) -> u64 {
        let mut slots: Vec<Option<u64>> = Vec::new();
        for &(index, items, at_ms) in reports {
            if at_ms >= from_ms {
                let slot = index as usize;
                if slots.len() <= slot {
                    slots.resize(slot + 1, None);
                }
                slots[slot].get_or_insert(items);
            }
        }
        slots.iter().flatten().sum()
    }

    proptest::proptest! {
        /// Duplicate, out-of-order and pre-window reports, over indices that
        /// cross several bitset words: each index counts once, with the
        /// items of its first report inside the window.
        #[test]
        fn global_commit_matches_the_per_index_fold(
            reports in proptest::collection::vec((0u64..300, 1u64..20, 0u64..100), 0..200),
            from_ms in 0u64..100,
        ) {
            let mut m = Metrics::new(SimTime::from_millis(from_ms));
            for &(index, items, at_ms) in &reports {
                m.global_commit(LogIndex(index), items, SimTime::from_millis(at_ms));
            }
            let want = reference_items(&reports, from_ms);
            proptest::prop_assert_eq!(m.global_committed_items(), want);
        }
    }

    #[test]
    fn stats_percentiles() {
        let durations: Vec<SimDuration> = (1..=100).map(SimDuration::from_millis).collect();
        let s = LatencyStats::from_durations(durations);
        assert_eq!(s.count, 100);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
        assert!((s.p50_ms - 50.0).abs() <= 1.0);
        assert!((s.p95_ms - 95.0).abs() <= 1.0);
        assert!((s.max_ms - 100.0).abs() < 1e-9);
    }

    /// The sort-based computation `from_durations` replaced: the reference
    /// its radix selection must match bit for bit.
    fn sorted_reference(mut v: Vec<SimDuration>) -> LatencyStats {
        if v.is_empty() {
            return LatencyStats::default();
        }
        v.sort_unstable();
        let count = v.len();
        let sum: u64 = v.iter().map(|d| d.as_micros()).sum();
        let pct = |p: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            v[idx].as_micros() as f64 / 1e3
        };
        LatencyStats {
            count,
            mean_ms: sum as f64 / count as f64 / 1e3,
            p50_ms: pct(0.5),
            p95_ms: pct(0.95),
            max_ms: v[count - 1].as_micros() as f64 / 1e3,
        }
    }

    fn bits(s: LatencyStats) -> (usize, [u64; 4]) {
        let LatencyStats {
            count,
            mean_ms,
            p50_ms,
            p95_ms,
            max_ms,
        } = s;
        (count, [mean_ms, p50_ms, p95_ms, max_ms].map(f64::to_bits))
    }

    proptest::proptest! {
        /// Small and wide magnitudes (one to eight radix digits), heavy
        /// duplicates and single samples: every field equals the sorted
        /// computation's bit for bit.
        #[test]
        fn radix_stats_match_the_sorted_reference(
            micros in proptest::collection::vec(
                proptest::prop_oneof![0u64..4, 0u64..300_000, 0u64..u64::MAX / 1_000_000],
                0..300,
            ),
        ) {
            let durations: Vec<SimDuration> =
                micros.iter().map(|&m| SimDuration::from_micros(m)).collect();
            let got = LatencyStats::from_durations(durations.iter().copied());
            proptest::prop_assert_eq!(bits(got), bits(sorted_reference(durations)));
        }
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::from_durations(Vec::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_ms, 0.0);
    }

    #[test]
    fn residency_peak_is_monotone() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.note_residency(10);
        m.note_residency(4);
        assert_eq!(m.log_residency_peak, 10);
        m.note_residency(25);
        assert_eq!(m.log_residency_peak, 25);
    }

    #[test]
    fn fast_track_ratio() {
        let mut m = Metrics::new(SimTime::ZERO);
        assert_eq!(m.fast_track_ratio(), 0.0);
        m.fast_commits = 3;
        m.classic_commits = 1;
        assert!((m.fast_track_ratio() - 0.75).abs() < 1e-12);
    }
}
