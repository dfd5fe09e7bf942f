//! Protocol timing parameters.
//!
//! Defaults follow the paper's evaluation (§VI): 100 ms leader heartbeat for
//! intra-cluster consensus, 500 ms for inter-cluster consensus, member
//! timeout of five missed heartbeat responses. Values the paper leaves
//! unspecified (election timeout, proposal retry) get conservative defaults
//! that keep elections rare at ≤10 % message loss.

use des::{SimDuration, SimRng};

/// Timing knobs shared by classic Raft, Fast Raft, and each C-Raft level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// Leader heartbeat / AppendEntries dispatch period (paper: 100 ms
    /// intra-cluster, 500 ms inter-cluster).
    pub heartbeat: SimDuration,
    /// Period of Fast Raft's leader decision loop ("periodically run by the
    /// leader", §IV-B). The paper does not fix it; we default to half the
    /// heartbeat, which reproduces the reported 2× latency gap.
    pub decision_tick: SimDuration,
    /// Minimum election timeout. Must exceed `heartbeat` by enough margin
    /// that a few lost heartbeats do not trigger spurious elections.
    pub election_min: SimDuration,
    /// Maximum election timeout (timeouts are drawn uniformly from
    /// `[election_min, election_max]`, §III-A).
    pub election_max: SimDuration,
    /// Proposer-side retry period: resend an uncommitted proposal (§IV-B).
    pub proposal_timeout: SimDuration,
    /// Joining site's join-request retry period (§IV-D).
    pub join_timeout: SimDuration,
    /// Missed AppendEntries responses before the leader declares a silent
    /// leave (paper fig. 4 uses five).
    pub member_timeout_beats: u32,
    /// Decision ticks without progress before the leader fills a blocked
    /// log hole with a no-op proposal (liveness guard; see module docs of
    /// `consensus-core::fastraft`).
    pub hole_fill_ticks: u32,
    /// Maximum entries carried by one AppendEntries message.
    pub max_entries_per_append: usize,
    /// Snapshot/compaction threshold: once the committed-but-retained prefix
    /// of a log exceeds this many entries, the site compacts it into a
    /// [`wire::Snapshot`] and truncates the prefix, bounding per-site log
    /// residency. Followers whose `nextIndex` falls below a leader's first
    /// retained index catch up by snapshot transfer instead of log replay.
    /// `0` disables compaction (the pre-snapshot unbounded behavior).
    pub snapshot_threshold: u64,
    /// Session expiry TTL in **committed log indices** (the deterministic
    /// clock all replicas share): a session whose last applied activity
    /// lies more than this many commits below the commit floor is evicted
    /// from the `wire::SessionTable`, its eviction folded into the commit
    /// digest, and its stale retries refused with the **terminal**
    /// `wire::ClientOutcome::SessionExpired` instead of `Duplicate` (the
    /// client must open a fresh session). Bounds the table by *live*
    /// sessions instead of every session ever seen.
    /// `0` (the default) disables expiry — exactly-once dedup state is
    /// then retained forever, the pre-expiry behavior.
    ///
    /// Caveat: a stale retry is only *detectable* for `seq > 1`; an expired
    /// session retrying its very first write re-applies it (see
    /// `wire::SessionTable::is_expired_retry` for the full statement of
    /// the trade).
    pub session_ttl: u64,
    /// Leader-lease window: a follower that acks an AppendEntries at local
    /// time `T` promises not to vote for a *different* leader before
    /// `T + lease_duration` on its own clock. A leader holding such grants
    /// from a quorum (measured with the [`Timing::max_clock_skew`] margin
    /// subtracted) answers `Consistency::Linearizable` reads locally with
    /// **zero messages**; outside the window, reads fall back to the
    /// ReadIndex quorum round. `0` disables leases (every linearizable read
    /// pays the ReadIndex round — the pre-lease behavior). Leases are also
    /// inert on nodes whose embedding never stamps a local clock (see
    /// `wire::ConsensusProtocol::set_local_clock`), so purely event-driven
    /// tests are unaffected by the default. See `docs/CONSISTENCY.md`.
    pub lease_duration: SimDuration,
    /// Modeled worst-case clock skew between any two sites. The lease
    /// validity check subtracts it from every grant (a granter's clock may
    /// run up to this much behind the leader's), and a grant whose window
    /// proves the follower's clock *ahead* by more than this bound is
    /// rejected at receipt — beyond-bound skew degrades to the ReadIndex
    /// fallback instead of an unsafe lease. A fresh leader also waits
    /// `lease_duration + max_clock_skew` on its own clock before serving
    /// lease reads, so a deposed predecessor's lease can never overlap its
    /// writes.
    pub max_clock_skew: SimDuration,
    /// Modeled latency of one fsync boundary (one storage-level persist
    /// batch). With group commit, every protocol step that persisted
    /// anything delays its *outgoing messages* by this much — one boundary
    /// per step, however many commands the step emitted; the unbatched twin
    /// pays it once per command. `ZERO` (the default) keeps every existing
    /// trace byte-identical, so only latency-on runs observe the batching
    /// win. Must stay well below `election_min` ([`Timing::validate`]
    /// rejects `disk_fsync_latency >= election_min`): a stalled persist
    /// delays heartbeats, and a persist as slow as the election floor would
    /// make a healthy-but-syncing leader indistinguishable from a dead one.
    /// The lease window from PR 7 is *unaffected* by fsync latency — grants
    /// are stamped off acked heartbeats, which are themselves delayed, so
    /// the lease hold a follower promises still covers the leader's (later)
    /// read; the `lease_duration + max_clock_skew <= election_min` bound
    /// already absorbs the shift. But a latency near the lease window would
    /// starve lease renewal for the same reason it starves heartbeats —
    /// keep it an order of magnitude below both.
    pub disk_fsync_latency: SimDuration,
    /// When `true`, state-machine apply is decoupled from the protocol step:
    /// commit advancement only *queues* the newly committed range, and the
    /// embedding drains the queue as a separate stage (after the step's
    /// messages are released), so a leader can assemble the next
    /// AppendEntries while the previous commit range applies. Apply *order*
    /// is unchanged — same entries, same digests, same session-table
    /// transitions — only its scheduling moves. `false` (the default)
    /// applies inline at the commit point, byte-identical to the
    /// pre-pipelining traces.
    pub pipelined_apply: bool,
}

impl Timing {
    /// The paper's intra-cluster (single-region) configuration.
    pub fn lan() -> Self {
        Timing {
            heartbeat: SimDuration::from_millis(100),
            decision_tick: SimDuration::from_millis(50),
            election_min: SimDuration::from_millis(500),
            election_max: SimDuration::from_millis(1000),
            proposal_timeout: SimDuration::from_millis(200),
            join_timeout: SimDuration::from_millis(1000),
            member_timeout_beats: 5,
            hole_fill_ticks: 8,
            max_entries_per_append: 128,
            snapshot_threshold: 1024,
            session_ttl: 0,
            lease_duration: SimDuration::from_millis(300),
            max_clock_skew: SimDuration::from_millis(50),
            disk_fsync_latency: SimDuration::ZERO,
            pipelined_apply: false,
        }
    }

    /// The paper's inter-cluster (global) configuration: 500 ms heartbeat,
    /// election timeouts scaled accordingly.
    pub fn wan() -> Self {
        Timing {
            heartbeat: SimDuration::from_millis(500),
            decision_tick: SimDuration::from_millis(250),
            election_min: SimDuration::from_millis(2500),
            election_max: SimDuration::from_millis(5000),
            proposal_timeout: SimDuration::from_millis(1500),
            join_timeout: SimDuration::from_millis(5000),
            member_timeout_beats: 5,
            hole_fill_ticks: 8,
            max_entries_per_append: 128,
            snapshot_threshold: 1024,
            session_ttl: 0,
            lease_duration: SimDuration::from_millis(1500),
            max_clock_skew: SimDuration::from_millis(250),
            disk_fsync_latency: SimDuration::ZERO,
            pipelined_apply: false,
        }
    }

    /// Draws a randomized election timeout from `[election_min,
    /// election_max]`.
    pub fn election_timeout(&self, rng: &mut SimRng) -> SimDuration {
        rng.duration_between(self.election_min, self.election_max)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot sustain a stable leader (election
    /// window shorter than two heartbeats, zero timeouts, ...).
    pub fn validate(&self) {
        assert!(!self.heartbeat.is_zero(), "heartbeat must be positive");
        assert!(
            !self.decision_tick.is_zero(),
            "decision tick must be positive"
        );
        assert!(
            self.election_min >= self.heartbeat * 2,
            "election_min {} must be at least two heartbeats {}",
            self.election_min,
            self.heartbeat
        );
        assert!(
            self.election_max >= self.election_min,
            "election_max below election_min"
        );
        assert!(self.member_timeout_beats > 0, "member timeout of zero beats");
        assert!(
            self.max_entries_per_append > 0,
            "append batch size must be positive"
        );
        if !self.lease_duration.is_zero() {
            // A follower's vote-hold must expire no later than its own
            // election timer can fire after the *last* heartbeat it acked;
            // otherwise the hold could outlive the follower's willingness to
            // elect anyone, or — worse — a lease could be considered live
            // past the point a granter legitimately votes. Keeping
            // lease + skew inside the minimum election timeout preserves
            // both liveness and the safety margin.
            assert!(
                self.lease_duration + self.max_clock_skew <= self.election_min,
                "lease_duration {} + max_clock_skew {} must not exceed election_min {}",
                self.lease_duration,
                self.max_clock_skew,
                self.election_min
            );
        }
        assert!(
            self.disk_fsync_latency < self.election_min,
            "disk_fsync_latency {} must stay below election_min {}: a stalled \
             persist delays heartbeats and must not look like a dead peer",
            self.disk_fsync_latency,
            self.election_min
        );
    }

    /// The replication budget for one AppendEntries dispatch: this many
    /// entries, [`wire::MAX_BYTES_PER_APPEND`] bytes.
    pub fn append_budget(&self) -> wire::AppendBudget {
        wire::AppendBudget::new(self.max_entries_per_append, wire::MAX_BYTES_PER_APPEND)
    }
}

impl Default for Timing {
    /// Defaults to the paper's intra-cluster configuration.
    fn default() -> Self {
        Timing::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        Timing::lan().validate();
        Timing::wan().validate();
    }

    #[test]
    fn paper_values() {
        assert_eq!(Timing::lan().heartbeat, SimDuration::from_millis(100));
        assert_eq!(Timing::wan().heartbeat, SimDuration::from_millis(500));
        assert_eq!(Timing::lan().member_timeout_beats, 5);
    }

    #[test]
    fn election_timeout_in_range() {
        let t = Timing::lan();
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            let d = t.election_timeout(&mut rng);
            assert!(d >= t.election_min && d <= t.election_max);
        }
    }

    #[test]
    fn lease_window_fits_inside_election_min() {
        for t in [Timing::lan(), Timing::wan()] {
            assert!(t.lease_duration + t.max_clock_skew <= t.election_min);
            assert_eq!(t.lease_duration, t.heartbeat * 3);
            assert_eq!(t.max_clock_skew, t.heartbeat / 2);
        }
    }

    #[test]
    #[should_panic(expected = "must not exceed election_min")]
    fn validate_rejects_oversized_lease() {
        let mut t = Timing::lan();
        t.lease_duration = t.election_min;
        t.max_clock_skew = SimDuration::from_millis(1);
        t.validate();
    }

    #[test]
    #[should_panic(expected = "two heartbeats")]
    fn validate_rejects_tight_election_window() {
        let mut t = Timing::lan();
        t.election_min = t.heartbeat;
        t.validate();
    }

    #[test]
    fn presets_model_no_fsync_latency_and_inline_apply() {
        for t in [Timing::lan(), Timing::wan()] {
            assert!(t.disk_fsync_latency.is_zero());
            assert!(!t.pipelined_apply);
        }
    }

    #[test]
    fn validate_accepts_modest_fsync_latency() {
        let mut t = Timing::lan();
        t.disk_fsync_latency = SimDuration::from_millis(5);
        t.validate();
    }

    #[test]
    #[should_panic(expected = "must stay below election_min")]
    fn validate_rejects_fsync_latency_at_election_floor() {
        let mut t = Timing::lan();
        t.disk_fsync_latency = t.election_min;
        t.validate();
    }
}
