//! Shared leader-lease machinery for quorum-free linearizable reads.
//!
//! A ReadIndex round (see [`crate::ReadIndexQueue`]) proves leadership *per
//! read* with a quorum round trip. Leases amortize that proof over time: a
//! follower that acks an AppendEntries at local time `T` **grants** its
//! leader a promise not to vote for a different leader before
//! `T + lease_duration` on the follower's own clock, and a leader holding
//! live grants from a classic quorum answers linearizable reads locally with
//! zero messages — nobody who could depose it can be elected while the
//! grants last.
//!
//! Clocks in the sans-IO stack are *local inputs*, not a shared oracle: the
//! embedding stamps each node's view of "now" before every handler (see
//! [`crate::ConsensusProtocol::set_local_clock`]) and different nodes' clocks
//! may disagree by up to a modeled `max_clock_skew`. All comparisons here are
//! therefore either same-clock (a granter checks its own promise against its
//! own clock — exact) or cross-clock with the skew margin applied in the
//! pessimistic direction. Two guards keep beyond-bound skew *unavailable*
//! rather than unsafe:
//!
//! 1. **Grant admission** ([`LeaseState::record_grant`]): a message cannot
//!    arrive before it was sent, so a grant stamped at follower time `T`
//!    arriving at leader time `now` with `T > now + max_clock_skew` proves
//!    the follower's clock runs ahead beyond the modeled bound — the grant
//!    is rejected and the leader falls back to ReadIndex.
//! 2. **Validity margin** ([`LeaseState::valid_at`]): a counted grant must
//!    satisfy `granted_until − max_clock_skew > now`, covering granter
//!    clocks running *behind* by up to the bound.
//!
//! The full safety argument (including the new-leader wait and the
//! deposed-leader case) lives in `docs/CONSISTENCY.md`.

use std::collections::BTreeMap;

use des::{SimDuration, SimTime};

use crate::{Configuration, NodeId};

/// Leader-side lease bookkeeping: one grant per follower plus the
/// enable-time barrier a fresh leader must wait out.
///
/// A default-constructed `LeaseState` is **inert** (`enabled_at` is
/// [`SimTime::MAX`]): it never validates until the owner explicitly calls
/// [`LeaseState::enable_after`] with a live local clock. This is what keeps
/// purely event-driven embeddings (unit tests that never stamp clocks)
/// byte-identical to the pre-lease behavior even with leases configured on.
#[derive(Clone, Debug)]
pub struct LeaseState {
    /// Per-follower `granted_until`, on the **granter's** clock.
    grants: BTreeMap<NodeId, SimTime>,
    /// Leader-clock instant before which no lease may be served (fresh
    /// leaders wait out a predecessor's worst-case lease + skew).
    enabled_at: SimTime,
}

impl Default for LeaseState {
    fn default() -> Self {
        LeaseState {
            grants: BTreeMap::new(),
            enabled_at: SimTime::MAX,
        }
    }
}

impl LeaseState {
    /// An inert lease (never valid until [`LeaseState::enable_after`]).
    pub fn new() -> Self {
        LeaseState::default()
    }

    /// Arms the lease starting `wait` after `now` on the leader's clock.
    /// Called at election win with `wait = lease_duration + max_clock_skew`:
    /// any lease the *previous* leader could still be serving under expires
    /// within that window, so waiting it out makes the handover safe even if
    /// every other guard failed. A `now` of [`SimTime::ZERO`] (the embedding
    /// never stamped a clock) leaves the lease inert.
    pub fn enable_after(&mut self, now: SimTime, wait: SimDuration) {
        self.enabled_at = if now == SimTime::ZERO {
            SimTime::MAX
        } else {
            now.saturating_add(wait)
        };
    }

    /// Records a follower's grant (`granted_until` on the follower's clock,
    /// received at leader-clock `now`), returning `false` if the grant was
    /// rejected by the skew guard: the grant was stamped `lease_duration`
    /// before `granted_until`, and a stamp provably in the receiver's future
    /// beyond `max_clock_skew` means the granter's clock violates the
    /// modeled bound — counting it could validate a lease a quorum no
    /// longer backs. Zero grants (clockless followers) are ignored; a
    /// fresher grant from the same follower extends, never shortens.
    pub fn record_grant(
        &mut self,
        from: NodeId,
        granted_until: SimTime,
        now: SimTime,
        lease_duration: SimDuration,
        max_clock_skew: SimDuration,
    ) -> bool {
        if granted_until == SimTime::ZERO {
            return true; // not a grant, nothing to record
        }
        // stamped_at > now + skew  ⟺  granted_until > now + skew + duration
        if granted_until
            > now
                .saturating_add(max_clock_skew)
                .saturating_add(lease_duration)
        {
            return false;
        }
        let slot = self.grants.entry(from).or_insert(SimTime::ZERO);
        if granted_until > *slot {
            *slot = granted_until;
        }
        true
    }

    /// `true` when the lease covers leader-clock instant `now`: the enable
    /// barrier has passed and a classic quorum of `config` (counting the
    /// leader's implicit self-grant, and discounting every follower grant by
    /// `max_clock_skew` for granter clocks running behind) is still
    /// promising not to elect anyone else.
    pub fn valid_at(
        &self,
        now: SimTime,
        config: &Configuration,
        leader: NodeId,
        max_clock_skew: SimDuration,
    ) -> bool {
        if now == SimTime::ZERO || now < self.enabled_at {
            return false;
        }
        let horizon = now.saturating_add(max_clock_skew);
        let live = config
            .iter()
            .filter(|&m| m != leader)
            .filter(|m| self.grants.get(m).is_some_and(|&until| until > horizon))
            .count();
        live + usize::from(config.contains(leader)) >= config.classic_quorum()
    }

    /// Drops every grant and disarms the lease (step-down, term change,
    /// deactivation). The next leadership must re-arm and re-collect.
    pub fn clear(&mut self) {
        self.grants.clear();
        self.enabled_at = SimTime::MAX;
    }
}

/// Follower-side vote hold: the other half of the lease promise.
///
/// Granting a lease is only sound because the granter *enforces* it against
/// itself: while `now < until` on its own clock (a same-clock comparison —
/// no skew margin needed), it refuses `RequestVote`s from any candidate
/// other than the leader it granted to. Its own election timer cannot fire
/// inside the window either (`Timing::validate` pins
/// `lease_duration + max_clock_skew ≤ election_min`, and the hold is
/// stamped when the election timer is reset).
#[derive(Clone, Copy, Debug, Default)]
pub struct VoteHold {
    leader: Option<NodeId>,
    until: SimTime,
}

impl VoteHold {
    /// No hold.
    pub fn new() -> Self {
        VoteHold::default()
    }

    /// Records a grant of `until` to `leader` (replacing any previous hold —
    /// a follower acks appends from one leader at a time).
    pub fn note_grant(&mut self, leader: NodeId, until: SimTime) {
        self.leader = Some(leader);
        self.until = until;
    }

    /// `true` when a vote for `candidate` at local time `now` would break a
    /// live promise. Never blocks with a frozen clock (`now` ZERO), the
    /// promised leader itself, or after expiry.
    pub fn blocks(&self, candidate: NodeId, now: SimTime) -> bool {
        now != SimTime::ZERO && now < self.until && self.leader.is_some_and(|l| l != candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUR: SimDuration = SimDuration::from_millis(300);
    const SKEW: SimDuration = SimDuration::from_millis(50);

    fn cfg(n: u64) -> Configuration {
        (0..n).map(NodeId).collect()
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn default_lease_is_inert() {
        let l = LeaseState::new();
        assert!(!l.valid_at(t(1_000_000), &cfg(1), NodeId(0), SKEW));
    }

    #[test]
    fn frozen_clock_never_validates_or_enables() {
        let mut l = LeaseState::new();
        l.enable_after(SimTime::ZERO, DUR + SKEW);
        l.record_grant(NodeId(1), t(10_000), SimTime::ZERO, DUR, SKEW);
        assert!(!l.valid_at(SimTime::ZERO, &cfg(3), NodeId(0), SKEW));
        assert!(!l.valid_at(t(10_000), &cfg(3), NodeId(0), SKEW));
    }

    #[test]
    fn quorum_of_live_grants_validates() {
        let mut l = LeaseState::new();
        l.enable_after(t(1000), SimDuration::ZERO);
        let c = cfg(5); // quorum 3: self + 2 grants
        let now = t(1000);
        assert!(l.record_grant(NodeId(1), t(1300), now, DUR, SKEW));
        assert!(!l.valid_at(now, &c, NodeId(0), SKEW), "one grant short");
        assert!(l.record_grant(NodeId(2), t(1300), now, DUR, SKEW));
        assert!(l.valid_at(now, &c, NodeId(0), SKEW));
        // At 1250, grants-minus-skew cover exactly to 1250 — not beyond.
        assert!(!l.valid_at(t(1250), &c, NodeId(0), SKEW));
        assert!(l.valid_at(t(1249), &c, NodeId(0), SKEW));
    }

    #[test]
    fn enable_barrier_blocks_until_waited_out() {
        let mut l = LeaseState::new();
        l.enable_after(t(1000), DUR + SKEW); // enabled at 1350
        let c = cfg(3);
        let now = t(1300);
        // Stamped at follower time 1350 (at the skew bound): admissible.
        assert!(l.record_grant(NodeId(1), t(1350) + DUR, now, DUR, SKEW));
        assert!(!l.valid_at(t(1349), &c, NodeId(0), SKEW));
        assert!(l.valid_at(t(1350), &c, NodeId(0), SKEW));
    }

    #[test]
    fn skew_guard_rejects_clocks_ahead_beyond_bound() {
        let mut l = LeaseState::new();
        l.enable_after(t(1000), SimDuration::ZERO);
        let now = t(1000);
        // Stamped at 1051 on the follower's clock: 51ms ahead > 50ms bound.
        assert!(!l.record_grant(NodeId(1), t(1051) + DUR, now, DUR, SKEW));
        // Exactly at the bound is admissible.
        assert!(l.record_grant(NodeId(2), t(1050) + DUR, now, DUR, SKEW));
        let c = cfg(5); // quorum 3: self + 2 grants needed
        assert!(
            !l.valid_at(now, &c, NodeId(0), SKEW),
            "rejected grant must not count"
        );
        assert!(l.record_grant(NodeId(1), t(1040) + DUR, now, DUR, SKEW));
        assert!(l.valid_at(now, &c, NodeId(0), SKEW));
    }

    #[test]
    fn fresher_grants_extend_and_stale_ones_do_not_shorten() {
        let mut l = LeaseState::new();
        l.enable_after(t(1000), SimDuration::ZERO);
        let c = cfg(3);
        l.record_grant(NodeId(1), t(2000), t(1800), DUR, SKEW);
        assert!(l.valid_at(t(1900), &c, NodeId(0), SKEW));
        // A reordered older grant must not pull the window back.
        l.record_grant(NodeId(1), t(1500), t(1800), DUR, SKEW);
        assert!(l.valid_at(t(1900), &c, NodeId(0), SKEW));
    }

    #[test]
    fn zero_grant_is_ignored_not_rejected() {
        let mut l = LeaseState::new();
        l.enable_after(t(1000), SimDuration::ZERO);
        assert!(l.record_grant(NodeId(1), SimTime::ZERO, t(1000), DUR, SKEW));
        assert!(!l.valid_at(t(1000), &cfg(3), NodeId(0), SKEW));
    }

    #[test]
    fn clear_disarms() {
        let mut l = LeaseState::new();
        l.enable_after(t(1000), SimDuration::ZERO);
        let c = cfg(3);
        l.record_grant(NodeId(1), t(1300), t(1000), DUR, SKEW);
        assert!(l.valid_at(t(1000), &c, NodeId(0), SKEW));
        l.clear();
        assert!(!l.valid_at(t(1000), &c, NodeId(0), SKEW));
    }

    #[test]
    fn non_member_grants_do_not_count() {
        let mut l = LeaseState::new();
        l.enable_after(t(1000), SimDuration::ZERO);
        let c = cfg(3); // members 0,1,2; quorum 2
        l.record_grant(NodeId(9), t(1300), t(1000), DUR, SKEW);
        assert!(!l.valid_at(t(1000), &c, NodeId(0), SKEW));
    }

    #[test]
    fn single_voter_self_grants() {
        let mut l = LeaseState::new();
        l.enable_after(t(1000), SimDuration::ZERO);
        assert!(l.valid_at(t(1000), &cfg(1), NodeId(0), SKEW));
    }

    #[test]
    fn vote_hold_blocks_rivals_only_while_live() {
        let mut h = VoteHold::new();
        assert!(!h.blocks(NodeId(2), t(100)));
        h.note_grant(NodeId(1), t(400));
        assert!(h.blocks(NodeId(2), t(399)));
        assert!(
            !h.blocks(NodeId(1), t(399)),
            "promised leader never blocked"
        );
        assert!(!h.blocks(NodeId(2), t(400)), "expired");
        assert!(!h.blocks(NodeId(2), SimTime::ZERO), "frozen clock");
    }
}
