//! The replica core: state every Raft-family engine carries identically.
//!
//! The paper presents Fast Raft as "a variation on the Raft consensus
//! algorithm" (§IV): terms, votes, heartbeats, the classic commit track,
//! snapshots and the client/session surface are inherited; only the
//! propose/decide rule, the election's up-to-dateness test and
//! self-announced membership are new. This module is the inherited part,
//! written once and held by composition in [`crate::RaftNode`] and
//! `consensus_core::FastRaftEngine`:
//!
//! - [`Applied`] — the applied state machine image: applied index, commit
//!   digest, exactly-once [`wire::SessionTable`], and the cached snapshot.
//!   It is the **only writer** of those four; engines feed it committed
//!   entries and ask it for snapshots.
//! - [`ReadPath`] — linearizable reads: the ReadIndex queue, the leader
//!   lease and its follower-side vote hold, the node's local clock, reads
//!   parked behind the apply pipeline, and the reads submitted at this
//!   gateway.
//! - [`ProposalIds`] — write-ahead-reserved proposal id minting.
//!
//! Everything here is generic over the engine's message enum (monomorphised
//! through [`wire::Actions`]); the one thing shared code must construct is
//! the `ClientReply` variant both enums carry, via [`ClientReplyMessage`].
//! What stays per engine, deliberately: the propose/commit rule, leader
//! election and step-down, AppendEntries dispatch and receipt, membership,
//! and the gateway's write tables.

mod applied;
mod ids;
mod reads;

use std::collections::BTreeMap;

use des::SimRng;
use wire::{
    Actions, ClientOutcome, LogIndex, LogScope, NodeId, Observation, PersistCmd, SessionId, Term,
    TimerKind,
};

use crate::Timing;

pub use applied::Applied;
pub use ids::ProposalIds;
pub use reads::ReadPath;

/// A protocol message enum that can carry a typed client answer from the
/// node that produced it back to the gateway the request entered at.
pub trait ClientReplyMessage: Sized {
    /// Builds the enum's `ClientReply { session, seq, outcome }` variant.
    fn client_reply(session: SessionId, seq: u64, outcome: ClientOutcome) -> Self;
}

/// Routes a client answer to its gateway `to`: as an
/// [`Observation::ClientResponse`] when the gateway is this node (`me`), as
/// a `ClientReply` message otherwise. The caller drops its own bookkeeping
/// for a locally answered request.
pub fn reply<M: ClientReplyMessage>(
    me: NodeId,
    to: NodeId,
    session: SessionId,
    seq: u64,
    outcome: ClientOutcome,
    out: &mut Actions<M>,
) {
    if to == me {
        out.observe(Observation::ClientResponse {
            session,
            seq,
            outcome,
        });
    } else {
        out.send(to, M::client_reply(session, seq, outcome));
    }
}

/// Persists the term and vote of the consensus level `scope` (write-ahead:
/// durable before any message of the step leaves this site).
pub fn persist_term_vote<M>(
    scope: LogScope,
    term: Term,
    voted_for: Option<NodeId>,
    out: &mut Actions<M>,
) {
    out.persist(PersistCmd::SetTermVote {
        scope,
        term,
        voted_for,
    });
}

/// (Re)arms the election timer `kind` with a fresh randomized timeout.
pub fn reset_election_timer<M>(
    timing: &Timing,
    rng: &mut SimRng,
    kind: TimerKind,
    out: &mut Actions<M>,
) {
    out.set_timer(kind, timing.election_timeout(rng));
}

/// Fills `groups` (emptied first) with one `(nextIndex, follower)` pair per
/// follower, ascending by nextIndex and — within one resume point — in the
/// order `followers` yields them: a leader assembles one budgeted batch per
/// run of equal nextIndex (`chunk_by`) and sends it to the run's followers.
/// A follower without a `next_index` entry resumes at `default_next`.
/// `groups` is the caller's scratch, so a dispatch allocates nothing once
/// it has held the membership.
pub fn group_by_next_index(
    groups: &mut Vec<(LogIndex, NodeId)>,
    followers: impl Iterator<Item = NodeId>,
    next_index: &BTreeMap<NodeId, LogIndex>,
    default_next: LogIndex,
) {
    groups.clear();
    for follower in followers {
        let next = next_index.get(&follower).copied().unwrap_or(default_next);
        // After every pair with an equal or lower resume point: stable.
        let at = groups.partition_point(|&(n, _)| n <= next);
        groups.insert(at, (next, follower));
    }
}

/// The answer owed to a gateway write (or registration) the applied session
/// table already covers at `first_index`.
pub fn covered_outcome(register: bool, session: SessionId, first_index: LogIndex) -> ClientOutcome {
    if register {
        ClientOutcome::Registered {
            session,
            index: first_index,
        }
    } else {
        ClientOutcome::Duplicate { first_index }
    }
}
