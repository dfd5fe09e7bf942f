//! The replica core: what every Raft-family engine carries identically,
//! state and steps.
//!
//! The paper presents Fast Raft as "a variation on the Raft consensus
//! algorithm" (§IV): terms, votes, heartbeats, the classic commit track,
//! snapshot catch-up and the client/session surface are inherited; only the
//! propose/decide rule, the election's up-to-dateness test and
//! self-announced membership are new. This module is the inherited part,
//! written once. [`crate::RaftNode`] and `consensus_core::FastRaftEngine`
//! each hold one [`Replica`] **by composition**, next to what is truly
//! theirs, and do their own work as plain statements before and after the
//! shared call — no trait object, no callback, no engine parameter, no mode
//! flag.
//!
//! - [`Replica`] — the 21 fields both engines used to declare (term, vote,
//!   log, commit index, role, leader hint, configuration, vote book,
//!   `next_index`/`match_index`, learners, the gateway's id and read
//!   tables, …) plus the consensus scope and the two timers its steps arm,
//!   and the protocol steps over them:
//!
//!   | step | `Replica` method(s) | what stays in the engine |
//!   |---|---|---|
//!   | construction, crash recovery | `new`, `restore` | Fast Raft's `verified`, `last_leader_index`, `join_contacts` |
//!   | step-down | `become_follower` | re-arming the election timer (a Fast Raft joiner does not campaign), `LeaderTick`, `verified`, `recovery_votes` |
//!   | candidacy | `start_election` | the `RequestVote` it sends (which `(index, term)` it advertises), the silent-eviction probe |
//!   | vote grant | `screen_vote_request`, `grant_vote` | the step-down between them, the up-to-dateness pair, the `self_approved` payload |
//!   | tally | `on_vote_reply`, `won_election` | recovery replay, the first decision pass |
//!   | leader init | `become_leader`, `start_heartbeats` | start index, term no-op vs vote recovery, `LeaderTick` |
//!   | fan-out | `heartbeat`, `dispatch_append_entries` | the upper bound (`last_index` vs `last_leader_index`) |
//!   | log write | `insert_entry`, `insert_bound` | when to insert: truncate-on-conflict vs slot voting |
//!   | ack bookkeeping | `on_ack` | what committing does, join completion, proactive repair, the rewind point |
//!   | classic commit scan | `quorum_commit_point` | the upper bound (contiguous leader-approved reach) |
//!   | snapshot receipt | `install_snapshot` | following the sender, membership effects of the adopted configuration, the gateway sweep, the ack |
//!   | reply path | `respond_client`, `absorbs_redirect`, `client_read`, `on_client_read`, `register_read`, `applied_session_state_current` | which write table is cleared, `Registered` remap, the fresh-leader read floor |
//!
//!   A step that may end in a step-down reports it ([`Reply::NewerTerm`],
//!   the halves of vote handling) instead of performing it: stepping down
//!   has engine-specific parts whose place in the emitted [`wire::Actions`]
//!   matters, and every step emits the same `Actions` in the same per-`Vec`
//!   order, and draws from the election-timeout stream at the same points,
//!   as the engine bodies it replaced.
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
//! through [`wire::Actions`]); the variants shared code must construct are
//! the ones both enums carry with the same payload, via
//! [`ClientReplyMessage`].
//!
//! What stays per engine, deliberately: the propose/commit rule,
//! AppendEntries *receipt* (truncate-on-conflict vs slot voting genuinely
//! differ), applying a committed entry, membership, and the gateway's write
//! tables (`pending` vs `client_pending`/`pending_proposals`).

mod applied;
mod ids;
mod reads;
mod state;

use wire::{
    Actions, ClientOutcome, EntryList, LogIndex, NodeId, Observation, SessionId, Snapshot, Term,
};

pub use applied::Applied;
pub use ids::ProposalIds;
pub use reads::ReadPath;
pub use state::{Replica, Reply};

/// The message variants shared steps construct: both engines' enums carry
/// them with the same payload, so a step written once is monomorphised over
/// either through [`wire::Actions`]. (Named for its first member, the typed
/// client answer travelling from the node that produced it back to the
/// gateway the request entered at.)
pub trait ClientReplyMessage: Sized {
    /// Builds the enum's `ClientReply { session, seq, outcome }` variant.
    fn client_reply(session: SessionId, seq: u64, outcome: ClientOutcome) -> Self;

    /// Builds the enum's `ClientRead { session, seq }` variant.
    fn client_read(session: SessionId, seq: u64) -> Self;

    /// Builds the enum's `AppendEntries` variant. An enum whose followers
    /// do not check `prev_term` (Fast Raft verifies by contiguity) drops it.
    fn append_entries(
        term: Term,
        leader: NodeId,
        prev_index: LogIndex,
        prev_term: Term,
        entries: EntryList,
        leader_commit: LogIndex,
        probe: u64,
    ) -> Self;

    /// Builds the enum's `InstallSnapshot { term, leader, snapshot }` variant.
    fn install_snapshot(term: Term, leader: NodeId, snapshot: Snapshot) -> Self;

    /// Builds the enum's `InstallSnapshotReply { term, last_index }` variant.
    fn install_snapshot_reply(term: Term, last_index: LogIndex) -> Self;
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
