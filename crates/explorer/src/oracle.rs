//! What the explorer checks: the violation taxonomy.
//!
//! Four oracles watch every schedule:
//!
//! - **Safety** — cross-site commit-digest equality at shared indices
//!   (Definition 2.1), via [`wire::SafetyChecker`], checked after every
//!   step.
//! - **Lin** — client-level linearizability of `Linearizable` reads, via
//!   the same checker's real-time bound tracking.
//! - **Lost** — every `Observation::ProposalCommitted` names an id some
//!   site committed in that scope ([`lost_proposal`]), checked after every
//!   step: a proposer told its proposal committed stops retrying it, so a
//!   notice no log backs loses the proposal.
//! - **Liveness** — once the schedule goes quiescent (all faults healed,
//!   messages drained, timers fired to a horizon, clients retried), every
//!   placed client operation must have resolved and every armed gate
//!   continuation and decision reservation must have drained to zero.
//!
//! A step that panics — a protocol `debug_assert!` under the `explore`
//! profile, say — ends the schedule with a [`Violation::Panic`], which
//! shrinks and saves like any other.

use wire::{EntryId, GroupId, LogIndex, LogScope, NodeId, SafetyChecker};

/// A property the schedule violated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two sites committed different entries at the same index.
    Safety(String),
    /// A linearizable read answered from before its real-time bound.
    Lin(String),
    /// A proposer was told a proposal committed that no site committed.
    Lost(String),
    /// The system wedged: an operation or gate continuation never resolved
    /// although the schedule went quiescent.
    Liveness(String),
    /// A step panicked; the message is the panic's.
    Panic(String),
}

impl Violation {
    /// Stable short tag — shrinking preserves this discriminant, so a
    /// minimized schedule reproduces the *same kind* of failure.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Safety(_) => "safety",
            Violation::Lin(_) => "lin",
            Violation::Lost(_) => "lost",
            Violation::Liveness(_) => "liveness",
            Violation::Panic(_) => "panic",
        }
    }

    /// The human-readable detail.
    pub fn message(&self) -> &str {
        match self {
            Violation::Safety(m)
            | Violation::Lin(m)
            | Violation::Lost(m)
            | Violation::Liveness(m)
            | Violation::Panic(m) => m,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

/// The lost-proposal oracle: `node` observed its proposal `id` committed
/// at `index` of the `scope` log. A violation unless `safety` holds `id`
/// committed in that log (the explorer hosts one group, group 0). It reads
/// the checker's books and keeps no table of its own.
///
/// A book holds only the indices above its log's horizon, which rises only
/// once every site of the log has snapshotted, less the down sites a
/// committed configuration excluded. A notice for an index at or below the
/// horizon names a slot the book has dropped, after the committing leader's
/// own report there passed the safety oracle; this oracle cannot judge it.
/// Under `Timing::lan()` no explorer run gets near a snapshot; a setup's
/// small snapshot threshold (`--snapshot`) is what raises a horizon.
pub fn lost_proposal(
    safety: &SafetyChecker,
    node: NodeId,
    scope: LogScope,
    id: EntryId,
    index: LogIndex,
) -> Option<Violation> {
    if index <= safety.horizon(GroupId(0), node, scope)
        || safety.is_committed(GroupId(0), node, scope, id)
    {
        return None;
    }
    Some(Violation::Lost(format!(
        "{node} was told its proposal {id} committed in the {scope:?} log, but no site committed it"
    )))
}
