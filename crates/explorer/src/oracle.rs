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

use wire::{EntryId, GroupId, LogScope, NodeId, SafetyChecker};

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
        }
    }

    /// The human-readable detail.
    pub fn message(&self) -> &str {
        match self {
            Violation::Safety(m)
            | Violation::Lin(m)
            | Violation::Lost(m)
            | Violation::Liveness(m) => m,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

/// The lost-proposal oracle: `node` observed its proposal `id` committed in
/// the `scope` log. A violation unless `safety` holds `id` committed in
/// that log (the explorer hosts one group, group 0). It reads the checker's
/// books and keeps no table of its own.
pub fn lost_proposal(
    safety: &SafetyChecker,
    node: NodeId,
    scope: LogScope,
    id: EntryId,
) -> Option<Violation> {
    if safety.is_committed(GroupId(0), node, scope, id) {
        return None;
    }
    Some(Violation::Lost(format!(
        "{node} was told its proposal {id} committed in the {scope:?} log, but no site committed it"
    )))
}
