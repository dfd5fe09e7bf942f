//! The insert gate: how C-Raft runs intra-cluster consensus before a
//! global-log insert takes effect (§V-B).
//!
//! Fast Raft inserts entries into the log at three points: when a site
//! receives a proposer broadcast, when the leader inserts a leader-approved
//! entry (a decision, a forwarded proposal, a term no-op, a configuration),
//! and when a follower applies AppendEntries. Every one of them passes the
//! engine's one gate, which the embedding turns on or off once, when it
//! builds the engine (`FastRaftNode::gated`); there is no other insert
//! door, so no insert path can bypass it. An ungated engine (plain Fast
//! Raft, C-Raft's local level) inserts at once. A gated engine (C-Raft's
//! global level) records a [`GateRequest`] instead: the embedding drains the
//! requests, replicates each within its cluster as a *global state entry*,
//! and resumes the insert with `FastRaftNode::gate_ready` once that entry
//! commits locally.
//!
//! Gated inserts land by one rule, so a release order cannot leave a hole
//! in the leader-approved prefix:
//! - a leader's inserts land in index order: one released above an
//!   unreleased reservation waits for it;
//! - a follower's AppendEntries batch lands whole, in index order, when its
//!   last gate releases, and only if its term is still current;
//! - a follower inserts only the run contiguous with its verified prefix,
//!   and a leader ships only its dense leader-approved prefix.
//!
//! A continuation from a superseded term never lands: the slot may since
//! hold (even have committed) a newer leader's entry.

use wire::{LogEntry, LogIndex};

/// Token identifying a deferred insert, echoed back via `gate_ready`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateToken(pub u64);

/// One deferred insert, for the embedding to act on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GateRequest {
    /// Token to echo back via `gate_ready`.
    pub token: GateToken,
    /// Log index being written.
    pub index: LogIndex,
    /// The entry being written.
    pub entry: LogEntry,
}

/// The engine's gate: defers every insert while on, none while off. Tokens
/// are unique for the lifetime of the gate.
#[derive(Clone, Debug, Default)]
pub(crate) struct GateRecorder {
    on: bool,
    requests: Vec<GateRequest>,
    next_token: u64,
}

impl GateRecorder {
    /// A gate that defers every insert (`on`) or none.
    pub(crate) fn new(on: bool) -> Self {
        GateRecorder {
            on,
            ..Self::default()
        }
    }

    /// Judges one insert of `entry` at `index`: `None` lets it land now, a
    /// token parks it until `gate_ready` echoes the token.
    pub(crate) fn defer(&mut self, index: LogIndex, entry: &LogEntry) -> Option<GateToken> {
        if !self.on {
            return None;
        }
        let token = GateToken(self.next_token);
        self.next_token += 1;
        self.requests.push(GateRequest {
            token,
            index,
            entry: entry.clone(),
        });
        Some(token)
    }

    /// Drains the requests recorded since the last call, in recording
    /// order. The gate keeps its buffer, so a warmed-up gate records and
    /// drains without allocating.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, GateRequest> {
        self.requests.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use wire::{EntryId, NodeId, SessionId, Term};

    fn entry() -> LogEntry {
        LogEntry::write(
            Term(1),
            EntryId::new(NodeId(1), 0),
            SessionId::client(1),
            1,
            Bytes::from_static(b"x"),
        )
    }

    #[test]
    fn proceed_gate_always_proceeds() {
        let mut g = GateRecorder::new(false);
        assert_eq!(g.defer(LogIndex(1), &entry()), None);
        assert_eq!(g.drain().count(), 0);
    }

    #[test]
    fn recorder_defers_with_unique_tokens() {
        let mut g = GateRecorder::new(true);
        let t1 = g
            .defer(LogIndex(1), &entry())
            .expect("a gated insert defers");
        let t2 = g
            .defer(LogIndex(2), &entry())
            .expect("a gated insert defers");
        assert_ne!(t1, t2);
        let reqs: Vec<GateRequest> = g.drain().collect();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].token, t1);
        assert_eq!(reqs[1].index, LogIndex(2));
        assert_eq!(g.drain().count(), 0);
    }

    #[test]
    fn tokens_remain_unique_across_drains() {
        let mut g = GateRecorder::new(true);
        g.defer(LogIndex(1), &entry());
        let first = g.drain().next().expect("one request");
        g.defer(LogIndex(1), &entry());
        let second = g.drain().next().expect("one request");
        assert_ne!(first.token, second.token);
    }
}
