//! Insert gating: the hook that lets C-Raft run intra-cluster consensus
//! before a global-log insert takes effect (§V-B).
//!
//! Fast Raft inserts entries into the log at three points: when a site
//! receives a proposer broadcast, when the leader's decision loop chooses an
//! entry, and when a follower applies AppendEntries. In plain Fast Raft the
//! insert happens immediately ([`ProceedGate`]). At C-Raft's global level,
//! each insert must first be replicated within the cluster as a *global
//! state entry*; the engine defers the insert ([`GateVerdict::Defer`]) and
//! resumes when the embedding reports the local commit via
//! `FastRaftEngine::gate_ready`.

use wire::{LogEntry, LogIndex};

/// Why the engine wants to insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatePurpose {
    /// A proposer broadcast arrived: insert self-approved, then vote.
    ProposerInsert,
    /// The leader's decision loop chose this entry for the index.
    DecisionInsert,
    /// A follower applies a leader-approved entry from AppendEntries.
    AppendInsert,
}

/// Token identifying a deferred insert, echoed back via `gate_ready`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateToken(pub u64);

/// The gate's decision for one insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateVerdict {
    /// Insert immediately (plain Fast Raft).
    Proceed,
    /// Park the insert; the embedding completes it later with this token.
    Defer(GateToken),
}

/// Decides whether log inserts proceed immediately or await intra-cluster
/// replication.
pub trait InsertGate {
    /// Judges one insert of `entry` at `index`.
    fn begin(&mut self, index: LogIndex, entry: &LogEntry, purpose: GatePurpose) -> GateVerdict;
}

/// The trivial gate: every insert proceeds immediately.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProceedGate;

impl InsertGate for ProceedGate {
    fn begin(&mut self, _index: LogIndex, _entry: &LogEntry, _purpose: GatePurpose) -> GateVerdict {
        GateVerdict::Proceed
    }
}

/// One recorded deferral, for the embedding to act on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GateRequest {
    /// Token to echo back via `gate_ready`.
    pub token: GateToken,
    /// Global-log index being written.
    pub index: LogIndex,
    /// The entry being written.
    pub entry: LogEntry,
    /// Why the engine is writing.
    pub purpose: GatePurpose,
}

/// A deferring gate that records every request; used by C-Raft's global
/// level. Tokens are unique for the lifetime of the recorder.
#[derive(Clone, Debug, Default)]
pub struct GateRecorder {
    requests: Vec<GateRequest>,
    next_token: u64,
}

impl GateRecorder {
    /// Drains the requests recorded since the last call, in recording
    /// order. The recorder keeps its buffer, so a warmed-up recorder
    /// records and drains without allocating.
    pub fn drain(&mut self) -> std::vec::Drain<'_, GateRequest> {
        self.requests.drain(..)
    }
}

impl InsertGate for GateRecorder {
    fn begin(&mut self, index: LogIndex, entry: &LogEntry, purpose: GatePurpose) -> GateVerdict {
        let token = GateToken(self.next_token);
        self.next_token += 1;
        self.requests.push(GateRequest {
            token,
            index,
            entry: entry.clone(),
            purpose,
        });
        GateVerdict::Defer(token)
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
        let mut g = ProceedGate;
        assert_eq!(
            g.begin(LogIndex(1), &entry(), GatePurpose::ProposerInsert),
            GateVerdict::Proceed
        );
    }

    #[test]
    fn recorder_defers_with_unique_tokens() {
        let mut g = GateRecorder::default();
        let v1 = g.begin(LogIndex(1), &entry(), GatePurpose::DecisionInsert);
        let v2 = g.begin(LogIndex(2), &entry(), GatePurpose::AppendInsert);
        let (GateVerdict::Defer(t1), GateVerdict::Defer(t2)) = (v1, v2) else {
            panic!("recorder must defer");
        };
        assert_ne!(t1, t2);
        let reqs: Vec<GateRequest> = g.drain().collect();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].token, t1);
        assert_eq!(reqs[0].purpose, GatePurpose::DecisionInsert);
        assert_eq!(reqs[1].index, LogIndex(2));
        assert_eq!(g.drain().count(), 0);
    }

    #[test]
    fn tokens_remain_unique_across_drains() {
        let mut g = GateRecorder::default();
        g.begin(LogIndex(1), &entry(), GatePurpose::ProposerInsert);
        let first = g.drain().next().expect("one request");
        g.begin(LogIndex(1), &entry(), GatePurpose::ProposerInsert);
        let second = g.drain().next().expect("one request");
        assert_ne!(first.token, second.token);
    }
}
