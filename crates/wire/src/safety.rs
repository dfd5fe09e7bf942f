//! Online safety checking (Definition 2.1) plus client-level
//! linearizability checking for `Linearizable` reads.
//!
//! Every commit notification from every hosted node flows through a
//! [`SafetyChecker`] (the [`crate::Driver`] records each step's commits);
//! if two sites ever commit different entries at the same index of the
//! same log, the run records a violation with full context. A log is one
//! `(group, domain, scope)`: each consensus group of a sharded fabric
//! keeps its own logs, so one index committed in two groups is no
//! conflict. Experiments assert [`SafetyChecker::assert_ok`] at the end of
//! every run, including runs with crash/churn/partition schedules.
//!
//! The linearizability check works on real-time order at the client
//! boundary: when a `Linearizable` read is **first submitted**, the checker
//! snapshots, per scope, the highest commit index of any *completed* write
//! and the highest floor of any *completed* linearizable read. When the
//! read completes, its returned commit floor must be at least that
//! snapshot — a linearizable read may never answer from a point before an
//! operation that finished before the read began.

use des::IdMap;

use crate::{
    ClientOp, ClientOutcome, Consistency, EntryId, GroupId, LogIndex, LogScope, NodeId, SessionId,
};

/// A detected violation of the safety property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SafetyViolation {
    /// The consensus group whose log disagreed.
    pub group: GroupId,
    /// The log scope disagreed on.
    pub scope: LogScope,
    /// The index disagreed on.
    pub index: LogIndex,
    /// First committer and its entry.
    pub first: (NodeId, EntryId),
    /// Conflicting committer and its entry.
    pub second: (NodeId, EntryId),
}

impl std::fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "safety violation at {} {:?} {}: {} committed {} but {} committed {}",
            self.group,
            self.scope,
            self.index,
            self.first.0,
            self.first.1,
            self.second.0,
            self.second.1
        )
    }
}

/// A linearizability violation: a read answered from before its bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinViolation {
    /// The reading session.
    pub session: SessionId,
    /// The read's sequence number.
    pub seq: u64,
    /// The scope of the returned floor.
    pub scope: LogScope,
    /// The commit floor the read returned.
    pub floor: LogIndex,
    /// The minimum floor real-time order required.
    pub bound: LogIndex,
}

impl std::fmt::Display for LinViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "linearizability violation: read {}:{} returned {:?} floor {} below bound {} \
             (an operation completed before the read began reached that index)",
            self.session, self.seq, self.scope, self.floor, self.bound
        )
    }
}

/// One log's commits: the first `(committer, entry)` seen at each index,
/// indexed by the log index itself (commits fill a dense prefix).
type CommitBook = Vec<Option<(NodeId, EntryId)>>;

/// Cross-site commit consistency checker.
///
/// Local-scope commits are compared within a *domain* (a cluster); Global
/// commits are system-wide. The domain of a node is defined by a caller
/// -provided mapping (identity/constant for single-cluster protocols).
#[derive(Default)]
pub struct SafetyChecker {
    /// One book per `(group, domain, scope)` log.
    chosen: IdMap<(GroupId, u64, LogScope), CommitBook>,
    violations: Vec<SafetyViolation>,
    domain_of: Option<Box<dyn Fn(NodeId) -> u64 + Send>>,
    commits_seen: u64,
    /// Per scope: the highest index any *completed* operation (write commit
    /// or linearizable-read floor) is known to have reached.
    completed_bound: IdMap<LogScope, LogIndex>,
    /// In-flight linearizable reads: the per-scope bound snapshot taken at
    /// first submission.
    read_bounds: IdMap<(SessionId, u64), [(LogScope, LogIndex); 2]>,
    lin_violations: Vec<LinViolation>,
    reads_checked: u64,
}

impl std::fmt::Debug for SafetyChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SafetyChecker")
            .field("commits_seen", &self.commits_seen)
            .field("violations", &self.violations)
            .field("reads_checked", &self.reads_checked)
            .field("lin_violations", &self.lin_violations)
            .finish_non_exhaustive()
    }
}

impl SafetyChecker {
    /// A checker with all nodes in one local domain.
    pub fn new() -> Self {
        SafetyChecker::default()
    }

    /// A checker with a cluster mapping for Local-scope commits.
    pub fn with_domains(f: impl Fn(NodeId) -> u64 + Send + 'static) -> Self {
        SafetyChecker {
            domain_of: Some(Box::new(f)),
            ..SafetyChecker::default()
        }
    }

    /// The domain `node`'s `scope` log is judged in: its cluster for
    /// Local scope, one system-wide domain (`u64::MAX`) for Global.
    pub fn domain(&self, node: NodeId, scope: LogScope) -> u64 {
        match scope {
            LogScope::Global => u64::MAX,
            LogScope::Local => self.domain_of.as_ref().map_or(0, |f| f(node)),
        }
    }

    /// Records a commit observed at `node` of `group`.
    pub fn record(
        &mut self,
        group: GroupId,
        node: NodeId,
        scope: LogScope,
        index: LogIndex,
        id: EntryId,
    ) {
        self.commits_seen += 1;
        let domain = self.domain(node, scope);
        let book = self.chosen.entry((group, domain, scope)).or_default();
        let slot = index.as_u64() as usize;
        if book.len() <= slot {
            book.resize(slot + 1, None);
        }
        match book[slot] {
            None => book[slot] = Some((node, id)),
            Some(first) if first.1 != id => self.violations.push(SafetyViolation {
                group,
                scope,
                index,
                first,
                second: (node, id),
            }),
            Some(_) => {}
        }
    }

    /// `true` when some site committed `id` in the `scope` log `node` of
    /// `group` is judged in (see [`SafetyChecker::domain`]): a scan of that
    /// log's book, for oracles that check what a node was told.
    pub fn is_committed(&self, group: GroupId, node: NodeId, scope: LogScope, id: EntryId) -> bool {
        let book = self.chosen.get(&(group, self.domain(node, scope), scope));
        book.is_some_and(|b| b.iter().flatten().any(|&(_, e)| e == id))
    }

    // ------------------------------------------------------------------
    // Client-level linearizability checking
    // ------------------------------------------------------------------

    /// Records a client write completing with its application index: later
    /// linearizable reads must not answer from before it.
    pub fn write_completed(&mut self, scope: LogScope, index: LogIndex) {
        let bound = self.completed_bound.entry(scope).or_insert(LogIndex::ZERO);
        if index > *bound {
            *bound = index;
        }
    }

    /// Records a linearizable read being **first submitted**: snapshots the
    /// current per-scope bounds the eventual answer must respect.
    /// Idempotent for retries of the same `(session, seq)` — the
    /// linearization window opens at the first invocation.
    pub fn read_started(&mut self, session: SessionId, seq: u64) {
        let bound = |scope| {
            let index = self.completed_bound.get(&scope).copied();
            (scope, index.unwrap_or(LogIndex::ZERO))
        };
        let snapshot = [bound(LogScope::Global), bound(LogScope::Local)];
        self.read_bounds.entry((session, seq)).or_insert(snapshot);
    }

    /// Records a linearizable read completing with its answered floor,
    /// checking it against the bound snapshotted at submission and folding
    /// it into the bound for subsequent reads (reads must also be monotone
    /// among themselves in real time).
    pub fn read_completed(
        &mut self,
        session: SessionId,
        seq: u64,
        scope: LogScope,
        floor: LogIndex,
    ) {
        self.reads_checked += 1;
        if let Some(snapshot) = self.read_bounds.remove(&(session, seq)) {
            let bound = snapshot
                .iter()
                .find(|(s, _)| *s == scope)
                .map(|(_, b)| *b)
                .unwrap_or(LogIndex::ZERO);
            if floor < bound {
                self.lin_violations.push(LinViolation {
                    session,
                    seq,
                    scope,
                    floor,
                    bound,
                });
            }
        }
        // This read's floor becomes part of the bound: a later read must
        // not observe less.
        let bound = self.completed_bound.entry(scope).or_insert(LogIndex::ZERO);
        if floor > *bound {
            *bound = floor;
        }
    }

    /// Folds a client op's `outcome` into the bounds above: a write's
    /// acknowledged index (a suppressed duplicate's first index, when
    /// known) completes a write in `ack_scope`, and the answer to a
    /// linearizable read is checked as [`SafetyChecker::read_completed`].
    /// Other outcomes carry no index and change nothing.
    pub fn op_completed(
        &mut self,
        ack_scope: LogScope,
        session: SessionId,
        seq: u64,
        op: &ClientOp,
        outcome: &ClientOutcome,
    ) {
        match *outcome {
            ClientOutcome::Committed { index }
            | ClientOutcome::Duplicate { first_index: index }
                if !index.is_zero() =>
            {
                self.write_completed(ack_scope, index)
            }
            ClientOutcome::ReadOk {
                scope,
                commit_floor,
            } if matches!(op, ClientOp::Read(Consistency::Linearizable)) => {
                self.read_completed(session, seq, scope, commit_floor);
            }
            _ => {}
        }
    }

    /// Linearizability violations recorded so far.
    pub fn lin_violations(&self) -> &[LinViolation] {
        &self.lin_violations
    }

    /// Number of linearizable reads checked.
    pub fn reads_checked(&self) -> u64 {
        self.reads_checked
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[SafetyViolation] {
        &self.violations
    }

    /// Total commits checked.
    pub fn commits_seen(&self) -> u64 {
        self.commits_seen
    }

    /// `true` if no violation (commit-consistency or linearizability) was
    /// recorded.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty() && self.lin_violations.is_empty()
    }

    /// Panics with diagnostics on any violation.
    ///
    /// # Panics
    ///
    /// Panics if the safety property (or read linearizability) was violated
    /// during the run.
    pub fn assert_ok(&self) {
        if let Some(v) = self.violations.first() {
            panic!("{v} ({} more)", self.violations.len() - 1);
        }
        if let Some(v) = self.lin_violations.first() {
            panic!("{v} ({} more)", self.lin_violations.len() - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G0: GroupId = GroupId(0);

    fn id(n: u64, s: u64) -> EntryId {
        EntryId::new(NodeId(n), s)
    }

    #[test]
    fn agreeing_commits_pass() {
        let mut c = SafetyChecker::new();
        c.record(G0, NodeId(1), LogScope::Global, LogIndex(1), id(9, 0));
        c.record(G0, NodeId(2), LogScope::Global, LogIndex(1), id(9, 0));
        assert!(c.is_ok());
        assert_eq!(c.commits_seen(), 2);
        c.assert_ok();
    }

    #[test]
    fn conflicting_commits_flagged() {
        let mut c = SafetyChecker::new();
        c.record(G0, NodeId(1), LogScope::Global, LogIndex(1), id(9, 0));
        c.record(G0, NodeId(2), LogScope::Global, LogIndex(1), id(9, 1));
        assert!(!c.is_ok());
        assert_eq!(c.violations().len(), 1);
        let v = &c.violations()[0];
        assert_eq!(v.group, G0);
        assert_eq!(v.first, (NodeId(1), id(9, 0)));
        assert_eq!(v.second, (NodeId(2), id(9, 1)));
        assert!(v.to_string().contains("safety violation"));
    }

    #[test]
    #[should_panic(expected = "safety violation")]
    fn assert_ok_panics_on_violation() {
        let mut c = SafetyChecker::new();
        c.record(G0, NodeId(1), LogScope::Global, LogIndex(1), id(9, 0));
        c.record(G0, NodeId(2), LogScope::Global, LogIndex(1), id(9, 1));
        c.assert_ok();
    }

    #[test]
    fn local_domains_are_independent() {
        let mut c = SafetyChecker::with_domains(|n| n.as_u64() / 3);
        // Nodes 0..2 are cluster 0; nodes 3..5 cluster 1.
        c.record(G0, NodeId(0), LogScope::Local, LogIndex(1), id(0, 0));
        c.record(G0, NodeId(3), LogScope::Local, LogIndex(1), id(3, 0));
        assert!(c.is_ok(), "different clusters may differ at Local #1");
        // Within a cluster they must agree.
        c.record(G0, NodeId(1), LogScope::Local, LogIndex(1), id(1, 5));
        assert!(!c.is_ok());
    }

    #[test]
    fn linearizable_read_below_completed_write_is_flagged() {
        let mut c = SafetyChecker::new();
        let s = SessionId::client(1);
        c.write_completed(LogScope::Global, LogIndex(10));
        c.read_started(s, 1);
        c.read_completed(s, 1, LogScope::Global, LogIndex(9));
        assert!(!c.is_ok());
        assert_eq!(c.lin_violations().len(), 1);
        assert_eq!(c.lin_violations()[0].bound, LogIndex(10));
        assert!(c.lin_violations()[0].to_string().contains("linearizability"));
    }

    #[test]
    fn linearizable_read_at_or_above_bound_passes() {
        let mut c = SafetyChecker::new();
        let s = SessionId::client(1);
        c.write_completed(LogScope::Global, LogIndex(10));
        c.read_started(s, 1);
        // A write completing *after* the read started does not raise the
        // read's bound (real-time order permits either answer).
        c.write_completed(LogScope::Global, LogIndex(50));
        c.read_completed(s, 1, LogScope::Global, LogIndex(10));
        assert!(c.is_ok());
        assert_eq!(c.reads_checked(), 1);
        c.assert_ok();
    }

    #[test]
    fn reads_are_monotone_among_themselves() {
        let mut c = SafetyChecker::new();
        let a = SessionId::client(1);
        let b = SessionId::client(2);
        c.read_started(a, 1);
        c.read_completed(a, 1, LogScope::Global, LogIndex(30));
        // A read starting after a completed read must not see less.
        c.read_started(b, 1);
        c.read_completed(b, 1, LogScope::Global, LogIndex(29));
        assert!(!c.is_ok());
    }

    #[test]
    #[should_panic(expected = "linearizability violation")]
    fn assert_ok_panics_on_lin_violation() {
        let mut c = SafetyChecker::new();
        let s = SessionId::client(1);
        c.write_completed(LogScope::Global, LogIndex(5));
        c.read_started(s, 1);
        c.read_completed(s, 1, LogScope::Global, LogIndex(1));
        c.assert_ok();
    }

    #[test]
    fn scopes_bound_independently() {
        let mut c = SafetyChecker::new();
        let s = SessionId::client(1);
        c.write_completed(LogScope::Local, LogIndex(40));
        c.read_started(s, 1);
        // A Global-scope answer is not bounded by Local-scope completions.
        c.read_completed(s, 1, LogScope::Global, LogIndex(2));
        assert!(c.is_ok());
    }

    #[test]
    fn global_scope_ignores_domains() {
        let mut c = SafetyChecker::with_domains(|n| n.as_u64());
        c.record(G0, NodeId(0), LogScope::Global, LogIndex(4), id(0, 0));
        c.record(G0, NodeId(9), LogScope::Global, LogIndex(4), id(0, 1));
        assert!(!c.is_ok());
    }

    #[test]
    fn groups_keep_separate_logs() {
        let mut c = SafetyChecker::new();
        c.record(G0, NodeId(0), LogScope::Global, LogIndex(1), id(0, 0));
        c.record(
            GroupId(1),
            NodeId(0),
            LogScope::Global,
            LogIndex(1),
            id(0, 1),
        );
        assert!(
            c.is_ok(),
            "one index may hold different entries in two groups"
        );
        c.record(
            GroupId(1),
            NodeId(1),
            LogScope::Global,
            LogIndex(1),
            id(0, 2),
        );
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].group, GroupId(1));
        assert!(c.violations()[0].to_string().contains("g1"));
    }

    #[test]
    fn op_completed_maps_outcomes_to_bounds() {
        let mut c = SafetyChecker::new();
        let s = SessionId::client(1);
        let write = ClientOp::Write(bytes::Bytes::from_static(b"w"));
        let lin = ClientOp::Read(Consistency::Linearizable);
        let unknown = ClientOutcome::Duplicate {
            first_index: LogIndex::ZERO,
        };
        c.op_completed(LogScope::Global, s, 1, &write, &unknown);
        c.read_started(s, 9);
        c.read_completed(s, 9, LogScope::Global, LogIndex::ZERO);
        assert!(c.is_ok(), "a duplicate of unknown index raises no bound");
        let dup = ClientOutcome::Duplicate {
            first_index: LogIndex(7),
        };
        c.op_completed(LogScope::Global, s, 2, &write, &dup);
        let stale = ClientOutcome::ReadOk {
            scope: LogScope::Global,
            commit_floor: LogIndex(6),
        };
        c.read_started(s, 10);
        c.op_completed(
            LogScope::Global,
            s,
            10,
            &ClientOp::Read(Consistency::StaleLocal),
            &stale,
        );
        assert!(c.is_ok(), "only linearizable reads are checked");
        c.read_started(s, 11);
        c.op_completed(LogScope::Global, s, 11, &lin, &stale);
        assert_eq!(c.lin_violations().len(), 1);
        assert_eq!(c.lin_violations()[0].bound, LogIndex(7));
    }
}
