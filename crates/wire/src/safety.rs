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
//! A log's book keeps only the indices some site can still report. Its
//! *horizon* is the least, over the log's sites, of the last index each
//! site's latest stable snapshot covers — 0 for a site that never
//! snapshotted and for one that is down. The log's sites are those that
//! committed into or snapshotted it, less those a committed configuration
//! of the log dropped: a site that configuration excludes and that is down
//! when some site reports the commit (a silent leave, or a crash the
//! member timeout evicted). An excluded site that is up still counts, and
//! a dropped site that reports again re-enters at 0, like a new one.
//!
//! No report can land at or below the horizon: a live site reports only
//! above its commit index, a recovering one only above its stable
//! snapshot, and a joiner only above its leader's compaction point, which
//! is at least the leader's own snapshot. A member can learn its first
//! commits after the other sites compacted past them (its commit index
//! arrives late, or in a message sent before the leader compacted), so a
//! host that knows a log's members enters each up front, with a stable
//! snapshot through 0 ([`SafetyChecker::snapshot_stable`]); a site first
//! seen in a report counts from then on. A dropped site comes back only
//! as a joiner: it is no longer a member, so no leader replicates to it
//! until it asks to join, and the leader then sends from index 1
//! (`next_index` = `LogIndex::FIRST`), which a compacted leader answers
//! with its snapshot, at or above the horizon. So the book drops every
//! index at or below the horizon, and a run's record stops growing with
//! its length, a departed site's included. A commit reported there anyway
//! is a violation, never skipped: a wrong horizon can raise a false alarm
//! but cannot hide a disagreement.
//!
//! The linearizability check works on real-time order at the client
//! boundary: when a `Linearizable` read is **first submitted**, the checker
//! snapshots, per scope of the read's group, the highest commit index of
//! any *completed* write and the highest floor of any *completed*
//! linearizable read in that group. When the read completes, its returned
//! commit floor must be at least that snapshot — a linearizable read may
//! never answer from a point before an operation on its log that finished
//! before the read began. Groups are independent logs, so one group's
//! indices never bound another's reads. The client side of this — which
//! read is first submitted, which answer completes an op — is
//! [`crate::ClientLane`]'s, the one caller of these hooks.

use std::collections::VecDeque;

use des::IdMap;

use crate::{
    ClientOp, ClientOutcome, ClientRequest, Configuration, Consistency, EntryId, GroupId, LogIndex,
    LogScope, NodeId, SessionId,
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
    /// First committer and its entry; `None` when `index` lies at or below
    /// the log's horizon, whose entries the book no longer holds.
    pub first: Option<(NodeId, EntryId)>,
    /// Conflicting committer and its entry.
    pub second: (NodeId, EntryId),
}

impl std::fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (g, scope, i, (node, id)) = (self.group, self.scope, self.index, self.second);
        write!(f, "safety violation at {g} {scope:?} {i}: ")?;
        match self.first {
            Some((n, e)) => write!(f, "{n} committed {e} but {node} committed {id}"),
            None => write!(f, "{node} committed {id} at or below the horizon"),
        }
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

/// One log's commits above its `horizon` (see the module docs).
/// `slots[i]` holds the first entry committed at index `horizon + 1 + i`
/// and its first committer as a 1-based position in `sites`; position 0
/// marks an index nothing committed yet. That is 24 bytes per index, in
/// one ring. `sites` holds every site that committed into or snapshotted
/// this log, with the last index its latest stable snapshot covers, or
/// [`DROPPED`]; a dropped site keeps its position, so a slot still names
/// its first committer.
#[derive(Default)]
struct CommitBook {
    sites: Vec<(NodeId, LogIndex)>,
    horizon: LogIndex,
    slots: VecDeque<(u32, EntryId)>,
}

/// The stable snapshot a committed configuration leaves a site it dropped
/// with: the site counts toward no horizon until it reports again.
const DROPPED: LogIndex = LogIndex(u64::MAX);

impl CommitBook {
    /// `node`'s 1-based position in `sites`, entering it at 0 if new or
    /// dropped.
    fn site(&mut self, node: NodeId) -> u32 {
        let at = self.sites.iter().position(|&(n, _)| n == node);
        let at = at.unwrap_or_else(|| {
            self.sites.push((node, LogIndex::ZERO));
            self.sites.len() - 1
        });
        let stable = &mut self.sites[at].1;
        if *stable == DROPPED {
            *stable = LogIndex::ZERO;
        }
        at as u32 + 1
    }

    /// Raises the horizon to the least stable snapshot over the sites not
    /// dropped, a down one (`!up`) counting 0, and drops the slots at or
    /// below it.
    fn rise(&mut self, up: impl Fn(NodeId) -> bool) {
        let counted = self.sites.iter().filter(|&&(_, s)| s != DROPPED);
        let stable = |&(n, s): &(NodeId, LogIndex)| if up(n) { s } else { LogIndex::ZERO };
        let horizon = counted.map(stable).min().unwrap_or_default();
        if horizon > self.horizon {
            let drop = (horizon.as_u64() - self.horizon.as_u64()) as usize;
            self.slots.drain(..drop.min(self.slots.len()));
            self.horizon = horizon;
        }
    }

    /// The slot of `index`, growing the ring to reach it; `None` at or
    /// below the horizon.
    fn slot(&mut self, index: LogIndex) -> Option<&mut (u32, EntryId)> {
        let i = index.as_u64().checked_sub(self.horizon.as_u64() + 1)? as usize;
        if self.slots.len() <= i {
            self.slots.resize(i + 1, (0, EntryId::default()));
        }
        Some(&mut self.slots[i])
    }
}

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
    /// Per group, per scope (at `scope as usize`): the highest index any
    /// *completed* operation (write commit or linearizable-read floor) on
    /// that group's logs is known to have reached.
    completed_bound: IdMap<GroupId, [LogIndex; 2]>,
    /// In-flight linearizable reads: their group's per-scope bounds as they
    /// stood at first submission.
    read_bounds: IdMap<(SessionId, u64), [LogIndex; 2]>,
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
        let at = book.site(node);
        let first = match book.slot(index) {
            None => None,
            Some(slot @ (0, _)) => return *slot = (at, id),
            Some(&mut (_, first)) if first == id => return,
            Some(&mut (by, first)) => Some((book.sites[by as usize - 1].0, first)),
        };
        self.violations.push(SafetyViolation {
            group,
            scope,
            index,
            first,
            second: (node, id),
        });
    }

    /// Records that `node`'s stable snapshot of its `scope` log of `group`
    /// now covers every index through `through`, and drops the book's
    /// indices at or below the log's new horizon. `up` says which sites are
    /// up: one that is not holds the horizon at 0 until a committed
    /// configuration drops it (see the module docs).
    pub fn snapshot_stable(
        &mut self,
        group: GroupId,
        node: NodeId,
        scope: LogScope,
        through: LogIndex,
        up: impl Fn(NodeId) -> bool,
    ) {
        let domain = self.domain(node, scope);
        let book = self.chosen.entry((group, domain, scope)).or_default();
        let at = book.site(node) as usize - 1;
        book.sites[at].1 = book.sites[at].1.max(through);
        book.rise(up);
    }

    /// Records that `node` committed `config` in its `scope` log of
    /// `group`: every site of that log's book that `config` excludes and
    /// that is down (`!up`) stops counting toward its horizon, and the book
    /// drops the indices at or below the horizon over the sites left (see
    /// the module docs for why no dropped site can report there again).
    pub(crate) fn config_committed(
        &mut self,
        group: GroupId,
        node: NodeId,
        scope: LogScope,
        config: &Configuration,
        up: impl Fn(NodeId) -> bool,
    ) {
        let domain = self.domain(node, scope);
        let book = self.chosen.entry((group, domain, scope)).or_default();
        for (n, stable) in &mut book.sites {
            if !config.contains(*n) && !up(*n) {
                *stable = DROPPED;
            }
        }
        book.rise(up);
    }

    /// The horizon of the `scope` log `node` of `group` is judged in: the
    /// book holds only the indices above it.
    pub fn horizon(&self, group: GroupId, node: NodeId, scope: LogScope) -> LogIndex {
        let book = self.chosen.get(&(group, self.domain(node, scope), scope));
        book.map_or(LogIndex::ZERO, |b| b.horizon)
    }

    /// Index slots the books hold, over every log.
    pub fn retained(&self) -> usize {
        self.chosen.values().map(|b| b.slots.len()).sum()
    }

    /// `true` when some site committed `id` above the horizon of the
    /// `scope` log `node` of `group` is judged in (see
    /// [`SafetyChecker::domain`]): a scan of that log's book, for oracles
    /// that check what a node was told.
    pub fn is_committed(&self, group: GroupId, node: NodeId, scope: LogScope, id: EntryId) -> bool {
        let book = self.chosen.get(&(group, self.domain(node, scope), scope));
        book.is_some_and(|b| b.slots.iter().any(|&(at, e)| at != 0 && e == id))
    }

    // ------------------------------------------------------------------
    // Client-level linearizability checking
    // ------------------------------------------------------------------

    /// Records a client write completing in `group` with its application
    /// index: later linearizable reads of that group must not answer from
    /// before it.
    pub(crate) fn write_completed(&mut self, group: GroupId, scope: LogScope, index: LogIndex) {
        let bound = &mut self.completed_bound.entry(group).or_default()[scope as usize];
        *bound = (*bound).max(index);
    }

    /// Records a linearizable read of `group` being **first submitted**:
    /// snapshots the group's current per-scope bounds the eventual answer
    /// must respect. Idempotent for retries of the same `(session, seq)` —
    /// the linearization window opens at the first invocation.
    pub(crate) fn read_started(&mut self, group: GroupId, session: SessionId, seq: u64) {
        let bounds = self.completed_bound.get(&group).copied();
        let bounds = bounds.unwrap_or_default();
        self.read_bounds.entry((session, seq)).or_insert(bounds);
    }

    /// Records a linearizable read of `group` completing with its answered
    /// floor, checking it against the bound snapshotted at submission and
    /// folding it into the group's bound for subsequent reads (reads must
    /// also be monotone among themselves in real time).
    pub(crate) fn read_completed(
        &mut self,
        group: GroupId,
        session: SessionId,
        seq: u64,
        scope: LogScope,
        floor: LogIndex,
    ) {
        self.reads_checked += 1;
        let started = self.read_bounds.remove(&(session, seq));
        let bound = started.map_or(LogIndex::ZERO, |b| b[scope as usize]);
        if floor < bound {
            self.lin_violations.push(LinViolation {
                session,
                seq,
                scope,
                floor,
                bound,
            });
        }
        // This read's floor becomes part of the bound: a later read must
        // not observe less.
        self.write_completed(group, scope, floor);
    }

    /// Folds a client op's `outcome` from `group` into the bounds above: a
    /// write's acknowledged index (a suppressed duplicate's first index,
    /// when known) completes a write in `ack_scope`, and the answer to a
    /// linearizable read is checked as [`SafetyChecker::read_completed`].
    /// Other outcomes carry no index and change nothing.
    pub(crate) fn op_completed(
        &mut self,
        group: GroupId,
        ack_scope: LogScope,
        request: &ClientRequest,
        outcome: &ClientOutcome,
    ) {
        let ClientRequest { session, seq, op } = request;
        match *outcome {
            ClientOutcome::Committed { index }
            | ClientOutcome::Duplicate { first_index: index }
                if !index.is_zero() =>
            {
                self.write_completed(group, ack_scope, index)
            }
            ClientOutcome::ReadOk {
                scope,
                commit_floor,
            } if matches!(op, ClientOp::Read(Consistency::Linearizable)) => {
                self.read_completed(group, *session, *seq, scope, commit_floor);
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
    use crate::read_id;

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
        assert_eq!(v.first, Some((NodeId(1), id(9, 0))));
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
    fn a_first_commit_may_land_above_empty_indices() {
        let mut c = SafetyChecker::new();
        c.record(G0, NodeId(4), LogScope::Global, LogIndex(1000), id(4, 7));
        assert!(c.is_committed(G0, NodeId(0), LogScope::Global, id(4, 7)));
        // The empty indices below hold no entry, not even the default id.
        assert!(!c.is_committed(G0, NodeId(0), LogScope::Global, EntryId::default()));
        c.record(G0, NodeId(2), LogScope::Global, LogIndex(3), id(2, 1));
        c.record(G0, NodeId(3), LogScope::Global, LogIndex(1000), id(4, 7));
        assert!(c.is_ok());
        c.record(G0, NodeId(1), LogScope::Global, LogIndex(1000), id(1, 1));
        assert_eq!(c.violations()[0].first, Some((NodeId(4), id(4, 7))));
    }

    #[test]
    fn a_conflict_names_the_first_committer_among_many() {
        let mut c = SafetyChecker::new();
        // Five committers enter the log's table in an order unrelated to
        // their ids; each index keeps the one that committed it first.
        for (index, node) in [(1, 3), (2, 0), (3, 4), (4, 1), (5, 2)] {
            for n in [node, 0, 1, 2, 3, 4] {
                c.record(
                    G0,
                    NodeId(n),
                    LogScope::Global,
                    LogIndex(index),
                    id(9, index),
                );
            }
        }
        assert!(c.is_ok());
        for (index, node) in [(1, 3), (2, 0), (3, 4), (4, 1), (5, 2)] {
            let rival = NodeId((node + 1) % 5);
            c.record(G0, rival, LogScope::Global, LogIndex(index), id(8, index));
            let v = c.violations().last().unwrap();
            assert_eq!(v.index, LogIndex(index));
            assert_eq!(v.first, Some((NodeId(node), id(9, index))));
            assert_eq!(v.second, (rival, id(8, index)));
        }
        assert_eq!(c.violations().len(), 5);
        // A conflicting commit does not replace the first one.
        assert!(!c.is_committed(G0, NodeId(0), LogScope::Global, id(8, 1)));
        c.record(G0, NodeId(0), LogScope::Global, LogIndex(1), id(8, 1));
        assert_eq!(c.violations()[5].first, Some((NodeId(3), id(9, 1))));
    }

    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);
    const C: NodeId = NodeId(3);

    /// `node` commits indices `from..=to`, each holding `id(9, index)`.
    fn commit_range(c: &mut SafetyChecker, node: NodeId, from: u64, to: u64) {
        for i in from..=to {
            c.record(G0, node, LogScope::Global, LogIndex(i), id(9, i));
        }
    }

    fn snapshot(c: &mut SafetyChecker, node: NodeId, through: u64, up: impl Fn(NodeId) -> bool) {
        c.snapshot_stable(G0, node, LogScope::Global, LogIndex(through), up);
    }

    fn horizon(c: &SafetyChecker) -> u64 {
        c.horizon(G0, A, LogScope::Global).as_u64()
    }

    #[test]
    fn a_recovered_site_re_reports_above_the_horizon() {
        let mut c = SafetyChecker::new();
        // A commits every index first; B follows; C follows to 30, then
        // crashes before it ever compacts.
        commit_range(&mut c, A, 1, 100);
        commit_range(&mut c, B, 1, 100);
        commit_range(&mut c, C, 1, 30);
        let c_down = |n| n != C;
        snapshot(&mut c, A, 80, c_down);
        snapshot(&mut c, B, 80, c_down);
        assert_eq!(horizon(&c), 0, "C holds the horizon at 0");
        assert_eq!(c.retained(), 100);
        // C recovers from a stable log with no snapshot and replays it.
        commit_range(&mut c, C, 1, 100);
        assert!(c.is_ok(), "{:?}", c.violations());
        c.record(G0, C, LogScope::Global, LogIndex(10), id(8, 10));
        let v = c.violations().last().unwrap();
        assert_eq!((v.index, v.first), (LogIndex(10), Some((A, id(9, 10)))));
        // Once C has snapshotted too, the book drops what all three cover.
        snapshot(&mut c, C, 60, |_| true);
        assert_eq!((horizon(&c), c.retained()), (60, 40));
        assert!(c.is_committed(G0, A, LogScope::Global, id(9, 61)));
        assert!(!c.is_committed(G0, A, LogScope::Global, id(9, 60)));
    }

    #[test]
    fn a_site_that_never_snapshotted_pins_its_book() {
        let mut c = SafetyChecker::new();
        for node in [A, B, C] {
            commit_range(&mut c, node, 1, 200);
        }
        snapshot(&mut c, A, 150, |_| true);
        snapshot(&mut c, B, 150, |_| true);
        assert_eq!((horizon(&c), c.retained()), (0, 200));
        snapshot(&mut c, C, 120, |_| true);
        assert_eq!((horizon(&c), c.retained()), (120, 80));
        // A snapshot never moves a site's own horizon back.
        snapshot(&mut c, C, 50, |_| true);
        snapshot(&mut c, A, 190, |_| true);
        assert_eq!(horizon(&c), 120);
        commit_range(&mut c, A, 201, 210);
        assert_eq!(c.retained(), 90);
        assert!(c.is_ok());
    }

    #[test]
    fn a_down_site_holds_the_horizon() {
        let mut c = SafetyChecker::new();
        for node in [A, B, C] {
            commit_range(&mut c, node, 1, 120);
            snapshot(&mut c, node, 50, |_| true);
        }
        snapshot(&mut c, C, 90, |_| true);
        assert_eq!(horizon(&c), 50);
        // C goes down: however far A and B compact, the horizon stays.
        snapshot(&mut c, A, 100, |n| n != C);
        snapshot(&mut c, B, 110, |n| n != C);
        assert_eq!(horizon(&c), 50);
        // Back up, C counts at its own stable snapshot again.
        snapshot(&mut c, A, 100, |_| true);
        assert_eq!((horizon(&c), c.retained()), (90, 30));
    }

    /// A commits a configuration of `members` while `up` holds.
    fn config(c: &mut SafetyChecker, members: &[NodeId], up: impl Fn(NodeId) -> bool) {
        let config = Configuration::new(members.iter().copied());
        c.config_committed(G0, A, LogScope::Global, &config, up);
    }

    /// A, B and C commit 1..=120 and snapshot through 100, 110 and 50;
    /// then C goes down, holding the horizon at 50.
    fn c_down_at_50() -> SafetyChecker {
        let mut c = SafetyChecker::new();
        for node in [A, B, C] {
            commit_range(&mut c, node, 1, 120);
        }
        for (node, through) in [(A, 100), (B, 110), (C, 50)] {
            snapshot(&mut c, node, through, |_| true);
        }
        assert_eq!(horizon(&c), 50);
        c
    }

    #[test]
    fn an_excluded_down_site_stops_pinning_the_book() {
        let mut c = c_down_at_50();
        config(&mut c, &[A, B], |n| n != C);
        assert_eq!((horizon(&c), c.retained()), (100, 20));
        // The sites left raise it further as they compact.
        snapshot(&mut c, A, 115, |n| n != C);
        assert_eq!((horizon(&c), c.retained()), (110, 10));
    }

    #[test]
    fn an_excluded_site_that_is_up_still_pins_the_book() {
        // An evictee cut off by a partition can still report.
        let mut c = c_down_at_50();
        config(&mut c, &[A, B], |_| true);
        snapshot(&mut c, A, 115, |_| true);
        assert_eq!((horizon(&c), c.retained()), (50, 70));
    }

    #[test]
    fn a_down_site_no_configuration_excludes_holds_the_horizon() {
        let mut c = c_down_at_50();
        config(&mut c, &[A, B, C], |n| n != C);
        snapshot(&mut c, A, 115, |n| n != C);
        assert_eq!((horizon(&c), c.retained()), (50, 70));
    }

    #[test]
    fn a_dropped_site_that_reports_again_re_enters_at_0() {
        let mut c = SafetyChecker::new();
        for node in [A, B, C] {
            commit_range(&mut c, node, 1, 150);
        }
        for (node, through) in [(A, 120), (B, 50), (C, 90)] {
            snapshot(&mut c, node, through, |_| true);
        }
        // B holds the horizon at 50 below C's snapshot when C is dropped.
        config(&mut c, &[A, B], |n| n != C);
        assert_eq!(horizon(&c), 50);
        // C rejoins and commits above the horizon: it counts from 0, not
        // from the snapshot it left with, until it snapshots again.
        c.record(G0, C, LogScope::Global, LogIndex(140), id(9, 140));
        snapshot(&mut c, B, 110, |_| true);
        assert_eq!(horizon(&c), 50);
        snapshot(&mut c, C, 100, |_| true);
        assert_eq!((horizon(&c), c.retained()), (100, 50));
        assert!(c.is_ok(), "{:?}", c.violations());
    }

    #[test]
    fn a_dropped_site_reporting_at_or_below_the_horizon_is_a_violation() {
        let mut c = c_down_at_50();
        config(&mut c, &[A, B], |n| n != C);
        assert_eq!(horizon(&c), 100);
        // Even an agreeing re-report there is one.
        c.record(G0, C, LogScope::Global, LogIndex(80), id(9, 80));
        let v = &c.violations()[0];
        assert_eq!(
            (v.index, v.first, v.second),
            (LogIndex(80), None, (C, id(9, 80)))
        );
        // Back in the book at 0, C holds the horizon again.
        snapshot(&mut c, A, 115, |_| true);
        assert_eq!(horizon(&c), 100);
    }

    #[test]
    fn a_commit_at_or_below_the_horizon_is_a_violation() {
        let mut c = SafetyChecker::new();
        commit_range(&mut c, A, 1, 10);
        snapshot(&mut c, A, 10, |_| true);
        assert_eq!((horizon(&c), c.retained()), (10, 0));
        // Even an agreeing re-report there is one: nothing can send it.
        c.record(G0, B, LogScope::Global, LogIndex(10), id(9, 10));
        let v = &c.violations()[0];
        assert_eq!(
            (v.index, v.first, v.second),
            (LogIndex(10), None, (B, id(9, 10)))
        );
        assert!(v.to_string().contains("at or below the horizon"), "{v}");
        // B is now one of the log's sites, so it pins the horizon too.
        snapshot(&mut c, A, 20, |_| true);
        assert_eq!(horizon(&c), 10);
    }

    #[test]
    fn is_committed_sees_across_gaps_and_logs() {
        let mut c = SafetyChecker::with_domains(|n| n.as_u64() / 2);
        c.record(G0, NodeId(0), LogScope::Local, LogIndex(2), id(0, 2));
        c.record(G0, NodeId(1), LogScope::Local, LogIndex(9), id(1, 9));
        c.record(G0, NodeId(3), LogScope::Local, LogIndex(5), id(3, 5));
        for (node, entry, seen) in [
            (0, id(0, 2), true),
            (1, id(1, 9), true),
            (0, id(1, 9), true),
            (0, id(3, 5), false), // cluster 1's log, not cluster 0's
            (2, id(3, 5), true),
            (2, id(0, 2), false),
            (0, id(0, 3), false),
        ] {
            let got = c.is_committed(G0, NodeId(node), LogScope::Local, entry);
            assert_eq!(got, seen, "node {node} entry {entry}");
        }
        assert!(!c.is_committed(G0, NodeId(0), LogScope::Global, id(0, 2)));
        assert!(!c.is_committed(GroupId(1), NodeId(0), LogScope::Local, id(0, 2)));
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
        c.write_completed(G0, LogScope::Global, LogIndex(10));
        c.read_started(G0, s, 1);
        c.read_completed(G0, s, 1, LogScope::Global, LogIndex(9));
        assert!(!c.is_ok());
        assert_eq!(c.lin_violations().len(), 1);
        assert_eq!(c.lin_violations()[0].bound, LogIndex(10));
        assert!(c.lin_violations()[0]
            .to_string()
            .contains("linearizability"));
    }

    #[test]
    fn linearizable_read_at_or_above_bound_passes() {
        let mut c = SafetyChecker::new();
        let s = SessionId::client(1);
        c.write_completed(G0, LogScope::Global, LogIndex(10));
        c.read_started(G0, s, 1);
        // A write completing *after* the read started does not raise the
        // read's bound (real-time order permits either answer).
        c.write_completed(G0, LogScope::Global, LogIndex(50));
        c.read_completed(G0, s, 1, LogScope::Global, LogIndex(10));
        assert!(c.is_ok());
        assert_eq!(c.reads_checked(), 1);
        c.assert_ok();
    }

    #[test]
    fn reads_are_monotone_among_themselves() {
        let mut c = SafetyChecker::new();
        let a = SessionId::client(1);
        let b = SessionId::client(2);
        c.read_started(G0, a, 1);
        c.read_completed(G0, a, 1, LogScope::Global, LogIndex(30));
        // A read starting after a completed read must not see less.
        c.read_started(G0, b, 1);
        c.read_completed(G0, b, 1, LogScope::Global, LogIndex(29));
        assert!(!c.is_ok());
    }

    #[test]
    #[should_panic(expected = "linearizability violation")]
    fn assert_ok_panics_on_lin_violation() {
        let mut c = SafetyChecker::new();
        let s = SessionId::client(1);
        c.write_completed(G0, LogScope::Global, LogIndex(5));
        c.read_started(G0, s, 1);
        c.read_completed(G0, s, 1, LogScope::Global, LogIndex(1));
        c.assert_ok();
    }

    #[test]
    fn scopes_bound_independently() {
        let mut c = SafetyChecker::new();
        let s = SessionId::client(1);
        c.write_completed(G0, LogScope::Local, LogIndex(40));
        c.read_started(G0, s, 1);
        // A Global-scope answer is not bounded by Local-scope completions.
        c.read_completed(G0, s, 1, LogScope::Global, LogIndex(2));
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
        let write = |seq| ClientRequest::write(s, seq, bytes::Bytes::from_static(b"w"));
        let read = |seq, level| ClientRequest {
            session: s,
            seq,
            op: ClientOp::Read(level),
        };
        let unknown = ClientOutcome::Duplicate {
            first_index: LogIndex::ZERO,
        };
        c.op_completed(G0, LogScope::Global, &write(1), &unknown);
        c.read_started(G0, s, 9);
        c.read_completed(G0, s, 9, LogScope::Global, LogIndex::ZERO);
        assert!(c.is_ok(), "a duplicate of unknown index raises no bound");
        let dup = ClientOutcome::Duplicate {
            first_index: LogIndex(7),
        };
        c.op_completed(G0, LogScope::Global, &write(2), &dup);
        let stale = ClientOutcome::ReadOk {
            scope: LogScope::Global,
            commit_floor: LogIndex(6),
        };
        c.read_started(G0, s, 10);
        let stale_read = read(10, Consistency::StaleLocal);
        c.op_completed(G0, LogScope::Global, &stale_read, &stale);
        assert!(c.is_ok(), "only linearizable reads are checked");
        c.read_started(G0, s, 11);
        let lin_read = read(11, Consistency::Linearizable);
        c.op_completed(G0, LogScope::Global, &lin_read, &stale);
        assert_eq!(c.lin_violations().len(), 1);
        assert_eq!(c.lin_violations()[0].bound, LogIndex(7));
    }

    #[test]
    fn groups_bound_linearizable_reads_independently() {
        let s = SessionId::client(1);
        let lin = |c: &mut SafetyChecker, group| {
            c.read_started(group, s, read_id(1));
            c.read_completed(group, s, read_id(1), LogScope::Global, LogIndex(5));
        };
        // A write completed at index 100 of group 1 does not bound a read
        // of group 2: the two logs are independent.
        let mut c = SafetyChecker::new();
        c.write_completed(GroupId(1), LogScope::Global, LogIndex(100));
        lin(&mut c, GroupId(2));
        assert!(c.is_ok(), "{:?}", c.lin_violations());
        // The same pair in one group is a violation.
        let mut c = SafetyChecker::new();
        c.write_completed(GroupId(1), LogScope::Global, LogIndex(100));
        lin(&mut c, GroupId(1));
        let v = &c.lin_violations()[0];
        assert_eq!((v.floor, v.bound), (LogIndex(5), LogIndex(100)));
    }
}
