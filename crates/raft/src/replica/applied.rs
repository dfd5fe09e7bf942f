//! Applied state: what a replica derives by applying the committed sequence.

use std::rc::Rc;

use des::IdMap;
use wire::{
    fold_commit_digest, fold_session_digest, fold_session_evicted, session_state_current, Actions,
    ClientOutcome, Configuration, EntryId, LogIndex, LogScope, Observation, PersistCmd,
    SessionApply, SessionId, SessionTable, Snapshot, SparseLog, Term,
};

use super::covered_outcome;
use crate::Timing;

/// The applied image of one log: how far the (simulated) state machine has
/// consumed the committed sequence, what it has become, and the snapshot
/// that stands in for the compacted prefix.
///
/// Deterministic across replicas: two sites that applied the same committed
/// sequence hold equal digests and session tables, whichever way their
/// commits were batched and whether they got there by replay or by snapshot.
#[derive(Debug)]
pub struct Applied {
    scope: LogScope,
    /// [`Timing::snapshot_threshold`].
    snapshot_threshold: u64,
    /// [`Timing::session_ttl`].
    session_ttl: u64,
    /// Highest index applied to the state machine. Trails the engine's
    /// commit index only under [`Timing::pipelined_apply`], between a commit
    /// advancement and the embedding's drain stage; equal to it at every
    /// step boundary otherwise.
    applied_index: LogIndex,
    /// Running digest of the committed sequence (the simulated state
    /// machine); captured into snapshots as the state image.
    state_digest: u64,
    /// Per-session exactly-once dedup table; updated while applying
    /// committed session-tagged entries and carried inside snapshots.
    /// Copy-on-write: a snapshot shares the table as of its cut, and the
    /// next apply after one copies it once.
    sessions: Rc<SessionTable>,
    /// Latest snapshot covering the compacted log prefix, served to sites
    /// whose `nextIndex` fell below the log's first retained index.
    snapshot: Option<Snapshot>,
}

impl Applied {
    /// The empty image of a fresh log at `scope`.
    pub fn new(scope: LogScope, timing: &Timing) -> Self {
        Applied {
            scope,
            snapshot_threshold: timing.snapshot_threshold,
            session_ttl: timing.session_ttl,
            applied_index: LogIndex::ZERO,
            state_digest: 0,
            sessions: Rc::default(),
            snapshot: None,
        }
    }

    /// Rebuilds the image after a crash from the persisted `snapshot` (if
    /// any) of a log compacted through `horizon`: the snapshot's prefix is
    /// known committed and already applied, so applying resumes at the
    /// compaction horizon instead of replaying (now unavailable) history.
    pub fn recover(
        scope: LogScope,
        timing: &Timing,
        snapshot: Option<Snapshot>,
        horizon: LogIndex,
    ) -> Self {
        let mut applied = Applied::new(scope, timing);
        if let Some(snapshot) = snapshot {
            applied.adopt(snapshot);
        }
        applied.applied_index = horizon;
        applied
    }

    /// Replaces the image with `snapshot`'s (a transfer from the leader, or
    /// the persisted one at recovery). The snapshot's table covers strictly
    /// more commits than this one, and the apply pipeline fast-forwards with
    /// it — the snapshot state already subsumes any queued-but-undrained
    /// range, whose entries the install discarded.
    pub fn adopt(&mut self, snapshot: Snapshot) {
        if let Some(digest) = snapshot.state_digest() {
            self.state_digest = digest;
        }
        self.sessions = snapshot.sessions.clone();
        self.applied_index = snapshot.last_index;
        self.snapshot = Some(snapshot);
    }

    /// The highest index applied to the state machine.
    pub fn index(&self) -> LogIndex {
        self.applied_index
    }

    /// Running digest of the committed sequence.
    pub fn digest(&self) -> u64 {
        self.state_digest
    }

    /// The per-session exactly-once dedup table.
    pub fn sessions(&self) -> &SessionTable {
        &self.sessions
    }

    /// The latest snapshot covering the compacted prefix, if any.
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.snapshot.as_ref()
    }

    /// Number of committed-but-unapplied indices queued for pipelined
    /// apply; always zero at step boundaries in inline mode.
    pub fn pending_applies(&self, commit_index: LogIndex) -> u64 {
        commit_index.as_u64() - self.applied_index.as_u64()
    }

    /// `true` when the applied session table provably covers every write
    /// the cluster has ever committed: this node is the leader and an entry
    /// of its own term has committed (the shared
    /// [`wire::session_state_current`] condition). Only then is a
    /// door-level [`Applied::is_expired_retry`] verdict exact; on any other
    /// node (or a fresh leader before its first own-term commit) the table
    /// may simply lag and "expired" can be a false positive for a perfectly
    /// live session.
    pub fn applied_session_state_current(
        &self,
        is_leader: bool,
        log: &SparseLog,
        commit_index: LogIndex,
        current_term: Term,
    ) -> bool {
        is_leader
            // Pipelined apply: the table only covers the *applied* prefix;
            // while the queue is non-empty the door verdict stays inexact
            // (answers degrade to Retry, never a wrong terminal refusal).
            && self.applied_index == commit_index
            && session_state_current(log, commit_index, current_term)
    }

    /// `true` when expiry is on and `(session, seq)` looks like a stale
    /// retry from an evicted session (see
    /// [`SessionTable::is_expired_retry`] for where that verdict is exact).
    pub fn is_expired_retry(&self, session: SessionId, seq: u64) -> bool {
        self.session_ttl > 0 && self.sessions.is_expired_retry(session, seq)
    }

    /// First step of applying index `k`: folds the commit of `id` there
    /// into the digest.
    pub fn fold_commit(&mut self, k: LogIndex, id: EntryId) {
        self.state_digest = fold_commit_digest(self.state_digest, k, id);
    }

    /// Exactly-once apply of `(session, seq)` committed at `index`: the
    /// dedup table is part of applied state, so every replica — including
    /// one that recovered from a snapshot + suffix — makes the same
    /// first-application decision, and a retried seq that commits at a
    /// second index is a no-op everywhere.
    pub fn apply_session_item<M>(
        &mut self,
        session: SessionId,
        seq: u64,
        index: LogIndex,
        out: &mut Actions<M>,
    ) -> SessionApply {
        let applied = Rc::make_mut(&mut self.sessions).apply(session, seq, index);
        match applied {
            SessionApply::Applied => {
                self.state_digest = fold_session_digest(self.state_digest, session, seq);
                out.observe(Observation::SessionApplied {
                    scope: self.scope,
                    session,
                    seq,
                    index,
                });
            }
            SessionApply::Duplicate { first_index } => {
                out.observe(Observation::SessionDuplicate {
                    scope: self.scope,
                    session,
                    seq,
                    first_index,
                });
            }
        }
        applied
    }

    /// Applies a committed client write (or, with `register`, a session
    /// registration, which consumes seq 1) and returns the answer its
    /// gateway is owed.
    pub fn apply_client_write<M>(
        &mut self,
        session: SessionId,
        seq: u64,
        register: bool,
        index: LogIndex,
        out: &mut Actions<M>,
    ) -> ClientOutcome {
        // Apply-time expiry check — authoritative: the table covers every
        // commit below `index`, so an untracked session at seq > 1 *was*
        // evicted. Without this, a committed duplicate placement of the
        // same seq that outlived its session's eviction would re-apply here
        // (its dedup history is gone). Identical on every replica (same
        // table at the same index), no digest fold — replicas stay
        // convergent; the proposer/gateway is still notified through the
        // normal path. A registration is exempt: it carries no value, so
        // re-applying one past an eviction merely re-opens an empty session
        // — exactly the property that lets registered sessions close the
        // seq-1 boundary window.
        if !register && self.is_expired_retry(session, seq) {
            return ClientOutcome::SessionExpired;
        }
        match self.apply_session_item(session, seq, index, out) {
            SessionApply::Applied if register => ClientOutcome::Registered { session, index },
            SessionApply::Applied => ClientOutcome::Committed { index },
            SessionApply::Duplicate { first_index } => {
                covered_outcome(register, session, first_index)
            }
        }
    }

    /// Deterministic session expiry, run once per committed index `at`:
    /// idleness is measured in committed log distance, so every replica
    /// applies the identical eviction sequence regardless of how its
    /// commits were batched, and the digest fold keeps snapshots convergent.
    pub fn evict_idle_sessions<M>(&mut self, at: LogIndex, out: &mut Actions<M>) {
        if self.session_ttl == 0 {
            return; // Expiry disabled: leave a snapshot-shared table shared.
        }
        for session in Rc::make_mut(&mut self.sessions).evict_idle(at, self.session_ttl) {
            self.state_digest = fold_session_evicted(self.state_digest, session);
            out.observe(Observation::SessionEvicted {
                scope: self.scope,
                session,
                at,
            });
        }
    }

    /// Last step of applying index `k`.
    pub fn mark_applied(&mut self, k: LogIndex) {
        self.applied_index = k;
    }

    /// Gateway sweep after a snapshot install: the locally pending writes
    /// the session table now covers (the install can jump the commit floor
    /// across their application), each with its proposal id and
    /// first-application index. Sorted by `(session, seq)`: `client_writes`
    /// is a hash table, and answering in its iteration order would let the
    /// hasher (any change to it, or a seeded one) reach the embedding's
    /// event order.
    pub fn sweep_client_pending(
        &self,
        client_writes: &IdMap<(SessionId, u64), EntryId>,
    ) -> Vec<(SessionId, u64, EntryId, LogIndex)> {
        let mut covered: Vec<_> = client_writes
            .iter()
            .filter_map(|(&(session, seq), &id)| {
                self.sessions
                    .duplicate_of(session, seq)
                    .map(|first_index| (session, seq, id, first_index))
            })
            .collect();
        covered.sort_unstable_by_key(|&(session, seq, ..)| (session, seq));
        covered
    }

    /// Where [`Applied::maybe_compact`] would compact `log` through now, if
    /// it would. Compaction is bounded by the *applied* prefix, not the
    /// committed one: the snapshot captures digest + session table, which
    /// are apply-time state. Inline, applied == committed here; pipelined,
    /// compaction simply runs at the drain stage.
    pub(crate) fn compaction_point(&self, log: &SparseLog) -> Option<LogIndex> {
        let horizon = log.compacted_through();
        let retained = self.applied_index.as_u64().saturating_sub(horizon.as_u64());
        (self.snapshot_threshold > 0 && retained > self.snapshot_threshold)
            .then_some(self.applied_index)
    }

    /// Compacts the applied prefix of `log` into a snapshot once its
    /// retained length exceeds [`Timing::snapshot_threshold`]. Every role
    /// compacts — the committed prefix is immutable everywhere — so
    /// per-site log residency stays bounded, not just the leader's.
    /// Compaction never crosses a hole (the committed prefix is contiguous
    /// by construction, and [`SparseLog::compact_to`] clamps regardless).
    pub fn maybe_compact<M>(
        &mut self,
        log: &mut SparseLog,
        config: &Configuration,
        config_index: LogIndex,
        out: &mut Actions<M>,
    ) {
        let Some(through) = self.compaction_point(log) else {
            return;
        };
        let snapshot = self.snapshot_at(through, log.term_at(through), log, config, config_index);
        out.persist(PersistCmd::InstallSnapshot {
            snapshot: snapshot.clone(),
        });
        let new_horizon = log.compact_to(through);
        debug_assert_eq!(new_horizon, through, "committed prefix must be contiguous");
        self.snapshot = Some(snapshot);
        out.observe(Observation::LogCompacted {
            scope: self.scope,
            through,
            retained: log.len(),
        });
    }

    /// The snapshot to serve laggards: the cached one (always current —
    /// compaction refreshes it), synthesized from the log's horizon if a
    /// recovery path lost it.
    pub fn current_snapshot(
        &self,
        log: &SparseLog,
        config: &Configuration,
        config_index: LogIndex,
    ) -> Option<Snapshot> {
        let horizon = log.compacted_through();
        if horizon.is_zero() {
            return None;
        }
        match &self.snapshot {
            Some(s) if s.last_index == horizon => Some(s.clone()),
            _ => Some(self.snapshot_at(horizon, log.compacted_term(), log, config, config_index)),
        }
    }

    fn snapshot_at(
        &self,
        last_index: LogIndex,
        last_term: Term,
        log: &SparseLog,
        config: &Configuration,
        config_index: LogIndex,
    ) -> Snapshot {
        Snapshot {
            scope: self.scope,
            last_index,
            last_term,
            config: self.config_for_snapshot(log, config, config_index, last_index),
            state: Snapshot::digest_state(self.state_digest),
            sessions: self.sessions.clone(),
        }
    }

    /// The configuration in force at `through`: the current configuration
    /// (`config`, whose entry sits at `config_index`) when that entry is at
    /// or below the cut, otherwise the newest config entry inside the
    /// retained prefix (falling back to the previous snapshot's, then the
    /// current configuration).
    fn config_for_snapshot(
        &self,
        log: &SparseLog,
        config: &Configuration,
        config_index: LogIndex,
        through: LogIndex,
    ) -> Configuration {
        if config_index <= through {
            return config.clone();
        }
        let mut cfg = self.snapshot.as_ref().map(|s| s.config.clone());
        for (_, e) in log.range(log.first_index(), through) {
            if let Some(c) = e.as_config() {
                cfg = Some(c.clone());
            }
        }
        cfg.unwrap_or_else(|| config.clone())
    }
}
