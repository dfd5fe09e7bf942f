//! A site's stable storage contents.
//!
//! The paper's persistent state (§IV-A): `currentTerm`, `votedFor`, and the
//! log(s). Protocol nodes never mutate this directly — they emit
//! [`PersistCmd`]s (write-ahead commands) which the embedding applies here
//! *before* releasing the messages produced in the same step. Crash recovery
//! rebuilds a node from a [`StableState`] snapshot alone; everything else
//! (commit index, leader volatile state) is relearned from the protocol.
//!
//! C-Raft sites participate in **two** consensus levels (intra- and
//! inter-cluster, §V-B) with independent terms, votes, and logs; storage is
//! therefore scoped by [`LogScope`].

use wire::{LogScope, NodeId, PersistCmd, Snapshot, SparseLog, Term};

use crate::PersistBatch;

/// Persistent state for one consensus level.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScopeState {
    /// Latest term this site has seen at this level.
    pub current_term: Term,
    /// Candidate voted for in `current_term`, if any.
    pub voted_for: Option<NodeId>,
    /// The replicated log at this level. When `snapshot` is set, the log
    /// holds only the suffix above the snapshot's `last_index`; recovery
    /// rebuilds the node from snapshot + suffix.
    pub log: SparseLog,
    /// The latest snapshot covering the compacted prefix, if any.
    pub snapshot: Option<Snapshot>,
    /// One past the highest [`wire::EntryId`] sequence number this site has
    /// reserved at this level; recovery restarts the proposal counter here
    /// so a rebuilt node never re-mints a pre-crash id (which peers would
    /// dedup against the *old* entry, silently dropping the new proposal).
    pub proposal_seq_floor: u64,
}

/// Everything a site keeps in stable storage.
///
/// Equality compares the *durable contents* (both scopes) and ignores the
/// fsync accounting: a batched and an unbatched execution of the same
/// command stream produce equal `StableState`s even though their
/// `persist_batches` counts differ. The recovery tests lean on this.
#[derive(Clone, Debug, Default)]
pub struct StableState {
    /// Global (system-wide) consensus state.
    pub global: ScopeState,
    /// Cluster-local consensus state (C-Raft only; empty otherwise).
    pub local: ScopeState,
    persist_batches: u64,
    cmds_applied: u64,
    entries_written: u64,
}

impl PartialEq for StableState {
    fn eq(&self, other: &Self) -> bool {
        self.global == other.global && self.local == other.local
    }
}

impl Eq for StableState {}

impl StableState {
    /// Fresh, empty storage for a new site.
    pub fn new() -> Self {
        StableState::default()
    }

    /// The state for `scope`.
    pub fn scope(&self, scope: LogScope) -> &ScopeState {
        match scope {
            LogScope::Global => &self.global,
            LogScope::Local => &self.local,
        }
    }

    /// Mutable state for `scope`.
    pub fn scope_mut(&mut self, scope: LogScope) -> &mut ScopeState {
        match scope {
            LogScope::Global => &mut self.global,
            LogScope::Local => &mut self.local,
        }
    }

    /// The log for `scope` (convenience).
    pub fn log(&self, scope: LogScope) -> &SparseLog {
        &self.scope(scope).log
    }

    /// Applies one write-ahead command as its own fsync boundary.
    ///
    /// Equivalent to applying a singleton [`PersistBatch`]: charges one
    /// `persist_batches` and one `cmds_applied`. The batched write path goes
    /// through [`StableState::apply_batch`] instead.
    pub fn apply(&mut self, cmd: &PersistCmd) {
        self.persist_batches += 1;
        self.cmds_applied += 1;
        self.apply_cmd(cmd);
    }

    /// Applies one atomic batch: all commands in order, **one** fsync charge.
    ///
    /// An empty batch is a no-op (no fsync happens for a tick that persisted
    /// nothing, so none is counted).
    pub fn apply_batch(&mut self, batch: &PersistBatch) {
        if batch.is_empty() {
            return;
        }
        self.persist_batches += 1;
        self.cmds_applied += batch.len() as u64;
        for cmd in batch {
            self.apply_cmd(cmd);
        }
    }

    fn apply_cmd(&mut self, cmd: &PersistCmd) {
        match cmd {
            PersistCmd::SetTermVote {
                scope,
                term,
                voted_for,
            } => {
                let s = self.scope_mut(*scope);
                s.current_term = *term;
                s.voted_for = *voted_for;
            }
            PersistCmd::Insert {
                scope,
                index,
                entry,
            } => {
                self.scope_mut(*scope).log.insert(*index, entry.clone());
                self.entries_written += 1;
            }
            PersistCmd::Truncate { scope, from } => {
                self.scope_mut(*scope).log.truncate_from(*from);
            }
            PersistCmd::InstallSnapshot { snapshot } => {
                let s = self.scope_mut(snapshot.scope);
                if s.log
                    .install_snapshot(snapshot.last_index, snapshot.last_term)
                {
                    s.snapshot = Some(snapshot.clone());
                }
            }
            PersistCmd::ReserveProposalSeqs { scope, through } => {
                let s = self.scope_mut(*scope);
                s.proposal_seq_floor = s.proposal_seq_floor.max(*through);
            }
        }
    }

    /// Applies commands in order, each as its own fsync boundary.
    ///
    /// This is the *unbatched* write path (one fsync per command) the group
    /// commit in [`StableState::apply_batch`] is measured against. The final
    /// storage contents are identical either way — only the accounting
    /// differs.
    pub fn apply_all<'a>(&mut self, cmds: impl IntoIterator<Item = &'a PersistCmd>) {
        for cmd in cmds {
            self.apply(cmd);
        }
    }

    /// Number of fsync boundaries: batches applied via
    /// [`StableState::apply_batch`] count once regardless of size.
    pub fn persist_batches(&self) -> u64 {
        self.persist_batches
    }

    /// Total write-ahead commands applied, across all batches.
    pub fn cmds_applied(&self) -> u64 {
        self.cmds_applied
    }

    /// Number of log entries written (insertions, counting overwrites).
    pub fn entries_written(&self) -> u64 {
        self.entries_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use wire::{EntryId, LogEntry, LogIndex, SessionId};

    fn entry(term: u64, seq: u64) -> LogEntry {
        LogEntry::write(
            Term(term),
            EntryId::new(NodeId(1), seq),
            SessionId::client(1),
            1,
            Bytes::from_static(b"v"),
        )
    }

    #[test]
    fn term_votes_are_scoped() {
        let mut s = StableState::new();
        s.apply(&PersistCmd::SetTermVote {
            scope: LogScope::Global,
            term: Term(3),
            voted_for: Some(NodeId(2)),
        });
        s.apply(&PersistCmd::SetTermVote {
            scope: LogScope::Local,
            term: Term(7),
            voted_for: None,
        });
        assert_eq!(s.global.current_term, Term(3));
        assert_eq!(s.global.voted_for, Some(NodeId(2)));
        assert_eq!(s.local.current_term, Term(7));
        assert_eq!(s.local.voted_for, None);
        assert_eq!(s.persist_batches(), 2);
        assert_eq!(s.cmds_applied(), 2);
    }

    #[test]
    fn insert_routes_by_scope() {
        let mut s = StableState::new();
        s.apply(&PersistCmd::Insert {
            scope: LogScope::Global,
            index: LogIndex(1),
            entry: entry(1, 0),
        });
        s.apply(&PersistCmd::Insert {
            scope: LogScope::Local,
            index: LogIndex(1),
            entry: entry(1, 1),
        });
        assert_eq!(s.global.log.len(), 1);
        assert_eq!(s.local.log.len(), 1);
        assert_eq!(s.log(LogScope::Global).len(), 1);
        assert_eq!(s.entries_written(), 2);
    }

    #[test]
    fn truncate_only_touches_scope() {
        let mut s = StableState::new();
        for i in 1..=3u64 {
            s.apply(&PersistCmd::Insert {
                scope: LogScope::Global,
                index: LogIndex(i),
                entry: entry(1, i),
            });
            s.apply(&PersistCmd::Insert {
                scope: LogScope::Local,
                index: LogIndex(i),
                entry: entry(1, 10 + i),
            });
        }
        s.apply(&PersistCmd::Truncate {
            scope: LogScope::Global,
            from: LogIndex(2),
        });
        assert_eq!(s.global.log.len(), 1);
        assert_eq!(s.local.log.len(), 3);
    }

    #[test]
    fn install_snapshot_compacts_and_records() {
        use wire::Snapshot;
        let mut s = StableState::new();
        for i in 1..=4u64 {
            s.apply(&PersistCmd::Insert {
                scope: LogScope::Global,
                index: LogIndex(i),
                entry: entry(1, i),
            });
        }
        let snap = Snapshot {
            scope: LogScope::Global,
            last_index: LogIndex(3),
            last_term: Term(1),
            config: wire::Configuration::new([NodeId(1)]),
            state: Snapshot::digest_state(7),
            sessions: Default::default(),
        };
        s.apply(&PersistCmd::InstallSnapshot {
            snapshot: snap.clone(),
        });
        assert_eq!(s.global.snapshot.as_ref(), Some(&snap));
        assert_eq!(s.global.log.first_index(), LogIndex(4));
        assert_eq!(s.global.log.len(), 1, "consistent suffix retained");
        assert!(s.local.snapshot.is_none());
        // A stale snapshot neither compacts nor replaces the stored one.
        let stale = Snapshot {
            last_index: LogIndex(2),
            ..snap.clone()
        };
        s.apply(&PersistCmd::InstallSnapshot { snapshot: stale });
        assert_eq!(s.global.snapshot.as_ref(), Some(&snap));
    }

    #[test]
    fn proposal_seq_reservation_is_scoped_and_monotonic() {
        let mut s = StableState::new();
        s.apply(&PersistCmd::ReserveProposalSeqs {
            scope: LogScope::Global,
            through: 64,
        });
        s.apply(&PersistCmd::ReserveProposalSeqs {
            scope: LogScope::Local,
            through: 128,
        });
        assert_eq!(s.global.proposal_seq_floor, 64);
        assert_eq!(s.local.proposal_seq_floor, 128);
        // A stale (lower) reservation never lowers the floor.
        s.apply(&PersistCmd::ReserveProposalSeqs {
            scope: LogScope::Global,
            through: 32,
        });
        assert_eq!(s.global.proposal_seq_floor, 64);
    }

    #[test]
    fn apply_all_preserves_order() {
        let mut s = StableState::new();
        s.apply_all(&[
            PersistCmd::Insert {
                scope: LogScope::Global,
                index: LogIndex(1),
                entry: entry(1, 0),
            },
            PersistCmd::Truncate {
                scope: LogScope::Global,
                from: LogIndex(1),
            },
        ]);
        assert!(s.global.log.is_empty());
        // Reversed order yields a different outcome.
        let mut s2 = StableState::new();
        s2.apply_all(&[
            PersistCmd::Truncate {
                scope: LogScope::Global,
                from: LogIndex(1),
            },
            PersistCmd::Insert {
                scope: LogScope::Global,
                index: LogIndex(1),
                entry: entry(1, 0),
            },
        ]);
        assert_eq!(s2.global.log.len(), 1);
    }

    #[test]
    fn batched_apply_matches_unbatched_contents_but_not_fsyncs() {
        let cmds: Vec<PersistCmd> = (1..=5u64)
            .map(|i| PersistCmd::Insert {
                scope: LogScope::Global,
                index: LogIndex(i),
                entry: entry(1, i),
            })
            .chain([PersistCmd::SetTermVote {
                scope: LogScope::Global,
                term: Term(1),
                voted_for: Some(NodeId(1)),
            }])
            .collect();

        let mut unbatched = StableState::new();
        unbatched.apply_all(&cmds);
        let mut batched = StableState::new();
        batched.apply_batch(&cmds.iter().cloned().collect::<PersistBatch>());

        // Identical durable contents (equality ignores fsync accounting)...
        assert_eq!(batched, unbatched);
        assert_eq!(batched.entries_written(), unbatched.entries_written());
        assert_eq!(batched.cmds_applied(), unbatched.cmds_applied());
        // ...but one fsync boundary instead of six.
        assert_eq!(unbatched.persist_batches(), 6);
        assert_eq!(batched.persist_batches(), 1);
    }

    #[test]
    fn empty_batch_charges_no_fsync() {
        let mut s = StableState::new();
        s.apply_batch(&PersistBatch::new());
        assert_eq!(s.persist_batches(), 0);
        assert_eq!(s.cmds_applied(), 0);
        assert_eq!(s, StableState::new());
    }
}
