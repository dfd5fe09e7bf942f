//! Snapshots and log compaction.

use super::*;

impl FastRaftEngine {
    // ------------------------------------------------------------------
    // Snapshots + log compaction
    // ------------------------------------------------------------------

    /// Compacts the applied prefix into a snapshot once it outgrows
    /// [`Timing::snapshot_threshold`] (see [`Applied::maybe_compact`]).
    pub(super) fn maybe_compact(&mut self, out: &mut Actions<FastRaftMessage>) {
        self.applied
            .maybe_compact(&mut self.log, &self.config, self.config_index, out);
    }

    /// The snapshot to serve laggards (see [`Applied::current_snapshot`]).
    /// Public so the C-Raft layer can cache the global engine's snapshot
    /// across deactivation.
    pub fn current_snapshot(&self) -> Option<Snapshot> {
        self.applied
            .current_snapshot(&self.log, &self.config, self.config_index)
    }

    /// Laggard side of a snapshot transfer (§IV-D catch-up): replace the
    /// compacted prefix wholesale and resume replication above it.
    ///
    /// Snapshot installs are **not** gated at C-Raft's global level: every
    /// entry the snapshot covers is globally committed, so there is nothing
    /// a successor local leader could lose — it re-fetches the prefix from
    /// the global leader instead of from local global-state entries.
    pub(super) fn on_install_snapshot(
        &mut self,
        from: NodeId,
        term: Term,
        leader: NodeId,
        snapshot: Snapshot,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if term < self.current_term {
            out.send(
                from,
                FastRaftMessage::InstallSnapshotReply {
                    term: self.current_term,
                    last_index: LogIndex::ZERO,
                },
            );
            return;
        }
        self.silent_elections = 0;
        let leader_changed = self.leader_hint != Some(leader) || term > self.current_term;
        if term > self.current_term || self.role != Role::Follower {
            self.become_follower(term, Some(leader), out);
        } else {
            self.leader_hint = Some(leader);
            self.reset_election_timer(out);
        }
        if leader_changed {
            self.verified = self.commit_index;
        }
        let last_index = snapshot.last_index;
        if last_index <= self.commit_index {
            // Stale transfer: everything it covers is already committed
            // here. Ack our actual coverage so the leader resumes higher.
            out.send(
                from,
                FastRaftMessage::InstallSnapshotReply {
                    term: self.current_term,
                    last_index: self.commit_index,
                },
            );
            return;
        }
        if trace_enabled() {
            eprintln!(
                "INSTALL_SNAPSHOT {}@{:?} through={}",
                self.id,
                self.scope,
                last_index.as_u64()
            );
        }
        let old_commit = self.commit_index;
        out.persist(PersistCmd::InstallSnapshot {
            snapshot: snapshot.clone(),
        });
        self.log.install_snapshot(last_index, snapshot.last_term);
        // Drop id mappings for entries the install discarded. Only mappings
        // at or below the *pre-install* commit index are known committed
        // (and may keep answering duplicate proposals as such) — an
        // uncommitted self-approved entry below the new horizon may have
        // lost its slot to a different entry, and must not be reported
        // committed.
        let log = &self.log;
        self.id_index
            .retain(|_, idx| *idx <= old_commit || log.get(*idx).is_some());
        // Adopt the snapshot's configuration unless a *surviving* config
        // entry above the horizon supersedes it; a config entry the install
        // discarded (conflicting suffix) must no longer be obeyed.
        if self.config_index <= last_index || self.log.get(self.config_index).is_none() {
            self.adopt_config(snapshot.config.clone(), last_index, out);
        }
        // The snapshot's applied state covers strictly more commits than
        // ours (last_index > old commit).
        self.applied.adopt(snapshot);
        self.commit_index = last_index;
        self.verified = self.verified.max(last_index);
        if last_index > self.last_leader_index {
            self.last_leader_index = last_index;
        }
        self.possible.release_through(last_index);
        out.observe(Observation::SnapshotInstalled {
            scope: self.scope,
            last_index,
        });
        // Gateway sweep: writes submitted here whose application the
        // install fast-forwarded past must still be answered.
        for (session, seq, _, first_index) in self.applied.sweep_client_pending(&self.client_writes)
        {
            let register = matches!(
                self.client_pending.get(&(session, seq)),
                Some(ClientOp::Register)
            );
            let outcome = replica::covered_outcome(register, session, first_index);
            self.respond_client(self.id, session, seq, outcome, out);
        }
        self.reads.release_applied_reads(last_index, out);
        self.retarget_lost_proposals(out);
        out.send(
            from,
            FastRaftMessage::InstallSnapshotReply {
                term: self.current_term,
                last_index,
            },
        );
    }

    pub(super) fn on_install_snapshot_reply(
        &mut self,
        from: NodeId,
        term: Term,
        last_index: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if term > self.current_term {
            self.become_follower(term, None, out);
            return;
        }
        if self.role != Role::Leader || term < self.current_term {
            return;
        }
        let m = self.match_index.entry(from).or_insert(LogIndex::ZERO);
        if last_index > *m {
            *m = last_index;
        }
        self.next_index.insert(from, last_index.next());
        self.maybe_finish_join(from, out);
        self.advance_commit_classic(out);
    }
}
