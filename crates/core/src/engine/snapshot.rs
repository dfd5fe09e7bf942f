//! Snapshots and log compaction.

use super::*;

impl FastRaftEngine {
    // ------------------------------------------------------------------
    // Snapshots + log compaction
    // ------------------------------------------------------------------

    /// Compacts the committed prefix into a snapshot once its retained
    /// length exceeds [`Timing::snapshot_threshold`]. Every role compacts —
    /// the committed prefix is immutable everywhere — so per-site log
    /// residency stays bounded, not just the leader's. Compaction never
    /// crosses a hole (the committed prefix is contiguous by construction,
    /// and [`wire::SparseLog::compact_to`] clamps regardless).
    pub(super) fn maybe_compact(&mut self, out: &mut Actions<FastRaftMessage>) {
        let threshold = self.timing.snapshot_threshold;
        if threshold == 0 {
            return;
        }
        let horizon = self.log.compacted_through();
        // Compaction is bounded by the *applied* prefix, not the committed
        // one: the snapshot captures digest + session table, which are
        // apply-time state. Inline, applied == committed here; pipelined,
        // compaction simply runs at the drain stage.
        let retained_decided = self.applied_index.as_u64().saturating_sub(horizon.as_u64());
        if retained_decided <= threshold {
            return;
        }
        let through = self.applied_index;
        let snapshot = Snapshot {
            scope: self.scope,
            last_index: through,
            last_term: self.log.term_at(through),
            config: self.config_for_snapshot(through),
            state: Snapshot::digest_state(self.state_digest),
            sessions: self.sessions.clone(),
        };
        out.persist(PersistCmd::InstallSnapshot {
            snapshot: snapshot.clone(),
        });
        let new_horizon = self.log.compact_to(through);
        debug_assert_eq!(new_horizon, through, "committed prefix must be contiguous");
        self.snapshot = Some(snapshot);
        out.observe(Observation::LogCompacted {
            scope: self.scope,
            through,
            retained: self.log.len(),
        });
    }

    /// The configuration in force at `through`: the current configuration
    /// when its entry sits at or below the cut, otherwise the newest config
    /// entry inside the retained prefix (falling back to the previous
    /// snapshot's, then the current configuration).
    fn config_for_snapshot(&self, through: LogIndex) -> Configuration {
        if self.config_index <= through {
            return self.config.clone();
        }
        let mut cfg = self.snapshot.as_ref().map(|s| s.config.clone());
        for (_, e) in self.log.range(self.log.first_index(), through) {
            if let Some(c) = e.as_config() {
                cfg = Some(c.clone());
            }
        }
        cfg.unwrap_or_else(|| self.config.clone())
    }

    /// The snapshot to serve laggards: the cached one (compaction refreshes
    /// it), synthesized from the log's horizon if a recovery path lost it.
    /// Public so the C-Raft layer can cache the global engine's snapshot
    /// across deactivation.
    pub fn current_snapshot(&self) -> Option<Snapshot> {
        let horizon = self.log.compacted_through();
        if horizon.is_zero() {
            return None;
        }
        match &self.snapshot {
            Some(s) if s.last_index == horizon => Some(s.clone()),
            _ => Some(Snapshot {
                scope: self.scope,
                last_index: horizon,
                last_term: self.log.compacted_term(),
                config: self.config_for_snapshot(horizon),
                state: Snapshot::digest_state(self.state_digest),
                sessions: self.sessions.clone(),
            }),
        }
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
        if let Some(digest) = snapshot.state_digest() {
            self.state_digest = digest;
        }
        // Adopt the applied session state: the snapshot's table covers
        // strictly more commits than ours (last_index > old commit). The
        // apply pipeline fast-forwards with it — the snapshot state already
        // subsumes any queued-but-undrained range, whose entries the
        // install just discarded.
        self.sessions = snapshot.sessions.clone();
        self.commit_index = last_index;
        self.applied_index = last_index;
        self.verified = self.verified.max(last_index);
        if last_index > self.last_leader_index {
            self.last_leader_index = last_index;
        }
        self.possible.release_through(last_index);
        self.snapshot = Some(snapshot);
        out.observe(Observation::SnapshotInstalled {
            scope: self.scope,
            last_index,
        });
        // Gateway sweep: writes submitted here whose application the
        // install fast-forwarded past must still be answered.
        self.sweep_client_pending(out);
        self.release_applied_reads(out);
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
