//! Snapshots and log compaction.

use super::*;

impl FastRaftNode {
    // ------------------------------------------------------------------
    // Snapshots + log compaction
    // ------------------------------------------------------------------

    /// The snapshot to serve laggards (see
    /// [`raft::replica::Applied::current_snapshot`]). Public so the C-Raft
    /// layer can cache the global engine's snapshot across deactivation.
    pub fn current_snapshot(&self) -> Option<Snapshot> {
        self.core.current_snapshot()
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
        if term >= self.core.current_term {
            self.follow_leader(term, leader, out);
        }
        let last_index = snapshot.last_index;
        let was_member = self.core.config.contains(self.core.id);
        if !self.core.install_snapshot(from, term, snapshot, out) {
            return;
        }
        self.membership_changed(was_member, out);
        self.verified = self.verified.max(last_index);
        if last_index > self.last_leader_index {
            self.last_leader_index = last_index;
        }
        self.possible.release_through(last_index);
        // Gateway sweep: writes submitted here whose application the
        // install fast-forwarded past must still be answered.
        for id in self.core.answer_covered_writes(out) {
            self.pending_proposals.remove(&id);
        }
        // A batch whose every item the installed table holds committed, or
        // a copy of it did: re-proposing it would only commit it again.
        let sessions = self.core.applied.sessions();
        self.pending_proposals.retain(|_, p| match &p.payload {
            Payload::Batch(b) => !b.items.iter().all(|item| {
                item.key
                    .is_some_and(|(session, seq)| sessions.duplicate_of(session, seq).is_some())
            }),
            _ => true,
        });
        self.retarget_lost_proposals(out);
        out.send(
            from,
            FastRaftMessage::InstallSnapshotReply {
                term: self.core.current_term,
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
        // An ack of the snapshot's prefix (it carries no lease grant).
        match self
            .core
            .on_ack(from, term, Some(last_index), SimTime::ZERO, out)
        {
            Reply::NewerTerm => self.become_follower(term, None, out),
            Reply::Counted => {
                self.maybe_finish_join(from, out);
                self.advance_commit_classic(out);
            }
            Reply::Dropped | Reply::Rejected => {}
        }
    }
}
