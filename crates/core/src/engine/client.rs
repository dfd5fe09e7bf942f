//! The typed client surface: sessions, exactly-once writes, reads.

use super::*;

impl FastRaftNode {
    // ------------------------------------------------------------------
    // The typed client surface (sessions, exactly-once writes, reads)
    // ------------------------------------------------------------------

    /// Answers a client request (see [`Replica::respond_client`]); a write
    /// answered at its own gateway leaves the proposer table too.
    pub(super) fn respond_client(
        &mut self,
        to: NodeId,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if let Some(id) = self.core.respond_client(to, session, seq, outcome, out) {
            self.pending_proposals.remove(&id);
        }
    }

    /// Leader side of a linearizable read: capture the commit floor, then
    /// confirm leadership with a heartbeat round before answering.
    pub(super) fn register_read(
        &mut self,
        session: SessionId,
        seq: u64,
        reply_to: NodeId,
        out: &mut Actions<FastRaftMessage>,
    ) {
        debug_assert_eq!(self.core.role, Role::Leader);
        // A fresh leader's commit floor may lag entries committed by its
        // predecessor until an entry of its own term commits (Raft §8):
        // until then the floor must not be served. Exception: a provably
        // empty history serves the trivially correct floor 0 — otherwise an
        // empty system could never answer its first read. "Provably empty"
        // means neither this leader's log nor any granted vote's recovered
        // entries contain anything: a fast quorum that chose an entry
        // intersects every classic quorum in a voter that would have
        // shipped it, so emptiness here implies no write ever completed.
        let provably_empty = self.core.commit_index.is_zero()
            && self.last_leader_index.is_zero()
            && self.core.log.is_empty()
            && self.possible.max_index().is_zero();
        let floor_term = self.core.log.term_at(self.core.commit_index);
        if !provably_empty && floor_term != self.core.current_term {
            self.respond_client(reply_to, session, seq, ClientOutcome::Retry, out);
            // Liveness nudge: a *quiescent* new leader — everything
            // inherited already committed — never runs `maybe_term_noop`
            // (that path only fires while commits lag), so without client
            // writes no current-term entry would ever commit and reads
            // would retry forever. Create the no-op on demand, only when a
            // read actually needs it, so write-only runs keep their exact
            // index layout.
            if self.core.commit_index >= self.last_leader_index && self.leader_log_settled() {
                let k = self.last_leader_index.next();
                let noop = LogEntry::noop(self.core.current_term, self.core.ids.fresh_id(out));
                if self.leader_insert(k, noop, false, out) {
                    self.core
                        .dispatch_append_entries(self.leader_coverage(), out);
                }
            }
            return;
        }
        if self.core.register_read(session, seq, reply_to, out) {
            // Confirm now rather than waiting out the heartbeat period.
            self.core
                .dispatch_append_entries(self.leader_coverage(), out);
        }
    }
}
