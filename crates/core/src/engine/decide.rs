//! The leader decision loop (§IV-B) and its liveness guards.

use super::*;

impl FastRaftNode {
    // ------------------------------------------------------------------
    // The decision loop (§IV-B "Periodically run by the leader")
    // ------------------------------------------------------------------

    /// `true` when no undecided index sits at or below the leader-approved
    /// top of the log: every recovered vote and broadcast proposal known to
    /// this leader has been decided, and no insert is gate-pending. Only
    /// then may the leader create an entry at `lastLeaderIndex + 1` itself
    /// (configuration changes, term no-ops, forwarded proposals) without
    /// risking stomping a chosen-but-not-yet-re-decided slot (§IV-C).
    pub(super) fn leader_log_settled(&self) -> bool {
        self.possible.max_index() <= self.last_leader_index
            && self.core.log.last_index() <= self.last_leader_index
            && self.reserved.is_empty()
    }

    /// The top of the *dense* leader-approved prefix: the highest index K
    /// with every slot in `(commitIndex, K]` holding a leader-approved
    /// entry (the committed prefix counts regardless of local approval
    /// stamps — fast-track copies below the commit point may still carry
    /// their self-approved stamp). K + 1 is the decision point: the
    /// smallest index not yet decided by a leader, where the decision loop
    /// works (inherited leader-approved entries are fixed decisions the
    /// classic track commits).
    ///
    /// Election up-to-dateness (§IV-C) compares THIS, not
    /// `lastLeaderIndex`. The two differ when leader-approved inserts
    /// complete out of order — under C-Raft, a global append whose
    /// intra-cluster replication finishes after a later slot's (global
    /// traffic reorders, local leadership churns) leaves a hole *below*
    /// `lastLeaderIndex`. Classic-track commits only ever count acks for a
    /// follower's contiguously-verified prefix, so a committed entry can
    /// sit exactly in such a hole; a vote granted on the inflated
    /// `lastLeaderIndex` would let a candidate missing that entry win and
    /// have its decision loop re-fill the slot — two different entries
    /// committed at one index.
    pub(super) fn leader_coverage(&self) -> LogIndex {
        let mut k = self.core.commit_index;
        for (i, e) in self.core.log.contiguous_from(k.next()) {
            if e.approval != Approval::LeaderApproved {
                break;
            }
            k = i;
        }
        k
    }

    pub(super) fn run_decision_loop(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.core.role != Role::Leader {
            return;
        }
        // Fast-track check at the head of the log: the fast track may only
        // commit commitIndex + 1 (§IV-B), and only for a current-term entry.
        loop {
            let k = self.core.commit_index.next();
            let Some(existing) = self.core.log.get(k).cloned() else {
                break;
            };
            if existing.approval != Approval::LeaderApproved
                || existing.term != self.core.current_term
            {
                break;
            }
            if self.fast_quorum_at(k, existing.id) {
                self.commit_through(k, Some(true), out);
            } else {
                break;
            }
        }
        // Decide-ahead: choose entries from votes at the first undecided
        // index, keeping the leader-approved prefix contiguous. Inherited
        // old-term entries below are skipped — they commit via the classic
        // track once a current-term entry above them replicates (the same
        // reason classic Raft commits a new-term no-op on election).
        loop {
            let k = self.leader_coverage().next();
            if self.reserved.contains_key(&k) {
                break; // An insert for k is still replicating locally.
            }
            if self.possible.voters_at(k, &self.core.config) < self.core.config.classic_quorum() {
                break;
            }
            let chosen = match self.possible.most_voted(k, &self.core.config) {
                Some(e) => e.clone(),
                None => {
                    // No member's vote names a candidate (every one was
                    // nulled): any entry may be inserted (§IV-B); use a
                    // no-op.
                    LogEntry::noop(self.core.current_term, self.core.ids.fresh_id(out))
                }
            };
            let chosen = chosen
                .with_term(self.core.current_term)
                .with_approval(Approval::LeaderApproved);
            if !self.leader_insert(k, chosen, true, out) {
                break;
            }
        }
        self.maybe_term_noop(out);
    }

    /// Classic Raft commits a no-op at the start of every term so inherited
    /// entries become committable; Fast Raft needs the same, but the no-op
    /// may only go *above* every index that might hold a chosen entry —
    /// i.e. above every recovered vote and every entry in our log. When the
    /// system is quiet (no votes pending beyond the log), that point is
    /// exactly `lastLeaderIndex + 1`.
    fn maybe_term_noop(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.core.role != Role::Leader
            || self.core.commit_index >= self.last_leader_index
            || self.core.log.term_at(self.last_leader_index) == self.core.current_term
            || !self.reserved.is_empty()
        {
            return;
        }
        if !self.leader_log_settled() {
            // Undecided proposals beyond the inherited region: the decision
            // loop (plus hole filling) will produce the current-term entry.
            return;
        }
        let k = self.last_leader_index.next();
        let noop = LogEntry::noop(self.core.current_term, self.core.ids.fresh_id(out));
        self.leader_insert(k, noop, false, out);
    }

    /// Inserts the leader-approved `entry` at `index` through the gate: a
    /// `decision` of the decision loop, or an entry appended above the log.
    /// An ungated engine lands it now and returns `true`. A gated one
    /// reserves the index, which holds `leader_log_settled()` false and
    /// the decision loop below it, and returns `false`; the entry lands
    /// when its gate and every lower reservation have released
    /// ([`land_reserved`](Self::land_reserved)).
    pub(super) fn leader_insert(
        &mut self,
        index: LogIndex,
        entry: LogEntry,
        decision: bool,
        out: &mut Actions<FastRaftMessage>,
    ) -> bool {
        let Some(token) = self.gate.defer(index, &entry) else {
            self.land_leader(index, entry, decision, out);
            return true;
        };
        self.pending_gates.insert(token, GateCont::Leader(index));
        let reserved = Reserved {
            token,
            entry,
            decision,
            released: false,
        };
        self.reserved.insert(index, reserved);
        false
    }

    /// Lands released reservations in index order, stopping at the first
    /// unreleased one. Returns `true` if a decision fast-committed.
    pub(super) fn land_reserved(&mut self, out: &mut Actions<FastRaftMessage>) -> bool {
        let mut committed = false;
        while let Some(first) = self.reserved.first_entry() {
            if !first.get().released {
                break;
            }
            let (index, r) = first.remove_entry();
            committed |= self.land_leader(index, r.entry, r.decision, out);
        }
        committed
    }

    /// Drops every reservation when leadership ends: none can land in a
    /// later term. Their gates' releases are then no-ops.
    pub(super) fn drop_reservations(&mut self) {
        for (k, r) in std::mem::take(&mut self.reserved) {
            self.unmap_unplaced(k, r.entry.id);
        }
    }

    /// Forgets that `id` was assigned slot `k` unless the log holds it
    /// there: a retry would otherwise be ignored as in flight, and answered
    /// `committed` once another entry commits at that slot.
    fn unmap_unplaced(&mut self, k: LogIndex, id: EntryId) {
        if self.core.id_index.get(&id) == Some(&k)
            && self.core.log.get(k).is_none_or(|e| e.id != id)
        {
            self.core.id_index.remove(&id);
        }
    }

    /// The one landing path of a leader-approved insert. A decision then
    /// tells the losers and fast-commits on a fast quorum (returning
    /// `true`); an appended entry may commit on the classic track. A
    /// decision whose slot was decided another way meanwhile is dropped.
    fn land_leader(
        &mut self,
        k: LogIndex,
        entry: LogEntry,
        decision: bool,
        out: &mut Actions<FastRaftMessage>,
    ) -> bool {
        let id = entry.id;
        if decision && k != self.leader_coverage().next() {
            self.unmap_unplaced(k, id);
            return false;
        }
        debug_assert_eq!(entry.approval, Approval::LeaderApproved);
        self.insert_approved(k, entry, out);
        self.core
            .match_index
            .insert(self.core.id, self.last_leader_index);
        if !decision {
            self.advance_commit_classic(out);
            return false;
        }
        self.possible.null_out_elsewhere(id, k);
        self.notify_losers(k, id, out);
        // The fast track only ever commits the index right above the commit
        // point (§IV-B "the fast track can only be taken here if the last
        // index was committed").
        if k == self.core.commit_index.next() && self.fast_quorum_at(k, id) {
            self.commit_through(k, Some(true), out);
            return true;
        }
        false
    }

    /// Highest proposal-sequence ceiling this engine has persisted; used by
    /// embeddings that cache engine state across deactivation (C-Raft's
    /// global side) to carry the floor forward.
    pub fn reserved_seqs(&self) -> u64 {
        self.core.ids.reserved_seqs()
    }

    /// `true` when a fast quorum of the configuration holds entry `id` at
    /// `k`: the sites whose vote *at k* names it, plus the leader, which
    /// holds the entry it inserted there. A vote at any other index says
    /// nothing about `k`.
    fn fast_quorum_at(&self, k: LogIndex, id: EntryId) -> bool {
        let voters = self.possible.voters_for(k, id);
        let count = self
            .core
            .config
            .iter()
            .filter(|m| *m == self.core.id || voters.binary_search(m).is_ok())
            .count();
        count >= self.core.config.fast_quorum()
    }

    /// Liveness guard: re-propose a no-op at the blocked index after
    /// `hole_fill_ticks` stalled decision ticks (see module docs).
    pub(super) fn maybe_fill_hole(&mut self, out: &mut Actions<FastRaftMessage>) {
        let k = self.leader_coverage().next();
        let work_above = self.core.log.last_index() >= k || self.possible.max_index() >= k;
        let blocked = work_above
            && self
                .core
                .log
                .get(k)
                .is_none_or(|e| e.approval == Approval::SelfApproved)
            && self.possible.voters_at(k, &self.core.config) < self.core.config.classic_quorum()
            && !self.reserved.contains_key(&k);
        if !blocked {
            self.stalled_ticks = 0;
            return;
        }
        self.stalled_ticks += 1;
        if self.stalled_ticks < self.core.timing.hole_fill_ticks {
            return;
        }
        self.stalled_ticks = 0;
        self.fire_hole_repair(k, out);
    }

    /// Broadcasts a no-op proposal targeted at the blocked index. Sites
    /// holding an entry there keep it and re-vote for it, so any chosen
    /// entry still wins the decision rule — safety is untouched while the
    /// log unblocks.
    fn fire_hole_repair(&mut self, k: LogIndex, out: &mut Actions<FastRaftMessage>) {
        out.observe(Observation::HoleRepairTriggered { index: k });
        let id = self.core.ids.fresh_id(out);
        self.broadcast_proposal(id, Payload::Noop, k, out);
    }
}
