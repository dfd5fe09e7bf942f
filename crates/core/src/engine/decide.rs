//! The leader decision loop (§IV-B) and its liveness guards.

use super::*;

impl FastRaftEngine {
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
            && self.gated_decisions.is_empty()
    }

    /// The smallest index above the commit point not yet decided by a
    /// leader: the position the decision loop works on. Skips inherited
    /// leader-approved entries (fixed decisions the classic track commits).
    fn decision_point(&self) -> LogIndex {
        // One slice pass over the contiguous run above the commit point —
        // the run iterator stops at the first hole by construction, so only
        // the approval needs checking per slot.
        let mut k = self.core.commit_index.next();
        for (i, e) in self.core.log.contiguous_from(k) {
            if e.approval != Approval::LeaderApproved {
                break;
            }
            k = i.next();
        }
        k
    }

    /// The top of the *dense* leader-approved prefix: the highest index K
    /// with every slot in `(commitIndex, K]` holding a leader-approved
    /// entry (the committed prefix counts regardless of local approval
    /// stamps — fast-track copies below the commit point may still carry
    /// their self-approved stamp).
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

    pub(super) fn run_decision_loop(
        &mut self,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
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
            let k = self.decision_point();
            if self.gated_decisions.contains(&k) {
                break; // An insert for k is still replicating locally.
            }
            if self.possible.voters_at(k) < self.core.config.classic_quorum() {
                break;
            }
            let chosen = match self.possible.most_voted(k) {
                Some((e, _)) => e.clone(),
                None => {
                    // Every vote was nulled: any entry may be inserted
                    // (§IV-B); use a no-op.
                    LogEntry::noop(self.core.current_term, self.core.ids.fresh_id(out))
                }
            };
            let chosen = chosen
                .with_term(self.core.current_term)
                .with_approval(Approval::LeaderApproved);
            match gate.begin(k, &chosen, GatePurpose::DecisionInsert) {
                GateVerdict::Proceed => {
                    let _ = self.finish_decision_insert(k, chosen, out);
                }
                GateVerdict::Defer(token) => {
                    self.gated_decisions.insert(k);
                    self.pending_gates.insert(
                        token,
                        GateCont::Decision {
                            index: k,
                            entry: chosen,
                        },
                    );
                    break;
                }
            }
        }
        self.maybe_term_noop(gate, out);
    }

    /// Classic Raft commits a no-op at the start of every term so inherited
    /// entries become committable; Fast Raft needs the same, but the no-op
    /// may only go *above* every index that might hold a chosen entry —
    /// i.e. above every recovered vote and every entry in our log. When the
    /// system is quiet (no votes pending beyond the log), that point is
    /// exactly `lastLeaderIndex + 1`.
    fn maybe_term_noop(&mut self, gate: &mut dyn InsertGate, out: &mut Actions<FastRaftMessage>) {
        if self.core.role != Role::Leader
            || self.core.commit_index >= self.last_leader_index
            || self.core.log.term_at(self.last_leader_index) == self.core.current_term
            || !self.gated_decisions.is_empty()
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
        match gate.begin(k, &noop, GatePurpose::DecisionInsert) {
            GateVerdict::Proceed => {
                self.insert_leader_entry(k, noop, out);
                self.advance_commit_classic(out);
            }
            GateVerdict::Defer(token) => {
                self.gated_decisions.insert(k);
                self.pending_gates.insert(
                    token,
                    GateCont::LeaderAppend {
                        index: k,
                        entry: noop,
                    },
                );
            }
        }
    }

    /// Inserts the chosen entry at `k`; returns `true` if it fast-committed.
    pub(super) fn finish_decision_insert(
        &mut self,
        k: LogIndex,
        chosen: LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) -> bool {
        if k != self.decision_point() || self.core.role != Role::Leader {
            // Stale continuation (the slot was decided another way or
            // leadership was lost while the gate replicated). Drop it; the
            // current machinery re-decides.
            return false;
        }
        self.insert_leader_entry(k, chosen.clone(), out);
        self.possible.null_out_elsewhere(chosen.id, k);
        self.notify_losers(k, chosen.id, out);
        // The fast track only ever commits the index right above the commit
        // point (§IV-B "the fast track can only be taken here if the last
        // index was committed").
        if k == self.core.commit_index.next()
            && chosen.term == self.core.current_term
            && self.fast_quorum_at(k, chosen.id)
        {
            self.commit_through(k, Some(true), out);
            return true;
        }
        false
    }

    pub(super) fn insert_leader_entry(
        &mut self,
        index: LogIndex,
        entry: LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) {
        debug_assert_eq!(entry.approval, Approval::LeaderApproved);
        self.insert_approved(index, entry, out);
        self.core
            .match_index
            .insert(self.core.id, self.last_leader_index);
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
        let k = self.decision_point();
        let work_above = self.core.log.last_index() >= k || self.possible.max_index() >= k;
        let blocked = work_above
            && self
                .core
                .log
                .get(k)
                .is_none_or(|e| e.approval == Approval::SelfApproved)
            && self.possible.voters_at(k) < self.core.config.classic_quorum()
            && !self.gated_decisions.contains(&k);
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

    /// Proactive hole repair: a successful append ack whose match stopped
    /// exactly below the blocked decision point, while replicated suffix
    /// exists above it, proves the classic track is stalled on that hole —
    /// repair it immediately instead of waiting out `hole_fill_ticks`.
    /// Fires at most once per index; the tick-based guard remains the
    /// backstop if the repair proposal itself is lost.
    pub(super) fn maybe_proactive_repair(
        &mut self,
        acked: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let k = self.decision_point();
        if acked.next() != k
            || self.last_leader_index <= k
            || k <= self.last_proactive_repair
            || self.gated_decisions.contains(&k)
            || self
                .core
                .log
                .get(k)
                .is_some_and(|e| e.approval == Approval::LeaderApproved)
            || self.possible.voters_at(k) >= self.core.config.classic_quorum()
        {
            return;
        }
        self.last_proactive_repair = k;
        self.fire_hole_repair(k, out);
    }

    /// Broadcasts a no-op proposal targeted at the blocked index. Sites
    /// holding an entry there keep it and re-vote for it, so any chosen
    /// entry still wins the decision rule — safety is untouched while the
    /// log unblocks.
    fn fire_hole_repair(&mut self, k: LogIndex, out: &mut Actions<FastRaftMessage>) {
        out.observe(Observation::HoleRepairTriggered { index: k });
        let id = self.core.ids.fresh_id(out);
        let mut proceed = crate::gate::ProceedGate;
        self.broadcast_proposal(id, Payload::Noop, k, &mut proceed, out);
    }
}
