//! Classic track: AppendEntries dispatch, follower inserts, acks, the matchIndex commit rule.

use super::*;

impl FastRaftEngine {
    // ------------------------------------------------------------------
    // Classic track: AppendEntries
    // ------------------------------------------------------------------

    /// §IV-B "When a follower receives AppendEntries message".
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_append_entries(
        &mut self,
        from: NodeId,
        term: Term,
        leader: NodeId,
        prev_index: LogIndex,
        entries: EntryList,
        leader_commit: LogIndex,
        probe: u64,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if term < self.core.current_term {
            out.send(
                from,
                FastRaftMessage::AppendEntriesReply {
                    term: self.core.current_term,
                    success: false,
                    match_index: LogIndex::ZERO,
                    probe: 0,
                    lease_until: SimTime::ZERO,
                },
            );
            return;
        }
        self.follow_leader(term, leader, out);
        // NOTE: prev_index is deliberately NOT trusted to raise `verified`.
        // Mere presence of entries through prev_index proves nothing — a
        // stale self-approved entry below prev could differ from the
        // leader's log (the log-matching induction classic Raft gets from
        // its prev-term check). Instead, a follower that cannot extend its
        // verified prefix acks its true `verified`, and the leader rewinds
        // nextIndex from the ack (see on_append_reply), resending the range
        // and overwriting stale entries.
        let _ = prev_index;

        // Contiguity bookkeeping: entries arrive as an explicit ascending
        // index range, but the range may contain interior holes — the leader
        // collects the *occupied* slots of a sparse log, so a hole in the
        // leader's log shows up as a skipped index here. matchIndex may only
        // advance across indices this site verifies contiguously from its
        // existing verified prefix; anything beyond the first skip is
        // inserted (it is leader-approved data) but not counted as matched,
        // so commits can never cross a hole. The hole itself is repaired by
        // the leader's decision loop / hole filling, after which the resend
        // from the acked matchIndex extends the prefix normally.
        let anchor = self.verified.max(self.core.commit_index);
        let mut new_match = anchor;
        for (idx, _) in entries.iter() {
            if *idx <= new_match {
                continue;
            }
            if *idx == new_match.next() {
                new_match = *idx;
            } else {
                break;
            }
        }

        // Apply inserts (§IV-B steps 4-5: overwrite conflicts, mark
        // leader-approved), possibly gated. The list is Rc-shared with
        // every other recipient of this batch; entries that land are cloned
        // out of it so the per-site approval stamp never touches the shared
        // allocation.
        let insert_bound = self.core.insert_bound();
        // One id per append that wrote anything, shared by its gated inserts.
        let mut ack_id = None;
        let mut remaining = 0usize;
        // The lowest deferred index above the anchor, if any insert deferred.
        let mut first_deferred: Option<LogIndex> = None;
        for (idx, entry) in entries.iter() {
            let idx = *idx;
            // Entries at or below the commit index are already decided (and
            // possibly compacted away); writing there is never needed and
            // would violate the compaction horizon.
            if idx <= self.core.commit_index {
                continue;
            }
            // Defensive: an index absurdly far above this log would force
            // the dense layout to materialize the whole span as slots.
            // Beyond the contiguity anchor it cannot advance matchIndex
            // anyway, so dropping it costs nothing.
            if idx.as_u64() > insert_bound {
                continue;
            }
            let needs_write = match self.core.log.get(idx) {
                None => true,
                Some(existing) => {
                    existing.id != entry.id
                        || existing.approval != Approval::LeaderApproved
                        || existing.term != entry.term
                }
            };
            if !needs_write {
                continue;
            }
            let ack = *ack_id.get_or_insert_with(|| {
                self.next_ack_id += 1;
                self.next_ack_id - 1
            });
            // A write at one index changes no other index's `needs_write`,
            // so each insert lands (or parks) as the scan reaches it.
            let entry = entry.with_approval(Approval::LeaderApproved);
            match gate.begin(idx, &entry, GatePurpose::AppendInsert) {
                GateVerdict::Proceed => self.apply_append_insert(idx, entry, out),
                GateVerdict::Defer(token) => {
                    remaining += 1;
                    if idx > anchor && first_deferred.is_none_or(|d| idx < d) {
                        first_deferred = Some(idx);
                    }
                    self.pending_gates.insert(
                        token,
                        GateCont::Append {
                            index: idx,
                            entry,
                            ack,
                        },
                    );
                }
            }
        }
        let Some(ack_id) = ack_id else {
            self.verified = new_match;
            self.complete_append(from, new_match, leader_commit, probe, out);
            return;
        };
        // `verified` may only cover entries that actually landed: a deferred
        // insert is not in the log (nor persisted) yet, so it must not be
        // acked — not by this append's (deferred) ack, and not by a later
        // empty heartbeat acking `verified` while the gate is still open.
        // Otherwise the leader could count a non-durable replica toward a
        // classic quorum and a crash of this site could lose a committed
        // entry. The full `new_match` is acked by `finish_append_ack` once
        // the last gate of the batch resolves.
        self.verified = first_deferred.map_or(new_match, |d| new_match.min(d.prev()));
        if remaining == 0 {
            self.complete_append(from, new_match, leader_commit, probe, out);
        } else {
            self.acks.insert(
                ack_id,
                AckState {
                    from,
                    term: self.core.current_term,
                    match_index: new_match,
                    leader_commit,
                    probe,
                    remaining,
                },
            );
        }
    }

    pub(super) fn apply_append_insert(
        &mut self,
        index: LogIndex,
        entry: LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if index <= self.core.log.compacted_through() {
            // The slot was committed and compacted (e.g. a snapshot arrived
            // while this insert was gated); the write is obsolete.
            return;
        }
        self.insert_approved(index, entry, out);
    }

    /// Inserts a leader-approved entry: a configuration is obeyed at once,
    /// and lastLeaderIndex — which drives election up-to-dateness (§IV-C) —
    /// advances.
    pub(super) fn insert_approved(
        &mut self,
        index: LogIndex,
        entry: LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let was_member = self.core.config.contains(self.core.id);
        self.core.insert_entry(index, entry, out);
        self.membership_changed(was_member, out);
        if index > self.last_leader_index {
            self.last_leader_index = index;
        }
    }

    fn complete_append(
        &mut self,
        from: NodeId,
        match_index: LogIndex,
        leader_commit: LogIndex,
        probe: u64,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // §IV-B step 6: commitIndex follows the leader, clamped to what we
        // verified (deviation from the paper's `lastLogIndex` clamp — see
        // module docs; this keeps the committed prefix contiguous and
        // leader-verified).
        if leader_commit > self.core.commit_index {
            let target = leader_commit.min(match_index);
            if target > self.core.commit_index {
                self.commit_through(target, None, out);
            }
        }
        out.send(
            from,
            FastRaftMessage::AppendEntriesReply {
                term: self.core.current_term,
                success: true,
                match_index,
                probe,
                // Grant stamped at reply time, not receive time: a gated
                // (deferred) ack that resolves later simply carries a
                // fresher promise.
                lease_until: self.core.reads.emit_lease_grant(from),
            },
        );
    }

    pub(super) fn finish_append_ack(&mut self, st: AckState, out: &mut Actions<FastRaftMessage>) {
        // Every insert of the batch has landed (and persisted write-ahead).
        // If the term changed while the gates were open, the verification is
        // stale — entries at those slots may since belong to a newer leader;
        // drop the ack and let the current leader re-establish the prefix.
        if st.term != self.core.current_term {
            return;
        }
        // The log is insert-only, so the contiguous run this batch verified
        // is still present: `verified` may now cover it.
        if st.match_index > self.verified {
            self.verified = st.match_index;
        }
        self.complete_append(st.from, st.match_index, st.leader_commit, st.probe, out);
    }

    /// Leader handling of AppendEntries acknowledgements.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_append_reply(
        &mut self,
        from: NodeId,
        term: Term,
        success: bool,
        match_index: LogIndex,
        probe: u64,
        lease_until: SimTime,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let matched = success.then_some(match_index);
        match self.core.on_ack(from, term, matched, lease_until, out) {
            Reply::NewerTerm => self.become_follower(term, None, out),
            Reply::Dropped => {}
            Reply::Counted => {
                self.maybe_finish_join(from, out);
                self.advance_commit_classic(out);
                self.maybe_proactive_repair(match_index, out);
                self.core
                    .reads
                    .note_read_ack(from, probe, &self.core.config, out);
            }
            // Stale-term rejection carries no hint; rewind to the commit
            // point so the next dispatch re-sends the suffix.
            Reply::Rejected => {
                let resume = self.core.commit_index.next();
                self.core.next_index.insert(from, resume);
            }
        }
    }

    /// Classic-track commit rule: highest `k` with a classic quorum of
    /// matchIndex ≥ k and `log[k].term == currentTerm`.
    pub(super) fn advance_commit_classic(&mut self, out: &mut Actions<FastRaftMessage>) {
        // The committed prefix must stay contiguous and leader-approved, but
        // `lastLeaderIndex` can sit *above* a hole (a non-extending append
        // still inserts its leader-approved entries). Cap the scan at the
        // end of the contiguous leader-approved run above commitIndex; the
        // decision loop / hole filling repairs the hole, after which the run
        // extends and the suffix becomes committable.
        let reach = self.leader_coverage();
        let k = self.core.quorum_commit_point(reach);
        self.commit_through(k, Some(false), out);
    }
}
