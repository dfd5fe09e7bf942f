//! Classic track: AppendEntries dispatch, follower inserts, acks, the matchIndex commit rule.

use super::*;

impl FastRaftNode {
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

        // Contiguity: entries arrive as an ascending index range, which a
        // leader fills from its dense leader-approved prefix. Only the run
        // contiguous with this site's verified prefix lands (and counts as
        // matched); a range that starts above it, or skips an index, adds
        // nothing past the gap, so neither a commit nor an insert can cross
        // a hole, and an index far above this log never makes the dense
        // log materialize a span. The leader rewinds nextIndex from the ack
        // and resends.
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
        // allocation. Entries at or below the commit index are already
        // decided (and possibly compacted away).
        let mut ack = None;
        let mut remaining = 0usize;
        // The lowest deferred index above the anchor, if any insert deferred.
        let mut first_deferred: Option<LogIndex> = None;
        for (idx, entry) in entries.iter() {
            let idx = *idx;
            if idx > new_match {
                break;
            }
            let needs_write = idx > self.core.commit_index
                && self.core.log.get(idx).is_none_or(|existing| {
                    existing.id != entry.id
                        || existing.approval != Approval::LeaderApproved
                        || existing.term != entry.term
                });
            if !needs_write {
                continue;
            }
            let entry = entry.with_approval(Approval::LeaderApproved);
            let Some(token) = self.gate.defer(idx, &entry) else {
                self.apply_append_insert(idx, entry, out);
                continue;
            };
            let id = *ack.get_or_insert_with(|| {
                self.next_ack_id += 1;
                self.next_ack_id - 1
            });
            self.pending_gates.insert(token, GateCont::Append(id));
            self.parked_appends.push((id, idx, entry));
            remaining += 1;
            if idx > anchor {
                first_deferred.get_or_insert(idx);
            }
        }
        let Some(ack) = ack else {
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
        // entry. The full `new_match` is acked by `land_append` once the
        // last gate of the batch resolves.
        self.verified = first_deferred.map_or(new_match, |d| new_match.min(d.prev()));
        let st = AckState {
            from,
            term: self.core.current_term,
            match_index: new_match,
            leader_commit,
            probe,
            remaining,
        };
        self.acks.insert(ack, st);
    }

    /// Lands a deferred AppendEntries batch once its last gate released:
    /// whole and in index order, so no slot lands above a stale one, and
    /// only if the term it was verified under is still current — else the
    /// slots may since belong to a newer leader. Then acks it.
    pub(super) fn land_append(
        &mut self,
        ack: u64,
        st: AckState,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let mut parked = std::mem::take(&mut self.parked_appends);
        let current = st.term == self.core.current_term;
        for (_, index, entry) in parked.extract_if(.., |p| p.0 == ack) {
            if current {
                self.apply_append_insert(index, entry, out);
            }
        }
        self.parked_appends = parked;
        self.finish_append_ack(st, out);
    }

    fn apply_append_insert(
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

    fn finish_append_ack(&mut self, st: AckState, out: &mut Actions<FastRaftMessage>) {
        // If the term changed while the gates were open, the verification is
        // stale; drop the ack and let the current leader re-establish the
        // prefix. Otherwise every insert of the batch has landed (and
        // persisted write-ahead), and the log is insert-only, so the
        // contiguous run this batch verified is still present: `verified`
        // may now cover it.
        if st.term != self.core.current_term {
            return;
        }
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
        // The committed prefix must stay contiguous and leader-approved.
        // A follower inserts only the run contiguous with its verified
        // prefix, but a C-Raft global view rebuilt from global-state entries
        // (`activate_global`) can hold leader-approved entries above a hole,
        // so `lastLeaderIndex` can sit above it. Cap the scan at the end of
        // the contiguous leader-approved run above commitIndex; once the
        // decision loop or hole filling repairs the hole, the run extends
        // and the suffix becomes committable.
        let reach = self.leader_coverage();
        let k = self.core.quorum_commit_point(reach);
        self.commit_through(k, Some(false), out);
    }
}
