//! Classic track: AppendEntries dispatch, follower inserts, acks, the matchIndex commit rule.

use super::*;

impl FastRaftEngine {
    // ------------------------------------------------------------------
    // Classic track: AppendEntries
    // ------------------------------------------------------------------

    pub(super) fn dispatch_append_entries(&mut self, out: &mut Actions<FastRaftMessage>) {
        let budget = self.timing.append_budget();
        // Group followers by nextIndex: one budgeted batch is assembled per
        // distinct resume point, and the Arc-shared EntryList handle is
        // cloned per recipient — the fan-out shares a single allocation.
        let mut groups = std::mem::take(&mut self.append_scratch);
        let followers = self
            .config
            .peers(self.id)
            .chain(self.learners.iter().copied().filter(|l| *l != self.id));
        replica::group_by_next_index(
            &mut groups,
            followers,
            &self.next_index,
            self.commit_index.next(),
        );
        for peers in groups.chunk_by(|a, b| a.0 == b.0) {
            let next = peers[0].0;
            // A site whose resume point fell below the first retained index
            // cannot be served from the log anymore (it was absent past the
            // compaction horizon, or is a fresh joiner): transfer the
            // compacted prefix as a snapshot; its ack moves nextIndex above
            // the horizon and replication resumes normally.
            if next < self.log.first_index() {
                if let Some(snapshot) = self.current_snapshot() {
                    for &(_, peer) in peers {
                        out.send(
                            peer,
                            FastRaftMessage::InstallSnapshot {
                                term: self.current_term,
                                leader: self.id,
                                snapshot: snapshot.clone(),
                            },
                        );
                    }
                }
                continue;
            }
            // §IV-B: include entries from nextIndex through lastLeaderIndex.
            let entries = if self.last_leader_index >= next {
                let list =
                    self.log
                        .collect_range_budgeted(next, self.last_leader_index, budget);
                debug_assert!(list
                    .iter()
                    .all(|(_, e)| e.approval == Approval::LeaderApproved));
                list
            } else {
                EntryList::empty()
            };
            for &(_, peer) in peers {
                out.send(
                    peer,
                    FastRaftMessage::AppendEntries {
                        term: self.current_term,
                        leader: self.id,
                        prev_index: next.prev_saturating(),
                        entries: entries.clone(),
                        leader_commit: self.commit_index,
                        global_commit: LogIndex::ZERO,
                        probe: self.reads.probe(),
                    },
                );
            }
        }
        self.append_scratch = groups;
    }

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
        if term < self.current_term {
            out.send(
                from,
                FastRaftMessage::AppendEntriesReply {
                    term: self.current_term,
                    success: false,
                    match_index: LogIndex::ZERO,
                    probe: 0,
                    lease_until: SimTime::ZERO,
                },
            );
            return;
        }
        let leader_changed = self.leader_hint != Some(leader) || term > self.current_term;
        self.silent_elections = 0;
        if term > self.current_term || self.role != Role::Follower {
            self.become_follower(term, Some(leader), out);
        } else {
            self.leader_hint = Some(leader);
            self.reset_election_timer(out);
        }
        if leader_changed {
            // Entries verified against a previous leader may diverge above
            // the commit point; re-verify against the new leader.
            self.verified = self.commit_index;
        }
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
        let anchor = self.verified.max(self.commit_index);
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
        // leader-approved), possibly gated. The list is Arc-shared with
        // every other recipient of this batch; entries that land are cloned
        // out of it so the per-site approval stamp never touches the shared
        // allocation.
        let insert_bound =
            self.log.last_index().as_u64().max(self.commit_index.as_u64()) + MAX_INSERT_WINDOW;
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
            if idx <= self.commit_index {
                continue;
            }
            // Defensive: an index absurdly far above this log would force
            // the dense layout to materialize the whole span as slots.
            // Beyond the contiguity anchor it cannot advance matchIndex
            // anyway, so dropping it costs nothing.
            if idx.as_u64() > insert_bound {
                continue;
            }
            let needs_write = match self.log.get(idx) {
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
                    term: self.current_term,
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
        if index <= self.log.compacted_through() {
            // The slot was committed and compacted (e.g. a snapshot arrived
            // while this insert was gated); the write is obsolete.
            return;
        }
        if let Some(old) = self.log.get(index) {
            if old.id != entry.id {
                self.id_index.remove(&old.id);
            }
        }
        self.id_index.insert(entry.id, index);
        if let Some(cfg) = entry.as_config() {
            if index >= self.config_index {
                self.adopt_config(cfg.clone(), index, out);
            }
        }
        out.persist(PersistCmd::Insert {
            scope: self.scope,
            index,
            entry: entry.clone(),
        });
        self.log.insert(index, entry);
        // These entries are leader-approved: they advance lastLeaderIndex,
        // which drives election up-to-dateness (§IV-C).
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
        if leader_commit > self.commit_index {
            let target = leader_commit.min(match_index);
            if target > self.commit_index {
                self.commit_through(target, None, out);
            }
        }
        out.send(
            from,
            FastRaftMessage::AppendEntriesReply {
                term: self.current_term,
                success: true,
                match_index,
                probe,
                // Grant stamped at reply time, not receive time: a gated
                // (deferred) ack that resolves later simply carries a
                // fresher promise.
                lease_until: self.reads.emit_lease_grant(from),
            },
        );
    }

    pub(super) fn finish_append_ack(&mut self, st: AckState, out: &mut Actions<FastRaftMessage>) {
        // Every insert of the batch has landed (and persisted write-ahead).
        // If the term changed while the gates were open, the verification is
        // stale — entries at those slots may since belong to a newer leader;
        // drop the ack and let the current leader re-establish the prefix.
        if st.term != self.current_term {
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
        if term > self.current_term {
            self.become_follower(term, None, out);
            return;
        }
        if self.role != Role::Leader || term < self.current_term {
            return;
        }
        self.reads.record_grant(from, lease_until, out);
        if success {
            // match_index is monotone (acked entries are persisted at the
            // follower), but nextIndex follows the ack exactly: a follower
            // that restarted from stable storage reports a low verified
            // match, and the leader must rewind and resend that range.
            let m = self.match_index.entry(from).or_insert(LogIndex::ZERO);
            if match_index > *m {
                *m = match_index;
            }
            self.next_index.insert(from, match_index.next());
            self.maybe_finish_join(from, out);
            self.advance_commit_classic(out);
            self.maybe_proactive_repair(match_index, out);
            self.reads
                .note_read_ack(from, probe, self.applied.index(), &self.config, out);
        } else {
            // Stale-term rejection carries no hint; rewind to the commit
            // point so the next dispatch re-sends the suffix.
            self.next_index.insert(from, self.commit_index.next());
        }
    }

    /// Classic-track commit rule: highest `k` with a classic quorum of
    /// matchIndex ≥ k and `log[k].term == currentTerm`.
    pub(super) fn advance_commit_classic(&mut self, out: &mut Actions<FastRaftMessage>) {
        let quorum = self.config.classic_quorum();
        // The committed prefix must stay contiguous and leader-approved, but
        // `lastLeaderIndex` can sit *above* a hole (a non-extending append
        // still inserts its leader-approved entries). Cap the scan at the
        // end of the contiguous leader-approved run above commitIndex; the
        // decision loop / hole filling repairs the hole, after which the run
        // extends and the suffix becomes committable.
        let mut reach = self.commit_index;
        for (i, e) in self.log.contiguous_from(self.commit_index.next()) {
            if i > self.last_leader_index || e.approval != Approval::LeaderApproved {
                break;
            }
            reach = i;
        }
        let mut k = reach;
        while k > self.commit_index {
            if self.log.term_at(k) == self.current_term {
                let acks = self
                    .config
                    .iter()
                    .filter(|m| {
                        self.match_index.get(m).copied().unwrap_or(LogIndex::ZERO) >= k
                    })
                    .count();
                if acks >= quorum {
                    break;
                }
            }
            k = k.prev();
        }
        if k > self.commit_index {
            self.commit_through(k, Some(false), out);
        }
    }
}
