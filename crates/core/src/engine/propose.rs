//! Proposing (§IV-B): proposer broadcasts, leader forwarding, retries, and the follower insert + vote path.

use super::*;

impl FastRaftNode {
    // ------------------------------------------------------------------
    // Proposing (§IV-B "To propose an entry")
    // ------------------------------------------------------------------

    /// Issues a proposal for `payload` from this site, broadcasting it to
    /// all configuration members. Returns the proposal id.
    pub fn propose_payload(
        &mut self,
        payload: Payload,
        out: &mut Actions<FastRaftMessage>,
    ) -> EntryId {
        let id = self.core.ids.fresh_id(out);
        self.propose(id, payload, out);
        id
    }

    /// Proposes `payload` under the freshly minted `id` and tracks it for
    /// retry.
    pub(super) fn propose(
        &mut self,
        id: EntryId,
        payload: Payload,
        out: &mut Actions<FastRaftMessage>,
    ) {
        match self.proposal_mode {
            ProposalMode::Broadcast => {
                let index = self.pick_proposal_index();
                self.pending_proposals.insert(
                    id,
                    PendingProposal {
                        payload: payload.clone(),
                        index,
                    },
                );
                self.broadcast_proposal(id, payload, index, out);
            }
            ProposalMode::LeaderForward => {
                self.pending_proposals.insert(
                    id,
                    PendingProposal {
                        payload: payload.clone(),
                        index: LogIndex::ZERO,
                    },
                );
                self.forward_proposal(id, payload, out);
            }
        }
        out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout);
    }

    /// Sends a leader-forwarded proposal (index ZERO = "leader assigns").
    fn forward_proposal(
        &mut self,
        id: EntryId,
        payload: Payload,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let entry = LogEntry {
            term: self.core.current_term,
            id,
            payload,
            approval: Approval::SelfApproved,
        };
        if self.core.role == Role::Leader {
            self.leader_accept_forwarded(entry, out);
        } else if let Some(leader) = self.core.leader_hint {
            out.send(
                leader,
                FastRaftMessage::ProposeAt {
                    index: LogIndex::ZERO,
                    entry,
                },
            );
        } else {
            out.send_many(
                self.core.config.peers(self.core.id),
                FastRaftMessage::ProposeAt {
                    index: LogIndex::ZERO,
                    entry,
                },
            );
        }
    }

    /// Leader side of a forwarded proposal: assign the next index and run
    /// the (possibly gated) classic-track insert.
    fn leader_accept_forwarded(&mut self, entry: LogEntry, out: &mut Actions<FastRaftMessage>) {
        // Session dedup at the door: a `(session, seq)` the applied state
        // already covers must not claim another slot — this is the check
        // that survives compaction and leader restarts (the table rides in
        // the snapshot, unlike the in-log id mappings below).
        if self.reject_session_duplicate(&entry, out) {
            return;
        }
        // Dedup: retries of ids already placed (or reserved) are ignored —
        // commit notification flows from emit_commit_effects — and answered
        // only once their slot committed them.
        if self.core.id_index.contains_key(&entry.id) {
            if let Some(index) = self.core.committed_index(&entry.id) {
                out.send(
                    entry.id.proposer,
                    FastRaftMessage::ProposeReply {
                        id: entry.id,
                        committed: true,
                        index,
                        leader_hint: Some(self.core.id),
                    },
                );
            }
            return;
        }
        // Expired-session refusal — strictly *after* the in-flight dedup
        // above (a pair already replicating must never be told "placed
        // nowhere"), and only once this leader's applied table provably
        // covers every commit: a fresh leader's table merely lags until an
        // entry of its own term commits, so "expired" can be a false
        // positive for a live session whose writes are committed but not
        // yet applied here. Refusing terminally then would have the client
        // reopen a session and resubmit while the surviving placement
        // applies — a double apply. A not-yet-current leader instead falls
        // through and *places* the op: the placement is itself the
        // own-term entry that makes the leader current (answering Retry
        // here would livelock on a quiescent leader — nothing else ever
        // commits an own-term entry, see `register_read`'s nudge), and the
        // authoritative apply-time check below answers exactly once it
        // commits. Once current, the refusal is exact and terminal (any
        // same-pair placement still in the log under another proposal id
        // is skipped by the same apply-time check).
        if self.core.applied_session_state_current() {
            if let Some((session, seq)) = entry.payload.session_key() {
                if self.core.applied.is_expired_retry(session, seq) {
                    self.respond_client(
                        entry.id.proposer,
                        session,
                        seq,
                        ClientOutcome::SessionExpired,
                        out,
                    );
                    return;
                }
            }
        }
        if !self.leader_log_settled() && self.assign_cursor <= self.last_leader_index {
            // A fresh leader with an undecided backlog must not hand out
            // slots yet; the proposer retries after its timeout.
            return;
        }
        self.assign_cursor = self.assign_cursor.max(self.last_leader_index).next();
        let k = self.assign_cursor;
        let chosen = entry
            .with_term(self.core.current_term)
            .with_approval(Approval::LeaderApproved);
        let id = chosen.id;
        if !self.leader_insert(k, chosen, false, out) {
            // Mark the id as assigned so duplicate retries don't claim
            // another slot while the gate replicates; a dropped
            // reservation takes the mark with it (`land_leader`).
            self.core.id_index.insert(id, k);
        }
    }

    /// If `entry` carries a session-tagged payload whose `(session, seq)`
    /// this site's applied state already covers, notifies the proposer
    /// appropriately and returns `true` (the entry must not be (re)placed).
    fn reject_session_duplicate(
        &mut self,
        entry: &LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) -> bool {
        let Some((session, seq)) = entry.payload.session_key() else {
            return false;
        };
        if let Some(first_index) = self.core.applied.sessions().duplicate_of(session, seq) {
            self.respond_client(
                entry.id.proposer,
                session,
                seq,
                ClientOutcome::Duplicate { first_index },
                out,
            );
            return true;
        }
        // Deliberately NO expired-session refusal here: this runs on the
        // any-replica broadcast insert path (`on_propose_at`), where one
        // *lagging* replica's table must not veto an op the rest of the
        // quorum is placing. Expiry is enforced where it is exact — the
        // single-door checks (`client_write`, `leader_accept_forwarded`),
        // gated on `applied_session_state_current`, and authoritatively at
        // apply time (`Applied::apply_client_write`).
        false
    }

    /// Registers an externally recovered proposal for retry tracking
    /// without re-broadcasting it now. Used by C-Raft when a new local
    /// leader inherits batches its predecessor proposed globally but whose
    /// commitment is unknown (§V-B): the proposal-retry timer re-broadcasts
    /// them under the original id, so duplicates are suppressed.
    pub fn track_pending_proposal(
        &mut self,
        id: EntryId,
        payload: Payload,
        index: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        self.pending_proposals
            .insert(id, PendingProposal { payload, index });
        out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout);
    }

    fn pick_proposal_index(&self) -> LogIndex {
        // Past everything this site has seen proposed or stored.
        self.core
            .log
            .last_index()
            .max(self.core.commit_index)
            .next()
    }

    /// Sends proposal `id` to every peer as `ProposeAt { index }` and returns
    /// the self-approved entry, for the proposer's own insert + vote.
    fn send_propose_at(
        &mut self,
        id: EntryId,
        payload: Payload,
        index: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) -> LogEntry {
        let entry = LogEntry {
            term: self.core.current_term,
            id,
            payload,
            approval: Approval::SelfApproved,
        };
        out.send_many(
            self.core.config.peers(self.core.id),
            FastRaftMessage::ProposeAt {
                index,
                entry: entry.clone(),
            },
        );
        entry
    }

    pub(super) fn broadcast_proposal(
        &mut self,
        id: EntryId,
        payload: Payload,
        index: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let entry = self.send_propose_at(id, payload, index, out);
        // The proposer is itself a site: run the follower insert+vote path
        // locally.
        self.on_propose_at(self.core.id, index, entry, out);
    }

    /// Re-broadcasts pending proposal `id` at `index` and re-votes locally
    /// (occupied slots vote without insert).
    fn rebroadcast_proposal(
        &mut self,
        id: EntryId,
        payload: Payload,
        index: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if let Some(p) = self.pending_proposals.get_mut(&id) {
            p.index = index;
        }
        let entry = self.send_propose_at(id, payload, index, out);
        if self.core.log.get(index).is_none() {
            // Rare on a retry: our slot was truncated. Reinsert through the
            // normal path.
            self.on_propose_at(self.core.id, index, entry, out);
        } else {
            self.send_vote_for_slot(index, out);
        }
    }

    /// Event-driven re-targeting: when the log commits past a pending
    /// proposal's target index with a *different* entry, the proposal lost
    /// that slot — re-broadcast it at a fresh index immediately rather than
    /// waiting for the proposal timeout. Keeps throughput stable under
    /// concurrent proposers (§IV-F's contention scenario). The leader's
    /// loss notice (`notify_losers`) usually comes first; this catches a
    /// notice that was lost and a loser no vote at the slot named.
    pub(super) fn retarget_lost_proposals(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.pending_proposals.is_empty() {
            return;
        }
        let mut lost = std::mem::take(&mut self.proposal_scratch);
        lost.extend(
            self.pending_proposals
                .iter()
                .filter(|(id, p)| {
                    !p.index.is_zero()
                        && p.index <= self.core.commit_index
                        && self.core.log.get(p.index).is_none_or(|e| e.id != **id)
                })
                .map(|(id, p)| (*id, p.payload.clone(), p.index)),
        );
        for (id, payload, _) in lost.drain(..) {
            let index = self.pick_proposal_index();
            self.rebroadcast_proposal(id, payload, index, out);
        }
        self.proposal_scratch = lost;
    }

    /// The leader decided `chosen` at `k`: tells the proposer of every other
    /// candidate voted at `k` that its proposal lost `k`. A remote proposer
    /// gets a `ProposeReply { committed: false, index: k }`; the leader's
    /// own losers re-propose here. Runs before `k` can commit, which
    /// releases its votes. Re-proposing votes only at a fresh index, so the
    /// candidates at `k` stay as they are while the loop walks them.
    pub(super) fn notify_losers(
        &mut self,
        k: LogIndex,
        chosen: EntryId,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let mut at = 0;
        while let Some(id) = self.possible.nth_candidate(k, at) {
            at += 1;
            if id == chosen {
                continue;
            }
            if id.proposer == self.core.id {
                self.on_lost_index(id, k, out);
            } else {
                let notice = FastRaftMessage::ProposeReply {
                    id,
                    committed: false,
                    index: k,
                    leader_hint: Some(self.core.id),
                };
                out.send(id.proposer, notice);
            }
        }
    }

    /// The leader decided another entry at `index`: if proposal `id` still
    /// targets it, re-broadcast it at a fresh index now. A notice for a
    /// proposal that has moved on or committed, or a redirect (index ZERO),
    /// changes nothing. Placing one id a second time is what
    /// `retry_proposals` does too: null votes and session dedup at apply
    /// absorb it.
    pub(super) fn on_lost_index(
        &mut self,
        id: EntryId,
        index: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let Some(p) = self.pending_proposals.get(&id) else {
            return;
        };
        if index.is_zero() || p.index != index {
            return;
        }
        let payload = p.payload.clone();
        let fresh = self.pick_proposal_index().max(index.next());
        self.rebroadcast_proposal(id, payload, fresh, out);
    }

    pub(super) fn retry_proposals(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.pending_proposals.is_empty() {
            return;
        }
        let mut pendings = std::mem::take(&mut self.proposal_scratch);
        pendings.extend(
            self.pending_proposals
                .iter()
                .map(|(id, p)| (*id, p.payload.clone(), p.index)),
        );
        for (id, payload, old_index) in pendings.drain(..) {
            if self.proposal_mode == ProposalMode::LeaderForward {
                self.forward_proposal(id, payload, out);
                continue;
            }
            // If our entry still occupies its slot, re-gather votes for the
            // same index; if it was overwritten, re-target a fresh index.
            let keep = self.core.log.get(old_index).is_some_and(|e| e.id == id);
            let index = if keep {
                old_index
            } else {
                self.pick_proposal_index()
            };
            self.rebroadcast_proposal(id, payload, index, out);
        }
        self.proposal_scratch = pendings;
        out.set_timer(TimerKind::ProposalRetry, self.core.timing.proposal_timeout);
    }

    // ------------------------------------------------------------------
    // Fast track: proposer broadcasts and votes
    // ------------------------------------------------------------------

    /// §IV-B "When follower receives a proposed entry e for index i".
    pub(super) fn on_propose_at(
        &mut self,
        _from: NodeId,
        index: LogIndex,
        entry: LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // Index ZERO marks a leader-forwarded proposal: the leader assigns
        // the slot; non-leaders redirect.
        if index.is_zero() {
            if self.core.role == Role::Leader {
                self.leader_accept_forwarded(entry, out);
            } else {
                out.send(
                    entry.id.proposer,
                    FastRaftMessage::ProposeReply {
                        id: entry.id,
                        committed: false,
                        index: LogIndex::ZERO,
                        leader_hint: self.core.leader_hint,
                    },
                );
            }
            return;
        }
        // Session dedup: a `(session, seq)` this site already applied is
        // answered instead of re-inserted — unlike the id mapping below,
        // the session table survives compaction and restarts.
        if self.reject_session_duplicate(&entry, out) {
            return;
        }
        // Duplicate already committed? Notify the proposer (§IV-B step 1).
        if let Some(index) = self.core.committed_index(&entry.id) {
            out.send(
                entry.id.proposer,
                FastRaftMessage::ProposeReply {
                    id: entry.id,
                    committed: true,
                    index,
                    leader_hint: self.core.leader_hint,
                },
            );
            return;
        }
        if index <= self.core.log.compacted_through() {
            // The slot was decided and compacted away; nothing to insert or
            // vote for. A losing proposal re-targets from its retry path.
            return;
        }
        if index.as_u64() > self.core.insert_bound() {
            out.observe(Observation::MessageIgnored {
                reason: "proposed index beyond the insert window",
            });
            return;
        }
        if self.core.log.get(index).is_none() {
            let entry = entry.with_approval(Approval::SelfApproved);
            match self.gate.defer(index, &entry) {
                None => self.finish_proposer_insert(index, entry, out),
                Some(token) => {
                    let cont = GateCont::Proposer { index, entry };
                    self.pending_gates.insert(token, cont);
                }
            }
        } else {
            // Slot occupied: do not overwrite (§IV-B step 2); vote for the
            // occupant.
            self.send_vote_for_slot(index, out);
        }
    }

    pub(super) fn finish_proposer_insert(
        &mut self,
        index: LogIndex,
        entry: LogEntry,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if index <= self.core.log.compacted_through() {
            // The slot was decided and compacted while the insert was gated.
            return;
        }
        if self.core.log.get(index).is_some() {
            // Raced with an AppendEntries insert while gated; vote for the
            // now-present occupant instead.
            self.send_vote_for_slot(index, out);
            return;
        }
        self.core.insert_entry(index, entry, out);
        self.send_vote_for_slot(index, out);
    }

    /// §IV-B step 4: "Send log\[i\] and commitIndex to leaderId".
    fn send_vote_for_slot(&mut self, index: LogIndex, out: &mut Actions<FastRaftMessage>) {
        let Some(entry) = self.core.log.get(index).cloned() else {
            return;
        };
        if self.core.role == Role::Leader {
            // The leader is treated as a follower here (§IV-B): its own
            // vote goes straight into possibleEntries.
            self.record_vote(self.core.id, index, entry, self.core.commit_index, out);
        } else if let Some(leader) = self.core.leader_hint {
            out.send(
                leader,
                FastRaftMessage::Vote {
                    index,
                    entry,
                    commit_index: self.core.commit_index,
                },
            );
        }
        // No known leader: the vote is re-sent when the proposer retries or
        // when a leader emerges and re-solicits via recovery.
    }

    /// §IV-B "When leader receives an entry e for index k from site i".
    pub(super) fn on_vote(
        &mut self,
        from: NodeId,
        index: LogIndex,
        entry: LogEntry,
        voter_commit: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if self.core.role != Role::Leader {
            return;
        }
        self.record_vote(from, index, entry, voter_commit, out);
    }

    fn record_vote(
        &mut self,
        from: NodeId,
        index: LogIndex,
        entry: LogEntry,
        voter_commit: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // §IV-B step 2: nextIndex[i] tracks the voter's commit index so the
        // classic track keeps it consistent with the leader.
        if self.core.config.contains(from) || self.core.learners.contains(&from) {
            self.core.next_index.insert(from, voter_commit.next());
        }
        if index <= self.core.commit_index {
            // Slot already decided. If this vote names the committed entry,
            // tell its proposer; otherwise the proposal lost this slot and
            // its proposer will retry elsewhere.
            if self.core.log.get(index).is_some_and(|e| e.id == entry.id) {
                out.send(
                    entry.id.proposer,
                    FastRaftMessage::ProposeReply {
                        id: entry.id,
                        committed: true,
                        index,
                        leader_hint: Some(self.core.id),
                    },
                );
            }
            return;
        }
        // A vote for an entry that is already committed at a *different*
        // index (this one is above the commit index) is a null vote
        // (duplicate suppression).
        if self.core.committed_index(&entry.id).is_some() {
            self.possible.record_null_vote(index, from);
            return;
        }
        self.possible.record_vote(index, entry, from);
    }
}
