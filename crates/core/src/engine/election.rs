//! Elections (§IV-C): step-down, candidacy, votes, recovery on win.

use super::*;

impl FastRaftEngine {
    // ------------------------------------------------------------------
    // Elections (§IV-C)
    // ------------------------------------------------------------------

    pub(super) fn become_follower(
        &mut self,
        term: Term,
        leader: Option<NodeId>,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if term > self.core.current_term {
            self.verified = self.core.commit_index;
        }
        self.recovery_votes.clear();
        if self.core.become_follower(term, leader, out) {
            out.cancel_timer(self.timers.map(TimerKind::LeaderTick));
        }
        if self.join_contacts.is_none() {
            self.core.reset_election_timer(out);
        }
    }

    /// Accepts `leader` as the valid leader of `term` (at least ours).
    pub(super) fn follow_leader(
        &mut self,
        term: Term,
        leader: NodeId,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let leader_changed = self.core.leader_hint != Some(leader) || term > self.core.current_term;
        self.silent_elections = 0;
        if term > self.core.current_term || self.core.role != Role::Follower {
            self.become_follower(term, Some(leader), out);
        } else {
            self.core.leader_hint = Some(leader);
            self.core.reset_election_timer(out);
        }
        if leader_changed {
            // Entries verified against a previous leader may diverge above
            // the commit point; re-verify against the new leader.
            self.verified = self.core.commit_index;
        }
    }

    pub(super) fn start_election(&mut self, out: &mut Actions<FastRaftMessage>) {
        if !self.core.start_election(out) {
            return;
        }
        // Elections without an intervening leader contact suggest we may
        // have been silently evicted (our consensus messages are being
        // ignored); probe with a join request. A leader that still counts
        // us as a member answers `accepted` harmlessly, while one that
        // evicted us starts the §IV-D rejoin flow. The counter resets on
        // any authenticated leader contact.
        self.silent_elections += 1;
        if self.silent_elections >= 3 {
            let join = FastRaftMessage::JoinRequest { node: self.core.id };
            out.send_many(self.core.config.peers(self.core.id), join);
        }
        // Our own self-approved entries participate in recovery.
        self.recovery_votes.clear();
        self.recovery_votes
            .push((self.core.id, self.core.log.self_approved()));
        // Advertise the dense leader-approved prefix, not `lastLeaderIndex`:
        // coverage is what acked matchIndexes certified, so it is what the
        // up-to-dateness comparison must protect (see `leader_coverage` and
        // docs/DEVIATIONS.md).
        let coverage = self.leader_coverage();
        let msg = FastRaftMessage::RequestVote {
            term: self.core.current_term,
            candidate: self.core.id,
            last_leader_index: coverage,
            last_leader_term: self.core.log.term_at(coverage),
        };
        out.send_many(self.core.config.peers(self.core.id), msg);
        self.maybe_win(out);
    }

    /// §IV-C "When receiving a RequestVote message from a candidate".
    pub(super) fn on_request_vote(
        &mut self,
        from: NodeId,
        term: Term,
        candidate: NodeId,
        cand_last_leader_index: LogIndex,
        cand_last_leader_term: Term,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let Some(current) = self.core.screen_vote_request(term, candidate, out) else {
            return;
        };
        if term > self.core.current_term {
            self.become_follower(term, None, out);
        }
        // Up-to-dateness over leader-approved entries only (§IV-C), compared
        // on the dense prefix both sides actually hold: `lastLeaderIndex`
        // can sit beyond a still-unfilled hole when inserts complete out of
        // order, and granting on that inflated index would hand leadership
        // to a candidate missing a committed entry (see `leader_coverage`).
        let my_coverage = self.leader_coverage();
        let my_term = self.core.log.term_at(my_coverage);
        let up_to_date = (cand_last_leader_term, cand_last_leader_index) >= (my_term, my_coverage);
        let granted = current && self.core.grant_vote(candidate, up_to_date, out);
        let self_approved = if granted {
            self.core.log.self_approved()
        } else {
            Vec::new()
        };
        out.send(
            from,
            FastRaftMessage::RequestVoteReply {
                term: self.core.current_term,
                granted,
                self_approved,
            },
        );
    }

    pub(super) fn on_vote_reply(
        &mut self,
        from: NodeId,
        term: Term,
        granted: bool,
        self_approved: Vec<(LogIndex, LogEntry)>,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        match self.core.on_vote_reply(from, term, granted) {
            Reply::NewerTerm => self.become_follower(term, None, out),
            Reply::Counted => {
                self.recovery_votes.push((from, self_approved));
                self.maybe_win(out);
                if self.core.role == Role::Leader {
                    // Run recovery + first decision pass immediately.
                    self.run_decision_loop(gate, out);
                }
            }
            Reply::Dropped | Reply::Rejected => {}
        }
    }

    fn maybe_win(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.core.won_election() {
            self.become_leader(out);
        }
    }

    fn become_leader(&mut self, out: &mut Actions<FastRaftMessage>) {
        // Invariant (ROADMAP snapshot item b): a log grown through normal
        // protocol operation is never front-gapped — compaction only ever
        // consumes a contiguous occupied prefix. Only C-Raft's global-view
        // reconstruction (from partially compacted global-state entries)
        // can produce one; a leader election on such a view is legal (the
        // gap region is protected by §IV-B slot voting and commits never
        // cross it) but worth surfacing: the new leader serves the gap via
        // hole repair + quorum re-votes instead of its own entries.
        if let Some((horizon, first_retained)) = self.core.log.front_gap() {
            debug_assert_eq!(
                self.core.scope,
                LogScope::Global,
                "front-gapped log outside the C-Raft global reconstruction path"
            );
            out.observe(Observation::GlobalViewGap {
                horizon,
                first_retained,
            });
        }
        self.silent_elections = 0;
        // §IV-A: nextIndex initialized to last committed entry + 1.
        self.core.become_leader(self.core.commit_index.next(), out);
        self.fast_match.clear();
        self.missed_beats.clear();
        self.core.match_index.insert(self.core.id, self.last_leader_index);
        self.assign_cursor = self.last_leader_index;
        self.last_proactive_repair = self.core.commit_index;
        // Recovery (§IV-C): replay every voter's self-approved entries into
        // possibleEntries so chosen entries are re-chosen.
        let recovered: usize = self.recovery_votes.iter().map(|(_, v)| v.len()).sum();
        let votes = std::mem::take(&mut self.recovery_votes);
        for (voter, entries) in votes {
            for (idx, entry) in entries {
                if idx > self.core.commit_index {
                    self.possible.record_vote(idx, entry, voter);
                }
            }
        }
        out.observe(Observation::RecoveryCompleted { entries: recovered });
        self.core.start_heartbeats(self.last_leader_index, out);
        out.set_timer(
            self.timers.map(TimerKind::LeaderTick),
            self.core.timing.decision_tick,
        );
    }
}
