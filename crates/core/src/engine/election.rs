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
        let was_leader = self.role == Role::Leader;
        self.reads.fail_pending_reads(out);
        if term > self.current_term {
            self.current_term = term;
            self.voted_for = None;
            self.persist_term_vote(out);
            self.verified = self.commit_index;
        }
        self.role = Role::Follower;
        if leader.is_some() {
            self.leader_hint = leader;
        }
        self.election_votes.clear();
        self.recovery_votes.clear();
        if was_leader {
            out.cancel_timer(self.timers.map(TimerKind::Heartbeat));
            out.cancel_timer(self.timers.map(TimerKind::LeaderTick));
        }
        if self.join_contacts.is_none() {
            self.reset_election_timer(out);
        }
        out.observe(Observation::BecameFollower {
            term: self.current_term,
        });
    }

    fn persist_term_vote(&self, out: &mut Actions<FastRaftMessage>) {
        replica::persist_term_vote(self.scope, self.current_term, self.voted_for, out);
    }

    pub(super) fn start_election(&mut self, out: &mut Actions<FastRaftMessage>) {
        if !self.config.contains(self.id) {
            out.observe(Observation::MessageIgnored {
                reason: "election by non-member suppressed",
            });
            self.reset_election_timer(out);
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
            let peers: Vec<NodeId> = self.config.peers(self.id).collect();
            out.send_many(peers, FastRaftMessage::JoinRequest { node: self.id });
        }
        self.role = Role::Candidate;
        self.current_term = self.current_term.next();
        self.voted_for = Some(self.id);
        self.persist_term_vote(out);
        self.election_votes.clear();
        self.election_votes.insert(self.id);
        self.recovery_votes.clear();
        // Our own self-approved entries participate in recovery.
        self.recovery_votes
            .push((self.id, self.log.self_approved()));
        out.observe(Observation::ElectionStarted {
            term: self.current_term,
        });
        // Advertise the dense leader-approved prefix, not `lastLeaderIndex`:
        // coverage is what acked matchIndexes certified, so it is what the
        // up-to-dateness comparison must protect (see `leader_coverage`).
        let coverage = self.leader_coverage();
        let msg = FastRaftMessage::RequestVote {
            term: self.current_term,
            candidate: self.id,
            last_leader_index: coverage,
            last_leader_term: self.log.term_at(coverage),
        };
        let peers: Vec<NodeId> = self.config.peers(self.id).collect();
        out.send_many(peers, msg);
        self.reset_election_timer(out);
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
        if !self.config.contains(candidate) {
            out.observe(Observation::MessageIgnored {
                reason: "vote request from non-member",
            });
            return;
        }
        if self
            .reads
            .refuses_vote(candidate, self.role == Role::Leader, &self.config, out)
        {
            return;
        }
        if term < self.current_term {
            out.send(
                from,
                FastRaftMessage::RequestVoteReply {
                    term: self.current_term,
                    granted: false,
                    self_approved: Vec::new(),
                },
            );
            return;
        }
        if term > self.current_term {
            self.become_follower(term, None, out);
        }
        // Up-to-dateness over leader-approved entries only (§IV-C), compared
        // on the dense prefix both sides actually hold: `lastLeaderIndex`
        // can sit beyond a still-unfilled hole when inserts complete out of
        // order, and granting on that inflated index would hand leadership
        // to a candidate missing a committed entry (see `leader_coverage`).
        let my_coverage = self.leader_coverage();
        let my_term = self.log.term_at(my_coverage);
        let up_to_date =
            (cand_last_leader_term, cand_last_leader_index) >= (my_term, my_coverage);
        let can_vote = self.voted_for.is_none() || self.voted_for == Some(candidate);
        let granted = up_to_date && can_vote;
        let self_approved = if granted {
            self.voted_for = Some(candidate);
            self.persist_term_vote(out);
            self.reset_election_timer(out);
            self.log.self_approved()
        } else {
            Vec::new()
        };
        out.send(
            from,
            FastRaftMessage::RequestVoteReply {
                term: self.current_term,
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
        if term > self.current_term {
            self.become_follower(term, None, out);
            return;
        }
        if self.role != Role::Candidate || term < self.current_term || !granted {
            return;
        }
        self.election_votes.insert(from);
        self.recovery_votes.push((from, self_approved));
        self.maybe_win(out);
        if self.role == Role::Leader {
            // Run recovery + first decision pass immediately.
            self.run_decision_loop(gate, out);
        }
    }

    fn maybe_win(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.role != Role::Candidate {
            return;
        }
        let quorum = self.config.classic_quorum();
        let valid = self
            .election_votes
            .iter()
            .filter(|v| self.config.contains(**v))
            .count();
        if valid >= quorum {
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
        if let Some((horizon, first_retained)) = self.log.front_gap() {
            debug_assert_eq!(
                self.scope,
                LogScope::Global,
                "front-gapped log outside the C-Raft global reconstruction path"
            );
            out.observe(Observation::GlobalViewGap {
                horizon,
                first_retained,
            });
        }
        self.role = Role::Leader;
        self.silent_elections = 0;
        self.leader_hint = Some(self.id);
        out.observe(Observation::BecameLeader {
            term: self.current_term,
        });
        self.reads.arm_lease();
        // §IV-A: nextIndex initialized to last committed entry + 1.
        let start = self.commit_index.next();
        self.next_index.clear();
        self.match_index.clear();
        self.fast_match.clear();
        self.missed_beats.clear();
        for peer in self.config.iter() {
            self.next_index.insert(peer, start);
            self.match_index.insert(peer, LogIndex::ZERO);
        }
        self.match_index.insert(self.id, self.last_leader_index);
        self.assign_cursor = self.last_leader_index;
        self.last_proactive_repair = self.commit_index;
        // Recovery (§IV-C): replay every voter's self-approved entries into
        // possibleEntries so chosen entries are re-chosen.
        let recovered: usize = self.recovery_votes.iter().map(|(_, v)| v.len()).sum();
        let votes = std::mem::take(&mut self.recovery_votes);
        for (voter, entries) in votes {
            for (idx, entry) in entries {
                if idx > self.commit_index {
                    self.possible.record_vote(idx, entry, voter);
                }
            }
        }
        out.observe(Observation::RecoveryCompleted { entries: recovered });
        out.cancel_timer(self.timers.map(TimerKind::Election));
        self.dispatch_append_entries(out);
        out.set_timer(self.timers.map(TimerKind::Heartbeat), self.timing.heartbeat);
        out.set_timer(
            self.timers.map(TimerKind::LeaderTick),
            self.timing.decision_tick,
        );
    }

    pub(super) fn reset_election_timer(&mut self, out: &mut Actions<FastRaftMessage>) {
        let kind = self.timers.map(TimerKind::Election);
        replica::reset_election_timer(&self.timing, &mut self.rng, kind, out);
    }
}
