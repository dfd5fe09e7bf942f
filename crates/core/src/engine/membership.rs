//! Membership (§IV-D): joins, leaves, silent-leave detection, reconfiguration.

use super::*;

impl FastRaftEngine {
    /// Announces departure (§IV-D): ask the leader to reconfigure us out.
    pub fn request_leave(&mut self, out: &mut Actions<FastRaftMessage>) {
        let msg = FastRaftMessage::LeaveRequest { node: self.id };
        if let Some(leader) = self.leader_hint {
            out.send(leader, msg);
        } else {
            out.send_many(self.config.peers(self.id), msg);
        }
    }

    pub(super) fn send_join_request(&mut self, out: &mut Actions<FastRaftMessage>) {
        let Some(contacts) = &self.join_contacts else {
            return;
        };
        let msg = FastRaftMessage::JoinRequest { node: self.id };
        // Ask the hinted leader, but keep probing every contact too: the
        // hint may name a crashed leader (exactly the churn that made us
        // rejoin), and a stale hint must not wedge the join forever — a
        // current member redirects us to the live leader.
        let mut targets: Vec<NodeId> = contacts.clone();
        if let Some(leader) = self.leader_hint {
            if !targets.contains(&leader) {
                targets.push(leader);
            }
        }
        out.send_many(targets, msg);
        out.set_timer(
            self.timers.map(TimerKind::JoinRetry),
            self.timing.join_timeout,
        );
    }

    pub(super) fn note_missed_beats(&mut self, out: &mut Actions<FastRaftMessage>) {
        let mut suspects = Vec::new();
        for peer in self.config.peers(self.id) {
            let missed = self.missed_beats.entry(peer).or_insert(0);
            *missed += 1;
            if *missed >= self.timing.member_timeout_beats {
                *missed = 0;
                suspects.push(peer);
            }
        }
        for peer in suspects {
            out.observe(Observation::MemberSuspected { node: peer });
            self.enqueue_reconfig(ReconfigOp::Remove(peer), out);
        }
    }

    // ------------------------------------------------------------------
    // Membership (§IV-D)
    // ------------------------------------------------------------------

    pub(super) fn adopt_config(
        &mut self,
        cfg: Configuration,
        index: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let was_member = self.config.contains(self.id);
        self.config = cfg;
        self.config_index = index;
        let is_member = self.config.contains(self.id);
        if is_member && !was_member && self.join_contacts.is_some() {
            // We are in the configuration now; membership finalizes when the
            // entry commits or a JoinReply arrives, but we can already vote.
            self.finish_joining(out);
        }
        if !is_member && was_member {
            if self.role == Role::Leader {
                // A leader that removed itself steps down once the entry is
                // inserted; remaining members elect a successor.
                self.become_follower(self.current_term, None, out);
            }
            // Evicted (e.g. suspected of a silent leave while partitioned
            // or crashed): stop campaigning and rejoin explicitly (§IV-D).
            self.role = Role::Follower;
            self.join_contacts = Some(self.config.to_vec());
            out.cancel_timer(self.timers.map(TimerKind::Election));
            self.send_join_request(out);
        }
    }

    pub(super) fn finish_joining(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.join_contacts.take().is_some() {
            out.cancel_timer(self.timers.map(TimerKind::JoinRetry));
            self.reset_election_timer(out);
        }
    }

    pub(super) fn on_join_request(
        &mut self,
        from: NodeId,
        node: NodeId,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let _ = from;
        if self.role != Role::Leader {
            // §IV-D: redirect to the leader.
            out.send(
                node,
                FastRaftMessage::JoinReply {
                    accepted: false,
                    leader_hint: self.leader_hint,
                },
            );
            return;
        }
        if self.config.contains(node) {
            out.send(
                node,
                FastRaftMessage::JoinReply {
                    accepted: true,
                    leader_hint: Some(self.id),
                },
            );
            return;
        }
        if self.learners.contains(&node) {
            return; // Duplicate request in progress (§IV-D).
        }
        // Catch the site up as a non-voting member: replicate from the
        // beginning of the log.
        self.learners.insert(node);
        self.next_index.insert(node, LogIndex::FIRST);
        self.match_index.insert(node, LogIndex::ZERO);
    }

    /// Once a learner catches up to the commit point, propose the
    /// configuration including it (one change at a time).
    pub(super) fn maybe_finish_join(&mut self, node: NodeId, out: &mut Actions<FastRaftMessage>) {
        if !self.learners.contains(&node) {
            return;
        }
        let caught_up = self
            .match_index
            .get(&node)
            .copied()
            .unwrap_or(LogIndex::ZERO)
            >= self.commit_index;
        if caught_up {
            self.enqueue_reconfig(ReconfigOp::Add(node), out);
        }
    }

    pub(super) fn on_leave_request(&mut self, node: NodeId, out: &mut Actions<FastRaftMessage>) {
        if self.role != Role::Leader {
            if let Some(leader) = self.leader_hint {
                out.send(leader, FastRaftMessage::LeaveRequest { node });
            }
            return;
        }
        if node == self.id {
            // Leader leaves: not supported in-place; callers should demote
            // first. Ignored defensively.
            out.observe(Observation::MessageIgnored {
                reason: "leader self-leave ignored",
            });
            return;
        }
        if self.config.contains(node) {
            self.enqueue_reconfig(ReconfigOp::Remove(node), out);
        }
    }

    fn enqueue_reconfig(&mut self, op: ReconfigOp, out: &mut Actions<FastRaftMessage>) {
        if !self.reconfig_queue.contains(&op) {
            self.reconfig_queue.push_back(op);
        }
        self.start_next_reconfig(out);
    }

    pub(super) fn start_next_reconfig(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.pending_config.is_some() || self.role != Role::Leader {
            return;
        }
        if !self.leader_log_settled() {
            // A configuration entry goes at lastLeaderIndex + 1; with
            // undecided indices below, that could overwrite a chosen entry.
            // The queue drains from the leader tick once the log settles.
            return;
        }
        while let Some(op) = self.reconfig_queue.pop_front() {
            let (new_config, notify) = match op {
                ReconfigOp::Add(n) => {
                    if self.config.contains(n) {
                        continue;
                    }
                    (self.config.with_member(n), Some(n))
                }
                ReconfigOp::Remove(n) => {
                    if !self.config.contains(n) || n == self.id {
                        continue;
                    }
                    (self.config.without_member(n), None)
                }
            };
            let k = self.last_leader_index.next();
            let entry = LogEntry::config(self.current_term, self.ids.fresh_id(out), new_config);
            self.insert_leader_entry(k, entry, out);
            self.pending_config = Some(k);
            self.pending_join_notify = notify;
            break;
        }
    }
}
