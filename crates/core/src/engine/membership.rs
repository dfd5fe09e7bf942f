//! Membership (§IV-D): joins, leaves, silent-leave detection, reconfiguration.

use super::*;

impl FastRaftNode {
    /// Announces departure (§IV-D): ask the leader to reconfigure us out.
    pub fn request_leave(&mut self, out: &mut Actions<FastRaftMessage>) {
        let msg = FastRaftMessage::LeaveRequest { node: self.core.id };
        if let Some(leader) = self.core.leader_hint {
            out.send(leader, msg);
        } else {
            out.send_many(self.core.config.peers(self.core.id), msg);
        }
    }

    pub(super) fn send_join_request(&mut self, out: &mut Actions<FastRaftMessage>) {
        let Some(contacts) = &self.join_contacts else {
            return;
        };
        let msg = FastRaftMessage::JoinRequest { node: self.core.id };
        // Ask the hinted leader, but keep probing every contact too: the
        // hint may name a crashed leader (exactly the churn that made us
        // rejoin), and a stale hint must not wedge the join forever — a
        // current member redirects us to the live leader.
        let mut targets: Vec<NodeId> = contacts.clone();
        if let Some(leader) = self.core.leader_hint {
            if !targets.contains(&leader) {
                targets.push(leader);
            }
        }
        out.send_many(targets, msg);
        out.set_timer(TimerKind::JoinRetry, self.core.timing.join_timeout);
    }

    pub(super) fn note_missed_beats(&mut self, out: &mut Actions<FastRaftMessage>) {
        let mut suspects = Vec::new();
        for peer in self.core.config.peers(self.core.id) {
            let missed = self.missed_beats.entry(peer).or_insert(0);
            *missed += 1;
            if *missed >= self.core.timing.member_timeout_beats {
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

    /// Reacts to a newly obeyed configuration (a config entry inserted, or
    /// a snapshot's adopted): `was_member` is whether the one it replaced
    /// listed this site.
    pub(super) fn membership_changed(
        &mut self,
        was_member: bool,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let is_member = self.core.config.contains(self.core.id);
        if is_member && !was_member && self.join_contacts.is_some() {
            // We are in the configuration now; membership finalizes when the
            // entry commits or a JoinReply arrives, but we can already vote.
            self.finish_joining(out);
        }
        if !is_member && was_member {
            if self.core.role == Role::Leader {
                // A leader that removed itself steps down once the entry is
                // inserted; remaining members elect a successor.
                self.become_follower(self.core.current_term, None, out);
            }
            // Evicted (e.g. suspected of a silent leave while partitioned
            // or crashed): stop campaigning and rejoin explicitly (§IV-D).
            self.core.role = Role::Follower;
            self.join_contacts = Some(self.core.config.to_vec());
            out.cancel_timer(TimerKind::Election);
            self.send_join_request(out);
        }
    }

    pub(super) fn finish_joining(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.join_contacts.take().is_some() {
            out.cancel_timer(TimerKind::JoinRetry);
            self.core.reset_election_timer(out);
        }
    }

    pub(super) fn on_join_request(
        &mut self,
        from: NodeId,
        node: NodeId,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let _ = from;
        if self.core.role != Role::Leader {
            // §IV-D: redirect to the leader.
            out.send(
                node,
                FastRaftMessage::JoinReply {
                    accepted: false,
                    leader_hint: self.core.leader_hint,
                },
            );
            return;
        }
        if self.core.config.contains(node) {
            out.send(
                node,
                FastRaftMessage::JoinReply {
                    accepted: true,
                    leader_hint: Some(self.core.id),
                },
            );
            return;
        }
        if self.core.learners.contains(&node) {
            return; // Duplicate request in progress (§IV-D).
        }
        // Catch the site up as a non-voting member: replicate from the
        // beginning of the log.
        self.core.learners.insert(node);
        self.core.next_index.insert(node, LogIndex::FIRST);
        self.core.match_index.insert(node, LogIndex::ZERO);
    }

    /// Once a learner catches up to the commit point, propose the
    /// configuration including it (one change at a time).
    pub(super) fn maybe_finish_join(&mut self, node: NodeId, out: &mut Actions<FastRaftMessage>) {
        if !self.core.learners.contains(&node) {
            return;
        }
        let caught_up = self
            .core
            .match_index
            .get(&node)
            .copied()
            .unwrap_or(LogIndex::ZERO)
            >= self.core.commit_index;
        if caught_up {
            self.enqueue_reconfig(ReconfigOp::Add(node), out);
        }
    }

    pub(super) fn on_leave_request(&mut self, node: NodeId, out: &mut Actions<FastRaftMessage>) {
        if self.core.role != Role::Leader {
            if let Some(leader) = self.core.leader_hint {
                out.send(leader, FastRaftMessage::LeaveRequest { node });
            }
            return;
        }
        if node == self.core.id {
            // Leader leaves: not supported in-place; callers should demote
            // first. Ignored defensively.
            out.observe(Observation::MessageIgnored {
                reason: "leader self-leave ignored",
            });
            return;
        }
        if self.core.config.contains(node) {
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
        // One change at a time: the configuration obeyed, ours or an
        // inherited one, must be committed first. Ours, while its gated
        // insert is reserved, leaves the log unsettled below.
        if self.core.role != Role::Leader || self.core.config_index > self.core.commit_index {
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
                    if self.core.config.contains(n) {
                        continue;
                    }
                    (self.core.config.with_member(n), Some(n))
                }
                ReconfigOp::Remove(n) => {
                    if !self.core.config.contains(n) || n == self.core.id {
                        continue;
                    }
                    (self.core.config.without_member(n), None)
                }
            };
            let k = self.last_leader_index.next();
            let id = self.core.ids.fresh_id(out);
            let entry = LogEntry::config(self.core.current_term, id, new_config);
            self.pending_config = Some(k);
            self.leader_insert(k, entry, false, out);
            self.pending_join_notify = notify;
            break;
        }
    }
}
