//! Commit bookkeeping: advancing the commit index and applying committed entries.

use super::*;

impl FastRaftEngine {
    // ------------------------------------------------------------------
    // Commit bookkeeping
    // ------------------------------------------------------------------

    /// Advances the commit index through `new_commit`, emitting effects.
    /// `fast` names the track that decided on the leader; followers pass
    /// `None` — the leader decided, so there is no track observation.
    /// Each index applies on the spot.
    pub(super) fn commit_through(
        &mut self,
        new_commit: LogIndex,
        fast: Option<bool>,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let old = self.core.commit_index;
        if new_commit <= old {
            return;
        }
        self.core.commit_index = new_commit;
        let mut k = old.next();
        while k <= new_commit {
            match fast {
                Some(true) => out.observe(Observation::FastTrackCommit { index: k }),
                Some(false) => out.observe(Observation::ClassicTrackCommit { index: k }),
                None => {}
            }
            self.emit_commit_effects(k, out);
            k = k.next();
        }
        self.possible.release_through(new_commit);
        self.retarget_lost_proposals(out);
        self.core.maybe_compact(out);
    }

    /// Applies committed index `k`: digest, session table, proposer and
    /// gateway notifications, membership effects, expiry, commit record.
    fn emit_commit_effects(&mut self, k: LogIndex, out: &mut Actions<FastRaftMessage>) {
        let Some(entry) = self.core.log.get(k).cloned() else {
            debug_assert!(false, "committing a hole at {k}");
            self.core.applied.mark_applied(k);
            return;
        };
        self.core.applied.fold_commit(k, entry.id);
        match &entry.payload {
            Payload::Config(cfg) => {
                out.observe(Observation::ConfigCommitted {
                    members: cfg.len(),
                });
                if self.pending_config == Some(k) {
                    self.pending_config = None;
                    if let Some(joiner) = self.pending_join_notify.take() {
                        self.core.learners.remove(&joiner);
                        out.send(
                            joiner,
                            FastRaftMessage::JoinReply {
                                accepted: true,
                                leader_hint: Some(self.core.id),
                            },
                        );
                        out.observe(Observation::JoinAccepted { node: joiner });
                    }
                    self.start_next_reconfig(out);
                }
                // A committed config naming us while we were joining
                // finalizes membership.
                if cfg.contains(self.core.id) && self.join_contacts.is_some() {
                    self.finish_joining(out);
                }
            }
            Payload::Write { .. } | Payload::Register { .. } => {
                let (session, seq) = entry
                    .payload
                    .session_key()
                    .expect("write has a session key");
                let register = matches!(entry.payload, Payload::Register { .. });
                let outcome = self
                    .core
                    .applied
                    .apply_client_write(session, seq, register, k, out);
                if entry.id.proposer == self.core.id {
                    self.pending_proposals.remove(&entry.id);
                }
                if self.client_pending.contains_key(&(session, seq)) {
                    // The gateway observes its own commit: answer here.
                    self.respond_client(self.core.id, session, seq, outcome, out);
                } else if self.core.role == Role::Leader && entry.id.proposer != self.core.id {
                    // Covers gateways lagging behind the commit (they
                    // ignore non-pending replies).
                    self.respond_client(entry.id.proposer, session, seq, outcome, out);
                }
            }
            Payload::Batch(b) => {
                // Item-wise exactly-once apply: a value whose item landed in
                // two batches (successor re-batching, a batch retry racing
                // compaction + restart) takes effect only once; each item's
                // session rides the table, which travels in snapshots.
                for (session, seq) in b.items.iter().filter_map(|item| item.key) {
                    // Deliberately NO apply-time expiry skip here, unlike
                    // the Write arm: "untracked session at seq > 1" does
                    // not imply "duplicate of an evicted session" for
                    // batch items. They pass no session-vetting door, and
                    // the global commit index aggregates every cluster's
                    // traffic, so a steadily-writing session at one quiet
                    // colo can see more than `session_ttl` of *global* log
                    // distance between its own consecutive items — its
                    // next, genuinely fresh item would be silently dropped
                    // (already acked locally, absent globally). Applying
                    // re-creates the slot instead; the narrow cost is that
                    // a duplicate item placement outliving a global
                    // eviction re-applies, which only loses dedup, never
                    // data.
                    self.core.applied.apply_session_item(session, seq, k, out);
                }
                self.notify_proposer(k, entry.id, out);
            }
            Payload::Noop | Payload::GlobalState(_) => {
                // Internal entries; GlobalState commits are consumed by the
                // C-Raft layer through the Actions::commits channel.
                if entry.id.proposer == self.core.id {
                    self.pending_proposals.remove(&entry.id);
                }
            }
        }
        self.core.applied.evict_idle_sessions(k, out);
        self.core.applied.mark_applied(k);
        out.commit(self.core.scope, k, entry);
    }

    /// Tells the proposer of a committed global batch: an observation here,
    /// a `ProposeReply` from the leader.
    fn notify_proposer(&mut self, k: LogIndex, id: EntryId, out: &mut Actions<FastRaftMessage>) {
        if id.proposer == self.core.id {
            if self.pending_proposals.remove(&id).is_some() {
                out.observe(Observation::ProposalCommitted {
                    id,
                    index: k,
                    scope: self.core.scope,
                });
            }
        } else if self.core.role == Role::Leader {
            out.send(
                id.proposer,
                FastRaftMessage::ProposeReply {
                    id,
                    committed: true,
                    leader_hint: Some(self.core.id),
                },
            );
        }
    }
}
