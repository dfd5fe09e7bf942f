//! Commit bookkeeping: advancing the commit index and applying committed entries.

use super::*;

impl FastRaftEngine {
    // ------------------------------------------------------------------
    // Commit bookkeeping
    // ------------------------------------------------------------------

    /// Leader-side commit: advance through `new_commit`, emitting effects.
    ///
    /// Inline (the default) this applies each index on the spot, exactly as
    /// before; under [`Timing::pipelined_apply`] only the track observations
    /// and the commit-side protocol bookkeeping happen here — apply effects
    /// wait for the embedding's drain stage
    /// ([`FastRaftEngine::drain_applies`]), so the leader keeps assembling
    /// the next AppendEntries while the committed range applies.
    pub(super) fn commit_through(
        &mut self,
        new_commit: LogIndex,
        fast: bool,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let old = self.commit_index;
        if new_commit <= old {
            return;
        }
        self.commit_index = new_commit;
        let inline = !self.timing.pipelined_apply;
        let mut k = old.next();
        while k <= new_commit {
            if fast {
                out.observe(Observation::FastTrackCommit { index: k });
            } else {
                out.observe(Observation::ClassicTrackCommit { index: k });
            }
            if inline {
                self.emit_commit_effects(k, out);
                self.applied_index = k;
            }
            k = k.next();
        }
        self.possible.release_through(new_commit);
        self.retarget_lost_proposals(out);
        if inline {
            self.maybe_compact(out);
        }
    }

    /// Follower-side commit: no track observation (the leader decided).
    pub(super) fn commit_through_follower(
        &mut self,
        new_commit: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let old = self.commit_index;
        if new_commit <= old {
            return;
        }
        self.commit_index = new_commit;
        let inline = !self.timing.pipelined_apply;
        if inline {
            let mut k = old.next();
            while k <= new_commit {
                self.emit_commit_effects(k, out);
                self.applied_index = k;
                k = k.next();
            }
        }
        self.possible.release_through(new_commit);
        self.retarget_lost_proposals(out);
        if inline {
            self.maybe_compact(out);
        }
    }

    /// Drains the pipelined-apply queue: applies every committed-but-
    /// unapplied index in commit order, with effects identical to the
    /// inline path — digest folds, session-table transitions, proposer and
    /// gateway notifications, commit records, compaction, and the release
    /// of reads whose floor the state machine just reached.
    pub fn drain_applies(&mut self, out: &mut Actions<FastRaftMessage>) {
        while self.applied_index < self.commit_index {
            let k = self.applied_index.next();
            self.emit_commit_effects(k, out);
            self.applied_index = k;
        }
        self.maybe_compact(out);
        self.release_applied_reads(out);
    }

    /// Number of committed-but-unapplied indices queued for pipelined
    /// apply; always zero at step boundaries in inline mode.
    pub fn pending_applies(&self) -> u64 {
        self.commit_index.as_u64() - self.applied_index.as_u64()
    }

    /// Answers queued linearizable reads whose admission floor the applied
    /// state now covers (pipelined apply only; a no-op inline, where reads
    /// are never queued).
    pub(super) fn release_applied_reads(&mut self, out: &mut Actions<FastRaftMessage>) {
        if self.reads_awaiting_apply.is_empty() {
            return;
        }
        let applied = self.applied_index;
        let ready: Vec<PendingReadAnswer> = {
            let (ready, waiting) = std::mem::take(&mut self.reads_awaiting_apply)
                .into_iter()
                .partition(|r| r.floor <= applied);
            self.reads_awaiting_apply = waiting;
            ready
        };
        for r in ready {
            self.respond_client(
                r.reply_to,
                r.session,
                r.seq,
                ClientOutcome::ReadOk {
                    scope: self.scope,
                    commit_floor: r.floor,
                },
                out,
            );
        }
    }

    /// Emits a linearizable read's answer — immediately when the applied
    /// state already covers the admission floor (always true inline),
    /// queued behind the apply pipeline otherwise, so the client can never
    /// observe state older than the floor its read was admitted at.
    pub(super) fn answer_read(
        &mut self,
        reply_to: NodeId,
        session: SessionId,
        seq: u64,
        floor: LogIndex,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if floor <= self.applied_index {
            self.respond_client(
                reply_to,
                session,
                seq,
                ClientOutcome::ReadOk {
                    scope: self.scope,
                    commit_floor: floor,
                },
                out,
            );
        } else {
            self.reads_awaiting_apply.push(PendingReadAnswer {
                reply_to,
                session,
                seq,
                floor,
            });
        }
    }

    fn emit_commit_effects(&mut self, k: LogIndex, out: &mut Actions<FastRaftMessage>) {
        let Some(entry) = self.log.get(k).cloned() else {
            debug_assert!(false, "committing a hole at {k}");
            return;
        };
        self.state_digest = fold_commit_digest(self.state_digest, k, entry.id);
        // Exactly-once apply for session-tagged payloads (client writes and
        // global batches): the dedup table is part of applied state, so
        // every replica makes the same first-application decision — a
        // retried seq that commits at a second index is a no-op everywhere.
        let is_register = matches!(entry.payload, Payload::Register { .. });
        let session_outcome = entry.payload.session_key().map(|(session, seq)| {
            // Apply-time expiry check — authoritative: the table covers
            // every commit below `k`, so an untracked session at seq > 1
            // *was* evicted. Without this, a duplicate placement of the
            // same seq still sitting in the log when the eviction ran
            // would re-apply here (its dedup history is gone). Identical
            // on every replica (same table at the same `k`), no digest
            // fold — replicas stay convergent. A registration is exempt:
            // it carries no value, so re-applying one past an eviction
            // merely re-opens an empty session — exactly the property that
            // lets registered sessions close the seq-1 boundary window.
            if !is_register
                && self.timing.session_ttl > 0
                && self.sessions.is_expired_retry(session, seq)
            {
                return (session, seq, ClientOutcome::SessionExpired);
            }
            match self.sessions.apply(session, seq, k) {
                SessionApply::Applied => {
                    self.state_digest = fold_session_digest(self.state_digest, session, seq);
                    out.observe(Observation::SessionApplied {
                        scope: self.scope,
                        session,
                        seq,
                        index: k,
                    });
                    let outcome = if is_register {
                        ClientOutcome::Registered { session, index: k }
                    } else {
                        ClientOutcome::Committed { index: k }
                    };
                    (session, seq, outcome)
                }
                SessionApply::Duplicate { first_index } => {
                    out.observe(Observation::SessionDuplicate {
                        scope: self.scope,
                        session,
                        seq,
                        first_index,
                    });
                    let outcome = if is_register {
                        ClientOutcome::Registered {
                            session,
                            index: first_index,
                        }
                    } else {
                        ClientOutcome::Duplicate { first_index }
                    };
                    (session, seq, outcome)
                }
            }
        });
        match &entry.payload {
            Payload::Config(cfg) => {
                out.observe(Observation::ConfigCommitted {
                    members: cfg.len(),
                });
                if self.pending_config == Some(k) {
                    self.pending_config = None;
                    if let Some(joiner) = self.pending_join_notify.take() {
                        self.learners.remove(&joiner);
                        out.send(
                            joiner,
                            FastRaftMessage::JoinReply {
                                accepted: true,
                                leader_hint: Some(self.id),
                            },
                        );
                        out.observe(Observation::JoinAccepted { node: joiner });
                    }
                    self.start_next_reconfig(out);
                }
                // A committed config naming us while we were joining
                // finalizes membership.
                if cfg.contains(self.id) && self.join_contacts.is_some() {
                    self.finish_joining(out);
                }
            }
            Payload::Write { .. } | Payload::Register { .. } => {
                let (session, seq, outcome) =
                    session_outcome.clone().expect("write has a session key");
                if entry.id.proposer == self.id {
                    self.pending_proposals.remove(&entry.id);
                }
                if self.client_pending.contains_key(&(session, seq)) {
                    // The gateway observes its own commit: answer here.
                    self.respond_client(self.id, session, seq, outcome, out);
                } else if self.role == Role::Leader && entry.id.proposer != self.id {
                    // Covers gateways lagging behind the commit (they
                    // ignore non-pending replies).
                    out.send(
                        entry.id.proposer,
                        FastRaftMessage::ClientReply {
                            session,
                            seq,
                            outcome,
                        },
                    );
                }
            }
            Payload::Batch(b) => {
                // Item-wise exactly-once apply: a value whose item landed in
                // two batches (successor re-batching, a batch retry racing
                // compaction + restart) takes effect only once; each item's
                // session rides the table, which travels in snapshots.
                let items: Vec<(SessionId, u64)> =
                    b.items.iter().filter_map(|item| item.key).collect();
                for (session, seq) in items {
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
                    match self.sessions.apply(session, seq, k) {
                        SessionApply::Applied => {
                            self.state_digest =
                                fold_session_digest(self.state_digest, session, seq);
                            out.observe(Observation::SessionApplied {
                                scope: self.scope,
                                session,
                                seq,
                                index: k,
                            });
                        }
                        SessionApply::Duplicate { first_index } => {
                            out.observe(Observation::SessionDuplicate {
                                scope: self.scope,
                                session,
                                seq,
                                first_index,
                            });
                        }
                    }
                }
                let proposer = entry.id.proposer;
                if proposer == self.id {
                    if self.pending_proposals.remove(&entry.id).is_some() {
                        out.observe(Observation::ProposalCommitted {
                            id: entry.id,
                            index: k,
                            scope: self.scope,
                        });
                    }
                } else if self.role == Role::Leader {
                    out.send(
                        proposer,
                        FastRaftMessage::ProposeReply {
                            id: entry.id,
                            committed: true,
                            leader_hint: Some(self.id),
                        },
                    );
                }
            }
            Payload::Data(_) => {
                let proposer = entry.id.proposer;
                if proposer == self.id {
                    if self.pending_proposals.remove(&entry.id).is_some() {
                        out.observe(Observation::ProposalCommitted {
                            id: entry.id,
                            index: k,
                            scope: self.scope,
                        });
                    }
                } else if self.role == Role::Leader {
                    out.send(
                        proposer,
                        FastRaftMessage::ProposeReply {
                            id: entry.id,
                            committed: true,
                            leader_hint: Some(self.id),
                        },
                    );
                }
            }
            Payload::Noop | Payload::GlobalState(_) => {
                // Internal entries; GlobalState commits are consumed by the
                // C-Raft layer through the Actions::commits channel.
                if entry.id.proposer == self.id {
                    self.pending_proposals.remove(&entry.id);
                }
            }
        }
        // Deterministic session expiry: idleness is measured in committed
        // log distance, and the sweep runs once per committed index — every
        // replica applies the identical eviction sequence regardless of how
        // its commits were batched, so the digest fold keeps snapshots
        // convergent.
        for session in self.sessions.evict_idle(k, self.timing.session_ttl) {
            self.state_digest = wire::fold_session_evicted(self.state_digest, session);
            out.observe(Observation::SessionEvicted {
                scope: self.scope,
                session,
                at: k,
            });
        }
        out.commit(self.scope, k, entry);
    }
}
