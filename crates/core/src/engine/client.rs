//! The typed client surface: sessions, exactly-once writes, reads.

use super::*;

impl FastRaftEngine {
    // ------------------------------------------------------------------
    // The typed client surface (sessions, exactly-once writes, reads)
    // ------------------------------------------------------------------

    /// Submits a typed client request at this node (the gateway). Writes
    /// ride the normal proposal machinery as `Payload::Write` and are
    /// answered when the gateway applies their commit; reads are answered
    /// from the commit floor (stale) or after a leader ReadIndex round
    /// (linearizable). All answers surface as
    /// [`Observation::ClientResponse`].
    pub fn on_client_request(
        &mut self,
        req: ClientRequest,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let ClientRequest { session, seq, op } = req;
        match op {
            // (The C-Raft layer intercepts StaleGlobal above this point and
            // answers from its global-commit floor instead.)
            ClientOp::Read(consistency) => {
                if self.core.client_read(session, seq, consistency, out) {
                    self.register_read(session, seq, self.core.id, gate, out);
                }
            }
            ClientOp::Register => {
                // Server-assigned id on request: derived from this gateway's
                // node id and proposal counter, so concurrent registrations
                // at different gateways cannot collide. A *retry* of an
                // unassigned registration may open a second (unused)
                // session; the TTL reclaims it.
                let session = if session.is_unassigned() {
                    SessionId::assigned(self.core.id, self.core.ids.next_seq())
                } else {
                    session
                };
                self.client_write(session, 1, op, gate, out)
            }
            ClientOp::Write(_) => self.client_write(session, seq, op, gate, out),
        }
    }

    /// Gateway door for a session write or an explicit session registration
    /// (`op`). A committed [`Payload::Register`] consumes seq 1 of the
    /// session, so a later eviction can never leave a re-appliable *data*
    /// write at the session's boundary (see [`ClientOp::Register`]). Unlike
    /// classic Raft's leader-only door, the registration entry travels the
    /// normal proposal path ([`FastRaftMessage::ProposeAt`] forwards whole
    /// entries), so any gateway can register.
    fn client_write(
        &mut self,
        session: SessionId,
        seq: u64,
        op: ClientOp,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        let register = matches!(op, ClientOp::Register);
        // Applied already? Answer without proposing (retry-safe).
        if let Some(first_index) = self.core.applied.sessions().duplicate_of(session, seq) {
            let outcome = replica::covered_outcome(register, session, first_index);
            self.respond_client(self.core.id, session, seq, outcome, out);
            return;
        }
        if let Some(id) = self.core.client_writes.get(&(session, seq)) {
            if self.pending_proposals.contains_key(id) {
                // Already in flight: the proposal-retry machinery keeps
                // pushing it; just make sure the timer is armed.
                out.set_timer(
                    self.timers.map(TimerKind::ProposalRetry),
                    self.core.timing.proposal_timeout,
                );
                return;
            }
        }
        // Stale write from an expired (evicted) session: terminal refusal
        // only when this gateway happens to be the leader with a provably
        // current applied table (see `applied_session_state_current`) — on
        // any other gateway the table may simply lag the commit sequence
        // and "expired" can be a false positive for a live session. Those
        // fall through: the op is placed and routed onward, and the leader
        // door or the authoritative apply-time check rules, relayed back
        // through the normal ClientReply path. Registrations have no such
        // door: re-registering an evicted session is harmless by
        // construction — the registration carries no value, so re-applying
        // it merely re-opens an empty dedup window.
        if !register
            && self.core.applied.is_expired_retry(session, seq)
            && self.core.applied_session_state_current()
        {
            self.respond_client(
                self.core.id,
                session,
                seq,
                ClientOutcome::SessionExpired,
                out,
            );
            return;
        }
        let payload = match &op {
            ClientOp::Write(data) => Payload::Write {
                session,
                seq,
                data: data.clone(),
            },
            _ => Payload::Register { session },
        };
        self.client_pending.insert((session, seq), op);
        let id = self.propose_payload(payload, gate, out);
        self.core.client_writes.insert((session, seq), id);
    }

    /// Answers a client request (see [`Replica::respond_client`]); a request
    /// answered at its own gateway leaves the gateway and proposer tables.
    pub(super) fn respond_client(
        &mut self,
        to: NodeId,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<FastRaftMessage>,
    ) {
        if let Some(id) = self.core.respond_client(to, session, seq, outcome, out) {
            self.pending_proposals.remove(&id);
        }
        if to == self.core.id {
            self.client_pending.remove(&(session, seq));
        }
    }

    /// Gateway handling of a typed outcome arriving from another node.
    pub(super) fn on_client_reply(
        &mut self,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<FastRaftMessage>,
    ) {
        // A redirected write stays pending: the proposal machinery keeps
        // retrying it (broadcast mode needs no hint at all).
        if self.core.absorbs_redirect(session, seq, &outcome) {
            return;
        }
        // The wire reply carries no op kind; the gateway knows it locally.
        // A remote door answering a registration's (session, 1) with a
        // commit/duplicate verdict is reporting the registration applied —
        // surface it as `Registered`.
        let outcome = match (&outcome, self.client_pending.get(&(session, seq))) {
            (ClientOutcome::Committed { index }, Some(ClientOp::Register)) => {
                ClientOutcome::Registered {
                    session,
                    index: *index,
                }
            }
            (ClientOutcome::Duplicate { first_index }, Some(ClientOp::Register)) => {
                ClientOutcome::Registered {
                    session,
                    index: *first_index,
                }
            }
            _ => outcome,
        };
        if self.client_pending.contains_key(&(session, seq))
            || self.core.reads.is_local(session, seq)
        {
            self.respond_client(self.core.id, session, seq, outcome, out);
        }
    }

    /// Leader side of a linearizable read: capture the commit floor, then
    /// confirm leadership with a heartbeat round before answering.
    pub(super) fn register_read(
        &mut self,
        session: SessionId,
        seq: u64,
        reply_to: NodeId,
        gate: &mut dyn InsertGate,
        out: &mut Actions<FastRaftMessage>,
    ) {
        debug_assert_eq!(self.core.role, Role::Leader);
        // A fresh leader's commit floor may lag entries committed by its
        // predecessor until an entry of its own term commits (Raft §8):
        // until then the floor must not be served. Exception: a provably
        // empty history serves the trivially correct floor 0 — otherwise an
        // empty system could never answer its first read. "Provably empty"
        // means neither this leader's log nor any granted vote's recovered
        // entries contain anything: a fast quorum that chose an entry
        // intersects every classic quorum in a voter that would have
        // shipped it, so emptiness here implies no write ever completed.
        let provably_empty = self.core.commit_index.is_zero()
            && self.last_leader_index.is_zero()
            && self.core.log.is_empty()
            && self.possible.max_index().is_zero();
        let floor_term = self.core.log.term_at(self.core.commit_index);
        if !provably_empty && floor_term != self.core.current_term {
            self.respond_client(reply_to, session, seq, ClientOutcome::Retry, out);
            // Liveness nudge: a *quiescent* new leader — everything
            // inherited already committed — never runs `maybe_term_noop`
            // (that path only fires while commits lag), so without client
            // writes no current-term entry would ever commit and reads
            // would retry forever. Create the no-op on demand, only when a
            // read actually needs it, so write-only runs keep their exact
            // index layout.
            if self.core.commit_index >= self.last_leader_index && self.leader_log_settled() {
                let k = self.last_leader_index.next();
                let noop = LogEntry::noop(self.core.current_term, self.core.ids.fresh_id(out));
                match gate.begin(k, &noop, GatePurpose::DecisionInsert) {
                    GateVerdict::Proceed => {
                        self.insert_leader_entry(k, noop, out);
                        self.advance_commit_classic(out);
                        self.core
                            .dispatch_append_entries(self.last_leader_index, out);
                    }
                    GateVerdict::Defer(token) => {
                        // Park as a Decision continuation: its gate_ready
                        // arm releases the `gated_decisions` reservation,
                        // so a gated (C-Raft global) nudge cannot wedge
                        // `leader_log_settled()`.
                        self.gated_decisions.insert(k);
                        self.pending_gates
                            .insert(token, GateCont::Decision { index: k, entry: noop });
                    }
                }
            }
            return;
        }
        if self.core.register_read(session, seq, reply_to, out) {
            // Confirm now rather than waiting out the heartbeat period.
            self.core
                .dispatch_append_entries(self.last_leader_index, out);
        }
    }
}
