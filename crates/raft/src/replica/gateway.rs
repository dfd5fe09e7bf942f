//! The client gateway: the writes in flight at this site, and the steps
//! that admit and answer them — one door and one table for both engines.

use des::IdMap;
use wire::{Actions, ClientOp, ClientOutcome, EntryId, LogEntry, LogIndex, NodeId, SessionId};

use super::{covered_outcome, ClientReplyMessage, Replica};
use crate::Role;

/// The writes and registrations submitted at this site and not yet
/// answered, by the `(session, seq)` the client names them with: each
/// record is the proposal id it travels under and the op itself. The door
/// admits a record before its proposal leaves, so a proposal that commits
/// inside its own proposing step is answered and cleared like any other.
#[derive(Debug, Default)]
pub struct Gateway {
    writes: IdMap<(SessionId, u64), (EntryId, ClientOp)>,
}

/// What the gateway door made of a client write or registration.
#[derive(Debug, PartialEq, Eq)]
pub enum Door {
    /// Answer at once: the applied session table covers it, or it is an
    /// expired session's retry this site can refuse exactly.
    Answer(ClientOutcome),
    /// Already in flight here under this proposal id.
    InFlight(EntryId),
    /// New here: admitted under this freshly minted id, for the engine to
    /// propose.
    Admitted(EntryId),
}

impl Gateway {
    /// Number of writes in flight here.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// `true` when no write is in flight here.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// The proposal id `(session, seq)` is in flight under here, if any.
    pub fn in_flight(&self, session: SessionId, seq: u64) -> Option<EntryId> {
        self.writes.get(&(session, seq)).map(|&(id, _)| id)
    }

    /// The writes in flight, in proposal-id order (never the hash table's:
    /// a retry pass walks them onto the wire).
    pub(crate) fn by_id(&self) -> Vec<(EntryId, SessionId, u64, ClientOp)> {
        let writes = self.writes.iter();
        let mut writes: Vec<_> = writes
            .map(|(&(session, seq), (id, op))| (*id, session, seq, op.clone()))
            .collect();
        writes.sort_unstable_by_key(|w| w.0);
        writes
    }
}

impl Replica {
    /// The `(session, seq)` a client write or registration is keyed by
    /// here: a registration takes seq 1 of the session the client chose.
    pub fn write_key(&self, session: SessionId, seq: u64, op: &ClientOp) -> (SessionId, u64) {
        match op {
            ClientOp::Register => (session, 1),
            _ => (session, seq),
        }
    }

    /// The gateway door for a client write or registration `op` keyed
    /// `(session, seq)`: answered from applied state when the session table
    /// covers it (retry-safe), in flight when a record holds it, otherwise
    /// [`Replica::expiry_door`].
    pub fn client_door<M>(
        &mut self,
        session: SessionId,
        seq: u64,
        op: &ClientOp,
        out: &mut Actions<M>,
    ) -> Door {
        if let Some(first_index) = self.applied.sessions().duplicate_of(session, seq) {
            let register = matches!(op, ClientOp::Register);
            return Door::Answer(covered_outcome(register, session, first_index));
        }
        match self.gateway.in_flight(session, seq) {
            Some(id) => Door::InFlight(id),
            None => self.expiry_door(session, seq, op, out),
        }
    }

    /// The door's last test, then admission. A stale write from an expired
    /// session is refused terminally only when this gateway is the leader
    /// with a provably current applied table
    /// ([`Replica::applied_session_state_current`]); any other gateway's
    /// table may simply lag the commit sequence, and "expired" can be a
    /// false positive for a live session. Those are admitted: the leader's
    /// door or the authoritative apply-time check rules, relayed back as a
    /// `ClientReply`. Registrations have no such door: re-registering an
    /// evicted session merely re-opens an empty dedup window. Admission
    /// mints a proposal id and records `(session, seq)` under it, replacing
    /// any record it had.
    pub fn expiry_door<M>(
        &mut self,
        session: SessionId,
        seq: u64,
        op: &ClientOp,
        out: &mut Actions<M>,
    ) -> Door {
        if !matches!(op, ClientOp::Register)
            && self.applied.is_expired_retry(session, seq)
            && self.applied_session_state_current()
        {
            return Door::Answer(ClientOutcome::SessionExpired);
        }
        let id = self.ids.fresh_id(out);
        self.gateway.writes.insert((session, seq), (id, op.clone()));
        Door::Admitted(id)
    }

    /// Answers a client request: as an observation when the gateway `to`
    /// is this node, as a `ClientReply` message otherwise. A local answer
    /// ends the request here; when it was a write, its proposal id is
    /// returned so the engine can drop it from its own proposer table.
    pub fn respond_client<M: ClientReplyMessage>(
        &mut self,
        to: NodeId,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<M>,
    ) -> Option<EntryId> {
        let mut answered = None;
        if to == self.id {
            self.reads.forget_local(session, seq);
            answered = self.gateway.writes.remove(&(session, seq));
        }
        super::reply(self.id, to, session, seq, outcome, out);
        answered.map(|(id, _)| id)
    }

    /// The commit-time answer for the client write or registration `entry`
    /// committed at `index` (any other entry is left alone): applies it to
    /// the session table, then answers the client here when its record is
    /// here, or — as leader — the remote proposer ("the leader then
    /// notifies the proposer"; this covers gateways that lag behind the
    /// commit, which ignore replies they hold no record for). Returns the
    /// proposal id of a record answered here.
    pub fn apply_client_entry<M: ClientReplyMessage>(
        &mut self,
        index: LogIndex,
        entry: &LogEntry,
        out: &mut Actions<M>,
    ) -> Option<EntryId> {
        let (session, seq) = entry.payload.session_key()?;
        let register = matches!(entry.payload, wire::Payload::Register { .. });
        let outcome = self
            .applied
            .apply_client_write(session, seq, register, index, out);
        if self.gateway.writes.contains_key(&(session, seq)) {
            return self.respond_client(self.id, session, seq, outcome, out);
        }
        if self.role == Role::Leader && entry.id.proposer != self.id {
            self.respond_client(entry.id.proposer, session, seq, outcome, out);
        }
        None
    }

    /// Gateway side of an outcome relayed from another node. A redirect's
    /// leader hint is adopted; a redirected write stays in flight — the
    /// engine's retry timer resubmits it against the updated hint, since
    /// re-routing at once would ping-pong at network RTT against a deposed
    /// leader that still hints itself. The wire reply carries no op kind,
    /// so a `Committed` or `Duplicate` for a registration held here is
    /// surfaced as `Registered`. The answer surfaces only when a record or
    /// a local read awaits it; the proposal id of an answered record is
    /// returned.
    pub fn on_client_reply<M: ClientReplyMessage>(
        &mut self,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<M>,
    ) -> Option<EntryId> {
        let held = self.gateway.writes.get(&(session, seq));
        // `Some(is a registration)` while a record awaits the answer.
        let register = held.map(|(_, op)| matches!(op, ClientOp::Register));
        let outcome = match (outcome, register) {
            (ClientOutcome::Redirect { leader_hint }, _) => {
                self.leader_hint = leader_hint.or(self.leader_hint);
                if register.is_some() {
                    return None;
                }
                ClientOutcome::Redirect { leader_hint }
            }
            (ClientOutcome::Committed { index }, Some(true))
            | (ClientOutcome::Duplicate { first_index: index }, Some(true)) => {
                ClientOutcome::Registered { session, index }
            }
            (outcome, _) => outcome,
        };
        if register.is_none() && !self.reads.is_local(session, seq) {
            return None;
        }
        self.respond_client(self.id, session, seq, outcome, out)
    }

    /// The gateway sweep after a snapshot install: the writes in flight
    /// here that the adopted session table covers (the install can jump the
    /// commit floor across their application) are answered, sorted by
    /// `(session, seq)` — answering in the hash table's order would let the
    /// hasher reach the embedding's event order. Returns their proposal ids.
    pub fn answer_covered_writes<M: ClientReplyMessage>(
        &mut self,
        out: &mut Actions<M>,
    ) -> Vec<EntryId> {
        let sessions = self.applied.sessions();
        let mut covered: Vec<_> = (self.gateway.writes.iter())
            .filter_map(|(&(session, seq), (_, op))| {
                let first_index = sessions.duplicate_of(session, seq)?;
                let register = matches!(op, ClientOp::Register);
                Some((session, seq, register, first_index))
            })
            .collect();
        covered.sort_unstable_by_key(|&(session, seq, ..)| (session, seq));
        let covered = covered.into_iter();
        covered
            .filter_map(|(session, seq, register, first_index)| {
                let outcome = covered_outcome(register, session, first_index);
                self.respond_client(self.id, session, seq, outcome, out)
            })
            .collect()
    }
}
