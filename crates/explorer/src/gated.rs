//! Fast Raft with every log insert behind an explorer-controlled gate.
//!
//! [`GatedFastRaftNode`] runs the shared [`FastRaftEngine`] exactly the way
//! C-Raft's global level does — leader-forwarded proposals, every insert
//! deferred through a [`GateRecorder`] — but hands the *release* of each
//! deferred insert to the explorer instead of to intra-cluster consensus.
//! In C-Raft the gate resolves when a cluster locally commits a global state
//! entry; here it resolves when the schedule says so. That models the
//! intra-cluster replication delay as a fully adversarial scheduler, which
//! is precisely the setting where the gate-path liveness and double-assign
//! bugs live.

use consensus_core::{
    FastRaftEngine, FastRaftMessage, GateRecorder, GateToken, ProposalMode, TimerProfile,
};
use des::SimRng;
use raft::{Role, Timing};
use storage::StableState;
use wire::{
    Actions, ClientRequest, Configuration, ConsensusProtocol, LogScope, NodeId, TimerKind,
};

use std::collections::BTreeMap;

/// A Fast Raft site whose inserts all park until [`release_gate`] is called.
///
/// [`release_gate`]: GatedFastRaftNode::release_gate
#[derive(Debug)]
pub struct GatedFastRaftNode {
    engine: FastRaftEngine,
    gate: GateRecorder,
    /// Armed gate tokens, in token order (tokens are monotonically
    /// allocated, so token order is arming order).
    armed: BTreeMap<u64, ()>,
}

impl GatedFastRaftNode {
    /// Creates a member node; proposals use leader forwarding, like
    /// C-Raft's global level.
    pub fn new(id: NodeId, bootstrap: Configuration, timing: Timing, rng: SimRng) -> Self {
        let mut engine = FastRaftEngine::new(
            id,
            bootstrap,
            LogScope::Global,
            TimerProfile::Base,
            timing,
            rng,
        );
        engine.set_proposal_mode(ProposalMode::LeaderForward);
        GatedFastRaftNode {
            engine,
            gate: GateRecorder::new(),
            armed: BTreeMap::new(),
        }
    }

    /// Rebuilds a node from stable storage after a crash. Tokens armed
    /// before the crash die with the volatile state, exactly as a C-Raft
    /// leader's waiting map does.
    pub fn recover(
        id: NodeId,
        stable: &StableState,
        bootstrap: Configuration,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        let mut engine = FastRaftEngine::recover(
            id,
            stable.global.current_term,
            stable.global.voted_for,
            stable.global.log.clone(),
            stable.global.snapshot.clone(),
            bootstrap,
            LogScope::Global,
            TimerProfile::Base,
            timing,
            rng,
            stable.global.proposal_seq_floor,
        );
        engine.set_proposal_mode(ProposalMode::LeaderForward);
        GatedFastRaftNode {
            engine,
            gate: GateRecorder::new(),
            armed: BTreeMap::new(),
        }
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.engine.role()
    }

    /// Highest committed index.
    pub fn commit_index(&self) -> wire::LogIndex {
        self.engine.commit_index()
    }

    /// Direct engine access for assertions in tests.
    pub fn engine(&self) -> &FastRaftEngine {
        &self.engine
    }

    /// Tokens currently armed and awaiting release, oldest first.
    pub fn armed_tokens(&self) -> Vec<u64> {
        self.armed.keys().copied().collect()
    }

    /// Releases one armed gate: the parked insert resumes. Unknown or
    /// already-released tokens are ignored (a continuation may have been
    /// dropped by a role change since arming).
    pub fn release_gate(&mut self, token: u64, out: &mut Actions<FastRaftMessage>) {
        if self.armed.remove(&token).is_none() {
            return;
        }
        self.engine.gate_ready(GateToken(token), &mut self.gate, out);
        self.sync_armed();
    }

    /// `(pending gate continuations, outstanding decision reservations)` —
    /// both must be zero at quiescence.
    pub fn gate_debt(&self) -> (usize, usize) {
        (
            self.engine.pending_gate_count(),
            self.engine.gated_decision_count(),
        )
    }

    /// Moves freshly recorded deferrals into the armed set. Must run after
    /// every handler call (a release can itself defer further inserts).
    fn sync_armed(&mut self) {
        for req in self.gate.drain() {
            self.armed.insert(req.token.0, ());
        }
    }
}

impl ConsensusProtocol for GatedFastRaftNode {
    type Message = FastRaftMessage;

    fn id(&self) -> NodeId {
        self.engine.id()
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: FastRaftMessage,
        out: &mut Actions<FastRaftMessage>,
    ) {
        self.engine.on_message(from, msg, &mut self.gate, out);
        self.sync_armed();
    }

    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<FastRaftMessage>) {
        if let Some(base) = TimerProfile::Base.unmap(kind) {
            self.engine.on_timer(base, &mut self.gate, out);
            self.sync_armed();
        }
    }

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<FastRaftMessage>) {
        self.engine.on_client_request(req, &mut self.gate, out);
        self.sync_armed();
    }

    fn bootstrap(&mut self, out: &mut Actions<FastRaftMessage>) {
        self.engine.bootstrap(out);
        self.sync_armed();
    }
}
