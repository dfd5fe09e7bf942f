//! Fast Raft with every log insert behind an explorer-controlled gate.
//!
//! [`GatedFastRaftNode`] runs a [`FastRaftNode`] exactly the way C-Raft's
//! global level does — leader-forwarded proposals, every insert deferred
//! behind the node's gate ([`FastRaftNode::gated`]) — but hands the
//! *release* of each deferred insert to the explorer instead of to
//! intra-cluster consensus.
//! In C-Raft the gate resolves when a cluster locally commits a global state
//! entry; here it resolves when the schedule says so. That models the
//! intra-cluster replication delay as a fully adversarial scheduler, which
//! is precisely the setting where the gate-path liveness and double-assign
//! bugs live.

use consensus_core::{FastRaftMessage, FastRaftNode, GateToken, ProposalMode};
use wire::{Actions, ClientRequest, ConsensusProtocol, NodeId, TimerKind};

use std::collections::BTreeSet;

use crate::world::Explorable;

/// A Fast Raft site whose inserts all park until the explorer releases
/// them ([`Explorable::release_gate`]).
#[derive(Debug)]
pub struct GatedFastRaftNode {
    node: FastRaftNode,
    /// Armed gate tokens (tokens are monotonically allocated, so token
    /// order is arming order).
    armed: BTreeSet<u64>,
}

impl GatedFastRaftNode {
    /// Gates every insert of `node` and forwards its proposals to the
    /// leader, like C-Raft's global level. Built from a recovered node, the
    /// tokens armed before the crash died with the volatile state, exactly
    /// as a C-Raft leader's waiting map does.
    pub fn new(node: FastRaftNode) -> Self {
        let mut node = node.gated();
        node.set_proposal_mode(ProposalMode::LeaderForward);
        GatedFastRaftNode {
            node,
            armed: BTreeSet::new(),
        }
    }

    /// Moves freshly recorded deferrals into the armed set. Must run after
    /// every handler call (a release can itself defer further inserts).
    fn sync_armed(&mut self) {
        for req in self.node.drain_gate_requests() {
            self.armed.insert(req.token.0);
        }
    }
}

impl Explorable for GatedFastRaftNode {
    fn armed_gate_tokens(&self) -> Vec<u64> {
        self.armed.iter().copied().collect()
    }

    /// Unknown or already-released tokens are ignored (a continuation may
    /// have been dropped by a role change since arming).
    fn release_gate(&mut self, token: u64, out: &mut Actions<FastRaftMessage>) {
        if self.armed.remove(&token) {
            self.node.gate_ready(GateToken(token), out);
            self.sync_armed();
        }
    }

    fn gate_debt(&self) -> (usize, usize) {
        (
            self.node.pending_gate_count(),
            self.node.gated_decision_count(),
        )
    }
}

impl ConsensusProtocol for GatedFastRaftNode {
    type Message = FastRaftMessage;

    fn id(&self) -> NodeId {
        self.node.id()
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: FastRaftMessage,
        out: &mut Actions<FastRaftMessage>,
    ) {
        self.node.on_message(from, msg, out);
        self.sync_armed();
    }

    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<FastRaftMessage>) {
        self.node.on_timer(kind, out);
        self.sync_armed();
    }

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<FastRaftMessage>) {
        self.node.on_client_request(req, out);
        self.sync_armed();
    }

    fn bootstrap(&mut self, out: &mut Actions<FastRaftMessage>) {
        self.node.bootstrap(out);
        self.sync_armed();
    }
}
