//! Plain (single-level) Fast Raft: the engine with immediate inserts.
//!
//! This is the protocol evaluated in the paper's Fig. 3 and Fig. 4: one
//! consensus group, fast-track commits in two message rounds, classic-track
//! fallback, self-announced membership, and silent-leave detection.

use des::SimRng;
use raft::{Role, Timing};
use storage::StableState;
use wire::{
    Actions, ClientRequest, Configuration, ConsensusProtocol, LogIndex, LogScope, NodeId,
    SessionTable, Term, TimerKind,
};

use crate::engine::{FastRaftEngine, TimerProfile};
use crate::message::FastRaftMessage;

/// A Fast Raft site (§IV).
///
/// # Examples
///
/// ```
/// use consensus_core::FastRaftNode;
/// use des::SimRng;
/// use raft::{Role, Timing};
/// use raft::testkit::Lockstep;
/// use wire::{Configuration, NodeId, TimerKind};
///
/// let cfg: Configuration = (0..5).map(NodeId).collect();
/// let nodes = (0..5).map(|i| {
///     FastRaftNode::new(NodeId(i), cfg.clone(), Timing::lan(), SimRng::seed_from_u64(i))
/// });
/// let mut net = Lockstep::new(nodes);
/// net.fire(NodeId(0), TimerKind::Election);
/// net.deliver_all();
/// assert_eq!(net.node(NodeId(0)).role(), Role::Leader);
/// ```
#[derive(Debug)]
pub struct FastRaftNode {
    engine: FastRaftEngine,
}

impl FastRaftNode {
    /// Creates a member node with a bootstrap configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bootstrap` is empty or omits `id`, or on invalid timing.
    pub fn new(id: NodeId, bootstrap: Configuration, timing: Timing, rng: SimRng) -> Self {
        FastRaftNode {
            engine: FastRaftEngine::new(
                id,
                bootstrap,
                LogScope::Global,
                TimerProfile::Base,
                timing,
                rng,
            ),
        }
    }

    /// Creates a node that joins an existing system through `contacts`
    /// (§IV-D): it catches up as a non-voting member, then enters the
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `contacts` is empty or on invalid timing.
    pub fn joining(id: NodeId, contacts: Vec<NodeId>, timing: Timing, rng: SimRng) -> Self {
        FastRaftNode {
            engine: FastRaftEngine::joining(
                id,
                contacts,
                LogScope::Global,
                TimerProfile::Base,
                timing,
                rng,
            ),
        }
    }

    /// Rebuilds a node from stable storage after a crash: snapshot (if any)
    /// plus the retained log suffix.
    pub fn recover(
        id: NodeId,
        stable: &StableState,
        bootstrap: Configuration,
        timing: Timing,
        rng: SimRng,
    ) -> Self {
        FastRaftNode {
            engine: FastRaftEngine::recover(
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
            ),
        }
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.engine.role()
    }

    /// Current term.
    pub fn current_term(&self) -> Term {
        self.engine.current_term()
    }

    /// Highest committed index.
    pub fn commit_index(&self) -> LogIndex {
        self.engine.commit_index()
    }

    /// The replicated log.
    pub fn log(&self) -> &wire::SparseLog {
        self.engine.log()
    }

    /// The latest snapshot covering the compacted prefix, if any.
    pub fn snapshot(&self) -> Option<&wire::Snapshot> {
        self.engine.snapshot()
    }

    /// Running digest of the committed sequence (the simulated state
    /// machine's state).
    pub fn state_digest(&self) -> u64 {
        self.engine.state_digest()
    }

    /// The configuration currently obeyed.
    pub fn config(&self) -> &Configuration {
        self.engine.config()
    }

    /// The believed leader.
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.engine.leader_hint()
    }

    /// Highest leader-approved index.
    pub fn last_leader_index(&self) -> LogIndex {
        self.engine.last_leader_index()
    }

    /// Proposals issued here and not yet known committed.
    pub fn pending_proposals(&self) -> usize {
        self.engine.pending_proposals()
    }

    /// The per-session exactly-once dedup table (applied state).
    pub fn sessions(&self) -> &SessionTable {
        self.engine.sessions()
    }

    /// Where each proposal id placed above the compaction horizon sits in
    /// the log.
    pub fn id_index(&self) -> &wire::IdMap<wire::EntryId, LogIndex> {
        self.engine.id_index()
    }

    /// `true` while still negotiating membership.
    pub fn is_joining(&self) -> bool {
        self.engine.is_joining()
    }

    /// Announces departure from the system (§IV-D).
    pub fn request_leave(&mut self, out: &mut Actions<FastRaftMessage>) {
        self.engine.request_leave(out);
    }
}

impl ConsensusProtocol for FastRaftNode {
    type Message = FastRaftMessage;

    fn id(&self) -> NodeId {
        self.engine.id()
    }

    fn set_local_clock(&mut self, now: des::SimTime) {
        self.engine.set_local_clock(now);
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: FastRaftMessage,
        out: &mut Actions<FastRaftMessage>,
    ) {
        self.engine.on_message(from, msg, out);
    }

    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<FastRaftMessage>) {
        if let Some(base) = TimerProfile::Base.unmap(kind) {
            self.engine.on_timer(base, out);
        }
    }

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<FastRaftMessage>) {
        self.engine.on_client_request(req, out);
    }

    fn bootstrap(&mut self, out: &mut Actions<FastRaftMessage>) {
        self.engine.bootstrap(out);
    }
}
