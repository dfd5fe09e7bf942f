//! A deterministic lockstep driver for protocol state machines.
//!
//! Unit and integration tests (for classic Raft, Fast Raft, and C-Raft)
//! drive nodes **synchronously**: messages queue in FIFO order and are
//! delivered on demand; timers never fire on their own — tests fire them by
//! `(node, kind)` explicitly. This makes protocol scenarios (elections, log
//! conflicts, recovery) fully scripted and reproducible without a clock.
//!
//! The full time-driven simulation lives in the `harness` crate; this module
//! is intentionally minimal.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use storage::SimDisk;
use wire::{
    Actions, ClientRequest, Commit, ConsensusProtocol, Consistency, Driver, NodeId, Observation,
    SafetyChecker, SessionId, TimerCmd, TimerKind,
};

/// A lockstep network of protocol nodes.
pub struct Lockstep<P: ConsensusProtocol> {
    /// The nodes (clockless; crashed ones stay for inspection but receive
    /// nothing), each with its armed timers, and the safety checker every
    /// commit passes through.
    driver: Driver<NodeId, P, BTreeSet<TimerKind>>,
    queue: VecDeque<(NodeId, NodeId, P::Message)>,
    commits: BTreeMap<NodeId, Vec<Commit>>,
    observations: Vec<(NodeId, Observation)>,
    disk: SimDisk,
    /// Last write seq and last read ordinal per node-derived session
    /// (survive node restarts, like a real client outliving a gateway
    /// crash).
    client_seq: BTreeMap<NodeId, u64>,
    client_reads: BTreeMap<NodeId, u64>,
    /// Optional link filter: messages failing the predicate are dropped.
    link_ok: Box<dyn Fn(NodeId, NodeId) -> bool>,
}

impl<P: ConsensusProtocol> Lockstep<P> {
    /// Creates a lockstep network over the given nodes and bootstraps each.
    pub fn new(nodes: impl IntoIterator<Item = P>) -> Self {
        let mut net = Lockstep {
            driver: Driver::new(SafetyChecker::new()),
            queue: VecDeque::new(),
            commits: BTreeMap::new(),
            observations: Vec::new(),
            disk: SimDisk::new(),
            client_seq: BTreeMap::new(),
            client_reads: BTreeMap::new(),
            link_ok: Box::new(|_, _| true),
        };
        for node in nodes {
            net.driver.insert(node.id(), node, BTreeSet::new());
        }
        for id in net.ids() {
            net.with_node(id, |node, out| node.bootstrap(out));
        }
        net
    }

    /// Replaces the link filter; return `false` to drop `from → to` traffic.
    pub fn set_link_filter(&mut self, f: impl Fn(NodeId, NodeId) -> bool + 'static) {
        self.link_ok = Box::new(f);
    }

    /// Declares which local-consensus domain (cluster) each node belongs
    /// to; Local-scope commits are checked only within a domain.
    /// Hierarchical deployments (C-Raft) need this.
    ///
    /// # Panics
    ///
    /// Panics if a commit was already checked: set it right after `new`.
    pub fn set_safety_domains(&mut self, f: impl Fn(NodeId) -> u64 + Send + 'static) {
        let seen = self.driver.safety.commits_seen();
        assert_eq!(seen, 0, "safety domains set after {seen} commits");
        self.driver.safety = SafetyChecker::with_domains(f);
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn node(&self, id: NodeId) -> &P {
        &self.driver.slots.get(&id).expect("unknown node").node
    }

    /// Mutable access to a node (for assertions needing `&mut`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.driver.slots.get_mut(&id).expect("unknown node").node
    }

    /// All node ids, ascending.
    pub fn ids(&self) -> Vec<NodeId> {
        self.driver.slots.keys().copied().collect()
    }

    /// The stable-storage farm backing this network.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Runs `f` against a node (unless it is crashed), then routes the
    /// produced actions.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Actions<P::Message>)) {
        assert!(self.driver.slots.contains_key(&id), "unknown node");
        let Some(mut out) = self.driver.step(id, None, f) else {
            return;
        };
        // Write-ahead: persistence first.
        self.disk.apply(id, out.persists.iter());
        for (to, msg) in out.sends.drain(..) {
            self.queue.push_back((id, to, msg));
        }
        let armed = &mut self.driver.slots.get_mut(&id).expect("stepped").state;
        for cmd in out.timers.drain(..) {
            match cmd {
                TimerCmd::Set { kind, .. } => armed.insert(kind),
                TimerCmd::Cancel { kind } => armed.remove(&kind),
            };
        }
        self.commits.entry(id).or_default().append(&mut out.commits);
        let observed = out.observations.drain(..).map(|o| (id, o));
        self.observations.extend(observed);
        self.driver.recycle(out);
    }

    /// Fires an armed timer on a node. Returns `true` if it was armed.
    pub fn fire(&mut self, id: NodeId, kind: TimerKind) -> bool {
        let slot = self.driver.slots.get_mut(&id).filter(|s| s.up);
        if !slot.is_some_and(|s| s.state.remove(&kind)) {
            return false;
        }
        self.with_node(id, |n, out| n.on_timer(kind, out));
        true
    }

    /// `true` if the timer is armed.
    pub fn is_armed(&self, id: NodeId, kind: TimerKind) -> bool {
        self.driver
            .slots
            .get(&id)
            .is_some_and(|s| s.state.contains(&kind))
    }

    /// Delivers one queued message, if any. Returns `false` when idle.
    pub fn deliver_one(&mut self) -> bool {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            let up = self.driver.slots.get(&to).is_some_and(|s| s.up);
            if !up || !(self.link_ok)(from, to) {
                continue;
            }
            self.with_node(to, |n, out| n.on_message(from, msg, out));
            return true;
        }
        false
    }

    /// Delivers messages until the queue drains.
    ///
    /// # Panics
    ///
    /// Panics after 1,000,000 deliveries (livelock guard).
    pub fn deliver_all(&mut self) {
        let mut n = 0u64;
        while self.deliver_one() {
            n += 1;
            assert!(n < 1_000_000, "lockstep livelock: messages never drain");
        }
    }

    /// Submits a session write at `id` (session = the node's id, seq
    /// auto-incremented) and routes the effects. Returns the `(session,
    /// seq)` key the eventual [`Observation::ClientResponse`] will carry.
    pub fn propose(&mut self, id: NodeId, data: &[u8]) -> (SessionId, u64) {
        let seq = bump(&mut self.client_seq, id);
        let session = SessionId::client(id.as_u64());
        self.client_request(
            id,
            ClientRequest::write(session, seq, bytes::Bytes::copy_from_slice(data)),
        );
        (session, seq)
    }

    /// Submits a read at `id` with the given consistency level (numbered by
    /// the session's read counter; it consumes no write seq). Returns the
    /// request's `(session, read id)` key.
    pub fn read(&mut self, id: NodeId, consistency: Consistency) -> (SessionId, u64) {
        let ordinal = bump(&mut self.client_reads, id);
        let req = ClientRequest::read(SessionId::client(id.as_u64()), ordinal, consistency);
        let key = (req.session, req.seq);
        self.client_request(id, req);
        key
    }

    /// Submits an arbitrary client request at `id` (e.g. a deliberate retry
    /// of an earlier `(session, seq)`) and routes the effects.
    pub fn client_request(&mut self, id: NodeId, req: ClientRequest) {
        self.with_node(id, |node, out| node.on_client_request(req, out));
    }

    /// The typed responses observed at `id` for `(session, seq)`, in order.
    pub fn responses_for(
        &self,
        id: NodeId,
        session: SessionId,
        seq: u64,
    ) -> Vec<wire::ClientOutcome> {
        self.observations
            .iter()
            .filter_map(|(n, o)| match o {
                Observation::ClientResponse {
                    session: s,
                    seq: q,
                    outcome,
                } if *n == id && *s == session && *q == seq => Some(outcome.clone()),
                _ => None,
            })
            .collect()
    }

    /// All `SessionApplied` observations: `(node, scope, session, seq,
    /// index)` — the raw material for exactly-once assertions.
    pub fn session_applies(&self) -> Vec<(NodeId, wire::LogScope, SessionId, u64, wire::LogIndex)> {
        self.observations
            .iter()
            .filter_map(|(n, o)| match o {
                Observation::SessionApplied {
                    scope,
                    session,
                    seq,
                    index,
                } => Some((*n, *scope, *session, *seq, *index)),
                _ => None,
            })
            .collect()
    }

    /// Asserts exactly-once application: for every `(scope-domain, session,
    /// seq)`, all [`Observation::SessionApplied`] emissions across all
    /// nodes name the **same** log index — a retried seq is never applied
    /// twice, at distinct indices, anywhere.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic when a seq applied at two indices.
    pub fn assert_exactly_once(&self) {
        let mut applied: des::IdMap<(u64, wire::LogScope, SessionId, u64), wire::LogIndex> =
            des::IdMap::default();
        for (node, scope, session, seq, index) in self.session_applies() {
            let domain = self.driver.safety.domain(node, scope);
            let first = *applied
                .entry((domain, scope, session, seq))
                .or_insert(index);
            assert_eq!(
                first, index,
                "EXACTLY-ONCE VIOLATION: {session}:{seq} applied at both {first} and {index} \
                 ({scope:?}, observed at {node})"
            );
        }
    }

    /// Crashes a node: pending messages to it drop, timers disarm. The
    /// node object is retained for inspection but receives nothing.
    pub fn crash(&mut self, id: NodeId) {
        if let Some(slot) = self.driver.slots.get_mut(&id) {
            slot.up = false;
            slot.state.clear();
        }
    }

    /// Replaces a crashed node with a recovered instance and bootstraps it.
    pub fn restart(&mut self, node: P) {
        let id = node.id();
        let armed = self.driver.slots.remove(&id).map(|s| s.state);
        self.driver.insert(id, node, armed.unwrap_or_default());
        self.with_node(id, |n, out| n.bootstrap(out));
    }

    /// Commits observed at a node, in order.
    pub fn commits(&self, id: NodeId) -> &[Commit] {
        self.commits.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All observations so far, in emission order.
    pub fn observations(&self) -> &[(NodeId, Observation)] {
        &self.observations
    }

    /// Convenience: the set of nodes that believe they currently lead,
    /// judged by a caller-supplied predicate.
    pub fn leaders_by(&self, is_leader: impl Fn(&P) -> bool) -> Vec<NodeId> {
        self.driver
            .slots
            .iter()
            .filter(|(_, s)| s.up && is_leader(&s.node))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Asserts the safety property (Definition 2.1): no two nodes committed
    /// different entries at the same index of the same log scope. Every
    /// commit was checked when it was emitted; this reports the first
    /// conflict.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if safety is violated.
    pub fn assert_safety(&self) {
        self.driver.safety.assert_ok();
    }
}

/// Advances `node`'s counter and returns the new value (the first is 1).
fn bump(counters: &mut BTreeMap<NodeId, u64>, node: NodeId) -> u64 {
    let c = counters.entry(node).or_insert(0);
    *c += 1;
    *c
}
