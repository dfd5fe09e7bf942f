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
    Actions, ClientRequest, Commit, Consistency, ConsensusProtocol, EntryId, NodeId, Observation,
    SessionId, TimerCmd, TimerKind,
};

/// A lockstep network of protocol nodes.
pub struct Lockstep<P: ConsensusProtocol> {
    nodes: BTreeMap<NodeId, P>,
    queue: VecDeque<(NodeId, NodeId, P::Message)>,
    armed: BTreeSet<(NodeId, TimerKind)>,
    commits: BTreeMap<NodeId, Vec<Commit>>,
    observations: Vec<(NodeId, Observation)>,
    disk: SimDisk,
    /// Last write seq and last read ordinal per node-derived session
    /// (survive node restarts, like a real client outliving a gateway
    /// crash).
    client_seq: BTreeMap<NodeId, u64>,
    client_reads: BTreeMap<NodeId, u64>,
    /// Nodes currently crashed/stopped: their messages and timers are
    /// discarded.
    down: BTreeSet<NodeId>,
    /// Optional link filter: messages failing the predicate are dropped.
    link_ok: Box<dyn Fn(NodeId, NodeId) -> bool>,
    /// Maps a node to its local-consensus domain (cluster). Local-scope
    /// safety is judged within a domain; Global scope is system-wide.
    domain_of: Box<dyn Fn(NodeId) -> u64>,
}

impl<P: ConsensusProtocol> Lockstep<P> {
    /// Creates a lockstep network over the given nodes and bootstraps each.
    pub fn new(nodes: impl IntoIterator<Item = P>) -> Self {
        let mut net = Lockstep {
            nodes: nodes.into_iter().map(|n| (n.id(), n)).collect(),
            queue: VecDeque::new(),
            armed: BTreeSet::new(),
            commits: BTreeMap::new(),
            observations: Vec::new(),
            disk: SimDisk::new(),
            client_seq: BTreeMap::new(),
            client_reads: BTreeMap::new(),
            down: BTreeSet::new(),
            link_ok: Box::new(|_, _| true),
            domain_of: Box::new(|_| 0),
        };
        let ids: Vec<NodeId> = net.nodes.keys().copied().collect();
        for id in ids {
            net.with_node(id, |node, out| node.bootstrap(out));
        }
        net
    }

    /// Replaces the link filter; return `false` to drop `from → to` traffic.
    pub fn set_link_filter(&mut self, f: impl Fn(NodeId, NodeId) -> bool + 'static) {
        self.link_ok = Box::new(f);
    }

    /// Declares which local-consensus domain (cluster) each node belongs
    /// to; [`Lockstep::assert_safety`] compares Local-scope commits only
    /// within a domain. Hierarchical deployments (C-Raft) need this.
    pub fn set_safety_domains(&mut self, f: impl Fn(NodeId) -> u64 + 'static) {
        self.domain_of = Box::new(f);
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn node(&self, id: NodeId) -> &P {
        self.nodes.get(&id).expect("unknown node")
    }

    /// Mutable access to a node (for assertions needing `&mut`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        self.nodes.get_mut(&id).expect("unknown node")
    }

    /// All node ids, ascending.
    pub fn ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// The stable-storage farm backing this network.
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Runs `f` against a node, then routes the produced actions.
    pub fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Actions<P::Message>)) {
        if self.down.contains(&id) {
            return;
        }
        let mut out = Actions::new();
        {
            let node = self.nodes.get_mut(&id).expect("unknown node");
            f(node, &mut out);
        }
        self.route(id, out);
    }

    fn route(&mut self, from: NodeId, out: Actions<P::Message>) {
        // Write-ahead: persistence first.
        self.disk.apply(from, out.persists.iter());
        for (to, msg) in out.sends {
            self.queue.push_back((from, to, msg));
        }
        for cmd in out.timers {
            match cmd {
                TimerCmd::Set { kind, .. } => {
                    self.armed.insert((from, kind));
                }
                TimerCmd::Cancel { kind } => {
                    self.armed.remove(&(from, kind));
                }
            }
        }
        for c in out.commits {
            self.commits.entry(from).or_default().push(c);
        }
        for o in out.observations {
            self.observations.push((from, o));
        }
    }

    /// Fires an armed timer on a node. Returns `true` if it was armed.
    pub fn fire(&mut self, id: NodeId, kind: TimerKind) -> bool {
        if !self.armed.remove(&(id, kind)) || self.down.contains(&id) {
            return false;
        }
        self.with_node(id, |n, out| n.on_timer(kind, out));
        true
    }

    /// `true` if the timer is armed.
    pub fn is_armed(&self, id: NodeId, kind: TimerKind) -> bool {
        self.armed.contains(&(id, kind))
    }

    /// Delivers one queued message, if any. Returns `false` when idle.
    pub fn deliver_one(&mut self) -> bool {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            if self.down.contains(&to) || !(self.link_ok)(from, to) {
                continue;
            }
            if !self.nodes.contains_key(&to) {
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
    pub fn session_applies(
        &self,
    ) -> Vec<(NodeId, wire::LogScope, SessionId, u64, wire::LogIndex)> {
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
            let domain = match scope {
                wire::LogScope::Local => (self.domain_of)(node),
                wire::LogScope::Global => u64::MAX,
            };
            match applied.entry((domain, scope, session, seq)) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(index);
                }
                std::collections::hash_map::Entry::Occupied(o) => {
                    assert_eq!(
                        *o.get(),
                        index,
                        "EXACTLY-ONCE VIOLATION: {session}:{seq} applied at both {} and {} \
                         ({scope:?}, observed at {node})",
                        o.get(),
                        index,
                    );
                }
            }
        }
    }

    /// Crashes a node: pending messages to it drop, timers disarm. The
    /// node object is retained for inspection but receives nothing.
    pub fn crash(&mut self, id: NodeId) {
        self.down.insert(id);
        self.armed.retain(|(n, _)| *n != id);
    }

    /// Replaces a crashed node with a recovered instance and bootstraps it.
    pub fn restart(&mut self, node: P) {
        let id = node.id();
        self.down.remove(&id);
        self.nodes.insert(id, node);
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
        self.nodes
            .iter()
            .filter(|(id, n)| !self.down.contains(id) && is_leader(n))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Asserts the safety property (Definition 2.1): no two nodes committed
    /// different entries at the same index of the same log scope.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic if safety is violated.
    pub fn assert_safety(&self) {
        let mut chosen: des::IdMap<(u64, wire::LogScope, wire::LogIndex), (NodeId, EntryId)> =
            des::IdMap::default();
        for (&node, commits) in &self.commits {
            for c in commits {
                let domain = match c.scope {
                    wire::LogScope::Local => (self.domain_of)(node),
                    wire::LogScope::Global => u64::MAX,
                };
                match chosen.entry((domain, c.scope, c.index)) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert((node, c.entry.id));
                    }
                    std::collections::hash_map::Entry::Occupied(o) => {
                        let (first_node, first_id) = *o.get();
                        assert_eq!(
                            first_id, c.entry.id,
                            "SAFETY VIOLATION at {:?} {}: {} committed {} but {} committed {}",
                            c.scope, c.index, first_node, first_id, node, c.entry.id
                        );
                    }
                }
            }
        }
    }
}

/// Advances `node`'s counter and returns the new value (the first is 1).
fn bump(counters: &mut BTreeMap<NodeId, u64>, node: NodeId) -> u64 {
    let c = counters.entry(node).or_insert(0);
    *c += 1;
    *c
}
