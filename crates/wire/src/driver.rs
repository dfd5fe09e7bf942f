//! The node table every embedding hosts its protocol nodes in.
//!
//! Four loops drive the sans-IO nodes — the DES runner, the sharded fabric,
//! the schedule explorer and the lockstep testkit — and each performs a
//! step's [`Actions`] its own way (a simulated network, a frame coalescer,
//! explicit pools, a FIFO queue). What they share lives here, once: the
//! node table with its up flag, clock stamping, the recycled `Actions`
//! buffers, and the cross-site commit-agreement check every commit passes
//! through. [`Driver`] is a plain struct, not a trait: each embedding keeps
//! its own effect handling (persists first, write-ahead) and keeps its own
//! per-node data in [`Slot::state`].

use std::collections::BTreeMap;

use des::SimTime;

use crate::{Actions, ConsensusProtocol, GroupId, NodeId, SafetyChecker};

/// Single-group embeddings key nodes by id alone; they host group 0.
impl From<NodeId> for (GroupId, NodeId) {
    fn from(node: NodeId) -> Self {
        (GroupId(0), node)
    }
}

/// One hosted node.
pub struct Slot<P, S> {
    /// The protocol state machine.
    pub node: P,
    /// `false` while crashed or gone: [`Driver::step`] skips the node.
    pub up: bool,
    /// The embedding's own data for this node (armed timers, a disk, ...).
    pub state: S,
}

/// The node table, the commit-agreement checker and the `Actions` free
/// list one embedding hosts its nodes with. `K` is the node's site: a
/// [`NodeId`], or a `(GroupId, NodeId)` where one process hosts many
/// groups; the site names the log its commits are checked in.
pub struct Driver<K, P: ConsensusProtocol, S = ()> {
    /// Every hosted node, in site order.
    pub slots: BTreeMap<K, Slot<P, S>>,
    /// Receives every commit any step emits.
    pub safety: SafetyChecker,
    /// Cleared buffers awaiting reuse, capacity retained. A step pops one
    /// (or makes one while the list is empty); an embedding whose effects
    /// step another node while it still drains the first buffer simply
    /// holds a second one.
    free: Vec<Actions<P::Message>>,
}

impl<K, P, S> Driver<K, P, S>
where
    K: Copy + Ord + Into<(GroupId, NodeId)>,
    P: ConsensusProtocol,
{
    /// An empty table checking commits with `safety`.
    pub fn new(safety: SafetyChecker) -> Self {
        Driver {
            slots: BTreeMap::new(),
            safety,
            free: Vec::new(),
        }
    }

    /// Hosts `node` at `at`, up, replacing whatever was there.
    pub fn insert(&mut self, at: K, node: P, state: S) {
        self.slots.insert(
            at,
            Slot {
                node,
                up: true,
                state,
            },
        );
    }

    /// Runs one handler on the node at `at` and records its commits.
    ///
    /// Returns `None` without running `f` if the node is down or unknown.
    /// Otherwise stamps the node's local clock with `clock` (`None` leaves
    /// the node clockless) and returns the filled buffer — to be performed
    /// by the embedding and handed back through [`Driver::recycle`] — plus
    /// whether the node has committed entries queued for a pipelined apply
    /// ([`ConsensusProtocol::pending_applies`]).
    pub fn step(
        &mut self,
        at: K,
        clock: Option<SimTime>,
        f: impl FnOnce(&mut P, &mut Actions<P::Message>),
    ) -> Option<(Actions<P::Message>, bool)> {
        let slot = self.slots.get_mut(&at).filter(|s| s.up)?;
        if let Some(now) = clock {
            slot.node.set_local_clock(now);
        }
        let mut out = self.free.pop().unwrap_or_default();
        f(&mut slot.node, &mut out);
        let (group, node) = at.into();
        for c in &out.commits {
            self.safety
                .record(group, node, c.scope, c.index, c.entry.id);
        }
        Some((out, slot.node.pending_applies() > 0))
    }

    /// Takes a performed buffer back, cleared, for a later step.
    pub fn recycle(&mut self, mut out: Actions<P::Message>) {
        out.clear();
        self.free.push(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientRequest, EntryId, LogEntry, LogIndex, LogScope, Message, Term, TimerKind};

    #[derive(Clone, Debug)]
    struct Ping;

    impl Message for Ping {
        fn wire_size(&self) -> usize {
            1
        }
    }

    /// Counts its steps, remembers its clock, commits on every timer.
    struct Toy {
        id: NodeId,
        steps: u32,
        clock: Option<SimTime>,
    }

    impl ConsensusProtocol for Toy {
        type Message = Ping;
        fn id(&self) -> NodeId {
            self.id
        }
        fn set_local_clock(&mut self, now: SimTime) {
            self.clock = Some(now);
        }
        fn on_message(&mut self, _: NodeId, _: Ping, _: &mut Actions<Ping>) {}
        fn on_timer(&mut self, _: TimerKind, out: &mut Actions<Ping>) {
            self.steps += 1;
            let entry = LogEntry::noop(Term::ZERO, EntryId::new(self.id, 1));
            out.commit(LogScope::Global, LogIndex(1), entry);
        }
        fn on_client_request(&mut self, _: ClientRequest, _: &mut Actions<Ping>) {}
        fn bootstrap(&mut self, out: &mut Actions<Ping>) {
            self.steps += 1;
            out.send_many((0..8).map(NodeId), Ping);
        }
    }

    fn driver() -> Driver<NodeId, Toy> {
        let mut d = Driver::new(SafetyChecker::new());
        for n in 0..2 {
            let toy = Toy {
                id: NodeId(n),
                steps: 0,
                clock: None,
            };
            d.insert(NodeId(n), toy, ());
        }
        d
    }

    #[test]
    fn down_and_unknown_nodes_are_not_stepped() {
        let mut d = driver();
        d.slots.get_mut(&NodeId(1)).unwrap().up = false;
        assert!(d.step(NodeId(1), None, |n, out| n.bootstrap(out)).is_none());
        assert!(d.step(NodeId(7), None, |n, out| n.bootstrap(out)).is_none());
        assert_eq!(d.slots[&NodeId(1)].node.steps, 0);
    }

    #[test]
    fn none_clock_leaves_the_node_clockless() {
        let mut d = driver();
        let (out, pending) = d.step(NodeId(0), None, |n, out| n.bootstrap(out)).unwrap();
        assert!(!pending);
        assert_eq!(d.slots[&NodeId(0)].node.clock, None);
        d.recycle(out);
        let at = SimTime::from_millis(5);
        let (out, _) = d
            .step(NodeId(0), Some(at), |n, out| n.bootstrap(out))
            .unwrap();
        assert_eq!(d.slots[&NodeId(0)].node.clock, Some(at));
        d.recycle(out);
    }

    #[test]
    fn recycled_buffer_returns_empty_with_its_capacity() {
        let mut d = driver();
        let (out, _) = d.step(NodeId(0), None, |n, out| n.bootstrap(out)).unwrap();
        assert_eq!(out.sends.len(), 8);
        let cap = out.sends.capacity();
        d.recycle(out);
        let (out, _) = d.step(NodeId(0), None, |_, _| {}).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.sends.capacity(), cap);
    }

    #[test]
    fn commits_reach_the_checker_under_the_site() {
        let mut d = driver();
        for n in 0..2 {
            let kind = TimerKind::Election;
            let (out, _) = d
                .step(NodeId(n), None, |t, out| t.on_timer(kind, out))
                .unwrap();
            d.recycle(out);
        }
        assert_eq!(d.safety.commits_seen(), 2);
        let v = &d.safety.violations()[0];
        assert_eq!(
            (v.group, v.first.0, v.second.0),
            (GroupId(0), NodeId(0), NodeId(1))
        );
    }
}
