//! `Traced<P>`: the in-situ engine probe.
//!
//! A benchmark-owned wrapper that implements `ConsensusProtocol` (and
//! `ShardNode`) by delegation and is hosted by the *real* generic
//! `Runner<P>` / `ShardRunner<P>`. Every handler call becomes one span —
//! name `engine.<kind>`, start, end, parent = the repetition — and after
//! each call the wrapper reads the returned `Actions` for counts and keeps
//! a 1-in-64 sample of sends and persist batches as the replay corpus.
//! Simulated time never sees the wall clock, so the schedule is the
//! untraced one; `main.rs` asserts that on every repetition.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use consensus_core::{CRaftMessage, FastRaftMessage};
use des::SimTime;
use raft::RaftMessage;
use shard::ShardNode;
use wire::{Actions, ClientRequest, ConsensusProtocol, NodeId, PersistCmd, TimerCmd, TimerKind};

/// Raw spans kept per workload (the rest are aggregated only).
pub const SPAN_CAP: usize = 50_000;
/// One send in this many joins the replay corpus.
pub const SAMPLE_EVERY: u64 = 64;
/// The first this-many persist batches of a repetition join it, whole and
/// in order: storage replay needs every insert of a log to land where it
/// did, which a 1-in-64 sample of one log's inserts would not.
pub const PERSIST_CAP: u64 = 16_384;

/// What an engine step was handling. Classic Raft's `Propose` reports
/// under `ProposeAt`: both are "a proposer's entry reaches the log".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    ClientRequest,
    ProposeAt,
    Vote,
    AppendEntries,
    AppendEntriesReply,
    Timer,
    Other,
}

impl StepKind {
    pub const COUNT: usize = 7;
    pub const ALL: [StepKind; StepKind::COUNT] = [
        StepKind::ClientRequest,
        StepKind::ProposeAt,
        StepKind::Vote,
        StepKind::AppendEntries,
        StepKind::AppendEntriesReply,
        StepKind::Timer,
        StepKind::Other,
    ];

    /// The per-layer metric holding this kind's median ns per call.
    pub fn metric(self) -> &'static str {
        match self {
            StepKind::ClientRequest => "engine.step_ns.client_request",
            StepKind::ProposeAt => "engine.step_ns.propose_at",
            StepKind::Vote => "engine.step_ns.vote",
            StepKind::AppendEntries => "engine.step_ns.append_entries",
            StepKind::AppendEntriesReply => "engine.step_ns.append_entries_reply",
            StepKind::Timer => "engine.step_ns.timer",
            StepKind::Other => "engine.step_ns.other",
        }
    }

    /// The span name: `engine.<kind>`.
    pub fn span_name(self) -> String {
        self.metric().replacen("step_ns.", "", 1)
    }
}

/// How the probe files a protocol message.
pub trait MsgClass {
    fn step_kind(&self) -> StepKind;
    /// `true` for C-Raft's inter-cluster level.
    fn is_global(&self) -> bool {
        false
    }
}

impl MsgClass for FastRaftMessage {
    fn step_kind(&self) -> StepKind {
        match self {
            FastRaftMessage::ProposeAt { .. } => StepKind::ProposeAt,
            FastRaftMessage::Vote { .. } => StepKind::Vote,
            FastRaftMessage::AppendEntries { .. } => StepKind::AppendEntries,
            FastRaftMessage::AppendEntriesReply { .. } => StepKind::AppendEntriesReply,
            _ => StepKind::Other,
        }
    }
}

impl MsgClass for CRaftMessage {
    fn step_kind(&self) -> StepKind {
        match self {
            CRaftMessage::Local(m) | CRaftMessage::Global(m) => m.step_kind(),
        }
    }
    fn is_global(&self) -> bool {
        CRaftMessage::is_global(self)
    }
}

impl MsgClass for RaftMessage {
    fn step_kind(&self) -> StepKind {
        match self {
            RaftMessage::Propose { .. } => StepKind::ProposeAt,
            RaftMessage::AppendEntries { .. } => StepKind::AppendEntries,
            RaftMessage::AppendEntriesReply { .. } => StepKind::AppendEntriesReply,
            _ => StepKind::Other,
        }
    }
}

fn timer_is_global(kind: TimerKind) -> bool {
    matches!(
        kind,
        TimerKind::GlobalElection
            | TimerKind::GlobalHeartbeat
            | TimerKind::GlobalLeaderTick
            | TimerKind::GlobalProposalRetry
            | TimerKind::GlobalJoinRetry
    )
}

/// One handler call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: StepKind,
    pub node: u64,
    /// Nanoseconds since the repetition's span started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// `(session, seq)` on `on_client_request` spans: the operation id.
    pub op: Option<(u64, u64)>,
}

/// Where every `Traced` node of one repetition records.
pub struct Sink<M> {
    epoch: Instant,
    /// Nanoseconds per call, by [`StepKind`].
    pub durations: [Vec<u32>; StepKind::COUNT],
    /// Total time inside engine handlers.
    pub busy_ns: u64,
    /// The part of `busy_ns` spent on C-Raft's global level.
    pub global_ns: u64,
    /// Handler calls.
    pub steps: u64,
    /// Messages the engines emitted.
    pub sends: u64,
    /// Steps that emitted at least one persist command (= fsync
    /// boundaries under group commit), and the commands in them.
    pub persist_steps: u64,
    pub persist_cmds: u64,
    pub timers_set: u64,
    pub spans: Vec<Span>,
    /// Sampled sends `(from, to, message)`.
    pub msg_corpus: Vec<(NodeId, NodeId, M)>,
    /// The first [`PERSIST_CAP`] persist batches, each with the lane and
    /// node whose disk it went to.
    pub persist_corpus: Vec<(u64, NodeId, Vec<PersistCmd>)>,
}

/// A sink shared by the nodes of one (single-threaded) repetition.
pub type Shared<M> = Rc<RefCell<Sink<M>>>;

impl<M: Clone> Sink<M> {
    pub fn shared() -> Shared<M> {
        Rc::new(RefCell::new(Sink {
            epoch: Instant::now(),
            durations: Default::default(),
            busy_ns: 0,
            global_ns: 0,
            steps: 0,
            sends: 0,
            persist_steps: 0,
            persist_cmds: 0,
            timers_set: 0,
            spans: Vec::new(),
            msg_corpus: Vec::new(),
            persist_corpus: Vec::new(),
        }))
    }

    /// Nanoseconds from the repetition's start to now: the end of the
    /// parent span every engine span hangs under.
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        kind: StepKind,
        global: bool,
        (lane, node): (u64, NodeId),
        op: Option<(u64, u64)>,
        t0: Instant,
        t1: Instant,
        out: &Actions<M>,
        before: (usize, usize, usize),
    ) {
        let ns = t1.duration_since(t0).as_nanos() as u64;
        self.durations[kind as usize].push(ns.min(u32::MAX as u64) as u32);
        self.busy_ns += ns;
        if global {
            self.global_ns += ns;
        }
        self.steps += 1;
        if self.spans.len() < SPAN_CAP {
            let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                kind,
                node: node.as_u64(),
                start_ns,
                end_ns: start_ns + ns,
                op,
            });
        }
        let (s0, p0, t0n) = before;
        for (to, msg) in &out.sends[s0..] {
            self.sends += 1;
            if self.sends.is_multiple_of(SAMPLE_EVERY) {
                self.msg_corpus.push((node, *to, msg.clone()));
            }
        }
        let persists = &out.persists[p0..];
        if !persists.is_empty() {
            self.persist_steps += 1;
            self.persist_cmds += persists.len() as u64;
            if self.persist_steps <= PERSIST_CAP {
                self.persist_corpus.push((lane, node, persists.to_vec()));
            }
        }
        self.timers_set += out.timers[t0n..]
            .iter()
            .filter(|cmd| matches!(cmd, TimerCmd::Set { .. }))
            .count() as u64;
    }
}

/// A protocol node, probed.
pub struct Traced<P: ConsensusProtocol> {
    inner: P,
    /// Which deployment of the repetition this node belongs to: the group
    /// on the shard fabric (node ids repeat across groups), 0 elsewhere.
    lane: u64,
    sink: Shared<P::Message>,
}

impl<P: ConsensusProtocol> Traced<P> {
    pub fn new(inner: P, lane: u64, sink: Shared<P::Message>) -> Self {
        Traced { inner, lane, sink }
    }

    fn step(
        &mut self,
        kind: StepKind,
        global: bool,
        op: Option<(u64, u64)>,
        out: &mut Actions<P::Message>,
        f: impl FnOnce(&mut P, &mut Actions<P::Message>),
    ) {
        let before = (out.sends.len(), out.persists.len(), out.timers.len());
        let t0 = Instant::now();
        f(&mut self.inner, out);
        let t1 = Instant::now();
        let at = (self.lane, self.inner.id());
        self.sink
            .borrow_mut()
            .record(kind, global, at, op, t0, t1, out, before);
    }
}

impl<P> ConsensusProtocol for Traced<P>
where
    P: ConsensusProtocol,
    P::Message: MsgClass,
{
    type Message = P::Message;

    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn set_local_clock(&mut self, now: SimTime) {
        self.inner.set_local_clock(now);
    }

    fn on_message(&mut self, from: NodeId, msg: Self::Message, out: &mut Actions<Self::Message>) {
        let (kind, global) = (msg.step_kind(), msg.is_global());
        self.step(kind, global, None, out, |n, out| {
            n.on_message(from, msg, out)
        });
    }

    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<Self::Message>) {
        self.step(
            StepKind::Timer,
            timer_is_global(kind),
            None,
            out,
            |n, out| n.on_timer(kind, out),
        );
    }

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<Self::Message>) {
        let op = Some((req.session.as_u64(), req.seq));
        self.step(StepKind::ClientRequest, false, op, out, |n, out| {
            n.on_client_request(req, out)
        });
    }

    fn bootstrap(&mut self, out: &mut Actions<Self::Message>) {
        self.step(StepKind::Other, false, None, out, |n, out| n.bootstrap(out));
    }

    fn pending_applies(&self) -> u64 {
        self.inner.pending_applies()
    }

    fn drain_applies(&mut self, out: &mut Actions<Self::Message>) {
        self.step(StepKind::Other, false, None, out, |n, out| {
            n.drain_applies(out)
        });
    }
}

impl<P> ShardNode for Traced<P>
where
    P: ShardNode,
    P::Message: MsgClass,
{
    fn is_settled_leader(&self) -> bool {
        self.inner.is_settled_leader()
    }
    fn is_quiet_follower(&self) -> bool {
        self.inner.is_quiet_follower()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::SimRng;
    use raft::testkit::Lockstep;
    use raft::{RaftNode, Timing};
    use wire::{Configuration, Consistency};

    fn nodes() -> Vec<RaftNode> {
        let cfg: Configuration = (0..3).map(NodeId).collect();
        let root = SimRng::seed_from_u64(7);
        (0..3)
            .map(|i| {
                RaftNode::new(
                    NodeId(i),
                    cfg.clone(),
                    Timing::lan(),
                    root.split_indexed("n", i),
                )
            })
            .collect()
    }

    /// An election, writes from the leader and from a follower (forwarded),
    /// a read, heartbeats, a crashed follower missing traffic.
    fn script<P: ConsensusProtocol>(net: &mut Lockstep<P>) {
        assert!(net.fire(NodeId(0), TimerKind::Election));
        net.deliver_all();
        for i in 0..20u8 {
            net.propose(NodeId(0), &[i; 16]);
            net.propose(NodeId(1), &[i; 48]);
            net.deliver_all();
            if i % 4 == 0 {
                net.fire(NodeId(0), TimerKind::Heartbeat);
                net.deliver_all();
            }
            if i == 10 {
                net.crash(NodeId(2));
            }
        }
        net.read(NodeId(0), Consistency::Linearizable);
        net.fire(NodeId(0), TimerKind::Heartbeat);
        net.deliver_all();
    }

    #[test]
    fn traced_nodes_produce_the_same_actions_as_bare_ones() {
        let mut bare = Lockstep::new(nodes());
        script(&mut bare);

        let sink = Sink::shared();
        let mut traced =
            Lockstep::new(nodes().into_iter().map(|n| Traced::new(n, 0, sink.clone())));
        script(&mut traced);

        // Lockstep routes every `Actions` field: sends become deliveries
        // (which produce the commits and observations below), timers the
        // armed set, persists the disk.
        assert_eq!(bare.observations(), traced.observations());
        assert!(!bare.observations().is_empty());
        for id in bare.ids() {
            assert_eq!(bare.commits(id), traced.commits(id), "commits at {id}");
            assert_eq!(bare.disk().read(id), traced.disk().read(id), "disk of {id}");
            for k in 0..TimerKind::COUNT {
                let kind = TimerKind::from_index(k).unwrap();
                assert_eq!(bare.is_armed(id, kind), traced.is_armed(id, kind));
            }
        }
        assert!(bare.commits(NodeId(0)).len() >= 40);
        bare.assert_safety();
        traced.assert_safety();

        // And the probe saw the work: one span per handler call, kinds
        // filed where `engine.step_ns.*` expects them.
        let s = sink.borrow();
        assert_eq!(s.steps as usize, s.spans.len());
        assert_eq!(
            s.steps as usize,
            s.durations.iter().map(Vec::len).sum::<usize>()
        );
        assert_eq!(s.durations[StepKind::ClientRequest as usize].len(), 41);
        assert!(!s.durations[StepKind::ProposeAt as usize].is_empty());
        assert!(!s.durations[StepKind::AppendEntries as usize].is_empty());
        assert!(s.sends > 0 && s.persist_steps > 0 && s.timers_set > 0);
        let with_op = s.spans.iter().filter(|x| x.op.is_some()).count();
        assert_eq!(with_op, 41, "client-request spans carry (session, seq)");
    }
}
