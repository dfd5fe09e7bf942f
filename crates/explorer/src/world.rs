//! The explorable world: protocol nodes + an explorer-controlled
//! environment.
//!
//! Unlike the harness's discrete-event [`des`] simulation — where latency
//! models decide delivery order — the world keeps every pending event in
//! explicit pools and lets the *schedule* pick what happens next:
//!
//! - **Messages** sit in an in-flight pool; delivering any slot at any step
//!   subsumes arbitrary reordering, and explicit duplicate/drop choices
//!   model an unreliable datagram network.
//! - **Timers** are armed at absolute virtual deadlines. Firing one
//!   advances the virtual clock to (at least) its deadline, so a timer can
//!   fire arbitrarily *late* (legit scheduling delay) but never early.
//! - **Nodes** are left clockless — [`wire::ConsensusProtocol::set_local_clock`]
//!   is never called — so all lease logic is inert and linearizable reads
//!   take the ReadIndex round. Lease-path schedules are the harness's job
//!   (it models bounded skew); the explorer hunts ordering bugs.
//! - **Persists** apply to the simulated disk at emission. A persist
//!   *stall* therefore delays the node's outgoing messages (write-ahead:
//!   sends wait for the disk), never the durability itself — the modeled
//!   disk is always at least as durable as a real one, so a crash here is
//!   a fault a real deployment could also survive. Every failure the
//!   explorer finds is a feasible execution.
//!
//! All bookkeeping lives in `BTree` collections and the world draws no
//! randomness of its own, so a `(Setup, Vec<Choice>)` pair replays
//! bit-identically.

use des::{SimDuration, SimTime};
use storage::{SimDisk, StableState};
use wire::{
    Actions, ClientOp, ClientOutcome, ClientRequest, Consistency, ConsensusProtocol, Driver,
    LogScope, NodeId, Observation, SafetyChecker, SessionId, TimerCmd, TimerKind,
};

use std::collections::{BTreeMap, BTreeSet};

use crate::oracle::{self, Violation};
use crate::schedule::Choice;

/// A protocol the explorer can drive. Everything beyond
/// [`ConsensusProtocol`] has inert defaults, so ungated protocols plug in
/// unchanged; gate-aware wrappers override to hand gate release to the
/// schedule and expose gate debt to the liveness oracle.
pub trait Explorable: ConsensusProtocol {
    /// Gate tokens currently armed and awaiting an explorer release,
    /// oldest first. Empty for protocols without explorer-controlled gates.
    fn armed_gate_tokens(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Releases one armed gate; unknown tokens are ignored.
    fn release_gate(&mut self, _token: u64, _out: &mut Actions<Self::Message>) {}

    /// `(pending gate continuations, outstanding decision reservations)`.
    /// The liveness oracle asserts both are zero at quiescence; a
    /// reservation that outlives every continuation is a permanent wedge.
    fn gate_debt(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Whether the healed deployment (`nodes`, every site up) is
    /// structurally able to serve `op`. The liveness oracle only demands
    /// resolution of ops this returns `true` for — a fairness constraint,
    /// not a free pass: flat deployments can always serve everything (the
    /// default), but C-Raft's global tier can only (re)form while a quorum
    /// of its configured seats sit on current cluster leaders (displaced
    /// members drop global traffic until evicted, and eviction itself
    /// needs a global leader), so linearizable reads are only demanded
    /// when that holds. See `ARCHITECTURE.md` and the ROADMAP note on
    /// passive global membership for the fix direction.
    fn op_serviceable(nodes: &[(NodeId, &Self)], op: &ClientOp) -> bool
    where
        Self: Sized,
    {
        let _ = (nodes, op);
        true
    }
}

impl Explorable for raft::RaftNode {}

impl Explorable for consensus_core::FastRaftNode {}

impl Explorable for consensus_core::CRaftNode {
    fn gate_debt(&self) -> (usize, usize) {
        self.global_gate_debt()
    }

    fn op_serviceable(nodes: &[(NodeId, &Self)], op: &ClientOp) -> bool {
        if !matches!(op, ClientOp::Read(Consistency::Linearizable)) {
            return true;
        }
        // Linearizable reads confirm through the global tier. That tier can
        // only elect while a quorum of its configured seats are held by
        // *current* cluster leaders: a displaced seat-holder ignores global
        // traffic, and with a quorum of seats displaced neither election
        // nor the evict-and-rejoin repair can ever run.
        let Some(config) = nodes
            .iter()
            .find_map(|(_, n)| n.global_engine().map(|g| g.config().clone()))
        else {
            return false;
        };
        let live_seats = config
            .iter()
            .filter(|&seat| {
                nodes
                    .iter()
                    .any(|&(id, n)| id == seat && n.local_role() == raft::Role::Leader)
            })
            .count();
        live_seats > config.len() / 2
    }
}

impl Explorable for crate::gated::GatedFastRaftNode {
    fn armed_gate_tokens(&self) -> Vec<u64> {
        self.armed_tokens()
    }

    fn release_gate(&mut self, token: u64, out: &mut Actions<Self::Message>) {
        GatedFastRaftNode::release_gate(self, token, out)
    }

    fn gate_debt(&self) -> (usize, usize) {
        GatedFastRaftNode::gate_debt(self)
    }
}

use crate::gated::GatedFastRaftNode;

/// Rebuilds a crashed node from its stable state.
pub type RecoveryFn<P> = Box<dyn FnMut(NodeId, &StableState) -> P>;

/// One in-flight message.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sender.
    pub from: NodeId,
    /// Addressee.
    pub to: NodeId,
    /// Payload.
    pub msg: M,
    /// Copies already minted from this envelope (duplication is bounded).
    pub dups: u8,
}

/// Maximum copies minted from one envelope via [`Choice::Duplicate`].
pub const MAX_DUPS: u8 = 3;

/// How often the quiescence drain retries unresolved client operations.
const RESUBMIT_PERIOD: SimDuration = SimDuration::from_millis(2_000);

/// A node's armed timers at absolute virtual deadlines.
type Deadlines = BTreeMap<TimerKind, SimTime>;

struct Pending {
    seq: u64,
    op: ClientOp,
}

struct Lane {
    session: SessionId,
    /// Scripted ops already submitted at least once.
    issued: u32,
    /// Total scripted ops (registration included).
    total: u32,
    /// Writes (registration included) and reads issued so far: the last
    /// write seq and the last read ordinal (see [`wire::read_id`]).
    writes: u64,
    reads: u64,
    outstanding: Option<Pending>,
}

impl Lane {
    fn unresolved(&self) -> bool {
        self.outstanding.is_some() || self.issued < self.total
    }
}

/// Workload and drain parameters for a [`World`].
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// The scope a write acknowledgement's index belongs to (`Global` for
    /// single-level protocols; `Local` for C-Raft, which acks writes at
    /// intra-cluster commit).
    pub ack_scope: LogScope,
    /// Scripted data operations per client lane.
    pub ops: u32,
    /// Every `read_every`-th data op is a linearizable read (0 = none).
    pub read_every: u32,
    /// Client lanes per gateway node.
    pub lanes: u32,
    /// Each lane opens with an explicit `Register` op.
    pub register_first: bool,
    /// Virtual-time budget for the quiescence drain.
    pub drain_horizon: SimDuration,
    /// Hard step cap for the quiescence drain (treadmill backstop).
    pub max_drain_steps: u64,
}

impl WorldConfig {
    /// Defaults for the given ack scope: 60 s drain horizon, 2M-step cap.
    pub fn new(ack_scope: LogScope) -> Self {
        WorldConfig {
            ack_scope,
            ops: 2,
            read_every: 0,
            lanes: 1,
            register_first: false,
            drain_horizon: SimDuration::from_secs(60),
            max_drain_steps: 2_000_000,
        }
    }
}

/// Everything currently enabled, for strategies to choose from.
#[derive(Clone, Debug, Default)]
pub struct Enabled {
    /// `(from, to)` per in-flight slot, in slot order.
    pub in_flight: Vec<(NodeId, NodeId)>,
    /// Whether each slot may still be duplicated, in slot order.
    pub dup_ok: Vec<bool>,
    /// Armed timers, earliest deadline first.
    pub timers: Vec<(NodeId, TimerKind)>,
    /// Armed gates, `(node, token)`, node order then token order.
    pub gates: Vec<(NodeId, u64)>,
    /// Client lanes able to issue or resubmit, `(gateway, lane)`.
    pub clients: Vec<(NodeId, u32)>,
    /// Nodes currently up.
    pub up: Vec<NodeId>,
    /// Nodes currently crashed.
    pub down: Vec<NodeId>,
    /// Nodes with a persist stall in effect.
    pub stalled: Vec<NodeId>,
    /// Directed cuts in effect.
    pub cuts: Vec<(NodeId, NodeId)>,
}

/// The explorable deployment: nodes, network pools, disk, clients, oracles.
pub struct World<P: Explorable> {
    cfg: WorldConfig,
    /// The nodes (clockless, each with its [`Deadlines`]) and the safety
    /// oracle every commit passes through.
    driver: Driver<NodeId, P, Deadlines>,
    in_flight: Vec<Envelope<P::Message>>,
    /// Directed cuts: a send matching `(from, to)` is dropped at the wire.
    cuts: BTreeSet<(NodeId, NodeId)>,
    disk: SimDisk,
    now: SimTime,
    lanes: BTreeMap<(NodeId, u32), Lane>,
    lane_of: BTreeMap<SessionId, (NodeId, u32)>,
    recover: RecoveryFn<P>,
    stalled: BTreeSet<NodeId>,
    /// Sends held back by a persist stall, per node, in emission order.
    held: BTreeMap<NodeId, Vec<(NodeId, P::Message)>>,
    steps: u64,
    /// The first commit notice the lost-proposal oracle refuted.
    lost: Option<Violation>,
}

impl<P: Explorable> World<P> {
    /// Builds a world over `nodes`, provisions their disks, bootstraps
    /// them, and lays out `cfg.lanes` client lanes per node.
    pub fn new(
        nodes: impl IntoIterator<Item = P>,
        cfg: WorldConfig,
        safety: SafetyChecker,
        recover: RecoveryFn<P>,
    ) -> Self {
        let mut world = World {
            cfg,
            driver: Driver::new(safety),
            in_flight: Vec::new(),
            cuts: BTreeSet::new(),
            disk: SimDisk::new(),
            now: SimTime::ZERO,
            lanes: BTreeMap::new(),
            lane_of: BTreeMap::new(),
            recover,
            stalled: BTreeSet::new(),
            held: BTreeMap::new(),
            steps: 0,
            lost: None,
        };
        let total = world.cfg.ops + u32::from(world.cfg.register_first);
        let ids: Vec<NodeId> = nodes
            .into_iter()
            .map(|node| {
                let id = node.id();
                world.disk.provision(id);
                world.driver.insert(id, node, Deadlines::new());
                id
            })
            .collect();
        for id in ids {
            for lane in 0..world.cfg.lanes {
                // Distinct, stable session ids: lane 0 at node 3 is 3001.
                let session = SessionId::client(id.as_u64() * 1_000 + u64::from(lane) + 1);
                world.lanes.insert(
                    (id, lane),
                    Lane {
                        session,
                        issued: 0,
                        total,
                        writes: 0,
                        reads: 0,
                        outstanding: None,
                    },
                );
                world.lane_of.insert(session, (id, lane));
            }
            world.step_node(id, |n, out| n.bootstrap(out));
        }
        world
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Choices applied so far (including drain-internal ones).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Borrow a node for assertions. `None` for unknown ids.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.driver.slots.get(&id).map(|s| &s.node)
    }

    /// The safety checker (for end-of-run statistics).
    pub fn safety(&self) -> &SafetyChecker {
        &self.driver.safety
    }

    /// Client lanes still awaiting a terminal outcome or with script left.
    pub fn unresolved_ops(&self) -> usize {
        self.lanes.values().filter(|l| l.unresolved()).count()
    }

    /// The safety/lin/lost-proposal violation recorded so far, if any.
    pub fn check_safety(&self) -> Option<Violation> {
        if let Some(v) = self.driver.safety.violations().first() {
            return Some(Violation::Safety(v.to_string()));
        }
        if let Some(v) = self.driver.safety.lin_violations().first() {
            return Some(Violation::Lin(v.to_string()));
        }
        self.lost.clone()
    }

    /// Everything a strategy may currently pick.
    pub fn enabled(&self) -> Enabled {
        let mut view = Enabled::default();
        for env in &self.in_flight {
            view.in_flight.push((env.from, env.to));
            view.dup_ok.push(env.dups < MAX_DUPS);
        }
        let mut timers: Vec<(SimTime, NodeId, TimerKind)> = Vec::new();
        for (&id, slot) in &self.driver.slots {
            if slot.up {
                view.up.push(id);
                for (&kind, &deadline) in &slot.state {
                    timers.push((deadline, id, kind));
                }
                for token in slot.node.armed_gate_tokens() {
                    view.gates.push((id, token));
                }
            } else {
                view.down.push(id);
            }
        }
        timers.sort();
        view.timers = timers.into_iter().map(|(_, n, k)| (n, k)).collect();
        for (&(node, lane), state) in &self.lanes {
            let gateway_up = self.is_up(node);
            if gateway_up && state.unresolved() {
                view.clients.push((node, lane));
            }
        }
        view.stalled = self.stalled.iter().copied().collect();
        view.cuts = self.cuts.iter().copied().collect();
        view
    }

    /// Applies one choice. Returns `false` if the choice named nothing
    /// currently enabled (a skipped line on replay — harmless, so shrunk
    /// traces stay valid even when removals disable later choices).
    pub fn apply(&mut self, choice: &Choice) -> bool {
        self.steps += 1;
        match *choice {
            Choice::Deliver { slot } => {
                let slot = slot as usize;
                if slot >= self.in_flight.len() {
                    return false;
                }
                let env = self.in_flight.remove(slot);
                // A message addressed to a crashed node is lost at its
                // (dead) socket, but the delivery attempt still happened.
                if self.is_up(env.to) {
                    self.step_node(env.to, |n, out| n.on_message(env.from, env.msg, out));
                }
                true
            }
            Choice::Duplicate { slot } => {
                let slot = slot as usize;
                if slot >= self.in_flight.len() || self.in_flight[slot].dups >= MAX_DUPS {
                    return false;
                }
                self.in_flight[slot].dups += 1;
                let mut copy = self.in_flight[slot].clone();
                copy.dups = MAX_DUPS; // copies of copies stay bounded
                self.in_flight.push(copy);
                true
            }
            Choice::Drop { slot } => {
                let slot = slot as usize;
                if slot >= self.in_flight.len() {
                    return false;
                }
                self.in_flight.remove(slot);
                true
            }
            Choice::Timer { node, kind } => {
                let slot = self.driver.slots.get_mut(&node).filter(|s| s.up);
                let Some(deadline) = slot.and_then(|s| s.state.remove(&kind)) else {
                    return false;
                };
                self.now = self.now.max(deadline);
                self.step_node(node, |n, out| n.on_timer(kind, out));
                true
            }
            Choice::Client { node, lane } => self.submit(node, lane),
            Choice::Crash { node } => {
                let Some(slot) = self.driver.slots.get_mut(&node).filter(|s| s.up) else {
                    return false;
                };
                slot.up = false;
                slot.state.clear();
                // Held sends never left the box; the stall dies with it.
                self.stalled.remove(&node);
                self.held.remove(&node);
                true
            }
            Choice::Recover { node } => {
                if self.driver.slots.get(&node).is_none_or(|s| s.up) {
                    return false;
                }
                let stable = self.disk.provision(node).clone();
                let fresh = (self.recover)(node, &stable);
                self.driver.insert(node, fresh, Deadlines::new());
                self.step_node(node, |n, out| n.bootstrap(out));
                true
            }
            Choice::Cut { from, to } => from != to && self.cuts.insert((from, to)),
            Choice::HealLink { from, to } => self.cuts.remove(&(from, to)),
            Choice::HealAll => {
                if self.cuts.is_empty() {
                    return false;
                }
                self.cuts.clear();
                true
            }
            Choice::Stall { node } => {
                self.driver.slots.contains_key(&node) && self.stalled.insert(node)
            }
            Choice::Unstall { node } => {
                if !self.stalled.remove(&node) {
                    return false;
                }
                for (to, msg) in self.held.remove(&node).unwrap_or_default() {
                    self.enqueue(node, to, msg);
                }
                true
            }
            Choice::Release { node, token } => {
                let slot = self.driver.slots.get(&node).filter(|s| s.up);
                if !slot.is_some_and(|s| s.node.armed_gate_tokens().contains(&token)) {
                    return false;
                }
                self.step_node(node, |n, out| n.release_gate(token, out));
                true
            }
        }
    }

    fn is_up(&self, id: NodeId) -> bool {
        self.driver.slots.get(&id).is_some_and(|s| s.up)
    }

    /// Runs one handler on an up node and performs its effects.
    fn step_node(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Actions<P::Message>)) {
        let mut out = self
            .driver
            .step(id, None, f)
            .expect("stepping a node that is up");
        self.process_actions(id, &mut out);
        self.driver.recycle(out);
    }

    fn process_actions(&mut self, from: NodeId, out: &mut Actions<P::Message>) {
        // Persists land on the (always-durable) disk immediately; a stall
        // delays the write-ahead release of this step's sends instead.
        self.disk.apply(from, out.persists.iter());
        let hold = !out.persists.is_empty() && self.stalled.contains(&from);

        let deadlines = &mut self.driver.slots.get_mut(&from).expect("stepped").state;
        for cmd in out.timers.drain(..) {
            match cmd {
                TimerCmd::Set { kind, after } => {
                    deadlines.insert(kind, self.now + after);
                }
                TimerCmd::Cancel { kind } => {
                    deadlines.remove(&kind);
                }
            }
        }

        for (to, msg) in out.sends.drain(..) {
            if hold {
                self.held.entry(from).or_default().push((to, msg));
            } else {
                self.enqueue(from, to, msg);
            }
        }

        for obs in out.observations.drain(..) {
            match obs {
                Observation::ClientResponse {
                    session,
                    seq,
                    outcome,
                } => self.settle(from, session, seq, outcome),
                Observation::ProposalCommitted { id, scope, .. } if self.lost.is_none() => {
                    self.lost = oracle::lost_proposal(&self.driver.safety, from, scope, id);
                }
                _ => {}
            }
        }
    }

    fn enqueue(&mut self, from: NodeId, to: NodeId, msg: P::Message) {
        if self.cuts.contains(&(from, to)) {
            return; // dropped at the wire by the one-way cut
        }
        self.in_flight.push(Envelope {
            from,
            to,
            msg,
            dups: 0,
        });
    }

    /// Issues the lane's next scripted op, or resubmits the outstanding
    /// one. Returns `false` when the lane has nothing to do.
    fn submit(&mut self, node: NodeId, lane: u32) -> bool {
        if !self.is_up(node) {
            return false;
        }
        let Some(state) = self.lanes.get_mut(&(node, lane)) else {
            return false;
        };
        let (session, seq, op, first_submission) = if let Some(p) = &state.outstanding {
            (state.session, p.seq, p.op.clone(), false)
        } else {
            if state.issued >= state.total {
                return false;
            }
            let i = state.issued;
            state.issued += 1;
            let op = script_op(&self.cfg, node, lane, i);
            let seq = if matches!(op, ClientOp::Read(_)) {
                state.reads += 1;
                wire::read_id(state.reads)
            } else {
                state.writes += 1;
                state.writes
            };
            state.outstanding = Some(Pending {
                seq,
                op: op.clone(),
            });
            (state.session, seq, op, true)
        };
        if first_submission && matches!(op, ClientOp::Read(Consistency::Linearizable)) {
            self.driver.safety.read_started(session, seq);
        }
        self.step_node(node, |n, out| {
            n.on_client_request(ClientRequest { session, seq, op }, out);
        });
        true
    }

    /// Routes a `ClientResponse` back to its lane.
    fn settle(&mut self, from: NodeId, session: SessionId, seq: u64, outcome: ClientOutcome) {
        let Some(&(gateway, lane)) = self.lane_of.get(&session) else {
            return;
        };
        if from != gateway {
            return; // late answer surfacing at a non-gateway replica
        }
        let state = self.lanes.get_mut(&(gateway, lane)).expect("lane exists");
        let matches_outstanding = state.outstanding.as_ref().is_some_and(|p| p.seq == seq);
        if !matches_outstanding || !outcome.is_terminal() {
            return; // stale answer, or a Retry/Redirect: keep waiting
        }
        let resolved = state.outstanding.take().expect("checked above");
        self.driver.safety.op_completed(self.cfg.ack_scope, session, seq, &resolved.op, &outcome);
    }

    /// Heals every fault, then drains the world to quiescence: delivers all
    /// messages, releases all gates, fires timers (advancing virtual time)
    /// up to a horizon, and periodically retries unresolved client ops.
    /// Returns the first violation — including the liveness verdict: at
    /// quiescence every placed op must have resolved and every gate
    /// continuation and decision reservation must have drained.
    pub fn quiesce(&mut self) -> Option<Violation> {
        self.cuts.clear();
        for node in self.stalled.iter().copied().collect::<Vec<_>>() {
            self.apply(&Choice::Unstall { node });
        }
        for node in self
            .driver
            .slots
            .iter()
            .filter(|(_, s)| !s.up)
            .map(|(&id, _)| id)
            .collect::<Vec<_>>()
        {
            self.apply(&Choice::Recover { node });
        }

        let horizon = self.now + self.cfg.drain_horizon;
        let mut next_resubmit: BTreeMap<(NodeId, u32), SimTime> = self
            .lanes
            .keys()
            .map(|&key| (key, self.now))
            .collect();
        let mut drained = 0u64;

        loop {
            if let Some(v) = self.check_safety() {
                return Some(v);
            }
            drained += 1;
            if drained > self.cfg.max_drain_steps {
                return Some(Violation::Liveness(format!(
                    "drain exceeded {} steps without quiescing \
                     ({} messages in flight, {} lanes unresolved)",
                    self.cfg.max_drain_steps,
                    self.in_flight.len(),
                    self.unresolved_ops(),
                )));
            }

            if !self.in_flight.is_empty() {
                self.apply(&Choice::Deliver { slot: 0 });
                continue;
            }

            let gate = self.enabled().gates.first().copied();
            if let Some((node, token)) = gate {
                self.apply(&Choice::Release { node, token });
                continue;
            }

            let due_lane = self
                .lanes
                .iter()
                .find(|(key, lane)| lane.unresolved() && next_resubmit[key] <= self.now)
                .map(|(&key, _)| key);
            if let Some((node, lane)) = due_lane {
                next_resubmit.insert((node, lane), self.now + RESUBMIT_PERIOD);
                self.apply(&Choice::Client { node, lane });
                continue;
            }

            let next_timer = self
                .driver
                .slots
                .iter()
                .flat_map(|(&id, slot)| slot.state.iter().map(move |(&kind, &at)| (at, id, kind)))
                .min();
            if let Some((at, node, kind)) = next_timer {
                if at <= horizon {
                    self.apply(&Choice::Timer { node, kind });
                    continue;
                }
            }

            // Timers are past the horizon; if lanes are merely waiting out
            // their retry backoff, jump straight to it.
            let waiting = self
                .lanes
                .iter()
                .filter(|(_, lane)| lane.unresolved())
                .filter_map(|(key, _)| next_resubmit.get(key).copied())
                .min();
            if let Some(at) = waiting {
                if at <= horizon {
                    self.now = self.now.max(at);
                    continue;
                }
            }
            break;
        }

        if let Some(v) = self.check_safety() {
            return Some(v);
        }
        let mut wedged = Vec::new();
        let slots = &self.driver.slots;
        let roster: Vec<(NodeId, &P)> = slots.iter().map(|(&id, s)| (id, &s.node)).collect();
        for ((node, lane), state) in &self.lanes {
            if let Some(p) = &state.outstanding {
                if !P::op_serviceable(&roster, &p.op) {
                    continue;
                }
                wedged.push(format!(
                    "client {node}/{lane} wedged at seq {} ({})",
                    p.seq,
                    op_name(&p.op),
                ));
            } else if state.issued < state.total {
                wedged.push(format!(
                    "client {node}/{lane} stuck before op {} of {}",
                    state.issued + 1,
                    state.total
                ));
            }
        }
        for (&id, slot) in slots {
            let (pending, reserved) = slot.node.gate_debt();
            if pending > 0 || reserved > 0 {
                wedged.push(format!(
                    "node {id} gate debt: {pending} pending continuation(s), \
                     {reserved} leaked decision reservation(s)",
                ));
            }
        }
        if wedged.is_empty() {
            None
        } else {
            Some(Violation::Liveness(wedged.join("; ")))
        }
    }
}

fn op_name(op: &ClientOp) -> &'static str {
    match op {
        ClientOp::Write(_) => "write",
        ClientOp::Read(_) => "read",
        ClientOp::Register => "register",
    }
}

/// The lane's `i`-th scripted operation (deterministic, payload included).
fn script_op(cfg: &WorldConfig, node: NodeId, lane: u32, i: u32) -> ClientOp {
    if cfg.register_first {
        if i == 0 {
            return ClientOp::Register;
        }
        return data_op(cfg, node, lane, i - 1);
    }
    data_op(cfg, node, lane, i)
}

fn data_op(cfg: &WorldConfig, node: NodeId, lane: u32, j: u32) -> ClientOp {
    if cfg.read_every > 0 && (j + 1).is_multiple_of(cfg.read_every) {
        ClientOp::Read(Consistency::Linearizable)
    } else {
        ClientOp::Write(bytes::Bytes::from(format!("w{}-{lane}-{j}", node.as_u64())))
    }
}
