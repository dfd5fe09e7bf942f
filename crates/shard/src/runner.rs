//! The multi-group runner: thousands of consensus groups in one process
//! fabric, scheduled from one keyed timer heap so idle groups cost zero.
//!
//! # Topology
//!
//! `procs` processes (fabric endpoints, [`NodeId`] `0..procs`) each host a
//! replica of **every** group, so a group is an independent consensus
//! instance over the same proc set. The unit of network traffic is the
//! proc pair, not the group: all messages one proc emits toward one peer
//! while handling a single event coalesce into one [`ShardEnvelope`] —
//! one frame, one latency sample, one delivery event — and demultiplex by
//! [`GroupId`] at the receiver.
//!
//! # Scheduling
//!
//! All timers of all groups live in one [`TimerWheel`] (an indexed
//! min-heap; "the wheel" below and in the field names, after the type)
//! keyed by a packed `(proc, group, kind)` word, and the wheel is driven
//! by a **single** event in the discrete-event simulation, re-armed to the
//! wheel's next deadline — its heap root, O(1) — after every dispatch. The
//! per-event cost is therefore O(due work · log timers), never O(groups):
//! a group with nothing due contributes no event, no queue entry, and no
//! per-tick poll.
//!
//! # Hibernation
//!
//! A group with no client traffic still heartbeats. When a group has seen
//! no client op for `idle_after`, has no frames in flight, and is
//! leadership-settled (one quiescent leader, followers tracking it), the
//! runner **parks** it: every replica's pending timers are removed from
//! the wheel with their remaining durations recorded. A parked group
//! consumes zero CPU — no heartbeats, no events — until a client op or a
//! stray frame **unparks** it, re-arming each timer at `now + remaining`.
//! Because the leader's heartbeat remainder is always shorter than any
//! follower's election remainder, the first post-wake timer is the
//! heartbeat, so waking never triggers a spurious election.
//!
//! Consensus safety is untouched by parking: parking only defers timers,
//! and Raft's safety does not depend on timing. A parked group's replicas
//! hold their persisted state; the cross-replica commit-agreement check
//! ([`ShardRunner::violations`], one log per group) runs over all groups,
//! parked or not.
//!
//! # Rebalance
//!
//! [`ReconfigOp`]s submitted through [`ShardRunner::schedule_reconfig`]
//! are committed through the owning group's log as magic-prefixed writes.
//! Each proc applies the op to *its* router replica at its own commit
//! point, so routing tables change exactly when the op's position in the
//! group's linearizable history is reached — procs may briefly disagree,
//! and a write routed by a stale table simply lands on the old group,
//! whose history still linearizes it (see `docs/CONSISTENCY.md`).

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;
use des::{EventId, Firing, IdMap, SimDuration, SimRng, SimTime, Simulation, TimerWheel};
use raft::{RaftNode, Role, Timing};
use simnet::{Network, Verdict};
use storage::StableState;
use wire::{
    Actions, ClientLane, ClientOp, ClientOutcome, Configuration, ConsensusProtocol, Driver,
    GroupFrame, GroupId, LogScope, NodeId, Observation, Payload, SafetyChecker, SafetyViolation,
    SessionId, Settled, ShardEnvelope, TimerCmd, TimerKind,
};

use crate::router::{ReconfigOp, ShardRouter};
use crate::zipf::Zipf;

/// Packs a protocol timer identity into one wheel key.
/// Layout: `proc << 40 | group << 8 | kind`, with kind `0xff` reserved
/// for the per-group idle check (proc bits zero there).
fn timer_key(proc: u64, group: u32, kind: TimerKind) -> u64 {
    (proc << 40) | ((group as u64) << 8) | kind.index() as u64
}

// Every kind index must fit the low byte and leave `0xff` to `idle_key`.
const _: () = assert!(TimerKind::COUNT < 0xff);

/// The per-group hibernation-check key (kind byte `0xff`).
fn idle_key(group: u32) -> u64 {
    ((group as u64) << 8) | 0xff
}

/// Unpacks a wheel key into its group and, for a protocol timer, its
/// `(proc, kind)`; `None` there marks the group's idle check.
fn decode_key(key: u64) -> (u32, Option<(u64, TimerKind)>) {
    let group = ((key >> 8) & 0xffff_ffff) as u32;
    let timer = match (key & 0xff) as usize {
        0xff => None,
        kind => Some((
            key >> 40,
            TimerKind::from_index(kind).expect("wheel key carries a valid timer kind"),
        )),
    };
    (group, timer)
}

/// Extra capabilities the sharded runner needs from an engine beyond the
/// sans-IO [`ConsensusProtocol`] surface: the hibernation gate must see
/// whether a replica is settled before parking its group.
pub trait ShardNode: ConsensusProtocol {
    /// `true` when this replica is the group's current leader with no
    /// client work in flight (safe to stop heartbeating).
    fn is_settled_leader(&self) -> bool;
    /// `true` when this replica is a follower that knows who leads.
    fn is_quiet_follower(&self) -> bool;
}

impl ShardNode for RaftNode {
    fn is_settled_leader(&self) -> bool {
        self.role() == Role::Leader && self.pending_proposals() == 0
    }
    fn is_quiet_follower(&self) -> bool {
        self.role() == Role::Follower && self.leader_hint().is_some()
    }
}

/// Constructor invoked for every `(group, proc)` replica the fabric hosts.
pub type EngineFactory<P> = dyn Fn(GroupId, NodeId, &Configuration, SimRng) -> P;

/// A factory producing classic-Raft engines with the given timing for
/// every `(group, proc)` replica.
pub fn raft_factory(
    timing: Timing,
) -> impl Fn(GroupId, NodeId, &Configuration, SimRng) -> RaftNode + 'static {
    move |_group, id, cfg, rng| RaftNode::new(id, cfg.clone(), timing, rng)
}

/// The closed-loop client workload driven against the sharded fabric.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Closed-loop client count (each keeps exactly one op in flight).
    pub clients: usize,
    /// Key-space size; keys are 8-byte big-endian ids.
    pub keys: u64,
    /// Zipfian skew over the key space (0 = uniform, 0.99 = YCSB-ish).
    pub zipf_theta: f64,
    /// Written value size in bytes.
    pub payload_bytes: usize,
    /// When clients start issuing.
    pub start_at: SimTime,
    /// Resubmit an unanswered op after this long.
    pub op_timeout: SimDuration,
    /// Backoff before resubmitting on `Retry`/`Redirect`.
    pub retry_backoff: SimDuration,
    /// When set, restrict the key set to keys routed to this group —
    /// the "1 active + N idle groups" cell of the acceptance sweep.
    pub target_group: Option<GroupId>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            clients: 64,
            keys: 4096,
            zipf_theta: 0.99,
            payload_bytes: 64,
            start_at: SimTime::from_secs(5),
            op_timeout: SimDuration::from_secs(2),
            retry_backoff: SimDuration::from_millis(25),
            target_group: None,
        }
    }
}

/// Runner topology and scheduling knobs.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Fabric endpoints; every group replicates across all of them.
    pub procs: u64,
    /// Initial group count (ranges split uniformly).
    pub groups: u32,
    /// Root seed for all derived randomness.
    pub seed: u64,
    /// Park a group after this much client silence; `ZERO` disables
    /// hibernation (idle groups keep heartbeating forever).
    pub idle_after: SimDuration,
    /// The client workload.
    pub workload: WorkloadSpec,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            procs: 3,
            groups: 1,
            seed: 1,
            idle_after: SimDuration::from_secs(1),
            workload: WorkloadSpec::default(),
        }
    }
}

/// Counters reported by the runner. `*_window` counters only accumulate
/// inside the measurement window set by
/// [`ShardRunner::set_measure_window`]; the rest are run-lifetime totals.
#[derive(Clone, Debug, Default)]
pub struct ShardMetrics {
    /// Simulation events dispatched (lifetime).
    pub events_total: u64,
    /// Simulation events dispatched inside the window.
    pub events_window: u64,
    /// Client ops completed (lifetime).
    pub completed_total: u64,
    /// Client ops completed inside the window.
    pub completed_window: u64,
    /// Sum of completion latencies (µs) inside the window.
    pub latency_window_us: u64,
    /// Fabric frames delivered-scheduled inside the window.
    pub frames_window: u64,
    /// Group messages carried by those frames (coalescing ratio =
    /// `group_msgs_window / frames_window`).
    pub group_msgs_window: u64,
    /// Wheel drive events dispatched.
    pub wheel_events: u64,
    /// Protocol timers armed into the wheel.
    pub timers_set: u64,
    /// Protocol timers cancelled (live entries disarmed).
    pub timers_cancelled: u64,
    /// Groups parked by the hibernation gate.
    pub parks: u64,
    /// Groups woken by client ops or stray frames.
    pub unparks: u64,
    /// Elections started across all groups.
    pub elections: u64,
    /// Leaderships won across all groups.
    pub leader_changes: u64,
    /// Router ops applied at a proc's commit point (counts per proc).
    pub reconfigs_applied: u64,
    /// Router ops rejected as stale at apply time (counts per proc).
    pub reconfigs_rejected: u64,
    /// Client resubmissions (timeouts, `Retry`, `Redirect`).
    pub retries: u64,
    /// Completed ops per group (lifetime), for placement assertions.
    pub per_group_completed: BTreeMap<u32, u64>,
}

enum Ev<M> {
    /// A coalesced fabric frame arriving at `to`.
    Frame {
        from: NodeId,
        to: NodeId,
        env: ShardEnvelope<M>,
    },
    /// Drive the [`TimerWheel`] up to `now`.
    Wheel,
    /// A closed-loop client issues its first op.
    ClientStart { client: usize },
    /// Resubmission guard for an outstanding op: acts only if it is still
    /// the client's latest one.
    Nudge { client: usize, nudge: u64 },
    /// The admin client submits scripted reconfig op `idx`.
    Reconfig { idx: usize },
}

struct Client {
    /// The session, its seqs (per group: the exactly-once window of one
    /// group's log never absorbs another group's seqs) and its op in
    /// flight.
    lane: ClientLane,
    gateway: u64,
    /// When the op in flight was issued.
    issued_at: SimTime,
    /// Resubmission guards armed so far; only the latest one acts.
    nudge: u64,
    is_admin: bool,
}

#[derive(Default)]
struct GroupCtl {
    last_client: SimTime,
    parked: bool,
    inflight: u32,
    outstanding: u32,
    parked_timers: Vec<(u64, TimerKind, SimDuration)>,
}

/// One process fabric multiplexing many consensus groups.
///
/// Generic over the engine (`RaftNode` via [`raft_factory`], or any
/// [`ShardNode`] implementation) so classic and fast groups share the
/// scheduling substrate.
pub struct ShardRunner<P: ShardNode> {
    sim: Simulation<Ev<P::Message>>,
    net: Network,
    net_rng: SimRng,
    wheel: TimerWheel<u64>,
    /// The one simulator event driving the wheel, while pending.
    wheel_armed: Option<EventId>,
    /// Every `(group, proc)` replica with its stable state, the
    /// commit-agreement checker (one log per group) and the recycled
    /// `Actions` buffers.
    driver: Driver<(GroupId, NodeId), P, StableState>,
    /// One router replica per proc, updated at that proc's commit points.
    routers: Vec<ShardRouter>,
    groups: BTreeMap<u32, GroupCtl>,
    clients: Vec<Client>,
    session_owner: IdMap<u64, usize>,
    factory: Box<EngineFactory<P>>,
    engine_rng: SimRng,
    wl_rng: SimRng,
    zipf: Zipf,
    key_ids: Vec<u64>,
    procs: u64,
    idle_after: SimDuration,
    workload: WorkloadSpec,
    config: Configuration,
    reconfig_script: Vec<ReconfigOp>,
    admin_queue: VecDeque<usize>,
    /// Per-dispatch send coalescing table, dense `procs × procs` at
    /// `from * procs + to`: walking it front to back is ascending
    /// `(from, to)`, the order `net_rng` is drawn in.
    out_buf: Vec<ShardEnvelope<P::Message>>,
    /// Emptied frame vectors of delivered (or dropped) envelopes, capacity
    /// retained, for the next flush to put back into `out_buf`.
    free_frames: Vec<Vec<GroupFrame<P::Message>>>,
    resp_queue: VecDeque<(u64, u32, SessionId, u64, ClientOutcome)>,
    pending_reconfigs: VecDeque<(u64, ReconfigOp)>,
    measure_from: SimTime,
    measure_until: SimTime,
    metrics: ShardMetrics,
    due_scratch: Vec<(SimTime, u64)>,
}

impl<P: ShardNode> ShardRunner<P> {
    /// Builds the fabric: all initial groups bootstrapped, clients and
    /// scripted reconfig ops scheduled, wheel armed.
    pub fn new(
        cfg: ShardConfig,
        reconfigs: Vec<(SimTime, ReconfigOp)>,
        factory: impl Fn(GroupId, NodeId, &Configuration, SimRng) -> P + 'static,
    ) -> Self {
        assert!(cfg.procs >= 1 && cfg.groups >= 1);
        let root = SimRng::seed_from_u64(cfg.seed);
        let config: Configuration = (0..cfg.procs).map(NodeId).collect();
        let router = ShardRouter::uniform(cfg.groups);

        // Key universe: all of 0..keys, or (for the idle-groups cell) the
        // first `keys` ids that route to the target group.
        let key_ids: Vec<u64> = match cfg.workload.target_group {
            None => (0..cfg.workload.keys).collect(),
            Some(tg) => {
                let mut ids = Vec::with_capacity(cfg.workload.keys as usize);
                let budget = cfg
                    .workload
                    .keys
                    .saturating_mul(cfg.groups as u64)
                    .saturating_mul(64);
                for id in 0..budget {
                    if router.assign(&id.to_be_bytes()) == tg {
                        ids.push(id);
                        if ids.len() as u64 == cfg.workload.keys {
                            break;
                        }
                    }
                }
                assert!(
                    !ids.is_empty(),
                    "no keys routed to target group {tg} within budget"
                );
                ids
            }
        };

        let mut runner = ShardRunner {
            sim: Simulation::new(cfg.seed ^ 0x5AD0_77EE),
            net: Network::reliable_lan((0..cfg.procs).map(NodeId)),
            net_rng: root.split("shard-net"),
            wheel: TimerWheel::new(),
            wheel_armed: None,
            driver: Driver::new(SafetyChecker::new()),
            routers: vec![router; cfg.procs as usize],
            groups: BTreeMap::new(),
            clients: Vec::new(),
            session_owner: IdMap::default(),
            factory: Box::new(factory),
            engine_rng: root.split("engines"),
            wl_rng: root.split("workload"),
            zipf: Zipf::new(key_ids.len(), cfg.workload.zipf_theta),
            key_ids,
            procs: cfg.procs,
            idle_after: cfg.idle_after,
            workload: cfg.workload.clone(),
            config,
            reconfig_script: reconfigs.iter().map(|&(_, op)| op).collect(),
            admin_queue: VecDeque::new(),
            out_buf: (0..cfg.procs * cfg.procs)
                .map(|_| ShardEnvelope::new())
                .collect(),
            free_frames: Vec::new(),
            resp_queue: VecDeque::new(),
            pending_reconfigs: VecDeque::new(),
            measure_from: SimTime::ZERO,
            measure_until: SimTime::MAX,
            metrics: ShardMetrics::default(),
            due_scratch: Vec::new(),
        };

        for g in 0..cfg.groups {
            runner.create_group(g);
        }

        // Workload clients, then one admin client for scripted reconfigs.
        for c in 0..runner.workload.clients + 1 {
            let is_admin = c == runner.workload.clients;
            let session = SessionId::client(c as u64 + 1);
            runner.session_owner.insert(session.as_u64(), c);
            runner.clients.push(Client {
                lane: ClientLane::new(session),
                gateway: if is_admin { 0 } else { c as u64 % cfg.procs },
                issued_at: SimTime::ZERO,
                nudge: 0,
                is_admin,
            });
        }
        for c in 0..runner.workload.clients {
            let at = runner.workload.start_at + SimDuration::from_micros(c as u64);
            runner.sim.schedule_at(at, Ev::ClientStart { client: c });
        }
        for (idx, &(at, _)) in reconfigs.iter().enumerate() {
            runner.sim.schedule_at(at, Ev::Reconfig { idx });
        }

        runner.settle();
        runner
    }

    /// Sets the half-open measurement window for `*_window` counters.
    pub fn set_measure_window(&mut self, from: SimTime, until: SimTime) {
        self.measure_from = from;
        self.measure_until = until;
    }

    /// Runs every event strictly before `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Firing { time, event, .. }) = self.sim.next_event_before(deadline) {
            self.metrics.events_total += 1;
            if self.in_window(time) {
                self.metrics.events_window += 1;
            }
            self.dispatch(event);
            self.settle();
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The accumulated counters.
    pub fn metrics(&self) -> &ShardMetrics {
        &self.metrics
    }

    /// Commit-agreement violations observed so far (empty = safe); each
    /// names its group.
    pub fn violations(&self) -> &[SafetyViolation] {
        self.driver.safety.violations()
    }

    /// The safety checker: commit agreement and linearizability, per group.
    pub fn safety(&self) -> &SafetyChecker {
        &self.driver.safety
    }

    /// Number of groups currently hosted (initial + split-created).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of groups currently parked.
    pub fn parked_groups(&self) -> usize {
        self.groups.values().filter(|g| g.parked).count()
    }

    /// Armed timers in the shared [`TimerWheel`].
    pub fn wheel_len(&self) -> usize {
        self.wheel.len()
    }

    /// Proc `proc`'s routing-table replica.
    pub fn router(&self, proc: u64) -> &ShardRouter {
        &self.routers[proc as usize]
    }

    /// The engine hosting `group`'s replica at `proc`, if created.
    pub fn engine(&self, group: GroupId, proc: NodeId) -> Option<&P> {
        self.driver.slots.get(&(group, proc)).map(|s| &s.node)
    }

    // ------------------------------------------------------------------
    // Dispatch
    // ------------------------------------------------------------------

    fn in_window(&self, t: SimTime) -> bool {
        t >= self.measure_from && t < self.measure_until
    }

    fn dispatch(&mut self, ev: Ev<P::Message>) {
        match ev {
            Ev::Frame { from, to, env } => {
                let mut frames = env.frames;
                for GroupFrame { group, msg } in frames.drain(..) {
                    let g = group.as_u32();
                    if let Some(ctl) = self.groups.get_mut(&g) {
                        ctl.inflight = ctl.inflight.saturating_sub(1);
                    }
                    self.wake_if_parked(g);
                    self.step_engine(to.as_u64(), g, |e, out| e.on_message(from, msg, out));
                }
                self.free_frames.push(frames);
            }
            Ev::Wheel => {
                self.wheel_armed = None;
                self.metrics.wheel_events += 1;
                let now = self.sim.now();
                let mut due = std::mem::take(&mut self.due_scratch);
                due.clear();
                self.wheel.advance(now, &mut due);
                // Protocol timers first, idle checks last, so a park
                // decision never races a timer due at the same instant.
                for pass in 0..2 {
                    for &(_, key) in &due {
                        match decode_key(key) {
                            (group, Some((proc, kind))) if pass == 0 => {
                                self.step_engine(proc, group, |e, out| e.on_timer(kind, out));
                            }
                            (group, None) if pass == 1 => self.idle_check(group),
                            _ => {}
                        }
                    }
                }
                self.due_scratch = due;
            }
            Ev::ClientStart { client } => {
                if self.clients[client].lane.outstanding().is_none() {
                    self.issue_next(client);
                }
            }
            Ev::Nudge { client, nudge } => {
                let c = &self.clients[client];
                if c.nudge == nudge && c.lane.outstanding().is_some() {
                    self.resubmit(client);
                }
            }
            Ev::Reconfig { idx } => {
                let admin = self.workload.clients;
                if self.clients[admin].lane.outstanding().is_some() {
                    self.admin_queue.push_back(idx);
                } else {
                    self.issue_admin(idx);
                }
            }
        }
    }

    /// Drains the post-dispatch work queues (commit-point router updates,
    /// client responses — which may step further engines), then flushes
    /// the coalesced frames of this instant and re-arms the wheel event.
    fn settle(&mut self) {
        loop {
            if let Some((proc, op)) = self.pending_reconfigs.pop_front() {
                self.apply_reconfig(proc, op);
                continue;
            }
            if let Some(resp) = self.resp_queue.pop_front() {
                self.handle_response(resp);
                continue;
            }
            break;
        }
        self.flush_frames();
        self.rearm_wheel();
    }

    // ------------------------------------------------------------------
    // Engine stepping and effects
    // ------------------------------------------------------------------

    fn step_engine<F>(&mut self, proc: u64, group: u32, f: F)
    where
        F: FnOnce(&mut P, &mut Actions<P::Message>),
    {
        let now = self.sim.now();
        let site = (GroupId(group), NodeId(proc));
        let Some(mut out) = self.driver.step(site, Some(now), f) else {
            return;
        };
        self.process_actions(proc, group, now, &mut out);
        self.driver.recycle(out);
    }

    /// Performs one step's effects, draining `out` (every `Vec` keeps its
    /// capacity for the next step).
    fn process_actions(
        &mut self,
        proc: u64,
        group: u32,
        now: SimTime,
        out: &mut Actions<P::Message>,
    ) {
        if !out.persists.is_empty() {
            let slot = self.driver.slots.get_mut(&(GroupId(group), NodeId(proc)));
            let stable = &mut slot.expect("a stepped replica has a slot").state;
            stable.apply_all(out.persists.iter());
        }

        for t in out.timers.drain(..) {
            match t {
                TimerCmd::Set { kind, after } => {
                    self.wheel
                        .schedule(timer_key(proc, group, kind), now + after);
                    self.metrics.timers_set += 1;
                }
                TimerCmd::Cancel { kind } => {
                    if self.wheel.cancel(&timer_key(proc, group, kind)) {
                        self.metrics.timers_cancelled += 1;
                    }
                }
            }
        }

        for (to, msg) in out.sends.drain(..) {
            let to = to.as_u64();
            assert!(to < self.procs, "groups replicate across procs 0..procs");
            self.out_buf[(proc * self.procs + to) as usize].push(GroupId(group), msg);
        }

        for c in out.commits.drain(..) {
            if let Payload::Write { data, .. } = &c.entry.payload {
                if let Some(op) = ReconfigOp::decode_payload(data) {
                    self.pending_reconfigs.push_back((proc, op));
                }
            }
        }

        for o in out.observations.drain(..) {
            match o {
                Observation::ElectionStarted { .. } => self.metrics.elections += 1,
                Observation::BecameLeader { .. } => self.metrics.leader_changes += 1,
                Observation::ClientResponse {
                    session,
                    seq,
                    outcome,
                } => self
                    .resp_queue
                    .push_back((proc, group, session, seq, outcome)),
                _ => {}
            }
        }
    }

    fn flush_frames(&mut self) {
        let now = self.sim.now();
        let in_window = self.in_window(now);
        for slot in 0..self.out_buf.len() {
            if self.out_buf[slot].is_empty() {
                continue;
            }
            let spare = self.free_frames.pop().unwrap_or_default();
            let env = std::mem::replace(&mut self.out_buf[slot], ShardEnvelope::from_frames(spare));
            let (from, to) = (slot as u64 / self.procs, slot as u64 % self.procs);
            let bytes = wire::Message::wire_size(&env);
            match self
                .net
                .judge(NodeId(from), NodeId(to), bytes, &mut self.net_rng)
            {
                Verdict::Deliver { after } => {
                    if in_window {
                        self.metrics.frames_window += 1;
                        self.metrics.group_msgs_window += env.len() as u64;
                    }
                    for f in &env.frames {
                        if let Some(ctl) = self.groups.get_mut(&f.group.as_u32()) {
                            ctl.inflight += 1;
                        }
                    }
                    self.sim.schedule_after(
                        after,
                        Ev::Frame {
                            from: NodeId(from),
                            to: NodeId(to),
                            env,
                        },
                    );
                }
                Verdict::Drop { .. } => {
                    let mut frames = env.frames;
                    frames.clear();
                    self.free_frames.push(frames);
                }
            }
        }
    }

    /// Moves the wheel event to the wheel's next deadline. An event already
    /// at that instant stays put, keeping its sequence number (and so its
    /// place among same-instant events); otherwise it re-arms in place.
    fn rearm_wheel(&mut self) {
        match (self.wheel.next_deadline(), self.wheel_armed) {
            (Some(next), Some(id)) if self.sim.time_of(id) == Some(next) => {}
            (Some(next), Some(id)) => {
                let id = self.sim.reschedule(id, next);
                self.wheel_armed = Some(id.expect("the wheel event is pending"));
            }
            (Some(next), None) => self.wheel_armed = Some(self.sim.schedule_at(next, Ev::Wheel)),
            (None, Some(id)) => {
                self.sim.cancel(id);
                self.wheel_armed = None;
            }
            (None, None) => {}
        }
    }

    // ------------------------------------------------------------------
    // Groups: creation and hibernation
    // ------------------------------------------------------------------

    fn create_group(&mut self, g: u32) {
        let now = self.sim.now();
        let ctl = GroupCtl {
            last_client: now,
            ..GroupCtl::default()
        };
        if self.idle_after > SimDuration::ZERO {
            self.wheel.schedule(idle_key(g), now + self.idle_after);
        }
        self.groups.insert(g, ctl);
        for proc in 0..self.procs {
            let rng = self
                .engine_rng
                .split_indexed("engine", ((g as u64) << 20) | proc);
            let eng = (self.factory)(GroupId(g), NodeId(proc), &self.config, rng);
            self.driver
                .insert((GroupId(g), NodeId(proc)), eng, StableState::new());
        }
        for proc in 0..self.procs {
            self.step_engine(proc, g, |e, out| e.bootstrap(out));
        }
    }

    /// Wakes group `g` if it is parked: its replicas' timers resume with
    /// what they had left.
    fn wake_if_parked(&mut self, g: u32) {
        let now = self.sim.now();
        let Some(ctl) = self.groups.get_mut(&g).filter(|c| c.parked) else {
            return;
        };
        ctl.parked = false;
        ctl.last_client = now;
        let timers = std::mem::take(&mut ctl.parked_timers);
        for (proc, kind, remaining) in timers {
            self.wheel
                .schedule(timer_key(proc, g, kind), now + remaining);
        }
        if self.idle_after > SimDuration::ZERO {
            self.wheel.schedule(idle_key(g), now + self.idle_after);
        }
        self.metrics.unparks += 1;
    }

    fn idle_check(&mut self, g: u32) {
        if self.idle_after == SimDuration::ZERO {
            return;
        }
        let now = self.sim.now();
        let Some(ctl) = self.groups.get(&g) else {
            return;
        };
        if ctl.parked {
            return;
        }
        let quiet_for = now.saturating_since(ctl.last_client);
        let client_busy = ctl.outstanding > 0 || quiet_for < self.idle_after;
        if client_busy || !self.leadership_settled(g) {
            self.wheel.schedule(idle_key(g), now + self.idle_after);
            return;
        }
        if ctl.inflight > 0 {
            // Only frames in flight stand between this group and parking.
            // Those windows are sub-millisecond, but a group whose
            // heartbeat phase straddles the check instant would stay
            // "busy" at *every* check — re-check shortly after the frames
            // land instead of a full idle period later.
            self.wheel
                .schedule(idle_key(g), now + SimDuration::from_millis(7));
            return;
        }
        // Park: strip every replica's timers, recording remainders.
        let mut parked_timers = Vec::new();
        for proc in 0..self.procs {
            for k in 0..TimerKind::COUNT {
                let kind = TimerKind::from_index(k).expect("k < COUNT");
                let key = timer_key(proc, g, kind);
                if let Some(deadline) = self.wheel.deadline_of(&key) {
                    self.wheel.cancel(&key);
                    parked_timers.push((proc, kind, deadline.saturating_since(now)));
                }
            }
        }
        let ctl = self.groups.get_mut(&g).expect("checked above");
        ctl.parked = true;
        ctl.parked_timers = parked_timers;
        self.metrics.parks += 1;
    }

    fn leadership_settled(&self, g: u32) -> bool {
        let mut leaders = 0;
        let mut quiet = 0;
        for proc in 0..self.procs {
            let Some(eng) = self.engine(GroupId(g), NodeId(proc)) else {
                return false;
            };
            if eng.is_settled_leader() {
                leaders += 1;
            } else if eng.is_quiet_follower() {
                quiet += 1;
            }
        }
        leaders == 1 && quiet == self.procs - 1
    }

    // ------------------------------------------------------------------
    // Reconfiguration
    // ------------------------------------------------------------------

    /// Queues a routing change for submission at `at` through the owning
    /// group's log. Call before `run_until` passes `at`.
    pub fn schedule_reconfig(&mut self, at: SimTime, op: ReconfigOp) {
        let idx = self.reconfig_script.len();
        self.reconfig_script.push(op);
        self.sim.schedule_at(at, Ev::Reconfig { idx });
    }

    fn apply_reconfig(&mut self, proc: u64, op: ReconfigOp) {
        match self.routers[proc as usize].apply(&op) {
            Ok(()) => {
                self.metrics.reconfigs_applied += 1;
                let target = match op {
                    ReconfigOp::SplitGroup { new_group, .. } => new_group,
                    ReconfigOp::MoveRange { to, .. } => to,
                };
                if !self.groups.contains_key(&target.as_u32()) {
                    self.create_group(target.as_u32());
                }
            }
            Err(_) => self.metrics.reconfigs_rejected += 1,
        }
    }

    fn issue_admin(&mut self, idx: usize) {
        let admin = self.workload.clients;
        let op = self.reconfig_script[idx];
        let gateway = self.clients[admin].gateway;
        let Some(src) = op.source_group(&self.routers[gateway as usize]) else {
            // Stale against the gateway's current table: drop it.
            self.metrics.reconfigs_rejected += 1;
            if let Some(next) = self.admin_queue.pop_front() {
                self.issue_admin(next);
            }
            return;
        };
        let data = op.encode_payload();
        self.submit_op(admin, src.as_u32(), data);
    }

    // ------------------------------------------------------------------
    // Clients
    // ------------------------------------------------------------------

    fn issue_next(&mut self, client: usize) {
        let rank = self.zipf.sample(&mut self.wl_rng) as usize;
        let key_id = self.key_ids[rank];
        let key = key_id.to_be_bytes();
        let gateway = self.clients[client].gateway;
        let group = self.routers[gateway as usize].assign(&key).as_u32();
        // The key, zero-padded: an exact-length iterator, so one allocation.
        let len = self.workload.payload_bytes.max(8);
        let data = key
            .into_iter()
            .chain(std::iter::repeat(0))
            .take(len)
            .collect();
        self.submit_op(client, group, data);
    }

    fn submit_op(&mut self, client: usize, group: u32, data: Bytes) {
        let now = self.sim.now();
        let c = &mut self.clients[client];
        c.issued_at = now;
        let op = ClientOp::Write(data);
        c.lane.issue(GroupId(group), op, &mut self.driver.safety);
        if let Some(ctl) = self.groups.get_mut(&group) {
            ctl.outstanding += 1;
            ctl.last_client = now;
        }
        self.wake_if_parked(group);
        self.push_request(client);
        self.arm_nudge(client, self.workload.op_timeout);
    }

    fn push_request(&mut self, client: usize) {
        let c = &self.clients[client];
        let (group, req) = c.lane.outstanding().expect("submitting an op");
        let (gateway, req) = (c.gateway, req.clone());
        self.step_engine(gateway, group.as_u32(), |e, o| e.on_client_request(req, o));
    }

    fn arm_nudge(&mut self, client: usize, after: SimDuration) {
        let c = &mut self.clients[client];
        c.nudge += 1;
        let nudge = c.nudge;
        self.sim.schedule_after(after, Ev::Nudge { client, nudge });
    }

    fn resubmit(&mut self, client: usize) {
        let out = self.clients[client].lane.outstanding();
        let group = out.expect("resubmitting an op in flight").0.as_u32();
        self.metrics.retries += 1;
        if let Some(ctl) = self.groups.get_mut(&group) {
            ctl.last_client = self.sim.now();
        }
        self.wake_if_parked(group);
        self.push_request(client);
        self.arm_nudge(client, self.workload.op_timeout);
    }

    fn handle_response(&mut self, resp: (u64, u32, SessionId, u64, ClientOutcome)) {
        let (_proc, group, session, seq, outcome) = resp;
        let Some(&client) = self.session_owner.get(&session.as_u64()) else {
            return;
        };
        // Every engine the fabric hosts acknowledges a write at its Global
        // commit.
        let lane = &mut self.clients[client].lane;
        let safety = &mut self.driver.safety;
        match lane.settle(GroupId(group), seq, &outcome, LogScope::Global, safety) {
            Settled::Stale => {}
            Settled::Retry => self.arm_nudge(client, self.workload.retry_backoff),
            Settled::Done => {
                let count = outcome != ClientOutcome::SessionExpired;
                self.complete_op(client, group, count);
            }
        }
    }

    fn complete_op(&mut self, client: usize, group: u32, count: bool) {
        let now = self.sim.now();
        if let Some(ctl) = self.groups.get_mut(&group) {
            ctl.outstanding = ctl.outstanding.saturating_sub(1);
        }
        if count {
            self.metrics.completed_total += 1;
            *self.metrics.per_group_completed.entry(group).or_insert(0) += 1;
            if self.in_window(now) {
                let issued_at = self.clients[client].issued_at;
                self.metrics.completed_window += 1;
                self.metrics.latency_window_us += now.saturating_since(issued_at).as_micros();
            }
        }
        if self.clients[client].is_admin {
            // Every op the admin client issues is a scripted reconfig.
            if let Some(next) = self.admin_queue.pop_front() {
                self.issue_admin(next);
            }
        } else {
            self.issue_next(client);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{Consistency, LogIndex};

    #[test]
    fn completions_reach_the_checker_in_their_group() {
        let workload = WorkloadSpec {
            clients: 4,
            ..WorkloadSpec::default()
        };
        let cfg = ShardConfig {
            groups: 2,
            workload,
            ..ShardConfig::default()
        };
        let mut runner = ShardRunner::new(cfg, Vec::new(), raft_factory(Timing::lan()));
        runner.run_until(SimTime::from_secs(8));
        let busy = runner.metrics().per_group_completed.keys().next().copied();
        let busy = GroupId(busy.expect("some op completed"));
        // A linearizable read answered at floor 0 falls below the writes
        // completed in its own group, and below nothing in an idle one.
        let floor = ClientOutcome::ReadOk {
            scope: LogScope::Global,
            commit_floor: LogIndex::ZERO,
        };
        let safety = &mut runner.driver.safety;
        let mut reader = ClientLane::new(SessionId::client(1_000));
        for (group, violations) in [(busy, 1), (GroupId(99), 1)] {
            let lin = ClientOp::Read(Consistency::Linearizable);
            let seq = reader.issue(group, lin, safety).seq;
            reader.settle(group, seq, &floor, LogScope::Global, safety);
            assert_eq!(safety.lin_violations().len(), violations, "{group}");
        }
    }

    #[test]
    fn wheel_keys_round_trip_through_decode() {
        let procs = ShardConfig::default().procs;
        for group in [0, u32::MAX] {
            assert_eq!(decode_key(idle_key(group)), (group, None));
            for proc in [0, procs - 1] {
                for kind in (0..TimerKind::COUNT).map(|i| TimerKind::from_index(i).unwrap()) {
                    assert_eq!(
                        decode_key(timer_key(proc, group, kind)),
                        (group, Some((proc, kind)))
                    );
                }
            }
        }
    }
}
