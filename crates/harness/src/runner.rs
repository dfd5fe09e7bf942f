//! The time-driven simulation runner.
//!
//! Hosts a set of protocol nodes on the deterministic event simulator:
//! messages travel through the simulated network ([`simnet::Network`]),
//! timers are armed/cancelled per the sans-IO contract, persistence commands
//! apply to the simulated disk **before** messages are released
//! (write-ahead), and a fault injector executes scheduled silent leaves,
//! crashes, recoveries, and partitions.
//!
//! The workload is a set of **closed-loop session clients** (one per
//! proposer site, as in the paper's evaluation §VI, extended with the
//! client contract): each client holds a session, issues typed
//! [`wire::ClientRequest`]s — writes, or reads at a configurable mix and
//! consistency level — waits for the typed [`wire::ClientOutcome`], retries
//! the same `(session, seq)` on `Redirect`/`Retry` outcomes or after a
//! timeout (exactly-once writes make this safe), and only then moves to the
//! next operation. Every `Linearizable` read is checked online by the
//! [`SafetyChecker`]: its returned commit floor must not precede any
//! previously completed write or read.

use std::collections::BTreeMap;

use bytes::Bytes;
use des::{EventId, IdMap, IdSet, SimDuration, SimRng, SimTime, Simulation};
use rand::RngCore;
use simnet::{Network, Verdict};
use storage::{PersistBatch, SimDisk, StableState};
use wire::{
    Actions, ClientOp, ClientOutcome, ClientRequest, Consistency, ConsensusProtocol, Driver,
    LogScope, Message, NodeId, Observation, Payload, SessionId, TimerKind,
};

use crate::{Metrics, SafetyChecker};

/// A scheduled fault.
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// The site disappears without announcement (§IV-D "silent leave").
    SilentLeave(NodeId),
    /// The site crashes; stable storage survives.
    Crash(NodeId),
    /// A crashed site restarts from stable storage.
    Recover(NodeId),
    /// The network splits into two sides.
    Partition {
        /// One side of the split.
        side_a: Vec<NodeId>,
        /// The other side.
        side_b: Vec<NodeId>,
    },
    /// All partitions heal.
    Heal,
}

/// Events flowing through the simulator.
#[derive(Debug)]
enum SimEvent<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, kind: TimerKind },
    Propose { node: NodeId },
    /// Client-level retry: resubmit the outstanding `(session, seq)` at
    /// `node` if `seq` is still the one in flight.
    ClientRetry { node: NodeId, seq: u64 },
    /// Pipelined apply: drain `node`'s apply queue as its own stage, after
    /// the step that advanced the commit index has released its effects.
    ApplyDrain { node: NodeId },
    Fault(FaultAction),
}

/// Workload configuration: closed-loop session clients (each waits for its
/// previous operation's typed outcome before issuing the next, §VI).
#[derive(Clone, Debug)]
pub struct Workload {
    /// The proposing sites (one client session per site).
    pub proposers: Vec<NodeId>,
    /// Payload size per write.
    pub payload_bytes: usize,
    /// Stop after this many completed client operations in total (None =
    /// run until the deadline).
    pub target_commits: Option<u64>,
    /// When clients start.
    pub start_at: SimTime,
    /// Fraction of operations that are reads (0.0 = the pre-session
    /// all-write workload; drawn per operation).
    pub read_ratio: f64,
    /// Consistency level of the mixed-in reads.
    pub read_consistency: Consistency,
    /// After the target is reached, each client issues one final
    /// `Linearizable` read and the run ends when they complete — the
    /// "read your writes back" handshake the examples demonstrate.
    pub final_read: bool,
    /// Client-side retry timeout: an unanswered `(session, seq)` is
    /// resubmitted after this long (safe for writes by session dedup).
    pub client_timeout: SimDuration,
    /// Each client's first operation is an explicit [`ClientOp::Register`]
    /// (consuming seq 1) before any write or read. Combined with a
    /// partition fault covering the workload start, this produces the
    /// thundering-herd reconnect shape: every client's registration and
    /// first op retry together the moment the partition heals. `false`
    /// keeps the pre-session workloads byte-identical.
    pub register_sessions: bool,
}

impl Workload {
    /// An all-write workload with the default 2 s client retry timeout.
    pub fn writes_only(
        proposers: Vec<NodeId>,
        payload_bytes: usize,
        target_commits: Option<u64>,
        start_at: SimTime,
    ) -> Self {
        Workload {
            proposers,
            payload_bytes,
            target_commits,
            start_at,
            read_ratio: 0.0,
            read_consistency: Consistency::Linearizable,
            final_read: false,
            client_timeout: SimDuration::from_secs(2),
            register_sessions: false,
        }
    }
}

/// Runner-level configuration.
#[derive(Clone, Debug)]
pub struct RunnerConfig {
    /// Seed for network and workload randomness.
    pub seed: u64,
    /// Which log scope acknowledges a client write: `Global` for
    /// classic/Fast Raft, `Local` for C-Raft (clients are acknowledged at
    /// local commit, §V-A).
    pub ack_scope: LogScope,
    /// Samples completing before this instant are excluded from stats.
    pub measure_from: SimTime,
    /// Maximum injected clock offset across sites. Every node's local clock
    /// reads `sim_now + offset` with offsets spread evenly over
    /// `[0, clock_skew]` by node rank — the adversarial extreme where one
    /// clock runs at the bound ahead of another. Leases stay safe as long
    /// as this does not exceed the `Timing::max_clock_skew` the protocol
    /// was configured to tolerate; the skew-sweep tests push it past that
    /// bound on purpose.
    pub clock_skew: SimDuration,
    /// Simulated cost of one fsync boundary. A protocol step that persisted
    /// anything holds its outgoing messages back by this much (write-ahead:
    /// sends release only once the persist is durable) — once per step under
    /// group commit, once per command in the unbatched twin. `ZERO` keeps
    /// every trace byte-identical to the latency-free model.
    pub disk_fsync_latency: SimDuration,
    /// Apply each persist command as its own fsync boundary instead of
    /// group-committing a step's commands into one batch. The honest twin
    /// for write-path measurements: same durable contents, N boundaries
    /// (and N × `disk_fsync_latency`) where group commit pays one.
    pub unbatched_persists: bool,
    /// Seed-driven slow-disk spikes layered on top of `disk_fsync_latency`:
    /// each fsync boundary may stall for an extra sampled duration, holding
    /// that step's outgoing messages back accordingly (write-ahead). `None`
    /// — the default — draws no randomness and keeps traces byte-identical.
    pub persist_stalls: Option<simnet::PersistStalls>,
}

/// A node's armed timer per [`TimerKind`], dense-indexed by discriminant.
/// A fixed array instead of a `HashMap<TimerKind, EventId>`: timer
/// set/cancel is on the per-step hot path (every heartbeat re-arm paid an
/// allocation + hash), and eleven slots fit in a cache line.
type Timers = [Option<EventId>; TimerKind::COUNT];

/// One client operation in flight at its gateway.
#[derive(Debug)]
struct OutstandingOp {
    session: SessionId,
    seq: u64,
    op: ClientOp,
    /// Set for the end-of-run linearizable read.
    is_final: bool,
}

impl OutstandingOp {
    /// The request to (re)submit at the gateway.
    fn request(&self) -> ClientRequest {
        ClientRequest {
            session: self.session,
            seq: self.seq,
            op: self.op.clone(),
        }
    }
}

/// Factory rebuilding a node from persisted state after a crash.
type RecoveryFn<P> = Box<dyn Fn(NodeId, &StableState) -> P>;

/// A running simulation of one protocol deployment.
pub struct Runner<P: ConsensusProtocol> {
    sim: Simulation<SimEvent<P::Message>>,
    net: Network,
    disk: SimDisk,
    /// The nodes (each with its [`Timers`]), the safety checker and the
    /// recycled `Actions` buffers.
    driver: Driver<NodeId, P, Timers>,
    /// Per-node clock offset (see [`RunnerConfig::clock_skew`]); a node's
    /// local clock is stamped `sim_now + offset` before every handler.
    clock_offsets: BTreeMap<NodeId, SimDuration>,
    metrics: Metrics,
    workload: Workload,
    cfg: RunnerConfig,
    recover_fn: Option<RecoveryFn<P>>,
    net_rng: SimRng,
    payload_rng: SimRng,
    /// Per-operation read/write coin flips (untouched when `read_ratio` is
    /// zero, so all-write runs are bit-identical to the pre-read harness).
    op_rng: SimRng,
    /// Outstanding closed-loop operation per client.
    outstanding: IdMap<NodeId, OutstandingOp>,
    /// Last write seq per client (survives node crashes — the client
    /// outlives its gateway). Registrations and writes consume seqs.
    next_seq: BTreeMap<NodeId, u64>,
    /// Last read ordinal per client: reads are numbered apart from writes
    /// (see [`wire::read_id`]) and consume no seq.
    next_read: BTreeMap<NodeId, u64>,
    /// Clients that already issued their final linearizable read.
    final_issued: IdSet<NodeId>,
    /// Nodes with an [`SimEvent::ApplyDrain`] already in flight (pipelined
    /// apply schedules at most one drain per node at a time).
    drains_scheduled: IdSet<NodeId>,
    /// Dedicated stream for [`RunnerConfig::persist_stalls`] (drawn from
    /// only when stalls are configured, so stall-free runs are unchanged).
    stall_rng: SimRng,
    /// Scratch buffer for duplicate-copy delays from
    /// [`Network::judge_chaos`]; reused across sends.
    chaos_extras: Vec<SimDuration>,
    final_done: u64,
    completed: u64,
}

impl<P: ConsensusProtocol> Runner<P> {
    /// Builds a runner over `nodes`, bootstrapping each (initial timers
    /// armed at t = 0) and scheduling the workload and `faults`.
    pub fn new(
        nodes: impl IntoIterator<Item = P>,
        net: Network,
        workload: Workload,
        faults: Vec<(SimTime, FaultAction)>,
        cfg: RunnerConfig,
        safety: SafetyChecker,
    ) -> Self {
        let mut sim = Simulation::new(cfg.seed);
        let net_rng = sim.rng().split("net");
        let payload_rng = sim.rng().split("payload");
        let op_rng = sim.rng().split("ops");
        let stall_rng = sim.rng().split("stalls");
        let mut driver = Driver::new(safety);
        for n in nodes {
            driver.insert(n.id(), n, [None; TimerKind::COUNT]);
        }
        let mut runner = Runner {
            sim,
            net,
            disk: SimDisk::new(),
            driver,
            clock_offsets: BTreeMap::new(),
            metrics: Metrics::new(cfg.measure_from),
            workload,
            cfg,
            recover_fn: None,
            net_rng,
            payload_rng,
            op_rng,
            outstanding: IdMap::default(),
            next_seq: BTreeMap::new(),
            next_read: BTreeMap::new(),
            final_issued: IdSet::default(),
            drains_scheduled: IdSet::default(),
            stall_rng,
            chaos_extras: Vec::new(),
            final_done: 0,
            completed: 0,
        };
        let ids: Vec<NodeId> = runner.driver.slots.keys().copied().collect();
        // Spread node clocks evenly over [0, clock_skew] by rank: the first
        // node reads true simulation time, the last runs the full skew
        // ahead, so the worst pairwise disagreement equals the configured
        // bound exactly.
        let skew_us = runner.cfg.clock_skew.as_micros();
        if skew_us > 0 && ids.len() > 1 {
            let span = (ids.len() - 1) as u64;
            for (rank, id) in ids.iter().enumerate() {
                let offset = SimDuration::from_micros(skew_us * rank as u64 / span);
                runner.clock_offsets.insert(*id, offset);
            }
        }
        for id in ids {
            runner.with_node(id, |n, out| n.bootstrap(out));
        }
        for proposer in runner.workload.proposers.clone() {
            let at = runner.workload.start_at;
            runner
                .sim
                .schedule_at(at, SimEvent::Propose { node: proposer });
        }
        for (at, fault) in faults {
            runner.sim.schedule_at(at, SimEvent::Fault(fault));
        }
        runner
    }

    /// Installs the crash-recovery factory used by [`FaultAction::Recover`].
    pub fn set_recovery(&mut self, f: impl Fn(NodeId, &StableState) -> P + 'static) {
        self.recover_fn = Some(Box::new(f));
    }

    /// Runs until `deadline` or until the workload target is reached.
    pub fn run_until(&mut self, deadline: SimTime) {
        while !self.workload_done() {
            let Some(firing) = self.sim.next_event_before(deadline) else {
                break;
            };
            self.dispatch(firing.id, firing.event);
        }
    }

    /// `true` once the configured number of operations completed (plus the
    /// final linearizable reads, when enabled).
    pub fn workload_done(&self) -> bool {
        let Some(target) = self.workload.target_commits else {
            return false;
        };
        if self.completed < target {
            return false;
        }
        !self.workload.final_read || self.final_done >= self.workload.proposers.len() as u64
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The safety checker.
    pub fn safety(&self) -> &SafetyChecker {
        &self.driver.safety
    }

    /// Network statistics.
    pub fn net_stats(&self) -> &simnet::NetStats {
        self.net.stats()
    }

    /// Completed workload operations.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Read access to a node, if present and up.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.driver.slots.get(&id).filter(|s| s.up).map(|s| &s.node)
    }

    /// The disk farm (for recovery assertions).
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Client operations currently in flight (no typed outcome yet).
    /// Liveness checks assert this reaches zero once the run quiesces.
    pub fn outstanding_ops(&self) -> usize {
        self.outstanding.len()
    }

    // ------------------------------------------------------------------

    fn dispatch(&mut self, firing_id: EventId, event: SimEvent<P::Message>) {
        match event {
            SimEvent::Deliver { from, to, msg } => {
                self.with_node(to, |n, out| n.on_message(from, msg, out));
            }
            SimEvent::Timer { node, kind } => {
                // Re-arms move the armed event in place and a crash cancels
                // its node's timers, so a firing timer is the armed one.
                if let Some(slot) = self.driver.slots.get_mut(&node) {
                    let armed = slot.state[kind.index()].take();
                    debug_assert_eq!(armed, Some(firing_id), "{node:?} {kind:?}");
                }
                self.with_node(node, |n, out| n.on_timer(kind, out));
            }
            SimEvent::Propose { node } => self.issue_op(node),
            SimEvent::ClientRetry { node, seq } => self.client_retry(node, seq),
            SimEvent::ApplyDrain { node } => {
                self.drains_scheduled.remove(&node);
                self.with_node(node, |n, out| n.drain_applies(out));
            }
            SimEvent::Fault(fault) => self.apply_fault(fault),
        }
    }

    fn with_node(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Actions<P::Message>)) {
        // Stamp the node's local clock before the handler: simulation time
        // plus this node's skew offset. Nodes never read a shared clock —
        // this is the only place "now" enters the sans-IO stack.
        let now = self.sim.now();
        let local = self
            .clock_offsets
            .get(&id)
            .map_or(now, |&o| now.saturating_add(o));
        let Some((mut out, wants_drain)) = self.driver.step(id, Some(local), f) else {
            return;
        };
        // Re-entrant: `process_actions → handle_response → issue_op →
        // with_node` steps a gateway while this buffer is still draining.
        self.process_actions(id, &mut out);
        self.driver.recycle(out);
        // Pipelined apply: the handler may have advanced the commit index
        // past the applied index. Drain as a separate zero-delay stage (one
        // in-flight event per node) so the apply lands after this step's
        // effects are released. Inline mode never leaves a queue behind, so
        // no event is ever scheduled and traces stay byte-identical.
        if wants_drain && self.drains_scheduled.insert(id) {
            self.sim
                .schedule_after(SimDuration::ZERO, SimEvent::ApplyDrain { node: id });
        }
    }

    /// Performs one step's effects, draining `out` (every `Vec` keeps its
    /// capacity for the next step).
    fn process_actions(&mut self, from: NodeId, out: &mut Actions<P::Message>) {
        // Write-ahead: persistence lands before any message is released.
        // Group commit: every command a step emitted shares one fsync
        // boundary; the unbatched twin pays one boundary per command.
        let persist_cmds = out.persists.len() as u64;
        let fsync_boundaries = if persist_cmds == 0 {
            0
        } else if self.cfg.unbatched_persists {
            self.disk.apply(from, out.persists.iter());
            persist_cmds
        } else {
            let batch = PersistBatch::from_cmds(std::mem::take(&mut out.persists));
            self.disk.apply_batch(from, &batch);
            out.persists = batch.into_cmds();
            1
        };
        if fsync_boundaries > 0 {
            self.metrics.note_persists(fsync_boundaries, persist_cmds);
            // Track peak per-site log residency at every write boundary so
            // compaction wins (and their absence) are visible in reports.
            if let Some(stable) = self.disk.read(from) {
                let retained = stable.global.log.len() + stable.local.log.len();
                self.metrics.note_residency(retained as u64);
            }
        }
        // A step that persisted holds its outgoing messages until the fsync
        // completes. Timers are local bookkeeping and commit/observation
        // effects are applied state — neither waits on the disk.
        let mut persist_delay = self.cfg.disk_fsync_latency * fsync_boundaries;
        if let Some(stalls) = &self.cfg.persist_stalls {
            for _ in 0..fsync_boundaries {
                persist_delay += stalls.sample(&mut self.stall_rng);
            }
        }

        for cmd in out.timers.drain(..) {
            let slot = self.driver.slots.get_mut(&from);
            let timers = &mut slot.expect("a stepped node has a slot").state;
            match cmd {
                wire::TimerCmd::Set { kind, after } => {
                    // Re-arming in place takes the sequence number a fresh
                    // event would, so the schedule is that of cancel plus
                    // schedule.
                    let armed = &mut timers[kind.index()];
                    *armed = Some(match *armed {
                        Some(id) => self
                            .sim
                            .reschedule(id, self.sim.now() + after)
                            .expect("an armed timer is pending"),
                        None => self
                            .sim
                            .schedule_after(after, SimEvent::Timer { node: from, kind }),
                    });
                }
                wire::TimerCmd::Cancel { kind } => {
                    if let Some(old) = timers[kind.index()].take() {
                        self.sim.cancel(old);
                    }
                }
            }
        }

        let mut sent_msgs = 0u64;
        let mut sent_bytes = 0u64;
        for (to, msg) in out.sends.drain(..) {
            let size = msg.wire_size();
            sent_msgs += 1;
            sent_bytes += size as u64;
            self.chaos_extras.clear();
            match self
                .net
                .judge_chaos(from, to, size, &mut self.net_rng, &mut self.chaos_extras)
            {
                Verdict::Deliver { after } => {
                    // Duplicate copies (chaos only) ship first so the
                    // original's `msg` moves without a clone on the
                    // chaos-free path.
                    for i in 0..self.chaos_extras.len() {
                        let extra = self.chaos_extras[i];
                        self.sim.schedule_after(
                            extra + persist_delay,
                            SimEvent::Deliver {
                                from,
                                to,
                                msg: msg.clone(),
                            },
                        );
                    }
                    self.sim
                        .schedule_after(after + persist_delay, SimEvent::Deliver { from, to, msg });
                }
                Verdict::Drop { .. } => {}
            }
        }
        if sent_msgs > 0 {
            self.metrics.record_dispatch(sent_msgs, sent_bytes);
        }

        let now = self.sim.now();
        for commit in out.commits.drain(..) {
            if commit.scope == LogScope::Global {
                let items = match &commit.entry.payload {
                    Payload::Write { .. } => 1,
                    Payload::Batch(b) => b.len() as u64,
                    _ => 0,
                };
                if items > 0 {
                    self.metrics.global_commit(commit.index, items, now);
                }
            }
        }

        // A gateway has one outstanding op, so a step answers at most one;
        // a repeated answer within the step is a duplicate of the first.
        let mut response: Option<(SessionId, u64, ClientOutcome)> = None;
        for obs in out.observations.drain(..) {
            match obs {
                Observation::ClientResponse {
                    session,
                    seq,
                    outcome,
                } => {
                    // Only the response for the client's outstanding op at
                    // its own gateway advances the closed loop.
                    let is_current = self
                        .outstanding
                        .get(&from)
                        .is_some_and(|o| o.session == session && o.seq == seq);
                    if is_current && response.is_none() {
                        response = Some((session, seq, outcome));
                    }
                }
                // NOTE: Observation::SessionDuplicate fires at *every*
                // replica applying the duplicate commit; counting it here
                // would inflate the metric by the cluster size. Suppression
                // is counted once, at the gateway, when the client's retry
                // completes with a Duplicate outcome (handle_response).
                Observation::ElectionStarted { .. } => self.metrics.elections += 1,
                Observation::BecameLeader { .. } => self.metrics.leaderships += 1,
                Observation::FastTrackCommit { .. } => self.metrics.fast_commits += 1,
                Observation::ClassicTrackCommit { .. } => self.metrics.classic_commits += 1,
                Observation::MemberSuspected { .. } => self.metrics.member_suspected += 1,
                Observation::ConfigCommitted { .. } => self.metrics.config_commits += 1,
                Observation::HoleRepairTriggered { .. } => self.metrics.hole_repairs += 1,
                Observation::LogCompacted { .. } => self.metrics.compactions += 1,
                Observation::SnapshotInstalled { .. } => self.metrics.snapshot_installs += 1,
                Observation::GlobalViewGap { .. } => self.metrics.global_view_gaps += 1,
                Observation::LeaseRead { .. } => self.metrics.lease_reads += 1,
                Observation::ReadIndexRead { .. } => self.metrics.readindex_reads += 1,
                _ => {}
            }
        }
        if let Some((session, seq, outcome)) = response {
            self.handle_response(from, session, seq, outcome);
        }
    }

    /// Advances a client's closed loop on a typed outcome.
    fn handle_response(
        &mut self,
        node: NodeId,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
    ) {
        let Some(op) = self.outstanding.get(&node) else {
            return;
        };
        self.driver.safety.op_completed(self.cfg.ack_scope, session, seq, &op.op, &outcome);
        match outcome {
            ClientOutcome::Duplicate { .. } => {
                // The write took effect on an earlier attempt: done, and
                // the retry was suppressed rather than double-applied.
                self.metrics.duplicates_suppressed += 1;
                self.finish_op(node);
            }
            ClientOutcome::Committed { .. } | ClientOutcome::ReadOk { .. } => {
                self.finish_op(node);
            }
            ClientOutcome::Redirect { .. } | ClientOutcome::Retry => {
                // Not done: retry the same (session, seq) after a short
                // backoff — the gateway updated its leader hint from the
                // redirect, so the resubmission routes better. The counter
                // ticks when the resubmission actually fires (client_retry),
                // so each retry counts once.
                let backoff = SimDuration::from_millis(50);
                self.sim
                    .schedule_after(backoff, SimEvent::ClientRetry { node, seq });
            }
            ClientOutcome::Registered { .. } => {
                // Explicit session registration applied (issued as each
                // client's first op under `Workload::register_sessions`).
                self.finish_op(node);
            }
            ClientOutcome::SessionExpired => {
                // Terminal: the session idled past the TTL and its dedup
                // history is gone — re-sending the same (session, seq)
                // would loop forever. The op was *not* applied by this
                // request; a fuller client would reopen a session and
                // resubmit there. The closed-loop harness counts it
                // completed and moves on (its scenarios run with expiry
                // disabled, so this arm is exercised by unit tests only).
                self.metrics.sessions_expired += 1;
                self.finish_op(node);
            }
        }
    }

    fn finish_op(&mut self, node: NodeId) {
        let Some(op) = self.outstanding.remove(&node) else {
            return;
        };
        self.metrics.op_completed((op.session, op.seq), self.sim.now());
        self.completed += 1;
        if op.is_final {
            self.final_done += 1;
        }
        if !self.workload_done() {
            // Closed loop: issue the next operation immediately.
            self.issue_op(node);
        }
    }

    /// Client-side timeout/backoff firing: resubmit the outstanding op if
    /// `seq` is still the one in flight.
    fn client_retry(&mut self, node: NodeId, seq: u64) {
        let Some(op) = self.outstanding.get(&node) else {
            return;
        };
        if op.seq != seq || self.node(node).is_none() {
            return;
        }
        let req = op.request();
        self.metrics.client_retries += 1;
        self.submit(node, req);
    }

    /// Issues the next operation of `node`'s closed loop.
    fn issue_op(&mut self, node: NodeId) {
        if self.outstanding.contains_key(&node) {
            return;
        }
        if self.node(node).is_none() {
            return;
        }
        let target_reached = self
            .workload
            .target_commits
            .is_some_and(|t| self.completed >= t);
        let (op, is_final) = if target_reached {
            // Final phase: one linearizable read per client, if configured.
            if !self.workload.final_read || !self.final_issued.insert(node) {
                return;
            }
            (ClientOp::Read(Consistency::Linearizable), true)
        } else if self.workload.register_sessions && !self.next_seq.contains_key(&node) {
            // Session-first contract: the client opens its session before
            // any data op. Under a partition this registration is what
            // retries en masse at heal time (thundering herd).
            (ClientOp::Register, false)
        } else if self.workload.read_ratio > 0.0 && self.op_rng.chance(self.workload.read_ratio)
        {
            (ClientOp::Read(self.workload.read_consistency), false)
        } else {
            let mut payload = vec![0u8; self.workload.payload_bytes];
            self.payload_rng.fill_bytes(&mut payload);
            (ClientOp::Write(Bytes::from(payload)), false)
        };
        // Registrations and writes take the session's next seq, so its seqs
        // stay gapless; a read takes the next read id instead.
        let seq = match op {
            ClientOp::Read(_) => wire::read_id(bump(&mut self.next_read, node)),
            _ => bump(&mut self.next_seq, node),
        };
        let op = OutstandingOp {
            session: SessionId::client(node.as_u64()),
            seq,
            op,
            is_final,
        };
        let now = self.sim.now();
        self.metrics.op_started((op.session, op.seq), now);
        if matches!(op.op, ClientOp::Read(Consistency::Linearizable)) {
            self.driver.safety.read_started(op.session, op.seq);
        }
        let req = op.request();
        self.outstanding.insert(node, op);
        self.submit(node, req);
    }

    /// Hands the request to the gateway node and arms the client timeout.
    fn submit(&mut self, node: NodeId, req: ClientRequest) {
        let seq = req.seq;
        self.with_node(node, |n, out| n.on_client_request(req, out));
        let timeout = self.workload.client_timeout;
        self.sim
            .schedule_after(timeout, SimEvent::ClientRetry { node, seq });
    }

    fn apply_fault(&mut self, fault: FaultAction) {
        match fault {
            FaultAction::SilentLeave(node) | FaultAction::Crash(node) => {
                if let Some(slot) = self.driver.slots.get_mut(&node) {
                    slot.up = false;
                    for armed in &mut slot.state {
                        if let Some(id) = armed.take() {
                            self.sim.cancel(id);
                        }
                    }
                }
                self.net.set_down(node);
                // The client's op stays outstanding: a recovered gateway
                // gets the same (session, seq) resubmitted — the dedup
                // table makes that exactly-once.
            }
            FaultAction::Recover(node) => {
                let Some(factory) = &self.recover_fn else {
                    return;
                };
                let stable = self.disk.read(node).cloned().unwrap_or_default();
                let fresh = factory(node, &stable);
                if let Some(slot) = self.driver.slots.get_mut(&node) {
                    slot.node = fresh;
                    slot.up = true;
                }
                self.net.set_up(node);
                self.with_node(node, |n, out| n.bootstrap(out));
                // Restart the client loop: resubmit the in-flight op (the
                // gateway's volatile request state died with it), or start
                // fresh if none was outstanding.
                if self.workload.proposers.contains(&node) {
                    let kick = SimDuration::from_millis(100);
                    match self.outstanding.get(&node) {
                        Some(op) => {
                            let seq = op.seq;
                            self.sim
                                .schedule_after(kick, SimEvent::ClientRetry { node, seq });
                        }
                        None => {
                            self.sim.schedule_after(kick, SimEvent::Propose { node });
                        }
                    }
                }
            }
            FaultAction::Partition { side_a, side_b } => {
                self.net.partitions_mut().split(&side_a, &side_b);
            }
            FaultAction::Heal => {
                self.net.partitions_mut().heal_all();
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
