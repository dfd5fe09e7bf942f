//! C-Raft: hierarchical consensus for globally distributed systems (§V).
//!
//! Every site runs intra-cluster Fast Raft on a **local log**. The site
//! currently leading its cluster additionally participates in inter-cluster
//! Fast Raft over the **global log**, whose membership is the set of cluster
//! leaders. Locally committed data entries are accumulated into batches
//! (default: 10, as in §VI-C) and proposed to the global log.
//!
//! ## Global state entries (§V-B)
//!
//! Every insert into a local leader's global log — from a proposer
//! broadcast, the global decision loop, or a global AppendEntries — is
//! *gated*: the leader first commits a [`wire::GlobalState`] entry in its
//! cluster's local log recording `(global index, global entry, global
//! commit)`. Only after that local commit does the global-level action
//! (vote, fast-quorum check, ack) proceed. A successor local leader
//! reconstructs the inter-cluster state from these entries, so a leader
//! crash never loses the cluster's view of the global log.
//!
//! ## Leader changes
//!
//! A newly elected local leader (a) rebuilds its global log from the local
//! log's global state entries, (b) re-registers its cluster's possibly
//! uncommitted batches for retry, and (c) joins the global configuration via
//! a global join request (§V-C); the global leader's member timeout evicts
//! the crashed predecessor.

use std::rc::Rc;

use des::{IdMap, IdSet, SimRng};
use raft::{Role, Timing};
use storage::{ScopeState, StableState};
use wire::{
    Actions, BatchItem, ClientOp, ClientOutcome, ClientRequest, ClusterId, Configuration,
    ConsensusProtocol, Consistency, EntryId, GlobalState, LogEntry, LogIndex, LogScope, NodeId,
    Observation, Payload, Recycler, SessionId, Term, TimerCmd, TimerKind,
};

use crate::engine::{FastRaftNode, ProposalMode};
use crate::gate::{GateRequest, GateToken};
use crate::message::{CRaftMessage, FastRaftMessage};

/// The global engine's base timer kinds and the `Global*` names C-Raft arms
/// them under, so one site's two levels never share a timer.
const GLOBAL_TIMERS: [(TimerKind, TimerKind); 5] = [
    (TimerKind::Election, TimerKind::GlobalElection),
    (TimerKind::Heartbeat, TimerKind::GlobalHeartbeat),
    (TimerKind::LeaderTick, TimerKind::GlobalLeaderTick),
    (TimerKind::ProposalRetry, TimerKind::GlobalProposalRetry),
    (TimerKind::JoinRetry, TimerKind::GlobalJoinRetry),
];

/// The `Global*` name of a timer the global engine arms.
fn global_timer(base: TimerKind) -> TimerKind {
    GLOBAL_TIMERS
        .iter()
        .find(|(b, _)| *b == base)
        .map_or(base, |&(_, global)| global)
}

/// The global engine's base kind of a `Global*` timer; `None` for a timer
/// of the local level.
fn base_timer(kind: TimerKind) -> Option<TimerKind> {
    GLOBAL_TIMERS
        .iter()
        .find(|(_, g)| *g == kind)
        .map(|&(base, _)| base)
}

/// Tuning parameters for a C-Raft deployment.
#[derive(Clone, Debug)]
pub struct CRaftConfig {
    /// The cluster this site belongs to.
    pub cluster: ClusterId,
    /// Timing for intra-cluster consensus (paper: 100 ms heartbeat).
    pub local_timing: Timing,
    /// Timing for inter-cluster consensus (paper: 500 ms heartbeat).
    pub global_timing: Timing,
    /// Locally committed entries per global batch (paper §VI-C: 10).
    pub batch_size: usize,
    /// Byte budget per global batch: a batch is cut before the item whose
    /// encoded size would push it past this many bytes, so one wide-area
    /// proposal never exceeds the link budget — except a single over-sized
    /// item, which ships alone (0 disables the byte cap). The budget counts
    /// item bytes only; the Batch/GlobalState/LogEntry wrappers add ~70
    /// bytes on top, so a batch cut exactly at a
    /// [`wire::MAX_BYTES_PER_APPEND`]-sized budget can still exceed one
    /// AppendEntries byte budget by the wrapper overhead and ship via the
    /// budget's always-admit-first rule. Set this a little below that
    /// constant when that matters.
    pub max_batch_bytes: usize,
    /// Flush a partial batch after this many milliseconds of inactivity
    /// (0 disables time-based flushing).
    pub batch_flush_ms: u64,
    /// Snapshot threshold for the **global** log, overriding
    /// `global_timing.snapshot_threshold`: once a site's retained decided
    /// global prefix exceeds this many entries it compacts into a snapshot,
    /// and a cluster leader rejoining the global level past the horizon
    /// catches up by snapshot transfer. The local log keeps using
    /// `local_timing.snapshot_threshold`. `0` disables global compaction.
    pub global_snapshot_threshold: u64,
    /// How batches are proposed at the global level. The default,
    /// [`ProposalMode::LeaderForward`], serializes index assignment at the
    /// global leader so concurrent per-cluster batches never collide;
    /// [`ProposalMode::Broadcast`] is the paper-literal fast track, kept as
    /// an ablation (it collapses under many-cluster contention — Ext-A).
    pub global_proposal_mode: ProposalMode,
}

impl CRaftConfig {
    /// The paper's evaluation configuration for a given cluster.
    pub fn paper(cluster: ClusterId) -> Self {
        CRaftConfig {
            cluster,
            local_timing: Timing::lan(),
            global_timing: Timing::wan(),
            batch_size: 10,
            max_batch_bytes: wire::MAX_BYTES_PER_APPEND,
            batch_flush_ms: 1000,
            global_snapshot_threshold: Timing::wan().snapshot_threshold,
            global_proposal_mode: ProposalMode::LeaderForward,
        }
    }

    /// The global-level timing with the global snapshot threshold applied.
    fn effective_global_timing(&self) -> Timing {
        Timing {
            snapshot_threshold: self.global_snapshot_threshold,
            ..self.global_timing
        }
    }
}

/// The inter-cluster half of a cluster leader.
#[derive(Debug)]
struct GlobalSide {
    engine: FastRaftNode,
    /// Local proposal id of a pending global-state entry → the gate token
    /// to resume once it commits locally.
    waiting: IdMap<EntryId, GateToken>,
    /// The global entries this leader wrapped in global-state entries,
    /// reused oldest first once every log and stable state holding one has
    /// compacted past it.
    states: Recycler<LogEntry>,
}

/// A C-Raft site (§V).
#[derive(Debug)]
pub struct CRaftNode {
    id: NodeId,
    cfg: CRaftConfig,
    local: FastRaftNode,
    global: Option<GlobalSide>,
    /// Bootstrap membership of the global level (the designated initial
    /// leaders of each cluster).
    global_bootstrap: Configuration,
    /// Cached global-level persistent identity for (re)activation.
    global_term: Term,
    global_voted_for: Option<NodeId>,
    /// Persisted global-log snapshot inherited at recovery, handed to the
    /// global engine on (re)activation.
    global_snapshot: Option<wire::Snapshot>,
    /// Persisted global proposal-sequence floor: the reconstruction resumes
    /// the global engine's `EntryId` counter here so batches proposed after
    /// a crash or reactivation never reuse a pre-crash id.
    global_seq_floor: u64,
    /// Locally committed data entries awaiting batching (leader only).
    batch_buf: Vec<(LogIndex, BatchItem)>,
    batch_seq: u64,
    /// Highest global commit index this site has learned (from its own
    /// global engine or from global state entries).
    global_commit_seen: LogIndex,
    /// Linearizable (global) reads routed through this cluster leader:
    /// `(session, seq)` → the gateway awaiting the answer.
    global_read_waiters: IdMap<(SessionId, u64), NodeId>,
    /// Designated initial leaders race their first election quickly so the
    /// bootstrap global configuration (which names them) actually forms.
    boost_first_election: bool,
    /// Cleared effect buffers for the inner engines, capacity retained. The
    /// node is the engines' embedding: each inner step takes a buffer, a
    /// `forward_*` function drains it into the outer one, and it comes back
    /// here — nested steps (a gate request proposing locally from inside a
    /// global step) just take another.
    free_actions: Vec<Actions<FastRaftMessage>>,
    /// Cleared gate-request buffers, reused the same way: a global step's
    /// requests move into one before they are processed, so the nested
    /// steps processing them drain only newer requests, into another.
    free_gate_reqs: Vec<Vec<GateRequest>>,
}

impl CRaftNode {
    /// Creates a C-Raft site.
    ///
    /// `local_members` is the bootstrap membership of this site's cluster;
    /// `global_bootstrap` names the designated initial leader of every
    /// cluster (the initial global configuration). A site that later wins
    /// its cluster's election joins the global level dynamically.
    ///
    /// # Panics
    ///
    /// Panics if the local bootstrap omits `id`, either configuration is
    /// empty, or a timing is invalid.
    pub fn new(
        id: NodeId,
        local_members: Configuration,
        global_bootstrap: Configuration,
        cfg: CRaftConfig,
        rng: SimRng,
    ) -> Self {
        assert!(
            !global_bootstrap.is_empty(),
            "global bootstrap configuration is empty"
        );
        assert!(local_members.contains(id), "node {id} not in bootstrap");
        let local_rng = rng.split("local");
        let boost_first_election = global_bootstrap.contains(id);
        CRaftNode {
            id,
            local: FastRaftNode::scoped(
                id,
                LogScope::Local,
                ScopeState::default(),
                local_members,
                cfg.local_timing,
                local_rng,
            ),
            global: None,
            global_bootstrap,
            global_term: Term::ZERO,
            global_voted_for: None,
            global_snapshot: None,
            global_seq_floor: 0,
            batch_buf: Vec::new(),
            batch_seq: 0,
            global_commit_seen: LogIndex::ZERO,
            global_read_waiters: IdMap::default(),
            cfg,
            boost_first_election,
            free_actions: Vec::new(),
            free_gate_reqs: Vec::new(),
        }
    }

    /// Rebuilds a site from stable storage after a crash. The site restarts
    /// as a cluster follower; if it wins a local election again, the global
    /// side reactivates from the persisted global identity plus the local
    /// log's global state entries.
    pub fn recover(
        id: NodeId,
        stable: &StableState,
        local_bootstrap: Configuration,
        global_bootstrap: Configuration,
        cfg: CRaftConfig,
        rng: SimRng,
    ) -> Self {
        let local_rng = rng.split("local");
        let local = FastRaftNode::scoped(
            id,
            LogScope::Local,
            stable.local.clone(),
            local_bootstrap,
            cfg.local_timing,
            local_rng,
        );
        let global_snapshot = stable.global.snapshot.clone();
        let global_commit_seen = global_snapshot
            .as_ref()
            .map_or(LogIndex::ZERO, |s| s.last_index);
        CRaftNode {
            id,
            local,
            global: None,
            global_bootstrap,
            global_term: stable.global.current_term,
            global_voted_for: stable.global.voted_for,
            global_snapshot,
            global_seq_floor: stable.global.proposal_seq_floor,
            batch_buf: Vec::new(),
            batch_seq: 0,
            global_commit_seen,
            global_read_waiters: IdMap::default(),
            cfg,
            boost_first_election: false,
            free_actions: Vec::new(),
            free_gate_reqs: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The cluster this site belongs to.
    pub fn cluster(&self) -> ClusterId {
        self.cfg.cluster
    }

    /// Role at the **local** (intra-cluster) level.
    pub fn local_role(&self) -> Role {
        self.local.role()
    }

    /// `true` while this site leads its cluster.
    pub fn is_local_leader(&self) -> bool {
        self.local.is_leader()
    }

    /// `true` while this site leads the global level.
    pub fn is_global_leader(&self) -> bool {
        self.global.as_ref().is_some_and(|g| g.engine.is_leader())
    }

    /// The local (intra-cluster) log.
    pub fn local_log(&self) -> &wire::SparseLog {
        self.local.log()
    }

    /// Commit index of the local log.
    pub fn local_commit_index(&self) -> LogIndex {
        self.local.commit_index()
    }

    /// The global log as this site knows it: the live engine's log on an
    /// active leader, otherwise a reconstruction from local global-state
    /// entries.
    pub fn global_log_view(&self) -> wire::SparseLog {
        if let Some(g) = &self.global {
            return g.engine.log().clone();
        }
        self.reconstruct_global_log()
    }

    /// The highest global commit index this site has learned.
    pub fn global_commit_seen(&self) -> LogIndex {
        let engine_commit = self
            .global
            .as_ref()
            .map_or(LogIndex::ZERO, |g| g.engine.commit_index());
        self.global_commit_seen.max(engine_commit)
    }

    /// The local consensus engine (read-only), for assertions.
    pub fn local_engine(&self) -> &FastRaftNode {
        &self.local
    }

    /// The global consensus engine while active (leaders only).
    pub fn global_engine(&self) -> Option<&FastRaftNode> {
        self.global.as_ref().map(|g| &g.engine)
    }

    /// Entries buffered toward the next batch.
    pub fn batch_backlog(&self) -> usize {
        self.batch_buf.len()
    }

    /// Gate debt of the active global side, as `(pending, reservations)`:
    /// inserts parked behind the intra-cluster gate and decision-insert
    /// reservations blocking the global engine's settled check. `(0, 0)`
    /// when this site is not a cluster leader. Liveness oracles assert the
    /// debt drains to `(0, 0)` at quiescence — a reservation outliving
    /// every pending gate wedges the global level permanently.
    pub fn global_gate_debt(&self) -> (usize, usize) {
        // `pending_gate_count` is token-accurate: every deferred insert
        // parks its continuation when the gate defers it, before the
        // requests drain or the waiting map fills, and both refer to the
        // same tokens.
        self.global.as_ref().map_or((0, 0), |g| {
            (
                g.engine.pending_gate_count(),
                g.engine.gated_decision_count(),
            )
        })
    }

    // ------------------------------------------------------------------
    // Global-side lifecycle
    // ------------------------------------------------------------------

    fn reconstruct_global_log(&self) -> wire::SparseLog {
        let mut g = wire::SparseLog::new();
        for (_, entry) in self.local.log().iter() {
            if let Payload::GlobalState(gs) = &entry.payload {
                g.insert(gs.index, (*gs.entry).clone());
            }
        }
        g
    }

    fn activate_global(&mut self, out: &mut Actions<CRaftMessage>) {
        if self.global.is_some() {
            return;
        }
        let global_log = self.reconstruct_global_log();
        let mut max_gc = LogIndex::ZERO;
        let mut batched_ids: IdSet<EntryId> = IdSet::default();
        for (_, entry) in self.local.log().iter() {
            if let Payload::GlobalState(gs) = &entry.payload {
                max_gc = max_gc.max(gs.global_commit);
                if let Payload::Batch(b) = &gs.entry.payload {
                    for item in b.items.iter() {
                        batched_ids.insert(item.id);
                    }
                }
            }
        }
        self.global_commit_seen = self.global_commit_seen.max(max_gc);

        let rng = SimRng::seed_from_u64(
            self.id.as_u64() ^ self.local.current_term().as_u64().wrapping_mul(0x9E37),
        );
        // The inherited global snapshot (persisted across crashes, cached
        // across deactivations) covers the prefix whose global-state entries
        // may have been compacted out of the local log; recovery installs it
        // on the reconstruction, establishing the commit floor and the
        // boundary term.
        let state = ScopeState {
            current_term: self.global_term,
            voted_for: self.global_voted_for,
            log: global_log,
            snapshot: self.global_snapshot.clone(),
            proposal_seq_floor: self.global_seq_floor,
        };
        let mut engine = FastRaftNode::scoped(
            self.id,
            LogScope::Global,
            state,
            self.global_bootstrap.clone(),
            self.cfg.effective_global_timing(),
            rng,
        )
        .gated();
        engine.set_proposal_mode(self.cfg.global_proposal_mode);
        let mut ea = self.take_actions();
        engine.bootstrap(&mut ea);
        // Invariant probe (ROADMAP snapshot item b): a flapping leader that
        // deactivated and reactivated before eviction, while local
        // compaction discarded interim global-state entries, can rebuild a
        // **front-gapped** view — entries above a hole right after the
        // cached snapshot's horizon. The view is safe to hold while another
        // global member still holds the missing entries (commits never
        // cross the gap; §IV-B slot voting protects decided indices), and
        // the global leader's resend or snapshot transfer repairs it. Once
        // every member's cluster has compacted past a committed entry,
        // nothing can: ROADMAP (T1) tracks that. Surface the condition.
        // A view rebuilt from a local log that never compacted lacks no
        // record: a leading hole there is an ordinary in-flight one.
        let compacted = !self.local.log().compacted_through().is_zero();
        if let Some((horizon, first_retained)) = engine.log().front_gap().filter(|_| compacted) {
            ea.observe(Observation::GlobalViewGap {
                horizon,
                first_retained,
            });
        }
        self.global_commit_seen = self.global_commit_seen.max(engine.commit_index());

        // Recover this cluster's possibly-in-flight batches: any batch of
        // ours sitting uncommitted in the reconstructed global log gets
        // retried under its original id.
        let commit_floor = self.global_commit_seen;
        let mut inherited: Vec<(EntryId, Payload, LogIndex)> = Vec::new();
        for (idx, entry) in engine.log().iter() {
            if idx <= commit_floor {
                continue;
            }
            if let Payload::Batch(b) = &entry.payload {
                if b.cluster == self.cfg.cluster {
                    inherited.push((entry.id, entry.payload.clone(), idx));
                }
            }
        }
        for (id, payload, idx) in inherited {
            engine.track_pending_proposal(id, payload, idx, &mut ea);
        }

        self.global = Some(GlobalSide {
            engine,
            waiting: IdMap::default(),
            states: Recycler::default(),
        });
        self.forward_global_actions(&mut ea, out);
        self.give_actions(ea);

        // Re-batch locally committed data entries not yet covered by any
        // batch (the predecessor may have crashed mid-stream). Items keep
        // their session keys: if the predecessor's covering batch turns out
        // to exist after all, the global log's item-wise session dedup
        // suppresses the re-application.
        let mut rebatch: Vec<(LogIndex, BatchItem)> = Vec::new();
        for (idx, entry) in self.local.log().iter() {
            if idx > self.local.commit_index() {
                break;
            }
            if let Some(item) = batchable_item(entry) {
                if !batched_ids.contains(&entry.id) {
                    rebatch.push((idx, item));
                }
            }
        }
        self.batch_buf = rebatch;
        self.maybe_flush_batch(out);
    }

    fn deactivate_global(&mut self, out: &mut Actions<CRaftMessage>) {
        // Global reads routed through this (former) leader can no longer be
        // confirmed here; tell their gateways to retry, in `(session, seq)`
        // order: reply order reaches the embedding's schedule, and table
        // order is the hasher's.
        let mut waiters: Vec<((SessionId, u64), NodeId)> =
            self.global_read_waiters.drain().collect();
        waiters.sort_unstable();
        for ((session, seq), waiter) in waiters {
            self.reply_waiter(waiter, session, seq, ClientOutcome::Retry, out);
        }
        let Some(side) = self.global.take() else {
            return;
        };
        self.global_term = side.engine.current_term();
        self.global_voted_for = None; // conservatively forget; persisted copy rules
        self.global_seq_floor = self.global_seq_floor.max(side.engine.reserved_seqs());
        // Cache the engine's snapshot for the next activation: a later
        // reconstruction from the (possibly further-compacted) local log
        // needs the horizon and its boundary term.
        if let Some(s) = side.engine.current_snapshot() {
            let newer = self
                .global_snapshot
                .as_ref()
                .is_none_or(|old| old.last_index <= s.last_index);
            if newer {
                self.global_snapshot = Some(s);
            }
        }
        self.batch_buf.clear();
        for (_, kind) in GLOBAL_TIMERS {
            out.cancel_timer(kind);
        }
        out.cancel_timer(TimerKind::BatchFlush);
    }

    // ------------------------------------------------------------------
    // Batching (§V-A)
    // ------------------------------------------------------------------

    /// Where to cut the next global batch, if one is ready. Admission
    /// mirrors [`wire::AppendBudget`]: an item is admitted while both the
    /// count cap and the byte budget allow it, the item that would breach
    /// the byte budget is excluded (so byte-cut batches stay within
    /// budget), and the first item is always admitted — a single
    /// over-sized value ships alone rather than wedging batching.
    fn next_batch_cut(&self) -> Option<usize> {
        let unbounded = self.cfg.max_batch_bytes == 0;
        let mut n = 0usize;
        let mut bytes = 0usize;
        for (_, item) in self.batch_buf.iter() {
            let sz = wire::Wire::encoded_len(item);
            let admit = n == 0
                || (n < self.cfg.batch_size
                    && (unbounded || bytes + sz <= self.cfg.max_batch_bytes));
            if !admit {
                // A cap binds and more items wait behind it: cut now.
                return Some(n);
            }
            n += 1;
            bytes += sz;
        }
        // Everything buffered was admitted. Cut when a cap is exactly
        // filled; otherwise wait for more items or the flush timer.
        if n > 0 && (n >= self.cfg.batch_size || (!unbounded && bytes >= self.cfg.max_batch_bytes))
        {
            Some(n)
        } else {
            None
        }
    }

    fn maybe_flush_batch(&mut self, out: &mut Actions<CRaftMessage>) {
        if self.global.is_none() {
            return;
        }
        while let Some(cut) = self.next_batch_cut() {
            self.propose_batch(cut, out);
        }
        if !self.batch_buf.is_empty() && self.cfg.batch_flush_ms > 0 {
            out.timers.push(wire::TimerCmd::Set {
                kind: TimerKind::BatchFlush,
                after: des::SimDuration::from_millis(self.cfg.batch_flush_ms),
            });
        }
    }

    fn flush_partial_batch(&mut self, out: &mut Actions<CRaftMessage>) {
        if self.global.is_none() || self.batch_buf.is_empty() {
            return;
        }
        self.propose_batch(self.batch_buf.len(), out);
    }

    /// Proposes the first `cut` buffered items as one batch, collected
    /// straight into its shared slice.
    fn propose_batch(&mut self, cut: usize, out: &mut Actions<CRaftMessage>) {
        let items = self.batch_buf.drain(..cut).map(|(_, item)| item);
        let batch = wire::Batch::new(self.cfg.cluster, self.batch_seq, items);
        self.batch_seq += 1;
        self.step_global(out, |engine, ea| {
            engine.propose_payload(Payload::Batch(batch), ea);
        });
    }

    // ------------------------------------------------------------------
    // Action plumbing
    // ------------------------------------------------------------------

    /// An empty effect buffer for one inner-engine step.
    fn take_actions(&mut self) -> Actions<FastRaftMessage> {
        self.free_actions.pop().unwrap_or_default()
    }

    /// Takes back a buffer whose effects have been forwarded.
    fn give_actions(&mut self, mut ea: Actions<FastRaftMessage>) {
        ea.clear();
        self.free_actions.push(ea);
    }

    /// Runs one step of the **local** engine and forwards its effects.
    fn step_local(
        &mut self,
        out: &mut Actions<CRaftMessage>,
        step: impl FnOnce(&mut FastRaftNode, &mut Actions<FastRaftMessage>),
    ) {
        let mut ea = self.take_actions();
        step(&mut self.local, &mut ea);
        self.forward_local_actions(&mut ea, out);
        self.give_actions(ea);
    }

    /// Runs one step of the **global** engine, if this site has one, and
    /// forwards its effects.
    fn step_global(
        &mut self,
        out: &mut Actions<CRaftMessage>,
        step: impl FnOnce(&mut FastRaftNode, &mut Actions<FastRaftMessage>),
    ) {
        let Some(side) = self.global.as_mut() else {
            return;
        };
        // `take_actions`, spelled out: `side` holds a borrow of `self.global`.
        let mut ea = self.free_actions.pop().unwrap_or_default();
        step(&mut side.engine, &mut ea);
        self.forward_global_actions(&mut ea, out);
        self.give_actions(ea);
    }

    /// Processes effects produced by the **local** engine, draining `ea`:
    /// reacts to leadership changes, batches local data commits, resumes
    /// gated global inserts, and wraps messages.
    fn forward_local_actions(
        &mut self,
        ea: &mut Actions<FastRaftMessage>,
        out: &mut Actions<CRaftMessage>,
    ) {
        let mut became_leader = false;
        let mut lost_leader = false;
        for obs in &ea.observations {
            match obs {
                Observation::BecameLeader { .. } => became_leader = true,
                Observation::BecameFollower { .. } => lost_leader = true,
                _ => {}
            }
        }
        // Wrap and emit the raw effects first so message order stays causal.
        let gc = self.global_commit_seen();
        for (to, mut msg) in ea.sends.drain(..) {
            // §V-B: cluster leaders piggyback their global commit index on
            // local AppendEntries so members track global commits.
            if let FastRaftMessage::AppendEntries { global_commit, .. } = &mut msg {
                *global_commit = gc;
            }
            out.send(to, CRaftMessage::Local(msg));
        }
        out.timers.append(&mut ea.timers);
        out.persists.append(&mut ea.persists);
        out.observations.append(&mut ea.observations);

        if became_leader {
            self.activate_global(out);
        }
        if lost_leader && !self.local.is_leader() {
            self.deactivate_global(out);
        }

        for commit in ea.commits.drain(..) {
            debug_assert_eq!(commit.scope, LogScope::Local);
            self.on_local_commit(&commit.entry, commit.index, out);
            out.commits.push(commit);
        }
        self.maybe_flush_batch(out);
    }

    fn on_local_commit(
        &mut self,
        entry: &LogEntry,
        index: LogIndex,
        out: &mut Actions<CRaftMessage>,
    ) {
        match &entry.payload {
            Payload::Write { .. } | Payload::Register { .. } if self.global.is_some() => {
                if let Some(item) = batchable_item(entry) {
                    self.batch_buf.push((index, item));
                }
            }
            Payload::GlobalState(gs) => {
                self.global_commit_seen = self.global_commit_seen.max(gs.global_commit);
                // Resume the gated global insert this entry replicated.
                let token = self
                    .global
                    .as_mut()
                    .and_then(|side| side.waiting.remove(&entry.id));
                if let Some(token) = token {
                    self.step_global(out, |engine, ea| engine.gate_ready(token, ea));
                }
            }
            _ => {}
        }
    }

    /// Processes effects produced by the **global** engine, draining `ea`:
    /// turns gate requests into local global-state proposals, wraps
    /// messages, and renames timers to their `Global*` kinds.
    fn forward_global_actions(
        &mut self,
        ea: &mut Actions<FastRaftMessage>,
        out: &mut Actions<CRaftMessage>,
    ) {
        for (to, msg) in ea.sends.drain(..) {
            out.send(to, CRaftMessage::Global(msg));
        }
        for mut cmd in ea.timers.drain(..) {
            let (TimerCmd::Set { kind, .. } | TimerCmd::Cancel { kind }) = &mut cmd;
            *kind = global_timer(*kind);
            out.timers.push(cmd);
        }
        out.persists.append(&mut ea.persists);
        for commit in ea.commits.drain(..) {
            debug_assert_eq!(commit.scope, LogScope::Global);
            self.global_commit_seen = self.global_commit_seen.max(commit.index);
            out.commits.push(commit);
        }
        // Client responses produced by the global engine answer reads this
        // cluster leader routed on behalf of a gateway: deliver them to the
        // waiting gateway instead of surfacing them at this node.
        for obs in ea.observations.drain(..) {
            if let Observation::ClientResponse {
                session,
                seq,
                outcome,
            } = &obs
            {
                if let Some(waiter) = self.global_read_waiters.remove(&(*session, *seq)) {
                    self.reply_waiter(waiter, *session, *seq, outcome.clone(), out);
                    continue;
                }
            }
            out.observations.push(obs);
        }
        // A snapshot install advances the engine's commit floor without
        // per-entry commit notifications; track the jump here.
        if let Some(side) = &self.global {
            self.global_commit_seen = self.global_commit_seen.max(side.engine.commit_index());
        }

        // Gate requests become local global-state proposals (§V-B).
        let mut requests = self.free_gate_reqs.pop().unwrap_or_default();
        if let Some(side) = self.global.as_mut() {
            requests.extend(side.engine.drain_gate_requests());
        }
        // A local log compacts once it holds this many entries past its
        // snapshot, so a global-state entry older than that many later ones
        // is held only by a lagging or crashed site: stop waiting for it.
        let bound = self.cfg.local_timing.snapshot_threshold as usize;
        for req in requests.drain(..) {
            let gc = self.global_commit_seen();
            let entry = match self.global.as_mut() {
                Some(side) => side.states.share(req.entry, bound),
                None => Rc::new(req.entry),
            };
            let gs = GlobalState {
                index: req.index,
                entry,
                global_commit: gc,
            };
            let mut la = self.take_actions();
            let local_id = self
                .local
                .propose_payload(Payload::GlobalState(gs), &mut la);
            if let Some(side) = self.global.as_mut() {
                side.waiting.insert(local_id, req.token);
            }
            self.forward_local_actions(&mut la, out);
            self.give_actions(la);
        }
        self.free_gate_reqs.push(requests);
    }

    // ------------------------------------------------------------------
    // Global linearizable reads
    // ------------------------------------------------------------------

    /// Routes a linearizable (global) read through this cluster leader's
    /// global engine on behalf of `waiter` (the gateway): the global engine
    /// either runs the ReadIndex round itself (global leader) or forwards
    /// to the global leader; the eventual outcome is relayed back through
    /// [`CRaftNode::forward_global_actions`].
    fn global_linearizable_read(
        &mut self,
        session: SessionId,
        seq: u64,
        waiter: NodeId,
        out: &mut Actions<CRaftMessage>,
    ) {
        if self.global.is_none() {
            // Activation race: locally elected but the global side is not
            // up; the client retries.
            self.reply_waiter(waiter, session, seq, ClientOutcome::Retry, out);
            return;
        }
        self.global_read_waiters.insert((session, seq), waiter);
        self.step_global(out, |engine, ea| {
            // The gateway's read id passes through unchanged: the global
            // answer must come back under the key `global_read_waiters`
            // holds.
            let op = ClientOp::Read(Consistency::Linearizable);
            engine.on_client_request(ClientRequest { session, seq, op }, ea);
        });
    }

    /// Answers a gateway waiting on a global read: locally (observation)
    /// when the gateway is this node, via a local-level `ClientReply`
    /// otherwise.
    fn reply_waiter(
        &mut self,
        waiter: NodeId,
        session: SessionId,
        seq: u64,
        outcome: ClientOutcome,
        out: &mut Actions<CRaftMessage>,
    ) {
        // A Redirect produced at the *global* level names a cluster leader
        // in some other cluster — useless (and actively harmful) as a
        // local-level hint at the gateway, whose engine would adopt it as
        // its local leader_hint. Degrade to Retry: the re-routed attempt
        // goes through this cluster leader again, which knows the updated
        // global hint.
        let outcome = match outcome {
            ClientOutcome::Redirect { .. } => ClientOutcome::Retry,
            other => other,
        };
        if waiter == self.id {
            out.observe(Observation::ClientResponse {
                session,
                seq,
                outcome,
            });
        } else {
            out.send(
                waiter,
                CRaftMessage::Local(FastRaftMessage::ClientReply {
                    session,
                    seq,
                    outcome,
                }),
            );
        }
    }
}

impl ConsensusProtocol for CRaftNode {
    type Message = CRaftMessage;

    fn id(&self) -> NodeId {
        self.id
    }

    fn set_local_clock(&mut self, now: des::SimTime) {
        // One physical site, one clock: both levels read the same instant.
        // The global engine (when active) collects grants from the *other
        // clusters' leaders* — the recursive lease of the hierarchy.
        self.local.set_local_clock(now);
        if let Some(side) = self.global.as_mut() {
            side.engine.set_local_clock(now);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: CRaftMessage, out: &mut Actions<CRaftMessage>) {
        match msg {
            CRaftMessage::Local(FastRaftMessage::ClientRead { session, seq })
                if self.is_local_leader() =>
            {
                // A linearizable read forwarded by a cluster member: in
                // C-Raft these are **global** reads, confirmed through the
                // global engine rather than by local leadership.
                self.global_linearizable_read(session, seq, from, out);
            }
            CRaftMessage::Local(m) => {
                if let FastRaftMessage::AppendEntries { global_commit, .. } = &m {
                    self.global_commit_seen = self.global_commit_seen.max(*global_commit);
                }
                self.step_local(out, |engine, ea| engine.on_message(from, m, ea));
            }
            CRaftMessage::Global(m) => {
                if self.global.is_none() {
                    out.observe(Observation::MessageIgnored {
                        reason: "global traffic at non-leader",
                    });
                    return;
                }
                self.step_global(out, |engine, ea| engine.on_message(from, m, ea));
            }
        }
    }

    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<CRaftMessage>) {
        if kind == TimerKind::BatchFlush {
            self.flush_partial_batch(out);
            return;
        }
        match base_timer(kind) {
            Some(base) => self.step_global(out, |engine, ea| engine.on_timer(base, ea)),
            None => self.step_local(out, |engine, ea| engine.on_timer(kind, ea)),
        }
    }

    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<CRaftMessage>) {
        match &req.op {
            // Linearizable reads are global reads (§V): a cluster leader
            // confirms through the global engine; members forward to their
            // cluster leader through the local engine's gateway machinery.
            ClientOp::Read(Consistency::Linearizable) if self.is_local_leader() => {
                self.global_linearizable_read(req.session, req.seq, self.id, out);
            }
            // Stale-global reads answer immediately from this site's view
            // of the global commit floor — the freshest floor it has
            // learned from its own global engine or from committed
            // global-state entries. No wide-area round; the floor is
            // monotone per site but may trail the true global commit.
            ClientOp::Read(Consistency::StaleGlobal) => {
                out.observe(Observation::ClientResponse {
                    session: req.session,
                    seq: req.seq,
                    outcome: ClientOutcome::ReadOk {
                        scope: LogScope::Global,
                        commit_floor: self.global_commit_seen(),
                    },
                });
            }
            // Writes (acked at local commit, §V-A), stale-local reads,
            // registrations, and read forwarding all ride the local engine.
            _ => {
                self.step_local(out, |engine, ea| engine.on_client_request(req, ea));
            }
        }
    }

    fn bootstrap(&mut self, out: &mut Actions<CRaftMessage>) {
        self.step_local(out, |engine, ea| engine.bootstrap(ea));
        if self.boost_first_election {
            // Overrides the randomized election timeout armed above (same
            // kind replaces): the designated leader stands first.
            let jitter = 50 + (self.id.as_u64() % 37);
            out.set_timer(TimerKind::Election, des::SimDuration::from_millis(jitter));
        }
    }
}

/// The global batch item for a locally committed client value, if the entry
/// carries one (a session write or registration, keeping its dedup key).
fn batchable_item(entry: &LogEntry) -> Option<BatchItem> {
    match &entry.payload {
        Payload::Write { session, seq, data } => Some(BatchItem {
            id: entry.id,
            key: Some((*session, *seq)),
            data: data.clone(),
        }),
        // A registration opens the session globally too: the item carries
        // the session's seq 1 with no value, so every cluster's dedup
        // window starts at the registration, mirroring the local contract.
        Payload::Register { session } => Some(BatchItem {
            id: entry.id,
            key: Some((*session, 1)),
            data: bytes::Bytes::new(),
        }),
        _ => None,
    }
}

/// Helper: builds the node set for a whole C-Raft deployment — `clusters`
/// clusters of `per_cluster` sites each, node ids assigned row-major, the
/// first site of each cluster designated as its initial leader.
///
/// Returns `(nodes, global_bootstrap)`.
pub fn build_deployment(
    clusters: u64,
    per_cluster: u64,
    cfg_for: impl Fn(ClusterId) -> CRaftConfig,
    seed: u64,
) -> (Vec<CRaftNode>, Configuration) {
    assert!(clusters > 0 && per_cluster > 0, "empty deployment");
    let global_bootstrap: Configuration = (0..clusters).map(|c| NodeId(c * per_cluster)).collect();
    let root = SimRng::seed_from_u64(seed);
    let mut nodes = Vec::new();
    for c in 0..clusters {
        let members: Configuration = (0..per_cluster)
            .map(|i| NodeId(c * per_cluster + i))
            .collect();
        for i in 0..per_cluster {
            let id = NodeId(c * per_cluster + i);
            nodes.push(CRaftNode::new(
                id,
                members.clone(),
                global_bootstrap.clone(),
                cfg_for(ClusterId(c)),
                root.split_indexed("craft-node", id.as_u64()),
            ));
        }
    }
    (nodes, global_bootstrap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn global_timer_table_roundtrip() {
        for base in [
            TimerKind::Election,
            TimerKind::Heartbeat,
            TimerKind::LeaderTick,
            TimerKind::ProposalRetry,
            TimerKind::JoinRetry,
        ] {
            let g = global_timer(base);
            assert_ne!(g, base, "the global level must rename {base:?}");
            assert_eq!(base_timer(g), Some(base));
            assert_eq!(base_timer(base), None);
        }
        assert_eq!(global_timer(TimerKind::BatchFlush), TimerKind::BatchFlush);
        assert_eq!(base_timer(TimerKind::BatchFlush), None);
    }

    #[test]
    fn deployment_builder_shapes() {
        let (nodes, global) = build_deployment(4, 5, CRaftConfig::paper, 1);
        assert_eq!(nodes.len(), 20);
        assert_eq!(global.len(), 4);
        assert!(global.contains(NodeId(0)));
        assert!(global.contains(NodeId(5)));
        assert!(global.contains(NodeId(10)));
        assert!(global.contains(NodeId(15)));
        assert_eq!(nodes[7].cluster(), ClusterId(1));
        assert!(!nodes[0].is_local_leader());
    }

    #[test]
    fn paper_config_values() {
        let c = CRaftConfig::paper(ClusterId(2));
        assert_eq!(c.batch_size, 10);
        assert_eq!(c.local_timing.heartbeat.as_millis(), 100);
        assert_eq!(c.global_timing.heartbeat.as_millis(), 500);
    }

    #[test]
    #[should_panic(expected = "empty deployment")]
    fn empty_deployment_rejected() {
        build_deployment(0, 5, CRaftConfig::paper, 1);
    }

    fn batch_node(batch_size: usize, max_batch_bytes: usize) -> CRaftNode {
        let solo = Configuration::new([NodeId(0)]);
        let mut cfg = CRaftConfig::paper(ClusterId(0));
        cfg.batch_size = batch_size;
        cfg.max_batch_bytes = max_batch_bytes;
        CRaftNode::new(NodeId(0), solo.clone(), solo, cfg, SimRng::seed_from_u64(1))
    }

    fn buf_items(node: &mut CRaftNode, count: u64, data_len: usize) {
        node.batch_buf = (0..count)
            .map(|i| {
                (
                    LogIndex(i + 1),
                    BatchItem {
                        id: EntryId::new(NodeId(0), i),
                        key: None,
                        data: Bytes::from(vec![0u8; data_len]),
                    },
                )
            })
            .collect();
    }

    #[test]
    fn batch_cut_byte_budget_binds_before_count_cap() {
        // Each item encodes to 16 (id) + 4 + 40 (data) = 60 bytes.
        let mut node = batch_node(10, 100);
        buf_items(&mut node, 10, 40);
        // The second item would push 60 -> 120 > 100: cut before it.
        assert_eq!(node.next_batch_cut(), Some(1));
    }

    #[test]
    fn batch_cut_count_cap_without_byte_cap() {
        let mut node = batch_node(10, 0);
        buf_items(&mut node, 12, 40);
        assert_eq!(node.next_batch_cut(), Some(10));
    }

    #[test]
    fn batch_cut_oversized_single_item_ships_alone() {
        let mut node = batch_node(10, 100);
        buf_items(&mut node, 1, 200);
        assert_eq!(node.next_batch_cut(), Some(1));
    }

    #[test]
    fn batch_cut_waits_under_both_caps() {
        let mut node = batch_node(10, 1000);
        buf_items(&mut node, 3, 40);
        assert_eq!(node.next_batch_cut(), None, "partial batch waits for flush");
    }
}
