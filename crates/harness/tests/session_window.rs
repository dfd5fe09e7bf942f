//! The exactly-once window stays bounded on read-heavy runs.
//!
//! Every replica keeps, per session, a [`wire::SessionSlot`]: a floor below
//! which every write seq has applied, plus an `above` window of seqs that
//! applied out of order. Write seqs are contiguous and reads carry ids from
//! a disjoint space, so a read never leaves a hole: the floor advances on
//! every in-order write and `above` holds only genuinely out-of-order
//! applies. Each cell below runs half linearizable reads and checks every
//! replica's table — a read that spent a write seq would pin the floor at
//! the session's first read and grow `above` by one entry per later write.

use consensus_core::{CRaftConfig, CRaftNode, FastRaftNode, ProposalMode};
use des::{SimDuration, SimRng, SimTime};
use harness::{FaultAction, Metrics, Runner, RunnerConfig, SafetyChecker, Workload};
use raft::{RaftNode, Role, Timing};
use simnet::{BernoulliLoss, Network, RegionLatency, Topology, UniformLatency};
use storage::StableState;
use wire::{
    ClusterId, Configuration, ConsensusProtocol, Consistency, LogScope, NodeId, SessionId,
    SessionTable,
};

/// Client gateways (one closed-loop session each, keyed by the node id).
const CLIENTS: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];
/// When the flat cells crash their leader (node 0), and when it returns.
/// The minute down spans more than one snapshot threshold of writes, so
/// the recovered node catches up through a snapshot install.
const CRASH_AT: SimTime = SimTime::from_secs(60);
const RECOVER_AT: SimTime = SimTime::from_secs(120);

/// Half linearizable reads over `clients`, `ops` operations in total,
/// starting at 3 s. Measurement starts at zero so every completed write
/// leaves a sample.
fn mixed_workload(clients: &[NodeId], ops: u64) -> Workload {
    let mut w = Workload::writes_only(clients.to_vec(), 64, Some(ops), SimTime::from_secs(3));
    w.read_ratio = 0.5;
    w.read_consistency = Consistency::Linearizable;
    w
}

fn runner_cfg(seed: u64, ack_scope: LogScope, timing: Timing) -> RunnerConfig {
    RunnerConfig {
        seed,
        ack_scope,
        measure_from: SimTime::ZERO,
        clock_skew: timing.max_clock_skew,
        disk_fsync_latency: timing.disk_fsync_latency,
        unbatched_persists: false,
        persist_stalls: None,
    }
}

/// LAN timing with a 1 ms fsync; node 0's election window sits below
/// everyone else's (and still at `lease + skew`, as `Timing::validate`
/// demands) so it is the leader the flat cells crash.
fn flat_timing(id: NodeId) -> Timing {
    let mut t = Timing::lan();
    t.disk_fsync_latency = SimDuration::from_millis(1);
    if id == NodeId(0) {
        t.election_min = t.lease_duration + t.max_clock_skew;
        t.election_max = t.election_min + t.heartbeat;
    }
    t
}

/// Writes `client` completed: each completed write (a `Duplicate` answer to
/// a retry included) leaves exactly one sample.
fn completed_writes(metrics: &Metrics, client: NodeId) -> u64 {
    metrics
        .samples
        .iter()
        .filter(|s| s.proposer == client)
        .count() as u64
}

/// The session's floor across `tables`, after checking that none of them
/// keeps a window: with `above` empty, a replica's floor counts exactly the
/// session's writes it has applied, so the highest floor is the most
/// advanced replica's.
fn max_floor<'a>(
    tables: impl IntoIterator<Item = (NodeId, &'a SessionTable)>,
    session: SessionId,
) -> u64 {
    let mut floor = 0;
    for (id, table) in tables {
        let Some(slot) = table.get(session) else {
            continue; // nothing of the session applied here yet
        };
        assert!(
            slot.above.is_empty(),
            "{id}: window of {session} holds {} seqs above floor {}",
            slot.above.len(),
            slot.floor_seq,
        );
        floor = floor.max(slot.floor_seq);
    }
    floor
}

/// The most advanced replica applied every write `client` completed, and
/// at most the one more it has in flight (applied, not yet answered).
fn assert_floor_tracks_writes(client: NodeId, floor: u64, metrics: &Metrics) {
    let done = completed_writes(metrics, client);
    assert!(
        (done..=done + 1).contains(&floor),
        "client {client}: floor {floor} but {done} writes completed"
    );
}

/// The flat cells: 5 sites, 2 % loss, 100,000 operations, the leader crashed
/// at 60 s and recovered at 120 s from stable storage.
fn flat_cell<P: ConsensusProtocol>(
    seed: u64,
    make: impl Fn(NodeId, Configuration, Timing, SimRng) -> P,
    recover: impl Fn(NodeId, &StableState, Configuration, Timing, SimRng) -> P + 'static,
    role: impl Fn(&P) -> Role,
    sessions: impl Fn(&P) -> &SessionTable,
) {
    let sites = 5u64;
    let cfg: Configuration = (0..sites).map(NodeId).collect();
    let root = SimRng::seed_from_u64(seed);
    let nodes = (0..sites).map(|i| {
        let id = NodeId(i);
        make(
            id,
            cfg.clone(),
            flat_timing(id),
            root.split_indexed("node", i),
        )
    });
    let net = Network::new(
        Topology::single_region("local", (0..sites).map(NodeId)),
        Box::new(UniformLatency::new(
            SimDuration::from_micros(100),
            SimDuration::from_micros(500),
        )),
        Box::new(BernoulliLoss::new(0.02)),
    );
    let timing = flat_timing(NodeId(1));
    let faults = vec![
        (CRASH_AT, FaultAction::Crash(NodeId(0))),
        (RECOVER_AT, FaultAction::Recover(NodeId(0))),
    ];
    let mut runner = Runner::new(
        nodes,
        net,
        mixed_workload(&CLIENTS, 100_000),
        faults,
        runner_cfg(seed, LogScope::Global, timing),
        SafetyChecker::new(),
    );
    let recover_rng = root.split("recover");
    runner.set_recovery(move |id, stable| {
        recover(
            id,
            stable,
            cfg.clone(),
            timing,
            recover_rng.split_indexed("r", id.as_u64()),
        )
    });

    runner.run_until(CRASH_AT - SimDuration::from_secs(1));
    let leader = runner.node(NodeId(0)).expect("node 0 is up");
    assert_eq!(
        role(leader),
        Role::Leader,
        "node 0 must lead when it crashes"
    );
    runner.run_until(SimTime::from_secs(3_600));
    assert!(
        runner.workload_done(),
        "only {} ops completed",
        runner.completed()
    );
    assert!(
        runner.metrics().snapshot_installs > 0,
        "the recovered leader must catch up through a snapshot install"
    );
    runner.safety().assert_ok();

    for client in CLIENTS {
        let tables = (0..sites).map(|i| {
            let node = runner.node(NodeId(i)).expect("every node is up at the end");
            (NodeId(i), sessions(node))
        });
        let floor = max_floor(tables, SessionId::client(client.as_u64()));
        assert_floor_tracks_writes(client, floor, runner.metrics());
    }
}

#[test]
fn fast_raft_window_stays_bounded_through_crash_and_snapshot() {
    flat_cell(
        2601,
        FastRaftNode::new,
        FastRaftNode::recover,
        FastRaftNode::role,
        FastRaftNode::sessions,
    );
}

#[test]
fn classic_raft_window_stays_bounded_through_crash_and_snapshot() {
    flat_cell(
        2602,
        RaftNode::new,
        RaftNode::recover,
        RaftNode::role,
        RaftNode::sessions,
    );
}

/// C-Raft, 3 clusters × 2 sites over three regions, 2 % loss, half
/// linearizable (global) reads, one client per cluster. Local tables keep
/// no window at all. A cluster leader's *global* table does: a batch lost
/// on its way to the global leader is re-proposed only after
/// `proposal_timeout` (1.5 s on `Timing::wan`), and the cluster's later
/// batches commit ahead of it. Every seq in that window is a write its
/// cluster committed locally and shipped in a batch that applied early, so
/// the window never outgrows the session's writes between the tiers:
/// committed locally (the cluster's highest local floor) but not yet
/// applied globally here (the global floor) — the contents of the
/// cluster's batch buffer and of its batches in flight, `batch_size` (10)
/// per batch. A read that spent a seq would stall the local floor at the
/// session's first read, and the global window would outgrow it at once.
#[test]
fn craft_global_window_is_bounded_by_batches_in_flight() {
    const CLUSTERS: u64 = 3;
    const PER: u64 = 2;
    let seed = 2603u64;
    let clients = [NodeId(1), NodeId(3), NodeId(5)];
    let craft_cfg = |cluster: ClusterId| CRaftConfig {
        cluster,
        local_timing: Timing::lan(),
        global_timing: Timing::wan(),
        batch_size: 10,
        max_batch_bytes: wire::MAX_BYTES_PER_APPEND,
        batch_flush_ms: 1000,
        global_snapshot_threshold: Timing::wan().snapshot_threshold,
        global_proposal_mode: ProposalMode::LeaderForward,
    };
    let (nodes, _) = consensus_core::build_deployment(CLUSTERS, PER, craft_cfg, seed);

    let mut topo = Topology::new();
    let regions: Vec<_> = (0..CLUSTERS)
        .map(|r| topo.add_region(format!("region-{r}")))
        .collect();
    for n in 0..CLUSTERS * PER {
        topo.place(NodeId(n), regions[(n / PER) as usize]);
    }
    let net = Network::new(
        topo.clone(),
        Box::new(RegionLatency::aws_global(topo)),
        Box::new(BernoulliLoss::new(0.02)),
    );
    let mut runner = Runner::new(
        nodes,
        net,
        mixed_workload(&clients, 20_000),
        Vec::new(),
        runner_cfg(seed, LogScope::Local, Timing::lan()),
        SafetyChecker::with_domains(move |n| n.as_u64() / PER),
    );
    let sites = || (0..CLUSTERS * PER).map(NodeId);
    // The highest floor of `client`'s session across its cluster's local
    // tables, none of which may keep a window.
    let local_floor = |runner: &Runner<CRaftNode>, client: NodeId| {
        let members = sites().filter(|id| id.as_u64() / PER == client.as_u64() / PER);
        let tables = members.map(|id| {
            let node = runner.node(id).expect("the cell injects no faults");
            (id, node.local_engine().sessions())
        });
        max_floor(tables, SessionId::client(client.as_u64()))
    };

    // Sample once per simulated second: the bound must hold throughout, not
    // only where the run happens to stop.
    let mut peak = 0usize;
    let mut t = SimTime::ZERO;
    while !runner.workload_done() {
        t += SimDuration::from_secs(1);
        assert!(t < SimTime::from_secs(3_600), "the workload never finished");
        runner.run_until(t);
        for client in clients {
            let session = SessionId::client(client.as_u64());
            let committed_locally = local_floor(&runner, client);
            for id in sites() {
                let global = runner.node(id).and_then(CRaftNode::global_engine);
                let Some(slot) = global.and_then(|g| g.sessions().get(session)) else {
                    continue;
                };
                peak = peak.max(slot.above.len());
                assert!(
                    slot.above.len() as u64 <= committed_locally.saturating_sub(slot.floor_seq),
                    "{id} at {t}: global window of {session} holds {} seqs above floor {}, \
                     but its cluster committed only {committed_locally} writes",
                    slot.above.len(),
                    slot.floor_seq,
                );
            }
        }
    }
    runner.safety().assert_ok();
    assert!(
        peak > 0,
        "no batch applied out of order: the cell no longer exercises the global window"
    );
    for client in clients {
        assert_floor_tracks_writes(client, local_floor(&runner, client), runner.metrics());
    }
}
