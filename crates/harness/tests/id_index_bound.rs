//! Every replica's proposal-id map stays bounded on long runs.
//!
//! `Replica::id_index` answers "where does proposal `id` sit" for the
//! duplicate rule (§IV-B). It maps only ids placed above the compaction
//! horizon: compaction and snapshot installs drop what the log drops, so it
//! never holds more than the retained log plus the gated slot reservations
//! (mappings whose entry is not in the log yet). Each cell below compacts
//! dozens of times, with loss, snapshot installs and (flat cells) a leader
//! crash, and samples every replica once per simulated second against that
//! bound.

use consensus_core::{CRaftConfig, CRaftNode, FastRaftEngine, FastRaftNode, ProposalMode};
use des::{SimDuration, SimRng, SimTime};
use harness::{FaultAction, Runner, RunnerConfig, SafetyChecker, Workload};
use raft::{RaftNode, Timing};
use simnet::{BernoulliLoss, Network, RegionLatency, Topology, UniformLatency};
use storage::StableState;
use wire::{
    ClusterId, Configuration, ConsensusProtocol, EntryId, IdMap, LogIndex, LogScope, NodeId,
    SparseLog,
};

/// Client gateways (one closed-loop session each).
const CLIENTS: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];
/// When the flat cells crash their leader (node 0), and when it returns:
/// down for more than one snapshot threshold of writes, so it catches up
/// through a snapshot install.
const CRASH_AT: SimTime = SimTime::from_secs(60);
const RECOVER_AT: SimTime = SimTime::from_secs(120);

/// One replica's id map, and what bounds it.
struct Sample {
    live: usize,
    retained: usize,
    reserved: usize,
}

impl Sample {
    fn of(ids: &IdMap<EntryId, LogIndex>, log: &SparseLog, reserved: usize) -> Self {
        Sample {
            live: ids.len(),
            retained: log.len(),
            reserved,
        }
    }

    fn of_engine(e: &FastRaftEngine) -> Self {
        Sample::of(e.id_index(), e.log(), e.gated_decision_count())
    }
}

/// Runs the workload to completion, sampling every one of `sites` once per
/// simulated second (every site may mint proposal ids), and checks the
/// bound at each sample. Returns the peak mapping count.
fn run_sampled<P: ConsensusProtocol>(
    runner: &mut Runner<P>,
    sites: u64,
    sample: impl Fn(&P) -> Vec<Sample>,
) -> usize {
    let mut peak_live = 0;
    let mut t = SimTime::ZERO;
    while !runner.workload_done() {
        t += SimDuration::from_secs(1);
        assert!(
            t < SimTime::from_secs(4 * 3_600),
            "the workload never finished"
        );
        runner.run_until(t);
        for id in (0..sites).map(NodeId) {
            let Some(node) = runner.node(id) else {
                continue; // crashed
            };
            for s in sample(node) {
                assert!(
                    s.live <= s.retained + s.reserved,
                    "{id} at {t}: {} live id mappings, {} retained entries, {} reservations",
                    s.live,
                    s.retained,
                    s.reserved
                );
                peak_live = peak_live.max(s.live);
            }
        }
    }
    runner.safety().assert_ok();
    assert!(
        runner.metrics().compactions > 20,
        "too few compactions to tell"
    );
    peak_live
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

/// LAN timing; node 0's election window sits below everyone else's so it
/// is the leader the flat cells crash.
fn flat_timing(id: NodeId) -> Timing {
    let mut t = Timing::lan();
    if id == NodeId(0) {
        t.election_min = t.lease_duration + t.max_clock_skew;
        t.election_max = t.election_min + t.heartbeat;
    }
    t
}

/// The flat cells: 5 sites, 2 % loss, 100,000 writes, the leader crashed
/// at 60 s and recovered at 120 s from stable storage.
fn flat_cell<P: ConsensusProtocol>(
    seed: u64,
    make: impl Fn(NodeId, Configuration, Timing, SimRng) -> P,
    recover: impl Fn(NodeId, &StableState, Configuration, Timing, SimRng) -> P + 'static,
    sample: impl Fn(&P) -> Sample,
) -> usize {
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
    let writes = Workload::writes_only(CLIENTS.to_vec(), 64, Some(100_000), SimTime::from_secs(3));
    let mut runner = Runner::new(
        nodes,
        net,
        writes,
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
    let peaks = run_sampled(&mut runner, sites, |n| vec![sample(n)]);
    assert!(
        runner.metrics().snapshot_installs > 0,
        "the recovered leader must catch up through a snapshot install"
    );
    peaks
}

#[test]
fn fast_raft_id_index_stays_bounded_through_crash_and_snapshots() {
    let live = flat_cell(2901, FastRaftNode::new, FastRaftNode::recover, |n| {
        Sample::of(n.id_index(), n.log(), 0)
    });
    eprintln!("fast raft: peak id mappings {live}");
}

#[test]
fn classic_raft_id_index_stays_bounded_through_crash_and_snapshots() {
    let live = flat_cell(2902, RaftNode::new, RaftNode::recover, |n| {
        Sample::of(n.id_index(), n.log(), 0)
    });
    eprintln!("classic raft: peak id mappings {live}");
}

/// C-Raft, 3 clusters × 2 sites over three regions, 2 % loss, 20,000
/// writes: both levels of every replica, gated global inserts included.
#[test]
fn craft_id_index_stays_bounded_at_both_levels() {
    const CLUSTERS: u64 = 3;
    const PER: u64 = 2;
    let seed = 2903u64;
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
    let writes = Workload::writes_only(clients.to_vec(), 64, Some(20_000), SimTime::from_secs(3));
    let mut runner = Runner::new(
        nodes,
        net,
        writes,
        Vec::new(),
        runner_cfg(seed, LogScope::Local, Timing::lan()),
        SafetyChecker::with_domains(move |n| n.as_u64() / PER),
    );
    let live = run_sampled(&mut runner, CLUSTERS * PER, |n: &CRaftNode| {
        let global = n.global_engine().map(Sample::of_engine);
        std::iter::once(Sample::of_engine(n.local_engine()))
            .chain(global)
            .collect()
    });
    eprintln!("c-raft: peak id mappings {live}");
}
