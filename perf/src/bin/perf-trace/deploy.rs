//! The wide-API twin of the facade's `run_fast_raft` / `run_craft`, and
//! the shard fabric with a wrapped engine factory.
//!
//! `Scenario`'s builders (network, workload, runner configuration, leader
//! bias) are private to `harness`, so hosting `Traced<P>` on the real
//! `Runner<P>` means restating them here. Nothing checks this restatement
//! by eye: `main.rs` runs the facade on the same scenario and requires the
//! same completed operations, messages offered and simulated end time, so
//! any drift from `harness::scenario` fails the run.

use consensus_core::{build_deployment, CRaftConfig, CRaftNode, FastRaftNode};
use des::{SimDuration, SimRng, SimTime};
use harness::{
    CRaftScenario, Metrics, NetworkKind, RunReport, Runner, RunnerConfig, SafetyChecker, Scenario,
    Workload,
};
use raft::{RaftNode, Timing};
use shard::{raft_factory, ShardConfig, ShardMetrics, ShardNode, ShardRunner};
use simnet::{BernoulliLoss, Network, RegionLatency, Topology, UniformLatency};
use wire::{ClusterId, Configuration, ConsensusProtocol, GroupId, LogScope, NodeId};

use perf::workloads::{SHARD_WINDOW_FROM, SHARD_WINDOW_UNTIL};

/// `Scenario::build_network`, for the two network kinds the workloads use.
pub fn network(s: &Scenario) -> Network {
    let nodes = (0..s.sites).map(NodeId);
    match s.network {
        NetworkKind::SingleRegion => Network::new(
            Topology::single_region("local", nodes),
            Box::new(UniformLatency::new(
                SimDuration::from_micros(100),
                SimDuration::from_micros(500),
            )),
            Box::new(BernoulliLoss::new(s.loss)),
        ),
        NetworkKind::Regions { regions } => {
            let mut topo = Topology::new();
            let per = s.sites / regions;
            let ids: Vec<_> = (0..regions)
                .map(|r| topo.add_region(format!("region-{r}")))
                .collect();
            for n in 0..s.sites {
                topo.place(NodeId(n), ids[(n / per).min(regions - 1) as usize]);
            }
            let latency = RegionLatency::aws_global(topo.clone());
            Network::new(
                topo,
                Box::new(latency),
                Box::new(BernoulliLoss::new(s.loss)),
            )
        }
        ref other => panic!("no workload uses {other:?}"),
    }
}

/// `Scenario::timing_for`: the biased node races the first election.
fn timing_for(s: &Scenario, id: NodeId) -> Timing {
    let mut t = s.timing;
    if s.leader_bias == Some(id) {
        let floor = t.lease_duration + t.max_clock_skew;
        let lo = (t.election_min / 5).max(t.heartbeat * 2).max(floor);
        let hi = (t.election_min / 4).max(lo + t.heartbeat);
        t.election_min = lo;
        t.election_max = hi;
    }
    t
}

/// `Scenario::workload`.
fn workload(s: &Scenario) -> Workload {
    let mut w = Workload::writes_only(
        s.proposers.clone(),
        s.payload_bytes,
        s.target_commits,
        SimTime::ZERO + s.warmup,
    );
    if let Some(mix) = &s.reads {
        w.read_ratio = mix.ratio;
        w.read_consistency = mix.consistency;
        w.final_read = mix.final_read;
    }
    w
}

/// `Scenario::runner_cfg`.
fn runner_cfg(s: &Scenario, ack_scope: LogScope) -> RunnerConfig {
    RunnerConfig {
        seed: s.seed,
        ack_scope,
        measure_from: SimTime::ZERO + s.warmup,
        clock_skew: s.timing.max_clock_skew,
        disk_fsync_latency: s.timing.disk_fsync_latency,
        unbatched_persists: s.unbatched_persists,
        persist_stalls: None,
    }
}

/// `harness::scenario::finish`.
fn finish<P: ConsensusProtocol>(
    mut runner: Runner<P>,
    s: &Scenario,
    name: &str,
) -> (RunReport, Metrics) {
    runner.run_until(SimTime::ZERO + s.duration);
    let measured = runner
        .now()
        .saturating_since(SimTime::ZERO + s.warmup)
        .as_secs_f64();
    let report = RunReport::assemble(
        name,
        s.seed,
        runner.now().as_secs_f64(),
        measured,
        runner.metrics(),
        runner.net_stats(),
        runner.safety(),
        runner.completed(),
    );
    runner.safety().assert_ok();
    (report, runner.metrics().clone())
}

/// `run_fast_raft`, with every node passed through `wrap`.
pub fn fast_raft<W>(
    s: &Scenario,
    wrap: impl Fn(FastRaftNode) -> W + Clone + 'static,
) -> (RunReport, Metrics)
where
    W: ConsensusProtocol,
{
    let cfg: Configuration = (0..s.sites).map(NodeId).collect();
    let root = SimRng::seed_from_u64(s.seed);
    let nodes = (0..s.sites).map(|i| {
        wrap(FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            timing_for(s, NodeId(i)),
            root.split_indexed("fast-node", i),
        ))
    });
    let mut runner = Runner::new(
        nodes,
        network(s),
        workload(s),
        s.faults.clone(),
        runner_cfg(s, LogScope::Global),
        SafetyChecker::new(),
    );
    let (cfg2, timing, recover_rng) = (cfg.clone(), s.timing, root.split("recover"));
    let rewrap = wrap.clone();
    runner.set_recovery(move |id, stable| {
        rewrap(FastRaftNode::recover(
            id,
            stable,
            cfg2.clone(),
            timing,
            recover_rng.split_indexed("r", id.as_u64()),
        ))
    });
    finish(runner, s, "fast-raft")
}

/// `run_craft`, with every node passed through `wrap`. The workloads
/// inject no C-Raft fault, so no recovery factory is installed.
pub fn craft<W>(
    s: &Scenario,
    c: &CRaftScenario,
    wrap: impl Fn(CRaftNode) -> W,
) -> (RunReport, Metrics)
where
    W: ConsensusProtocol,
{
    assert!(s.faults.is_empty(), "the C-Raft twin installs no recovery");
    let per = s.sites / c.clusters;
    let (nodes, _global_bootstrap) = build_deployment(
        c.clusters,
        per,
        |cluster: ClusterId| CRaftConfig {
            cluster,
            local_timing: s.timing,
            global_timing: c.global_timing,
            batch_size: c.batch_size,
            max_batch_bytes: c.max_batch_bytes,
            batch_flush_ms: 1000,
            global_snapshot_threshold: c.global_snapshot_threshold,
            global_proposal_mode: c.global_proposal_mode,
        },
        s.seed,
    );
    let runner = Runner::new(
        nodes.into_iter().map(wrap),
        network(s),
        workload(s),
        Vec::new(),
        runner_cfg(s, LogScope::Local),
        SafetyChecker::with_domains(move |n| n.as_u64() / per),
    );
    finish(runner, s, "c-raft")
}

/// What one shard-fabric run produced.
pub struct ShardRun {
    pub metrics: ShardMetrics,
    pub wheel_len: usize,
    /// Wall seconds of the whole run, deployment build included.
    pub wall_s: f64,
}

/// The `shard_zipf_g256` run of `perf`, with every engine passed through
/// `wrap` (the identity for the untraced side of a pair).
pub fn shard<W>(
    cfg: &ShardConfig,
    timing: Timing,
    wrap: impl Fn(GroupId, RaftNode) -> W + 'static,
) -> ShardRun
where
    W: ShardNode,
{
    let make = raft_factory(timing);
    let t0 = std::time::Instant::now();
    let mut runner = ShardRunner::new(cfg.clone(), Vec::new(), move |g, id, c, rng| {
        wrap(g, make(g, id, c, rng))
    });
    runner.set_measure_window(SHARD_WINDOW_FROM, SHARD_WINDOW_UNTIL);
    runner.run_until(SHARD_WINDOW_UNTIL);
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(
        runner.violations().is_empty(),
        "commit agreement violated: {:?}",
        runner.violations()
    );
    ShardRun {
        metrics: runner.metrics().clone(),
        wheel_len: runner.wheel_len(),
        wall_s,
    }
}
