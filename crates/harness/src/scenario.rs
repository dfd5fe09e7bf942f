//! Concrete scenario builders for the three protocols.
//!
//! A [`Scenario`] describes a deployment (sites, network, workload, faults);
//! `run_classic_raft`, `run_fast_raft`, and `run_craft` instantiate the
//! respective protocol over it and return a [`RunReport`] plus the raw
//! [`Metrics`] for series-level analysis (Fig. 4 plots individual
//! proposals).

use consensus_core::{CRaftConfig, CRaftNode, FastRaftNode};
use des::{SimDuration, SimRng, SimTime};
use raft::{RaftNode, Timing};
use simnet::{BernoulliLoss, Network, RegionLatency, Topology, UniformLatency};
use wire::{ClusterId, Configuration, Consistency, LogScope, NodeId};

/// Client read mix layered onto a scenario's closed-loop sessions.
#[derive(Clone, Copy, Debug)]
pub struct ReadMix {
    /// Fraction of client operations that are reads (drawn per operation).
    pub ratio: f64,
    /// Consistency level of the mixed-in reads.
    pub consistency: Consistency,
    /// Each client issues one final `Linearizable` read after the target
    /// is reached (read-your-writes handshake).
    pub final_read: bool,
}

impl ReadMix {
    /// A 50/50 linearizable read-write mix with the final read enabled.
    pub fn half_linearizable() -> Self {
        ReadMix {
            ratio: 0.5,
            consistency: Consistency::Linearizable,
            final_read: true,
        }
    }
}

use crate::{FaultAction, Metrics, RunReport, Runner, RunnerConfig, SafetyChecker, Workload};

/// The network environment of a scenario.
#[derive(Clone, Debug)]
pub enum NetworkKind {
    /// One region, sub-millisecond RTT (the paper's Fig. 3/4 setting).
    SingleRegion,
    /// `regions` regions with AWS-like inter-region latency, sites assigned
    /// row-major (the paper's Fig. 5 setting).
    Regions {
        /// Number of regions; sites are split evenly across them.
        regions: u64,
    },
    /// A fixed one-way delay on every link — used by the message-round
    /// experiment (Figs. 1–2) to count hops as latency / delay.
    ConstantDelay {
        /// One-way delay in microseconds.
        one_way_us: u64,
    },
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// RNG seed (drives every random choice in the run).
    pub seed: u64,
    /// Number of sites.
    pub sites: u64,
    /// Network environment.
    pub network: NetworkKind,
    /// Bernoulli message-loss probability (the paper's `tc`-forced loss).
    pub loss: f64,
    /// Protocol timing.
    pub timing: Timing,
    /// Proposing sites (closed loop).
    pub proposers: Vec<NodeId>,
    /// Proposal payload size in bytes.
    pub payload_bytes: usize,
    /// Stop after this many completed proposals (None = run to `duration`).
    pub target_commits: Option<u64>,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Warmup excluded from measurements (elections settle).
    pub warmup: SimDuration,
    /// Scheduled faults.
    pub faults: Vec<(SimTime, FaultAction)>,
    /// Bias this node to win the first election (its election timeout is
    /// shortened). Used by experiments that need a known leader.
    pub leader_bias: Option<NodeId>,
    /// Client read mix (None = the all-write workload every experiment
    /// used before the session API).
    pub reads: Option<ReadMix>,
    /// Apply each persist command as its own fsync boundary instead of
    /// group-committing a step's commands into one batch — the honest twin
    /// for write-path measurements (same durable contents, N fsyncs where
    /// group commit pays one). Scenarios leave this off.
    pub unbatched_persists: bool,
}

impl Scenario {
    /// The paper's single-cluster base scenario: 5 sites, one region,
    /// one random proposer, 100 measured commits.
    pub fn fig3_base(seed: u64, loss: f64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xF163);
        let proposer = NodeId(rng.gen_range(0..5u64));
        Scenario {
            seed,
            sites: 5,
            network: NetworkKind::SingleRegion,
            loss,
            timing: Timing::lan(),
            proposers: vec![proposer],
            payload_bytes: 64,
            target_commits: Some(100),
            duration: SimDuration::from_secs(300),
            warmup: SimDuration::from_secs(3),
            faults: Vec::new(),
            leader_bias: None,
            reads: None,
            unbatched_persists: false,
        }
    }

    /// The timing for one node, honoring [`Scenario::leader_bias`].
    fn timing_for(&self, id: NodeId) -> Timing {
        let mut t = self.timing;
        if self.leader_bias == Some(id) {
            // Race the first election: well under everyone's election_min,
            // but still >= 2 heartbeats (Timing::validate) and long enough
            // for vote round trips to finish before the timer re-fires.
            // The window also stays >= lease + skew (Timing::validate):
            // the lease itself must not shrink, because grant admission
            // reconstructs a grant's stamp as `until - lease_duration` and
            // therefore needs the duration uniform across the cluster.
            let floor = t.lease_duration + t.max_clock_skew;
            let lo = (t.election_min / 5).max(t.heartbeat * 2).max(floor);
            let hi = (t.election_min / 4).max(lo + t.heartbeat);
            t.election_min = lo;
            t.election_max = hi;
        }
        t
    }

    fn build_network(&self) -> Network {
        let nodes: Vec<NodeId> = (0..self.sites).map(NodeId).collect();
        match self.network {
            NetworkKind::SingleRegion => {
                let topo = Topology::single_region("local", nodes);
                Network::new(
                    topo,
                    Box::new(UniformLatency::new(
                        SimDuration::from_micros(100),
                        SimDuration::from_micros(500),
                    )),
                    Box::new(BernoulliLoss::new(self.loss)),
                )
            }
            NetworkKind::Regions { regions } => {
                let mut topo = Topology::new();
                let per = self.sites / regions;
                assert!(per > 0, "more regions than sites");
                let region_ids: Vec<_> = (0..regions)
                    .map(|r| topo.add_region(format!("region-{r}")))
                    .collect();
                for n in 0..self.sites {
                    let r = (n / per).min(regions - 1) as usize;
                    topo.place(NodeId(n), region_ids[r]);
                }
                let latency = RegionLatency::aws_global(topo.clone());
                Network::new(
                    topo,
                    Box::new(latency),
                    Box::new(BernoulliLoss::new(self.loss)),
                )
            }
            NetworkKind::ConstantDelay { one_way_us } => {
                let topo = Topology::single_region("constant", nodes);
                Network::new(
                    topo,
                    Box::new(simnet::ConstantLatency(SimDuration::from_micros(
                        one_way_us,
                    ))),
                    Box::new(BernoulliLoss::new(self.loss)),
                )
            }
        }
    }

    fn workload(&self) -> Workload {
        let mut w = Workload::writes_only(
            self.proposers.clone(),
            self.payload_bytes,
            self.target_commits,
            SimTime::ZERO + self.warmup,
        );
        if let Some(mix) = &self.reads {
            w.read_ratio = mix.ratio;
            w.read_consistency = mix.consistency;
            w.final_read = mix.final_read;
        }
        w
    }

    fn runner_cfg(&self, ack_scope: LogScope) -> RunnerConfig {
        RunnerConfig {
            seed: self.seed,
            ack_scope,
            measure_from: SimTime::ZERO + self.warmup,
            // Scenarios run at the full skew the timing claims to tolerate:
            // leases must stay linearizable under their own worst case.
            clock_skew: self.timing.max_clock_skew,
            disk_fsync_latency: self.timing.disk_fsync_latency,
            unbatched_persists: self.unbatched_persists,
            persist_stalls: None,
        }
    }

    fn measured_seconds(&self, end: SimTime) -> f64 {
        end.saturating_since(SimTime::ZERO + self.warmup)
            .as_secs_f64()
    }
}

/// Runs classic Raft over the scenario.
pub fn run_classic_raft(s: &Scenario) -> (RunReport, Metrics) {
    let cfg: Configuration = (0..s.sites).map(NodeId).collect();
    let root = SimRng::seed_from_u64(s.seed);
    let timing = s.timing;
    let nodes = (0..s.sites).map(|i| {
        RaftNode::new(
            NodeId(i),
            cfg.clone(),
            s.timing_for(NodeId(i)),
            root.split_indexed("raft-node", i),
        )
    });
    let mut runner = Runner::new(
        nodes,
        s.build_network(),
        s.workload(),
        s.faults.clone(),
        s.runner_cfg(LogScope::Global),
        SafetyChecker::new(),
    );
    let cfg2 = cfg.clone();
    let recover_rng = root.split("recover");
    runner.set_recovery(move |id, stable| {
        RaftNode::recover(
            id,
            stable,
            cfg2.clone(),
            timing,
            recover_rng.split_indexed("r", id.as_u64()),
        )
    });
    finish(runner, s, "raft")
}

/// Runs Fast Raft over the scenario.
pub fn run_fast_raft(s: &Scenario) -> (RunReport, Metrics) {
    let cfg: Configuration = (0..s.sites).map(NodeId).collect();
    let root = SimRng::seed_from_u64(s.seed);
    let timing = s.timing;
    let nodes = (0..s.sites).map(|i| {
        FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            s.timing_for(NodeId(i)),
            root.split_indexed("fast-node", i),
        )
    });
    let mut runner = Runner::new(
        nodes,
        s.build_network(),
        s.workload(),
        s.faults.clone(),
        s.runner_cfg(LogScope::Global),
        SafetyChecker::new(),
    );
    let cfg2 = cfg.clone();
    let recover_rng = root.split("recover");
    runner.set_recovery(move |id, stable| {
        FastRaftNode::recover(
            id,
            stable,
            cfg2.clone(),
            timing,
            recover_rng.split_indexed("r", id.as_u64()),
        )
    });
    finish(runner, s, "fast-raft")
}

/// C-Raft-specific parameters on top of a [`Scenario`].
#[derive(Clone, Debug)]
pub struct CRaftScenario {
    /// Number of clusters (sites are split evenly, row-major; the scenario's
    /// `NetworkKind::Regions` should use the same count).
    pub clusters: u64,
    /// Local commits per global batch.
    pub batch_size: usize,
    /// Byte budget per global batch (0 disables the byte cap; see
    /// [`consensus_core::CRaftConfig::max_batch_bytes`]).
    pub max_batch_bytes: usize,
    /// Snapshot threshold for the global log (0 disables compaction; see
    /// [`consensus_core::CRaftConfig::global_snapshot_threshold`]).
    pub global_snapshot_threshold: u64,
    /// Inter-cluster timing.
    pub global_timing: Timing,
    /// Global-level proposal mode (see [`consensus_core::ProposalMode`]).
    pub global_proposal_mode: consensus_core::ProposalMode,
}

impl CRaftScenario {
    /// The paper's Fig. 5 C-Raft parameters.
    pub fn paper(clusters: u64) -> Self {
        CRaftScenario {
            clusters,
            batch_size: 10,
            max_batch_bytes: wire::MAX_BYTES_PER_APPEND,
            global_snapshot_threshold: Timing::wan().snapshot_threshold,
            global_timing: Timing::wan(),
            global_proposal_mode: consensus_core::ProposalMode::LeaderForward,
        }
    }
}

/// Runs C-Raft over the scenario.
///
/// # Panics
///
/// Panics if sites are not evenly divisible across clusters.
pub fn run_craft(s: &Scenario, c: &CRaftScenario) -> (RunReport, Metrics) {
    assert_eq!(
        s.sites % c.clusters,
        0,
        "sites must divide evenly into clusters"
    );
    let per = s.sites / c.clusters;
    let mode = c.global_proposal_mode;
    let (nodes, global_bootstrap) = consensus_core::build_deployment(
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
            global_proposal_mode: mode,
        },
        s.seed,
    );
    let mut runner = Runner::new(
        nodes,
        s.build_network(),
        s.workload(),
        s.faults.clone(),
        s.runner_cfg(LogScope::Local),
        SafetyChecker::with_domains(move |n| n.as_u64() / per),
    );
    let local_timing = s.timing;
    let global_timing = c.global_timing;
    let batch = c.batch_size;
    let batch_bytes = c.max_batch_bytes;
    let global_snapshot_threshold = c.global_snapshot_threshold;
    let seed = s.seed;
    runner.set_recovery(move |id, stable| {
        let cluster = id.as_u64() / per;
        let members: Configuration = (0..per).map(|i| NodeId(cluster * per + i)).collect();
        CRaftNode::recover(
            id,
            stable,
            members,
            global_bootstrap.clone(),
            CRaftConfig {
                cluster: ClusterId(cluster),
                local_timing,
                global_timing,
                batch_size: batch,
                max_batch_bytes: batch_bytes,
                batch_flush_ms: 1000,
                global_snapshot_threshold,
                global_proposal_mode: mode,
            },
            SimRng::seed_from_u64(seed).split_indexed("craft-recover", id.as_u64()),
        )
    });
    finish(runner, s, "c-raft")
}

fn finish<P: wire::ConsensusProtocol>(
    mut runner: Runner<P>,
    s: &Scenario,
    name: &str,
) -> (RunReport, Metrics) {
    runner.run_until(SimTime::ZERO + s.duration);
    let report = RunReport::assemble(
        name,
        s.seed,
        runner.now().as_secs_f64(),
        s.measured_seconds(runner.now()),
        runner.metrics(),
        runner.net_stats(),
        runner.safety(),
        runner.completed(),
    );
    runner.safety().assert_ok();
    // Moved, not cloned: a copy would double the samples at the run's peak.
    (report, std::mem::take(&mut runner.metrics))
}
