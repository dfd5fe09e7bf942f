//! Write-path probe: what group commit buys when the disk is honest.
//!
//! Runs the same write-only closed-loop workload (11-site classic Raft, every
//! site proposing, node 0 biased to lead) twice from one seed with
//! `disk_fsync_latency` modeled at 10 ms:
//!
//! - **grouped** — each protocol step's persist commands coalesce into one
//!   fsync boundary ([`storage::PersistBatch`]); a heartbeat-gated dispatch
//!   window means a follower pays *one* fsync for the whole AppendEntries
//!   payload;
//! - **unbatched** — the honest twin: identical durable contents, but every
//!   persist command is its own boundary, so the same step stalls its
//!   outgoing messages behind N fsyncs instead of one.
//!
//! The deterministic simulator makes the pair directly comparable: fewer
//! fsync boundaries per committed entry (the `BENCH_commit.json` headline),
//! and a throughput win in the latency-on cell because the fsync stall is
//! paid once per step rather than once per command.

use des::{SimDuration, SimRng, SimTime};
use raft::{RaftNode, Timing};
use serde::Serialize;
use simnet::Network;
use wire::{Configuration, LogScope, NodeId};

use crate::{RunReport, Runner, RunnerConfig, SafetyChecker, Workload};

/// Sites in the probe cell (all propose; enough followers that the
/// dispatch-window batching dominates the boundary count).
const SITES: u64 = 11;
/// Modeled fsync cost — large enough to dominate LAN message latency, far
/// below the biased leader's 250 ms election floor (`Timing::validate`).
const FSYNC_MS: u64 = 10;

/// One twin's measurements.
#[derive(Clone, Debug, Serialize)]
pub struct CommitCell {
    /// "grouped" or "unbatched".
    pub mode: &'static str,
    /// Completed client operations.
    pub completed: u64,
    /// Fsync boundaries charged over the run.
    pub persist_batches: u64,
    /// Persist commands those boundaries covered.
    pub persist_cmds: u64,
    /// Mean commands per boundary (1.0 in the unbatched twin by
    /// construction).
    pub cmds_per_batch: f64,
    /// Fsync boundaries per committed entry — the honest write-path cost.
    pub batches_per_commit: f64,
    /// Committed entries per measured second.
    pub throughput_per_s: f64,
    /// Mean client-measured commit latency (ms).
    pub commit_mean_ms: f64,
}

/// The probe result: the grouped and unbatched cells.
#[derive(Clone, Debug, Serialize)]
pub struct CommitPathResult {
    /// `[grouped, unbatched]`.
    pub cells: Vec<CommitCell>,
}

fn runner(seed: u64, ops: u64, unbatched: bool) -> Runner<RaftNode> {
    let cfg: Configuration = (0..SITES).map(NodeId).collect();
    let root = SimRng::seed_from_u64(seed);
    let nodes = (0..SITES).map(|i| {
        let mut t = Timing::lan();
        t.disk_fsync_latency = SimDuration::from_millis(FSYNC_MS);
        // Keep the lease invariant inside the biased window
        // (`Timing::validate`: election_min >= lease + skew), uniform
        // across the cluster.
        t.lease_duration = SimDuration::from_millis(150);
        t.max_clock_skew = SimDuration::from_millis(25);
        if i == 0 {
            t.election_min = SimDuration::from_millis(250);
            t.election_max = SimDuration::from_millis(300);
        }
        RaftNode::new(NodeId(i), cfg.clone(), t, root.split_indexed("n", i))
    });
    let workload = Workload::writes_only(
        (0..SITES).map(NodeId).collect(),
        64,
        Some(ops),
        SimTime::from_secs(3),
    );
    Runner::new(
        nodes,
        Network::reliable_lan((0..SITES).map(NodeId)),
        workload,
        Vec::new(),
        RunnerConfig {
            seed,
            ack_scope: LogScope::Global,
            measure_from: SimTime::from_secs(3),
            clock_skew: SimDuration::ZERO,
            disk_fsync_latency: SimDuration::from_millis(FSYNC_MS),
            unbatched_persists: unbatched,
            persist_stalls: None,
        },
        SafetyChecker::new(),
    )
}

fn cell(mode: &'static str, seed: u64, ops: u64) -> CommitCell {
    let mut r = runner(seed, ops, mode == "unbatched");
    r.run_until(SimTime::from_secs(600));
    r.safety().assert_ok();
    let report = RunReport::assemble(
        mode,
        seed,
        r.now().as_secs_f64(),
        r.now()
            .saturating_since(SimTime::from_secs(3))
            .as_secs_f64(),
        r.metrics(),
        r.net_stats(),
        r.safety(),
        r.completed(),
    );
    assert!(report.safety_ok, "{mode}: safety violated");
    assert!(
        report.completed >= ops,
        "{mode}: workload starved ({} / {ops})",
        report.completed
    );
    CommitCell {
        mode,
        completed: report.completed,
        persist_batches: report.persist_batches,
        persist_cmds: report.persist_cmds,
        cmds_per_batch: report.cmds_per_batch,
        batches_per_commit: report.persist_batches as f64 / report.completed as f64,
        throughput_per_s: report.throughput_per_s,
        commit_mean_ms: report.latency.mean_ms,
    }
}

/// Runs the grouped / unbatched pair.
///
/// # Panics
///
/// Panics when either cell violates safety or starves, when the unbatched
/// twin fails to charge one boundary per command, or when group commit
/// fails to cut boundaries-per-commit or throughput against the unbatched
/// twin.
pub fn run(seed: u64, ops: u64) -> CommitPathResult {
    let grouped = cell("grouped", seed, ops);
    let unbatched = cell("unbatched", seed, ops);
    assert!(
        (unbatched.cmds_per_batch - 1.0).abs() < 1e-9,
        "unbatched twin must charge one boundary per command, got {}",
        unbatched.cmds_per_batch
    );
    // The twins run different schedules (the per-command stall shifts every
    // downstream message), so command counts need not match exactly — but
    // serializing the fsyncs can only add retransmission work, never save
    // writes.
    assert!(
        unbatched.persist_cmds as f64 >= 0.95 * grouped.persist_cmds as f64,
        "unbatched twin persisted fewer commands than grouped: {} vs {}",
        unbatched.persist_cmds,
        grouped.persist_cmds
    );
    assert!(
        grouped.batches_per_commit < unbatched.batches_per_commit,
        "group commit failed to cut fsync boundaries: grouped={:.2} unbatched={:.2}",
        grouped.batches_per_commit,
        unbatched.batches_per_commit
    );
    assert!(
        grouped.throughput_per_s > unbatched.throughput_per_s,
        "group commit failed to win on throughput: grouped={:.1}/s unbatched={:.1}/s",
        grouped.throughput_per_s,
        unbatched.throughput_per_s
    );
    CommitPathResult {
        cells: vec![grouped, unbatched],
    }
}

impl CommitPathResult {
    /// Fsync-boundary ratio per committed entry, unbatched over grouped
    /// (> 1: group commit wins; the `BENCH_commit.json` headline).
    pub fn fsync_batch_ratio(&self) -> f64 {
        let (g, u) = (&self.cells[0], &self.cells[1]);
        if g.batches_per_commit <= 0.0 {
            0.0
        } else {
            u.batches_per_commit / g.batches_per_commit
        }
    }

    /// Throughput ratio, grouped over unbatched (> 1: group commit wins).
    pub fn tput_speedup(&self) -> f64 {
        let (g, u) = (&self.cells[0], &self.cells[1]);
        if u.throughput_per_s <= 0.0 {
            0.0
        } else {
            g.throughput_per_s / u.throughput_per_s
        }
    }

    /// Mean persist commands coalesced per fsync boundary in the grouped
    /// run.
    pub fn cmds_per_batch(&self) -> f64 {
        self.cells[0].cmds_per_batch
    }

    /// Machine-readable JSON for the CI bench gate (higher is better for
    /// every series).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"commit_path\",\n  \"series\": {{\n    \
             \"commit/fsync_batch_ratio\": {:.3},\n    \
             \"commit/cmds_per_batch\": {:.3},\n    \
             \"commit/tput_speedup\": {:.3}\n  }}\n}}\n",
            self.fsync_batch_ratio(),
            self.cmds_per_batch(),
            self.tput_speedup(),
        )
    }

    /// Renders the probe.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Write-path probe: group commit, fsync 10 ms modeled\n");
        out.push_str("mode        ops    batches     cmds   cmds/b  b/commit  tput/s   lat-ms\n");
        for c in &self.cells {
            out.push_str(&format!(
                "{:10}  {:5}  {:8}  {:7}  {:6.2}  {:8.3}  {:6.1}  {:7.2}\n",
                c.mode,
                c.completed,
                c.persist_batches,
                c.persist_cmds,
                c.cmds_per_batch,
                c.batches_per_commit,
                c.throughput_per_s,
                c.commit_mean_ms
            ));
        }
        out.push_str(&format!(
            "fsync ratio {:.2}x  tput speedup {:.2}x\n",
            self.fsync_batch_ratio(),
            self.tput_speedup(),
        ));
        out
    }
}
