//! Figs. 1–2 as a measurement: the number of one-way message delays between
//! proposing a value and the proposer learning of its commit.
//!
//! The paper's flow diagrams give classic Raft four hops (P→L, L→F, F→L,
//! L→P) and Fast Raft three (P→all, F→L, L→P). On a network with a constant
//! one-way delay `D` and leader tick intervals made negligible, measured
//! latency divided by `D` recovers the hop count.

use des::{SimDuration, SimRng};
use serde::Serialize;
use wire::NodeId;

use crate::{run_classic_raft, run_fast_raft, NetworkKind, Scenario};
use raft::Timing;

/// The measured hop counts.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RoundsResult {
    /// One-way delay used (ms).
    pub one_way_ms: f64,
    /// Classic Raft mean latency (ms).
    pub raft_ms: f64,
    /// Fast Raft mean latency (ms).
    pub fast_ms: f64,
    /// Classic Raft hops = latency / delay.
    pub raft_hops: f64,
    /// Fast Raft hops.
    pub fast_hops: f64,
}

/// Runs the measurement with a 10 ms one-way delay and near-zero ticks.
pub fn run(seed: u64, commits: u64) -> RoundsResult {
    let one_way = SimDuration::from_millis(10);
    // Shrink all leader periodicity so network delays dominate.
    let timing = Timing {
        heartbeat: SimDuration::from_millis(1),
        decision_tick: SimDuration::from_millis(1),
        election_min: SimDuration::from_millis(3000),
        election_max: SimDuration::from_millis(4000),
        proposal_timeout: SimDuration::from_millis(2000),
        join_timeout: SimDuration::from_millis(2000),
        member_timeout_beats: 2000,
        hole_fill_ticks: 500,
        max_entries_per_append: 128,
        snapshot_threshold: 1024,
        session_ttl: 0,
        // Leases disabled: this experiment measures write commit hops and
        // its figures predate (and are independent of) the read lease.
        lease_duration: SimDuration::ZERO,
        max_clock_skew: SimDuration::ZERO,
        disk_fsync_latency: SimDuration::ZERO,
    };
    // Proposer chosen among followers (the figures draw P distinct from L).
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0F16);
    let proposer = NodeId(rng.gen_range(1..5u64));
    let scenario = Scenario {
        seed,
        sites: 5,
        network: NetworkKind::ConstantDelay {
            one_way_us: one_way.as_micros(),
        },
        loss: 0.0,
        timing,
        proposers: vec![proposer],
        payload_bytes: 64,
        target_commits: Some(commits),
        duration: SimDuration::from_secs(600),
        warmup: SimDuration::from_secs(5),
        faults: Vec::new(),
        leader_bias: Some(NodeId(0)),
        reads: None,
        unbatched_persists: false,
    };
    let (raft_report, _) = run_classic_raft(&scenario);
    let (fast_report, _) = run_fast_raft(&scenario);
    assert!(raft_report.safety_ok && fast_report.safety_ok);
    let d = one_way.as_millis_f64();
    RoundsResult {
        one_way_ms: d,
        raft_ms: raft_report.latency.mean_ms,
        fast_ms: fast_report.latency.mean_ms,
        raft_hops: raft_report.latency.mean_ms / d,
        fast_hops: fast_report.latency.mean_ms / d,
    }
}

impl RoundsResult {
    /// Machine-readable JSON for the CI bench gate: one-way hops per
    /// committed proposal.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"rounds\",\n  \"series\": {{\n    \
             \"raft_hops\": {:.2},\n    \
             \"fast_hops\": {:.2}\n  }}\n}}\n",
            self.raft_hops, self.fast_hops
        )
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        format!(
            "Figs 1-2: message rounds per committed proposal (one-way delay {:.0}ms)\n\
             classic raft: {:.2}ms  = {:.2} one-way hops (paper flow: 4)\n\
             fast raft:    {:.2}ms  = {:.2} one-way hops (paper flow: 3)\n\
             commit at leader: classic 3 hops vs fast 2 hops -- \"from three rounds to two\"\n",
            self.one_way_ms, self.raft_ms, self.raft_hops, self.fast_ms, self.fast_hops
        )
    }
}
