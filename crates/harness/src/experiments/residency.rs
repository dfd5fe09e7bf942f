//! Long-run log-residency probe: demonstrates that snapshot + compaction
//! bounds peak per-site log residency (vs. linear growth with compaction
//! off) at unchanged committed throughput, and that a site rejoining after
//! the compaction horizon passed it catches up via snapshot transfer —
//! for both Fast Raft and C-Raft.

use des::{SimDuration, SimTime};
use serde::Serialize;
use wire::NodeId;

use crate::{run_craft, run_fast_raft, CRaftScenario, FaultAction, NetworkKind, Scenario};
use raft::Timing;

/// One protocol's compaction-on vs compaction-off comparison.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ResidencyCell {
    /// "fast" or "craft".
    pub protocol: &'static str,
    /// The snapshot threshold used in the compacting run.
    pub threshold: u64,
    /// Peak per-site retained log entries with compaction on.
    pub peak_on: u64,
    /// Peak per-site retained log entries with compaction off.
    pub peak_off: u64,
    /// Committed throughput with compaction on (entries/s).
    pub tput_on: f64,
    /// Committed throughput with compaction off.
    pub tput_off: f64,
    /// Compactions performed in the compacting run.
    pub compactions: u64,
    /// Snapshots installed in the compacting run (the rejoin path).
    pub snapshot_installs: u64,
}

impl ResidencyCell {
    /// How many times smaller the bounded peak is than unbounded growth —
    /// the number the CI gate watches (a regression towards 1.0 means
    /// compaction stopped bounding memory).
    pub fn bound_ratio(&self) -> f64 {
        if self.peak_on == 0 {
            return 0.0;
        }
        self.peak_off as f64 / self.peak_on as f64
    }
}

/// The probe result.
#[derive(Clone, Debug, Serialize)]
pub struct ResidencyResult {
    /// One cell per protocol.
    pub cells: Vec<ResidencyCell>,
}

/// Fast Raft cell: 5 sites, one region, two proposers, one site absent
/// through the middle of the run (rejoining after the horizon passed it).
fn fast_scenario(seed: u64, secs: u64, threshold: u64) -> Scenario {
    Scenario {
        seed,
        sites: 5,
        network: NetworkKind::SingleRegion,
        loss: 0.0,
        timing: Timing {
            snapshot_threshold: threshold,
            ..Timing::lan()
        },
        proposers: vec![NodeId(1), NodeId(2)],
        payload_bytes: 64,
        target_commits: None,
        duration: SimDuration::from_secs(secs),
        warmup: SimDuration::from_secs(3),
        faults: vec![
            (SimTime::from_secs(secs / 4), FaultAction::Crash(NodeId(4))),
            (
                SimTime::from_secs(secs * 3 / 4),
                FaultAction::Recover(NodeId(4)),
            ),
        ],
        leader_bias: Some(NodeId(0)),
        reads: None,
        unbatched_persists: false,
    }
}

/// C-Raft cell: 3 clusters of 3, batch size 1 so the global log grows at
/// local-commit rate; cluster 0's leader dies mid-run, forcing its
/// successor to join the global level past the compaction horizon.
fn craft_scenario(seed: u64, secs: u64, threshold: u64) -> (Scenario, CRaftScenario) {
    let clusters = 3u64;
    let s = Scenario {
        seed,
        sites: 9,
        network: NetworkKind::Regions { regions: clusters },
        loss: 0.0,
        timing: Timing {
            snapshot_threshold: threshold,
            ..Timing::lan()
        },
        proposers: vec![NodeId(1), NodeId(4), NodeId(7)],
        payload_bytes: 64,
        target_commits: None,
        duration: SimDuration::from_secs(secs),
        warmup: SimDuration::from_secs(5),
        faults: vec![(SimTime::from_secs(secs / 3), FaultAction::Crash(NodeId(0)))],
        leader_bias: None,
        reads: None,
        unbatched_persists: false,
    };
    let mut c = CRaftScenario::paper(clusters);
    c.batch_size = 1;
    c.max_batch_bytes = 0;
    c.global_snapshot_threshold = threshold;
    (s, c)
}

/// Runs both cells, each with compaction on (`threshold`) and off (0).
pub fn run(seed: u64, secs: u64, threshold: u64) -> ResidencyResult {
    let (fast_on, _) = run_fast_raft(&fast_scenario(seed, secs, threshold));
    let (fast_off, _) = run_fast_raft(&fast_scenario(seed, secs, 0));
    assert!(fast_on.safety_ok && fast_off.safety_ok);

    let (s_on, c_on) = craft_scenario(seed, secs, threshold);
    let (s_off, c_off) = craft_scenario(seed, secs, 0);
    let (craft_on, _) = run_craft(&s_on, &c_on);
    let (craft_off, _) = run_craft(&s_off, &c_off);
    assert!(craft_on.safety_ok && craft_off.safety_ok);

    ResidencyResult {
        cells: vec![
            ResidencyCell {
                protocol: "fast",
                threshold,
                peak_on: fast_on.peak_log_residency,
                peak_off: fast_off.peak_log_residency,
                tput_on: fast_on.throughput_per_s,
                tput_off: fast_off.throughput_per_s,
                compactions: fast_on.compactions,
                snapshot_installs: fast_on.snapshot_installs,
            },
            ResidencyCell {
                protocol: "craft",
                threshold,
                peak_on: craft_on.peak_log_residency,
                peak_off: craft_off.peak_log_residency,
                tput_on: craft_on.throughput_per_s,
                tput_off: craft_off.throughput_per_s,
                compactions: craft_on.compactions,
                snapshot_installs: craft_on.snapshot_installs,
            },
        ],
    }
}

impl ResidencyResult {
    /// Machine-readable JSON for the CI bench gate: throughput (regression
    /// = slower) and bound ratio (regression = compaction stopped bounding
    /// residency) per protocol.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"bench\": \"residency\",\n  \"series\": {\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            s.push_str(&format!(
                "    \"{p}/tput\": {t:.2},\n    \"{p}/bound_ratio\": {r:.2}{comma}\n",
                p = c.protocol,
                t = c.tput_on,
                r = c.bound_ratio(),
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Renders the probe.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Long-run residency probe: snapshot compaction on vs off\n");
        out.push_str(
            "proto  thresh  peak-on  peak-off  bound  tput-on  tput-off  compact  installs\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:5}  {:6}  {:7}  {:8}  {:4.1}x  {:7.1}  {:8.1}  {:7}  {:8}\n",
                c.protocol,
                c.threshold,
                c.peak_on,
                c.peak_off,
                c.bound_ratio(),
                c.tput_on,
                c.tput_off,
                c.compactions,
                c.snapshot_installs
            ));
        }
        out
    }
}
