//! Read/write-mix probe: the workload-diversity unlock of the client API.
//!
//! Every pre-session experiment was 100% writes. This probe runs a 50/50
//! linearizable-read/write session workload over a Fast Raft cell (5 sites,
//! one region) and a C-Raft cell (2 clusters × 3 sites across regions,
//! where linearizable reads are **global** reads confirmed through the
//! global engine), with every read checked online for linearizability and a
//! crash/recover window in the fast cell exercising retry + session dedup.
//!
//! The CI gate watches two series per cell: write throughput (committed
//! values/s) and read speed (1000 / mean read latency ms, so that both
//! series read "higher is better").

use des::{SimDuration, SimTime};
use serde::Serialize;
use wire::NodeId;

use crate::{run_craft, run_fast_raft, CRaftScenario, FaultAction, NetworkKind, ReadMix, Scenario};
use raft::Timing;

/// One protocol's mixed-workload measurements.
#[derive(Clone, Debug, Serialize)]
pub struct ReadMixCell {
    /// "fast" or "craft".
    pub protocol: &'static str,
    /// Completed client operations.
    pub completed: u64,
    /// Write throughput (committed values per measured second).
    pub write_tput: f64,
    /// Mean client-measured write latency (ms).
    pub write_mean_ms: f64,
    /// Mean client-measured read latency (ms).
    pub read_mean_ms: f64,
    /// p95 read latency (ms).
    pub read_p95_ms: f64,
    /// Linearizable reads verified by the safety checker.
    pub lin_reads_checked: u64,
    /// Server-side duplicate suppressions (retries recognized).
    pub duplicates_suppressed: u64,
    /// Client-side resubmissions.
    pub client_retries: u64,
}

impl ReadMixCell {
    /// 1000 / mean read latency — a "reads are fast" score where higher is
    /// better.
    pub fn read_speed(&self) -> f64 {
        if self.read_mean_ms <= 0.0 {
            0.0
        } else {
            1e3 / self.read_mean_ms
        }
    }
}

/// The probe result.
#[derive(Clone, Debug, Serialize)]
pub struct ReadMixResult {
    /// One cell per protocol.
    pub cells: Vec<ReadMixCell>,
}

fn fast_scenario(seed: u64, ops: u64) -> Scenario {
    let mut s = Scenario::fig3_base(seed, 0.0);
    s.proposers = vec![NodeId(1), NodeId(2)];
    s.target_commits = Some(ops);
    s.duration = SimDuration::from_secs(600);
    s.leader_bias = Some(NodeId(0));
    s.reads = Some(ReadMix::half_linearizable());
    // A proposer-side crash window: its in-flight (session, seq) is
    // resubmitted on recovery, exercising retry + duplicate suppression.
    s.faults = vec![
        (SimTime::from_secs(6), FaultAction::Crash(NodeId(2))),
        (SimTime::from_secs(8), FaultAction::Recover(NodeId(2))),
    ];
    s
}

fn craft_scenario(seed: u64, ops: u64) -> (Scenario, CRaftScenario) {
    let s = Scenario {
        seed,
        sites: 6,
        network: NetworkKind::Regions { regions: 2 },
        loss: 0.0,
        timing: Timing::lan(),
        proposers: vec![NodeId(1), NodeId(4)],
        payload_bytes: 64,
        target_commits: Some(ops),
        duration: SimDuration::from_secs(600),
        warmup: SimDuration::from_secs(5),
        faults: Vec::new(),
        leader_bias: None,
        reads: Some(ReadMix::half_linearizable()),
        unbatched_persists: false,
    };
    (s, CRaftScenario::paper(2))
}

/// Runs both cells.
///
/// # Panics
///
/// Panics when a cell violates safety, a linearizable read goes unchecked,
/// or the crash window fails to exercise the retry path.
pub fn run(seed: u64, ops: u64) -> ReadMixResult {
    let (fast, fast_metrics) = run_fast_raft(&fast_scenario(seed, ops));
    assert!(fast.safety_ok, "fast cell violated safety");
    assert!(
        fast.lin_reads_checked > 0,
        "fast cell: no linearizable read was checked"
    );

    let (s, c) = craft_scenario(seed, ops);
    let (craft, craft_metrics) = run_craft(&s, &c);
    assert!(craft.safety_ok, "craft cell violated safety");
    assert!(
        craft.lin_reads_checked > 0,
        "craft cell: no global read was confirmed"
    );

    ReadMixResult {
        cells: vec![
            ReadMixCell {
                protocol: "fast",
                completed: fast.completed,
                write_tput: fast.throughput_per_s,
                write_mean_ms: fast.latency.mean_ms,
                read_mean_ms: fast.read_latency.mean_ms,
                read_p95_ms: fast.read_latency.p95_ms,
                lin_reads_checked: fast.lin_reads_checked,
                duplicates_suppressed: fast.duplicates_suppressed,
                client_retries: fast.client_retries,
            },
            ReadMixCell {
                protocol: "craft",
                completed: craft.completed,
                write_tput: craft.throughput_per_s,
                write_mean_ms: craft.latency.mean_ms,
                read_mean_ms: craft.read_latency.mean_ms,
                read_p95_ms: craft.read_latency.p95_ms,
                lin_reads_checked: craft.lin_reads_checked,
                duplicates_suppressed: craft.duplicates_suppressed,
                client_retries: craft.client_retries,
            },
        ],
    }
    .also_checked(
        fast_metrics.read_samples.len(),
        craft_metrics.read_samples.len(),
    )
}

impl ReadMixResult {
    fn also_checked(self, fast_reads: usize, craft_reads: usize) -> Self {
        assert!(
            fast_reads > 0 && craft_reads > 0,
            "a cell completed no reads"
        );
        self
    }

    /// Machine-readable JSON for the CI bench gate.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"bench\": \"read_mix\",\n  \"series\": {\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 == self.cells.len() { "" } else { "," };
            s.push_str(&format!(
                "    \"{p}/wtput\": {t:.2},\n    \"{p}/rspeed\": {r:.2}{comma}\n",
                p = c.protocol,
                t = c.write_tput,
                r = c.read_speed(),
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Renders the probe.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Read/write mix probe: 50/50 linearizable reads, sessions + dedup\n");
        out.push_str(
            "proto  ops    wtput   wlat-ms  rlat-ms  r-p95   lin-checked  dups  retries\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{:5}  {:5}  {:6.1}  {:7.2}  {:7.2}  {:6.2}  {:11}  {:4}  {:7}\n",
                c.protocol,
                c.completed,
                c.write_tput,
                c.write_mean_ms,
                c.read_mean_ms,
                c.read_p95_ms,
                c.lin_reads_checked,
                c.duplicates_suppressed,
                c.client_retries
            ));
        }
        out
    }
}
