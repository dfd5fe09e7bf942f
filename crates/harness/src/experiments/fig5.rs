//! Fig. 5: global-log throughput of classic Raft vs C-Raft as 20 sites are
//! split into more, smaller clusters across regions (one proposer per
//! cluster, C-Raft batch = 10, trials of simulated minutes).

use des::{SimDuration, SimRng};
use serde::Serialize;
use wire::NodeId;

use crate::{run_classic_raft, run_craft, CRaftScenario, NetworkKind, Scenario};
use raft::Timing;

/// One point of the figure.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig5Row {
    /// Number of clusters (= regions).
    pub clusters: u64,
    /// Classic Raft throughput (committed entries / simulated second).
    pub raft_tput: f64,
    /// C-Raft throughput.
    pub craft_tput: f64,
    /// C-Raft / Raft ratio.
    pub speedup: f64,
}

/// The whole figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Result {
    /// One row per cluster count.
    pub rows: Vec<Fig5Row>,
    /// Speedup at the largest cluster count (paper: ~5x at 10 clusters).
    pub max_speedup: f64,
}

/// Builds the shared scenario for one (clusters, seed) cell.
fn scenario(sites: u64, clusters: u64, seed: u64, secs: u64) -> Scenario {
    let per = sites / clusters;
    // One proposer per cluster, chosen at random within the cluster (§VI-C).
    let mut rng = SimRng::seed_from_u64(seed ^ 0xF1_65);
    let proposers: Vec<NodeId> = (0..clusters)
        .map(|c| NodeId(c * per + rng.gen_range(0..per)))
        .collect();
    Scenario {
        seed,
        sites,
        network: NetworkKind::Regions { regions: clusters },
        loss: 0.0,
        timing: Timing::lan(),
        proposers,
        payload_bytes: 64,
        target_commits: None,
        duration: SimDuration::from_secs(secs + 10),
        warmup: SimDuration::from_secs(10),
        faults: Vec::new(),
        leader_bias: None,
        reads: None,
        unbatched_persists: false,
    }
}

/// Runs the sweep over `cluster_counts`, each trial lasting `secs`
/// simulated seconds of measurement, averaging throughput over `seeds`.
pub fn run(seeds: &[u64], cluster_counts: &[u64], sites: u64, secs: u64) -> Fig5Result {
    let mut rows = Vec::new();
    for &clusters in cluster_counts {
        assert_eq!(sites % clusters, 0, "sites must split evenly");
        let mut raft_acc = 0.0;
        let mut craft_acc = 0.0;
        for &seed in seeds {
            let s = scenario(sites, clusters, seed, secs);
            let (raft_report, _) = run_classic_raft(&s);
            let (craft_report, _) = run_craft(&s, &CRaftScenario::paper(clusters));
            assert!(raft_report.safety_ok && craft_report.safety_ok);
            raft_acc += raft_report.throughput_per_s;
            craft_acc += craft_report.throughput_per_s;
        }
        let n = seeds.len() as f64;
        let raft_tput = raft_acc / n;
        let craft_tput = craft_acc / n;
        rows.push(Fig5Row {
            clusters,
            raft_tput,
            craft_tput,
            speedup: if raft_tput > 0.0 {
                craft_tput / raft_tput
            } else {
                f64::INFINITY
            },
        });
    }
    let max_speedup = rows.iter().map(|r| r.speedup).fold(0.0, f64::max);
    Fig5Result { rows, max_speedup }
}

impl Fig5Result {
    /// Machine-readable JSON for the CI bench gate: one flat `series`
    /// object mapping `protocol/clusters` to throughput (entries/s).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"bench\": \"fig5\",\n  \"series\": {\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            s.push_str(&format!(
                "    \"raft/{c}\": {raft:.2},\n    \"craft/{c}\": {craft:.2}{comma}\n",
                c = r.clusters,
                raft = r.raft_tput,
                craft = r.craft_tput,
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Renders the figure's series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Fig 5: global throughput, classic Raft vs C-Raft (20 sites, regions = clusters)\n",
        );
        out.push_str("clusters  raft(entries/s)  c-raft(entries/s)  speedup\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:8}  {:15.2}  {:17.2}  {:6.2}x\n",
                r.clusters, r.raft_tput, r.craft_tput, r.speedup
            ));
        }
        out.push_str(&format!(
            "max speedup: {:.2}x (paper: ~5x at 10 clusters)\n",
            self.max_speedup
        ));
        out
    }
}
