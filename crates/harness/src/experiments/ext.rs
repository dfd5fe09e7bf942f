//! Extension experiments beyond the paper's figures (ablations listed in
//! `docs/DEVIATIONS.md`, row 4).

use des::SimDuration;
use serde::Serialize;
use wire::NodeId;

use crate::{run_craft, run_fast_raft, CRaftScenario, NetworkKind, Scenario};
use raft::Timing;

// ---------------------------------------------------------------------
// Ext-B: C-Raft batch-size sweep
// ---------------------------------------------------------------------

/// One row of the batch-size sweep.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct BatchRow {
    /// Local commits per global batch.
    pub batch_size: usize,
    /// Global throughput (entries/s).
    pub tput: f64,
    /// Mean proposer-visible (local commit) latency, ms.
    pub local_latency_ms: f64,
    /// Inter-region bytes per committed entry.
    pub wan_bytes_per_entry: f64,
}

/// Sweep result.
#[derive(Clone, Debug, Serialize)]
pub struct BatchSweepResult {
    /// One row per batch size.
    pub rows: Vec<BatchRow>,
}

/// Runs the batch sweep on an 8-cluster, 40-site deployment (doubled from
/// the original 4x20 so the sweep exercises the fan-out the zero-copy
/// fabric targets).
pub fn batch_sweep(seed: u64, batch_sizes: &[usize], secs: u64) -> BatchSweepResult {
    let clusters = 8u64;
    let sites = 40u64;
    let per = sites / clusters;
    let proposers: Vec<NodeId> = (0..clusters).map(|c| NodeId(c * per + 1)).collect();
    let mut rows = Vec::new();
    for &batch_size in batch_sizes {
        let s = Scenario {
            seed,
            sites,
            network: NetworkKind::Regions { regions: clusters },
            loss: 0.0,
            timing: Timing::lan(),
            proposers: proposers.clone(),
            payload_bytes: 64,
            target_commits: None,
            duration: SimDuration::from_secs(secs + 10),
            warmup: SimDuration::from_secs(10),
            faults: Vec::new(),
            leader_bias: None,
            reads: None,
            unbatched_persists: false,
        };
        let craft = CRaftScenario {
            clusters,
            batch_size,
            max_batch_bytes: wire::MAX_BYTES_PER_APPEND,
            global_snapshot_threshold: Timing::wan().snapshot_threshold,
            global_timing: Timing::wan(),
            global_proposal_mode: consensus_core::ProposalMode::LeaderForward,
        };
        let (report, _) = run_craft(&s, &craft);
        assert!(report.safety_ok);
        let entries = report.global_items.max(1);
        rows.push(BatchRow {
            batch_size,
            tput: report.throughput_per_s,
            local_latency_ms: report.latency.mean_ms,
            wan_bytes_per_entry: report.net.inter_region_bytes as f64 / entries as f64,
        });
    }
    BatchSweepResult { rows }
}

impl BatchSweepResult {
    /// Machine-readable JSON for the CI bench gate: one flat `series`
    /// object mapping `craft/b<batch>` to throughput (entries/s).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"bench\": \"ext_batch\",\n  \"series\": {\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            s.push_str(&format!(
                "    \"craft/b{}\": {:.2}{}\n",
                r.batch_size, r.tput, comma
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Ext-B: C-Raft batch-size sweep (8 clusters, 40 sites)\n");
        out.push_str("batch   tput(entries/s)  local-lat(ms)  wan-bytes/entry\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:5}   {:15.2}  {:13.2}  {:15.0}\n",
                r.batch_size, r.tput, r.local_latency_ms, r.wan_bytes_per_entry
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Ext-C: proposer contention on the fast track
// ---------------------------------------------------------------------

/// One row of the contention study.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ContentionRow {
    /// Number of concurrent closed-loop proposers.
    pub proposers: usize,
    /// Mean commit latency (ms).
    pub latency_ms: f64,
    /// Fraction of leader commits on the fast track.
    pub fast_track_ratio: f64,
    /// Aggregate commit throughput (proposals/s).
    pub tput: f64,
}

/// The contention study result.
#[derive(Clone, Debug, Serialize)]
pub struct ContentionResult {
    /// One row per proposer count.
    pub rows: Vec<ContentionRow>,
}

/// Measures how concurrent proposals erode Fast Raft's fast track
/// (the liveness condition of §IV-F motivates this).
pub fn contention(seed: u64, max_proposers: usize, secs: u64) -> ContentionResult {
    let mut rows = Vec::new();
    for k in 1..=max_proposers {
        let proposers: Vec<NodeId> = (0..k as u64).map(NodeId).collect();
        let s = Scenario {
            seed,
            sites: 5,
            network: NetworkKind::SingleRegion,
            loss: 0.0,
            timing: Timing::lan(),
            proposers,
            payload_bytes: 64,
            target_commits: None,
            duration: SimDuration::from_secs(secs + 3),
            warmup: SimDuration::from_secs(3),
            faults: Vec::new(),
            leader_bias: None,
            reads: None,
            unbatched_persists: false,
        };
        let (report, metrics) = run_fast_raft(&s);
        assert!(report.safety_ok);
        rows.push(ContentionRow {
            proposers: k,
            latency_ms: report.latency.mean_ms,
            fast_track_ratio: report.fast_track_ratio,
            tput: metrics.samples.len() as f64 / secs as f64,
        });
    }
    ContentionResult { rows }
}

impl ContentionResult {
    /// Machine-readable JSON for the figure ledger: per proposer count `k`,
    /// `lat/<k>` (mean commit latency, ms), `ftr/<k>` (fast-track share)
    /// and `tput/<k>` (commits/s).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"bench\": \"ext_contention\",\n  \"series\": {\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            s.push_str(&format!(
                "    \"lat/{k}\": {lat:.2},\n    \"ftr/{k}\": {ftr:.4},\n    \"tput/{k}\": {tput:.2}{comma}\n",
                k = r.proposers,
                lat = r.latency_ms,
                ftr = r.fast_track_ratio,
                tput = r.tput,
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Ext-C: concurrent proposers vs the fast track (Fast Raft, 5 sites, 0% loss)\n",
        );
        out.push_str("proposers  latency(ms)  fast-track  commits/s\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:9}  {:11.2}  {:9.1}%  {:9.1}\n",
                r.proposers,
                r.latency_ms,
                r.fast_track_ratio * 100.0,
                r.tput
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Ext-A: global proposal-mode ablation
// ---------------------------------------------------------------------

/// One row of the proposal-mode ablation.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ModeRow {
    /// Number of clusters.
    pub clusters: u64,
    /// Throughput with the paper-literal broadcast fast track.
    pub broadcast_tput: f64,
    /// Throughput with leader-forwarded batches.
    pub forward_tput: f64,
}

/// The ablation result.
#[derive(Clone, Debug, Serialize)]
pub struct ModeAblationResult {
    /// One row per cluster count.
    pub rows: Vec<ModeRow>,
}

/// Compares C-Raft's global proposal modes: the paper-literal broadcast
/// fast track collides under concurrent per-cluster batch proposals
/// (§IV-F's liveness caveat), while leader forwarding keeps index
/// assignment contention-free.
pub fn mode_ablation(seed: u64, cluster_counts: &[u64], secs: u64) -> ModeAblationResult {
    let sites = 20u64;
    let mut rows = Vec::new();
    for &clusters in cluster_counts {
        let per = sites / clusters;
        let proposers: Vec<NodeId> = (0..clusters).map(|c| NodeId(c * per + 1 % per)).collect();
        let s = Scenario {
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
        };
        let mut broadcast = CRaftScenario::paper(clusters);
        broadcast.global_proposal_mode = consensus_core::ProposalMode::Broadcast;
        let forward = CRaftScenario::paper(clusters);
        let (b, _) = run_craft(&s, &broadcast);
        let (f, _) = run_craft(&s, &forward);
        assert!(b.safety_ok && f.safety_ok);
        rows.push(ModeRow {
            clusters,
            broadcast_tput: b.throughput_per_s,
            forward_tput: f.throughput_per_s,
        });
    }
    ModeAblationResult { rows }
}

impl ModeAblationResult {
    /// Machine-readable JSON for the figure ledger: per cluster count `c`,
    /// `broadcast/<c>` and `forward/<c>` throughput (entries/s).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"bench\": \"ext_mode\",\n  \"series\": {\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            s.push_str(&format!(
                "    \"broadcast/{c}\": {b:.2},\n    \"forward/{c}\": {f:.2}{comma}\n",
                c = r.clusters,
                b = r.broadcast_tput,
                f = r.forward_tput,
            ));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// Renders the ablation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Ext-A: C-Raft global proposal mode (broadcast fast track vs leader forward)\n",
        );
        out.push_str("clusters  broadcast(entries/s)  leader-forward(entries/s)\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:8}  {:20.2}  {:25.2}\n",
                r.clusters, r.broadcast_tput, r.forward_tput
            ));
        }
        out.push_str(
            "(broadcast collapses as concurrent clusters collide on global indices;\n\
             leader forwarding matches the paper's scaling)\n",
        );
        out
    }
}
