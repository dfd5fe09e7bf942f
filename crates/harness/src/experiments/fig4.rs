//! Fig. 4: commit-latency time series while two of five sites silently
//! leave (5 % loss, member timeout of five missed heartbeat responses).

use des::{SimDuration, SimTime};
use serde::Serialize;
use wire::NodeId;

use crate::{run_fast_raft, FaultAction, NetworkKind, Scenario};
use raft::Timing;

/// One plotted proposal.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig4Point {
    /// Completion time (simulated seconds).
    pub t_s: f64,
    /// Commit latency (ms).
    pub latency_ms: f64,
}

/// The whole figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig4Result {
    /// Per-proposal series.
    pub points: Vec<Fig4Point>,
    /// When the two sites left (the figure's vertical red line).
    pub leave_at_s: f64,
    /// Mean latency before the leave.
    pub before_ms: f64,
    /// Peak latency in the disruption window after the leave.
    pub peak_after_ms: f64,
    /// Mean latency after the configuration change committed.
    pub recovered_ms: f64,
    /// Members the leader suspected (expected: the two leavers).
    pub members_suspected: u64,
    /// Whether safety held.
    pub safety_ok: bool,
}

/// Runs the experiment: five sites, nodes 3 and 4 leave silently at
/// `leave_at_s` seconds; the run lasts `total_s` seconds.
pub fn run(seed: u64, leave_at_s: u64, total_s: u64) -> Fig4Result {
    let leave_at = SimTime::from_secs(leave_at_s);
    let scenario = Scenario {
        seed,
        sites: 5,
        network: NetworkKind::SingleRegion,
        loss: 0.05,
        timing: Timing::lan(),
        proposers: vec![NodeId(1)],
        payload_bytes: 64,
        target_commits: None,
        duration: SimDuration::from_secs(total_s),
        warmup: SimDuration::from_secs(3),
        faults: vec![
            (leave_at, FaultAction::SilentLeave(NodeId(3))),
            (leave_at, FaultAction::SilentLeave(NodeId(4))),
        ],
        leader_bias: Some(NodeId(0)),
        reads: None,
        unbatched_persists: false,
    };
    let (report, metrics) = run_fast_raft(&scenario);
    let points: Vec<Fig4Point> = metrics
        .samples
        .iter()
        .map(|s| Fig4Point {
            t_s: s.committed_at.as_secs_f64(),
            latency_ms: s.latency().as_millis_f64(),
        })
        .collect();
    let leave_s = leave_at.as_secs_f64();
    // Disruption window: from the leave until the member timeout plus
    // reconfiguration can complete (5 missed beats * 100ms * 2 removals
    // plus slack).
    let recover_s = leave_s + 3.0;
    let mean = |pts: &[&Fig4Point]| {
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().map(|p| p.latency_ms).sum::<f64>() / pts.len() as f64
        }
    };
    let before: Vec<&Fig4Point> = points.iter().filter(|p| p.t_s < leave_s).collect();
    let during: Vec<&Fig4Point> = points
        .iter()
        .filter(|p| p.t_s >= leave_s && p.t_s < recover_s)
        .collect();
    let after: Vec<&Fig4Point> = points.iter().filter(|p| p.t_s >= recover_s).collect();
    Fig4Result {
        leave_at_s: leave_s,
        before_ms: mean(&before),
        peak_after_ms: during
            .iter()
            .map(|p| p.latency_ms)
            .fold(0.0, f64::max),
        recovered_ms: mean(&after),
        members_suspected: report.member_suspected,
        safety_ok: report.safety_ok,
        points,
    }
}

impl Fig4Result {
    /// Machine-readable JSON for the CI bench gate: the three phase
    /// latencies (ms) and the suspected-member count. Lower-is-better
    /// values, so CI gates this file with `bench_compare --exact` only.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"fig4\",\n  \"series\": {{\n    \
             \"before_ms\": {:.1},\n    \
             \"peak_after_ms\": {:.1},\n    \
             \"recovered_ms\": {:.1},\n    \
             \"members_suspected\": {}\n  }}\n}}\n",
            self.before_ms, self.peak_after_ms, self.recovered_ms, self.members_suspected
        )
    }

    /// Renders the series plus phase summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Fig 4: Fast Raft latency across a silent leave of 2/5 sites (5% loss)\n");
        out.push_str(&format!(
            "leave at t={:.1}s | suspected members: {}\n",
            self.leave_at_s, self.members_suspected
        ));
        out.push_str("t(s)    latency(ms)\n");
        for p in &self.points {
            let marker = if (p.t_s - self.leave_at_s).abs() < 0.35 {
                "  <-- leave"
            } else {
                ""
            };
            out.push_str(&format!("{:6.2}  {:8.2}{}\n", p.t_s, p.latency_ms, marker));
        }
        out.push_str(&format!(
            "phase means: before={:.1}ms  peak-after={:.1}ms  recovered={:.1}ms\n",
            self.before_ms, self.peak_after_ms, self.recovered_ms
        ));
        out.push_str(
            "(paper: fast track before the leave; spike >200ms during reconfiguration; \
             50-100ms band after)\n",
        );
        out
    }
}
