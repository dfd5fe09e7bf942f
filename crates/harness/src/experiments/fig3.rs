//! Fig. 3: mean commit latency of classic Raft vs Fast Raft under message
//! loss (five sites, one region, one closed-loop proposer, 100 committed
//! entries per trial, loss swept 0–10 %).

use serde::Serialize;

use crate::{run_classic_raft, run_fast_raft, Scenario};

/// One row of the figure: a loss rate and both protocols' latencies.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig3Row {
    /// Forced message-loss percentage.
    pub loss_pct: f64,
    /// Classic Raft mean commit latency (ms), averaged over trials.
    pub raft_ms: f64,
    /// Fast Raft mean commit latency (ms), averaged over trials.
    pub fast_ms: f64,
    /// Fraction of Fast Raft leader commits taken on the fast track.
    pub fast_track_ratio: f64,
}

/// The whole figure.
#[derive(Clone, Debug, Serialize)]
pub struct Fig3Result {
    /// One row per loss rate.
    pub rows: Vec<Fig3Row>,
    /// Fast Raft speedup (raft/fast latency ratio) at zero loss — the
    /// paper's headline "about half the latency".
    pub speedup_at_zero_loss: f64,
    /// The loss percentage where Fast Raft first becomes slower than
    /// classic Raft, if observed in the sweep.
    pub crossover_pct: Option<f64>,
}

/// Runs the sweep. `commits` proposals are measured per (protocol, loss,
/// seed) trial and trial means are averaged.
pub fn run(seeds: &[u64], losses_pct: &[f64], commits: u64) -> Fig3Result {
    assert!(!seeds.is_empty() && !losses_pct.is_empty());
    let mut rows = Vec::new();
    for &loss_pct in losses_pct {
        let loss = loss_pct / 100.0;
        let mut raft_acc = 0.0;
        let mut fast_acc = 0.0;
        let mut ratio_acc = 0.0;
        for &seed in seeds {
            let mut s = Scenario::fig3_base(seed, loss);
            s.target_commits = Some(commits);
            let (raft_report, _) = run_classic_raft(&s);
            let (fast_report, _) = run_fast_raft(&s);
            assert!(raft_report.safety_ok && fast_report.safety_ok);
            raft_acc += raft_report.latency.mean_ms;
            fast_acc += fast_report.latency.mean_ms;
            ratio_acc += fast_report.fast_track_ratio;
        }
        let n = seeds.len() as f64;
        rows.push(Fig3Row {
            loss_pct,
            raft_ms: raft_acc / n,
            fast_ms: fast_acc / n,
            fast_track_ratio: ratio_acc / n,
        });
    }
    let first = rows.first().expect("nonempty sweep");
    let speedup = if first.fast_ms > 0.0 {
        first.raft_ms / first.fast_ms
    } else {
        f64::INFINITY
    };
    let crossover = rows
        .iter()
        .find(|r| r.fast_ms > r.raft_ms)
        .map(|r| r.loss_pct);
    Fig3Result {
        rows,
        speedup_at_zero_loss: speedup,
        crossover_pct: crossover,
    }
}

impl Fig3Result {
    /// Machine-readable JSON for the CI bench gate: mean commit latency
    /// (ms) per protocol and swept loss percentage, the fast-track ratio
    /// beside it, and the headline speedup.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"bench\": \"fig3\",\n  \"series\": {\n");
        for r in &self.rows {
            s.push_str(&format!(
                "    \"raft/{l}\": {raft:.2},\n    \"fast/{l}\": {fast:.2},\n    \"ftr/{l}\": {ftr:.4},\n",
                l = r.loss_pct,
                raft = r.raft_ms,
                fast = r.fast_ms,
                ftr = r.fast_track_ratio,
            ));
        }
        s.push_str(&format!(
            "    \"speedup_at_zero\": {:.2}\n  }}\n}}\n",
            self.speedup_at_zero_loss
        ));
        s
    }

    /// Renders the figure as the table the paper plots.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Fig 3: mean commit latency vs message loss (5 sites, 1 region)\n");
        out.push_str("loss%   raft(ms)  fast-raft(ms)  fast-track\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:5.1} {} {}      {:5.1}%\n",
                r.loss_pct,
                super::fmt_ms(r.raft_ms),
                super::fmt_ms(r.fast_ms),
                r.fast_track_ratio * 100.0
            ));
        }
        out.push_str(&format!(
            "speedup at 0% loss: {:.2}x (paper: ~2x)\n",
            self.speedup_at_zero_loss
        ));
        match self.crossover_pct {
            Some(p) => out.push_str(&format!(
                "fast raft falls behind classic at ~{p:.0}% loss (paper: degrades past ~5%)\n"
            )),
            None => out.push_str("no crossover observed in this sweep\n"),
        }
        out
    }
}
