//! Leader-lease probe: what the lease buys on a read-heavy workload.
//!
//! Runs the same read-heavy linearizable workload (80/20 reads/writes over
//! a 5-site Fast Raft cell, leader crash + recovery mid-run) twice from one
//! seed: once with the leases configured by [`raft::Timing::lan`], once with
//! `lease_duration = 0` so every linearizable read pays the ReadIndex
//! quorum round. The deterministic simulator makes the pair directly
//! comparable:
//!
//! - with leases on, the majority of linearizable reads are served locally
//!   (`lease_reads > readindex_reads`) and the run offers **fewer messages
//!   to the network** than the lease-off twin — the lease read's zero
//!   message cost, visible end-to-end rather than asserted per-call;
//! - mean read latency drops, because a local answer beats a quorum round
//!   trip;
//! - the crash window forces the ReadIndex fallback (the new leader's
//!   enable barrier), so both paths are exercised in the same run and the
//!   online linearizability checker holds across the leadership change.

use des::{SimDuration, SimTime};
use serde::Serialize;
use wire::NodeId;

use crate::{run_fast_raft, FaultAction, ReadMix, Scenario};
use wire::Consistency;

/// One twin's measurements.
#[derive(Clone, Debug, Serialize)]
pub struct LeaseCell {
    /// "lease-on" or "lease-off".
    pub mode: &'static str,
    /// Completed client operations.
    pub completed: u64,
    /// Linearizable reads served from a live lease (zero messages).
    pub lease_reads: u64,
    /// Linearizable reads that paid the ReadIndex quorum round.
    pub readindex_reads: u64,
    /// Mean client-measured read latency (ms).
    pub read_mean_ms: f64,
    /// p95 read latency (ms).
    pub read_p95_ms: f64,
    /// Messages offered to the network over the whole run.
    pub messages_offered: u64,
    /// Leaderships assumed (≥ 2: the crash forced a change).
    pub leaderships: u64,
    /// Linearizable reads verified by the online checker.
    pub lin_reads_checked: u64,
}

/// The probe result: the lease-on/lease-off twin runs plus derived series.
#[derive(Clone, Debug, Serialize)]
pub struct LeaseMixResult {
    /// `[lease-on, lease-off]`.
    pub cells: Vec<LeaseCell>,
}

fn scenario(seed: u64, ops: u64, lease_on: bool) -> Scenario {
    let mut s = Scenario::fig3_base(seed, 0.0);
    s.proposers = vec![NodeId(4)];
    s.target_commits = Some(ops);
    s.duration = SimDuration::from_secs(600);
    s.leader_bias = Some(NodeId(0));
    s.reads = Some(ReadMix {
        ratio: 0.8,
        consistency: Consistency::Linearizable,
        final_read: true,
    });
    // Crash the biased leader shortly after clients start (warmup 3 s) so
    // the leadership change — and the new leader's lease enable barrier —
    // land mid-workload.
    s.faults = vec![
        (SimTime::from_millis(3400), FaultAction::Crash(NodeId(0))),
        (SimTime::from_secs(10), FaultAction::Recover(NodeId(0))),
    ];
    if !lease_on {
        s.timing.lease_duration = SimDuration::ZERO;
        s.timing.max_clock_skew = SimDuration::ZERO;
    }
    s
}

/// Runs the lease-on / lease-off twins.
///
/// # Panics
///
/// Panics when either twin violates safety, when leases fail to serve the
/// majority of linearizable reads (lease-on), when a lease read appears
/// with leases disabled, or when the lease run fails to beat its twin on
/// both message count and mean read latency.
pub fn run(seed: u64, ops: u64) -> LeaseMixResult {
    let cells: Vec<LeaseCell> = [true, false]
        .into_iter()
        .map(|lease_on| {
            let (report, _) = run_fast_raft(&scenario(seed, ops, lease_on));
            assert!(report.safety_ok, "lease_on={lease_on}: safety violated");
            assert!(
                report.leaderships >= 2,
                "lease_on={lease_on}: the crash never forced a new leader"
            );
            assert!(report.lin_reads_checked > 0);
            LeaseCell {
                mode: if lease_on { "lease-on" } else { "lease-off" },
                completed: report.completed,
                lease_reads: report.lease_reads,
                readindex_reads: report.readindex_reads,
                read_mean_ms: report.read_latency.mean_ms,
                read_p95_ms: report.read_latency.p95_ms,
                messages_offered: report.net.offered,
                leaderships: report.leaderships,
                lin_reads_checked: report.lin_reads_checked,
            }
        })
        .collect();
    let (on, off) = (&cells[0], &cells[1]);
    assert!(
        on.lease_reads > on.readindex_reads,
        "leases must serve the majority of lin reads: lease={} readindex={}",
        on.lease_reads,
        on.readindex_reads
    );
    assert!(
        on.readindex_reads > 0,
        "the crash window never exercised the ReadIndex fallback"
    );
    assert_eq!(
        off.lease_reads, 0,
        "a lease read appeared with lease_duration = 0"
    );
    // Zero message cost, end-to-end: same workload, strictly less traffic.
    assert!(
        on.messages_offered < off.messages_offered,
        "lease reads must remove the quorum round from the wire: on={} off={}",
        on.messages_offered,
        off.messages_offered
    );
    assert!(
        on.read_mean_ms < off.read_mean_ms,
        "local lease reads must beat the quorum round: on={:.3}ms off={:.3}ms",
        on.read_mean_ms,
        off.read_mean_ms
    );
    LeaseMixResult { cells }
}

impl LeaseMixResult {
    /// Fraction of linearizable reads the lease served locally (lease-on).
    pub fn lease_share(&self) -> f64 {
        let on = &self.cells[0];
        let total = on.lease_reads + on.readindex_reads;
        if total == 0 {
            0.0
        } else {
            on.lease_reads as f64 / total as f64
        }
    }

    /// Mean-read-latency ratio, lease-off over lease-on (> 1: leases win).
    pub fn read_speedup(&self) -> f64 {
        if self.cells[0].read_mean_ms <= 0.0 {
            0.0
        } else {
            self.cells[1].read_mean_ms / self.cells[0].read_mean_ms
        }
    }

    /// Messages the lease run kept off the wire, per lease-served read.
    pub fn msgs_saved_per_lease_read(&self) -> f64 {
        let (on, off) = (&self.cells[0], &self.cells[1]);
        if on.lease_reads == 0 {
            0.0
        } else {
            off.messages_offered.saturating_sub(on.messages_offered) as f64 / on.lease_reads as f64
        }
    }

    /// Machine-readable JSON for the CI bench gate (higher is better for
    /// every series).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"lease_mix\",\n  \"series\": {{\n    \
             \"lease/share\": {:.4},\n    \
             \"lease/read_speedup\": {:.3},\n    \
             \"lease/msgs_saved_per_read\": {:.3}\n  }}\n}}\n",
            self.lease_share(),
            self.read_speedup(),
            self.msgs_saved_per_lease_read(),
        )
    }

    /// Renders the probe.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Leader-lease probe: read-heavy lin workload, leader crash mid-run\n");
        out.push_str("mode       ops    lease  readidx  rlat-ms  r-p95   msgs     ldrs\n");
        for c in &self.cells {
            out.push_str(&format!(
                "{:9}  {:5}  {:5}  {:7}  {:7.2}  {:6.2}  {:7}  {:4}\n",
                c.mode,
                c.completed,
                c.lease_reads,
                c.readindex_reads,
                c.read_mean_ms,
                c.read_p95_ms,
                c.messages_offered,
                c.leaderships
            ));
        }
        out.push_str(&format!(
            "lease share {:.1}%  read speedup {:.2}x  msgs saved/read {:.1}\n",
            100.0 * self.lease_share(),
            self.read_speedup(),
            self.msgs_saved_per_lease_read()
        ));
        out
    }
}
