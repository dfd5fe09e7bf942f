//! End-to-end session-workload tests: read/write mixes over the
//! time-driven runner, with the linearizability check active.

use des::{SimDuration, SimTime};
use harness::{
    run_classic_raft, run_craft, run_fast_raft, CRaftScenario, FaultAction, NetworkKind, ReadMix,
    Scenario,
};
use raft::Timing;
use wire::{Consistency, NodeId};

fn mixed(seed: u64) -> Scenario {
    let mut s = Scenario::fig3_base(seed, 0.0);
    s.target_commits = Some(40);
    s.reads = Some(ReadMix::half_linearizable());
    s
}

#[test]
fn fast_raft_mixed_workload_lin_checked() {
    let (report, metrics) = run_fast_raft(&mixed(21));
    assert!(report.safety_ok);
    assert_eq!(report.completed, 41, "40 ops + the final linearizable read");
    assert!(
        report.lin_reads_checked > 0,
        "no linearizable read was checked"
    );
    assert!(metrics.read_samples.len() as u64 >= report.lin_reads_checked / 2);
    assert!(report.read_latency.count > 0);
    // A ReadIndex round is one network round trip — it must undercut the
    // fast-track write latency (two rounds gated on the decision tick).
    assert!(
        report.read_latency.p50_ms < report.latency.p50_ms,
        "read p50 {}ms should undercut write p50 {}ms",
        report.read_latency.p50_ms,
        report.latency.p50_ms
    );
}

#[test]
fn classic_raft_mixed_workload_lin_checked() {
    let (report, _) = run_classic_raft(&mixed(22));
    assert!(report.safety_ok);
    assert_eq!(report.completed, 41);
    assert!(report.lin_reads_checked > 0);
}

#[test]
fn stale_reads_complete_without_lin_check() {
    let mut s = mixed(23);
    s.reads = Some(ReadMix {
        ratio: 0.5,
        consistency: Consistency::StaleLocal,
        final_read: false,
    });
    let (report, _) = run_fast_raft(&s);
    assert!(report.safety_ok);
    assert_eq!(report.completed, 40);
    assert_eq!(
        report.lin_reads_checked, 0,
        "stale reads are exempt from the linearizability check"
    );
    assert!(report.read_latency.count > 0);
}

#[test]
fn craft_mixed_workload_serves_global_reads() {
    let s = Scenario {
        seed: 29,
        sites: 6,
        network: NetworkKind::Regions { regions: 2 },
        loss: 0.0,
        timing: Timing::lan(),
        proposers: vec![NodeId(1), NodeId(4)],
        payload_bytes: 64,
        target_commits: Some(30),
        duration: SimDuration::from_secs(120),
        warmup: SimDuration::from_secs(5),
        faults: Vec::new(),
        leader_bias: None,
        reads: Some(ReadMix::half_linearizable()),
        unbatched_persists: false,
    };
    let (report, _) = run_craft(&s, &CRaftScenario::paper(2));
    assert!(report.safety_ok);
    // 30 ops + one final read per client; ops already in flight when the
    // target is crossed may complete too, so allow the overshoot.
    assert!(
        (32..=33).contains(&report.completed),
        "completed {}",
        report.completed
    );
    assert!(
        report.lin_reads_checked > 0,
        "C-Raft global reads never confirmed"
    );
}

#[test]
fn retry_under_crash_is_exactly_once() {
    // Crash the (biased) leader mid-run with a mixed workload: client
    // retries + session dedup keep every write exactly-once, which the
    // per-run safety checker plus duplicate counters make visible.
    let mut s = mixed(31);
    s.target_commits = Some(400);
    s.duration = SimDuration::from_secs(120);
    s.leader_bias = Some(NodeId(0));
    s.proposers = vec![NodeId(4)];
    // Take down a quorum: nothing can commit or confirm for 4 s, which is
    // twice the client timeout — the in-flight op must be resubmitted.
    s.faults = vec![
        (SimTime::from_secs(5), FaultAction::Crash(NodeId(0))),
        (SimTime::from_secs(5), FaultAction::Crash(NodeId(1))),
        (SimTime::from_secs(5), FaultAction::Crash(NodeId(2))),
        (SimTime::from_secs(9), FaultAction::Recover(NodeId(0))),
        (SimTime::from_secs(9), FaultAction::Recover(NodeId(1))),
        (SimTime::from_secs(9), FaultAction::Recover(NodeId(2))),
    ];
    let (report, _) = run_fast_raft(&s);
    assert!(
        report.safety_ok,
        "lin or commit safety violated under crash"
    );
    assert_eq!(report.completed, 401);
    assert!(
        report.client_retries > 0,
        "the crash window should force client retries"
    );
}
