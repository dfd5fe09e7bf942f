//! Behavioral tests of the time-driven runner itself: timer semantics,
//! fault mechanics, workload accounting.

use des::{SimDuration, SimTime};
use harness::{run_fast_raft, FaultAction, NetworkKind, Scenario};
use raft::Timing;
use wire::NodeId;

fn base(seed: u64) -> Scenario {
    Scenario {
        seed,
        sites: 5,
        network: NetworkKind::SingleRegion,
        loss: 0.0,
        timing: Timing::lan(),
        proposers: vec![NodeId(1)],
        payload_bytes: 64,
        target_commits: Some(10),
        duration: SimDuration::from_secs(60),
        warmup: SimDuration::from_secs(3),
        faults: Vec::new(),
        leader_bias: None,
        reads: None,
        unbatched_persists: false,
    }
}

#[test]
fn run_stops_at_workload_target() {
    let (report, metrics) = run_fast_raft(&base(1));
    assert_eq!(report.completed, 10);
    assert_eq!(metrics.samples.len(), 10);
    // Ends shortly after the tenth commit, far before the 60s deadline.
    assert!(
        report.sim_seconds < 30.0,
        "ran too long: {}",
        report.sim_seconds
    );
}

#[test]
fn run_stops_at_deadline_without_target() {
    let mut s = base(2);
    s.target_commits = None;
    s.duration = SimDuration::from_secs(8);
    let (report, _) = run_fast_raft(&s);
    assert!((report.sim_seconds - 8.0).abs() < 0.5);
    assert!(report.completed > 0);
}

#[test]
fn crashed_node_black_holes_traffic() {
    let mut s = base(3);
    s.target_commits = None;
    s.duration = SimDuration::from_secs(12);
    s.faults = vec![(SimTime::from_secs(5), FaultAction::Crash(NodeId(4)))];
    let (report, _) = run_fast_raft(&s);
    assert!(report.net.dropped_down > 0, "no drops at the crashed node");
    assert!(report.safety_ok);
}

#[test]
fn partition_drops_are_accounted() {
    let mut s = base(4);
    s.target_commits = None;
    s.duration = SimDuration::from_secs(12);
    s.faults = vec![
        (
            SimTime::from_secs(5),
            FaultAction::Partition {
                side_a: vec![NodeId(0), NodeId(1), NodeId(2)],
                side_b: vec![NodeId(3), NodeId(4)],
            },
        ),
        (SimTime::from_secs(8), FaultAction::Heal),
    ];
    let (report, _) = run_fast_raft(&s);
    assert!(
        report.net.dropped_partition > 0,
        "partition produced no drops"
    );
    assert!(report.safety_ok);
}

#[test]
fn warmup_excludes_early_samples() {
    let mut s = base(5);
    s.warmup = SimDuration::from_secs(5);
    let (_, metrics) = run_fast_raft(&s);
    for sample in &metrics.samples {
        assert!(
            sample.committed_at >= SimTime::from_secs(5),
            "pre-warmup sample leaked into stats"
        );
    }
}

#[test]
fn loss_rate_observed_matches_configured() {
    let mut s = base(6);
    s.loss = 0.08;
    s.target_commits = Some(150);
    let (report, _) = run_fast_raft(&s);
    assert!(
        (0.06..0.10).contains(&report.net.loss_rate),
        "observed loss {} for configured 0.08",
        report.net.loss_rate
    );
}

#[test]
fn byte_accounting_is_nonzero_and_regional() {
    let mut s = base(7);
    s.sites = 6;
    s.network = NetworkKind::Regions { regions: 2 };
    s.proposers = vec![NodeId(1)];
    let (report, _) = run_fast_raft(&s);
    assert!(report.net.intra_region_bytes > 0);
    assert!(report.net.inter_region_bytes > 0);
}
