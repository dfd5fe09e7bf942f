//! Workspace-level integration tests: full protocol stacks over the
//! simulated network, including randomized fault schedules that hammer the
//! safety property (Definition 2.1).

use hierarchical_consensus::bench::{
    run_classic_raft, run_craft, run_fast_raft, CRaftScenario, FaultAction, NetworkKind, Scenario,
};
use hierarchical_consensus::protocols::{ProposalMode, Timing};
use hierarchical_consensus::sim::{SimDuration, SimRng, SimTime};
use hierarchical_consensus::types::{NodeId, MAX_BYTES_PER_APPEND};

fn base(seed: u64, loss: f64) -> Scenario {
    let mut s = Scenario::fig3_base(seed, loss);
    s.target_commits = None;
    s.duration = SimDuration::from_secs(30);
    s
}

/// Random crash/recover/partition schedule for a 5-site cluster.
fn random_faults(seed: u64) -> Vec<(SimTime, FaultAction)> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xFA17);
    let mut faults = Vec::new();
    let mut t = 5_000u64; // ms
    for _ in 0..4 {
        t += rng.gen_range(1_000..4_000u64);
        let at = SimTime::from_millis(t);
        match rng.gen_range(0..3u8) {
            0 => {
                let victim = NodeId(rng.gen_range(0..5u64));
                faults.push((at, FaultAction::Crash(victim)));
                let back = at + SimDuration::from_millis(rng.gen_range(1_500..4_000u64));
                faults.push((back, FaultAction::Recover(victim)));
            }
            1 => {
                let cut = rng.gen_range(1..3u64);
                let side_a: Vec<NodeId> = (0..cut).map(NodeId).collect();
                let side_b: Vec<NodeId> = (cut..5).map(NodeId).collect();
                faults.push((at, FaultAction::Partition { side_a, side_b }));
                let heal = at + SimDuration::from_millis(rng.gen_range(1_000..3_000u64));
                faults.push((heal, FaultAction::Heal));
            }
            _ => {
                let victim = NodeId(rng.gen_range(3..5u64));
                faults.push((at, FaultAction::SilentLeave(victim)));
            }
        }
    }
    faults.sort_by_key(|(at, _)| *at);
    faults
}

#[test]
fn fast_raft_safety_under_random_fault_schedules() {
    for seed in [101, 202, 303, 404, 505] {
        let mut s = base(seed, 0.03);
        s.faults = random_faults(seed);
        let (report, _) = run_fast_raft(&s);
        assert!(report.safety_ok, "seed {seed}: safety violated");
        assert!(
            report.commits_checked > 0,
            "seed {seed}: nothing committed at all"
        );
    }
}

#[test]
fn classic_raft_safety_under_random_fault_schedules() {
    for seed in [111, 222, 333] {
        let mut s = base(seed, 0.03);
        s.faults = random_faults(seed);
        let (report, _) = run_classic_raft(&s);
        assert!(report.safety_ok, "seed {seed}: safety violated");
    }
}

#[test]
fn fast_raft_liveness_resumes_after_partition_heals() {
    let mut s = base(7, 0.0);
    // Majority partition isolates the minority for 4 seconds.
    s.faults = vec![
        (
            SimTime::from_secs(8),
            FaultAction::Partition {
                side_a: vec![NodeId(0), NodeId(1), NodeId(2)],
                side_b: vec![NodeId(3), NodeId(4)],
            },
        ),
        (SimTime::from_secs(12), FaultAction::Heal),
    ];
    let (report, metrics) = run_fast_raft(&s);
    assert!(report.safety_ok);
    // Proposals committed both during (majority side works) and after.
    let after_heal = metrics
        .samples
        .iter()
        .filter(|p| p.committed_at > SimTime::from_secs(13))
        .count();
    assert!(after_heal > 10, "liveness did not resume: {after_heal}");
}

#[test]
fn craft_safety_with_cluster_leader_crash() {
    let s = Scenario {
        seed: 909,
        sites: 9,
        network: NetworkKind::Regions { regions: 3 },
        loss: 0.0,
        timing: Timing::lan(),
        proposers: vec![NodeId(1), NodeId(4), NodeId(7)],
        payload_bytes: 32,
        target_commits: None,
        duration: SimDuration::from_secs(60),
        warmup: SimDuration::from_secs(10),
        // Crash cluster 1's designated leader mid-run; its cluster elects a
        // successor which must rejoin the global level.
        faults: vec![(SimTime::from_secs(25), FaultAction::Crash(NodeId(3)))],
        leader_bias: None,
        reads: None,
        unbatched_persists: false,
    };
    let craft = CRaftScenario {
        clusters: 3,
        batch_size: 5,
        max_batch_bytes: MAX_BYTES_PER_APPEND,
        global_snapshot_threshold: Timing::wan().snapshot_threshold,
        global_timing: Timing::wan(),
        global_proposal_mode: ProposalMode::LeaderForward,
    };
    let (report, _) = run_craft(&s, &craft);
    assert!(report.safety_ok, "hierarchical safety violated");
    assert!(report.global_items > 0, "no global progress at all");
}

#[test]
fn determinism_across_protocols() {
    for loss in [0.0, 0.05] {
        let mut s = base(55, loss);
        s.target_commits = Some(20);
        let (a, _) = run_classic_raft(&s);
        let (b, _) = run_classic_raft(&s);
        assert_eq!(a.latency.mean_ms, b.latency.mean_ms);
        assert_eq!(a.net.offered, b.net.offered);
        let (c, _) = run_fast_raft(&s);
        let (d, _) = run_fast_raft(&s);
        assert_eq!(c.latency.mean_ms, d.latency.mean_ms);
        assert_eq!(c.net.offered, d.net.offered);
    }
}

#[test]
fn write_ahead_recovery_preserves_commits() {
    // Crash a follower then the leader, recover both, and verify the
    // committed prefix is identical before and after.
    let mut s = base(66, 0.0);
    s.faults = vec![
        (SimTime::from_secs(6), FaultAction::Crash(NodeId(2))),
        (SimTime::from_secs(9), FaultAction::Recover(NodeId(2))),
        (SimTime::from_secs(12), FaultAction::Crash(NodeId(0))),
        (SimTime::from_secs(16), FaultAction::Recover(NodeId(0))),
    ];
    let (report, metrics) = run_fast_raft(&s);
    assert!(report.safety_ok);
    let late = metrics
        .samples
        .iter()
        .filter(|p| p.committed_at > SimTime::from_secs(18))
        .count();
    assert!(late > 5, "cluster did not recover full service: {late}");
}

#[test]
fn silent_leave_of_minority_keeps_liveness() {
    let mut s = base(77, 0.05);
    s.faults = vec![
        (SimTime::from_secs(8), FaultAction::SilentLeave(NodeId(3))),
        (SimTime::from_secs(8), FaultAction::SilentLeave(NodeId(4))),
    ];
    let (report, metrics) = run_fast_raft(&s);
    assert!(report.safety_ok);
    assert!(report.member_suspected >= 2, "leaver detection failed");
    let late = metrics
        .samples
        .iter()
        .filter(|p| p.committed_at > SimTime::from_secs(15))
        .count();
    assert!(late > 10, "post-reconfiguration liveness failed: {late}");
}
