//! End-to-end smoke tests of the harness over all three protocols.

use des::SimDuration;
use harness::{
    run_classic_raft, run_craft, run_fast_raft, CRaftScenario, NetworkKind, Scenario,
};
use raft::Timing;
use wire::NodeId;

#[test]
fn classic_raft_commits_closed_loop() {
    let mut s = Scenario::fig3_base(11, 0.0);
    s.target_commits = Some(20);
    let (report, metrics) = run_classic_raft(&s);
    assert!(report.safety_ok);
    assert_eq!(report.completed, 20);
    assert!(report.latency.count >= 19, "samples: {}", report.latency.count);
    // Classic Raft phase-locks to the heartbeat: mean latency should sit
    // near 100ms (the paper's Fig. 3 baseline).
    assert!(
        (60.0..160.0).contains(&report.latency.mean_ms),
        "classic raft latency {}ms out of expected band",
        report.latency.mean_ms
    );
    assert!(metrics.samples.len() as u64 <= 20);
}

#[test]
fn fast_raft_commits_about_twice_as_fast() {
    let mut s = Scenario::fig3_base(13, 0.0);
    s.target_commits = Some(20);
    let (fast, _) = run_fast_raft(&s);
    let (classic, _) = run_classic_raft(&s);
    assert!(fast.safety_ok && classic.safety_ok);
    assert!(
        fast.latency.mean_ms < classic.latency.mean_ms,
        "fast {} vs classic {}",
        fast.latency.mean_ms,
        classic.latency.mean_ms
    );
    // At zero loss everything should ride the fast track.
    assert!(fast.fast_track_ratio > 0.9, "ratio {}", fast.fast_track_ratio);
}

#[test]
fn craft_commits_globally() {
    let s = Scenario {
        seed: 17,
        sites: 6,
        network: NetworkKind::Regions { regions: 2 },
        loss: 0.0,
        timing: Timing::lan(),
        proposers: vec![NodeId(1), NodeId(4)],
        payload_bytes: 64,
        target_commits: None,
        duration: SimDuration::from_secs(40),
        warmup: SimDuration::from_secs(10),
        faults: Vec::new(),
        leader_bias: None,
        reads: None,
        unbatched_persists: false,
    };
    let (report, _) = run_craft(
        &s,
        &CRaftScenario {
            clusters: 2,
            batch_size: 3,
            max_batch_bytes: wire::MAX_BYTES_PER_APPEND,
            global_snapshot_threshold: Timing::wan().snapshot_threshold,
            global_timing: Timing::wan(),
            global_proposal_mode: consensus_core::ProposalMode::LeaderForward,
        },
    );
    assert!(report.safety_ok);
    assert!(report.completed > 10, "local commits: {}", report.completed);
    assert!(
        report.global_items > 5,
        "global items: {} (batches must reach the global log)",
        report.global_items
    );
}

#[test]
fn deterministic_same_seed_same_report() {
    let mut s = Scenario::fig3_base(23, 0.02);
    s.target_commits = Some(15);
    let (a, _) = run_fast_raft(&s);
    let (b, _) = run_fast_raft(&s);
    assert_eq!(a.latency.mean_ms, b.latency.mean_ms);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.net.offered, b.net.offered);
}

#[test]
fn loss_degrades_fast_raft() {
    let mut clean = Scenario::fig3_base(29, 0.0);
    clean.target_commits = Some(30);
    let mut lossy = Scenario::fig3_base(29, 0.10);
    lossy.target_commits = Some(30);
    let (clean_r, _) = run_fast_raft(&clean);
    let (lossy_r, _) = run_fast_raft(&lossy);
    assert!(
        lossy_r.fast_track_ratio < clean_r.fast_track_ratio,
        "loss should push commits onto the classic track: {} vs {}",
        lossy_r.fast_track_ratio,
        clean_r.fast_track_ratio
    );
}
