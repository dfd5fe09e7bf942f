//! Long-horizon churn scenarios enabled by the snapshot subsystem: sites
//! that rejoin after the cluster compacted past their position catch up by
//! snapshot transfer, and per-site log residency stays bounded over runs
//! whose history far exceeds the snapshot threshold.

use des::{SimDuration, SimTime};
use harness::{run_craft, run_fast_raft, CRaftScenario, FaultAction, NetworkKind, Scenario};
use raft::Timing;
use wire::NodeId;

#[test]
fn fast_raft_rejoin_after_compaction_installs_snapshot() {
    let threshold = 32u64;
    let s = Scenario {
        seed: 11,
        sites: 5,
        network: NetworkKind::SingleRegion,
        loss: 0.0,
        timing: Timing {
            snapshot_threshold: threshold,
            ..Timing::lan()
        },
        proposers: vec![NodeId(1)],
        payload_bytes: 64,
        target_commits: None,
        duration: SimDuration::from_secs(40),
        warmup: SimDuration::from_secs(3),
        faults: vec![
            (SimTime::from_secs(8), FaultAction::Crash(NodeId(4))),
            (SimTime::from_secs(25), FaultAction::Recover(NodeId(4))),
        ],
        leader_bias: Some(NodeId(0)),
        reads: None,
        unbatched_persists: false,
    };
    let (report, _) = run_fast_raft(&s);
    assert!(report.safety_ok);
    assert!(
        report.compactions >= 2,
        "only {} compactions over a long run",
        report.compactions
    );
    assert!(
        report.snapshot_installs >= 1,
        "rejoiner past the horizon should install a snapshot"
    );
    assert!(
        report.global_items > 3 * threshold,
        "run too short to exercise compaction ({} items)",
        report.global_items
    );
    // Bounded memory: the peak retained log stays near the threshold even
    // though the committed history is several times larger.
    assert!(
        report.peak_log_residency <= 2 * threshold + 16,
        "peak residency {} not bounded by threshold {}",
        report.peak_log_residency,
        threshold
    );
}

#[test]
fn craft_successor_leader_installs_global_snapshot() {
    // Local compaction disabled: every snapshot install observed in this
    // run is necessarily global-scope — the §IV-D rejoin path for C-Raft's
    // inter-cluster level. Three clusters so the global level keeps a
    // quorum (and can elect a new global leader) when one cluster leader
    // dies.
    let clusters = 3u64;
    let s = Scenario {
        seed: 5,
        sites: 9,
        network: NetworkKind::Regions { regions: clusters },
        loss: 0.0,
        timing: Timing {
            snapshot_threshold: 0,
            ..Timing::lan()
        },
        proposers: vec![NodeId(1), NodeId(4), NodeId(7)],
        payload_bytes: 64,
        target_commits: None,
        duration: SimDuration::from_secs(60),
        warmup: SimDuration::from_secs(5),
        // Cluster 0's designated leader dies; a successor wins the local
        // election and joins the global level from scratch, far behind the
        // compacted global log.
        faults: vec![(SimTime::from_secs(20), FaultAction::Crash(NodeId(0)))],
        leader_bias: None,
        reads: None,
        unbatched_persists: false,
    };
    let craft = CRaftScenario {
        clusters,
        batch_size: 1, // every local commit becomes a global entry
        max_batch_bytes: 0,
        global_snapshot_threshold: 16,
        global_timing: Timing::wan(),
        global_proposal_mode: consensus_core::ProposalMode::LeaderForward,
    };
    let (report, _) = run_craft(&s, &craft);
    assert!(report.safety_ok);
    assert!(
        report.compactions >= 1,
        "global log never compacted ({} global items)",
        report.global_items
    );
    assert!(
        report.snapshot_installs >= 1,
        "successor leader should catch up on the global log via snapshot \
         (compactions={}, items={})",
        report.compactions,
        report.global_items
    );
    // The system keeps committing after the leader change.
    assert!(
        report.global_items > 100,
        "throughput collapsed after churn"
    );
}
