//! The `harness::Runner` schedule is pinned: the order in which
//! `des::Simulation` hands out events — `(time, schedule seq)`, with
//! cancelled timers never firing — is the only thing that can move these
//! counters, so the exact tuples (captured before `des::EventQueue` became
//! an indexed heap) must survive any change to the event queue. The
//! read-path tuple was captured while reads still spent session seqs, so it
//! also holds client request numbering to the schedule it replaced. The
//! Fast Raft tuples move only with a protocol change, never with the event
//! queue: they were re-captured when the fast track began counting votes
//! at the index it commits, and again when a losing proposer began to hear
//! of its loss from the leader's decision. That second change also put the
//! index into every `ProposeReply`, 8 bytes more each, which moved the
//! C-Raft tuple's byte count and nothing else. The shard fabric has the same pin for its timer heap
//! (`shard/tests/fabric.rs::timer_structure_change_does_not_move_the_schedule`).

use des::{SimDuration, SimTime};
use harness::{
    run_craft, run_fast_raft, CRaftScenario, FaultAction, Metrics, NetworkKind, ReadMix, RunReport,
    Scenario,
};
use raft::Timing;
use wire::{Consistency, NodeId};

/// Completed ops, messages sent, bytes sent, fsync boundaries, commits
/// checked, final simulated instant (µs), elections.
fn fingerprint((report, metrics): (RunReport, Metrics)) -> [u64; 7] {
    assert!(report.safety_ok);
    [
        report.completed,
        metrics.messages_sent,
        metrics.bytes_sent,
        report.persist_batches,
        report.commits_checked,
        (report.sim_seconds * 1e6).round() as u64,
        report.elections,
    ]
}

/// C-Raft over regions, the timer re-arm-heavy case: a re-armed timer is a
/// cancel plus a fresh event, at both levels of the hierarchy.
#[test]
fn craft_over_regions_schedule_is_pinned() {
    let clusters = 3u64;
    let s = Scenario {
        seed: 2501,
        sites: clusters * 2,
        network: NetworkKind::Regions { regions: clusters },
        loss: 0.0,
        timing: Timing::lan(),
        proposers: vec![NodeId(0), NodeId(2), NodeId(4)],
        payload_bytes: 64,
        target_commits: None,
        duration: SimDuration::from_secs(8),
        warmup: SimDuration::from_secs(2),
        faults: Vec::new(),
        leader_bias: None,
        reads: None,
        unbatched_persists: false,
    };
    let got = fingerprint(run_craft(&s, &CRaftScenario::paper(clusters)));
    assert_eq!(got, [359, 1478, 517_451, 1388, 952, 8_000_000, 4]);
}

/// Fast Raft under 2 % loss with a crash and a recovery: elections,
/// client retries and a recovered node re-arming its timers from scratch.
#[test]
fn fast_raft_loss_crash_recover_schedule_is_pinned() {
    let s = Scenario {
        seed: 2502,
        sites: 5,
        network: NetworkKind::SingleRegion,
        loss: 0.02,
        timing: Timing::lan(),
        proposers: vec![NodeId(1), NodeId(3)],
        payload_bytes: 64,
        target_commits: None,
        duration: SimDuration::from_secs(12),
        warmup: SimDuration::from_secs(2),
        faults: vec![
            (SimTime::from_secs(4), FaultAction::Crash(NodeId(0))),
            (SimTime::from_secs(7), FaultAction::Recover(NodeId(0))),
        ],
        leader_bias: Some(NodeId(0)),
        reads: None,
        unbatched_persists: false,
    };
    let got = fingerprint(run_fast_raft(&s));
    assert_eq!(got, [244, 3144, 460_199, 1475, 1257, 12_000_000, 7]);
}

/// The read path under the same faults: half the operations are
/// linearizable reads, served from the leader lease (`Timing::lan` grants
/// one) or by a ReadIndex round, so client request ids, the gateway's
/// pending-read tables and the lease barrier across the crash are all on
/// the schedule.
#[test]
fn fast_raft_lease_reads_loss_crash_recover_schedule_is_pinned() {
    let timing = Timing::lan();
    assert!(!timing.lease_duration.is_zero(), "leases are on");
    let s = Scenario {
        seed: 2503,
        sites: 5,
        network: NetworkKind::SingleRegion,
        loss: 0.02,
        timing,
        proposers: vec![NodeId(1), NodeId(2), NodeId(3)],
        payload_bytes: 64,
        target_commits: None,
        duration: SimDuration::from_secs(12),
        warmup: SimDuration::from_secs(2),
        faults: vec![
            (SimTime::from_secs(4), FaultAction::Crash(NodeId(0))),
            (SimTime::from_secs(7), FaultAction::Recover(NodeId(0))),
        ],
        leader_bias: Some(NodeId(0)),
        reads: Some(ReadMix {
            ratio: 0.5,
            consistency: Consistency::Linearizable,
            final_read: false,
        }),
        unbatched_persists: false,
    };
    let (report, metrics) = run_fast_raft(&s);
    assert!(metrics.lease_reads > 0 && metrics.readindex_reads > 0);
    let got = fingerprint((report, metrics));
    assert_eq!(got, [385, 3189, 381_762, 1269, 997, 12_000_000, 8]);
}
