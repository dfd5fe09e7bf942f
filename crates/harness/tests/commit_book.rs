//! The safety checker's commit book stays bounded on a long run.
//!
//! A log's book keeps only the indices above its horizon: the least, over
//! every site that committed into the log, of the last index that site's
//! latest stable snapshot covers, with a down site counted as 0. This cell
//! compacts over a hundred times and crashes the leader between them, so
//! the horizon must hold while the leader is down and the recovered leader
//! must re-report its stable log above its own snapshot without a
//! violation. The book is sampled once per simulated second.

use consensus_core::FastRaftNode;
use des::{SimDuration, SimRng, SimTime};
use harness::{FaultAction, Runner, RunnerConfig, SafetyChecker, Workload};
use raft::Timing;
use simnet::{BernoulliLoss, Network, Topology, UniformLatency};
use wire::{Configuration, GroupId, LogScope, NodeId};

/// Entries each site retains before it compacts.
const THRESHOLD: u64 = 64;
/// Writes the run commits: well over a hundred thresholds.
const WRITES: u64 = 8_000;
const CRASH_AT: SimTime = SimTime::from_secs(40);
const RECOVER_AT: SimTime = SimTime::from_secs(60);

/// LAN timing with a small snapshot threshold; node 0's election window
/// sits below everyone else's so it is the leader the cell crashes.
fn timing(id: NodeId) -> Timing {
    let mut t = Timing {
        snapshot_threshold: THRESHOLD,
        ..Timing::lan()
    };
    if id == NodeId(0) {
        t.election_min = t.lease_duration + t.max_clock_skew;
        t.election_max = t.election_min + t.heartbeat;
    }
    t
}

#[test]
fn fast_raft_commit_book_stays_bounded_through_crash_and_compaction() {
    let sites = 5u64;
    let cfg: Configuration = (0..sites).map(NodeId).collect();
    let root = SimRng::seed_from_u64(4301);
    let nodes = (0..sites).map(|i| {
        let id = NodeId(i);
        FastRaftNode::new(id, cfg.clone(), timing(id), root.split_indexed("node", i))
    });
    let net = Network::new(
        Topology::single_region("local", (0..sites).map(NodeId)),
        Box::new(UniformLatency::new(
            SimDuration::from_micros(100),
            SimDuration::from_micros(500),
        )),
        Box::new(BernoulliLoss::new(0.0)),
    );
    let clients = vec![NodeId(1), NodeId(2), NodeId(3)];
    let writes = Workload::writes_only(clients, 64, Some(WRITES), SimTime::from_secs(3));
    let faults = vec![
        (CRASH_AT, FaultAction::Crash(NodeId(0))),
        (RECOVER_AT, FaultAction::Recover(NodeId(0))),
    ];
    let run_cfg = RunnerConfig {
        seed: 4301,
        ack_scope: LogScope::Global,
        measure_from: SimTime::ZERO,
        clock_skew: Timing::lan().max_clock_skew,
        disk_fsync_latency: Timing::lan().disk_fsync_latency,
        unbatched_persists: false,
        persist_stalls: None,
    };
    let mut runner = Runner::new(nodes, net, writes, faults, run_cfg, SafetyChecker::new());
    let recover_rng = root.split("recover");
    runner.set_recovery(move |id, stable| {
        let rng = recover_rng.split_indexed("r", id.as_u64());
        FastRaftNode::recover(id, stable, cfg.clone(), timing(id), rng)
    });

    let horizon =
        |r: &Runner<FastRaftNode>| r.safety().horizon(GroupId(0), NodeId(0), LogScope::Global);
    let (mut peak, mut held) = (0, None);
    let mut t = SimTime::ZERO;
    while !runner.workload_done() {
        t += SimDuration::from_secs(1);
        assert!(t < SimTime::from_secs(3_600), "the workload never finished");
        runner.run_until(t);
        peak = peak.max(runner.safety().retained());
        // Node 0 is down for the whole of (CRASH_AT, RECOVER_AT]: it holds
        // the horizon where the crash left it.
        if t > CRASH_AT && t <= RECOVER_AT {
            let h = horizon(&runner);
            assert_eq!(
                *held.get_or_insert(h),
                h,
                "the horizon rose past a down site at {t}"
            );
        }
    }
    runner.safety().assert_ok();
    let m = runner.metrics();
    assert!(
        m.compactions > 100,
        "too few compactions to tell: {}",
        m.compactions
    );
    assert!(
        m.snapshot_installs > 0,
        "the recovered leader must catch up by snapshot"
    );
    assert!(
        horizon(&runner).as_u64() > WRITES / 2,
        "the horizon never rose: {}",
        horizon(&runner)
    );
    // What the book holds: the indices above the slowest site's snapshot,
    // plus whatever the cluster committed while the leader was down.
    let downtime = m
        .samples
        .iter()
        .filter(|s| s.committed_at > CRASH_AT && s.committed_at <= RECOVER_AT);
    let bound = downtime.count() + 4 * THRESHOLD as usize;
    println!(
        "commit book: peak {peak} index slots, bound {bound}, horizon {}",
        horizon(&runner)
    );
    assert!(
        peak <= bound,
        "the book held {peak} index slots, bound {bound}"
    );
}
