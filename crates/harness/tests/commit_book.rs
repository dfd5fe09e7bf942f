//! The safety checker's commit book stays bounded on a long run.
//!
//! A log's book keeps only the indices above its horizon: the least, over
//! the log's sites, of the last index each site's latest stable snapshot
//! covers, with a down site counted as 0 until a committed configuration
//! without it drops it from the log's sites. Both cells compact over a
//! hundred times. The first crashes the leader: the horizon must hold
//! while the leader is down and still a member, rise once the member
//! timeout's configuration without it commits, and the recovered leader
//! must rejoin by snapshot install without a violation. The second has a
//! follower leave silently: once the configuration without it commits,
//! the horizon must pass its last snapshot. The book is sampled every
//! 100 ms of simulated time.

use consensus_core::FastRaftNode;
use des::{SimDuration, SimRng, SimTime};
use harness::{FaultAction, Runner, RunnerConfig, SafetyChecker, Workload};
use raft::Timing;
use simnet::{BernoulliLoss, Network, Topology, UniformLatency};
use wire::{Configuration, GroupId, LogIndex, LogScope, NodeId};

/// Entries each site retains before it compacts.
const THRESHOLD: u64 = 64;
/// Writes each run commits: well over a hundred thresholds.
const WRITES: u64 = 8_000;
const CRASH_AT: SimTime = SimTime::from_secs(40);
const RECOVER_AT: SimTime = SimTime::from_secs(60);
/// The site the silent-leave cell loses, and when.
const LEAVER: NodeId = NodeId(4);
const LEAVE_AT: SimTime = SimTime::from_secs(40);

/// LAN timing with a small snapshot threshold; node 0's election window
/// sits below everyone else's so it leads from the start.
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

/// Five LAN sites, three closed-loop writers and `faults`, with crashed
/// sites recovering from stable storage.
fn runner(faults: Vec<(SimTime, FaultAction)>) -> Runner<FastRaftNode> {
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
    runner
}

/// Runs the workload to its end, calling `sample` every 100 ms.
fn run_sampled(runner: &mut Runner<FastRaftNode>, mut sample: impl FnMut(&Runner<FastRaftNode>)) {
    let mut t = SimTime::ZERO;
    while !runner.workload_done() {
        t += SimDuration::from_millis(100);
        assert!(t < SimTime::from_secs(3_600), "the workload never finished");
        runner.run_until(t);
        sample(runner);
    }
}

fn horizon(r: &Runner<FastRaftNode>) -> LogIndex {
    r.safety().horizon(GroupId(0), NodeId(0), LogScope::Global)
}

#[test]
fn fast_raft_commit_book_stays_bounded_through_crash_and_compaction() {
    let mut runner = runner(vec![
        (CRASH_AT, FaultAction::Crash(NodeId(0))),
        (RECOVER_AT, FaultAction::Recover(NodeId(0))),
    ]);
    let (mut peak, mut at_crash, mut removed, mut at_recovery) = (0, None, None, None);
    run_sampled(&mut runner, |r| {
        peak = peak.max(r.safety().retained());
        let (t, configs) = (r.now(), r.metrics().config_commits);
        if t <= CRASH_AT || t > RECOVER_AT {
            return;
        }
        // Node 0 is down for the whole of (CRASH_AT, RECOVER_AT], and the
        // only configuration the others can commit then is one without
        // it: until that commits, node 0 holds the horizon where the crash
        // left it; once it has, the horizon rises with the others'.
        let (configs_then, held) = *at_crash.get_or_insert((configs, horizon(r)));
        if configs == configs_then {
            assert_eq!(held, horizon(r), "the horizon rose past a member at {t}");
        } else {
            removed.get_or_insert(t);
        }
        at_recovery = Some(horizon(r));
    });
    runner.safety().assert_ok();
    let removed = removed.expect("no configuration without the crashed leader committed");
    let ((_, held), at_recovery) = (at_crash.unwrap(), at_recovery.unwrap());
    assert!(
        at_recovery > held,
        "the horizon held at {held} after node 0's removal committed"
    );
    let m = runner.metrics();
    assert!(
        m.compactions > 100,
        "too few compactions to tell: {}",
        m.compactions
    );
    assert!(
        m.snapshot_installs > 0,
        "the recovered leader must rejoin by snapshot install"
    );
    assert!(
        horizon(&runner).as_u64() > WRITES / 2,
        "the horizon never rose: {}",
        horizon(&runner)
    );
    // Everything below was in force once the removal committed: the book
    // holds the indices above the slowest live site's snapshot, and no
    // down site pins it.
    let bound = 2 * THRESHOLD as usize;
    println!(
        "commit book: peak {peak} index slots, bound {bound}; node 0 removed by {removed}, \
         horizon {held} at the crash, {at_recovery} at its recovery, {} at the end",
        horizon(&runner)
    );
    assert!(
        peak <= bound,
        "the book held {peak} index slots, bound {bound}"
    );
}

#[test]
fn a_silently_departed_site_stops_pinning_the_commit_book() {
    let mut runner = runner(vec![(LEAVE_AT, FaultAction::SilentLeave(LEAVER))]);
    let (mut at_leave, mut removed, mut peak_after) = (None, false, 0);
    run_sampled(&mut runner, |r| {
        if r.now() <= LEAVE_AT {
            return;
        }
        let configs = r.metrics().config_commits;
        let configs_then = *at_leave.get_or_insert(configs);
        removed |= configs > configs_then;
        if removed {
            peak_after = peak_after.max(r.safety().retained());
        }
    });
    runner.safety().assert_ok();
    assert!(removed, "no configuration without site 4 committed");
    let stable = runner.disk().read(LEAVER).unwrap().scope(LogScope::Global);
    let last = stable
        .snapshot
        .as_ref()
        .map_or(LogIndex::ZERO, |s| s.last_index);
    let bound = 2 * THRESHOLD as usize;
    println!(
        "commit book: site 4 left with its snapshot at {last}, horizon {} at the end, \
         peak {peak_after} index slots after its removal, bound {bound}",
        horizon(&runner)
    );
    assert!(
        horizon(&runner) > last,
        "the horizon {} stayed at site 4's last snapshot {last}",
        horizon(&runner)
    );
    assert!(
        peak_after <= bound,
        "the book held {peak_after} index slots after the removal, bound {bound}"
    );
}
