//! Snapshot + log-compaction scenarios for Fast Raft, driven through the
//! lockstep testkit: bounded residency, snapshot-based catch-up for sites
//! absent past the compaction horizon, and proactive hole repair.

use consensus_core::FastRaftNode;
use des::SimRng;
use raft::testkit::Lockstep;
use raft::{Role, Timing};
use wire::{Configuration, LogIndex, NodeId, Observation, TimerKind};

fn snappy_timing(threshold: u64) -> Timing {
    Timing {
        snapshot_threshold: threshold,
        // Lockstep heartbeats are fired much faster than real time; keep the
        // member timeout from evicting a deliberately crashed site so the
        // test exercises the snapshot catch-up path, not the rejoin flow.
        member_timeout_beats: 1000,
        ..Timing::lan()
    }
}

fn cluster(n: u64, threshold: u64) -> (Lockstep<FastRaftNode>, Configuration) {
    let cfg: Configuration = (0..n).map(NodeId).collect();
    let net = Lockstep::new((0..n).map(|i| {
        FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            snappy_timing(threshold),
            SimRng::seed_from_u64(2000 + i),
        )
    }));
    (net, cfg)
}

fn elect(net: &mut Lockstep<FastRaftNode>, who: NodeId) -> NodeId {
    net.fire(who, TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(who).role(), Role::Leader, "{who} failed to win");
    who
}

/// Commits `count` proposals from `proposer` through the fast track,
/// spreading commit knowledge with heartbeats.
fn pump(net: &mut Lockstep<FastRaftNode>, leader: NodeId, proposer: NodeId, count: usize) {
    for i in 0..count {
        net.propose(proposer, format!("v{i}").as_bytes());
        net.deliver_all();
        net.fire(leader, TimerKind::LeaderTick);
        net.deliver_all();
        net.fire(leader, TimerKind::Heartbeat);
        net.deliver_all();
    }
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
}

#[test]
fn every_site_compacts_past_the_threshold() {
    let (mut net, _) = cluster(5, 8);
    let leader = elect(&mut net, NodeId(0));
    pump(&mut net, leader, NodeId(1), 24);
    for id in net.ids() {
        let log = net.node(id).log();
        assert!(
            log.compacted_through() > LogIndex::ZERO,
            "{id} never compacted"
        );
        assert!(
            (log.len() as u64) <= 8 + 2,
            "{id} retains {} entries past the threshold",
            log.len()
        );
    }
    let d0 = net.node(NodeId(0)).state_digest();
    assert!(
        net.ids().iter().all(|&id| net.node(id).state_digest() == d0),
        "commit digests diverged"
    );
    net.assert_safety();
}

#[test]
fn site_absent_past_horizon_installs_snapshot_and_catches_up() {
    let (mut net, cfg) = cluster(5, 8);
    let leader = elect(&mut net, NodeId(0));
    pump(&mut net, leader, NodeId(1), 4);
    net.crash(NodeId(4));
    // Drive the log far past the snapshot threshold while site 4 is away.
    pump(&mut net, leader, NodeId(1), 24);
    assert!(
        net.node(leader).log().compacted_through() > LogIndex(4),
        "leader should have compacted past the crash point"
    );
    let stable = net.disk().read(NodeId(4)).cloned().unwrap_or_default();
    net.restart(FastRaftNode::recover(
        NodeId(4),
        &stable,
        cfg,
        snappy_timing(8),
        SimRng::seed_from_u64(99),
    ));
    for _ in 0..4 {
        net.fire(leader, TimerKind::Heartbeat);
        net.deliver_all();
    }
    assert!(
        net.observations()
            .iter()
            .any(|(n, o)| *n == NodeId(4)
                && matches!(o, Observation::SnapshotInstalled { .. })),
        "rejoiner should install a snapshot instead of replaying history"
    );
    assert_eq!(
        net.node(NodeId(4)).commit_index(),
        net.node(leader).commit_index(),
        "rejoiner should reach the leader's commit index"
    );
    assert_eq!(
        net.node(NodeId(4)).state_digest(),
        net.node(leader).state_digest(),
        "snapshot + suffix must reproduce the leader's state"
    );
    net.assert_safety();
}

#[test]
fn fresh_joiner_catches_up_via_snapshot() {
    let (mut net, _) = cluster(3, 8);
    let leader = elect(&mut net, NodeId(0));
    pump(&mut net, leader, NodeId(1), 20);
    assert!(net.node(leader).log().compacted_through() > LogIndex::ZERO);
    // A brand-new site joins: its nextIndex starts at FIRST, below the
    // leader's horizon, so catch-up starts with a snapshot (§IV-D).
    let joiner = FastRaftNode::joining(
        NodeId(9),
        vec![NodeId(0), NodeId(1), NodeId(2)],
        snappy_timing(8),
        SimRng::seed_from_u64(7),
    );
    let mut ids = net.ids();
    ids.push(NodeId(9));
    net.restart(joiner);
    net.deliver_all();
    for _ in 0..6 {
        net.fire(leader, TimerKind::Heartbeat);
        net.deliver_all();
        net.fire(leader, TimerKind::LeaderTick);
        net.deliver_all();
    }
    assert!(
        net.observations()
            .iter()
            .any(|(n, o)| *n == NodeId(9)
                && matches!(o, Observation::SnapshotInstalled { .. })),
        "joiner should be caught up by snapshot transfer"
    );
    assert!(
        net.node(NodeId(9)).commit_index() >= net.node(leader).log().compacted_through(),
        "joiner should cover the compacted prefix"
    );
    net.assert_safety();
}

#[test]
fn proactive_repair_fires_on_ack_without_waiting_ticks() {
    use consensus_core::FastRaftMessage;
    use wire::{ConsensusProtocol, EntryId, EntryList, LogEntry, SessionId};

    let (mut net, _) = cluster(5, 0);
    let old_leader = elect(&mut net, NodeId(0));
    pump(&mut net, old_leader, NodeId(2), 3);
    assert_eq!(net.node(NodeId(1)).commit_index(), LogIndex(3));
    let term = net.node(old_leader).current_term();
    // The old leader replicates a batch to node 1 that skips index 4 (its
    // own log had a hole there): node 1 inserts 5 and 6 leader-approved but
    // its verified match stays at 3 (PR 2's contiguity invariant).
    let skipped = EntryList::from_vec(vec![
        (
            LogIndex(5),
            LogEntry::write(
                term,
                EntryId::new(old_leader, 500),
                SessionId::client(1),
                1,
                b"five"[..].into(),
            ),
        ),
        (
            LogIndex(6),
            LogEntry::write(
                term,
                EntryId::new(old_leader, 600),
                SessionId::client(1),
                1,
                b"six"[..].into(),
            ),
        ),
    ]);
    net.with_node(NodeId(1), |n, out| {
        n.on_message(
            NodeId(0),
            FastRaftMessage::AppendEntries {
                term,
                leader: NodeId(0),
                prev_index: LogIndex(3),
                entries: skipped,
                leader_commit: LogIndex(3),
                global_commit: LogIndex::ZERO,
                probe: 0,
            },
            out,
        );
    });
    net.deliver_all();
    assert_eq!(net.node(NodeId(1)).last_leader_index(), LogIndex(6));
    // The old leader dies; node 1 inherits the suffix-above-a-hole and wins
    // (up-to-dateness counts leader-approved entries).
    net.crash(old_leader);
    let leader = elect(&mut net, NodeId(1));
    // Becoming leader dispatches AppendEntries from commit+1 = 4; follower
    // acks stop at match 3 because index 4 is a hole. That ack alone — with
    // hole_fill_ticks = 8 and no decision tick fired yet — must trigger the
    // proactive repair.
    let repairs = net
        .observations()
        .iter()
        .filter(|(n, o)| *n == leader && matches!(o, Observation::HoleRepairTriggered { .. }))
        .count();
    assert!(
        repairs >= 1,
        "append acks below a replicated suffix must trigger proactive repair"
    );
    // The repair restores liveness well before hole_fill_ticks elapse.
    for _ in 0..4 {
        net.fire(leader, TimerKind::LeaderTick);
        net.deliver_all();
        net.fire(leader, TimerKind::Heartbeat);
        net.deliver_all();
    }
    assert!(
        net.node(leader).commit_index() >= LogIndex(6),
        "repair should unblock the inherited suffix (commit at {})",
        net.node(leader).commit_index()
    );
    net.assert_safety();
}
