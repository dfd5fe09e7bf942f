//! Scenario tests for Fast Raft driven through the lockstep testkit.

use consensus_core::{FastRaftMessage, FastRaftNode};
use des::SimRng;
use raft::testkit::Lockstep;
use raft::{Role, Timing};
use wire::{ClientOutcome, Configuration, LogIndex, NodeId, Observation, Payload, TimerKind};

/// `true` once the client at `node` got a terminal `Committed` answer for
/// its request key.
fn committed_response(
    net: &Lockstep<FastRaftNode>,
    node: NodeId,
    key: (wire::SessionId, u64),
) -> bool {
    net.responses_for(node, key.0, key.1)
        .iter()
        .any(|o| matches!(o, ClientOutcome::Committed { .. }))
}

fn cluster(n: u64) -> Lockstep<FastRaftNode> {
    let cfg: Configuration = (0..n).map(NodeId).collect();
    Lockstep::new((0..n).map(|i| {
        FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            Timing::lan(),
            SimRng::seed_from_u64(2000 + i),
        )
    }))
}

fn elect(net: &mut Lockstep<FastRaftNode>, who: NodeId) -> NodeId {
    net.fire(who, TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(who).role(), Role::Leader, "{who} failed to win");
    who
}

/// Runs one leader decision tick and drains messages.
fn tick(net: &mut Lockstep<FastRaftNode>, leader: NodeId) {
    net.fire(leader, TimerKind::LeaderTick);
    net.deliver_all();
}

/// Runs one heartbeat and drains messages.
fn beat(net: &mut Lockstep<FastRaftNode>, leader: NodeId) {
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
}

#[test]
fn election_and_single_leader() {
    let mut net = cluster(5);
    elect(&mut net, NodeId(0));
    assert_eq!(
        net.leaders_by(|n| n.role() == Role::Leader),
        vec![NodeId(0)]
    );
}

#[test]
fn fast_track_commits_in_two_rounds() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    // Round 1: proposer broadcast; round 2: votes to leader.
    let pid = net.propose(NodeId(2), b"fast");
    net.deliver_all();
    // The decision tick commits on the fast quorum — no AppendEntries round
    // is needed before the proposer is notified.
    tick(&mut net, leader);
    let fast_commit = net
        .observations()
        .iter()
        .any(|(n, o)| *n == leader && matches!(o, Observation::FastTrackCommit { .. }));
    assert!(fast_commit, "expected a fast-track commit");
    assert!(
        committed_response(&net, NodeId(2), pid),
        "proposer not notified after fast commit"
    );
    net.assert_safety();
}

#[test]
fn followers_learn_commit_via_heartbeat() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    net.propose(NodeId(1), b"x");
    net.deliver_all();
    tick(&mut net, leader);
    // Followers haven't advanced commitIndex yet (§IV-B: "followers only
    // update their own commitIndex after receiving from the leader").
    assert_eq!(net.node(NodeId(3)).commit_index(), LogIndex::ZERO);
    beat(&mut net, leader);
    for id in net.ids() {
        assert!(
            net.node(id).commit_index() >= LogIndex(1),
            "{id} did not learn the commit"
        );
    }
    net.assert_safety();
}

#[test]
fn lost_votes_fall_back_to_classic_track() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    // Drop all traffic from nodes 3 and 4 to the leader: only 3 of 5 votes
    // arrive (leader, 1, 2) — a classic quorum but not a fast quorum.
    net.set_link_filter(move |from, to| {
        !(to == NodeId(0) && (from == NodeId(3) || from == NodeId(4)))
    });
    let pid = net.propose(NodeId(1), b"classic");
    net.deliver_all();
    // Decision tick: inserts the entry (classic quorum of votes) but cannot
    // fast-commit (no fast quorum).
    tick(&mut net, leader);
    assert!(
        !net.observations()
            .iter()
            .any(|(_, o)| matches!(o, Observation::FastTrackCommit { .. })),
        "fast commit should be impossible with 3/5 votes"
    );
    // Classic track: heartbeat replicates, acks advance matchIndex (nodes 1
    // and 2 can still reach the leader), commit follows.
    beat(&mut net, leader);
    let classic_commit = net
        .observations()
        .iter()
        .any(|(n, o)| *n == leader && matches!(o, Observation::ClassicTrackCommit { .. }));
    assert!(classic_commit, "expected a classic-track commit");
    assert!(committed_response(&net, NodeId(1), pid));
    net.assert_safety();
}

#[test]
fn concurrent_proposals_one_wins_other_retries() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    // Two proposers race for the same index. Delivery order decides who
    // reaches each follower first; votes split.
    let pid_a = net.propose(NodeId(1), b"a");
    let pid_b = net.propose(NodeId(2), b"b");
    net.deliver_all();
    tick(&mut net, leader);
    beat(&mut net, leader);
    tick(&mut net, leader);
    // The losing proposer re-proposes at a new index on its retry timer.
    net.fire(NodeId(1), TimerKind::ProposalRetry);
    net.fire(NodeId(2), TimerKind::ProposalRetry);
    net.deliver_all();
    tick(&mut net, leader);
    beat(&mut net, leader);
    tick(&mut net, leader);
    beat(&mut net, leader);
    assert!(
        committed_response(&net, NodeId(1), pid_a),
        "a never committed"
    );
    assert!(
        committed_response(&net, NodeId(2), pid_b),
        "b never committed"
    );
    // Each applied exactly once, everywhere.
    net.assert_exactly_once();
    net.assert_safety();
}

#[test]
fn recovery_preserves_fast_committed_entry() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    // Proposer broadcast reaches everyone; votes reach the leader; the
    // leader fast-commits... and crashes before any heartbeat tells the
    // followers.
    let _pid = net.propose(NodeId(2), b"survivor");
    net.deliver_all();
    tick(&mut net, leader);
    let committed_entry = net
        .commits(leader)
        .iter()
        .find(|c| matches!(c.entry.payload, Payload::Write { .. }))
        .expect("leader fast-committed")
        .clone();
    net.crash(leader);
    // New election: node 1's log has the entry only self-approved, so
    // recovery must resend self-approved entries and re-choose it.
    net.fire(NodeId(1), TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(NodeId(1)).role(), Role::Leader);
    tick(&mut net, NodeId(1));
    beat(&mut net, NodeId(1));
    tick(&mut net, NodeId(1));
    beat(&mut net, NodeId(1));
    // The new leader must commit the same entry at the same index.
    let recommitted = net
        .commits(NodeId(1))
        .iter()
        .find(|c| c.index == committed_entry.index)
        .expect("new leader committed the index");
    assert_eq!(
        recommitted.entry.id, committed_entry.entry.id,
        "Invariant 2 violated: different entry at a committed index"
    );
    net.assert_safety();
}

#[test]
fn up_to_dateness_ignores_self_approved_entries() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    // Stuff node 4 with self-approved entries by letting a proposal reach
    // only node 4 (and nobody else, not even the leader).
    net.set_link_filter(|from, to| {
        // Node 3's broadcast reaches only node 4.
        if from == NodeId(3) {
            return to == NodeId(4);
        }
        true
    });
    net.propose(NodeId(3), b"only-4-gets-this");
    net.deliver_all();
    net.set_link_filter(|_, _| true);
    // Commit one real entry through the leader so others have a
    // leader-approved entry node 4 lacks... deliver only to 1,2 on the
    // classic path? Simpler: commit normally — everyone gets it except we
    // block node 4 from heartbeats.
    net.set_link_filter(|_, to| to != NodeId(4));
    net.propose(NodeId(1), b"real");
    net.deliver_all();
    tick(&mut net, NodeId(0));
    beat(&mut net, NodeId(0));
    net.set_link_filter(|_, _| true);
    // Now node 4 (many self-approved, no leader-approved) runs for leader;
    // node 1 (leader-approved entry) must refuse the vote.
    net.crash(leader);
    net.fire(NodeId(4), TimerKind::Election);
    net.deliver_all();
    assert_ne!(
        net.node(NodeId(4)).role(),
        Role::Leader,
        "stale candidate must lose despite self-approved entries"
    );
    net.assert_safety();
}

#[test]
fn join_request_adds_member_after_catchup() {
    let mut net = cluster(3);
    let leader = elect(&mut net, NodeId(0));
    net.propose(NodeId(1), b"pre-join");
    net.deliver_all();
    tick(&mut net, leader);
    beat(&mut net, leader);
    // Node 9 joins via contacts.
    let joiner = FastRaftNode::joining(
        NodeId(9),
        vec![NodeId(0), NodeId(1), NodeId(2)],
        Timing::lan(),
        SimRng::seed_from_u64(99),
    );
    net.restart(joiner);
    net.deliver_all();
    // Catch-up: heartbeats replicate the log to the learner; its acks
    // trigger the configuration proposal; another beat commits it.
    beat(&mut net, leader);
    beat(&mut net, leader);
    beat(&mut net, leader);
    assert_eq!(
        net.node(leader).config().len(),
        4,
        "config must include joiner"
    );
    assert!(
        !net.node(NodeId(9)).is_joining(),
        "joiner should be a member"
    );
    assert!(net.observations().iter().any(|(n, o)| *n == leader
        && matches!(o, Observation::JoinAccepted { node } if *node == NodeId(9))));
    // The new member has the pre-join entry.
    assert!(net.node(NodeId(9)).commit_index() >= LogIndex(1));
    // And participates in new commits.
    net.propose(NodeId(9), b"post-join");
    net.deliver_all();
    tick(&mut net, leader);
    beat(&mut net, leader);
    beat(&mut net, leader);
    assert!(net
        .commits(NodeId(9))
        .iter()
        .any(|c| matches!(c.entry.payload, Payload::Write { .. })));
    net.assert_safety();
}

#[test]
fn silent_leave_detected_by_member_timeout() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    // Nodes 3 and 4 leave silently.
    net.crash(NodeId(3));
    net.crash(NodeId(4));
    // member_timeout_beats = 5: after five unanswered heartbeats the leader
    // proposes a configuration excluding one of them, then the other.
    for _ in 0..6 {
        beat(&mut net, leader);
        tick(&mut net, leader);
    }
    assert!(net
        .observations()
        .iter()
        .any(|(n, o)| *n == leader && matches!(o, Observation::MemberSuspected { .. })));
    // First removal shrinks the config to 4; five more beats remove the
    // second.
    for _ in 0..7 {
        beat(&mut net, leader);
        tick(&mut net, leader);
    }
    assert_eq!(
        net.node(leader).config().len(),
        3,
        "both silent leavers must be removed"
    );
    // Consensus continues with the shrunken cluster: fast quorum is now 3.
    let pid = net.propose(NodeId(1), b"after-leave");
    net.deliver_all();
    tick(&mut net, leader);
    beat(&mut net, leader);
    assert!(
        committed_response(&net, NodeId(1), pid),
        "commit must proceed after reconfiguration"
    );
    net.assert_safety();
}

#[test]
fn announced_leave_removes_member() {
    let mut net = cluster(4);
    let leader = elect(&mut net, NodeId(0));
    // Node 3 announces departure.
    net.with_node(NodeId(3), |n, out| n.request_leave(out));
    net.deliver_all();
    beat(&mut net, leader);
    beat(&mut net, leader);
    assert_eq!(net.node(leader).config().len(), 3);
    assert!(!net.node(leader).config().contains(NodeId(3)));
    net.assert_safety();
}

#[test]
fn proposer_retry_is_idempotent() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    let pid = net.propose(NodeId(2), b"retry-me");
    net.deliver_all();
    // Retry before the decision tick: same id broadcast again.
    net.fire(NodeId(2), TimerKind::ProposalRetry);
    net.deliver_all();
    tick(&mut net, leader);
    beat(&mut net, leader);
    tick(&mut net, leader);
    beat(&mut net, leader);
    let commits_of_pid = net
        .commits(leader)
        .iter()
        .filter(|c| c.entry.payload.session_key() == Some(pid))
        .count();
    assert_eq!(commits_of_pid, 1, "retried proposal committed twice");
    net.assert_exactly_once();
    net.assert_safety();
}

#[test]
fn crash_recovery_rebuilds_from_stable_storage() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    net.propose(NodeId(1), b"persisted");
    net.deliver_all();
    tick(&mut net, leader);
    beat(&mut net, leader);
    net.crash(NodeId(2));
    let stable = net.disk().read(NodeId(2)).expect("stable state").clone();
    let cfg: Configuration = (0..5).map(NodeId).collect();
    let recovered = FastRaftNode::recover(
        NodeId(2),
        &stable,
        cfg,
        Timing::lan(),
        SimRng::seed_from_u64(500),
    );
    assert_eq!(recovered.current_term(), net.node(leader).current_term());
    assert_eq!(
        recovered.commit_index(),
        LogIndex::ZERO,
        "commitIndex is volatile"
    );
    net.restart(recovered);
    beat(&mut net, leader);
    beat(&mut net, leader);
    assert!(net.node(NodeId(2)).commit_index() >= LogIndex(1));
    net.assert_safety();
}

#[test]
fn hole_fill_unblocks_partial_broadcast() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    // A proposal reaches only node 4; its vote reaches the leader, but no
    // quorum ever forms for index 1, and the proposer (node 3) goes silent.
    net.set_link_filter(|from, to| {
        if from == NodeId(3) {
            return to == NodeId(4);
        }
        true
    });
    net.propose(NodeId(3), b"orphan");
    net.deliver_all();
    net.crash(NodeId(3));
    net.set_link_filter(|_, _| true);
    // Another proposal lands at index 2 on everyone else... leaving index 1
    // (on node 4's view) potentially conflicting. Drive decision ticks past
    // hole_fill_ticks: the leader proposes a no-op for the blocked index.
    net.propose(NodeId(1), b"behind-hole");
    net.deliver_all();
    for _ in 0..12 {
        tick(&mut net, leader);
        beat(&mut net, leader);
        net.deliver_all();
    }
    // Liveness: node 1's proposal must eventually commit.
    let committed = net.commits(leader).iter().any(
        |c| matches!(&c.entry.payload, Payload::Write { data, .. } if &data[..] == b"behind-hole"),
    );
    assert!(committed, "hole filling failed to restore liveness");
    net.assert_safety();
}

#[test]
fn five_node_fast_quorum_is_four() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    // Block exactly one non-leader voter (node 4): 4 of 5 votes arrive —
    // exactly a fast quorum.
    net.set_link_filter(move |from, to| !(to == NodeId(0) && from == NodeId(4)));
    net.propose(NodeId(1), b"4-votes");
    net.deliver_all();
    tick(&mut net, leader);
    assert!(
        net.observations()
            .iter()
            .any(|(_, o)| matches!(o, Observation::FastTrackCommit { .. })),
        "4/5 identical votes must fast-commit"
    );
    net.assert_safety();
}

#[test]
fn wire_messages_used_by_engine_roundtrip() {
    // Smoke-check the protocol messages produced in a live run decode.
    use wire::Wire;
    let mut net = cluster(3);
    elect(&mut net, NodeId(0));
    net.propose(NodeId(1), b"codec");
    // Drain manually to intercept messages.
    while net.deliver_one() {}
    // Synthesize a few common messages and roundtrip them.
    let m = FastRaftMessage::JoinRequest { node: NodeId(7) };
    assert_eq!(FastRaftMessage::from_bytes(&m.to_bytes()).unwrap(), m);
}

#[test]
fn recovered_gateway_never_reuses_proposal_ids() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    // Several proposals from node 2 commit before the crash, consuming
    // proposal-sequence numbers.
    for _ in 0..3 {
        net.propose(NodeId(2), b"pre-crash");
        net.deliver_all();
        tick(&mut net, leader);
        beat(&mut net, leader);
    }
    net.crash(NodeId(2));
    let stable = net.disk().read(NodeId(2)).expect("stable state").clone();
    let cfg: Configuration = (0..5).map(NodeId).collect();
    net.restart(FastRaftNode::recover(
        NodeId(2),
        &stable,
        cfg,
        Timing::lan(),
        SimRng::seed_from_u64(501),
    ));
    beat(&mut net, leader);
    // A fresh write from the recovered gateway. Without the persisted
    // sequence reservation its proposal counter restarts at 0 and re-mints
    // a pre-crash EntryId: every peer's id dedup then answers with the OLD
    // entry's commit and the new write silently never enters the log.
    let key = net.propose(NodeId(2), b"post-crash");
    net.deliver_all();
    for _ in 0..2 {
        tick(&mut net, leader);
        beat(&mut net, leader);
    }
    assert!(
        committed_response(&net, NodeId(2), key),
        "post-crash write never answered"
    );
    assert!(
        net.commits(leader)
            .iter()
            .any(|c| c.entry.payload.session_key() == Some(key)),
        "post-crash write was swallowed by proposal-id dedup"
    );
    net.assert_exactly_once();
    net.assert_safety();
}
