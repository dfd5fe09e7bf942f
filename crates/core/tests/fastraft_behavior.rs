//! Scenario tests for Fast Raft driven through the lockstep testkit.

use consensus_core::{FastRaftMessage, FastRaftNode};
use des::SimRng;
use raft::testkit::Lockstep;
use raft::{Role, Timing};
use wire::{
    Actions, ClientOutcome, Configuration, ConsensusProtocol, EntryId, LogIndex, NodeId,
    Observation, Payload, SessionId, TimerKind,
};

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

/// The fast track counts votes *at the index it commits*. Entry A reaches
/// only sites 0–2 at index 1 (a classic quorum, not a fast one); entry B
/// reaches all five at index 2. Sites 3 and 4 voted at index 2 but hold
/// nothing at index 1, so no tick may fast-commit index 1: only the
/// classic track, after the heartbeat replicates A, may commit it.
#[test]
fn votes_at_a_later_index_do_not_fast_commit_an_earlier_one() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    net.set_link_filter(|from, to| !(from == NodeId(1) && to.as_u64() >= 3));
    net.propose(NodeId(1), b"a");
    net.deliver_all();
    net.set_link_filter(|_, _| true);
    net.propose(NodeId(2), b"b");
    net.deliver_all();
    tick(&mut net, leader);
    tick(&mut net, leader);
    assert!(
        !net.observations().iter().any(|(_, o)| matches!(
            o,
            Observation::FastTrackCommit { index } if *index == LogIndex(1)
        )),
        "index 1 fast-committed on 3 of 5 votes"
    );
    assert_eq!(net.node(leader).commit_index(), LogIndex::ZERO);
    beat(&mut net, leader);
    assert!(net.node(leader).commit_index() >= LogIndex(2));
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

/// The id of the entry at `index` in `node`'s log.
fn entry_at(net: &Lockstep<FastRaftNode>, node: NodeId, index: u64) -> Option<EntryId> {
    net.node(node).log().get(LogIndex(index)).map(|e| e.id)
}

/// Runs one step of `node` and returns the `(recipient, index)` of every
/// `ProposeAt` for proposal `id` that the step sent.
fn proposes_in_step(
    net: &mut Lockstep<FastRaftNode>,
    node: NodeId,
    id: EntryId,
    step: impl FnOnce(&mut FastRaftNode, &mut Actions<FastRaftMessage>),
) -> Vec<(NodeId, LogIndex)> {
    let mut sent = Vec::new();
    net.with_node(node, |n, out| {
        step(n, out);
        sent.extend(out.sends.iter().filter_map(|(to, m)| match m {
            FastRaftMessage::ProposeAt { index, entry } if entry.id == id => Some((*to, *index)),
            _ => None,
        }));
    });
    sent
}

/// Hands `node` the leader's notice that proposal `id` lost `index`.
fn lost_notice(
    net: &mut Lockstep<FastRaftNode>,
    node: NodeId,
    id: EntryId,
    index: LogIndex,
) -> Vec<(NodeId, LogIndex)> {
    proposes_in_step(net, node, id, |n, out| {
        let notice = FastRaftMessage::ProposeReply {
            id,
            committed: false,
            index,
            leader_hint: Some(NodeId(0)),
        };
        n.on_message(NodeId(0), notice, out);
    })
}

/// Every site of `net` but `me`, each paired with `index`.
fn to_peers(net: &Lockstep<FastRaftNode>, me: NodeId, index: u64) -> Vec<(NodeId, LogIndex)> {
    net.ids()
        .into_iter()
        .filter(|&n| n != me)
        .map(|n| (n, LogIndex(index)))
        .collect()
}

/// Nodes 1 and 2 both propose at index 1. Node 1's `ProposeAt` reaches
/// every other site first, so its entry `a` holds a fast quorum there and
/// node 2's `b` only node 2's own vote. Returns `(a, b)` and `b`'s key.
fn collide(net: &mut Lockstep<FastRaftNode>) -> (EntryId, EntryId, (SessionId, u64)) {
    net.propose(NodeId(1), b"a");
    let key_b = net.propose(NodeId(2), b"b");
    net.deliver_all();
    let a = entry_at(net, NodeId(1), 1).expect("a at 1");
    let b = entry_at(net, NodeId(2), 1).expect("b at 1");
    (a, b, key_b)
}

/// A proposer whose entry loses its index learns it from the leader's
/// decision and re-proposes at once: `b` is at index 2 on every site after
/// the deciding tick's messages drain, and commits on the next tick. No
/// `ProposalRetry` fires and no heartbeat tells node 2 of the commit.
#[test]
fn a_losing_proposer_re_proposes_on_the_leaders_notice() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    let (a, b, key_b) = collide(&mut net);
    tick(&mut net, leader);
    assert_eq!(entry_at(&net, leader, 1), Some(a));
    for id in net.ids() {
        assert_eq!(entry_at(&net, id, 2), Some(b), "{id} lacks b at index 2");
    }
    tick(&mut net, leader);
    assert!(committed_response(&net, NodeId(2), key_b));
    net.assert_exactly_once();
    net.assert_safety();
}

/// The notice acts in the step that receives it: that one step
/// re-broadcasts the proposal at a fresh index.
#[test]
fn the_notice_re_proposes_inside_its_own_step() {
    let mut net = cluster(5);
    elect(&mut net, NodeId(0));
    let (_, b, _) = collide(&mut net);
    let sent = lost_notice(&mut net, NodeId(2), b, LogIndex(1));
    assert_eq!(sent, to_peers(&net, NodeId(2), 2));
    assert_eq!(entry_at(&net, NodeId(2), 2), Some(b));
}

/// The leader's own losing proposal re-targets inside the decision step.
/// Votes from sites 3 and 4 are lost, so the tick decides `a` at index 1
/// on a classic quorum without committing it: nothing but the decision
/// tells the leader that its own `l` lost.
#[test]
fn the_leaders_own_loser_re_proposes_inside_the_decision_step() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    net.set_link_filter(|from, to| !(to == NodeId(0) && from.as_u64() >= 3));
    net.propose(NodeId(1), b"a");
    net.propose(leader, b"l");
    net.deliver_all();
    let a = entry_at(&net, NodeId(1), 1).expect("a at 1");
    let l = entry_at(&net, leader, 1).expect("l at 1");
    let sent = proposes_in_step(&mut net, leader, l, |n, out| {
        n.on_timer(TimerKind::LeaderTick, out)
    });
    assert_eq!(entry_at(&net, leader, 1), Some(a));
    assert_eq!(net.node(leader).commit_index(), LogIndex::ZERO);
    assert_eq!(sent, to_peers(&net, leader, 2));
    assert_eq!(entry_at(&net, leader, 2), Some(l));
}

/// A notice for a proposal that has already left the named index changes
/// nothing: no message, no new slot.
#[test]
fn a_stale_notice_changes_nothing() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    let (_, b, _) = collide(&mut net);
    tick(&mut net, leader);
    assert_eq!(entry_at(&net, NodeId(2), 2), Some(b));
    let last = net.node(NodeId(2)).log().last_index();
    assert!(lost_notice(&mut net, NodeId(2), b, LogIndex(1)).is_empty());
    assert_eq!(net.node(NodeId(2)).log().last_index(), last);
    assert_eq!(net.node(NodeId(2)).pending_proposals(), 1);
}

/// A redirect (`committed: false` at index ZERO) only updates the leader
/// hint: the proposal keeps its index.
#[test]
fn a_redirect_does_not_retarget() {
    let mut net = cluster(5);
    elect(&mut net, NodeId(0));
    let (_, b, _) = collide(&mut net);
    assert!(lost_notice(&mut net, NodeId(2), b, LogIndex::ZERO).is_empty());
    assert_eq!(entry_at(&net, NodeId(2), 2), None);
    assert_eq!(
        lost_notice(&mut net, NodeId(2), b, LogIndex(1)),
        to_peers(&net, NodeId(2), 2),
        "the same proposal does move on a real notice"
    );
}
