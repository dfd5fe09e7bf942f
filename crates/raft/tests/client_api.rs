//! Classic Raft's typed client surface: ReadIndex reads, typed write
//! outcomes, and session dedup at the gateway and the leader.

use des::SimRng;
use raft::testkit::Lockstep;
use raft::{RaftNode, Role, Timing};
use wire::{ClientOutcome, ClientRequest, Configuration, Consistency, LogIndex, NodeId, TimerKind};

fn cluster(n: u64) -> Lockstep<RaftNode> {
    let cfg: Configuration = (0..n).map(NodeId).collect();
    Lockstep::new((0..n).map(|i| {
        RaftNode::new(
            NodeId(i),
            cfg.clone(),
            Timing::lan(),
            SimRng::seed_from_u64(8000 + i),
        )
    }))
}

fn elect_leader(net: &mut Lockstep<RaftNode>) -> NodeId {
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(NodeId(0)).role(), Role::Leader);
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    NodeId(0)
}

fn read_ok_floor(outcomes: &[ClientOutcome]) -> Option<LogIndex> {
    outcomes.iter().find_map(|o| match o {
        ClientOutcome::ReadOk { commit_floor, .. } => Some(*commit_floor),
        _ => None,
    })
}

#[test]
fn linearizable_read_covers_committed_write() {
    let mut net = cluster(3);
    let leader = elect_leader(&mut net);
    let wkey = net.propose(NodeId(1), b"w");
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    let windex = net
        .responses_for(NodeId(1), wkey.0, wkey.1)
        .iter()
        .find_map(|o| match o {
            ClientOutcome::Committed { index } => Some(*index),
            _ => None,
        })
        .expect("write committed");
    // Read through a different follower; the ReadIndex round completes
    // within the forwarded exchange (leader dispatches probe heartbeats
    // immediately on registration).
    let rkey = net.read(NodeId(2), Consistency::Linearizable);
    net.deliver_all();
    let floor =
        read_ok_floor(&net.responses_for(NodeId(2), rkey.0, rkey.1)).expect("read answered");
    assert!(
        floor >= windex,
        "floor {floor} below completed write {windex}"
    );
    net.assert_safety();
}

#[test]
fn fresh_leader_retries_reads_until_term_commit() {
    let mut net = cluster(3);
    // Elect, delivering only the vote exchange (two requests + two
    // replies): the term's no-op is appended but its AppendEntries acks
    // have not returned, so it is still uncommitted at the new leader.
    net.fire(NodeId(0), TimerKind::Election);
    for _ in 0..4 {
        net.deliver_one();
    }
    assert_eq!(net.node(NodeId(0)).role(), Role::Leader);
    assert_eq!(net.node(NodeId(0)).commit_index(), LogIndex::ZERO);
    let key = net.read(NodeId(0), Consistency::Linearizable);
    // Registration happens synchronously; the gate answers Retry because no
    // entry of the current term has committed yet.
    let outcomes = net.responses_for(NodeId(0), key.0, key.1);
    assert!(
        outcomes.iter().any(|o| matches!(o, ClientOutcome::Retry)),
        "fresh leader must not serve its stale floor: {outcomes:?}"
    );
    // After the no-op commits, the retry succeeds.
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    let key2 = net.read(NodeId(0), Consistency::Linearizable);
    net.deliver_all();
    assert!(
        read_ok_floor(&net.responses_for(NodeId(0), key2.0, key2.1)).is_some(),
        "read must succeed once the term no-op committed"
    );
}

#[test]
fn stale_read_answers_without_leader() {
    let mut net = cluster(3);
    elect_leader(&mut net);
    net.crash(NodeId(0));
    let key = net.read(NodeId(2), Consistency::StaleLocal);
    assert!(
        read_ok_floor(&net.responses_for(NodeId(2), key.0, key.1)).is_some(),
        "stale reads need no leader"
    );
}

#[test]
fn read_without_known_leader_answers_retry() {
    let mut net = cluster(3);
    // No election yet: nobody has a leader hint.
    let key = net.read(NodeId(1), Consistency::Linearizable);
    let outcomes = net.responses_for(NodeId(1), key.0, key.1);
    assert!(
        outcomes.iter().any(|o| matches!(o, ClientOutcome::Retry)),
        "leaderless read should say Retry: {outcomes:?}"
    );
}

#[test]
fn duplicate_write_suppressed_across_gateways() {
    let mut net = cluster(3);
    let leader = elect_leader(&mut net);
    let key = net.propose(NodeId(1), b"pay-once");
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    // The client's gateway crashed from its point of view; it re-sends the
    // same (session, seq) through a DIFFERENT gateway.
    net.client_request(
        NodeId(2),
        ClientRequest::write(key.0, key.1, b"pay-once"[..].into()),
    );
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    let outcomes = net.responses_for(NodeId(2), key.0, key.1);
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, ClientOutcome::Duplicate { .. })),
        "cross-gateway retry must be recognized: {outcomes:?}"
    );
    net.assert_exactly_once();
    net.assert_safety();
}

#[test]
fn reads_do_not_grow_the_log() {
    let mut net = cluster(3);
    let leader = elect_leader(&mut net);
    let before = net.node(leader).log().last_index();
    for _ in 0..5 {
        net.read(NodeId(1), Consistency::Linearizable);
        net.deliver_all();
    }
    assert_eq!(
        net.node(leader).log().last_index(),
        before,
        "ReadIndex reads must not append log entries"
    );
    assert_eq!(net.node(leader).commit_index(), before);
    net.assert_safety();
}
