//! Classic-Raft session expiry: the same deterministic TTL eviction the
//! Fast Raft engine runs (see `crates/core/tests/session_expiry.rs`),
//! through `RaftNode`'s shared `wire::SessionTable` machinery.

use des::SimRng;
use raft::testkit::Lockstep;
use raft::{RaftNode, Role, Timing};
use wire::{
    ClientOutcome, ClientRequest, Configuration, NodeId, Observation, SessionId, TimerKind,
};

const TTL: u64 = 8;

fn cluster(ttl: u64) -> Lockstep<RaftNode> {
    let cfg: Configuration = (0..3).map(NodeId).collect();
    let mut timing = Timing::lan();
    timing.session_ttl = ttl;
    Lockstep::new((0..3).map(|i| {
        RaftNode::new(
            NodeId(i),
            cfg.clone(),
            timing,
            SimRng::seed_from_u64(8100 + i),
        )
    }))
}

fn elect(net: &mut Lockstep<RaftNode>, who: NodeId) -> NodeId {
    net.fire(who, TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(who).role(), Role::Leader);
    who
}

fn commit_write(net: &mut Lockstep<RaftNode>, leader: NodeId, gw: NodeId, data: &[u8]) {
    net.propose(gw, data);
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    // Second round propagates the advanced commit floor to followers.
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
}

#[test]
fn idle_session_evicted_and_stale_retry_answers_retry() {
    let mut net = cluster(TTL);
    let leader = elect(&mut net, NodeId(0));
    let idle = SessionId::client(1);
    commit_write(&mut net, leader, NodeId(1), b"idle-1");
    commit_write(&mut net, leader, NodeId(1), b"idle-2");
    for i in 0..(TTL + 4) {
        commit_write(&mut net, leader, NodeId(2), format!("busy-{i}").as_bytes());
    }
    // Evicted on every replica, deterministically, digest convergent.
    let d0 = net.node(NodeId(0)).state_digest();
    for id in net.ids() {
        assert!(net.node(id).sessions().get(idle).is_none(), "{id}");
        assert_eq!(net.node(id).state_digest(), d0, "{id}: digest diverged");
    }
    assert!(net.observations().iter().any(
        |(_, o)| matches!(o, Observation::SessionEvicted { session, .. } if *session == idle)
    ));

    // A stale retry of the evicted session's seq 2 answers the terminal
    // SessionExpired — the dedup history is gone and re-placing it could
    // apply twice; a plain Retry would have the client loop forever.
    net.client_request(
        leader,
        ClientRequest::write(idle, 2, bytes::Bytes::from_static(b"idle-2")),
    );
    net.deliver_all();
    let outcomes = net.responses_for(leader, idle, 2);
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, ClientOutcome::SessionExpired)),
        "expected SessionExpired, got {outcomes:?}"
    );
    assert!(!outcomes
        .iter()
        .any(|o| matches!(o, ClientOutcome::Duplicate { .. })));
    net.assert_exactly_once();
    net.assert_safety();
}

#[test]
fn fresh_leader_lagging_table_never_terminally_refuses_live_session() {
    // The false-positive race the currency gate closes: a fresh leader's
    // applied table *lags* until an entry of its own term commits, so a
    // live session whose writes are committed-but-not-applied-here reads
    // as "expired" (`seq > 1`, session untracked). Terminally refusing
    // then would tell the client "placed nowhere" while the placement
    // survives in the log and later applies — the client would reopen a
    // session, resubmit, and the op would apply twice. The door must
    // answer the non-terminal Retry until the table is provably current.
    let mut net = cluster(TTL);
    let leader = elect(&mut net, NodeId(0));
    let live = SessionId::client(1);
    // (live, 1) commits and is acked at the old leader; the followers hold
    // the entry but not the commit floor (floor propagation is one
    // heartbeat behind), so their tables never see the session.
    net.client_request(
        leader,
        ClientRequest::write(live, 1, bytes::Bytes::from_static(b"w1")),
    );
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    assert!(net
        .responses_for(leader, live, 1)
        .iter()
        .any(|o| matches!(o, ClientOutcome::Committed { .. })));
    // The client's next op, (live, 2), reaches the old leader's log but is
    // never dispatched (heartbeat-gated) — in flight, unacked.
    net.client_request(
        leader,
        ClientRequest::write(live, 2, bytes::Bytes::from_static(b"w2")),
    );
    net.deliver_all();
    assert!(
        net.node(NodeId(1)).sessions().get(live).is_none(),
        "precondition: the follower's table must lag the commit"
    );
    // Elect node 1 delivering only the vote traffic: stop as soon as it
    // turns Leader, before its own-term no-op round catches its table up.
    net.fire(NodeId(1), TimerKind::Election);
    while net.node(NodeId(1)).role() != Role::Leader {
        assert!(net.deliver_one(), "election wedged");
    }
    assert!(net.node(NodeId(1)).sessions().get(live).is_none());
    // The client times out on (live, 2) and retries it at the new leader,
    // whose lagging table reads the live session as "expired".
    net.client_request(
        NodeId(1),
        ClientRequest::write(live, 2, bytes::Bytes::from_static(b"w2")),
    );
    let early = net.responses_for(NodeId(1), live, 2);
    assert!(
        !early
            .iter()
            .any(|o| matches!(o, ClientOutcome::SessionExpired)),
        "lagging fresh leader terminally refused a live session: {early:?}"
    );
    assert!(
        early.iter().any(|o| matches!(o, ClientOutcome::Retry)),
        "expected the non-terminal Retry, got {early:?}"
    );
    // Let the new leader commit its no-op and catch up its applied state,
    // then resubmit: the table now knows the session and the op commits.
    net.deliver_all();
    for _ in 0..2 {
        net.fire(NodeId(1), TimerKind::Heartbeat);
        net.deliver_all();
    }
    net.client_request(
        NodeId(1),
        ClientRequest::write(live, 2, bytes::Bytes::from_static(b"w2")),
    );
    net.deliver_all();
    for _ in 0..2 {
        net.fire(NodeId(1), TimerKind::Heartbeat);
        net.deliver_all();
    }
    let outcomes = net.responses_for(NodeId(1), live, 2);
    assert!(
        !outcomes
            .iter()
            .any(|o| matches!(o, ClientOutcome::SessionExpired)),
        "live session must never be told SessionExpired: {outcomes:?}"
    );
    assert!(
        outcomes.iter().any(|o| matches!(
            o,
            ClientOutcome::Committed { .. } | ClientOutcome::Duplicate { .. }
        )),
        "caught-up leader must accept or dedup the retry, got {outcomes:?}"
    );
    net.assert_exactly_once();
    net.assert_safety();
}

#[test]
fn ttl_zero_retains_sessions_forever() {
    let mut net = cluster(0);
    let leader = elect(&mut net, NodeId(0));
    commit_write(&mut net, leader, NodeId(1), b"one");
    for i in 0..30 {
        commit_write(&mut net, leader, NodeId(2), format!("busy-{i}").as_bytes());
    }
    for id in net.ids() {
        assert!(
            net.node(id).sessions().get(SessionId::client(1)).is_some(),
            "{id}: evicted with expiry disabled"
        );
    }
}
