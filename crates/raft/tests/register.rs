//! Explicit session registration ([`wire::ClientOp::Register`]):
//! idempotent re-registration, redirect at followers, and — the point of
//! the op — the closed seq-1 expiry window: a registered session's first
//! *data* write is seq 2, so a post-eviction retry is always detectably
//! stale and never silently re-applied.

use des::SimRng;
use raft::testkit::Lockstep;
use raft::{RaftNode, Role, Timing};
use wire::{
    ClientOutcome, ClientRequest, Configuration, LogIndex, NodeId, Observation, SessionId,
    TimerKind,
};

const TTL: u64 = 8;
/// The session every test registers (ids are the client's to choose).
const SESSION: SessionId = SessionId(41);

fn cluster(ttl: u64) -> Lockstep<RaftNode> {
    let cfg: Configuration = (0..3).map(NodeId).collect();
    let mut timing = Timing::lan();
    timing.session_ttl = ttl;
    Lockstep::new((0..3).map(|i| {
        RaftNode::new(
            NodeId(i),
            cfg.clone(),
            timing,
            SimRng::seed_from_u64(8400 + i),
        )
    }))
}

fn elect(net: &mut Lockstep<RaftNode>, who: NodeId) -> NodeId {
    net.fire(who, TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(who).role(), Role::Leader);
    who
}

fn commit_round(net: &mut Lockstep<RaftNode>, leader: NodeId) {
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
}

/// Every `Registered` outcome observed at `at`, in order.
fn registered_at(net: &Lockstep<RaftNode>, at: NodeId) -> Vec<(SessionId, LogIndex)> {
    net.observations()
        .iter()
        .filter_map(|(n, o)| match o {
            Observation::ClientResponse {
                outcome: ClientOutcome::Registered { session, index },
                ..
            } if *n == at => Some((*session, *index)),
            _ => None,
        })
        .collect()
}

#[test]
fn reregister_is_idempotent_at_the_same_index() {
    let mut net = cluster(TTL);
    let leader = elect(&mut net, NodeId(0));
    net.client_request(leader, ClientRequest::register(SESSION));
    net.deliver_all();
    commit_round(&mut net, leader);
    let (session, index) = registered_at(&net, leader)[0];
    assert_eq!(session, SESSION, "the registration opened another session");
    // The client retries (e.g. the first ack was lost): answered from the
    // dedup table, same placement, no new entry.
    net.client_request(leader, ClientRequest::register(session));
    net.deliver_all();
    commit_round(&mut net, leader);
    let regs = registered_at(&net, leader);
    assert_eq!(regs.len(), 2, "retry unanswered: {regs:?}");
    assert_eq!(regs[1], (session, index), "retry moved the registration");
    let applies = net
        .observations()
        .iter()
        .filter(
            |(_, o)| matches!(o, Observation::SessionApplied { session: s, seq: 1, .. } if *s == session),
        )
        .count();
    assert_eq!(applies, 3, "one apply per replica, not per attempt");
    net.assert_exactly_once();
    net.assert_safety();
}

#[test]
fn register_at_follower_redirects_to_leader() {
    let mut net = cluster(TTL);
    let leader = elect(&mut net, NodeId(0));
    // A heartbeat teaches the followers who leads.
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    net.client_request(NodeId(1), ClientRequest::register(SESSION));
    net.deliver_all();
    let redirects: Vec<_> = net
        .observations()
        .iter()
        .filter_map(|(n, o)| match o {
            Observation::ClientResponse {
                outcome: ClientOutcome::Redirect { leader_hint },
                ..
            } if *n == NodeId(1) => Some(*leader_hint),
            _ => None,
        })
        .collect();
    assert_eq!(
        redirects,
        vec![Some(leader)],
        "registration is leader-only: the follower must hand back a hint"
    );
    assert!(
        registered_at(&net, NodeId(1)).is_empty(),
        "a follower completed a registration"
    );
    net.assert_safety();
}

#[test]
fn registered_session_expiry_is_terminal_never_replayed() {
    // The window Register closes: an *unregistered* session whose seq-1
    // write outlives its eviction is indistinguishable from a new session
    // and would re-apply. Registration consumes seq 1 with a no-value op,
    // so every post-eviction data retry has seq > 1 and is detectably
    // stale.
    let mut net = cluster(TTL);
    let leader = elect(&mut net, NodeId(0));
    net.client_request(leader, ClientRequest::register(SESSION));
    net.deliver_all();
    commit_round(&mut net, leader);
    let (session, _) = registered_at(&net, leader)[0];
    // First data write of the registered session: seq 2.
    net.client_request(
        leader,
        ClientRequest::write(session, 2, bytes::Bytes::from_static(b"w2")),
    );
    net.deliver_all();
    commit_round(&mut net, leader);
    assert!(net
        .responses_for(leader, session, 2)
        .iter()
        .any(|o| matches!(o, ClientOutcome::Committed { .. })));
    // Busy traffic idles the session past the TTL.
    for i in 0..(TTL + 4) {
        net.propose(NodeId(2), format!("busy-{i}").as_bytes());
        net.deliver_all();
        commit_round(&mut net, leader);
    }
    assert!(
        net.node(leader).sessions().get(session).is_none(),
        "precondition: the registered session must be evicted"
    );
    // Retries of *any* of its writes — including the first one — answer
    // the terminal SessionExpired instead of re-applying.
    for seq in [2u64, 3] {
        net.client_request(
            leader,
            ClientRequest::write(session, seq, bytes::Bytes::from_static(b"retry")),
        );
        net.deliver_all();
        commit_round(&mut net, leader);
        let outcomes = net.responses_for(leader, session, seq);
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o, ClientOutcome::SessionExpired)),
            "seq {seq}: expected SessionExpired, got {outcomes:?}"
        );
    }
    net.assert_exactly_once();
    net.assert_safety();
}
