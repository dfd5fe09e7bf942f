//! Session registration through the shared engine (Fast Raft) and across
//! the hierarchy (C-Raft): a committed [`wire::Payload::Register`] opens
//! the session's dedup window at every level it reaches.

use consensus_core::{build_deployment, CRaftConfig, CRaftNode, FastRaftNode};
use des::SimRng;
use raft::testkit::Lockstep;
use raft::{Role, Timing};
use wire::{
    ClientOutcome, ClientRequest, Configuration, LogScope, NodeId, Observation, Payload, SessionId,
    TimerKind,
};

#[test]
fn engine_register_commits_and_assigns_id() {
    let cfg: Configuration = (0..3).map(NodeId).collect();
    let mut net = Lockstep::new((0..3).map(|i| {
        FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            Timing::lan(),
            SimRng::seed_from_u64(8500 + i),
        )
    }));
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(NodeId(0)).role(), Role::Leader);
    net.client_request(NodeId(0), ClientRequest::register(SessionId(41)));
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    let regs: Vec<SessionId> = net
        .observations()
        .iter()
        .filter_map(|(n, o)| match o {
            Observation::ClientResponse {
                outcome: ClientOutcome::Registered { session, .. },
                ..
            } if *n == NodeId(0) => Some(*session),
            _ => None,
        })
        .collect();
    assert_eq!(regs.len(), 1, "registration unanswered: {regs:?}");
    assert_eq!(
        regs[0],
        SessionId(41),
        "the registration opened another session"
    );
    // Seq 1 is consumed: the session's first data write lands at seq 2.
    net.client_request(
        NodeId(0),
        ClientRequest::write(regs[0], 2, bytes::Bytes::from_static(b"w2")),
    );
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    assert!(net
        .responses_for(NodeId(0), regs[0], 2)
        .iter()
        .any(|o| matches!(o, ClientOutcome::Committed { .. })));
    net.assert_exactly_once();
    net.assert_safety();
}

/// C-Raft: a registration committed in one cluster rides a global batch,
/// carrying the session's `(session, 1)` dedup key with an empty value, so
/// every cluster's global dedup window starts at the registration.
#[test]
fn craft_register_propagates_in_global_batch() {
    let (nodes, _) = build_deployment(
        2,
        3,
        |c| {
            let mut cfg = CRaftConfig::paper(c);
            cfg.batch_size = 1;
            cfg
        },
        77,
    );
    let mut net: Lockstep<CRaftNode> = Lockstep::new(nodes);
    net.set_safety_domains(|n| n.as_u64() / 3);
    for c in 0..2u64 {
        net.fire(NodeId(c * 3), TimerKind::Election);
        net.deliver_all();
        assert!(net.node(NodeId(c * 3)).is_local_leader());
    }
    net.fire(NodeId(0), TimerKind::GlobalElection);
    net.deliver_all();
    assert!(net.node(NodeId(0)).is_global_leader());

    net.client_request(NodeId(0), ClientRequest::register(SessionId(41)));
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    let session = net
        .observations()
        .iter()
        .find_map(|(n, o)| match o {
            Observation::ClientResponse {
                outcome: ClientOutcome::Registered { session, .. },
                ..
            } if *n == NodeId(0) => Some(*session),
            _ => None,
        })
        .expect("registration acked at local commit");

    // Pump the hierarchy until the batch commits globally everywhere.
    for _ in 0..6 {
        for h in [NodeId(0), NodeId(3)] {
            net.fire(h, TimerKind::LeaderTick);
            net.deliver_all();
            net.fire(h, TimerKind::Heartbeat);
            net.deliver_all();
        }
        for h in [NodeId(0), NodeId(3)] {
            net.fire(h, TimerKind::GlobalLeaderTick);
            net.deliver_all();
            net.fire(h, TimerKind::GlobalHeartbeat);
            net.deliver_all();
        }
    }
    for head in [NodeId(0), NodeId(3)] {
        let found = net.commits(head).iter().any(|c| {
            c.scope == LogScope::Global
                && matches!(
                    &c.entry.payload,
                    Payload::Batch(b) if b.items
                        .iter()
                        .any(|i| i.key == Some((session, 1)) && i.data.is_empty())
                )
        });
        assert!(
            found,
            "{head}: the registration's (session, 1) key never committed globally"
        );
    }
    net.assert_safety();
}
