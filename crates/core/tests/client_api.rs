//! Scenario tests for the typed client surface: linearizable reads via
//! ReadIndex, stale-local reads, and the typed outcomes — over Fast Raft
//! and C-Raft (classic Raft's are in `crates/raft/tests/client_api.rs`).

use consensus_core::{build_deployment, CRaftConfig, CRaftNode, FastRaftMessage, FastRaftNode};
use des::SimRng;
use raft::testkit::Lockstep;
use raft::{Role, Timing};
use wire::{
    ClientOutcome, ClientRequest, Configuration, ConsensusProtocol, Consistency, LogIndex,
    LogScope, NodeId, SessionId, TimerKind,
};

fn cluster(n: u64) -> Lockstep<FastRaftNode> {
    let cfg: Configuration = (0..n).map(NodeId).collect();
    Lockstep::new((0..n).map(|i| {
        FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            Timing::lan(),
            SimRng::seed_from_u64(7000 + i),
        )
    }))
}

fn elect(net: &mut Lockstep<FastRaftNode>, who: NodeId) -> NodeId {
    net.fire(who, TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(who).role(), Role::Leader);
    who
}

fn commit_write(net: &mut Lockstep<FastRaftNode>, leader: NodeId, gw: NodeId, data: &[u8]) {
    net.propose(gw, data);
    net.deliver_all();
    net.fire(leader, TimerKind::LeaderTick);
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
}

fn read_ok_floor(outcomes: &[ClientOutcome]) -> Option<(LogScope, LogIndex)> {
    outcomes.iter().find_map(|o| match o {
        ClientOutcome::ReadOk {
            scope,
            commit_floor,
        } => Some((*scope, *commit_floor)),
        _ => None,
    })
}

#[test]
fn empty_system_answers_linearizable_read_at_floor_zero() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    let key = net.read(leader, Consistency::Linearizable);
    net.deliver_all();
    let floor = read_ok_floor(&net.responses_for(leader, key.0, key.1));
    assert_eq!(floor, Some((LogScope::Global, LogIndex::ZERO)));
}

#[test]
fn linearizable_read_reflects_completed_write() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    commit_write(&mut net, leader, NodeId(1), b"w1");
    // Read submitted at a follower: it forwards to the leader, which runs
    // the ReadIndex round (probe-tagged heartbeats + quorum acks) before
    // answering.
    let key = net.read(NodeId(2), Consistency::Linearizable);
    net.deliver_all();
    let (scope, floor) =
        read_ok_floor(&net.responses_for(NodeId(2), key.0, key.1)).expect("read answered");
    assert_eq!(scope, LogScope::Global);
    assert!(
        floor >= LogIndex(1),
        "lin read floor {floor} below the completed write"
    );
    net.assert_safety();
}

#[test]
fn stale_local_read_is_answered_immediately_from_any_site() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    commit_write(&mut net, leader, NodeId(1), b"w1");
    // Cut node 4 off entirely — a stale read still answers, from its own
    // (possibly behind) floor, with no messages needed.
    net.set_link_filter(|from, to| from != NodeId(4) && to != NodeId(4));
    let key = net.read(NodeId(4), Consistency::StaleLocal);
    let floor = read_ok_floor(&net.responses_for(NodeId(4), key.0, key.1));
    assert!(
        floor.is_some(),
        "stale read must answer without the network"
    );
}

#[test]
fn deposed_leader_cannot_answer_linearizable_reads() {
    let mut net = cluster(5);
    let old = elect(&mut net, NodeId(0));
    commit_write(&mut net, old, NodeId(1), b"w1");
    // Partition the old leader alone; a new leader arises.
    net.set_link_filter(|from, to| from != NodeId(0) && to != NodeId(0));
    net.fire(NodeId(1), TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(NodeId(1)).role(), Role::Leader);
    // The old leader (still believing) registers a read; its probe round
    // can never gather a quorum — no ReadOk may be produced, and once it
    // learns the new term the read fails with Retry.
    let key = net.read(old, Consistency::Linearizable);
    net.deliver_all();
    assert!(
        read_ok_floor(&net.responses_for(old, key.0, key.1)).is_none(),
        "an isolated deposed leader must not confirm a linearizable read"
    );
    net.set_link_filter(|_, _| true);
    net.fire(NodeId(1), TimerKind::Heartbeat);
    net.deliver_all();
    let outcomes = net.responses_for(old, key.0, key.1);
    assert!(
        outcomes.iter().any(|o| matches!(o, ClientOutcome::Retry)),
        "deposed leader should fail the pending read with Retry: {outcomes:?}"
    );
    net.assert_safety();
}

#[test]
fn quiescent_new_leader_serves_reads_after_one_nudge() {
    // A new leader inheriting a fully committed log has no entry of its
    // own term and no reason to create one — without the on-demand term
    // no-op, linearizable reads would answer Retry forever.
    let mut net = cluster(5);
    let old = elect(&mut net, NodeId(0));
    commit_write(&mut net, old, NodeId(1), b"w1");
    // One extra heartbeat so every survivor holds the commit floor.
    net.fire(old, TimerKind::Heartbeat);
    net.deliver_all();
    net.crash(old);
    net.fire(NodeId(1), TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(NodeId(1)).role(), Role::Leader);
    // First attempt: Retry (no current-term entry committed yet), but the
    // nudge appends + replicates a term no-op in the same exchange.
    let k1 = net.read(NodeId(2), Consistency::Linearizable);
    net.deliver_all();
    let outcomes = net.responses_for(NodeId(2), k1.0, k1.1);
    assert!(
        outcomes.iter().any(|o| matches!(o, ClientOutcome::Retry)),
        "stale floor must not be served: {outcomes:?}"
    );
    // The client's resubmission now succeeds at a floor covering the write.
    let k2 = net.read(NodeId(2), Consistency::Linearizable);
    net.deliver_all();
    let (_, floor) =
        read_ok_floor(&net.responses_for(NodeId(2), k2.0, k2.1)).expect("read after nudge");
    assert!(floor >= LogIndex(1));
    net.assert_safety();
}

#[test]
fn write_retry_after_commit_answers_duplicate_with_first_index() {
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    let key = net.propose(NodeId(1), b"once");
    net.deliver_all();
    net.fire(leader, TimerKind::LeaderTick);
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    let first = net.responses_for(NodeId(1), key.0, key.1);
    let committed_at = first
        .iter()
        .find_map(|o| match o {
            ClientOutcome::Committed { index } => Some(*index),
            _ => None,
        })
        .expect("write committed");
    // The client retries the same (session, seq) — e.g. its ack was lost.
    net.client_request(
        NodeId(1),
        ClientRequest::write(key.0, key.1, b"once"[..].into()),
    );
    net.deliver_all();
    let outcomes = net.responses_for(NodeId(1), key.0, key.1);
    assert!(
        outcomes.iter().any(|o| matches!(o,
            ClientOutcome::Duplicate { first_index } if *first_index == committed_at)),
        "retry must be answered Duplicate at the original index: {outcomes:?}"
    );
    net.assert_exactly_once();
    net.assert_safety();
}

#[test]
fn stray_read_answer_cannot_complete_a_pending_write() {
    // Gateway tables are keyed by (session, id). Were a read allowed to
    // reuse a write's number, a stale ReadOk for it would complete the
    // pending write without the write ever applying. Read ids live in a
    // space of their own, so the ReadOk names another key.
    let mut net = cluster(5);
    let leader = elect(&mut net, NodeId(0));
    let gw = NodeId(1);
    net.set_link_filter(move |from, to| from != gw && to != gw);
    let (session, w) = net.propose(gw, b"pending");
    net.deliver_all();
    let stray = FastRaftMessage::ClientReply {
        session,
        seq: wire::read_id(w),
        outcome: ClientOutcome::ReadOk {
            scope: LogScope::Global,
            commit_floor: LogIndex::ZERO,
        },
    };
    net.with_node(gw, |n, out| n.on_message(leader, stray, out));
    assert_eq!(
        net.responses_for(gw, session, w),
        [],
        "the write is still pending"
    );
    assert!(net.responses_for(gw, session, wire::read_id(w)).is_empty());

    // Healed, the write commits and is answered once, as itself.
    net.set_link_filter(|_, _| true);
    net.fire(gw, TimerKind::ProposalRetry);
    net.deliver_all();
    net.fire(leader, TimerKind::LeaderTick);
    net.deliver_all();
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
    let outcomes = net.responses_for(gw, session, w);
    assert!(
        matches!(outcomes[..], [ClientOutcome::Committed { .. }]),
        "{outcomes:?}"
    );
    net.assert_exactly_once();
}

// ---------------------------------------------------------------------
// C-Raft: global linearizable reads, local stale reads
// ---------------------------------------------------------------------

fn craft_net(clusters: u64, per: u64, batch: usize) -> Lockstep<CRaftNode> {
    let (nodes, _) = build_deployment(
        clusters,
        per,
        |c| {
            let mut cfg = CRaftConfig::paper(c);
            cfg.batch_size = batch;
            cfg
        },
        42,
    );
    let mut net = Lockstep::new(nodes);
    net.set_safety_domains(move |n| n.as_u64() / per);
    net
}

fn craft_pump(net: &mut Lockstep<CRaftNode>, heads: &[NodeId]) {
    for &h in heads {
        net.fire(h, TimerKind::LeaderTick);
        net.deliver_all();
        net.fire(h, TimerKind::Heartbeat);
        net.deliver_all();
    }
    for &h in heads {
        net.fire(h, TimerKind::GlobalLeaderTick);
        net.deliver_all();
        net.fire(h, TimerKind::GlobalHeartbeat);
        net.deliver_all();
    }
}

#[test]
fn craft_linearizable_read_is_global_and_routes_through_leaders() {
    let mut net = craft_net(2, 3, 1);
    for h in [NodeId(0), NodeId(3)] {
        net.fire(h, TimerKind::Election);
        net.deliver_all();
        assert!(net.node(h).is_local_leader());
    }
    net.fire(NodeId(0), TimerKind::GlobalElection);
    net.deliver_all();
    assert!(net.node(NodeId(0)).is_global_leader());

    // Commit one write through cluster 1 and push its batch globally.
    net.propose(NodeId(4), b"global-w");
    net.deliver_all();
    for _ in 0..6 {
        craft_pump(&mut net, &[NodeId(0), NodeId(3)]);
    }
    let gcommit = net.node(NodeId(0)).global_commit_seen();
    assert!(gcommit >= LogIndex(1), "batch never committed globally");

    // A member of cluster 0 (not a leader at any level) issues the read:
    // member → local leader (cluster 0) → global engine chain.
    let key = net.read(NodeId(1), Consistency::Linearizable);
    net.deliver_all();
    let (scope, floor) =
        read_ok_floor(&net.responses_for(NodeId(1), key.0, key.1)).expect("read answered");
    assert_eq!(scope, LogScope::Global, "C-Raft lin reads are global reads");
    assert!(
        floor >= gcommit,
        "global read floor {floor} below the committed batch at {gcommit}"
    );
    net.assert_safety();
}

#[test]
fn craft_stale_local_read_serves_local_floor() {
    let mut net = craft_net(2, 3, 2);
    for h in [NodeId(0), NodeId(3)] {
        net.fire(h, TimerKind::Election);
        net.deliver_all();
    }
    net.propose(NodeId(1), b"local-w");
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    let key = net.read(NodeId(1), Consistency::StaleLocal);
    let (scope, floor) =
        read_ok_floor(&net.responses_for(NodeId(1), key.0, key.1)).expect("answered");
    assert_eq!(scope, LogScope::Local);
    assert!(floor >= LogIndex(1), "stale local floor below local commit");
}

#[test]
fn craft_write_is_acked_with_typed_outcome_at_local_commit() {
    let mut net = craft_net(1, 3, 5);
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    let key = net.propose(NodeId(2), b"typed");
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    let outcomes = net.responses_for(NodeId(2), key.0, key.1);
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, ClientOutcome::Committed { index } if !index.is_zero())),
        "C-Raft write must be acknowledged Committed at local commit: {outcomes:?}"
    );
    // A client retry of the same seq is suppressed as Duplicate.
    net.client_request(
        NodeId(2),
        ClientRequest::write(SessionId::client(2), key.1, b"typed"[..].into()),
    );
    net.deliver_all();
    let outcomes = net.responses_for(NodeId(2), key.0, key.1);
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, ClientOutcome::Duplicate { .. })),
        "retry after local commit must answer Duplicate: {outcomes:?}"
    );
    net.assert_exactly_once();
}
