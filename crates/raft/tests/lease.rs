//! Leader-lease behavior in classic Raft: local lease reads, the fresh
//! leader enable barrier, ReadIndex fallback on lapse, and the follower
//! vote hold that makes the lease promise enforceable.
//!
//! The Lockstep testkit is clockless by default (leases stay inert, see
//! `wire::LeaseState`); these tests stamp every node's local clock by hand
//! to walk the lease through its lifecycle deterministically.

use des::{SimRng, SimTime};
use raft::testkit::Lockstep;
use raft::{RaftNode, Role, Timing};
use wire::{
    ClientOutcome, Configuration, Consistency, ConsensusProtocol, NodeId, Observation, TimerKind,
};

fn cluster(n: u64) -> Lockstep<RaftNode> {
    let cfg: Configuration = (0..n).map(NodeId).collect();
    Lockstep::new((0..n).map(|i| {
        RaftNode::new(
            NodeId(i),
            cfg.clone(),
            Timing::lan(), // lease 300 ms, skew bound 50 ms, barrier 350 ms
            SimRng::seed_from_u64(9100 + i),
        )
    }))
}

fn stamp_all(net: &mut Lockstep<RaftNode>, ms: u64) {
    for id in net.ids() {
        net.node_mut(id).set_local_clock(SimTime::from_millis(ms));
    }
}

/// Elects node 0 at clock `t=1000ms` and heartbeats at `t=1400ms`, past the
/// 350 ms enable barrier, leaving a live lease (grants good to 1700 ms).
fn elect_with_lease(net: &mut Lockstep<RaftNode>) -> NodeId {
    stamp_all(net, 1000);
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(NodeId(0)).role(), Role::Leader);
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    stamp_all(net, 1400);
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    NodeId(0)
}

fn lease_reads(net: &Lockstep<RaftNode>) -> usize {
    net.observations()
        .iter()
        .filter(|(_, o)| matches!(o, Observation::LeaseRead { .. }))
        .count()
}

fn readindex_reads(net: &Lockstep<RaftNode>) -> usize {
    net.observations()
        .iter()
        .filter(|(_, o)| matches!(o, Observation::ReadIndexRead { .. }))
        .count()
}

#[test]
fn lease_read_is_local_and_message_free() {
    let mut net = cluster(3);
    let leader = elect_with_lease(&mut net);
    stamp_all(&mut net, 1500);
    let key = net.read(leader, Consistency::Linearizable);
    // The answer must arrive from the handler itself: no quorum round.
    let outcomes = net.responses_for(leader, key.0, key.1);
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, ClientOutcome::ReadOk { .. })),
        "lease read unanswered: {outcomes:?}"
    );
    assert_eq!(lease_reads(&net), 1);
    assert_eq!(readindex_reads(&net), 0);
    assert!(
        !net.deliver_one(),
        "a lease-served read must put zero messages on the wire"
    );
    net.assert_safety();
}

#[test]
fn fresh_leader_blocks_lease_until_barrier_passes() {
    let mut net = cluster(3);
    stamp_all(&mut net, 1000);
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    // Quorum grants are already recorded (append acks at t=1000), but the
    // enable barrier runs to 1000 + 300 + 50 = 1350: a predecessor could
    // still be serving under its own lease until then.
    stamp_all(&mut net, 1340);
    let key = net.read(NodeId(0), Consistency::Linearizable);
    net.deliver_all();
    assert!(
        net.responses_for(NodeId(0), key.0, key.1)
            .iter()
            .any(|o| matches!(o, ClientOutcome::ReadOk { .. })),
        "barrier-window read must still succeed via ReadIndex"
    );
    assert_eq!(lease_reads(&net), 0, "lease served inside the barrier");
    assert_eq!(readindex_reads(&net), 1);
    // Past the barrier the same leader serves locally (the barrier-window
    // ReadIndex acks doubled as fresh grants).
    stamp_all(&mut net, 1360);
    let key2 = net.read(NodeId(0), Consistency::Linearizable);
    assert!(
        net.responses_for(NodeId(0), key2.0, key2.1)
            .iter()
            .any(|o| matches!(o, ClientOutcome::ReadOk { .. })),
    );
    assert_eq!(lease_reads(&net), 1);
    net.assert_safety();
}

#[test]
fn lapsed_lease_falls_back_to_readindex() {
    let mut net = cluster(3);
    let leader = elect_with_lease(&mut net);
    // Jump far past every grant (1700 ms) without a heartbeat in between.
    stamp_all(&mut net, 5000);
    let key = net.read(leader, Consistency::Linearizable);
    net.deliver_all();
    assert!(
        net.responses_for(leader, key.0, key.1)
            .iter()
            .any(|o| matches!(o, ClientOutcome::ReadOk { .. })),
        "lapsed-lease read must complete through the quorum round"
    );
    assert_eq!(lease_reads(&net), 0);
    assert_eq!(readindex_reads(&net), 1);
    // The fallback round's acks re-established the lease: the next read at
    // the same instant is local again.
    let key2 = net.read(leader, Consistency::Linearizable);
    assert!(
        net.responses_for(leader, key2.0, key2.1)
            .iter()
            .any(|o| matches!(o, ClientOutcome::ReadOk { .. })),
    );
    assert_eq!(lease_reads(&net), 1);
    net.assert_safety();
}

#[test]
fn lease_read_floor_covers_committed_write() {
    let mut net = cluster(3);
    let leader = elect_with_lease(&mut net);
    stamp_all(&mut net, 1450);
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
    stamp_all(&mut net, 1500);
    let rkey = net.read(leader, Consistency::Linearizable);
    let floor = net
        .responses_for(leader, rkey.0, rkey.1)
        .iter()
        .find_map(|o| match o {
            ClientOutcome::ReadOk { commit_floor, .. } => Some(*commit_floor),
            _ => None,
        })
        .expect("lease read answered");
    assert!(floor >= windex, "floor {floor} below completed write {windex}");
    assert_eq!(lease_reads(&net), 1);
    net.assert_safety();
}

#[test]
fn vote_hold_blocks_rival_and_preserves_leader_term() {
    let mut net = cluster(3);
    let leader = elect_with_lease(&mut net);
    let term_before = net.node(leader).current_term();
    // A rival wakes up inside the hold window (grants run to 1700 ms).
    stamp_all(&mut net, 1450);
    net.fire(NodeId(2), TimerKind::Election);
    net.deliver_all();
    // Follower 1 is bound by its grant; the leader itself refuses because
    // its lease is live. Neither adopted the inflated term.
    assert_eq!(net.node(leader).role(), Role::Leader);
    assert_eq!(net.node(leader).current_term(), term_before);
    assert_ne!(net.node(NodeId(2)).role(), Role::Leader);
    let ignored: Vec<&'static str> = net
        .observations()
        .iter()
        .filter_map(|(_, o)| match o {
            Observation::MessageIgnored { reason } if reason.contains("lease") => Some(*reason),
            _ => None,
        })
        .collect();
    assert!(
        ignored.contains(&"vote request during lease hold"),
        "follower hold never enforced: {ignored:?}"
    );
    assert!(
        ignored.contains(&"vote request at leader with live lease"),
        "leader self-defense never enforced: {ignored:?}"
    );
    // Liveness: once every promise has lapsed, the rival can win normally.
    stamp_all(&mut net, 4000);
    net.fire(NodeId(2), TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(NodeId(2)).role(), Role::Leader);
    net.assert_safety();
}

#[test]
fn stepped_down_leader_stops_serving_lease_reads() {
    let mut net = cluster(3);
    let leader = elect_with_lease(&mut net);
    // Depose via a fresh election after all promises lapse.
    stamp_all(&mut net, 4000);
    net.fire(NodeId(1), TimerKind::Election);
    net.deliver_all();
    assert_eq!(net.node(NodeId(1)).role(), Role::Leader);
    assert_eq!(net.node(leader).role(), Role::Follower);
    // The old leader's lease state was cleared on step-down: a lin read at
    // it redirects instead of answering from stale grants.
    let key = net.read(leader, Consistency::Linearizable);
    net.deliver_all();
    let outcomes = net.responses_for(leader, key.0, key.1);
    assert_eq!(lease_reads(&net), 0, "deposed leader served a lease read");
    assert!(
        outcomes
            .iter()
            .all(|o| !matches!(o, ClientOutcome::ReadOk { .. }) || readindex_reads(&net) > 0),
        "read answered without confirmation: {outcomes:?}"
    );
    net.assert_safety();
}

#[test]
fn clockless_embedding_keeps_readindex_behavior() {
    // Never stamp a clock: with lease knobs configured on, every handler
    // must behave exactly as the pre-lease protocol — reads pay the
    // ReadIndex round, votes are never refused.
    let mut net = cluster(3);
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    let key = net.read(NodeId(0), Consistency::Linearizable);
    net.deliver_all();
    assert!(
        net.responses_for(NodeId(0), key.0, key.1)
            .iter()
            .any(|o| matches!(o, ClientOutcome::ReadOk { .. })),
    );
    assert_eq!(lease_reads(&net), 0);
    assert_eq!(readindex_reads(&net), 1);
    net.assert_safety();
}

#[test]
fn zero_lease_duration_disables_leases_under_live_clocks() {
    let mut timing = Timing::lan();
    timing.lease_duration = des::SimDuration::ZERO;
    timing.max_clock_skew = des::SimDuration::ZERO;
    let cfg: Configuration = (0..3).map(NodeId).collect();
    let mut net = Lockstep::new((0..3).map(|i| {
        RaftNode::new(
            NodeId(i),
            cfg.clone(),
            timing,
            SimRng::seed_from_u64(9200 + i),
        )
    }));
    stamp_all(&mut net, 1000);
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    stamp_all(&mut net, 2000);
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    let key = net.read(NodeId(0), Consistency::Linearizable);
    net.deliver_all();
    assert!(
        net.responses_for(NodeId(0), key.0, key.1)
            .iter()
            .any(|o| matches!(o, ClientOutcome::ReadOk { .. })),
    );
    assert_eq!(lease_reads(&net), 0, "disabled lease still served a read");
    assert_eq!(readindex_reads(&net), 1);
}
