//! Scenario tests for C-Raft's hierarchical consensus (§V).

use consensus_core::{build_deployment, CRaftConfig, CRaftNode};
use raft::testkit::Lockstep;
use wire::{LogIndex, LogScope, NodeId, Payload, TimerKind};

/// Builds `clusters × per_cluster` sites with batch size `batch`.
fn deployment(clusters: u64, per_cluster: u64, batch: usize) -> Lockstep<CRaftNode> {
    let (nodes, _) = build_deployment(
        clusters,
        per_cluster,
        |c| {
            let mut cfg = CRaftConfig::paper(c);
            cfg.batch_size = batch;
            cfg
        },
        42,
    );
    let mut net = Lockstep::new(nodes);
    net.set_safety_domains(move |n| n.as_u64() / per_cluster);
    net
}

/// First node of cluster `c` in a row-major deployment.
fn head(c: u64, per_cluster: u64) -> NodeId {
    NodeId(c * per_cluster)
}

/// Elects the designated head of each cluster as local leader.
fn elect_heads(net: &mut Lockstep<CRaftNode>, clusters: u64, per_cluster: u64) {
    for c in 0..clusters {
        net.fire(head(c, per_cluster), TimerKind::Election);
        net.deliver_all();
        assert!(
            net.node(head(c, per_cluster)).is_local_leader(),
            "cluster {c} head failed local election"
        );
    }
}

/// Elects a global leader among the (already elected) local leaders.
fn elect_global(net: &mut Lockstep<CRaftNode>, who: NodeId) {
    net.fire(who, TimerKind::GlobalElection);
    net.deliver_all();
    assert!(
        net.node(who).is_global_leader(),
        "{who} lost global election"
    );
}

/// One full "pump" of the hierarchy: local decision ticks + heartbeats, then
/// global tick + heartbeat, for every cluster head.
fn pump(net: &mut Lockstep<CRaftNode>, clusters: u64, per_cluster: u64) {
    for c in 0..clusters {
        let h = head(c, per_cluster);
        net.fire(h, TimerKind::LeaderTick);
        net.deliver_all();
        net.fire(h, TimerKind::Heartbeat);
        net.deliver_all();
    }
    for c in 0..clusters {
        let h = head(c, per_cluster);
        net.fire(h, TimerKind::GlobalLeaderTick);
        net.deliver_all();
        net.fire(h, TimerKind::GlobalHeartbeat);
        net.deliver_all();
    }
}

#[test]
fn local_leaders_activate_global_side() {
    let mut net = deployment(2, 3, 2);
    elect_heads(&mut net, 2, 3);
    assert!(net.node(NodeId(0)).global_engine().is_some());
    assert!(net.node(NodeId(3)).global_engine().is_some());
    assert!(net.node(NodeId(1)).global_engine().is_none());
}

#[test]
fn local_commit_then_batch_then_global_commit() {
    let mut net = deployment(2, 3, 2);
    elect_heads(&mut net, 2, 3);
    elect_global(&mut net, NodeId(0));

    // Two proposals in cluster 0 fill one batch (batch size 2).
    net.propose(NodeId(1), b"a");
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();
    net.propose(NodeId(1), b"b");
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();

    // Local commits must exist at cluster members after a heartbeat.
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    let local_commits = net
        .commits(NodeId(0))
        .iter()
        .filter(|c| c.scope == LogScope::Local && matches!(c.entry.payload, Payload::Write { .. }))
        .count();
    assert_eq!(
        local_commits, 2,
        "cluster 0 should commit both proposals locally"
    );

    // The batch flows through the global level: batch proposal broadcast →
    // gated inserts (local global-state consensus) → votes → global
    // decision tick → global commit.
    for _ in 0..6 {
        pump(&mut net, 2, 3);
    }
    let global_batches: Vec<_> = net
        .commits(NodeId(0))
        .iter()
        .filter(|c| c.scope == LogScope::Global)
        .collect();
    assert!(
        global_batches
            .iter()
            .any(|c| matches!(&c.entry.payload, Payload::Batch(b) if b.len() == 2)),
        "the 2-entry batch must commit in the global log; got {global_batches:?}"
    );
    // The other cluster's leader also commits it.
    assert!(
        net.commits(NodeId(3))
            .iter()
            .any(|c| c.scope == LogScope::Global
                && matches!(&c.entry.payload, Payload::Batch(b) if b.len() == 2)),
        "cluster 1's leader must learn the global commit"
    );
    net.assert_safety();
}

#[test]
fn global_state_entries_replicate_inside_cluster() {
    let mut net = deployment(2, 3, 1);
    elect_heads(&mut net, 2, 3);
    elect_global(&mut net, NodeId(0));
    net.propose(NodeId(2), b"x");
    net.deliver_all();
    for _ in 0..6 {
        pump(&mut net, 2, 3);
    }
    // Cluster followers hold global-state entries in their local logs.
    let follower_log = net.node(NodeId(1)).local_log();
    let gs_count = follower_log
        .iter()
        .filter(|(_, e)| matches!(e.payload, Payload::GlobalState(_)))
        .count();
    assert!(
        gs_count >= 1,
        "followers must replicate global state entries, found none"
    );
    net.assert_safety();
}

#[test]
fn followers_learn_global_commit_via_global_state() {
    let mut net = deployment(2, 3, 1);
    elect_heads(&mut net, 2, 3);
    elect_global(&mut net, NodeId(0));
    net.propose(NodeId(1), b"x");
    net.deliver_all();
    for _ in 0..8 {
        pump(&mut net, 2, 3);
    }
    assert!(net.node(NodeId(0)).global_commit_seen() >= LogIndex(1));
    // A non-leader member's view advances through global-state entries.
    assert!(
        net.node(NodeId(1)).global_commit_seen() >= LogIndex(1),
        "cluster follower never learned the global commit index"
    );
    net.assert_safety();
}

#[test]
fn batches_from_multiple_clusters_interleave_safely() {
    let mut net = deployment(3, 3, 1);
    elect_heads(&mut net, 3, 3);
    elect_global(&mut net, NodeId(0));
    net.propose(NodeId(1), b"c0");
    net.propose(NodeId(4), b"c1");
    net.propose(NodeId(7), b"c2");
    net.deliver_all();
    for _ in 0..10 {
        pump(&mut net, 3, 3);
    }
    // All three batches committed globally, each exactly once.
    let mut seen = std::collections::BTreeMap::new();
    for c in net.commits(NodeId(0)) {
        if c.scope == LogScope::Global {
            if let Payload::Batch(b) = &c.entry.payload {
                *seen.entry(b.cluster).or_insert(0) += 1;
            }
        }
    }
    assert_eq!(seen.len(), 3, "one batch per cluster: {seen:?}");
    assert!(seen.values().all(|&v| v == 1));
    net.assert_safety();
}

#[test]
fn partial_batch_flushes_on_timer() {
    let mut net = deployment(2, 3, 10);
    elect_heads(&mut net, 2, 3);
    elect_global(&mut net, NodeId(0));
    // One entry only — far below the batch size of 10.
    net.propose(NodeId(1), b"lonely");
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();
    assert_eq!(net.node(NodeId(0)).batch_backlog(), 1);
    // The flush timer forces the partial batch out.
    net.fire(NodeId(0), TimerKind::BatchFlush);
    net.deliver_all();
    assert_eq!(net.node(NodeId(0)).batch_backlog(), 0);
    for _ in 0..6 {
        pump(&mut net, 2, 3);
    }
    assert!(
        net.commits(NodeId(0))
            .iter()
            .any(|c| c.scope == LogScope::Global
                && matches!(&c.entry.payload, Payload::Batch(b) if b.len() == 1)),
        "flushed partial batch must commit globally"
    );
    net.assert_safety();
}

#[test]
fn local_leader_failover_preserves_global_state() {
    let mut net = deployment(2, 3, 1);
    elect_heads(&mut net, 2, 3);
    elect_global(&mut net, NodeId(0));
    // Commit one batch from cluster 1 through the global log.
    net.propose(NodeId(4), b"pre-failover");
    net.deliver_all();
    for _ in 0..8 {
        pump(&mut net, 2, 3);
    }
    let committed_global = net
        .commits(NodeId(3))
        .iter()
        .filter(|c| c.scope == LogScope::Global)
        .count();
    assert!(committed_global >= 1, "setup: global commit missing");

    // Cluster 1's leader (node 3) dies; node 4 takes over locally.
    net.crash(NodeId(3));
    net.fire(NodeId(4), TimerKind::Election);
    net.deliver_all();
    assert!(net.node(NodeId(4)).is_local_leader());
    // The successor reconstructed the global log from global-state entries.
    let view = net.node(NodeId(4)).global_log_view();
    assert!(
        view.iter().any(
            |(_, e)| matches!(&e.payload, Payload::Batch(b) if b.cluster == wire::ClusterId(1))
        ),
        "successor lost the cluster's global log view"
    );
    assert!(
        net.node(NodeId(4)).global_engine().is_some(),
        "successor must activate its global side"
    );
    net.assert_safety();
}

#[test]
fn new_local_leader_joins_global_configuration() {
    let mut net = deployment(2, 3, 1);
    elect_heads(&mut net, 2, 3);
    elect_global(&mut net, NodeId(0));
    // Heartbeat the global level so membership stabilizes.
    pump(&mut net, 2, 3);
    net.crash(NodeId(3));
    net.fire(NodeId(4), TimerKind::Election);
    net.deliver_all();
    // Node 4's global side is in joining mode (not in the bootstrap global
    // config {0, 3}).
    let joining = net
        .node(NodeId(4))
        .global_engine()
        .expect("global side active")
        .is_joining();
    assert!(joining, "successor should request a global join");
    // Join retry reaches the global leader; catch-up and reconfiguration
    // follow over global heartbeats. The dead node 3 is evicted by the
    // member timeout after 5 missed global beats. Local ticks must run too:
    // node 4's gated global inserts complete through cluster-1 consensus.
    for _ in 0..10 {
        net.fire(NodeId(4), TimerKind::GlobalJoinRetry);
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::GlobalHeartbeat);
        net.deliver_all();
        for local_leader in [NodeId(0), NodeId(4)] {
            net.fire(local_leader, TimerKind::LeaderTick);
            net.deliver_all();
            net.fire(local_leader, TimerKind::Heartbeat);
            net.deliver_all();
        }
        net.fire(NodeId(0), TimerKind::GlobalLeaderTick);
        net.deliver_all();
    }
    let cfg = net
        .node(NodeId(0))
        .global_engine()
        .unwrap()
        .config()
        .clone();
    assert!(
        cfg.contains(NodeId(4)),
        "node 4 must join the global config: {cfg:?}"
    );
    assert!(
        !cfg.contains(NodeId(3)),
        "dead node 3 must be evicted from the global config: {cfg:?}"
    );
    net.assert_safety();
}

#[test]
fn proposer_is_notified_on_local_commit() {
    let mut net = deployment(1, 3, 5);
    elect_heads(&mut net, 1, 3);
    let pid = net.propose(NodeId(1), b"notify-me");
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();
    let notified = net
        .responses_for(NodeId(1), pid.0, pid.1)
        .iter()
        .any(|o| matches!(o, wire::ClientOutcome::Committed { .. }));
    assert!(notified, "C-Raft clients are acknowledged at local commit");
}

#[test]
fn crash_recovery_restores_local_log() {
    let mut net = deployment(1, 3, 5);
    elect_heads(&mut net, 1, 3);
    net.propose(NodeId(1), b"durable");
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::LeaderTick);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    net.crash(NodeId(2));
    let stable = net.disk().read(NodeId(2)).unwrap().clone();
    let members: wire::Configuration = (0..3).map(NodeId).collect();
    let global: wire::Configuration = [NodeId(0)].into_iter().collect();
    let recovered = CRaftNode::recover(
        NodeId(2),
        &stable,
        members,
        global,
        CRaftConfig::paper(wire::ClusterId(0)),
        des::SimRng::seed_from_u64(7),
    );
    assert!(recovered
        .local_log()
        .iter()
        .any(|(_, e)| matches!(e.payload, Payload::Write { .. })));
    net.restart(recovered);
    // Round 1: the recovered follower acks its true (zero) verified point
    // and the leader rewinds nextIndex; round 2 resends the range; round 3
    // carries the commit index.
    for _ in 0..3 {
        net.fire(NodeId(0), TimerKind::Heartbeat);
        net.deliver_all();
    }
    assert!(net.node(NodeId(2)).local_commit_index() >= LogIndex(1));
    net.assert_safety();
}
