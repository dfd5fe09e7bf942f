//! The repro for the old ROADMAP double-commit hole, now passing: a client
//! retry racing a leader restart **across the compaction boundary** must
//! never be applied twice.
//!
//! Before the session table, proposal dedup lived only in the in-log
//! `id_index`; compaction discarded the committed prefix and a restarted
//! leader rebuilt the map from what remained — so a retried proposal whose
//! original slot was compacted away sailed past dedup and committed again
//! at a new index. The session table is part of applied state and rides
//! inside every snapshot, so the check survives by construction. These
//! tests drive the race deterministically and property-test it across
//! write counts and thresholds, for classic Raft, Fast Raft, and both
//! C-Raft scopes (local writes and global batch items).

use consensus_core::{build_deployment, CRaftConfig, CRaftNode, FastRaftNode};
use des::SimRng;
use proptest::prelude::*;
use raft::testkit::Lockstep;
use raft::{RaftNode, Timing};
use wire::{
    ClientOutcome, ClientRequest, Configuration, LogIndex, LogScope, NodeId, SessionId, TimerKind,
};

fn snappy(threshold: u64) -> Timing {
    Timing {
        snapshot_threshold: threshold,
        ..Timing::lan()
    }
}

/// Asserts the retried key was answered `Duplicate` (never re-`Committed`
/// at a second index) after the first `Committed` answer.
fn assert_retry_suppressed<P: wire::ConsensusProtocol>(
    net: &Lockstep<P>,
    gateway: NodeId,
    session: SessionId,
    seq: u64,
) {
    let outcomes = net.responses_for(gateway, session, seq);
    // A client may be answered `Committed` more than once (one per
    // submission of the same key); what must never happen is answers
    // naming *different* application indices.
    let committed_indices: std::collections::BTreeSet<LogIndex> = outcomes
        .iter()
        .filter_map(|o| match o {
            ClientOutcome::Committed { index } => Some(*index),
            _ => None,
        })
        .collect();
    assert!(
        committed_indices.len() <= 1,
        "{session}:{seq} answered Committed at distinct indices: {committed_indices:?}"
    );
    assert!(
        outcomes.iter().any(|o| matches!(
            o,
            ClientOutcome::Duplicate { .. } | ClientOutcome::Committed { .. }
        )),
        "retry of {session}:{seq} never answered: {outcomes:?}"
    );
}

// ---------------------------------------------------------------------
// Classic Raft
// ---------------------------------------------------------------------

fn classic_race(writes: u64, threshold: u64, retry_seqs: &[u64]) {
    let cfg: Configuration = (0..3).map(NodeId).collect();
    let mut net = Lockstep::new((0..3).map(|i| {
        RaftNode::new(
            NodeId(i),
            cfg.clone(),
            snappy(threshold),
            SimRng::seed_from_u64(300 + i),
        )
    }));
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    let gw = NodeId(1);
    for i in 0..writes {
        net.propose(gw, format!("w{i}").as_bytes());
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::Heartbeat);
        net.deliver_all();
    }
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    assert!(
        net.node(NodeId(0)).log().compacted_through() > LogIndex::ZERO,
        "race precondition: the leader must have compacted"
    );
    // Leader restart across the compaction boundary: its in-log dedup ids
    // for the compacted prefix are gone; only the snapshot's session table
    // still knows the applied seqs.
    net.crash(NodeId(0));
    let stable = net.disk().read(NodeId(0)).unwrap().clone();
    net.restart(RaftNode::recover(
        NodeId(0),
        &stable,
        cfg,
        snappy(threshold),
        SimRng::seed_from_u64(900),
    ));
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::Heartbeat);
    net.deliver_all();
    // The client retries seqs whose entries were compacted away.
    let session = SessionId::client(gw.as_u64());
    for &seq in retry_seqs {
        net.client_request(
            gw,
            ClientRequest::write(session, seq, format!("w{}", seq - 1).into_bytes().into()),
        );
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::Heartbeat);
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::Heartbeat);
        net.deliver_all();
    }
    for &seq in retry_seqs {
        assert_retry_suppressed(&net, gw, session, seq);
    }
    net.assert_exactly_once();
    net.assert_safety();
}

#[test]
fn classic_raft_retry_across_compaction_and_restart() {
    classic_race(12, 4, &[1, 6, 12]);
}

// ---------------------------------------------------------------------
// Fast Raft
// ---------------------------------------------------------------------

fn fast_race(writes: u64, threshold: u64, retry_seqs: &[u64]) {
    let cfg: Configuration = (0..3).map(NodeId).collect();
    let mut net = Lockstep::new((0..3).map(|i| {
        FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            snappy(threshold),
            SimRng::seed_from_u64(400 + i),
        )
    }));
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    let gw = NodeId(1);
    for i in 0..writes {
        net.propose(gw, format!("w{i}").as_bytes());
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::LeaderTick);
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::Heartbeat);
        net.deliver_all();
    }
    assert!(
        net.node(NodeId(0)).log().compacted_through() > LogIndex::ZERO,
        "race precondition: the leader must have compacted"
    );
    net.crash(NodeId(0));
    let stable = net.disk().read(NodeId(0)).unwrap().clone();
    net.restart(FastRaftNode::recover(
        NodeId(0),
        &stable,
        cfg,
        snappy(threshold),
        SimRng::seed_from_u64(901),
    ));
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    let session = SessionId::client(gw.as_u64());
    for &seq in retry_seqs {
        net.client_request(
            gw,
            ClientRequest::write(session, seq, format!("w{}", seq - 1).into_bytes().into()),
        );
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::LeaderTick);
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::Heartbeat);
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::LeaderTick);
        net.deliver_all();
        net.fire(NodeId(0), TimerKind::Heartbeat);
        net.deliver_all();
    }
    for &seq in retry_seqs {
        assert_retry_suppressed(&net, gw, session, seq);
    }
    net.assert_exactly_once();
    net.assert_safety();
}

#[test]
fn fast_raft_retry_across_compaction_and_restart() {
    fast_race(12, 4, &[1, 6, 12]);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        max_shrink_iters: 50,
        ..ProptestConfig::default()
    })]

    /// The property, across write counts and thresholds: no retried seq is
    /// ever applied twice, in either protocol.
    #[test]
    fn retries_never_double_apply(
        writes in 6u64..18,
        threshold in 2u64..6,
        pick in 0u64..100,
    ) {
        let retry = 1 + pick % writes;
        classic_race(writes, threshold, &[retry, writes]);
        fast_race(writes, threshold, &[retry, writes]);
    }
}

// ---------------------------------------------------------------------
// C-Raft: both scopes (local writes, global batch items)
// ---------------------------------------------------------------------

fn craft_race(writes: u64, threshold: u64, retry_seqs: &[u64]) {
    let per = 3u64;
    let make_cfg = move |c| {
        let mut cfg = CRaftConfig::paper(c);
        cfg.batch_size = 1;
        cfg.local_timing = snappy(threshold);
        cfg.global_snapshot_threshold = threshold;
        cfg
    };
    let (nodes, global_bootstrap) = build_deployment(2, per, make_cfg, 77);
    let mut net = Lockstep::new(nodes);
    net.set_safety_domains(move |n| n.as_u64() / per);
    for h in [NodeId(0), NodeId(3)] {
        net.fire(h, TimerKind::Election);
        net.deliver_all();
    }
    net.fire(NodeId(0), TimerKind::GlobalElection);
    net.deliver_all();

    let gw = NodeId(1);
    for i in 0..writes {
        net.propose(gw, format!("w{i}").as_bytes());
        net.deliver_all();
        for h in [NodeId(0), NodeId(3)] {
            net.fire(h, TimerKind::LeaderTick);
            net.deliver_all();
            net.fire(h, TimerKind::Heartbeat);
            net.deliver_all();
            net.fire(h, TimerKind::GlobalLeaderTick);
            net.deliver_all();
            net.fire(h, TimerKind::GlobalHeartbeat);
            net.deliver_all();
        }
    }
    assert!(
        net.node(NodeId(0)).local_log().compacted_through() > LogIndex::ZERO,
        "race precondition: the cluster leader must have compacted locally"
    );
    // Cluster leader restarts across the compaction boundary; its successor
    // view rebuilds from snapshot + surviving global-state entries.
    net.crash(NodeId(0));
    let stable = net.disk().read(NodeId(0)).unwrap().clone();
    let members: Configuration = (0..per).map(NodeId).collect();
    net.restart(CRaftNode::recover(
        NodeId(0),
        &stable,
        members,
        global_bootstrap,
        make_cfg(wire::ClusterId(0)),
        SimRng::seed_from_u64(902),
    ));
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::GlobalElection);
    net.deliver_all();

    // Client retries against the restarted cluster: the local session table
    // (from the local snapshot) suppresses the write; if anything does slip
    // into a batch again, the global item-wise table suppresses the item.
    let session = SessionId::client(gw.as_u64());
    for &seq in retry_seqs {
        net.client_request(
            gw,
            ClientRequest::write(session, seq, format!("w{}", seq - 1).into_bytes().into()),
        );
        net.deliver_all();
        for h in [NodeId(0), NodeId(3)] {
            net.fire(h, TimerKind::LeaderTick);
            net.deliver_all();
            net.fire(h, TimerKind::Heartbeat);
            net.deliver_all();
            net.fire(h, TimerKind::GlobalLeaderTick);
            net.deliver_all();
            net.fire(h, TimerKind::GlobalHeartbeat);
            net.deliver_all();
        }
    }
    for &seq in retry_seqs {
        assert_retry_suppressed(&net, gw, session, seq);
    }
    // Exactly-once at BOTH scopes: the write applied once in cluster 0's
    // local log, and its batch item applied once in the global log.
    net.assert_exactly_once();
    net.assert_safety();

    // Every retried seq that reached the global level did so at one index.
    let mut global_applies: std::collections::HashMap<u64, LogIndex> = Default::default();
    for (_, scope, s, seq, index) in net.session_applies() {
        if scope == LogScope::Global && s == session {
            if let Some(prev) = global_applies.insert(seq, index) {
                assert_eq!(prev, index, "global item {s}:{seq} applied twice");
            }
        }
    }
}

#[test]
fn craft_retry_across_compaction_and_restart_both_scopes() {
    craft_race(10, 3, &[1, 5, 10]);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 25,
        ..ProptestConfig::default()
    })]

    #[test]
    fn craft_retries_never_double_apply(
        writes in 6u64..12,
        threshold in 2u64..5,
        pick in 0u64..100,
    ) {
        let retry = 1 + pick % writes;
        craft_race(writes, threshold, &[retry, writes]);
    }
}
