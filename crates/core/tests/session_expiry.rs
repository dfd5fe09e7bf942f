//! Session expiry/GC (ROADMAP client-API item b): idle sessions are evicted
//! from the applied `SessionTable` after `Timing::session_ttl` committed
//! indices, deterministically on every replica, with the eviction folded
//! into the commit digest; stale retries from an evicted session answer
//! `Retry` instead of `Duplicate` (and are never re-applied).

use consensus_core::FastRaftNode;
use des::SimRng;
use raft::testkit::Lockstep;
use raft::{Role, Timing};
use wire::{
    ClientOutcome, ClientRequest, Configuration, NodeId, Observation, SessionId, TimerKind,
};

const TTL: u64 = 8;

fn cluster(ttl: u64) -> Lockstep<FastRaftNode> {
    let cfg: Configuration = (0..3).map(NodeId).collect();
    let mut timing = Timing::lan();
    timing.session_ttl = ttl;
    Lockstep::new((0..3).map(|i| {
        FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            timing,
            SimRng::seed_from_u64(9100 + i),
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
    // One more round so followers learn the advanced commit floor (and run
    // their own deterministic eviction sweep at the same indices).
    net.fire(leader, TimerKind::Heartbeat);
    net.deliver_all();
}

fn evictions(net: &Lockstep<FastRaftNode>, session: SessionId) -> Vec<NodeId> {
    net.observations()
        .iter()
        .filter_map(|(n, o)| match o {
            Observation::SessionEvicted { session: s, .. } if *s == session => Some(*n),
            _ => None,
        })
        .collect()
}

/// Drives session 1 idle while session 2 keeps writing past the TTL.
fn run_idle_past_ttl(net: &mut Lockstep<FastRaftNode>, leader: NodeId) -> SessionId {
    let idle = SessionId::client(1);
    commit_write(net, leader, NodeId(1), b"idle-1");
    commit_write(net, leader, NodeId(1), b"idle-2");
    for i in 0..(TTL + 4) {
        commit_write(net, leader, NodeId(2), format!("busy-{i}").as_bytes());
    }
    idle
}

#[test]
fn idle_session_is_evicted_on_every_replica_with_converging_digest() {
    let mut net = cluster(TTL);
    let leader = elect(&mut net, NodeId(0));
    let idle = run_idle_past_ttl(&mut net, leader);

    for id in net.ids() {
        let node = net.node(id);
        assert!(
            node.sessions().get(idle).is_none(),
            "{id}: idle session survived past the TTL"
        );
        assert!(
            node.sessions().get(SessionId::client(2)).is_some(),
            "{id}: active session must never be evicted"
        );
    }
    // Every replica evicted (deterministically, at the same commit index).
    let who = evictions(&net, idle);
    assert_eq!(who.len(), 3, "expected one eviction per replica: {who:?}");
    // The digest folds the eviction identically everywhere.
    let d0 = net.node(NodeId(0)).state_digest();
    for id in net.ids() {
        assert_eq!(
            net.node(id).state_digest(),
            d0,
            "{id}: digest diverged after eviction"
        );
    }
    net.assert_safety();
    net.assert_exactly_once();
}

#[test]
fn stale_retry_of_evicted_session_answers_session_expired() {
    let mut net = cluster(TTL);
    let leader = elect(&mut net, NodeId(0));
    let idle = run_idle_past_ttl(&mut net, leader);
    assert!(net.node(leader).sessions().get(idle).is_none());

    // The client retries its last write (seq 2) at the leader gateway: the
    // dedup history is gone, so the only safe answer is the *terminal*
    // SessionExpired — never Duplicate, never a fresh application, and not
    // the non-terminal Retry (re-sending the same seq would loop forever).
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
        "stale retry must be answered SessionExpired, got {outcomes:?}"
    );
    assert!(
        !outcomes
            .iter()
            .any(|o| matches!(o, ClientOutcome::Duplicate { .. })),
        "evicted session must not be remembered as a duplicate: {outcomes:?}"
    );
    assert!(ClientOutcome::SessionExpired.is_terminal());
    // Exactly-once still holds: (idle, 2) was applied once, pre-eviction.
    net.assert_exactly_once();
    net.assert_safety();
}

#[test]
fn late_committed_duplicate_does_not_reapply_after_eviction() {
    // The eviction/late-commit race the apply-time check closes: a
    // duplicate placement of an already-applied seq can still be sitting
    // uncommitted in the log when the session is evicted; when it finally
    // commits, the dedup slot is gone — the apply-time expiry check (the
    // table at commit k is authoritative) must skip it instead of treating
    // it as a first application.
    let mut net = cluster(TTL);
    let leader = elect(&mut net, NodeId(0));
    let idle = SessionId::client(1);
    commit_write(&mut net, leader, NodeId(1), b"idle-1");
    commit_write(&mut net, leader, NodeId(1), b"idle-2");
    // Re-place (idle, 2) via a broadcast retry while the session is still
    // live — the lagging-replica-safe path does not veto it, so it claims
    // a fresh slot.
    net.client_request(
        NodeId(1),
        ClientRequest::write(idle, 2, bytes::Bytes::from_static(b"idle-2")),
    );
    net.deliver_all();
    // Now drive the session idle past the TTL and let everything commit.
    for i in 0..(TTL + 4) {
        commit_write(&mut net, leader, NodeId(2), format!("busy-{i}").as_bytes());
    }
    // Exactly-once must hold even though the second placement of seq 2 may
    // have committed after the eviction: every SessionApplied for
    // (idle, 2) across all replicas names one index.
    net.assert_exactly_once();
    net.assert_safety();
    // And the digests still agree (no replica folded a re-application).
    let d0 = net.node(NodeId(0)).state_digest();
    for id in net.ids() {
        assert_eq!(net.node(id).state_digest(), d0, "{id}: digest diverged");
    }
}

#[test]
fn fresh_leader_lagging_table_never_terminally_refuses_live_session() {
    // The false-positive race the currency gate closes: a fresh leader's
    // applied table lags until an entry of its own term commits, so a live
    // session whose writes are committed-but-not-applied-here reads as
    // "expired" (`seq > 1`, session untracked). The old door refused such
    // a retry terminally ("placed nowhere") while the broadcast fast path
    // had already placed the same (session, seq) on every replica — the
    // client would reopen a session and resubmit, and the surviving
    // placement would apply the op a second time.
    let mut net = cluster(TTL);
    let leader = elect(&mut net, NodeId(0));
    let live = SessionId::client(1);
    // (live, 1) commits and is acked at the old leader; followers hold the
    // entry but their commit floor — and therefore their tables — lag.
    net.client_request(
        leader,
        ClientRequest::write(live, 1, bytes::Bytes::from_static(b"w1")),
    );
    net.deliver_all();
    net.fire(leader, TimerKind::LeaderTick);
    net.deliver_all();
    assert!(net
        .responses_for(leader, live, 1)
        .iter()
        .any(|o| matches!(o, ClientOutcome::Committed { .. })));
    // (live, 2) goes out on the broadcast fast path: placed on every
    // replica's log, verified, but not yet decided — in flight, unacked.
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
    // turns Leader, before settling its backlog catches its table up.
    net.fire(NodeId(1), TimerKind::Election);
    while net.node(NodeId(1)).role() != Role::Leader {
        assert!(net.deliver_one(), "election wedged");
    }
    assert!(net.node(NodeId(1)).sessions().get(live).is_none());
    // The client times out on (live, 2) and retries it at the new leader,
    // whose lagging table reads the live session as "expired". The door
    // must not answer the terminal SessionExpired: the op is re-placed (or
    // Retry-refused) and apply-time dedup keeps it exactly-once.
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
    // Let the new leader settle, commit its backlog, and catch up; drive
    // enough rounds that the retry (and any proposal retries) resolve.
    net.deliver_all();
    for _ in 0..4 {
        net.fire(NodeId(1), TimerKind::LeaderTick);
        net.deliver_all();
        net.fire(NodeId(1), TimerKind::Heartbeat);
        net.deliver_all();
    }
    net.client_request(
        NodeId(1),
        ClientRequest::write(live, 2, bytes::Bytes::from_static(b"w2")),
    );
    net.deliver_all();
    for _ in 0..2 {
        net.fire(NodeId(1), TimerKind::LeaderTick);
        net.deliver_all();
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
    // The core guarantee: (live, 2) applied at exactly one index anywhere,
    // despite the duplicate placement surviving the leader change.
    net.assert_exactly_once();
    net.assert_safety();
}

#[test]
fn retries_within_ttl_still_answer_duplicate() {
    let mut net = cluster(TTL);
    let leader = elect(&mut net, NodeId(0));
    let session = SessionId::client(1);
    commit_write(&mut net, leader, NodeId(1), b"w1");
    // An immediate retry (session still live) keeps exactly-once semantics.
    net.client_request(
        leader,
        ClientRequest::write(session, 1, bytes::Bytes::from_static(b"w1")),
    );
    net.deliver_all();
    let outcomes = net.responses_for(leader, session, 1);
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, ClientOutcome::Duplicate { .. })),
        "live-session retry must dedup, got {outcomes:?}"
    );
    net.assert_exactly_once();
}

#[test]
fn ttl_zero_never_evicts() {
    let mut net = cluster(0);
    let leader = elect(&mut net, NodeId(0));
    commit_write(&mut net, leader, NodeId(1), b"idle");
    for i in 0..30 {
        commit_write(&mut net, leader, NodeId(2), format!("busy-{i}").as_bytes());
    }
    for id in net.ids() {
        assert!(
            net.node(id).sessions().get(SessionId::client(1)).is_some(),
            "{id}: session evicted with expiry disabled"
        );
    }
    assert!(evictions(&net, SessionId::client(1)).is_empty());
}

#[test]
fn snapshot_carries_post_eviction_table() {
    // Eviction must survive compaction: a snapshot cut after the eviction
    // carries the table *without* the evicted session, so a recovering or
    // catching-up replica converges on the same applied state and digest.
    // Tight snapshot threshold so compaction happens during the run.
    let cfg: Configuration = (0..3).map(NodeId).collect();
    let mut timing = Timing::lan();
    timing.session_ttl = TTL;
    timing.snapshot_threshold = 6;
    let mut net = Lockstep::new((0..3).map(|i| {
        FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            timing,
            SimRng::seed_from_u64(9200 + i),
        )
    }));
    let leader = elect(&mut net, NodeId(0));
    let idle = run_idle_past_ttl(&mut net, leader);
    let snap = net
        .node(leader)
        .snapshot()
        .expect("threshold 6 must have compacted")
        .clone();
    assert!(
        snap.sessions.get(idle).is_none(),
        "snapshot must carry the post-eviction table"
    );
    // A replica recovering from the persisted snapshot + suffix resumes
    // with the evicted session still gone and the digest the snapshot
    // proved — eviction is part of applied state, not volatile bookkeeping.
    let stable = net.disk().read(leader).expect("persisted state").clone();
    let recovered = FastRaftNode::recover(leader, &stable, cfg, timing, SimRng::seed_from_u64(777));
    assert!(recovered.sessions().get(idle).is_none());
    assert_eq!(
        recovered.state_digest(),
        snap.state_digest().expect("digest image"),
        "recovery must resume from the snapshot's post-eviction digest"
    );
    net.assert_safety();
}
