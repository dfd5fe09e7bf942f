//! Integration tests for the sharded fabric: cross-group session
//! isolation, end-to-end rebalance through the owning group's log,
//! hibernation, and per-group commit-agreement checking.

use des::{SimDuration, SimRng, SimTime};
use raft::testkit::Lockstep;
use raft::{RaftNode, Role, Timing};
use shard::{raft_factory, ReconfigOp, ShardConfig, ShardNode, ShardRunner, WorkloadSpec};
use wire::{
    Actions, ClientOutcome, ClientRequest, Configuration, ConsensusProtocol, EntryId, GroupId,
    NodeId, SafetyViolation, SessionId, TimerKind,
};

fn small_cfg(groups: u32, clients: usize, idle_after: SimDuration) -> ShardConfig {
    ShardConfig {
        procs: 3,
        groups,
        seed: 42,
        idle_after,
        workload: WorkloadSpec {
            clients,
            keys: 64,
            zipf_theta: 0.0, // uniform: touch every group
            start_at: SimTime::from_secs(2),
            ..WorkloadSpec::default()
        },
    }
}

fn leader_of(runner: &ShardRunner<RaftNode>, group: GroupId) -> Option<&RaftNode> {
    (0..3)
        .filter_map(|p| runner.engine(group, NodeId(p)))
        .find(|e| e.role() == Role::Leader)
}

/// One client, several groups, one `SessionId`: the client's sequence
/// numbers are scoped **per group**, so every group that completed `n` of
/// its ops holds a dense `1..=n` run in its own session table. A client
/// keeping one global counter (or groups sharing a dedup window) would
/// leave gaps and stall the floor at 0.
#[test]
fn same_session_is_independent_per_group() {
    let cfg = small_cfg(4, 1, SimDuration::from_secs(30));
    let mut runner = ShardRunner::new(cfg, Vec::new(), raft_factory(Timing::lan()));
    runner.run_until(SimTime::from_secs(14));

    let m = runner.metrics().clone();
    assert!(runner.violations().is_empty(), "{:?}", runner.violations());
    assert_eq!(
        m.completed_total,
        m.per_group_completed.values().sum::<u64>(),
        "per-group counts must conserve the total"
    );
    let active: Vec<_> = m
        .per_group_completed
        .iter()
        .filter(|&(_, &n)| n > 0)
        .collect();
    assert!(
        active.len() >= 2,
        "uniform keys should reach several groups: {:?}",
        m.per_group_completed
    );

    let session = SessionId::client(1);
    for (&g, &n) in &active {
        let leader = leader_of(&runner, GroupId(g)).expect("settled group has a leader");
        let slot = leader
            .sessions()
            .get(session)
            .expect("completed ops leave a session slot");
        // Dense per-group numbering: all of 1..=n applied here. The op in
        // flight at the horizon may add one more.
        assert!(
            slot.floor_seq >= n,
            "group {g}: floor {} < completed {n} — sequence numbers leaked \
             across groups",
            slot.floor_seq
        );
        assert!(
            slot.last_seq() <= n + 1,
            "group {g}: applied seq {} beyond this group's {n} ops",
            slot.last_seq()
        );
    }
}

/// Session expiry is per group log: evicting an idle session from one
/// group's table (its log advanced past the TTL) must not disturb the
/// same session's dedup history in another group.
#[test]
fn eviction_in_one_group_leaves_others_untouched() {
    let ttl = 8;
    let cluster = |salt: u64| {
        let cfg: Configuration = (0..3).map(NodeId).collect();
        let mut timing = Timing::lan();
        timing.session_ttl = ttl;
        Lockstep::new((0..3).map(|i| {
            RaftNode::new(
                NodeId(i),
                cfg.clone(),
                timing,
                SimRng::seed_from_u64(salt + i),
            )
        }))
    };
    let commit = |net: &mut Lockstep<RaftNode>, session: SessionId, seq: u64, data: &[u8]| {
        net.client_request(
            NodeId(0),
            ClientRequest::write(session, seq, bytes::Bytes::copy_from_slice(data)),
        );
        net.deliver_all();
        for _ in 0..2 {
            net.fire(NodeId(0), TimerKind::Heartbeat);
            net.deliver_all();
        }
    };

    // Two groups = two independent consensus instances.
    let mut a = cluster(9_000);
    let mut b = cluster(9_100);
    for net in [&mut a, &mut b] {
        net.fire(NodeId(0), TimerKind::Election);
        net.deliver_all();
        assert_eq!(net.node(NodeId(0)).role(), Role::Leader);
    }

    let shared = SessionId::client(1);
    let busy = SessionId::client(2);
    for net in [&mut a, &mut b] {
        commit(net, shared, 1, b"first");
        commit(net, shared, 2, b"second");
    }

    // Group A's log races ahead; `shared` idles there past the TTL.
    for i in 0..ttl + 4 {
        commit(&mut a, busy, i + 1, format!("busy-{i}").as_bytes());
    }
    assert!(
        a.node(NodeId(0)).sessions().get(shared).is_none(),
        "A should have evicted the idle session"
    );
    // B's table is untouched: same session, dedup history intact.
    let slot = b.node(NodeId(0)).sessions().get(shared).expect("live on B");
    assert_eq!(slot.floor_seq, 2);

    // A stale retry on B still answers Duplicate; on A it is terminal.
    // (A retried *first* write would legitimately re-apply — only seqs
    // beyond 1 are refused — so the retry probes seq 2.)
    commit(&mut b, shared, 2, b"second");
    assert!(
        b.responses_for(NodeId(0), shared, 2)
            .iter()
            .any(|o| matches!(o, ClientOutcome::Duplicate { .. })),
        "B must still dedup the retry"
    );
    commit(&mut a, shared, 2, b"second");
    assert!(
        a.responses_for(NodeId(0), shared, 2)
            .iter()
            .any(|o| matches!(o, ClientOutcome::SessionExpired)),
        "A must refuse the evicted session's retry"
    );
}

/// A split committed through the owning group's log takes effect at the
/// commit point on every proc's router replica, and traffic to the moved
/// half lands on the new group from then on.
#[test]
fn split_reroutes_new_traffic_end_to_end() {
    let cfg = small_cfg(1, 8, SimDuration::from_secs(30));
    let mut runner = ShardRunner::new(cfg, Vec::new(), raft_factory(Timing::lan()));
    runner.schedule_reconfig(
        SimTime::from_secs(8),
        ReconfigOp::SplitGroup {
            group: GroupId(0),
            at: 1 << 63,
            new_group: GroupId(1),
        },
    );
    runner.run_until(SimTime::from_secs(20));

    let m = runner.metrics().clone();
    assert!(runner.violations().is_empty(), "{:?}", runner.violations());
    // Every proc applied the op at its own commit point.
    assert_eq!(m.reconfigs_applied, 3, "one apply per proc replica");
    for p in 0..3 {
        assert_eq!(runner.router(p).range_count(), 2, "proc {p} table");
        assert_eq!(runner.router(p).epoch(), 1, "proc {p} epoch");
    }
    assert_eq!(runner.group_count(), 2, "split created the new group");
    // The upper half of a uniform key mix flows to the new group.
    assert!(
        m.per_group_completed.get(&1).copied().unwrap_or(0) > 0,
        "no traffic reached the split-off group: {:?}",
        m.per_group_completed
    );
}

/// Idle groups park (zero timers in the wheel) and a rebalance that sends
/// traffic to a parked group wakes it.
#[test]
fn parked_group_wakes_on_rerouted_traffic() {
    let mut cfg = small_cfg(2, 8, SimDuration::from_millis(800));
    // All client keys route to group 0; group 1 idles and parks.
    cfg.workload.target_group = Some(GroupId(0));
    let mut runner = ShardRunner::new(cfg, Vec::new(), raft_factory(Timing::lan()));
    runner.run_until(SimTime::from_secs(8));
    assert!(
        runner.metrics().parks >= 1 && runner.parked_groups() >= 1,
        "group 1 should have parked: {} parks",
        runner.metrics().parks
    );

    // Move group 0's whole range to group 1: every subsequent op wakes it.
    runner.schedule_reconfig(
        SimTime::from_secs(9),
        ReconfigOp::MoveRange {
            start: 0,
            to: GroupId(1),
        },
    );
    runner.run_until(SimTime::from_secs(20));

    let m = runner.metrics().clone();
    assert!(runner.violations().is_empty(), "{:?}", runner.violations());
    assert!(m.unparks >= 1, "rerouted traffic never woke group 1");
    assert!(
        m.per_group_completed.get(&1).copied().unwrap_or(0) > 0,
        "woken group completed nothing: {:?}",
        m.per_group_completed
    );
    // Group 0, now traffic-less, eventually parks too.
    assert!(m.parks >= 2, "drained group 0 never parked: {} parks", m.parks);
}

/// The fabric is deterministic: the same seed replays the same run,
/// event for event — and a mostly-parked fleet keeps the wheel small.
#[test]
fn runs_are_deterministic_and_parked_fleet_is_cheap() {
    let run = || {
        let mut cfg = small_cfg(32, 4, SimDuration::from_millis(500));
        cfg.workload.target_group = Some(GroupId(0));
        let mut r = ShardRunner::new(cfg, Vec::new(), raft_factory(Timing::lan()));
        r.run_until(SimTime::from_secs(12));
        assert!(r.violations().is_empty(), "{:?}", r.violations());
        let m = r.metrics().clone();
        (
            m.events_total,
            m.completed_total,
            m.parks,
            r.parked_groups(),
            r.wheel_len(),
        )
    };
    let (events, completed, parks, parked, wheel_len) = run();
    assert!(completed > 0);
    assert!(parked >= 31, "only {parked}/31 idle groups parked");
    // Live wheel entries belong to the one active group (plus its idle
    // check): parked groups contribute nothing.
    assert!(
        wheel_len <= 16,
        "wheel holds {wheel_len} entries with 31 groups parked"
    );
    assert_eq!((events, completed, parks, parked, wheel_len), run());
}

/// The schedule is pinned: timer expiry order — `(deadline, schedule
/// seq)` out of `des::TimerWheel` — is the only thing that can move these
/// counters, so the exact tuple (captured before the wheel became a heap)
/// must survive any change to the timer structure.
#[test]
fn timer_structure_change_does_not_move_the_schedule() {
    let cfg = small_cfg(16, 8, SimDuration::from_millis(500));
    let mut r = ShardRunner::new(cfg, Vec::new(), raft_factory(Timing::lan()));
    r.run_until(SimTime::from_secs(12));
    assert!(r.violations().is_empty(), "{:?}", r.violations());
    let m = r.metrics();
    assert_eq!(
        (
            m.events_total,
            m.completed_total,
            m.frames_window,
            m.timers_set,
            m.timers_cancelled,
            m.wheel_events,
            m.parks,
            m.unparks,
            r.wheel_len(),
        ),
        (12004, 1450, 8209, 6446, 16, 2603, 29, 28, 81)
    );
}

/// A replica that, when `forge` is set, reports every commit with an entry
/// id of its own making (`EntryId(99, index)`) instead of the entry its log
/// holds — a replica lying about what it committed.
struct Forger {
    inner: RaftNode,
    forge: bool,
}

impl Forger {
    fn rewrite(&self, out: &mut Actions<raft::RaftMessage>) {
        if self.forge {
            for c in &mut out.commits {
                c.entry.id = EntryId::new(NodeId(99), c.index.as_u64());
            }
        }
    }
}

impl ConsensusProtocol for Forger {
    type Message = raft::RaftMessage;
    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn set_local_clock(&mut self, now: SimTime) {
        self.inner.set_local_clock(now);
    }
    fn on_message(&mut self, from: NodeId, msg: Self::Message, out: &mut Actions<Self::Message>) {
        self.inner.on_message(from, msg, out);
        self.rewrite(out);
    }
    fn on_timer(&mut self, kind: TimerKind, out: &mut Actions<Self::Message>) {
        self.inner.on_timer(kind, out);
        self.rewrite(out);
    }
    fn on_client_request(&mut self, req: ClientRequest, out: &mut Actions<Self::Message>) {
        self.inner.on_client_request(req, out);
        self.rewrite(out);
    }
    fn bootstrap(&mut self, out: &mut Actions<Self::Message>) {
        self.inner.bootstrap(out);
        self.rewrite(out);
    }
}

impl ShardNode for Forger {
    fn is_settled_leader(&self) -> bool {
        self.inner.is_settled_leader()
    }
    fn is_quiet_follower(&self) -> bool {
        self.inner.is_quiet_follower()
    }
}

/// Runs four groups with the replicas `forge` picks forging their commits;
/// returns the violations and the ops completed per group.
fn forged_run(forge: fn(GroupId, NodeId) -> bool) -> (Vec<SafetyViolation>, Vec<u64>) {
    let raft = raft_factory(Timing::lan());
    let mut r = ShardRunner::new(small_cfg(4, 8, SimDuration::from_secs(30)), Vec::new(), {
        move |g, id, c: &Configuration, rng| Forger {
            inner: raft(g, id, c, rng),
            forge: forge(g, id),
        }
    });
    r.run_until(SimTime::from_secs(8));
    let completed = r.metrics().per_group_completed.clone();
    let per_group = (0..4).map(|g| completed.get(&g).copied().unwrap_or(0));
    (r.violations().to_vec(), per_group.collect())
}

/// Commit agreement is checked per group. One proc of group 2 reporting
/// other entries than its peers is a violation of group 2, and of no
/// other; a whole group reporting entries no other group holds at the same
/// indices is no violation at all — each group is its own log.
#[test]
fn commit_disagreement_is_reported_under_its_group() {
    let (violations, completed) = forged_run(|g, id| g == GroupId(2) && id == NodeId(1));
    assert!(completed.iter().all(|&n| n > 0), "every group commits: {completed:?}");
    assert!(!violations.is_empty(), "a forged commit went unseen");
    for v in &violations {
        assert_eq!(v.group, GroupId(2), "{v}");
        assert!(v.first.0 == NodeId(1) || v.second.0 == NodeId(1), "{v}");
    }

    let (violations, completed) = forged_run(|g, _| g == GroupId(2));
    assert!(completed.iter().all(|&n| n > 0), "every group commits: {completed:?}");
    assert!(violations.is_empty(), "groups compared across: {violations:?}");
}
