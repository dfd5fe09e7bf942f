//! Adversarial clock-skew coverage for leader leases, over the time-driven
//! runner with the online linearizability checker active.
//!
//! The runner spreads node clocks evenly over `[0, RunnerConfig::clock_skew]`
//! by rank (see `RunnerConfig::clock_skew`), so the sweep controls the
//! *actual* worst-case clock disagreement independently of the
//! `Timing::max_clock_skew` the protocol was told to tolerate:
//!
//! - up to the modeled bound, leases serve linearizable reads locally and
//!   the checker stays green;
//! - beyond it, the grant-admission guard rejects provably-ahead grants —
//!   reads degrade to the ReadIndex round rather than going unsafe.

use consensus_core::FastRaftNode;
use des::{SimDuration, SimRng, SimTime};
use harness::{
    run_classic_raft, run_craft, run_fast_raft, CRaftScenario, FaultAction, NetworkKind, ReadMix,
    Runner, RunnerConfig, SafetyChecker, Scenario, Workload,
};
use raft::{RaftNode, Timing};
use simnet::Network;
use wire::{Configuration, Consistency, LogScope, NodeId};

/// Builds a 3-site fast-raft runner with node 0 biased to lead (short
/// election window, lease scaled into it per `Timing::validate`) and a
/// read-heavy closed-loop client at node 1, injecting `skew` of actual
/// clock disagreement.
fn fast_runner(skew: SimDuration, seed: u64) -> Runner<FastRaftNode> {
    let cfg: Configuration = (0..3).map(NodeId).collect();
    let root = SimRng::seed_from_u64(seed);
    let nodes = (0..3).map(|i| {
        let mut t = Timing::lan();
        scale_lease(&mut t);
        if i == 0 {
            t.election_min = SimDuration::from_millis(250);
            t.election_max = SimDuration::from_millis(300);
        }
        FastRaftNode::new(NodeId(i), cfg.clone(), t, root.split_indexed("n", i))
    });
    let workload = Workload {
        proposers: vec![NodeId(1)],
        payload_bytes: 64,
        target_commits: Some(60),
        start_at: SimTime::from_secs(3),
        read_ratio: 0.7,
        read_consistency: Consistency::Linearizable,
        final_read: true,
        client_timeout: SimDuration::from_secs(2),
        register_sessions: false,
    };
    Runner::new(
        nodes,
        Network::reliable_lan((0..3).map(NodeId)),
        workload,
        Vec::new(),
        RunnerConfig {
            seed,
            ack_scope: LogScope::Global,
            measure_from: SimTime::from_secs(3),
            clock_skew: skew,
            disk_fsync_latency: SimDuration::ZERO,
            unbatched_persists: false,
            persist_stalls: None,
        },
        SafetyChecker::new(),
    )
}

/// Node 0's shortened election window must keep the lease invariant
/// (`Timing::validate` rejects lan()'s 300+50 against a 250 ms
/// election_min), and the lease must stay **uniform** across the cluster:
/// grant admission reconstructs a grant's stamp as `until -
/// lease_duration`, so every node runs the scaled-down lease.
fn scale_lease(t: &mut Timing) {
    t.lease_duration = SimDuration::from_millis(150);
    t.max_clock_skew = SimDuration::from_millis(25);
}

#[test]
fn skew_at_or_below_bound_serves_lease_reads_safely() {
    // Injected disagreement up to the modeled 25 ms bound: the checker
    // stays green and a majority of lin reads are served from the lease.
    for skew_ms in [0u64, 12, 25] {
        let mut runner = fast_runner(SimDuration::from_millis(skew_ms), 1700 + skew_ms);
        runner.run_until(SimTime::from_secs(120));
        assert!(
            runner.safety().is_ok(),
            "lin checker violated at {skew_ms}ms skew"
        );
        let m = runner.metrics();
        assert!(
            m.lease_reads > m.readindex_reads,
            "at {skew_ms}ms skew leases should dominate: lease={} readindex={}",
            m.lease_reads,
            m.readindex_reads
        );
        assert!(runner.completed() >= 60, "workload starved at {skew_ms}ms");
    }
}

#[test]
fn skew_beyond_bound_degrades_to_readindex_not_unsafety() {
    // 400 ms of actual disagreement across 3 nodes puts both followers
    // 200/400 ms ahead of the biased rank-0 leader — beyond the 25 ms
    // bound, so every grant is rejected at admission: zero lease reads,
    // everything falls back to the quorum round, and the checker stays
    // green throughout.
    let mut runner = fast_runner(SimDuration::from_millis(400), 1800);
    runner.run_until(SimTime::from_secs(120));
    assert!(runner.safety().is_ok(), "beyond-bound skew went unsafe");
    let m = runner.metrics();
    assert_eq!(
        m.lease_reads, 0,
        "a lease validated from clocks beyond the modeled bound"
    );
    assert!(m.readindex_reads > 0, "no read ever completed");
    assert!(runner.completed() >= 60);
}

#[test]
fn classic_raft_sweep_stays_green() {
    for skew_ms in [0u64, 12, 25] {
        let cfg: Configuration = (0..3).map(NodeId).collect();
        let root = SimRng::seed_from_u64(2000 + skew_ms);
        let nodes = (0..3).map(|i| {
            let mut t = Timing::lan();
            scale_lease(&mut t);
            if i == 0 {
                t.election_min = SimDuration::from_millis(250);
                t.election_max = SimDuration::from_millis(300);
            }
            RaftNode::new(NodeId(i), cfg.clone(), t, root.split_indexed("n", i))
        });
        let workload = Workload {
            proposers: vec![NodeId(1)],
            payload_bytes: 64,
            target_commits: Some(40),
            start_at: SimTime::from_secs(3),
            read_ratio: 0.7,
            read_consistency: Consistency::Linearizable,
            final_read: true,
            client_timeout: SimDuration::from_secs(2),
            register_sessions: false,
        };
        let mut runner = Runner::new(
            nodes,
            Network::reliable_lan((0..3).map(NodeId)),
            workload,
            Vec::new(),
            RunnerConfig {
                seed: 2000 + skew_ms,
                ack_scope: LogScope::Global,
                measure_from: SimTime::from_secs(3),
                clock_skew: SimDuration::from_millis(skew_ms),
                disk_fsync_latency: SimDuration::ZERO,
                unbatched_persists: false,
                persist_stalls: None,
            },
            SafetyChecker::new(),
        );
        runner.run_until(SimTime::from_secs(120));
        assert!(
            runner.safety().is_ok(),
            "classic raft lin checker violated at {skew_ms}ms skew"
        );
        assert!(
            runner.metrics().lease_reads + runner.metrics().readindex_reads > 0,
            "no linearizable read completed at {skew_ms}ms"
        );
        assert!(runner.completed() >= 40);
    }
}

#[test]
fn craft_sweep_stays_green() {
    // C-Raft through the scenario path: the runner injects the modeled
    // bound itself, and the sweep varies that bound (leases at both the
    // local level and the recursive global level).
    for (skew_ms, seed) in [(0u64, 31u64), (25, 32), (50, 33)] {
        let mut timing = Timing::lan();
        timing.max_clock_skew = SimDuration::from_millis(skew_ms);
        let s = Scenario {
            seed,
            sites: 6,
            network: NetworkKind::Regions { regions: 2 },
            loss: 0.0,
            timing,
            proposers: vec![NodeId(1), NodeId(4)],
            payload_bytes: 64,
            target_commits: Some(30),
            duration: SimDuration::from_secs(120),
            warmup: SimDuration::from_secs(5),
            faults: Vec::new(),
            leader_bias: None,
            reads: Some(ReadMix::half_linearizable()),
            unbatched_persists: false,
        };
        let (report, _) = run_craft(&s, &CRaftScenario::paper(2));
        assert!(report.safety_ok, "c-raft checker violated at {skew_ms}ms");
        assert!(report.lin_reads_checked > 0);
    }
}

#[test]
fn leader_crash_interleaves_lease_and_readindex_reads() {
    // A read-heavy mix with the biased leader crashing mid-run: reads are
    // lease-served before the crash, fall back to ReadIndex inside the new
    // leader's enable barrier, then go local again — all linearizable.
    let mut s = Scenario::fig3_base(91, 0.0);
    s.target_commits = Some(2000);
    s.duration = SimDuration::from_secs(120);
    s.leader_bias = Some(NodeId(0));
    s.proposers = vec![NodeId(4)];
    s.reads = Some(ReadMix {
        ratio: 0.8,
        consistency: Consistency::Linearizable,
        final_read: true,
    });
    // Crash shortly after clients start (warmup is 3 s) so the leadership
    // change lands mid-workload, not after it drained.
    s.faults = vec![
        (SimTime::from_millis(3400), FaultAction::Crash(NodeId(0))),
        (SimTime::from_secs(10), FaultAction::Recover(NodeId(0))),
    ];
    let (report, metrics) = run_fast_raft(&s);
    assert!(
        report.safety_ok,
        "lin violated across the leadership change"
    );
    assert!(
        report.leaderships >= 2,
        "the crash never forced a new leader"
    );
    assert!(
        metrics.lease_reads > 0,
        "no lease read before/after the crash"
    );
    assert!(
        metrics.readindex_reads > 0,
        "no ReadIndex fallback around the leadership change"
    );
    assert_eq!(report.completed, 2001);

    // Classic raft, same shape.
    let mut s2 = s.clone();
    s2.seed = 92;
    let (report2, metrics2) = run_classic_raft(&s2);
    assert!(report2.safety_ok);
    assert!(report2.leaderships >= 2);
    assert!(metrics2.lease_reads > 0);
    assert!(metrics2.readindex_reads > 0);
}
