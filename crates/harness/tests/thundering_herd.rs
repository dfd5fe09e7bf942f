//! Thundering-herd session reconnect at full simulation fidelity.
//!
//! The explorer drives the same shape through adversarial schedules
//! (`crates/explorer/tests/thundering_herd.rs`); this test runs it over
//! the simulated network with real latencies and client timers. Four
//! sites host session-first clients, and a three-way split lands before
//! the workload starts — no fragment holds a quorum, so every
//! registration stalls and retries on the 2 s client timeout. When the
//! split heals, every stalled `Register` and first op re-fires in the
//! same instant. The run must absorb the storm: every session opens
//! exactly once, every client makes data progress, and the
//! Definition-2.1 checker holds throughout.

use consensus_core::FastRaftNode;
use des::{SimDuration, SimRng, SimTime};
use harness::{FaultAction, Runner, RunnerConfig, SafetyChecker, Workload};
use raft::Timing;
use simnet::{BernoulliLoss, Network, Topology, UniformLatency};
use wire::{Configuration, LogScope, NodeId, SessionId};

#[test]
fn mass_reconnect_after_partition_heals_drains_completely() {
    let sites = 5u64;
    let seed = 7u64;
    let timing = Timing::lan();
    let cfg: Configuration = (0..sites).map(NodeId).collect();

    // Session-first clients at every site but n0: the workload keys each
    // client's session by its gateway's node id, and `SessionId(0)` is the
    // reserved server-assign sentinel — a client there would mint a fresh
    // server-assigned session on every retry instead of deduplicating.
    // The registrations are what herd at heal time.
    let mut workload = Workload::writes_only(
        (1..sites).map(NodeId).collect(),
        64,
        None,
        SimTime::from_secs(3),
    );
    workload.register_sessions = true;

    // Two stacked partitions make a three-way split — {0,1} | {2} | {3,4} —
    // before the workload starts: no fragment has a quorum of 3, so every
    // client parks its `Register` and retries into the void until the
    // heal at t = 12 s. (Stacked `Partition` faults are additive cuts;
    // `Heal` clears them all.)
    let faults = vec![
        (
            SimTime::from_secs(1),
            FaultAction::Partition {
                side_a: vec![NodeId(0), NodeId(1)],
                side_b: vec![NodeId(2), NodeId(3), NodeId(4)],
            },
        ),
        (
            SimTime::from_secs(1),
            FaultAction::Partition {
                side_a: vec![NodeId(2)],
                side_b: vec![NodeId(3), NodeId(4)],
            },
        ),
        (SimTime::from_secs(12), FaultAction::Heal),
    ];

    let root = SimRng::seed_from_u64(seed);
    let nodes = (0..sites).map(|i| {
        FastRaftNode::new(
            NodeId(i),
            cfg.clone(),
            timing,
            root.split_indexed("fast-node", i),
        )
    });
    let net = Network::new(
        Topology::single_region("local", (0..sites).map(NodeId)),
        Box::new(UniformLatency::new(
            SimDuration::from_micros(100),
            SimDuration::from_micros(500),
        )),
        Box::new(BernoulliLoss::new(0.0)),
    );
    let runner_cfg = RunnerConfig {
        seed,
        ack_scope: LogScope::Global,
        measure_from: SimTime::from_secs(3),
        clock_skew: timing.max_clock_skew,
        disk_fsync_latency: timing.disk_fsync_latency,
        unbatched_persists: false,
        persist_stalls: None,
    };
    let mut runner = Runner::new(
        nodes,
        net,
        workload,
        faults,
        runner_cfg,
        SafetyChecker::new(),
    );
    let cfg2 = cfg.clone();
    let recover_rng = root.split("recover");
    runner.set_recovery(move |id, stable| {
        FastRaftNode::recover(
            id,
            stable,
            cfg2.clone(),
            timing,
            recover_rng.split_indexed("r", id.as_u64()),
        )
    });

    runner.run_until(SimTime::from_secs(30));

    // The herd actually formed: four clients timed out repeatedly over the
    // nine seconds their registrations had no quorum to land on.
    assert!(
        runner.metrics().client_retries >= 10,
        "expected a retry storm from the partitioned clients, saw {}",
        runner.metrics().client_retries
    );
    // And it fully drained. The session table is applied state, identical
    // on every replica: each client's session must exist with its
    // registration (seq 1) and at least one data op (seq 2) applied —
    // a registration lost in the storm, or double-applied past dedup,
    // shows up here.
    for node in 0..sites {
        let table = runner.node(NodeId(node)).expect("node exists").sessions();
        for client in 1..sites {
            let slot = table
                .get(SessionId::client(client))
                .unwrap_or_else(|| panic!("n{node}: session of client {client} never opened"));
            assert!(
                slot.floor_seq >= 2,
                "n{node}: client {client} stalled at seq floor {} — \
                 reconnect never completed",
                slot.floor_seq
            );
        }
    }
    assert!(
        runner.completed() > 10,
        "only {} ops completed after the heal",
        runner.completed()
    );
    runner.safety().assert_ok();
}
