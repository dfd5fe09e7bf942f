//! Dynamic membership under churn — the scenario that motivates Fast Raft
//! (§I: "membership changes may be sudden, and may occur silently").
//!
//! A five-site Fast Raft group runs a steady workload while:
//!   - at t = 8 s two sites leave **silently** (no leave request);
//!   - the leader detects them via the member timeout (five missed
//!     heartbeat responses) and reconfigures them out, one at a time;
//!   - a sixth site then joins through the self-announced join protocol and
//!     is caught up as a non-voting learner before entering the
//!     configuration.
//!
//! ```text
//! cargo run --example churn
//! ```

use hierarchical_consensus::bench::{FaultAction, Runner, RunnerConfig, SafetyChecker, Workload};
use hierarchical_consensus::protocols::{FastRaftNode, Timing};
use hierarchical_consensus::sim::{Network, SimDuration, SimRng, SimTime};
use hierarchical_consensus::types::{Configuration, LogScope, NodeId};

fn main() {
    let members: Configuration = (0..5).map(NodeId).collect();
    let root = SimRng::seed_from_u64(4242);

    // Five founding members plus one node that will join at runtime: it
    // starts in "joining" mode, knowing only its contact sites.
    let mut nodes: Vec<FastRaftNode> = (0..5)
        .map(|i| {
            FastRaftNode::new(
                NodeId(i),
                members.clone(),
                Timing::lan(),
                root.split_indexed("node", i),
            )
        })
        .collect();
    nodes.push(FastRaftNode::joining(
        NodeId(9),
        vec![NodeId(0), NodeId(1), NodeId(2)],
        Timing::lan(),
        root.split_indexed("node", 9),
    ));

    let workload = Workload::writes_only(vec![NodeId(1)], 64, None, SimTime::from_secs(3));
    let faults = vec![
        (SimTime::from_secs(8), FaultAction::SilentLeave(NodeId(3))),
        (SimTime::from_secs(8), FaultAction::SilentLeave(NodeId(4))),
    ];
    let mut runner = Runner::new(
        nodes,
        Network::reliable_lan((0..5).map(NodeId).chain([NodeId(9)])),
        workload,
        faults,
        RunnerConfig {
            seed: 4242,
            ack_scope: LogScope::Global,
            measure_from: SimTime::from_secs(3),
            clock_skew: Timing::lan().max_clock_skew,
            disk_fsync_latency: des::SimDuration::ZERO,
            unbatched_persists: false,
            persist_stalls: None,
        },
        SafetyChecker::new(),
    );

    runner.run_until(SimTime::ZERO + SimDuration::from_secs(25));

    let metrics = runner.metrics();
    println!("churn run: 5 sites; 2 leave silently at t=8s; node 9 joins");
    println!("-----------------------------------------------------------");
    println!("proposals committed : {}", metrics.samples.len());
    println!("members suspected   : {}", metrics.member_suspected);
    println!("config commits      : {}", metrics.config_commits);
    println!(
        "latency mean        : {:.1} ms",
        metrics.latency_stats().mean_ms
    );

    // The surviving configuration: 0, 1, 2 and the joiner 9.
    let survivor = runner.node(NodeId(0)).expect("node 0 alive");
    let cfg: Vec<String> = survivor.config().iter().map(|n| n.to_string()).collect();
    println!("final configuration : {{{}}}", cfg.join(", "));
    println!(
        "joiner state        : {}",
        if runner.node(NodeId(9)).is_some_and(|n| !n.is_joining()) {
            "full member"
        } else {
            "still joining"
        }
    );
    runner.safety().assert_ok();
    println!("safety              : OK");
}
