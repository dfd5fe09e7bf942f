//! Property-based adversarial schedules for C-Raft's two-level hierarchy.
//!
//! Smaller and slower than the Fast Raft schedules (each step may cascade
//! through gated inserts and both consensus levels), but they exercise the
//! full §V machinery: local consensus, global-state gating, batching, and
//! global replication — asserting hierarchical safety at every step.

use consensus_core::{build_deployment, CRaftConfig};
use proptest::prelude::*;
use raft::testkit::Lockstep;
use wire::{LogScope, NodeId, Payload, TimerKind};

#[derive(Clone, Debug)]
enum Step {
    /// Propose at node `n % 6`.
    Propose(u64),
    /// Deliver up to `k` messages.
    Deliver(u8),
    /// Fire a local timer on node `n % 6`.
    FireLocal(u64, u8),
    /// Fire a global timer on a cluster head (`h % 2`).
    FireGlobal(u64, u8),
    /// Flush a partial batch on a head.
    Flush(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..6).prop_map(Step::Propose),
        (1u8..48).prop_map(Step::Deliver),
        ((0u64..6), (0u8..3)).prop_map(|(n, t)| Step::FireLocal(n, t)),
        ((0u64..2), (0u8..3)).prop_map(|(h, t)| Step::FireGlobal(h, t)),
        (0u64..2).prop_map(Step::Flush),
    ]
}

fn local_timer(t: u8) -> TimerKind {
    match t {
        0 => TimerKind::Election,
        1 => TimerKind::Heartbeat,
        _ => TimerKind::LeaderTick,
    }
}

fn global_timer(t: u8) -> TimerKind {
    match t {
        0 => TimerKind::GlobalElection,
        1 => TimerKind::GlobalHeartbeat,
        _ => TimerKind::GlobalLeaderTick,
    }
}

fn run_schedule(seed: u64, steps: &[Step]) {
    let (nodes, _) = build_deployment(
        2,
        3,
        |c| {
            let mut cfg = CRaftConfig::paper(c);
            cfg.batch_size = 2;
            cfg
        },
        seed,
    );
    let mut net = Lockstep::new(nodes);
    net.set_safety_domains(|n| n.as_u64() / 3);
    // Elect cluster heads locally and a global leader.
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    net.fire(NodeId(3), TimerKind::Election);
    net.deliver_all();
    net.fire(NodeId(0), TimerKind::GlobalElection);
    net.deliver_all();

    for step in steps {
        match step {
            Step::Propose(n) => {
                net.propose(NodeId(n % 6), b"v");
            }
            Step::Deliver(k) => {
                for _ in 0..*k {
                    if !net.deliver_one() {
                        break;
                    }
                }
            }
            Step::FireLocal(n, t) => {
                net.fire(NodeId(n % 6), local_timer(*t));
            }
            Step::FireGlobal(h, t) => {
                net.fire(NodeId((h % 2) * 3), global_timer(*t));
            }
            Step::Flush(h) => {
                net.fire(NodeId((h % 2) * 3), TimerKind::BatchFlush);
            }
        }
        net.assert_safety();
    }
    // Settle the hierarchy.
    net.deliver_all();
    for _ in 0..8 {
        for head in [NodeId(0), NodeId(3)] {
            net.fire(head, TimerKind::LeaderTick);
            net.fire(head, TimerKind::Heartbeat);
            net.fire(head, TimerKind::GlobalLeaderTick);
            net.fire(head, TimerKind::GlobalHeartbeat);
        }
        net.deliver_all();
    }
    net.assert_safety();
    // Session exactly-once: no `(session, seq)` applied at two distinct
    // indices, at either level.
    net.assert_exactly_once();

    // Hierarchical invariant: every batch item committed globally was first
    // committed in its cluster's local log.
    use std::collections::HashSet;
    let mut locally_committed: HashSet<wire::EntryId> = HashSet::new();
    for id in net.ids() {
        for c in net.commits(id) {
            if c.scope == LogScope::Local {
                if let Payload::Write { .. } = c.entry.payload {
                    locally_committed.insert(c.entry.id);
                }
            }
        }
    }
    for id in net.ids() {
        for c in net.commits(id) {
            if c.scope == LogScope::Global {
                if let Payload::Batch(b) = &c.entry.payload {
                    for item in b.items.iter() {
                        assert!(
                            locally_committed.contains(&item.id),
                            "globally committed item {} was never locally committed",
                            item.id
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    #[test]
    fn hierarchical_safety_under_adversarial_schedules(
        seed in any::<u64>(),
        steps in proptest::collection::vec(arb_step(), 1..60),
    ) {
        run_schedule(seed, &steps);
    }
}

#[test]
fn regression_interleaved_batches_and_ticks() {
    run_schedule(
        5,
        &[
            Step::Propose(1),
            Step::Propose(4),
            Step::Deliver(48),
            Step::FireLocal(0, 2),
            Step::FireLocal(3, 2),
            Step::Deliver(48),
            Step::Propose(2),
            Step::Propose(5),
            Step::Deliver(48),
            Step::FireLocal(0, 2),
            Step::FireLocal(3, 2),
            Step::Deliver(48),
            Step::FireGlobal(0, 2),
            Step::Deliver(48),
            Step::FireGlobal(0, 1),
            Step::Deliver(48),
        ],
    );
}
