//! Regression test for ROADMAP snapshot item (b): a cluster leader that
//! flaps — deactivates and reactivates its global engine before the global
//! level evicts it — while local compaction discarded the interim
//! global-state entries, reconstructs a **front-gapped** global log view
//! (entries above a hole that starts right after the cached global
//! snapshot's horizon). The explicit invariant check must surface this via
//! [`Observation::GlobalViewGap`], the view must stay safe (commit floor
//! pinned at the horizon, nothing decided inside the gap), and the normal
//! snapshot/resend path must remain able to repair it.

use std::rc::Rc;

use consensus_core::{CRaftConfig, CRaftNode};
use des::SimRng;
use raft::testkit::Lockstep;
use storage::StableState;
use wire::{
    Approval, ClusterId, Configuration, EntryId, LogEntry, LogIndex, LogScope, NodeId,
    Observation, Payload, PersistCmd, SessionTable, Snapshot, Term, TimerKind,
};

/// A leader-approved global entry as it would appear inside a gs record.
fn global_entry(seq: u64) -> LogEntry {
    LogEntry {
        term: Term(1),
        id: EntryId::new(NodeId(3), seq),
        payload: Payload::Noop,
        approval: Approval::LeaderApproved,
    }
}

/// Builds the flapped leader's stable state for the race: the global
/// engine never compacted, so there is **no** persisted global snapshot —
/// but local compaction discarded the gs records for global indices 1..=4
/// while the leader was deactivated, leaving records only for 5..=7. The
/// reconstruction therefore starts at 5 with no covering horizon: a front
/// gap. (When a persisted snapshot exists, `FastRaftEngine::recover`
/// installs it and *discards* any suffix not anchored at its boundary, so
/// the no-snapshot flap is the one shape that reaches activation gapped.)
fn flapped_state(first_gs: u64) -> StableState {
    let mut stable = StableState::new();
    let mut li = 0u64;
    for gi in first_gs..=7 {
        li += 1;
        stable.apply(&PersistCmd::Insert {
            scope: LogScope::Local,
            index: LogIndex(li),
            entry: LogEntry {
                term: Term(1),
                id: EntryId::new(NodeId(0), 100 + li),
                payload: Payload::GlobalState(wire::GlobalState {
                    index: LogIndex(gi),
                    entry: Rc::new(global_entry(gi)),
                    global_commit: LogIndex::ZERO,
                }),
                approval: Approval::LeaderApproved,
            },
        });
    }
    stable
}

#[test]
fn reactivation_with_compacted_gs_records_surfaces_the_front_gap() {
    let stable = flapped_state(5);
    let members = Configuration::new([NodeId(0)]);
    let global_bootstrap = Configuration::new([NodeId(0), NodeId(3)]);
    let node = CRaftNode::recover(
        NodeId(0),
        &stable,
        members,
        global_bootstrap,
        CRaftConfig::paper(ClusterId(0)),
        SimRng::seed_from_u64(5),
    );
    let mut net = Lockstep::new([node]);
    // Single-member cluster: the election wins instantly and reactivates
    // the global side from the reconstruction — the race's reactivation
    // step, before any eviction happened at the global level.
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    assert!(net.node(NodeId(0)).is_local_leader());
    let gap = net.observations().iter().find_map(|(n, o)| match o {
        Observation::GlobalViewGap {
            horizon,
            first_retained,
        } if *n == NodeId(0) => Some((*horizon, *first_retained)),
        _ => None,
    });
    assert_eq!(
        gap,
        Some((LogIndex::ZERO, LogIndex(5))),
        "the invariant probe must surface the front-gapped reconstruction"
    );
    // The view holds the gap safely: the commit floor stays pinned below
    // the gap (nothing inside it may be treated as decided), while the
    // retained entries above the gap are preserved for the global leader's
    // quorum accounting.
    let engine = net.node(NodeId(0)).global_engine().expect("activated");
    assert_eq!(engine.commit_index(), LogIndex::ZERO);
    assert_eq!(engine.log().first_gap(), LogIndex(1));
    assert_eq!(engine.log().last_index(), LogIndex(7));
    net.assert_safety();
}

#[test]
fn contiguous_reactivation_does_not_fire_the_probe() {
    // Same shape but nothing was compacted away: gs records cover the
    // whole global prefix 1..=7, so the reconstruction is contiguous.
    let stable = flapped_state(1);
    let node = CRaftNode::recover(
        NodeId(0),
        &stable,
        Configuration::new([NodeId(0)]),
        Configuration::new([NodeId(0), NodeId(3)]),
        CRaftConfig::paper(ClusterId(0)),
        SimRng::seed_from_u64(6),
    );
    let mut net = Lockstep::new([node]);
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    assert!(net.node(NodeId(0)).is_local_leader());
    assert!(
        !net.observations()
            .iter()
            .any(|(_, o)| matches!(o, Observation::GlobalViewGap { .. })),
        "a contiguous reconstruction must not trip the invariant probe"
    );
    let engine = net.node(NodeId(0)).global_engine().expect("activated");
    assert_eq!(engine.log().first_gap(), LogIndex(8));
}

#[test]
fn gapped_leader_repairs_via_global_snapshot_install() {
    use consensus_core::FastRaftMessage;
    let stable = flapped_state(5);
    let node = CRaftNode::recover(
        NodeId(0),
        &stable,
        Configuration::new([NodeId(0)]),
        Configuration::new([NodeId(0), NodeId(3)]),
        CRaftConfig::paper(ClusterId(0)),
        SimRng::seed_from_u64(7),
    );
    let mut net = Lockstep::new([node]);
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    // The global leader (node 3, simulated) repairs the gap the way the
    // live system does: a snapshot transfer covering past the hole.
    net.with_node(NodeId(0), |n, out| {
        use wire::ConsensusProtocol;
        n.on_message(
            NodeId(3),
            consensus_core::CRaftMessage::Global(FastRaftMessage::InstallSnapshot {
                term: Term(1),
                leader: NodeId(3),
                snapshot: Snapshot {
                    scope: LogScope::Global,
                    last_index: LogIndex(5),
                    last_term: Term(1),
                    config: Configuration::new([NodeId(0), NodeId(3)]),
                    state: Snapshot::digest_state(9),
                    sessions: SessionTable::new().into(),
                },
            }),
            out,
        );
    });
    net.deliver_all();
    let engine = net.node(NodeId(0)).global_engine().expect("active");
    assert_eq!(engine.log().front_gap(), None, "install must close the gap");
    assert_eq!(engine.commit_index(), LogIndex(5));
    assert_eq!(engine.log().last_index(), LogIndex(7));
    // Suffix above the install boundary survived (consistent history).
    assert!(engine.log().get(LogIndex(6)).is_some());
    net.assert_safety();
}
