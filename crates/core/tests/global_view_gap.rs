//! Regression test for ROADMAP snapshot item (b): a cluster leader that
//! flaps — deactivates and reactivates its global engine before the global
//! level evicts it — while local compaction discarded the interim
//! global-state entries, reconstructs a **front-gapped** global log view
//! (entries above a hole that starts right after the cached global
//! snapshot's horizon). The explicit invariant check must surface this via
//! [`Observation::GlobalViewGap`], the view must stay safe (commit floor
//! pinned at the horizon, nothing decided inside the gap), and the normal
//! snapshot/resend path must remain able to repair it. A leading hole in a
//! view rebuilt from a local log that never compacted is an ordinary
//! in-flight hole, and the check stays quiet on it.

use std::rc::Rc;

use consensus_core::{CRaftConfig, CRaftNode};
use des::SimRng;
use raft::testkit::Lockstep;
use storage::StableState;
use wire::{
    Approval, ClusterId, Configuration, EntryId, LogEntry, LogIndex, LogScope, NodeId, Observation,
    Payload, PersistCmd, SessionTable, Snapshot, Term, TimerKind,
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
/// engine never compacted, so there is **no** persisted global snapshot,
/// and each gs record sits at the local index of its global index. With
/// `first_gs > 1`, local compaction discarded the records for global
/// indices `1..first_gs` while the leader was deactivated (a local snapshot
/// covers them), leaving records only for `first_gs..=7`: the
/// reconstruction then starts at `first_gs` with no covering horizon, a
/// front gap. (When a persisted global snapshot exists,
/// `FastRaftNode::scoped` installs it and *discards* any suffix not
/// anchored at its boundary, so the no-snapshot flap is the one shape that
/// reaches activation gapped.)
fn flapped_state(first_gs: u64) -> StableState {
    let mut stable = StableState::new();
    if first_gs > 1 {
        stable.apply(&PersistCmd::InstallSnapshot {
            snapshot: Snapshot {
                scope: LogScope::Local,
                last_index: LogIndex(first_gs - 1),
                last_term: Term(1),
                config: Configuration::new([NodeId(0)]),
                state: Snapshot::digest_state(first_gs - 1),
                sessions: SessionTable::new().into(),
            },
        });
    }
    for gi in first_gs..=7 {
        stable.apply(&gs_record(gi, gi));
    }
    stable
}

/// The local log write of the gs record for global index `gi` at local
/// index `li`.
fn gs_record(li: u64, gi: u64) -> PersistCmd {
    PersistCmd::Insert {
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
    }
}

/// Recovers node 0 of a single-site cluster from `stable` and elects it,
/// which activates its global side from the reconstruction.
fn reactivate(stable: &StableState, seed: u64) -> Lockstep<CRaftNode> {
    let node = CRaftNode::recover(
        NodeId(0),
        stable,
        Configuration::new([NodeId(0)]),
        Configuration::new([NodeId(0), NodeId(3)]),
        CRaftConfig::paper(ClusterId(0)),
        SimRng::seed_from_u64(seed),
    );
    let mut net = Lockstep::new([node]);
    net.fire(NodeId(0), TimerKind::Election);
    net.deliver_all();
    assert!(net.node(NodeId(0)).is_local_leader());
    net
}

fn view_gaps(net: &Lockstep<CRaftNode>) -> usize {
    net.observations()
        .iter()
        .filter(|(_, o)| matches!(o, Observation::GlobalViewGap { .. }))
        .count()
}

#[test]
fn reactivation_with_compacted_gs_records_surfaces_the_front_gap() {
    // Single-member cluster: the election wins instantly and reactivates
    // the global side from the reconstruction — the race's reactivation
    // step, before any eviction happened at the global level.
    let net = reactivate(&flapped_state(5), 5);
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
    let net = reactivate(&flapped_state(1), 6);
    assert_eq!(
        view_gaps(&net),
        0,
        "a contiguous reconstruction must not trip the invariant probe"
    );
    let engine = net.node(NodeId(0)).global_engine().expect("activated");
    assert_eq!(engine.log().first_gap(), LogIndex(8));
}

/// A leading hole in a view rebuilt from a local log that never compacted
/// is an ordinary in-flight one: the records for global indices 5..=7 are
/// all the cluster ever committed (at local indices 1..=3), so the view
/// lacks nothing it once held.
#[test]
fn an_uncompacted_leading_hole_does_not_fire_the_probe() {
    let mut stable = StableState::new();
    for (li, gi) in [(1, 5), (2, 6), (3, 7)] {
        stable.apply(&gs_record(li, gi));
    }
    let net = reactivate(&stable, 8);
    assert_eq!(view_gaps(&net), 0, "an in-flight hole is not a front gap");
    let engine = net.node(NodeId(0)).global_engine().expect("activated");
    assert_eq!(engine.log().first_gap(), LogIndex(1));
}

#[test]
fn gapped_leader_repairs_via_global_snapshot_install() {
    use consensus_core::FastRaftMessage;
    let mut net = reactivate(&flapped_state(5), 7);
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
