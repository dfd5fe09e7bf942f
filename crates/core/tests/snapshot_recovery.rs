//! Property: recovery from snapshot + log suffix is state-identical to
//! recovery from the full log, for both consensus scopes.
//!
//! "State" is (retained entries above the commit floor, configuration, and
//! the committed-sequence digest once the remaining suffix is applied): a
//! node that compacted its prefix and crashed must be indistinguishable —
//! to the protocol and to the application — from one that kept the whole
//! history.

use bytes::Bytes;
use consensus_core::{FastRaftEngine, FastRaftNode, TimerProfile};
use des::SimRng;
use proptest::prelude::*;
use raft::{RaftNode, Timing};
use storage::{PersistBatch, StableState};
use wire::{
    fold_commit_digest, Configuration, EntryId, LogEntry, LogIndex, LogScope, NodeId, PersistCmd,
    SessionId, Snapshot, Term,
};

fn entry(i: u64) -> LogEntry {
    LogEntry::write(
        Term(1 + i / 7),
        EntryId::new(NodeId(i % 3), i),
        SessionId::client(1),
        1,
        Bytes::from(format!("value-{i}").into_bytes()),
    )
}

fn recover_from(stable: &StableState, scope: LogScope) -> FastRaftEngine {
    let s = stable.scope(scope);
    FastRaftEngine::recover(
        NodeId(0),
        s.current_term,
        s.voted_for,
        s.log.clone(),
        s.snapshot.clone(),
        Configuration::new([NodeId(0), NodeId(1), NodeId(2)]),
        scope,
        TimerProfile::Base,
        Timing::lan(),
        SimRng::seed_from_u64(1),
        s.proposal_seq_floor,
    )
}

/// Applies `n` inserts; on the `compacted` copy additionally installs a
/// snapshot through `k` built the way a live node would (boundary term from
/// the log, digest folded over the committed prefix).
fn build_states(scope: LogScope, n: u64, k: u64) -> (StableState, StableState, u64) {
    let mut full = StableState::new();
    for i in 1..=n {
        full.apply(&PersistCmd::Insert {
            scope,
            index: LogIndex(i),
            entry: entry(i),
        });
    }
    let mut compacted = full.clone();
    let mut digest = 0u64;
    for i in 1..=k {
        digest = fold_commit_digest(digest, LogIndex(i), entry(i).id);
    }
    compacted.apply(&PersistCmd::InstallSnapshot {
        snapshot: Snapshot {
            scope,
            last_index: LogIndex(k),
            last_term: entry(k).term,
            config: Configuration::new([NodeId(0), NodeId(1), NodeId(2)]),
            state: Snapshot::digest_state(digest),
            sessions: Default::default(),
        },
    });
    (full, compacted, digest)
}

proptest! {
    #[test]
    fn snapshot_plus_suffix_recovers_identical_state(
        n in 2u64..48,
        k_frac in 0u64..100,
        scope_global in any::<bool>(),
    ) {
        let k = 1 + k_frac % n; // 1..=n
        let scope = if scope_global { LogScope::Global } else { LogScope::Local };
        let (full, compacted, snap_digest) = build_states(scope, n, k);

        let from_full = recover_from(&full, scope);
        let from_snap = recover_from(&compacted, scope);

        // The retained suffix is identical entry-for-entry.
        prop_assert_eq!(from_snap.log().first_index(), LogIndex(k + 1));
        prop_assert_eq!(from_snap.log().last_index(), from_full.log().last_index());
        for i in (k + 1)..=n {
            prop_assert_eq!(
                from_snap.log().get(LogIndex(i)),
                from_full.log().get(LogIndex(i)),
                "entry {} diverged", i
            );
        }
        // The snapshot's prefix is known committed at recovery; the full-log
        // node relearns the same floor from the protocol.
        prop_assert_eq!(from_snap.commit_index(), LogIndex(k));
        prop_assert_eq!(from_snap.state_digest(), snap_digest);
        prop_assert_eq!(from_snap.config(), from_full.config());
        prop_assert_eq!(from_snap.current_term(), from_full.current_term());
        // Applying the remaining suffix to the snapshot state yields exactly
        // the digest of replaying the full history: state identity.
        let mut replayed_full = 0u64;
        for i in 1..=n {
            replayed_full = fold_commit_digest(replayed_full, LogIndex(i), entry(i).id);
        }
        let mut resumed = from_snap.state_digest();
        for i in (k + 1)..=n {
            resumed = fold_commit_digest(resumed, LogIndex(i), entry(i).id);
        }
        prop_assert_eq!(resumed, replayed_full);
        // Log-matching at the horizon still works: the boundary term survives.
        prop_assert_eq!(from_snap.log().term_at(LogIndex(k)), entry(k).term);
    }
}

// ---------------------------------------------------------------------
// Group commit vs recovery: a crash at a batch boundary — or inside one
// (a torn batch is a command *prefix*, never a reordering) — must leave
// exactly the durable state an unbatched execution of the same surviving
// command prefix would leave.

/// A mixed write-ahead stream like a busy sequence of steps would emit:
/// inserts with periodic term/vote updates.
fn cmd_stream(scope: LogScope, n: u64) -> Vec<PersistCmd> {
    let mut cmds = Vec::new();
    for i in 1..=n {
        if i % 5 == 0 {
            cmds.push(PersistCmd::SetTermVote {
                scope,
                term: Term(1 + i / 7),
                voted_for: Some(NodeId(i % 3)),
            });
        }
        cmds.push(PersistCmd::Insert {
            scope,
            index: LogIndex(i),
            entry: entry(i),
        });
    }
    cmds
}

proptest! {
    #[test]
    fn crash_at_batch_boundary_recovers_like_unbatched(
        n in 1u64..40,
        split_frac in 0u64..=100,
        tear_frac in 0u64..=100,
        scope_global in any::<bool>(),
    ) {
        let scope = if scope_global { LogScope::Global } else { LogScope::Local };
        let cmds = cmd_stream(scope, n);
        let split = (cmds.len() as u64 * split_frac / 101) as usize;
        let first = PersistBatch::from_cmds(cmds[..split].to_vec());
        let second = PersistBatch::from_cmds(cmds[split..].to_vec());

        // Crash between fsync boundaries: only the first batch is durable.
        let mut between = StableState::new();
        between.apply_batch(&first);
        let mut between_twin = StableState::new();
        for cmd in first.cmds() {
            between_twin.apply(cmd);
        }
        prop_assert_eq!(&between, &between_twin);

        // Crash inside the second fsync: a prefix of its commands survives.
        let tear = (second.len() as u64 * tear_frac / 101) as usize;
        let mut torn = between.clone();
        torn.apply_batch(&second.prefix(tear));
        let mut torn_twin = between_twin.clone();
        for cmd in &second.cmds()[..tear] {
            torn_twin.apply(cmd);
        }
        prop_assert_eq!(&torn, &torn_twin);

        // Only the fsync accounting differs between the executions.
        prop_assert!(torn.persist_batches() <= torn_twin.persist_batches());
        prop_assert_eq!(torn.cmds_applied(), torn_twin.cmds_applied());

        // Recovery sees the same world either way.
        let a = recover_from(&torn, scope);
        let b = recover_from(&torn_twin, scope);
        prop_assert_eq!(a.current_term(), b.current_term());
        prop_assert_eq!(a.log().first_index(), b.log().first_index());
        prop_assert_eq!(a.log().last_index(), b.log().last_index());
        prop_assert_eq!(a.commit_index(), b.commit_index());
        prop_assert_eq!(a.state_digest(), b.state_digest());
    }
}

/// The same guarantee end-to-end through both protocol front-ends: a node
/// recovered after a torn-batch crash is indistinguishable from one
/// recovered from the unbatched twin's disk.
#[test]
fn torn_batch_recovery_matches_for_both_protocols() {
    let cmds = cmd_stream(LogScope::Global, 12);
    let split = 7;
    let first = PersistBatch::from_cmds(cmds[..split].to_vec());
    let second = PersistBatch::from_cmds(cmds[split..].to_vec());
    let tear = second.len() - 2; // crash mid-way through the second fsync

    let mut crashed = StableState::new();
    crashed.apply_batch(&first);
    crashed.apply_batch(&second.prefix(tear));

    let mut unbatched = StableState::new();
    for cmd in cmds.iter().take(split + tear) {
        unbatched.apply(cmd);
    }
    assert_eq!(crashed, unbatched, "durable contents diverged");
    assert!(
        crashed.persist_batches() < unbatched.persist_batches(),
        "group commit should charge fewer fsync boundaries"
    );

    let cfg = Configuration::new([NodeId(0), NodeId(1), NodeId(2)]);
    let fast_a = FastRaftNode::recover(
        NodeId(0),
        &crashed,
        cfg.clone(),
        Timing::lan(),
        SimRng::seed_from_u64(7),
    );
    let fast_b = FastRaftNode::recover(
        NodeId(0),
        &unbatched,
        cfg.clone(),
        Timing::lan(),
        SimRng::seed_from_u64(7),
    );
    assert_eq!(fast_a.current_term(), fast_b.current_term());
    assert_eq!(fast_a.log().last_index(), fast_b.log().last_index());
    assert_eq!(fast_a.commit_index(), fast_b.commit_index());
    assert_eq!(fast_a.state_digest(), fast_b.state_digest());

    let raft_a = RaftNode::recover(
        NodeId(0),
        &crashed,
        cfg.clone(),
        Timing::lan(),
        SimRng::seed_from_u64(7),
    );
    let raft_b = RaftNode::recover(
        NodeId(0),
        &unbatched,
        cfg,
        Timing::lan(),
        SimRng::seed_from_u64(7),
    );
    assert_eq!(raft_a.current_term(), raft_b.current_term());
    assert_eq!(raft_a.log().last_index(), raft_b.log().last_index());
    assert_eq!(raft_a.commit_index(), raft_b.commit_index());
    assert_eq!(raft_a.state_digest(), raft_b.state_digest());
}
