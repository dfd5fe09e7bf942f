//! Byte-budgeted batching × sparse-log holes.
//!
//! The PR-1 contiguity fixes guarantee a follower never advances
//! `matchIndex` (and therefore never commits) across an interior gap in an
//! AppendEntries batch. The byte-budgeted batch assembler introduces a new
//! way for gaps to appear at the receiver: a batch may be cut mid-range by
//! the byte cap, and the *leader's own* log may contain holes that the
//! collector skips. These tests drive a follower with budget-assembled
//! batches from sparse leader logs and assert the acknowledged prefix stays
//! contiguous under every cut point.

use bytes::Bytes;
use consensus_core::{FastRaftMessage, FastRaftNode};
use des::SimRng;
use proptest::prelude::*;
use raft::Timing;
use wire::{
    AppendBudget, Approval, Configuration, ConsensusProtocol, EntryId, EntryList, LogEntry,
    LogIndex, NodeId, SparseLog, Term, Wire,
};

const LEADER: NodeId = NodeId(0);
const FOLLOWER: NodeId = NodeId(1);

fn follower() -> FastRaftNode {
    let cfg: Configuration = (0..3).map(NodeId).collect();
    FastRaftNode::new(FOLLOWER, cfg, Timing::lan(), SimRng::seed_from_u64(7))
}

fn entry(term: u64, seq: u64) -> LogEntry {
    LogEntry {
        term: Term(term),
        id: EntryId::new(LEADER, seq),
        payload: wire::Payload::Write {
            session: wire::SessionId::client(1),
            seq,
            data: Bytes::from_static(b"payload-bytes"),
        },
        approval: Approval::LeaderApproved,
    }
}

/// Sends one AppendEntries to the follower and returns the acked
/// `match_index` from its reply.
fn append(node: &mut FastRaftNode, entries: EntryList, leader_commit: LogIndex) -> LogIndex {
    let mut out = wire::Actions::new();
    node.on_message(
        LEADER,
        FastRaftMessage::AppendEntries {
            term: Term(1),
            leader: LEADER,
            prev_index: LogIndex::ZERO,
            entries,
            leader_commit,
            global_commit: LogIndex::ZERO,
            probe: 0,
        },
        &mut out,
    );
    let mut acked = None;
    for (to, msg) in &out.sends {
        if let FastRaftMessage::AppendEntriesReply {
            success: true,
            match_index,
            ..
        } = msg
        {
            assert_eq!(*to, LEADER);
            acked = Some(*match_index);
        }
    }
    acked.expect("follower must ack a valid append")
}

#[test]
fn ack_stops_at_interior_gap() {
    let mut node = follower();
    // Leader log holds 1,2,4,5 — index 3 is a hole the collector skips.
    let mut log = SparseLog::new();
    for i in [1u64, 2, 4, 5] {
        log.insert(LogIndex(i), entry(1, i));
    }
    let batch = log.collect_range_budgeted(
        LogIndex(1),
        LogIndex(5),
        AppendBudget::new(128, usize::MAX),
    );
    assert_eq!(batch.len(), 4, "collector ships all occupied slots");
    let acked = append(&mut node, batch, LogIndex(5));
    assert_eq!(acked, LogIndex(2), "matchIndex must stop at the gap");
    assert!(
        node.commit_index() <= LogIndex(2),
        "no commit across the hole"
    );
    // The entries above the gap still landed (they are leader-approved
    // data), they just do not count as matched.
    assert!(node.log().get(LogIndex(4)).is_some());
    assert!(node.log().get(LogIndex(5)).is_some());
}

#[test]
fn byte_cut_batch_never_inflates_ack() {
    let mut node = follower();
    let mut log = SparseLog::new();
    for i in 1u64..=6 {
        log.insert(LogIndex(i), entry(1, i));
    }
    // A budget that admits roughly half the entries.
    let per = 8 + log.get(LogIndex(1)).unwrap().encoded_len();
    let batch =
        log.collect_range_budgeted(LogIndex(1), LogIndex(6), AppendBudget::new(128, 3 * per));
    assert_eq!(batch.len(), 3);
    let acked = append(&mut node, batch, LogIndex(6));
    assert_eq!(acked, LogIndex(3), "ack covers exactly what was shipped");
    assert!(
        node.commit_index() <= LogIndex(3),
        "leader_commit beyond the shipped prefix must be clamped"
    );
}

proptest! {
    /// For every sparse leader log and every byte budget, replaying
    /// budget-assembled batches round by round (resuming from the follower's
    /// ack, exactly as the leader's dispatch loop does) never lets the
    /// follower acknowledge or commit past the leader log's first gap, and
    /// within each round the ack never exceeds the shipped prefix.
    #[test]
    fn budgeted_appends_respect_contiguity(
        occupied in proptest::collection::btree_set(1u64..24, 1..16),
        max_bytes in 1usize..600,
        rounds in 1usize..6,
    ) {
        let mut log = SparseLog::new();
        for &i in &occupied {
            log.insert(LogIndex(i), entry(1, i));
        }
        // The leader's contiguous prefix: acks may never pass this.
        let first_gap = log.first_gap();
        let budget = AppendBudget::new(128, max_bytes);
        let mut node = follower();
        let mut next = LogIndex(1);
        for _ in 0..rounds {
            let batch = log.collect_range_budgeted(next, log.last_index(), budget);
            if batch.is_empty() {
                break;
            }
            // Shipped prefix: the longest run contiguous from `next - 1`.
            let mut shipped = next.prev_saturating();
            for (idx, _) in batch.iter() {
                if *idx == shipped.next() {
                    shipped = *idx;
                } else {
                    break;
                }
            }
            let acked = append(&mut node, batch, log.last_index());
            prop_assert!(acked <= shipped, "ack {acked} beyond shipped prefix {shipped}");
            prop_assert!(acked < first_gap, "ack {acked} crossed leader gap {first_gap}");
            prop_assert!(node.commit_index() < first_gap,
                "commit {} crossed leader gap {first_gap}", node.commit_index());
            next = acked.next();
        }
    }
}
