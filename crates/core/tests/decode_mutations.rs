//! Decode robustness: every single-byte flip and every truncation of a
//! valid encoding decodes to `Ok` or `Err`, never a panic. When a mutated
//! buffer still decodes, the value it yields re-encodes to exactly
//! `encoded_len()` bytes.
//!
//! One property per message type a peer can send (`FastRaftMessage`,
//! `CRaftMessage`, `RaftMessage`, the shard fabric's
//! `ShardEnvelope<RaftMessage>`) plus `Snapshot`, which storage also reads
//! back from stable state.

use std::rc::Rc;

use bytes::Bytes;
use consensus_core::{CRaftMessage, FastRaftMessage};
use des::SimTime;
use proptest::prelude::*;
use raft::RaftMessage;
use wire::{
    Approval, Batch, BatchItem, ClientOutcome, ClusterId, Configuration, EntryId, EntryList,
    GlobalState, GroupId, LogEntry, LogIndex, LogScope, NodeId, Payload, SessionId, SessionTable,
    ShardEnvelope, Snapshot, Term, Wire,
};

/// Decodes every one-byte flip (`byte ^ mask`) and every proper prefix of
/// `v`'s encoding; a panic fails the test, and any value that decodes must
/// re-encode to its own `encoded_len`.
fn mutations_decode<T: Wire + std::fmt::Debug>(v: &T, mask: u8) {
    let bytes = v.to_bytes().to_vec();
    assert_eq!(bytes.len(), v.encoded_len());
    let check = |buf: &[u8]| {
        if let Ok(back) = T::from_bytes(buf) {
            assert_eq!(back.encoded_len(), back.to_bytes().len(), "{back:?}");
        }
    };
    for at in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[at] ^= mask;
        check(&flipped);
    }
    for cut in 0..bytes.len() {
        check(&bytes[..cut]);
    }
}

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..24).prop_map(Bytes::from)
}

fn arb_entry_id() -> impl Strategy<Value = EntryId> {
    (0..8u64, any::<u64>()).prop_map(|(n, s)| EntryId::new(NodeId(n), s))
}

fn arb_config() -> impl Strategy<Value = Configuration> {
    proptest::collection::btree_set(0..16u64, 0..6)
        .prop_map(|s| Configuration::new(s.into_iter().map(NodeId)))
}

fn arb_hint() -> impl Strategy<Value = Option<NodeId>> {
    (any::<bool>(), 0..8u64).prop_map(|(some, n)| some.then_some(NodeId(n)))
}

fn arb_outcome() -> impl Strategy<Value = ClientOutcome> {
    prop_oneof![
        any::<u64>().prop_map(|i| ClientOutcome::Committed { index: LogIndex(i) }),
        any::<u64>().prop_map(|i| ClientOutcome::Duplicate {
            first_index: LogIndex(i)
        }),
        any::<u64>().prop_map(|i| ClientOutcome::ReadOk {
            scope: LogScope::Global,
            commit_floor: LogIndex(i),
        }),
        arb_hint().prop_map(|leader_hint| ClientOutcome::Redirect { leader_hint }),
        Just(ClientOutcome::Retry),
        Just(ClientOutcome::SessionExpired),
        (any::<u64>(), any::<u64>()).prop_map(|(s, i)| ClientOutcome::Registered {
            session: SessionId(s),
            index: LogIndex(i),
        }),
    ]
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    let item = (arb_entry_id(), any::<bool>(), any::<u64>(), arb_bytes()).prop_map(
        |(id, keyed, s, data)| BatchItem {
            id,
            key: keyed.then_some((SessionId(s), 2)),
            data,
        },
    );
    (0..4u64, any::<u64>(), proptest::collection::vec(item, 0..3))
        .prop_map(|(c, seq, items)| Batch::new(ClusterId(c), seq, items))
}

fn arb_flat_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        Just(Payload::Noop),
        (any::<u64>(), 1..64u64, arb_bytes()).prop_map(|(s, seq, data)| Payload::Write {
            session: SessionId(s),
            seq,
            data,
        }),
        any::<u64>().prop_map(|s| Payload::Register {
            session: SessionId(s)
        }),
        arb_config().prop_map(Payload::Config),
        arb_batch().prop_map(Payload::Batch),
    ]
}

fn arb_approval() -> impl Strategy<Value = Approval> {
    prop_oneof![Just(Approval::SelfApproved), Just(Approval::LeaderApproved)]
}

fn arb_flat_entry() -> impl Strategy<Value = LogEntry> {
    (
        any::<u64>(),
        arb_entry_id(),
        arb_flat_payload(),
        arb_approval(),
    )
        .prop_map(|(term, id, payload, approval)| LogEntry {
            term: Term(term),
            id,
            payload,
            approval,
        })
}

/// A flat entry, or one wrapping another as C-Raft global state.
fn arb_entry() -> impl Strategy<Value = LogEntry> {
    prop_oneof![
        arb_flat_entry(),
        (arb_flat_entry(), arb_flat_entry(), any::<u64>()).prop_map(|(outer, inner, i)| {
            LogEntry {
                payload: Payload::GlobalState(GlobalState {
                    index: LogIndex(i),
                    entry: Rc::new(inner),
                    global_commit: LogIndex(i / 2),
                }),
                ..outer
            }
        }),
    ]
}

fn arb_entries() -> impl Strategy<Value = EntryList> {
    proptest::collection::vec(arb_entry(), 0..3).prop_map(|es| {
        EntryList::from_vec(
            es.into_iter()
                .enumerate()
                .map(|(i, e)| (LogIndex(7 + i as u64), e))
                .collect(),
        )
    })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    let sessions = proptest::collection::vec((0..6u64, 1..12u64), 0..6).prop_map(|writes| {
        let mut t = SessionTable::new();
        for (i, (s, seq)) in writes.into_iter().enumerate() {
            t.apply(SessionId(s), seq, LogIndex(10 + i as u64));
        }
        t
    });
    (
        any::<bool>(),
        any::<u64>(),
        arb_config(),
        arb_bytes(),
        sessions,
    )
        .prop_map(|(global, i, config, state, sessions)| Snapshot {
            scope: if global {
                LogScope::Global
            } else {
                LogScope::Local
            },
            last_index: LogIndex(i),
            last_term: Term(i / 3),
            config,
            state,
            sessions: Rc::new(sessions),
        })
}

fn arb_fast() -> impl Strategy<Value = FastRaftMessage> {
    prop_oneof![
        (any::<u64>(), arb_entry()).prop_map(|(i, entry)| FastRaftMessage::ProposeAt {
            index: LogIndex(i),
            entry,
        }),
        (any::<u64>(), arb_entry()).prop_map(|(i, entry)| FastRaftMessage::Vote {
            index: LogIndex(i),
            entry,
            commit_index: LogIndex(i / 2),
        }),
        (arb_entry_id(), any::<bool>(), arb_hint()).prop_map(|(id, committed, hint)| {
            FastRaftMessage::ProposeReply {
                id,
                committed,
                leader_hint: hint,
            }
        }),
        (any::<u64>(), arb_entries()).prop_map(|(t, entries)| {
            FastRaftMessage::AppendEntries {
                term: Term(t),
                leader: NodeId(1),
                prev_index: LogIndex(6),
                entries,
                leader_commit: LogIndex(5),
                global_commit: LogIndex(4),
                probe: t / 7,
            }
        }),
        (any::<u64>(), any::<bool>()).prop_map(|(t, success)| {
            FastRaftMessage::AppendEntriesReply {
                term: Term(t),
                success,
                match_index: LogIndex(t / 2),
                probe: 3,
                lease_until: SimTime::from_micros(t / 5),
            }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(s, seq)| FastRaftMessage::ClientRead {
            session: SessionId(s),
            seq,
        }),
        (any::<u64>(), arb_outcome()).prop_map(|(s, outcome)| FastRaftMessage::ClientReply {
            session: SessionId(s),
            seq: 2,
            outcome,
        }),
        any::<u64>().prop_map(|t| FastRaftMessage::RequestVote {
            term: Term(t),
            candidate: NodeId(2),
            last_leader_index: LogIndex(t / 2),
            last_leader_term: Term(t / 3),
        }),
        (any::<u64>(), any::<bool>(), arb_entries()).prop_map(|(t, granted, es)| {
            FastRaftMessage::RequestVoteReply {
                term: Term(t),
                granted,
                self_approved: es.iter().cloned().collect(),
            }
        }),
        (0..8u64).prop_map(|n| FastRaftMessage::JoinRequest { node: NodeId(n) }),
        (any::<bool>(), arb_hint()).prop_map(|(accepted, hint)| {
            FastRaftMessage::JoinReply {
                accepted,
                leader_hint: hint,
            }
        }),
        (0..8u64).prop_map(|n| FastRaftMessage::LeaveRequest { node: NodeId(n) }),
        (any::<u64>(), arb_snapshot()).prop_map(|(t, snapshot)| {
            FastRaftMessage::InstallSnapshot {
                term: Term(t),
                leader: NodeId(0),
                snapshot,
            }
        }),
        any::<u64>().prop_map(|t| FastRaftMessage::InstallSnapshotReply {
            term: Term(t),
            last_index: LogIndex(t / 2),
        }),
    ]
}

fn arb_raft() -> impl Strategy<Value = RaftMessage> {
    prop_oneof![
        (arb_entry_id(), any::<u64>(), arb_bytes()).prop_map(|(id, s, data)| {
            RaftMessage::Propose {
                id,
                session: SessionId(s),
                seq: 2,
                data,
            }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(s, seq)| RaftMessage::ClientRead {
            session: SessionId(s),
            seq,
        }),
        (any::<u64>(), arb_outcome()).prop_map(|(s, outcome)| RaftMessage::ClientReply {
            session: SessionId(s),
            seq: 2,
            outcome,
        }),
        (any::<u64>(), arb_entries()).prop_map(|(t, entries)| RaftMessage::AppendEntries {
            term: Term(t),
            leader: NodeId(1),
            prev_index: LogIndex(6),
            prev_term: Term(t / 2),
            entries,
            leader_commit: LogIndex(5),
            probe: t / 7,
        }),
        (any::<u64>(), any::<bool>()).prop_map(|(t, success)| {
            RaftMessage::AppendEntriesReply {
                term: Term(t),
                success,
                match_index: LogIndex(t / 2),
                probe: 3,
                lease_until: SimTime::from_micros(t / 5),
            }
        }),
        any::<u64>().prop_map(|t| RaftMessage::RequestVote {
            term: Term(t),
            candidate: NodeId(2),
            last_log_index: LogIndex(t / 2),
            last_log_term: Term(t / 3),
        }),
        (any::<u64>(), any::<bool>()).prop_map(|(t, granted)| RaftMessage::RequestVoteReply {
            term: Term(t),
            granted,
        }),
        (any::<u64>(), arb_snapshot()).prop_map(|(t, snapshot)| RaftMessage::InstallSnapshot {
            term: Term(t),
            leader: NodeId(0),
            snapshot,
        }),
        any::<u64>().prop_map(|t| RaftMessage::InstallSnapshotReply {
            term: Term(t),
            last_index: LogIndex(t / 2),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn fast_raft_message_mutations_never_panic(m in arb_fast(), mask in 1..=255u8) {
        mutations_decode(&m, mask);
    }

    #[test]
    fn craft_message_mutations_never_panic(
        m in arb_fast(),
        global in any::<bool>(),
        mask in 1..=255u8,
    ) {
        let m = if global { CRaftMessage::Global(m) } else { CRaftMessage::Local(m) };
        mutations_decode(&m, mask);
    }

    #[test]
    fn raft_message_mutations_never_panic(m in arb_raft(), mask in 1..=255u8) {
        mutations_decode(&m, mask);
    }

    #[test]
    fn shard_envelope_mutations_never_panic(
        frames in proptest::collection::vec((0..512u32, arb_raft()), 0..4),
        mask in 1..=255u8,
    ) {
        let mut env = ShardEnvelope::new();
        for (g, m) in frames {
            env.push(GroupId(g), m);
        }
        mutations_decode(&env, mask);
    }

    #[test]
    fn snapshot_mutations_never_panic(s in arb_snapshot(), mask in 1..=255u8) {
        mutations_decode(&s, mask);
    }
}
