//! Roundtrip property tests: every wire type survives encode → decode for
//! arbitrary values, and `encoded_len` always matches the actual encoding.

use bytes::Bytes;
use proptest::prelude::*;
use wire::{
    Approval, Batch, BatchItem, ClusterId, Configuration, EntryId, GlobalState, LogEntry,
    LogIndex, NodeId, Payload, SessionId, SparseLog, Term, Wire,
};

fn arb_node_id() -> impl Strategy<Value = NodeId> {
    any::<u64>().prop_map(NodeId)
}

fn arb_entry_id() -> impl Strategy<Value = EntryId> {
    (arb_node_id(), any::<u64>()).prop_map(|(n, s)| EntryId::new(n, s))
}

fn arb_config() -> impl Strategy<Value = Configuration> {
    proptest::collection::btree_set(any::<u64>(), 0..12)
        .prop_map(|s| Configuration::new(s.into_iter().map(NodeId)))
}

fn arb_approval() -> impl Strategy<Value = Approval> {
    prop_oneof![
        Just(Approval::SelfApproved),
        Just(Approval::LeaderApproved)
    ]
}

fn arb_bytes() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..128).prop_map(Bytes::from)
}

fn arb_batch() -> impl Strategy<Value = Batch> {
    (
        any::<u64>().prop_map(ClusterId),
        any::<u64>(),
        proptest::collection::vec(
            (arb_entry_id(), arb_bytes(), any::<bool>(), any::<u64>(), any::<u64>()).prop_map(
                |(id, data, keyed, s, q)| BatchItem {
                    id,
                    key: keyed.then_some((SessionId(s), q)),
                    data,
                },
            ),
            0..8,
        ),
    )
        .prop_map(|(cluster, batch_seq, items)| Batch::new(cluster, batch_seq, items))
}

fn arb_flat_payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        Just(Payload::Noop),
        (any::<u64>(), any::<u64>(), arb_bytes()).prop_map(|(s, seq, data)| Payload::Write {
            session: SessionId(s),
            seq,
            data,
        }),
        arb_config().prop_map(Payload::Config),
        arb_batch().prop_map(Payload::Batch),
    ]
}

fn arb_session_table() -> impl Strategy<Value = wire::SessionTable> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::btree_set(1..64u64, 1..6)),
        0..5,
    )
    .prop_map(|sessions| {
        let mut t = wire::SessionTable::new();
        for (s, seqs) in sessions {
            for (i, seq) in seqs.into_iter().enumerate() {
                t.apply(SessionId(s), seq, LogIndex(100 + i as u64));
            }
        }
        t
    })
}

fn arb_flat_entry() -> impl Strategy<Value = LogEntry> {
    (
        any::<u64>().prop_map(Term),
        arb_entry_id(),
        arb_flat_payload(),
        arb_approval(),
    )
        .prop_map(|(term, id, payload, approval)| LogEntry {
            term,
            id,
            payload,
            approval,
        })
}

/// Entries possibly wrapping another entry as C-Raft global state.
fn arb_entry() -> impl Strategy<Value = LogEntry> {
    prop_oneof![
        arb_flat_entry(),
        (
            arb_flat_entry(),
            any::<u64>().prop_map(LogIndex),
            any::<u64>().prop_map(LogIndex),
            any::<u64>().prop_map(Term),
            arb_entry_id(),
            arb_approval(),
        )
            .prop_map(|(inner, index, gc, term, id, approval)| LogEntry {
                term,
                id,
                payload: Payload::GlobalState(GlobalState {
                    index,
                    entry: std::rc::Rc::new(inner),
                    global_commit: gc,
                }),
                approval,
            })
    ]
}

proptest! {
    #[test]
    fn entry_roundtrip(e in arb_entry()) {
        let bytes = e.to_bytes();
        prop_assert_eq!(bytes.len(), e.encoded_len());
        let back = LogEntry::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, e);
    }

    #[test]
    fn entry_list_roundtrip(entries in proptest::collection::vec(
        (any::<u64>().prop_map(LogIndex), arb_entry()), 0..8)
    ) {
        let list = wire::EntryList::from_vec(entries);
        let bytes = list.to_bytes();
        prop_assert_eq!(bytes.len(), list.encoded_len());
        prop_assert_eq!(wire::EntryList::from_bytes(&bytes).unwrap(), list);
    }

    #[test]
    fn config_roundtrip(c in arb_config()) {
        let back = Configuration::from_bytes(&c.to_bytes()).unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn session_table_roundtrip(t in arb_session_table()) {
        let bytes = t.to_bytes();
        prop_assert_eq!(bytes.len(), t.encoded_len());
        prop_assert_eq!(wire::SessionTable::from_bytes(&bytes).unwrap(), t);
    }

    #[test]
    fn ids_roundtrip(n in any::<u64>(), t in any::<u64>(), i in any::<u64>(), e in arb_entry_id()) {
        prop_assert_eq!(NodeId::from_bytes(&NodeId(n).to_bytes()).unwrap(), NodeId(n));
        prop_assert_eq!(Term::from_bytes(&Term(t).to_bytes()).unwrap(), Term(t));
        prop_assert_eq!(LogIndex::from_bytes(&LogIndex(i).to_bytes()).unwrap(), LogIndex(i));
        prop_assert_eq!(EntryId::from_bytes(&e.to_bytes()).unwrap(), e);
    }

    /// Decoding any prefix shorter than the full encoding must error, never
    /// panic and never succeed.
    #[test]
    fn truncation_always_errors(e in arb_entry(), frac in 0.0f64..1.0) {
        let bytes = e.to_bytes();
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(LogEntry::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// SparseLog invariants: last_index is max occupied, first_gap is the
    /// lowest hole, dense logs report themselves dense.
    #[test]
    fn sparse_log_invariants(indices in proptest::collection::btree_set(1u64..200, 0..40)) {
        let mut log = SparseLog::new();
        let template = LogEntry::noop(Term(1), EntryId::new(NodeId(1), 0));
        for &i in &indices {
            log.insert(LogIndex(i), template.clone());
        }
        prop_assert_eq!(log.len(), indices.len());
        let expect_last = indices.iter().max().copied().unwrap_or(0);
        prop_assert_eq!(log.last_index(), LogIndex(expect_last));
        let mut gap = 1u64;
        while indices.contains(&gap) {
            gap += 1;
        }
        prop_assert_eq!(log.first_gap(), LogIndex(gap));
        let dense = indices.len() as u64 == expect_last;
        prop_assert_eq!(log.is_dense(), dense);
    }
}
