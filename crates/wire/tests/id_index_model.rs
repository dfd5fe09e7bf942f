//! Model-based property test for [`wire::IdIndex`].
//!
//! `IdIndex` replaced a replica's unpruned `IdMap<EntryId, LogIndex>`. The
//! old table is kept here as the model and driven in lockstep with the new
//! one through random scripts of the steps a replica takes: slot inserts
//! (re-pointing the displaced occupant's id away, as
//! `Replica::insert_entry` does), bare reservations (a gated leader insert),
//! removals (classic Raft's truncation), compaction through a point, and
//! snapshot installs (old commit index, new horizon, with or without a
//! surviving suffix). After every step, every id's lookup must agree with
//! the model's: absent, the same live index, or — for a mapping at or below
//! the compaction horizon — settled.

use std::collections::BTreeMap;

use proptest::prelude::*;
use wire::{EntryId, IdIndex, LogEntry, LogIndex, NodeId, Placement, SparseLog, Term};

const PROPOSERS: u64 = 3;
const SEQS: u64 = 12;
const INDICES: u64 = 40;

/// The table `IdIndex` replaced, kept through the same steps.
#[derive(Default)]
struct MapModel {
    ids: BTreeMap<EntryId, LogIndex>,
    horizon: LogIndex,
}

#[derive(Clone, Debug)]
enum Op {
    /// Writes the entry `(proposer, seq)` of `term` into slot `index`.
    Insert {
        index: u64,
        proposer: u64,
        seq: u64,
        term: u64,
    },
    /// Maps an id to `index` without writing the slot.
    Reserve {
        index: u64,
        proposer: u64,
        seq: u64,
    },
    Remove {
        proposer: u64,
        seq: u64,
    },
    /// Compacts `ahead` slots past the horizon (clamped at the first hole).
    Compact {
        ahead: u64,
    },
    /// Installs a snapshot `ahead` slots past an old commit index `lag`
    /// slots past the horizon; its boundary term decides whether the
    /// suffix above it survives.
    Install {
        lag: u64,
        ahead: u64,
        term: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let id = || (0..PROPOSERS, 0..SEQS);
    prop_oneof![
        (1..INDICES, id(), 1..3u64).prop_map(|(index, (proposer, seq), term)| Op::Insert {
            index,
            proposer,
            seq,
            term
        }),
        (1..INDICES, id(), 1..3u64).prop_map(|(index, (proposer, seq), term)| Op::Insert {
            index,
            proposer,
            seq,
            term
        }),
        (1..INDICES, id()).prop_map(|(index, (proposer, seq))| Op::Reserve {
            index,
            proposer,
            seq
        }),
        id().prop_map(|(proposer, seq)| Op::Remove { proposer, seq }),
        (1..12u64).prop_map(|ahead| Op::Compact { ahead }),
        (0..6u64, 1..8u64, 1..3u64).prop_map(|(lag, ahead, term)| Op::Install { lag, ahead, term }),
    ]
}

fn id(proposer: u64, seq: u64) -> EntryId {
    EntryId::new(NodeId(proposer), seq)
}

/// Every id's lookup agrees with the model's, and the live table holds
/// exactly the model's mappings above the horizon.
fn assert_agrees(ids: &IdIndex, model: &MapModel) {
    for p in 0..PROPOSERS {
        for s in 0..SEQS {
            let id = id(p, s);
            let want = model.ids.get(&id).map(|&index| {
                if index <= model.horizon {
                    Placement::Settled
                } else {
                    Placement::Live(index)
                }
            });
            assert_eq!(ids.get(&id), want, "get({id}) at horizon {}", model.horizon);
            assert_eq!(ids.contains_key(&id), want.is_some(), "contains_key({id})");
        }
    }
    let above = model.ids.values().filter(|&&i| i > model.horizon).count();
    assert_eq!(ids.live_len(), above, "live mappings");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        ..ProptestConfig::default()
    })]

    #[test]
    fn id_index_matches_the_unpruned_map(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut log = SparseLog::new();
        let mut ids = IdIndex::default();
        let mut model = MapModel::default();
        for op in ops {
            match op {
                Op::Insert { index, proposer, seq, term } => {
                    let index = LogIndex(index);
                    if index <= log.compacted_through() {
                        continue; // the log refuses a compacted slot
                    }
                    let id = id(proposer, seq);
                    if let Some(old) = log.get(index).filter(|e| e.id != id) {
                        ids.remove(&old.id);
                        model.ids.remove(&old.id);
                    }
                    ids.insert(id, index);
                    model.ids.insert(id, index);
                    log.insert(index, LogEntry::noop(Term(term), id));
                }
                Op::Reserve { index, proposer, seq } => {
                    ids.insert(id(proposer, seq), LogIndex(index));
                    model.ids.insert(id(proposer, seq), LogIndex(index));
                }
                Op::Remove { proposer, seq } => {
                    ids.remove(&id(proposer, seq));
                    model.ids.remove(&id(proposer, seq));
                }
                Op::Compact { ahead } => {
                    let dense = log.first_gap().prev();
                    let through = LogIndex(log.compacted_through().as_u64() + ahead).min(dense);
                    if through <= log.compacted_through() {
                        continue;
                    }
                    ids.compact(&log, through);
                    log.compact_to(through);
                    model.horizon = through;
                }
                Op::Install { lag, ahead, term } => {
                    let old_commit = LogIndex(log.compacted_through().as_u64() + lag);
                    let last_index = LogIndex(old_commit.as_u64() + ahead);
                    ids.compact(&log, old_commit);
                    prop_assert!(log.install_snapshot(last_index, Term(term)));
                    ids.install(&log);
                    model
                        .ids
                        .retain(|_, i| *i <= old_commit || log.get(*i).is_some());
                    model.horizon = last_index;
                }
            }
            assert_agrees(&ids, &model);
        }
    }
}

/// A long gapless history settles into one range per proposer, whatever
/// the interleaving of proposers in the log.
#[test]
fn settled_history_collapses_to_one_range_per_proposer() {
    let mut log = SparseLog::new();
    let mut ids = IdIndex::default();
    let mut next = [0u64; PROPOSERS as usize];
    for i in 1..=3_000u64 {
        let p = (i * 7 / 5) % PROPOSERS;
        let id = id(p, next[p as usize]);
        next[p as usize] += 1;
        ids.insert(id, LogIndex(i));
        log.insert(LogIndex(i), LogEntry::noop(Term(1), id));
        if i % 500 == 0 {
            ids.compact(&log, LogIndex(i - 10));
            log.compact_to(LogIndex(i - 10));
        }
    }
    assert_eq!(ids.settled_runs(), PROPOSERS as usize);
    assert_eq!(ids.live_len(), 10);
    assert_eq!(ids.get(&id(0, 0)), Some(Placement::Settled));
}
