//! Model-based property test for the dense-prefix `SparseLog`.
//!
//! The dense `VecDeque`-of-slots representation must be observationally
//! identical to the `BTreeMap<u64, LogEntry>` it replaced. A reference
//! model reimplementing the old tree semantics is driven through random
//! `append` / `insert` / `remove` / `truncate_from` / `compact_to` /
//! `install_snapshot` sequences in lockstep with the real log, asserting
//! every observable after every step: `get`, `term_at`, `first_gap`,
//! `front_gap`, `last_index`, iteration order, and budgeted range
//! collection. Plus the regression the compaction invariant hinges on: a
//! hole at the compaction boundary still clamps compaction.
//!
//! Half the sequences start from a 1,300-entry log, ten blocks of slots
//! deep, so the same ops also reach into the middle of a long tail
//! (`get_mut`, replacing inserts, removes and truncations, compaction and
//! snapshots inside it).
//! Every budgeted list collected along the way is kept: an `EntryList` is
//! frozen once sent, so each must still equal the model's list of its cut
//! after every later op and every later collect, whatever the log did
//! since. The log recycles a list's buffer once no list holds it, so the
//! lists the tests drop are rewritten under the ones they keep.
//!
//! A second sequence family addresses the log relative to its last index,
//! so it crosses the slot tail's block boundaries (blocks of 128 slots) in
//! every direction: far inserts whose holes span several blocks,
//! compactions and snapshots that drain the tail to empty or to mid-block,
//! truncations and trailing removes that release blocks at the back,
//! inserts that replace or fill entries up to 1,400 below the last index,
//! and clones (which start without either pool). Every index of the
//! log is probed after every step, and the lists of the step before are
//! held across it.

use std::collections::BTreeMap;

use bytes::Bytes;
use proptest::prelude::*;
use wire::{
    AppendBudget, Approval, EntryId, EntryList, LogEntry, LogIndex, NodeId, SessionId, SparseLog,
    Term, Wire,
};

/// Entries a sequence may start with: a long contiguous history, past the
/// default compaction threshold of 1,024 retained entries.
const LONG_PREFIX: u64 = 1_300;

/// The previous `SparseLog` representation, kept as the reference model.
#[derive(Default)]
struct TreeModel {
    entries: BTreeMap<u64, LogEntry>,
    compacted_through: u64,
    compacted_term: Term,
}

impl TreeModel {
    fn get(&self, i: LogIndex) -> Option<&LogEntry> {
        self.entries.get(&i.as_u64())
    }

    fn insert(&mut self, i: LogIndex, e: LogEntry) -> Option<LogEntry> {
        assert!(!i.is_zero() && i.as_u64() > self.compacted_through);
        self.entries.insert(i.as_u64(), e)
    }

    fn append(&mut self, e: LogEntry) -> LogIndex {
        let i = self.last_index().next();
        self.entries.insert(i.as_u64(), e);
        i
    }

    fn remove(&mut self, i: LogIndex) -> Option<LogEntry> {
        self.entries.remove(&i.as_u64())
    }

    fn get_mut(&mut self, i: LogIndex) -> Option<&mut LogEntry> {
        self.entries.get_mut(&i.as_u64())
    }

    fn truncate_from(&mut self, from: LogIndex) -> usize {
        let removed: Vec<u64> = self
            .entries
            .range(from.as_u64()..)
            .map(|(&i, _)| i)
            .collect();
        for i in &removed {
            self.entries.remove(i);
        }
        removed.len()
    }

    fn last_index(&self) -> LogIndex {
        self.entries
            .keys()
            .next_back()
            .map_or(LogIndex(self.compacted_through), |&i| LogIndex(i))
    }

    fn term_at(&self, i: LogIndex) -> Term {
        if i.as_u64() == self.compacted_through && self.compacted_through > 0 {
            return self.compacted_term;
        }
        self.get(i).map_or(Term::ZERO, |e| e.term)
    }

    fn first_gap(&self) -> LogIndex {
        let mut expect = self.compacted_through + 1;
        for (&i, _) in self.entries.range(expect..) {
            if i != expect {
                break;
            }
            expect += 1;
        }
        LogIndex(expect)
    }

    fn front_gap(&self) -> Option<(LogIndex, LogIndex)> {
        let first = *self.entries.keys().next()?;
        (first > self.compacted_through + 1)
            .then_some((LogIndex(self.compacted_through), LogIndex(first)))
    }

    fn compact_to(&mut self, through: LogIndex) -> LogIndex {
        let bound = self.first_gap().as_u64().saturating_sub(1);
        let target = through.as_u64().min(bound);
        if target <= self.compacted_through {
            return LogIndex(self.compacted_through);
        }
        self.compacted_term = self.entries.get(&target).map(|e| e.term).expect("occupied");
        self.entries = self.entries.split_off(&(target + 1));
        self.compacted_through = target;
        LogIndex(self.compacted_through)
    }

    fn install_snapshot(&mut self, last_index: LogIndex, last_term: Term) -> bool {
        if last_index.as_u64() <= self.compacted_through {
            return false;
        }
        let consistent = self
            .entries
            .get(&last_index.as_u64())
            .is_some_and(|e| e.term == last_term);
        if consistent {
            self.entries = self.entries.split_off(&(last_index.as_u64() + 1));
        } else {
            self.entries.clear();
        }
        self.compacted_through = last_index.as_u64();
        self.compacted_term = last_term;
        true
    }

    fn collect_range_budgeted(
        &self,
        from: LogIndex,
        to: LogIndex,
        budget: AppendBudget,
    ) -> Vec<(LogIndex, LogEntry)> {
        let mut out = Vec::new();
        let mut bytes = 0usize;
        for (&i, e) in self.entries.range(from.as_u64()..=to.as_u64()) {
            let sz = 8 + e.encoded_len();
            if !budget.admits(out.len(), bytes, sz) {
                break;
            }
            bytes += sz;
            out.push((LogIndex(i), e.clone()));
        }
        out
    }
}

#[derive(Clone, Debug)]
enum Op {
    Append {
        term: u64,
        self_approved: bool,
    },
    Insert {
        index: u64,
        term: u64,
        self_approved: bool,
    },
    Remove {
        index: u64,
    },
    Approve {
        index: u64,
    },
    Truncate {
        from: u64,
    },
    Compact {
        through: u64,
    },
    InstallSnapshot {
        last_index: u64,
        term: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Appends and inserts listed twice: mutation-heavy sequences explore
    // deeper logs before the rarer structural ops (truncate/compact/
    // install) reshape them.
    prop_oneof![
        (1..6u64, any::<bool>()).prop_map(|(term, sa)| Op::Append {
            term,
            self_approved: sa
        }),
        (2..5u64, any::<bool>()).prop_map(|(term, sa)| Op::Append {
            term,
            self_approved: sa
        }),
        (1..48u64, 1..6u64, any::<bool>()).prop_map(|(index, term, sa)| Op::Insert {
            index,
            term,
            self_approved: sa
        }),
        (1..32u64, 2..6u64, any::<bool>()).prop_map(|(index, term, sa)| Op::Insert {
            index,
            term,
            self_approved: sa
        }),
        (1..48u64).prop_map(|index| Op::Remove { index }),
        (1..48u64).prop_map(|index| Op::Approve { index }),
        (1..48u64).prop_map(|from| Op::Truncate { from }),
        (1..48u64).prop_map(|through| Op::Compact { through }),
        (1..32u64, 1..6u64).prop_map(|(last_index, term)| Op::InstallSnapshot { last_index, term }),
    ]
}

/// An op addressed relative to the log's current last index.
#[derive(Clone, Debug)]
enum TailOp {
    Append {
        term: u64,
    },
    /// Insert `ahead` past the last index: the holes below it may span
    /// several blocks.
    FarInsert {
        ahead: u64,
        term: u64,
    },
    /// Insert (fill a hole or replace) `back` below the last index.
    InsertBack {
        back: u64,
        term: u64,
    },
    /// Remove `back` below the last index; `back == 0` trims the trailing
    /// holes below the last entry with it.
    RemoveBack {
        back: u64,
    },
    Compact {
        back: u64,
    },
    Truncate {
        back: u64,
    },
    /// Install a snapshot at `last_index + offset`, with the term the log
    /// holds there (keeping the suffix) or another one (discarding it).
    Snapshot {
        offset: i64,
        matching: bool,
    },
    /// Continue on a clone of the log.
    Clone,
}

fn arb_tail_op() -> impl Strategy<Value = TailOp> {
    prop_oneof![
        (1..6u64).prop_map(|term| TailOp::Append { term }),
        (1..6u64).prop_map(|term| TailOp::Append { term }),
        (1..700u64, 1..6u64).prop_map(|(ahead, term)| TailOp::FarInsert { ahead, term }),
        (0..1_400u64, 1..6u64).prop_map(|(back, term)| TailOp::InsertBack { back, term }),
        (0..700u64).prop_map(|back| TailOp::RemoveBack { back }),
        (0..400u64).prop_map(|back| TailOp::Compact { back }),
        (0..400u64).prop_map(|back| TailOp::Truncate { back }),
        (-400..50i64, any::<bool>())
            .prop_map(|(offset, matching)| TailOp::Snapshot { offset, matching }),
        Just(TailOp::Clone),
    ]
}

fn entry(term: u64, seq: u64, self_approved: bool) -> LogEntry {
    let e = LogEntry::write(
        Term(term),
        EntryId::new(NodeId(1), seq),
        SessionId::client(1),
        1,
        Bytes::from_static(b"model"),
    );
    if self_approved {
        e.with_approval(Approval::SelfApproved)
    } else {
        e
    }
}

/// A collected list and the model's list for the same cut.
type Sent = (EntryList, Vec<(LogIndex, LogEntry)>);

/// Asserts every observable agrees between the dense log and the model, and
/// returns the budgeted lists it collected with the model's.
fn assert_equivalent(log: &mut SparseLog, model: &TreeModel, probe_to: u64) -> Vec<Sent> {
    assert_eq!(log.last_index(), model.last_index(), "last_index");
    assert_eq!(log.first_gap(), model.first_gap(), "first_gap");
    assert_eq!(log.front_gap(), model.front_gap(), "front_gap");
    assert_eq!(
        log.compacted_through().as_u64(),
        model.compacted_through,
        "compacted_through"
    );
    assert_eq!(log.compacted_term(), model.compacted_term, "compacted_term");
    assert_eq!(log.len(), model.entries.len(), "len");
    assert_eq!(log.is_empty(), model.entries.is_empty(), "is_empty");
    for i in 0..=probe_to {
        let i = LogIndex(i);
        assert_eq!(log.get(i), model.get(i), "get({i})");
        assert_eq!(log.term_at(i), model.term_at(i), "term_at({i})");
    }
    let got: Vec<(LogIndex, &LogEntry)> = log.iter().collect();
    let want: Vec<(LogIndex, &LogEntry)> = model
        .entries
        .iter()
        .map(|(&i, e)| (LogIndex(i), e))
        .collect();
    assert_eq!(got, want, "iteration order");
    // Budgeted collection over a few representative windows and budgets.
    let windows = [
        (1u64, probe_to, usize::MAX, usize::MAX),
        (1, probe_to, 3, usize::MAX),
        (2, probe_to / 2 + 1, usize::MAX, 64),
        (probe_to / 2, probe_to, 5, 128),
    ];
    let mut lists = Vec::new();
    for (from, to, max_entries, max_bytes) in windows {
        let budget = AppendBudget::new(max_entries, max_bytes);
        let got = log.collect_range_budgeted(LogIndex(from), LogIndex(to), budget);
        let want = model.collect_range_budgeted(LogIndex(from), LogIndex(to), budget);
        assert_eq!(got.as_slice(), want.as_slice(), "budgeted [{from},{to}]");
        lists.push((got, want));
    }
    lists
}

/// Asserts that every held list still equals the model's list of its cut.
fn assert_unchanged(sent: &[Sent]) {
    for (list, want) in sent {
        assert_eq!(list.as_slice(), want.as_slice(), "a sent list changed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        ..ProptestConfig::default()
    })]

    #[test]
    fn dense_log_matches_btreemap_model(
        prefix in 0..2u64,
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let mut log = SparseLog::new();
        let mut model = TreeModel::default();
        let mut seq = 0u64;
        for _ in 0..prefix * LONG_PREFIX {
            seq += 1;
            let e = entry(1, seq, false);
            prop_assert_eq!(log.append(e.clone()), model.append(e));
        }
        // Every list cut so far, with the model's list of the same cut.
        let mut sent: Vec<Sent> = Vec::new();
        for op in ops {
            seq += 1;
            match op {
                Op::Append { term, self_approved } => {
                    let e = entry(term, seq, self_approved);
                    prop_assert_eq!(log.append(e.clone()), model.append(e));
                }
                Op::Insert { index, term, self_approved } => {
                    let i = LogIndex(index);
                    if index <= model.compacted_through {
                        continue; // both reprs panic below the horizon
                    }
                    let e = entry(term, seq, self_approved);
                    prop_assert_eq!(log.insert(i, e.clone()), model.insert(i, e));
                }
                Op::Remove { index } => {
                    let i = LogIndex(index);
                    prop_assert_eq!(log.remove(i), model.remove(i));
                }
                Op::Approve { index } => {
                    let i = LogIndex(index);
                    let got = log.get_mut(i).map(|e| e.approval = Approval::SelfApproved);
                    let want = model.get_mut(i).map(|e| e.approval = Approval::SelfApproved);
                    prop_assert_eq!(got, want);
                }
                Op::Truncate { from } => {
                    let i = LogIndex(from);
                    prop_assert_eq!(log.truncate_from(i), model.truncate_from(i));
                }
                Op::Compact { through } => {
                    let i = LogIndex(through);
                    prop_assert_eq!(log.compact_to(i), model.compact_to(i));
                }
                Op::InstallSnapshot { last_index, term } => {
                    let i = LogIndex(last_index);
                    prop_assert_eq!(
                        log.install_snapshot(i, Term(term)),
                        model.install_snapshot(i, Term(term))
                    );
                }
            }
            assert_unchanged(&sent);
            sent.extend(assert_equivalent(&mut log, &model, 56));
            assert_unchanged(&sent);
        }
        // Observational equality implies structural equality of a rebuilt
        // twin: replaying the model's surviving state into a fresh dense
        // log (same horizon, same entries) compares equal to the original.
        let mut twin = SparseLog::new();
        twin.install_snapshot(LogIndex(model.compacted_through), model.compacted_term);
        for (&i, e) in &model.entries {
            twin.insert(LogIndex(i), e.clone());
        }
        if model.compacted_through > 0 {
            prop_assert_eq!(&twin, &log);
        }
    }
}

/// Applies one tail-relative op to both the log and the model.
fn apply_tail_op(log: &mut SparseLog, model: &mut TreeModel, op: TailOp, seq: u64) {
    let last = model.last_index().as_u64();
    let back = |n: u64| LogIndex(last.saturating_sub(n));
    match op {
        TailOp::Append { term } => {
            let e = entry(term, seq, false);
            assert_eq!(log.append(e.clone()), model.append(e));
        }
        TailOp::FarInsert { ahead, term } => {
            let (i, e) = (LogIndex(last + ahead), entry(term, seq, false));
            assert_eq!(log.insert(i, e.clone()), model.insert(i, e));
        }
        TailOp::InsertBack { back: n, term } => {
            let i = back(n);
            if i.as_u64() > model.compacted_through {
                let e = entry(term, seq, false);
                assert_eq!(log.insert(i, e.clone()), model.insert(i, e));
            }
        }
        TailOp::RemoveBack { back: n } => {
            assert_eq!(log.remove(back(n)), model.remove(back(n)));
        }
        TailOp::Compact { back: n } => {
            assert_eq!(log.compact_to(back(n)), model.compact_to(back(n)));
        }
        TailOp::Truncate { back: n } => {
            assert_eq!(log.truncate_from(back(n)), model.truncate_from(back(n)));
        }
        TailOp::Snapshot { offset, matching } => {
            let i = LogIndex(last.saturating_add_signed(offset));
            let held = model.get(i).map_or(Term(1), |e| e.term);
            let term = if matching { held } else { Term(held.0 + 7) };
            assert_eq!(
                log.install_snapshot(i, term),
                model.install_snapshot(i, term)
            );
        }
        TailOp::Clone => {
            let copy = log.clone();
            assert_eq!(&copy, log, "a clone compares equal");
            *log = copy;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        ..ProptestConfig::default()
    })]

    #[test]
    fn block_tail_matches_btreemap_model(
        prefix in 0..2u64,
        ops in proptest::collection::vec(arb_tail_op(), 1..60),
    ) {
        let mut log = SparseLog::new();
        let mut model = TreeModel::default();
        let mut seq = 0u64;
        for _ in 0..prefix * LONG_PREFIX {
            seq += 1;
            let e = entry(1, seq, false);
            prop_assert_eq!(log.append(e.clone()), model.append(e));
        }
        // The previous step's lists; older ones are dropped, so their
        // buffers are rewritten while these are held.
        let mut held: Vec<Sent> = Vec::new();
        for op in ops {
            seq += 1;
            apply_tail_op(&mut log, &mut model, op, seq);
            let cut = assert_equivalent(&mut log, &model, model.last_index().as_u64() + 2);
            assert_unchanged(&held);
            held = cut;
            prop_assert_eq!(&log.clone(), &log);
        }
    }
}

#[test]
fn regression_hole_at_compaction_boundary_clamps() {
    // The exact shape the compaction invariant protects: a hole directly at
    // the requested boundary. compact_to(4) must clamp at 2 (the end of the
    // contiguous occupied prefix), never swallow index 3's hole, and leave
    // the entry above the hole untouched — on both representations.
    let mut log = SparseLog::new();
    let mut model = TreeModel::default();
    for (i, e) in [
        (1u64, entry(1, 0, false)),
        (2, entry(1, 1, false)),
        (4, entry(1, 2, true)),
    ] {
        log.insert(LogIndex(i), e.clone());
        model.insert(LogIndex(i), e);
    }
    assert_eq!(log.compact_to(LogIndex(4)), LogIndex(2));
    assert_eq!(model.compact_to(LogIndex(4)), LogIndex(2));
    assert_equivalent(&mut log, &model, 8);
    assert_eq!(log.first_gap(), LogIndex(3), "the hole survives");
    assert!(
        log.get(LogIndex(4)).is_some(),
        "suffix above the hole survives"
    );
    // Filling the hole afterwards makes the full prefix compactable.
    log.insert(LogIndex(3), entry(2, 9, false));
    model.insert(LogIndex(3), entry(2, 9, false));
    assert_eq!(log.compact_to(LogIndex(4)), LogIndex(4));
    assert_eq!(model.compact_to(LogIndex(4)), LogIndex(4));
    assert_equivalent(&mut log, &model, 8);
}
