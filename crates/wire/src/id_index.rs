//! [`IdIndex`]: where each known proposal id sits in a replica's log, bounded
//! to the retained log.
//!
//! Fast Raft's duplicate rule (§IV-B: a proposal that is already committed
//! gets a reply, not a second slot) needs to know, for any proposal id a
//! peer names, whether this replica holds it and at which index. A plain
//! `id → index` table answers that, but the answer must survive compaction
//! (a retry of a compacted id is still a committed duplicate), so such a
//! table grows by one entry per committed entry for the life of the replica.
//!
//! `IdIndex` keeps the exact mapping only above the compaction horizon. At
//! or below it, every mapping is *settled*: compaction covers only the
//! applied prefix, and a snapshot install keeps only the mappings at or
//! below the old commit index, so a settled id is committed by
//! construction and nobody asks for its index. Proposers mint ids as
//! consecutive `(proposer, seq)` numbers, so the settled ids collapse into
//! a few sorted runs of `seq` ranges per proposer: the table then costs the
//! retained log plus a handful of ranges, instead of the whole history.
//!
//! Settling walks the compacted range in log-index order, in which each
//! proposer's seqs mostly ascend, so nearly every id extends the run it
//! follows. Hash-table order would build and merge transient runs instead.

use des::IdMap;

use crate::{EntryId, LogIndex, NodeId, SparseLog};

/// Where a mapped proposal id sits (see [`IdIndex::get`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// At this index, above the compaction horizon.
    Live(LogIndex),
    /// At some index at or below the compaction horizon: committed.
    Settled,
}

impl Placement {
    /// `true` when the id sits at or below `floor`. A settled id always
    /// does: callers only pass floors at or above the compaction horizon
    /// (the commit index, or the horizon itself).
    pub fn at_or_below(self, floor: LogIndex) -> bool {
        match self {
            Placement::Live(index) => index <= floor,
            Placement::Settled => true,
        }
    }

    /// The index of a live id; `None` for a settled one.
    pub fn live_index(self) -> Option<LogIndex> {
        match self {
            Placement::Live(index) => Some(index),
            Placement::Settled => None,
        }
    }
}

/// One proposer's settled seqs `lo..=hi`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    proposer: NodeId,
    lo: u64,
    hi: u64,
}

/// A replica's proposal-id index: the exact `id → index` mapping above the
/// compaction horizon, settled `(proposer, seq)` ranges at or below it (see
/// the module docs).
///
/// Its answers are those of an unpruned `IdMap<EntryId, LogIndex>` kept
/// through the same inserts, removals, compactions and installs, except that
/// a mapping at or below the horizon reads [`Placement::Settled`] instead of
/// its index.
///
/// # Examples
///
/// ```
/// use wire::{EntryId, IdIndex, LogIndex, NodeId, Placement};
///
/// let id = EntryId::new(NodeId(1), 7);
/// let mut ids = IdIndex::default();
/// ids.insert(id, LogIndex(3));
/// assert_eq!(ids.get(&id), Some(Placement::Live(LogIndex(3))));
/// ids.remove(&id);
/// assert_eq!(ids.get(&id), None);
/// ```
#[derive(Debug, Default)]
pub struct IdIndex {
    /// Mappings above `horizon`.
    live: IdMap<EntryId, LogIndex>,
    /// Settled ids, sorted by `(proposer, lo)`; disjoint and non-adjacent
    /// per proposer, so the set has exactly one representation.
    settled: Vec<Run>,
    /// The compaction horizon this index was last brought to.
    horizon: LogIndex,
}

impl IdIndex {
    /// The index of a log just loaded from stable storage: every retained
    /// entry mapped live, nothing settled (the compacted prefix's ids are
    /// not in the log to be found).
    pub fn rebuild(log: &SparseLog) -> Self {
        let mut ids = IdIndex {
            horizon: log.compacted_through(),
            ..IdIndex::default()
        };
        for (index, entry) in log.iter() {
            ids.insert(entry.id, index);
        }
        ids
    }

    /// Where `id` sits, if it is mapped.
    pub fn get(&self, id: &EntryId) -> Option<Placement> {
        match self.live.get(id) {
            Some(&index) => Some(Placement::Live(index)),
            None => self.settled_at(id).map(|_| Placement::Settled),
        }
    }

    /// `true` when `id` is mapped, live or settled.
    pub fn contains_key(&self, id: &EntryId) -> bool {
        self.live.contains_key(id) || self.settled_at(id).is_some()
    }

    /// Maps `id` to `index`, replacing any earlier mapping of it (settled
    /// included). An index at or below the horizon settles it.
    pub fn insert(&mut self, id: EntryId, index: LogIndex) {
        if index <= self.horizon {
            self.live.remove(&id);
            settle(&mut self.settled, id);
        } else {
            self.unsettle(&id);
            self.live.insert(id, index);
        }
    }

    /// Forgets `id`, live or settled.
    pub fn remove(&mut self, id: &EntryId) {
        if self.live.remove(id).is_none() {
            self.unsettle(id);
        }
    }

    /// Settles every mapping at or below `through`, which becomes the
    /// horizon. Call it before `log` forgets that prefix: the entries of
    /// `log` through `through` give the settling order, and a mapping they
    /// do not account for (a gated slot reservation whose insert never
    /// landed) settles after them.
    pub fn compact(&mut self, log: &SparseLog, through: LogIndex) {
        for (index, entry) in log.range(log.first_index(), through) {
            if self.live.get(&entry.id) == Some(&index) {
                self.live.remove(&entry.id);
                settle(&mut self.settled, entry.id);
            }
        }
        let settled = &mut self.settled;
        self.live.retain(|&id, index| {
            let keep = *index > through;
            if !keep {
                settle(settled, id);
            }
            keep
        });
        self.horizon = through;
    }

    /// Follows `log` through a snapshot install, after
    /// [`IdIndex::compact`] settled everything through the pre-install
    /// commit index: the horizon moves to the snapshot's, and the live
    /// mappings the install discarded go — those between the old commit
    /// and the new horizon, never known committed here, and those above it
    /// whose entry did not survive.
    pub fn install(&mut self, log: &SparseLog) {
        self.horizon = log.compacted_through();
        let horizon = self.horizon;
        self.live
            .retain(|_, index| *index > horizon && log.get(*index).is_some());
    }

    /// Number of live mappings.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Number of settled `(proposer, seq)` ranges.
    pub fn settled_runs(&self) -> usize {
        self.settled.len()
    }

    /// The position of the settled run holding `id`.
    fn settled_at(&self, id: &EntryId) -> Option<usize> {
        let after = partition(&self.settled, id);
        let run = self.settled.get(after.checked_sub(1)?)?;
        (run.proposer == id.proposer && id.seq <= run.hi).then_some(after - 1)
    }

    /// Takes `id` out of the settled set, splitting its run if need be.
    fn unsettle(&mut self, id: &EntryId) {
        let Some(at) = self.settled_at(id) else {
            return;
        };
        let run = &mut self.settled[at];
        if run.lo == run.hi {
            self.settled.remove(at);
        } else if id.seq == run.lo {
            run.lo += 1;
        } else if id.seq == run.hi {
            run.hi -= 1;
        } else {
            let upper = Run {
                lo: id.seq + 1,
                ..*run
            };
            run.hi = id.seq - 1;
            self.settled.insert(at + 1, upper);
        }
    }
}

/// The number of runs that start at or before `id`.
fn partition(settled: &[Run], id: &EntryId) -> usize {
    settled.partition_point(|r| (r.proposer, r.lo) <= (id.proposer, id.seq))
}

/// Adds `id` to the settled set: extends the run it follows or precedes,
/// joins the two it bridges, or starts one.
fn settle(settled: &mut Vec<Run>, id: EntryId) {
    let at = partition(settled, &id);
    let same = |r: &Run| r.proposer == id.proposer;
    let joins_prev =
        at > 0 && same(&settled[at - 1]) && settled[at - 1].hi.saturating_add(1) >= id.seq;
    let joins_next = settled
        .get(at)
        .is_some_and(|r| same(r) && id.seq.checked_add(1) == Some(r.lo));
    match (joins_prev, joins_next) {
        (true, true) => {
            settled[at - 1].hi = settled[at].hi;
            settled.remove(at);
        }
        (true, false) => settled[at - 1].hi = settled[at - 1].hi.max(id.seq),
        (false, true) => settled[at].lo = id.seq,
        (false, false) => settled.insert(
            at,
            Run {
                proposer: id.proposer,
                lo: id.seq,
                hi: id.seq,
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LogEntry, Term};

    fn id(p: u64, s: u64) -> EntryId {
        EntryId::new(NodeId(p), s)
    }

    fn log_of(ids: &[EntryId]) -> SparseLog {
        let mut log = SparseLog::new();
        for &e in ids {
            log.append(LogEntry::noop(Term(1), e));
        }
        log
    }

    fn runs(ids: &IdIndex) -> Vec<(u64, u64, u64)> {
        ids.settled
            .iter()
            .map(|r| (r.proposer.as_u64(), r.lo, r.hi))
            .collect()
    }

    #[test]
    fn settling_in_any_order_merges_into_one_range_per_gapless_proposer() {
        let mut settled = Vec::new();
        for s in [4, 0, 2, 1, 3, 9, 8] {
            settle(&mut settled, id(1, s));
        }
        settle(&mut settled, id(0, 5));
        settle(&mut settled, id(1, 2)); // already settled: no change
        let got: Vec<_> = settled
            .iter()
            .map(|r| (r.proposer.as_u64(), r.lo, r.hi))
            .collect();
        assert_eq!(got, vec![(0, 5, 5), (1, 0, 4), (1, 8, 9)]);
    }

    #[test]
    fn compaction_settles_the_prefix_and_insert_or_remove_clears_a_settled_id() {
        let order: Vec<EntryId> = (0..6).map(|s| id(s % 2, s / 2)).collect();
        let log = log_of(&order);
        let mut ids = IdIndex::rebuild(&log);
        ids.compact(&log, LogIndex(4));
        assert_eq!(runs(&ids), vec![(0, 0, 1), (1, 0, 1)]);
        assert_eq!(ids.live_len(), 2);
        assert_eq!(ids.get(&id(0, 1)), Some(Placement::Settled));
        assert_eq!(ids.get(&id(1, 2)), Some(Placement::Live(LogIndex(6))));
        assert_eq!(ids.get(&id(1, 3)), None);
        // Re-placed above the horizon: live again, and its range splits.
        ids.insert(id(0, 0), LogIndex(9));
        assert_eq!(ids.get(&id(0, 0)), Some(Placement::Live(LogIndex(9))));
        ids.remove(&id(1, 0));
        assert!(!ids.contains_key(&id(1, 0)));
        assert_eq!(runs(&ids), vec![(0, 1, 1), (1, 1, 1)]);
        // An index at or below the horizon settles at once.
        ids.insert(id(2, 0), LogIndex(1));
        assert_eq!(ids.get(&id(2, 0)), Some(Placement::Settled));
        assert!(Placement::Settled.at_or_below(LogIndex::ZERO));
        assert!(!Placement::Live(LogIndex(5)).at_or_below(LogIndex(4)));
    }

    #[test]
    fn a_reservation_the_log_does_not_hold_settles_too() {
        let log = log_of(&[id(0, 0), id(0, 1)]);
        let mut ids = IdIndex::rebuild(&log);
        ids.insert(id(3, 0), LogIndex(2)); // slot 2 went to another entry
        ids.insert(id(3, 1), LogIndex(3)); // not in the log yet
        ids.compact(&log, LogIndex(2));
        assert_eq!(runs(&ids), vec![(0, 0, 1), (3, 0, 0)]);
        assert_eq!(ids.get(&id(3, 1)), Some(Placement::Live(LogIndex(3))));
    }

    #[test]
    fn splitting_a_range_in_the_middle_keeps_both_ends() {
        let mut ids = IdIndex::default();
        for s in 0..5 {
            settle(&mut ids.settled, id(1, s));
        }
        ids.remove(&id(1, 2));
        assert_eq!(runs(&ids), vec![(1, 0, 1), (1, 3, 4)]);
        ids.remove(&id(1, 4));
        ids.remove(&id(1, 0));
        assert_eq!(runs(&ids), vec![(1, 1, 1), (1, 3, 3)]);
        ids.remove(&id(1, 1));
        assert_eq!(runs(&ids), vec![(1, 3, 3)]);
    }
}
