//! The replicated log, allowing holes.
//!
//! Classic Raft treats the log as a dense, append-only list. Fast Raft lets
//! proposers address specific indices directly, so a follower can hold an
//! entry at index `i` while index `j < i` is still empty (§III-B). The log
//! is therefore logically a sparse map from index to entry; classic Raft
//! simply maintains the invariant that it never creates holes.
//!
//! ## Representation: sealed segments + a dense slot tail
//!
//! Holes are rare and *structured*: they only ever live in the bounded
//! in-flight window above the contiguous committed prefix (§IV), so the
//! dominant-case shape of the log is a dense array, not a search tree. The
//! log stores that shape in two tiers:
//!
//! - **Sealed segments** ([`Seg`]): the settled history below the in-flight
//!   window, frozen into immutable `Rc`-shared runs of exactly [`SEG`]
//!   `(index, entry)` pairs. AppendEntries assembly
//!   ([`SparseLog::collect_range_budgeted`]) cuts an [`EntryList`] **window**
//!   straight out of a segment — no per-entry clone, no buffer allocation.
//! - **The slot tail**: a `VecDeque<Option<LogEntry>>` of slots indexed by
//!   offset from `sealed_end + 1`, exactly the PR 5 dense-prefix layout,
//!   holding the mutable tip (in-flight window, holes, conflict-truncation
//!   territory).
//!
//! Entries migrate from slots into a new segment once the contiguous
//! occupied prefix of the tail outgrows `SEG + SEAL_GUARD` (a move, not a
//! copy). The guard keeps the most recent entries unsealed, because the only
//! mutations honest traffic performs near the tip — conflict truncation,
//! hole punching — would otherwise have to *unseal* (melt segments back into
//! slots, the rare slow path that keeps every mutation correct).
//!
//! Within the tail, the PR 5 properties hold unchanged: `get`/`term_at` are
//! O(1) loads (segment location is a shift, since `SEG` is a power of two),
//! appends/inserts fill slots, compaction and truncation are front/back
//! drains, and an occupancy count plus a cached [`SparseLog::first_gap`]
//! cursor keep hole queries O(1) amortized.
//!
//! Because how much history is sealed depends on the *order* of operations,
//! the byte layout is no longer canonical; `PartialEq` therefore compares
//! observable content (horizon, boundary term, and the `(index, entry)`
//! sequence), so logs that went through different histories but hold the
//! same entries still compare equal.

use std::collections::VecDeque;
use std::rc::Rc;

use crate::{Approval, AppendBudget, EntryList, LogEntry, LogIndex, Term, Wire};

/// Defensive ceiling on how far above a node's own log end (or commit
/// floor) a remote-addressed insert may reach. The dense layout
/// materializes the addressed span as slots, so an absurd index from a
/// corrupt or malicious peer must be *dropped*, not allocated: a message
/// naming index 2^40 would otherwise commit the receiver to a terabyte of
/// `None`s. Honest traffic never comes close — real holes live in the
/// bounded in-flight window above the contiguous prefix (§IV). Shared by
/// both protocols' receive paths (`consensus_core` inserts, `raft`
/// AppendEntries) so the bound cannot drift between them.
pub const MAX_INSERT_WINDOW: u64 = 1 << 20;

/// Entries per sealed segment. A power of two, so locating a sealed index
/// is a shift instead of a division.
const SEG: usize = 1024;

/// How much contiguous occupied prefix must pile up in the slot tail
/// *beyond* a whole segment before it seals. The guard keeps the most
/// recent entries unsealed: conflict truncation and Fast Raft hole
/// mutations target the tip, and each would force an unseal if the tip
/// were frozen eagerly.
const SEAL_GUARD: usize = 256;

/// A sealed, immutable run of exactly [`SEG`] consecutive occupied entries.
///
/// The pair vector is `Rc`-shared with every [`EntryList`] window cut from
/// it, so an in-flight AppendEntries payload stays valid (and allocation
/// free) even if the log later unseals or compacts this segment.
#[derive(Clone, Debug)]
struct Seg {
    /// Absolute index of `entries[0]`.
    first: u64,
    /// Exactly [`SEG`] `(index, entry)` pairs.
    entries: Rc<Vec<(LogIndex, LogEntry)>>,
}

impl Seg {
    /// Absolute index of the last entry.
    fn last(&self) -> u64 {
        self.first + SEG as u64 - 1
    }
}

/// A 1-indexed replicated log that may contain holes, with an optionally
/// **compacted prefix**.
///
/// Compaction (snapshotting) removes a contiguous decided prefix of the log:
/// indices `1..=compacted_through` hold no entries anymore, but the log
/// remembers the boundary index and its term so log-matching checks against
/// the snapshot boundary still work. Compaction may only ever cover a
/// contiguous occupied prefix — it never swallows a hole (see
/// [`SparseLog::compact_to`]).
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use wire::{EntryId, LogEntry, LogIndex, NodeId, SessionId, SparseLog, Term};
///
/// let mut log = SparseLog::new();
/// let id = EntryId::new(NodeId(1), 0);
/// let e = LogEntry::write(Term(1), id, SessionId::client(1), 1, Bytes::from_static(b"v"));
/// // Insert at index 3 directly; 1 and 2 are holes.
/// log.insert(LogIndex(3), e.clone());
/// assert_eq!(log.last_index(), LogIndex(3));
/// assert_eq!(log.get(LogIndex(1)), None);
/// assert_eq!(log.first_gap(), LogIndex(1));
/// assert_eq!(log.first_index(), LogIndex(1));
/// ```
#[derive(Clone, Debug)]
pub struct SparseLog {
    /// Sealed immutable segments covering `(…, sealed_end]` contiguously.
    /// The first segment may begin at or below the compaction horizon (a
    /// mid-segment snapshot leaves a dead prefix that is reclaimed when the
    /// whole segment compacts away).
    segs: VecDeque<Seg>,
    /// Dense slot tail: `slots[i]` holds the entry at index
    /// `sealed_end + 1 + i`. The last slot, if any, is occupied.
    slots: VecDeque<Option<LogEntry>>,
    /// Highest compacted (snapshotted) index; 0 = nothing compacted.
    compacted_through: u64,
    /// Term of the (removed) entry at `compacted_through` — the snapshot
    /// boundary term, needed for log-matching at the compaction horizon.
    compacted_term: Term,
    /// Index of the last sealed entry; equals `compacted_through` when no
    /// segments exist. Invariant: every index in
    /// `(compacted_through, sealed_end]` is occupied (sealing only consumes
    /// contiguous occupied runs below `first_gap`).
    sealed_end: u64,
    /// Number of occupied (live) indices.
    occupied: usize,
    /// Cached lowest unoccupied index above the compaction horizon.
    first_gap: u64,
}

impl Default for SparseLog {
    fn default() -> Self {
        SparseLog {
            segs: VecDeque::new(),
            slots: VecDeque::new(),
            compacted_through: 0,
            compacted_term: Term::ZERO,
            sealed_end: 0,
            occupied: 0,
            first_gap: 1,
        }
    }
}

impl SparseLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        SparseLog::default()
    }

    /// The slot offset of `index`, when it falls inside the unsealed tail.
    #[inline]
    fn slot_pos(&self, index: LogIndex) -> Option<usize> {
        let i = index.as_u64();
        if i <= self.sealed_end {
            return None;
        }
        let off = (i - self.sealed_end - 1) as usize;
        (off < self.slots.len()).then_some(off)
    }

    /// The segment holding sealed index `i` and the offset within it.
    /// Precondition: `segs` is non-empty and `segs[0].first <= i <=
    /// sealed_end` (every live sealed index qualifies).
    #[inline]
    fn seg_locate(&self, i: u64) -> (usize, usize) {
        let k = ((i - self.segs[0].first) as usize) / SEG;
        (k, (i - self.segs[k].first) as usize)
    }

    /// The live (above-horizon) sealed entry at `i`, if `i` is sealed.
    #[inline]
    fn sealed_get(&self, i: u64) -> Option<&LogEntry> {
        if i <= self.compacted_through || i > self.sealed_end {
            return None;
        }
        let (k, off) = self.seg_locate(i);
        Some(&self.segs[k].entries[off].1)
    }

    /// Advances the cached first-gap cursor over any occupied run.
    fn advance_first_gap(&mut self) {
        if self.first_gap <= self.sealed_end {
            // The sealed region is hole-free by construction.
            self.first_gap = self.sealed_end + 1;
        }
        while let Some(off) = self.slot_pos(LogIndex(self.first_gap)) {
            if self.slots[off].is_some() {
                self.first_gap += 1;
            } else {
                break;
            }
        }
    }

    /// Drops trailing unoccupied slots so `last_index` stays arithmetic.
    fn trim_back(&mut self) {
        while matches!(self.slots.back(), Some(None)) {
            self.slots.pop_back();
        }
    }

    /// Seals whole segments off the front of the slot tail while the
    /// contiguous occupied prefix extends at least [`SEAL_GUARD`] beyond a
    /// full segment. A move, not a copy: each entry relocates from its slot
    /// into the frozen pair vector exactly once.
    fn maybe_seal(&mut self) {
        while self.first_gap - self.sealed_end > (SEG + SEAL_GUARD) as u64 {
            let first = self.sealed_end + 1;
            let mut entries = Vec::with_capacity(SEG);
            for k in 0..SEG as u64 {
                let e = self
                    .slots
                    .pop_front()
                    .expect("sealable prefix lies inside the stored range")
                    .expect("sealable prefix below first_gap is occupied");
                entries.push((LogIndex(first + k), e));
            }
            self.segs.push_back(Seg {
                first,
                entries: Rc::new(entries),
            });
            self.sealed_end += SEG as u64;
        }
    }

    /// Melts segments back into the slot tail until `sealed_end < index`.
    /// The rare slow path: only conflict truncation, hole punching, or a
    /// genuine replace reaching below the seal boundary pays it.
    fn unseal_to(&mut self, index: u64) {
        while self.sealed_end >= index {
            let seg = self.segs.pop_back().expect("sealed region has segments");
            self.sealed_end = self
                .segs
                .back()
                .map_or(self.compacted_through, Seg::last);
            // Unique segments move their entries back; shared ones (an
            // in-flight EntryList window still references the allocation)
            // are cloned, leaving the window's copy frozen.
            let entries = Rc::try_unwrap(seg.entries).unwrap_or_else(|a| (*a).clone());
            for (i, e) in entries.into_iter().rev() {
                if i.as_u64() > self.compacted_through {
                    self.slots.push_front(Some(e));
                }
            }
        }
    }

    /// The entry at `index`, if present.
    pub fn get(&self, index: LogIndex) -> Option<&LogEntry> {
        if let Some(e) = self.sealed_get(index.as_u64()) {
            return Some(e);
        }
        self.slots[self.slot_pos(index)?].as_ref()
    }

    /// Mutable access to the entry at `index`. Reaching into a sealed
    /// segment is copy-on-write: in-flight [`EntryList`] windows keep the
    /// pre-mutation segment.
    pub fn get_mut(&mut self, index: LogIndex) -> Option<&mut LogEntry> {
        let i = index.as_u64();
        if i > self.compacted_through && i <= self.sealed_end {
            let (k, off) = self.seg_locate(i);
            return Some(&mut Rc::make_mut(&mut self.segs[k].entries)[off].1);
        }
        let off = self.slot_pos(index)?;
        self.slots[off].as_mut()
    }

    /// Inserts (or replaces) the entry at `index`, returning the previous
    /// occupant if any.
    ///
    /// # Panics
    ///
    /// Panics if `index` is the zero sentinel or lies at or below the
    /// compaction horizon (compacted indices are decided and immutable).
    pub fn insert(&mut self, index: LogIndex, entry: LogEntry) -> Option<LogEntry> {
        assert!(!index.is_zero(), "cannot insert at LogIndex::ZERO");
        assert!(
            index.as_u64() > self.compacted_through,
            "cannot insert at {index}: compacted through #{}",
            self.compacted_through
        );
        if let Some(cur) = self.sealed_get(index.as_u64()) {
            if *cur == entry {
                // Idempotent re-insert (a retried or duplicated message):
                // the sealed segment already holds exactly this entry, so
                // the replace is a no-op — don't unseal for it.
                return Some(entry);
            }
            self.unseal_to(index.as_u64());
        }
        let off = (index.as_u64() - self.sealed_end - 1) as usize;
        let old = if off < self.slots.len() {
            self.slots[off].replace(entry)
        } else {
            // Grow the tail: interior slots between the old end and `index`
            // become holes.
            self.slots.resize(off, None);
            self.slots.push_back(Some(entry));
            None
        };
        if old.is_none() {
            self.occupied += 1;
            if index.as_u64() == self.first_gap {
                self.first_gap += 1;
                self.advance_first_gap();
            }
        }
        self.maybe_seal();
        old
    }

    // ------------------------------------------------------------------
    // Compaction
    // ------------------------------------------------------------------

    /// The lowest index still retained as an entry: `compacted_through + 1`.
    /// For an uncompacted log this is [`LogIndex::FIRST`].
    pub fn first_index(&self) -> LogIndex {
        LogIndex(self.compacted_through + 1)
    }

    /// The highest compacted index ([`LogIndex::ZERO`] when nothing has
    /// been compacted).
    pub fn compacted_through(&self) -> LogIndex {
        LogIndex(self.compacted_through)
    }

    /// The term at the compaction horizon (the snapshot's `last_term`).
    pub fn compacted_term(&self) -> Term {
        self.compacted_term
    }

    /// Compacts the contiguous occupied prefix up to `through`, removing
    /// those entries and recording the boundary term. The effective bound is
    /// clamped so compaction **never swallows a hole**: only indices below
    /// [`SparseLog::first_gap`] are eligible. Returns the new compaction
    /// horizon (unchanged if nothing could be compacted).
    pub fn compact_to(&mut self, through: LogIndex) -> LogIndex {
        // Never compact across a hole, and never move backwards.
        let bound = self.first_gap.saturating_sub(1);
        let target = through.as_u64().min(bound);
        if target <= self.compacted_through {
            return self.compacted_through();
        }
        self.compacted_term = self
            .get(LogIndex(target))
            .map(|e| e.term)
            .expect("contiguous prefix below first_gap is occupied");
        // The whole range (compacted_through, target] is occupied (it lies
        // below the first gap).
        self.occupied -= (target - self.compacted_through) as usize;
        self.compacted_through = target;
        if target >= self.sealed_end {
            // The horizon swallowed all sealed history plus a slot prefix.
            self.segs.clear();
            let drained = (target - self.sealed_end) as usize;
            self.slots.drain(..drained);
            self.sealed_end = target;
        } else {
            // Mid-seal horizon: drop segments that fell entirely below it.
            // The boundary segment keeps its now-dead prefix (at most one
            // segment's worth) until the horizon passes its end.
            while self.segs.front().is_some_and(|s| s.last() <= target) {
                self.segs.pop_front();
            }
        }
        self.compacted_through()
    }

    /// Installs a snapshot boundary received from a leader: everything at or
    /// below `last_index` is replaced by the snapshot. If this log holds a
    /// matching entry at `last_index` (same term), the suffix above it is
    /// retained (it is consistent with the snapshot's history); otherwise
    /// the whole log is discarded. Returns `false` (no-op) when the snapshot
    /// is older than the current compaction horizon.
    pub fn install_snapshot(&mut self, last_index: LogIndex, last_term: Term) -> bool {
        let li = last_index.as_u64();
        if li <= self.compacted_through {
            return false;
        }
        let suffix_consistent = self
            .get(last_index)
            .is_some_and(|e| e.term == last_term);
        if suffix_consistent {
            if li <= self.sealed_end {
                // The boundary lands inside sealed history, which is
                // hole-free: the whole covered range was occupied.
                self.occupied -= (li - self.compacted_through) as usize;
                self.compacted_through = li;
                while self.segs.front().is_some_and(|s| s.last() <= li) {
                    self.segs.pop_front();
                }
            } else {
                let sealed_live = (self.sealed_end - self.compacted_through) as usize;
                self.segs.clear();
                let drained = (li - self.sealed_end) as usize;
                let dropped = self
                    .slots
                    .drain(..drained)
                    .filter(Option::is_some)
                    .count();
                self.occupied -= sealed_live + dropped;
                self.compacted_through = li;
                self.sealed_end = li;
            }
        } else {
            self.segs.clear();
            self.slots.clear();
            self.occupied = 0;
            self.compacted_through = li;
            self.sealed_end = li;
        }
        self.compacted_term = last_term;
        self.trim_back();
        self.first_gap = self.compacted_through + 1;
        self.advance_first_gap();
        true
    }

    /// Appends after the current last index, returning the new entry's index.
    pub fn append(&mut self, entry: LogEntry) -> LogIndex {
        let index = self.last_index().next();
        self.slots.push_back(Some(entry));
        self.occupied += 1;
        if index.as_u64() == self.first_gap {
            self.first_gap += 1;
            // Appending lands past every stored slot; nothing above it can
            // already be occupied, so no further advance is needed.
        }
        self.maybe_seal();
        index
    }

    /// Removes the entry at `index`, returning it if present.
    pub fn remove(&mut self, index: LogIndex) -> Option<LogEntry> {
        let i = index.as_u64();
        if self.sealed_get(i).is_some() {
            self.unseal_to(i);
        }
        let off = self.slot_pos(index)?;
        let old = self.slots[off].take();
        if old.is_some() {
            self.occupied -= 1;
            self.first_gap = self.first_gap.min(i);
            self.trim_back();
        }
        old
    }

    /// Removes all entries at `from` and beyond (classic-Raft conflict
    /// truncation). Returns how many entries were removed. Truncation never
    /// reaches below the compaction horizon (those indices hold no entries).
    pub fn truncate_from(&mut self, from: LogIndex) -> usize {
        let cut = from.as_u64().max(self.compacted_through + 1);
        if cut <= self.sealed_end {
            self.unseal_to(cut);
        }
        let off = (cut - self.sealed_end - 1) as usize;
        if off >= self.slots.len() {
            return 0;
        }
        let removed = self
            .slots
            .drain(off..)
            .filter(Option::is_some)
            .count();
        self.occupied -= removed;
        self.first_gap = self.first_gap.min(cut);
        self.trim_back();
        removed
    }

    /// The highest occupied index; for a fully compacted (or empty) log this
    /// is the compaction horizon ([`LogIndex::ZERO`] when never compacted).
    pub fn last_index(&self) -> LogIndex {
        LogIndex(self.sealed_end + self.slots.len() as u64)
    }

    /// The term of the entry at `index`: [`Term::ZERO`] for the sentinel or
    /// a hole, the snapshot boundary term at the compaction horizon.
    pub fn term_at(&self, index: LogIndex) -> Term {
        if index.as_u64() == self.compacted_through && self.compacted_through > 0 {
            return self.compacted_term;
        }
        self.get(index).map_or(Term::ZERO, |e| e.term)
    }

    /// The lowest unoccupied index above the compaction horizon. For a dense
    /// log this is `last_index + 1`; with holes it is the first hole.
    pub fn first_gap(&self) -> LogIndex {
        LogIndex(self.first_gap)
    }

    /// `true` if indices `first_index..=last_index` are all occupied.
    pub fn is_dense(&self) -> bool {
        self.first_gap == self.last_index().as_u64() + 1
    }

    /// Detects a **front gap**: the log holds entries, but the lowest one
    /// sits above `compacted_through + 1`, i.e. a hole starts immediately
    /// after the snapshot horizon. A log grown through normal protocol
    /// operation never front-gaps (compaction only ever consumes a
    /// contiguous occupied prefix); only externally reconstructed views —
    /// C-Raft's global log rebuilt from partially compacted global-state
    /// entries — can. Returns `(horizon, first_retained)` when gapped.
    pub fn front_gap(&self) -> Option<(LogIndex, LogIndex)> {
        if self.occupied == 0 || self.sealed_end > self.compacted_through {
            // Sealed history is contiguous from the horizon: no front gap.
            return None;
        }
        if self.slots.front()?.is_some() {
            return None;
        }
        // The leading run of holes is exactly the front gap; scanning it is
        // proportional to the gap itself, which only the reconstruction
        // path ever creates (and keeps small).
        let lead = self.slots.iter().take_while(|s| s.is_none()).count() as u64;
        Some((
            self.compacted_through(),
            LogIndex(self.compacted_through + 1 + lead),
        ))
    }

    /// Number of occupied indices.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Live sealed `(index, entry)` pairs within `[lo, hi]`, in order.
    /// Yields nothing when the window misses the sealed region.
    fn sealed_range(&self, lo: u64, hi: u64) -> impl Iterator<Item = (LogIndex, &LogEntry)> {
        let lo = lo.max(self.compacted_through + 1);
        let hi = hi.min(self.sealed_end);
        self.segs.iter().flat_map(move |seg| {
            let a = lo.max(seg.first);
            let b = hi.min(seg.last());
            let slice = if a <= b {
                &seg.entries[(a - seg.first) as usize..=(b - seg.first) as usize]
            } else {
                &seg.entries[0..0]
            };
            slice.iter().map(|(i, e)| (*i, e))
        })
    }

    /// Iterates `(index, entry)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (LogIndex, &LogEntry)> {
        self.range(self.first_index(), self.last_index())
    }

    /// The slots of `[from, to]` as (at most) two contiguous slices plus the
    /// absolute index of the first returned slot. O(1) positioning — range
    /// walks start at their offset instead of searching.
    fn slot_slices(
        &self,
        from: LogIndex,
        to: LogIndex,
    ) -> (u64, &[Option<LogEntry>], &[Option<LogEntry>]) {
        let base = self.sealed_end + 1;
        let end = base + self.slots.len() as u64; // exclusive
        let lo = from.as_u64().max(base);
        let hi = to.as_u64().saturating_add(1).min(end); // exclusive
        if lo >= hi {
            return (lo, &[], &[]);
        }
        let (a, b) = ((lo - base) as usize, (hi - base) as usize);
        let (s1, s2) = self.slots.as_slices();
        let n1 = s1.len();
        let first = &s1[a.min(n1)..b.min(n1)];
        let second = &s2[a.saturating_sub(n1)..b.saturating_sub(n1)];
        (lo, first, second)
    }

    /// Iterates occupied `(index, entry)` pairs within `[from, to]`.
    pub fn range(
        &self,
        from: LogIndex,
        to: LogIndex,
    ) -> impl Iterator<Item = (LogIndex, &LogEntry)> {
        let sealed = self.sealed_range(from.as_u64(), to.as_u64());
        let (start, s1, s2) = self.slot_slices(from, to);
        let slots = s1
            .iter()
            .chain(s2)
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|e| (LogIndex(start + i as u64), e)));
        sealed.chain(slots)
    }

    /// Iterates the **contiguous occupied run** starting at `from`: yields
    /// `(from, e)`, `(from+1, e)`, ... and stops at the first hole (or the
    /// end of the log). The protocols' commit scans and decision loops walk
    /// this run as a slice pass instead of issuing per-index lookups.
    pub fn contiguous_from(
        &self,
        from: LogIndex,
    ) -> impl Iterator<Item = (LogIndex, &LogEntry)> {
        let f = from.as_u64();
        let valid = f > self.compacted_through;
        let in_sealed = valid && f <= self.sealed_end;
        // The sealed region is hole-free: a run entering it covers
        // everything up to `sealed_end`, then continues into the slots.
        let sealed = self.sealed_range(
            if in_sealed { f } else { 1 },
            if in_sealed { self.sealed_end } else { 0 },
        );
        let resume = if in_sealed {
            LogIndex(self.sealed_end + 1)
        } else {
            from
        };
        let (start, s1, s2) = self.slot_slices(resume, self.last_index());
        // A clamped start means `resume` itself holds no slot (below the
        // horizon or past the end): the run rooted there is empty.
        let aligned = valid && start == resume.as_u64();
        let slots = s1
            .iter()
            .chain(s2)
            .take_while(move |s| aligned && s.is_some())
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|e| (LogIndex(start + i as u64), e)));
        sealed.chain(slots)
    }

    /// Collects clones of entries in `[from, to]` that are present,
    /// preserving order — the payload of an AppendEntries message.
    pub fn collect_range(&self, from: LogIndex, to: LogIndex) -> Vec<(LogIndex, LogEntry)> {
        self.range(from, to).map(|(i, e)| (i, e.clone())).collect()
    }

    /// Collects the occupied slots of `[from, to]` into an [`EntryList`]
    /// honoring `budget`: admission stops at whichever of the entry-count or
    /// encoded-byte cap binds first, but at least one entry is always taken
    /// when the range holds any (see [`AppendBudget::admits`]).
    ///
    /// The budget charges each entry its `(index, entry)` wire encoding, the
    /// exact bytes it occupies inside an AppendEntries message.
    ///
    /// **Allocation-free fast path**: when the walk starts inside a sealed
    /// segment and the budget (or `to`) binds before the segment ends — the
    /// overwhelmingly common case for follower catch-up, since budgets are
    /// far smaller than the 1024-entry segment — the result is an
    /// [`EntryList`] *window*
    /// onto the segment's shared allocation: one refcount bump, zero entry
    /// clones, zero buffer allocations. Otherwise (walk starts in the slot
    /// tail, or spans a segment boundary) entries clone — `Bytes` payloads
    /// by refcount — into a buffer pre-sized to the admission bound, exactly
    /// the PR 2/PR 5 path.
    pub fn collect_range_budgeted(
        &self,
        from: LogIndex,
        to: LogIndex,
        budget: AppendBudget,
    ) -> EntryList {
        let lo = from.as_u64().max(self.compacted_through + 1);
        let hi = to.as_u64().min(self.last_index().as_u64());
        if lo > hi {
            return EntryList::empty();
        }
        if lo <= self.sealed_end {
            let (k, off) = self.seg_locate(lo);
            let seg = &self.segs[k];
            // Candidates: this segment's entries from `lo`, clamped by `to`.
            let within = ((hi.min(seg.last()) - lo + 1) as usize).min(SEG - off);
            let slice = &seg.entries[off..off + within];
            let mut bytes = 0usize;
            let mut n = 0usize;
            while n < slice.len() {
                let sz = 8 + slice[n].1.encoded_len();
                if !budget.admits(n, bytes, sz) {
                    break;
                }
                bytes += sz;
                n += 1;
            }
            if n < slice.len() || lo + n as u64 - 1 == hi {
                // The budget or the range bound inside this segment: the
                // admitted set is exactly `slice[..n]`, a shareable window.
                return EntryList::view(Rc::clone(&seg.entries), off, n);
            }
            // The budget admits more than this segment holds: fall through
            // to the cloning walk (a cross-segment list cannot be a window).
        }
        let mut out = Vec::with_capacity(((hi - lo + 1) as usize).min(budget.max_entries));
        let mut bytes = 0usize;
        for (i, e) in self.range(from, to) {
            let sz = 8 + e.encoded_len();
            if !budget.admits(out.len(), bytes, sz) {
                break;
            }
            bytes += sz;
            out.push((i, e.clone()));
        }
        EntryList::from_vec(out)
    }

    /// All self-approved entries, for Fast Raft's election recovery (§IV-C).
    pub fn self_approved(&self) -> Vec<(LogIndex, LogEntry)> {
        self.iter()
            .filter(|(_, e)| e.approval == Approval::SelfApproved)
            .map(|(i, e)| (i, e.clone()))
            .collect()
    }

    /// The highest index holding a **leader-approved** entry, which is Fast
    /// Raft's `lastLeaderIndex` (§IV-A).
    pub fn last_leader_index(&self) -> LogIndex {
        let base = self.sealed_end + 1;
        let in_slots = self.slots.iter().enumerate().rev().find_map(|(i, s)| {
            s.as_ref()
                .filter(|e| e.approval == Approval::LeaderApproved)
                .map(|_| LogIndex(base + i as u64))
        });
        if let Some(found) = in_slots {
            return found;
        }
        self.segs
            .iter()
            .rev()
            .flat_map(|seg| seg.entries.iter().rev())
            .take_while(|(i, _)| i.as_u64() > self.compacted_through)
            .find_map(|(i, e)| (e.approval == Approval::LeaderApproved).then_some(*i))
            .unwrap_or(LogIndex::ZERO)
    }

    /// The configuration from the highest-indexed config entry, if any —
    /// "the last configuration appended to the log" (§IV-A).
    pub fn latest_config(&self) -> Option<(LogIndex, &crate::Configuration)> {
        let base = self.sealed_end + 1;
        let in_slots = self.slots.iter().enumerate().rev().find_map(|(i, s)| {
            s.as_ref()
                .and_then(|e| e.as_config().map(|c| (LogIndex(base + i as u64), c)))
        });
        if in_slots.is_some() {
            return in_slots;
        }
        self.segs
            .iter()
            .rev()
            .flat_map(|seg| seg.entries.iter().rev())
            .take_while(|(i, _)| i.as_u64() > self.compacted_through)
            .find_map(|(i, e)| e.as_config().map(|c| (*i, c)))
    }
}

impl PartialEq for SparseLog {
    /// Observational equality: same horizon, same boundary term, and the
    /// same `(index, entry)` sequence. How much of the log happens to be
    /// sealed into segments is history-dependent bookkeeping, excluded from
    /// identity — a recovered log rebuilt entry-by-entry compares equal to
    /// the live log it mirrors.
    fn eq(&self, other: &Self) -> bool {
        self.compacted_through == other.compacted_through
            && self.compacted_term == other.compacted_term
            && self.occupied == other.occupied
            && self.last_index() == other.last_index()
            && self.iter().eq(other.iter())
    }
}

impl Eq for SparseLog {}

impl FromIterator<LogEntry> for SparseLog {
    /// Builds a dense log from entries in order, starting at index 1.
    fn from_iter<I: IntoIterator<Item = LogEntry>>(iter: I) -> Self {
        let mut log = SparseLog::new();
        for e in iter {
            log.append(e);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Configuration, EntryId, NodeId, SessionId};
    use bytes::Bytes;

    fn entry(term: u64, seq: u64) -> LogEntry {
        LogEntry::write(
            Term(term),
            EntryId::new(NodeId(1), seq),
            SessionId::client(1),
            1,
            Bytes::from_static(b"v"),
        )
    }

    /// Enough appends that at least `segs` segments have sealed.
    fn sealed_log(segs: usize) -> SparseLog {
        (0..(segs * SEG + SEG + SEAL_GUARD) as u64)
            .map(|s| entry(1, s))
            .collect()
    }

    #[test]
    fn append_is_dense() {
        let mut log = SparseLog::new();
        assert_eq!(log.append(entry(1, 0)), LogIndex(1));
        assert_eq!(log.append(entry(1, 1)), LogIndex(2));
        assert!(log.is_dense());
        assert_eq!(log.len(), 2);
        assert_eq!(log.first_gap(), LogIndex(3));
    }

    #[test]
    fn sparse_insert_creates_holes() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(5), entry(1, 0));
        assert_eq!(log.last_index(), LogIndex(5));
        assert_eq!(log.first_gap(), LogIndex(1));
        assert!(!log.is_dense());
        log.insert(LogIndex(1), entry(1, 1));
        assert_eq!(log.first_gap(), LogIndex(2));
    }

    #[test]
    fn insert_replaces_and_returns_previous() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(1), entry(1, 0));
        let old = log.insert(LogIndex(1), entry(2, 1));
        assert_eq!(old.unwrap().term, Term(1));
        assert_eq!(log.term_at(LogIndex(1)), Term(2));
    }

    #[test]
    #[should_panic(expected = "LogIndex::ZERO")]
    fn insert_at_zero_panics() {
        SparseLog::new().insert(LogIndex::ZERO, entry(1, 0));
    }

    #[test]
    fn truncate_from_removes_suffix() {
        let mut log: SparseLog = (0..5).map(|s| entry(1, s)).collect();
        assert_eq!(log.truncate_from(LogIndex(3)), 3);
        assert_eq!(log.last_index(), LogIndex(2));
        assert_eq!(log.truncate_from(LogIndex(10)), 0);
    }

    #[test]
    fn truncate_resets_first_gap_and_trims_holes() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(1), entry(1, 0));
        log.insert(LogIndex(2), entry(1, 1));
        log.insert(LogIndex(5), entry(1, 2)); // holes at 3, 4
        assert_eq!(log.truncate_from(LogIndex(5)), 1);
        // The trailing holes at 3 and 4 vanish with the entry above them.
        assert_eq!(log.last_index(), LogIndex(2));
        assert_eq!(log.first_gap(), LogIndex(3));
        assert!(log.is_dense());
    }

    #[test]
    fn remove_pulls_first_gap_back() {
        let mut log: SparseLog = (0..4).map(|s| entry(1, s)).collect();
        assert_eq!(log.first_gap(), LogIndex(5));
        log.remove(LogIndex(2));
        assert_eq!(log.first_gap(), LogIndex(2));
        assert_eq!(log.last_index(), LogIndex(4));
        // Re-filling the hole advances the cursor across the existing run.
        log.insert(LogIndex(2), entry(2, 9));
        assert_eq!(log.first_gap(), LogIndex(5));
    }

    #[test]
    fn term_at_sentinel_and_hole() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(3), entry(4, 0));
        assert_eq!(log.term_at(LogIndex::ZERO), Term::ZERO);
        assert_eq!(log.term_at(LogIndex(1)), Term::ZERO);
        assert_eq!(log.term_at(LogIndex(3)), Term(4));
    }

    #[test]
    fn collect_range_skips_holes() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(1), entry(1, 0));
        log.insert(LogIndex(3), entry(1, 1));
        let got = log.collect_range(LogIndex(1), LogIndex(3));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, LogIndex(1));
        assert_eq!(got[1].0, LogIndex(3));
    }

    #[test]
    fn contiguous_from_stops_at_hole() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(1), entry(1, 0));
        log.insert(LogIndex(2), entry(1, 1));
        log.insert(LogIndex(4), entry(1, 2)); // hole at 3
        let run: Vec<u64> = log
            .contiguous_from(LogIndex(1))
            .map(|(i, _)| i.as_u64())
            .collect();
        assert_eq!(run, vec![1, 2]);
        assert_eq!(log.contiguous_from(LogIndex(3)).count(), 0);
        let run4: Vec<u64> = log
            .contiguous_from(LogIndex(4))
            .map(|(i, _)| i.as_u64())
            .collect();
        assert_eq!(run4, vec![4]);
        // A start below the horizon or above the end yields nothing
        // contiguous with `from` itself.
        assert_eq!(log.contiguous_from(LogIndex(9)).count(), 0);
    }

    #[test]
    fn budgeted_collect_honors_entry_cap() {
        let log: SparseLog = (0..10).map(|s| entry(1, s)).collect();
        let got = log.collect_range_budgeted(
            LogIndex(1),
            LogIndex(10),
            AppendBudget::new(3, usize::MAX),
        );
        assert_eq!(got.len(), 3);
        assert_eq!(got.as_slice()[2].0, LogIndex(3));
    }

    #[test]
    fn budgeted_collect_honors_byte_cap() {
        let log: SparseLog = (0..10).map(|s| entry(1, s)).collect();
        let per_entry = 8 + log.get(LogIndex(1)).unwrap().encoded_len();
        // Room for exactly two entries.
        let got = log.collect_range_budgeted(
            LogIndex(1),
            LogIndex(10),
            AppendBudget::new(128, 2 * per_entry),
        );
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn budgeted_collect_always_takes_one() {
        let log: SparseLog = (0..3).map(|s| entry(1, s)).collect();
        // A byte budget smaller than any entry still yields one entry.
        let got =
            log.collect_range_budgeted(LogIndex(1), LogIndex(3), AppendBudget::new(128, 1));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn budgeted_collect_skips_holes() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(1), entry(1, 0));
        log.insert(LogIndex(4), entry(1, 1));
        let got = log.collect_range_budgeted(
            LogIndex(1),
            LogIndex(4),
            AppendBudget::new(128, usize::MAX),
        );
        assert_eq!(got.len(), 2);
        assert_eq!(got.as_slice()[1].0, LogIndex(4));
    }

    #[test]
    fn self_approved_filter() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(1), entry(1, 0)); // leader-approved
        log.insert(
            LogIndex(2),
            entry(1, 1).with_approval(Approval::SelfApproved),
        );
        log.insert(
            LogIndex(4),
            entry(1, 2).with_approval(Approval::SelfApproved),
        );
        let sa = log.self_approved();
        assert_eq!(sa.len(), 2);
        assert_eq!(sa[0].0, LogIndex(2));
        assert_eq!(sa[1].0, LogIndex(4));
    }

    #[test]
    fn last_leader_index_ignores_self_approved_suffix() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(1), entry(1, 0));
        log.insert(
            LogIndex(2),
            entry(1, 1).with_approval(Approval::SelfApproved),
        );
        assert_eq!(log.last_leader_index(), LogIndex(1));
        assert_eq!(log.last_index(), LogIndex(2));
    }

    #[test]
    fn latest_config_finds_highest() {
        let mut log = SparseLog::new();
        let c1 = Configuration::new([NodeId(1)]);
        let c2 = Configuration::new([NodeId(1), NodeId(2)]);
        log.append(LogEntry::config(Term(1), EntryId::new(NodeId(1), 0), c1));
        log.append(entry(1, 1));
        log.append(LogEntry::config(
            Term(1),
            EntryId::new(NodeId(1), 2),
            c2.clone(),
        ));
        let (idx, cfg) = log.latest_config().unwrap();
        assert_eq!(idx, LogIndex(3));
        assert_eq!(cfg, &c2);
    }

    #[test]
    fn remove_entry() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(2), entry(1, 0));
        assert!(log.remove(LogIndex(2)).is_some());
        assert!(log.remove(LogIndex(2)).is_none());
        assert!(log.is_empty());
    }

    #[test]
    fn compact_removes_prefix_and_keeps_boundary_term() {
        let mut log: SparseLog = (0..5).map(|s| entry(s + 1, s)).collect();
        assert_eq!(log.compact_to(LogIndex(3)), LogIndex(3));
        assert_eq!(log.first_index(), LogIndex(4));
        assert_eq!(log.compacted_through(), LogIndex(3));
        assert_eq!(log.len(), 2);
        assert_eq!(log.last_index(), LogIndex(5));
        // The boundary term survives compaction for log-matching checks.
        assert_eq!(log.term_at(LogIndex(3)), Term(3));
        assert_eq!(log.compacted_term(), Term(3));
        // Holes (removed entries) below the horizon read as Term::ZERO.
        assert_eq!(log.term_at(LogIndex(2)), Term::ZERO);
        assert!(log.is_dense());
        assert_eq!(log.first_gap(), LogIndex(6));
    }

    #[test]
    fn compact_never_swallows_a_hole() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(1), entry(1, 0));
        log.insert(LogIndex(2), entry(1, 1));
        log.insert(LogIndex(4), entry(1, 2)); // hole at 3
        assert_eq!(log.compact_to(LogIndex(4)), LogIndex(2));
        assert_eq!(log.first_index(), LogIndex(3));
        assert!(log.get(LogIndex(4)).is_some());
        // Compaction is monotone: a lower target is a no-op.
        assert_eq!(log.compact_to(LogIndex(1)), LogIndex(2));
    }

    #[test]
    fn fully_compacted_log_keeps_last_index() {
        let mut log: SparseLog = (0..3).map(|s| entry(2, s)).collect();
        log.compact_to(LogIndex(3));
        assert!(log.is_empty());
        assert_eq!(log.last_index(), LogIndex(3));
        assert_eq!(log.term_at(LogIndex(3)), Term(2));
        assert_eq!(log.append(entry(3, 9)), LogIndex(4));
    }

    #[test]
    #[should_panic(expected = "compacted through")]
    fn insert_below_horizon_panics() {
        let mut log: SparseLog = (0..3).map(|s| entry(1, s)).collect();
        log.compact_to(LogIndex(2));
        log.insert(LogIndex(1), entry(1, 9));
    }

    #[test]
    fn install_snapshot_keeps_consistent_suffix() {
        let mut log: SparseLog = (0..5).map(|s| entry(1, s)).collect();
        assert!(log.install_snapshot(LogIndex(3), Term(1)));
        assert_eq!(log.first_index(), LogIndex(4));
        assert_eq!(log.len(), 2);
        assert_eq!(log.last_index(), LogIndex(5));
    }

    #[test]
    fn install_snapshot_discards_conflicting_log() {
        let mut log: SparseLog = (0..5).map(|s| entry(1, s)).collect();
        // Boundary term mismatch: the whole log is unverifiable.
        assert!(log.install_snapshot(LogIndex(3), Term(9)));
        assert!(log.is_empty());
        assert_eq!(log.last_index(), LogIndex(3));
        assert_eq!(log.term_at(LogIndex(3)), Term(9));
    }

    #[test]
    fn install_snapshot_beyond_log_discards_all() {
        let mut log: SparseLog = (0..2).map(|s| entry(1, s)).collect();
        assert!(log.install_snapshot(LogIndex(10), Term(4)));
        assert!(log.is_empty());
        assert_eq!(log.first_index(), LogIndex(11));
        // A stale snapshot is refused.
        assert!(!log.install_snapshot(LogIndex(5), Term(2)));
    }

    #[test]
    fn front_gap_detection_on_reconstructed_view() {
        let mut log = SparseLog::new();
        assert_eq!(log.front_gap(), None);
        log.insert(LogIndex(4), entry(1, 0));
        log.insert(LogIndex(5), entry(1, 1));
        assert_eq!(log.front_gap(), Some((LogIndex::ZERO, LogIndex(4))));
        // Filling the front closes the gap.
        for i in 1..=3u64 {
            log.insert(LogIndex(i), entry(1, 10 + i));
        }
        assert_eq!(log.front_gap(), None);
        assert!(log.is_dense());
    }

    #[test]
    fn layout_is_canonical_for_equality() {
        // Two logs with identical observable content compare equal no
        // matter how they were built (append vs out-of-order insert vs
        // remove-then-insert) — equality is observational.
        let a: SparseLog = (0..3).map(|s| entry(1, s)).collect();
        let mut b = SparseLog::new();
        b.insert(LogIndex(3), entry(1, 2));
        b.insert(LogIndex(1), entry(1, 0));
        b.insert(LogIndex(2), entry(1, 1));
        assert_eq!(a, b);
        let mut c = a.clone();
        c.insert(LogIndex(9), entry(1, 9));
        c.remove(LogIndex(9));
        assert_eq!(a, c);
    }

    // --------------------------------------------------------------
    // Sealed-segment behavior
    // --------------------------------------------------------------

    #[test]
    fn sealing_preserves_every_read_path() {
        let n = (2 * SEG + SEG + SEAL_GUARD) as u64;
        let log = sealed_log(2);
        assert!(log.segs.len() >= 2, "log never sealed");
        assert_eq!(log.last_index(), LogIndex(n));
        assert_eq!(log.len(), n as usize);
        assert!(log.is_dense());
        assert_eq!(log.first_gap(), LogIndex(n + 1));
        // Point reads across the seal boundary.
        for i in [1, SEG as u64, SEG as u64 + 1, log.sealed_end, log.sealed_end + 1, n] {
            let e = log.get(LogIndex(i)).expect("occupied");
            assert_eq!(e.id.seq, i - 1, "wrong entry at {i}");
            assert_eq!(log.term_at(LogIndex(i)), Term(1));
        }
        // Full iteration sees every index exactly once, in order.
        let indices: Vec<u64> = log.iter().map(|(i, _)| i.as_u64()).collect();
        assert_eq!(indices, (1..=n).collect::<Vec<_>>());
        // A contiguous run entered inside the sealed region crosses into
        // the slot tail without a seam.
        let run: Vec<u64> = log
            .contiguous_from(LogIndex(5))
            .map(|(i, _)| i.as_u64())
            .collect();
        assert_eq!(run, (5..=n).collect::<Vec<_>>());
        // Ranges clamp correctly across the boundary.
        let mid: Vec<u64> = log
            .range(LogIndex(log.sealed_end - 1), LogIndex(log.sealed_end + 2))
            .map(|(i, _)| i.as_u64())
            .collect();
        assert_eq!(
            mid,
            vec![log.sealed_end - 1, log.sealed_end, log.sealed_end + 1, log.sealed_end + 2]
        );
    }

    #[test]
    fn budgeted_collect_from_sealed_segment_is_a_window() {
        let log = sealed_log(1);
        let got = log.collect_range_budgeted(
            LogIndex(10),
            log.last_index(),
            AppendBudget::new(64, usize::MAX),
        );
        assert_eq!(got.len(), 64);
        assert_eq!(got.as_slice()[0].0, LogIndex(10));
        assert_eq!(got.as_slice()[63].0, LogIndex(73));
        // Zero-copy: the list points straight into the sealed segment.
        assert!(std::ptr::eq(
            &got.as_slice()[0],
            &log.segs[0].entries[9]
        ));
    }

    #[test]
    fn budgeted_collect_across_seam_matches_window_semantics() {
        let log = sealed_log(2);
        let budget = AppendBudget::new(64, usize::MAX);
        // Start near the end of segment 0: the walk crosses into segment 1,
        // so the result must clone — but with identical admitted entries.
        let from = LogIndex(SEG as u64 - 10);
        let got = log.collect_range_budgeted(from, log.last_index(), budget);
        assert_eq!(got.len(), 64);
        let want: Vec<u64> = (from.as_u64()..from.as_u64() + 64).collect();
        let have: Vec<u64> = got.iter().map(|(i, _)| i.as_u64()).collect();
        assert_eq!(have, want);
        // Crossing from sealed into the slot tail also clones correctly.
        let from2 = LogIndex(log.sealed_end - 10);
        let got2 = log.collect_range_budgeted(from2, log.last_index(), budget);
        assert_eq!(got2.len(), 64);
        assert_eq!(got2.as_slice()[0].0, from2);
        assert_eq!(got2.as_slice()[63].0, LogIndex(from2.as_u64() + 63));
    }

    #[test]
    fn budgeted_collect_window_clamped_by_range_end() {
        let log = sealed_log(1);
        // `to` binds inside the segment: still a window, exactly 5 entries.
        let got = log.collect_range_budgeted(
            LogIndex(10),
            LogIndex(14),
            AppendBudget::new(64, usize::MAX),
        );
        assert_eq!(got.len(), 5);
        assert_eq!(got.as_slice()[4].0, LogIndex(14));
        assert!(std::ptr::eq(&got.as_slice()[0], &log.segs[0].entries[9]));
    }

    #[test]
    fn idempotent_reinsert_into_sealed_segment_does_not_unseal() {
        let mut log = sealed_log(1);
        let before = log.segs.len();
        let same = log.get(LogIndex(7)).unwrap().clone();
        let old = log.insert(LogIndex(7), same.clone());
        assert_eq!(old, Some(same));
        assert_eq!(log.segs.len(), before, "idempotent re-insert unsealed");
    }

    #[test]
    fn conflicting_insert_into_sealed_segment_unseals_and_replaces() {
        let mut log = sealed_log(1);
        let n = log.last_index();
        let old = log.insert(LogIndex(7), entry(9, 777));
        assert_eq!(old.unwrap().term, Term(1));
        assert_eq!(log.get(LogIndex(7)).unwrap().term, Term(9));
        assert_eq!(log.last_index(), n);
        assert_eq!(log.len(), n.as_u64() as usize);
        assert!(log.is_dense());
        // Content above and below the replaced index is untouched.
        assert_eq!(log.get(LogIndex(6)).unwrap().id.seq, 5);
        assert_eq!(log.get(LogIndex(8)).unwrap().id.seq, 7);
    }

    #[test]
    fn unseal_leaves_inflight_windows_frozen() {
        let mut log = sealed_log(1);
        let window = log.collect_range_budgeted(
            LogIndex(5),
            LogIndex(8),
            AppendBudget::new(8, usize::MAX),
        );
        log.insert(LogIndex(7), entry(9, 777)); // unseals segment 0
        // The in-flight window still reads the pre-mutation entries.
        assert_eq!(window.len(), 4);
        assert_eq!(window.as_slice()[2].1.term, Term(1));
        assert_eq!(log.get(LogIndex(7)).unwrap().term, Term(9));
    }

    #[test]
    fn truncate_into_sealed_region_unseals() {
        let mut log = sealed_log(2);
        let removed = log.truncate_from(LogIndex(100));
        assert_eq!(removed as u64, log_len_before_truncate(2) - 99);
        assert_eq!(log.last_index(), LogIndex(99));
        assert_eq!(log.first_gap(), LogIndex(100));
        assert!(log.is_dense());
        assert_eq!(log.len(), 99);
        assert_eq!(log.get(LogIndex(99)).unwrap().id.seq, 98);
    }

    fn log_len_before_truncate(segs: u64) -> u64 {
        segs * SEG as u64 + (SEG + SEAL_GUARD) as u64
    }

    #[test]
    fn remove_inside_sealed_region_unseals_and_pulls_gap_back() {
        let mut log = sealed_log(1);
        assert!(log.remove(LogIndex(3)).is_some());
        assert_eq!(log.first_gap(), LogIndex(3));
        assert!(log.get(LogIndex(3)).is_none());
        assert!(log.get(LogIndex(2)).is_some());
        assert!(log.get(LogIndex(4)).is_some());
        // Re-filling advances the cursor back across the whole run.
        log.insert(LogIndex(3), entry(2, 999));
        assert_eq!(log.first_gap(), LogIndex(log.last_index().as_u64() + 1));
    }

    #[test]
    fn compaction_inside_sealed_segment_keeps_boundary() {
        let mut log = sealed_log(2);
        // Mid-segment horizon: inside segment 0.
        assert_eq!(log.compact_to(LogIndex(100)), LogIndex(100));
        assert_eq!(log.first_index(), LogIndex(101));
        assert_eq!(log.get(LogIndex(100)), None);
        assert_eq!(log.term_at(LogIndex(100)), Term(1));
        assert!(log.get(LogIndex(101)).is_some());
        assert_eq!(log.iter().next().unwrap().0, LogIndex(101));
        // Advancing past segment 0's end drops it entirely.
        let segs_before = log.segs.len();
        log.compact_to(LogIndex(SEG as u64 + 5));
        assert_eq!(log.segs.len(), segs_before - 1);
        assert_eq!(log.first_index(), LogIndex(SEG as u64 + 6));
        // Compacting past all sealed history lands back in the slots.
        let horizon = log.sealed_end + 3;
        log.compact_to(LogIndex(horizon));
        assert!(log.segs.is_empty());
        assert_eq!(log.first_index(), LogIndex(horizon + 1));
        assert_eq!(
            log.len() as u64,
            log_len_before_truncate(2) - horizon
        );
    }

    #[test]
    fn install_snapshot_into_sealed_region_keeps_suffix() {
        let mut log = sealed_log(2);
        let n = log.last_index();
        assert!(log.install_snapshot(LogIndex(SEG as u64 + 50), Term(1)));
        assert_eq!(log.first_index(), LogIndex(SEG as u64 + 51));
        assert_eq!(log.last_index(), n);
        assert!(log.get(LogIndex(SEG as u64 + 51)).is_some());
        assert_eq!(
            log.len() as u64,
            n.as_u64() - (SEG as u64 + 50)
        );
        // Equality against a freshly rebuilt log with the same content.
        let mut rebuilt = SparseLog::new();
        rebuilt.install_snapshot(LogIndex(SEG as u64 + 50), Term(1));
        for (i, e) in log.iter() {
            rebuilt.insert(i, e.clone());
        }
        assert_eq!(log, rebuilt);
    }

    #[test]
    fn equality_is_independent_of_seal_layout() {
        // `a` grows from index 1 then compacts mid-segment: its segments
        // are anchored at index 1 and segment 0 keeps a dead prefix.
        let mut a = sealed_log(1);
        a.compact_to(LogIndex(100));
        // `b` is rebuilt from the snapshot boundary (the recovery path):
        // its segments are anchored at index 101.
        let mut b = SparseLog::new();
        b.install_snapshot(LogIndex(100), Term(1));
        for (i, e) in a.iter() {
            b.insert(i, e.clone());
        }
        assert_ne!(
            a.segs[0].first, b.segs[0].first,
            "layouts should differ"
        );
        assert_eq!(a, b);
        assert_eq!(b, a);
    }
}
