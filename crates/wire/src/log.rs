//! The replicated log, allowing holes.
//!
//! Classic Raft treats the log as a dense, append-only list. Fast Raft lets
//! proposers address specific indices directly, so a follower can hold an
//! entry at index `i` while index `j < i` is still empty (§III-B). The log
//! is therefore logically a sparse map from index to entry; classic Raft
//! simply maintains the invariant that it never creates holes.
//!
//! ## Representation: a block-pooled slot tail
//!
//! Holes are rare and *structured*: they only ever live in the bounded
//! in-flight window above the contiguous committed prefix (§IV), so the
//! dominant-case shape of the log is a dense array, not a search tree. The
//! log stores it as one [`SlotTail`]: an `Option<LogEntry>` slot per index
//! from the compaction horizon + 1 to the last index, so slot `i` holds
//! index `compacted_through + 1 + i`. The slots live in fixed blocks of
//! [`BLOCK`] slots, kept in a deque of blocks. AppendEntries assembly
//! ([`SparseLog::collect_range_budgeted`]) clones the admitted entries, in
//! one budgeted pass, into an [`EntryList`] buffer the log recycles.
//!
//! Why fixed blocks rather than one growable ring of slots: a log that
//! compacts at 1,024 retained entries peaks just above that, and a ring
//! doubles to the next power of two (2,048 slots) and stays half empty. A
//! block tail holds its high-water mark rounded up to one block, and its
//! entries never move when it grows. Compaction, snapshot installation and
//! truncation empty whole blocks; each log keeps its emptied blocks in a
//! **pool** and draws from it before it allocates, so a compacting log
//! stops allocating once its tail has reached its high-water mark. Like a
//! `VecDeque`'s capacity, the pool never shrinks: a log holds as many
//! blocks as its tail ever needed at once. `Clone` copies the live blocks
//! only.
//!
//! ## Recycled AppendEntries lists
//!
//! Each log also keeps handles to the [`EntryList`] buffers it has handed
//! out, in a [`Recycler`]: a collect rewrites the oldest kept buffer only
//! while [`Rc::get_mut`] proves the log's handle is the only one, i.e. no
//! message, copy or caller still holds the list; otherwise it allocates a
//! new buffer and keeps that handle too. A list anyone can read is
//! therefore never written, and a log whose sent lists drop before its next
//! dispatch reuses the same few buffers and allocates nothing. A log keeps
//! at most [`BLOCK`] list handles, far more than the recipients of the
//! dispatches one message delay spans; a clone starts with no lists and no
//! block pool.
//!
//! `get`/`term_at` are O(1) loads (a shift and a mask, then one block
//! lookup), appends/inserts fill slots, compaction and truncation are
//! front/back drains, range walks step through whole block slices, and an
//! occupancy count plus a cached [`SparseLog::first_gap`] cursor keep hole
//! queries O(1) amortized.
//!
//! Where the tail's first slot sits in its first block, and what the pools
//! hold, depend on the *order* of operations; `PartialEq` and `Debug`
//! therefore show observable content only (horizon, boundary term, and the
//! slots), so logs that went through different histories but hold the same
//! entries still compare equal.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use crate::{AppendBudget, Approval, EntryList, LogEntry, LogIndex, Recycler, Term, Wire};

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

/// Slots per block of the slot tail. A power of two, so locating a slot is
/// a shift and a mask.
const BLOCK: usize = 128;

/// One fixed-size run of slot-tail slots.
type Block = [Option<LogEntry>; BLOCK];

/// A fresh all-empty block. A named function, so allocation profiles
/// (`alloc_sites peak`) show slot storage as its own row.
fn new_block() -> Box<Block> {
    vec![None; BLOCK]
        .into_boxed_slice()
        .try_into()
        .expect("a BLOCK-long slice")
}

/// The log's slots: a deque of `len` slots stored in fixed [`BLOCK`]-slot
/// blocks, plus a pool of emptied blocks and the log's list buffers.
///
/// Slot `i` lives at position `head + i` of the concatenated blocks.
/// `blocks` holds exactly the blocks that contain a live slot, and every
/// slot outside `head..head + len` is `None`, so a block leaves the deque
/// empty and can be handed out again as it is.
#[derive(Default)]
struct SlotTail {
    /// The blocks covering positions `head..head + len`.
    blocks: VecDeque<Box<Block>>,
    /// Position of slot 0 within `blocks[0]` (0 when the tail is empty).
    head: usize,
    /// Number of slots.
    len: usize,
    /// Emptied blocks, drawn from before a new one is allocated.
    pool: Vec<Box<Block>>,
    /// The AppendEntries buffers the log has handed out, rewritten oldest
    /// first once unique.
    lists: Recycler<Vec<(LogIndex, LogEntry)>>,
}

impl fmt::Debug for SlotTail {
    /// The live slots, as a list.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Clone for SlotTail {
    /// Copies the live blocks; the copy starts with empty pools.
    fn clone(&self) -> Self {
        SlotTail {
            blocks: self.blocks.clone(),
            head: self.head,
            len: self.len,
            ..SlotTail::default()
        }
    }
}

impl SlotTail {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, i: usize) -> &Option<LogEntry> {
        debug_assert!(i < self.len);
        let p = self.head + i;
        &self.blocks[p / BLOCK][p % BLOCK]
    }

    fn get_mut(&mut self, i: usize) -> &mut Option<LogEntry> {
        debug_assert!(i < self.len);
        let p = self.head + i;
        &mut self.blocks[p / BLOCK][p % BLOCK]
    }

    /// An empty block: a pooled one if any, else a new allocation.
    fn take_block(&mut self) -> Box<Block> {
        self.pool.pop().unwrap_or_else(new_block)
    }

    /// Adds `n` empty slots (holes) at the back.
    fn push_holes(&mut self, n: usize) {
        self.len += n;
        while self.blocks.len() * BLOCK < self.head + self.len {
            let block = self.take_block();
            self.blocks.push_back(block);
        }
    }

    fn push_back(&mut self, slot: Option<LogEntry>) {
        let p = self.head + self.len;
        if p == self.blocks.len() * BLOCK {
            let block = self.take_block();
            self.blocks.push_back(block);
        }
        self.blocks[p / BLOCK][p % BLOCK] = slot;
        self.len += 1;
    }

    fn pop_back(&mut self) -> Option<Option<LogEntry>> {
        self.len.checked_sub(1)?;
        let slot = self.get_mut(self.len - 1).take();
        self.len -= 1;
        self.release();
        Some(slot)
    }

    /// Empties the first `n` slots; returns how many held an entry.
    fn drain_front(&mut self, n: usize) -> usize {
        let removed = self.take_all(0, n);
        self.head += n;
        self.len -= n;
        self.release();
        removed
    }

    /// Empties the slots from `at` on; returns how many held an entry.
    fn truncate(&mut self, at: usize) -> usize {
        let removed = self.take_all(at, self.len);
        self.len = at;
        self.release();
        removed
    }

    /// Empties slots `a..b`; returns how many held an entry.
    fn take_all(&mut self, a: usize, b: usize) -> usize {
        let (blocks, within) = self.span(a, b);
        self.blocks
            .range_mut(blocks)
            .enumerate()
            .map(|(k, block)| block[within(k)].iter_mut().filter_map(Option::take).count())
            .sum()
    }

    /// Moves blocks that hold no live slot into the pool.
    fn release(&mut self) {
        if self.len == 0 {
            self.pool.extend(self.blocks.drain(..));
            self.head = 0;
            return;
        }
        while self.head >= BLOCK {
            self.pool.extend(self.blocks.pop_front());
            self.head -= BLOCK;
        }
        let needed = (self.head + self.len).div_ceil(BLOCK);
        while self.blocks.len() > needed {
            self.pool.extend(self.blocks.pop_back());
        }
    }

    /// Where slots `a..b` live: the range of blocks holding them, and the
    /// slot range within the `k`-th block of that range.
    fn span(&self, a: usize, b: usize) -> (Range<usize>, impl Fn(usize) -> Range<usize>) {
        let (a, b) = (self.head + a, self.head + b.max(a));
        let first = a / BLOCK;
        let within = move |k: usize| {
            let base = (first + k) * BLOCK;
            a.saturating_sub(base)..(b - base).min(BLOCK)
        };
        (first..b.div_ceil(BLOCK), within)
    }

    /// Slots `a..b` as whole block slices, in order.
    fn chunks(&self, a: usize, b: usize) -> impl DoubleEndedIterator<Item = &[Option<LogEntry>]> {
        let (blocks, within) = self.span(a, b);
        self.blocks
            .range(blocks)
            .enumerate()
            .map(move |(k, block)| &block[within(k)])
    }

    /// Every slot, in order.
    fn iter(&self) -> impl DoubleEndedIterator<Item = &Option<LogEntry>> {
        self.chunks(0, self.len).flatten()
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
    /// Dense slot tail: slot `i` holds the entry at index
    /// `compacted_through + 1 + i`. The last slot, if any, is occupied.
    slots: SlotTail,
    /// Highest compacted (snapshotted) index; 0 = nothing compacted.
    compacted_through: u64,
    /// Term of the (removed) entry at `compacted_through` — the snapshot
    /// boundary term, needed for log-matching at the compaction horizon.
    compacted_term: Term,
    /// Number of occupied (live) indices.
    occupied: usize,
    /// Cached lowest unoccupied index above the compaction horizon.
    first_gap: u64,
}

impl Default for SparseLog {
    fn default() -> Self {
        SparseLog {
            slots: SlotTail::default(),
            compacted_through: 0,
            compacted_term: Term::ZERO,
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

    /// The slot offset of `index`, when it falls inside the slot tail.
    #[inline]
    fn slot_pos(&self, index: LogIndex) -> Option<usize> {
        let off = index.as_u64().checked_sub(self.compacted_through + 1)? as usize;
        (off < self.slots.len()).then_some(off)
    }

    /// Advances the cached first-gap cursor over any occupied run.
    fn advance_first_gap(&mut self) {
        while let Some(off) = self.slot_pos(LogIndex(self.first_gap)) {
            if self.slots.get(off).is_some() {
                self.first_gap += 1;
            } else {
                break;
            }
        }
    }

    /// Drops trailing unoccupied slots so `last_index` stays arithmetic.
    fn trim_back(&mut self) {
        while matches!(self.slots.iter().next_back(), Some(None)) {
            self.slots.pop_back();
        }
    }

    /// The entry at `index`, if present.
    pub fn get(&self, index: LogIndex) -> Option<&LogEntry> {
        self.slots.get(self.slot_pos(index)?).as_ref()
    }

    /// Mutable access to the entry at `index`. An [`EntryList`] cut from the
    /// log earlier holds its own copy, so it keeps the pre-mutation entry.
    pub fn get_mut(&mut self, index: LogIndex) -> Option<&mut LogEntry> {
        let off = self.slot_pos(index)?;
        self.slots.get_mut(off).as_mut()
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
        let off = (index.as_u64() - self.compacted_through - 1) as usize;
        let old = if off < self.slots.len() {
            self.slots.get_mut(off).replace(entry)
        } else {
            // Grow the tail: interior slots between the old end and `index`
            // become holes.
            self.slots.push_holes(off - self.slots.len());
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
        let drained = (target - self.compacted_through) as usize;
        self.occupied -= drained;
        self.slots.drain_front(drained);
        self.compacted_through = target;
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
        let suffix_consistent = self.get(last_index).is_some_and(|e| e.term == last_term);
        if suffix_consistent {
            let drained = (li - self.compacted_through) as usize;
            self.occupied -= self.slots.drain_front(drained);
        } else {
            self.slots.truncate(0);
            self.occupied = 0;
        }
        self.compacted_through = li;
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
        index
    }

    /// Removes the entry at `index`, returning it if present.
    pub fn remove(&mut self, index: LogIndex) -> Option<LogEntry> {
        let off = self.slot_pos(index)?;
        let old = self.slots.get_mut(off).take();
        if old.is_some() {
            self.occupied -= 1;
            self.first_gap = self.first_gap.min(index.as_u64());
            self.trim_back();
        }
        old
    }

    /// Removes all entries at `from` and beyond (classic-Raft conflict
    /// truncation). Returns how many entries were removed. Truncation never
    /// reaches below the compaction horizon (those indices hold no entries).
    pub fn truncate_from(&mut self, from: LogIndex) -> usize {
        let cut = from.as_u64().max(self.compacted_through + 1);
        let off = (cut - self.compacted_through - 1) as usize;
        if off >= self.slots.len() {
            return 0;
        }
        let removed = self.slots.truncate(off);
        self.occupied -= removed;
        self.first_gap = self.first_gap.min(cut);
        self.trim_back();
        removed
    }

    /// The highest occupied index; for a fully compacted (or empty) log this
    /// is the compaction horizon ([`LogIndex::ZERO`] when never compacted).
    pub fn last_index(&self) -> LogIndex {
        LogIndex(self.compacted_through + self.slots.len() as u64)
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
    /// after the snapshot horizon. Returns `(horizon, first_retained)` when
    /// gapped.
    ///
    /// A leading hole alone is no fault. Compaction only ever consumes a
    /// contiguous occupied prefix and commits never cross a hole, so in a
    /// log grown through protocol operation the hole lies above the commit
    /// point: an in-flight Fast Raft hole (§III-B), which a later proposal
    /// or the leader's hole repair fills. Only a view rebuilt from records
    /// can lack entries it once held: C-Raft's global log, reconstructed
    /// from global-state entries local compaction may have discarded, so
    /// that reconstruction is the one caller that reports a front gap.
    pub fn front_gap(&self) -> Option<(LogIndex, LogIndex)> {
        // An empty log has no slots (the last slot is always occupied).
        if self.slots.iter().next()?.is_some() {
            return None;
        }
        // The leading run of holes is exactly the front gap; scanning it is
        // proportional to the gap itself.
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

    /// Iterates `(index, entry)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (LogIndex, &LogEntry)> {
        self.range(self.first_index(), self.last_index())
    }

    /// The slots of `[from, to]`, walked as whole block slices, plus their
    /// absolute indices. O(1) positioning — range walks start at their
    /// offset instead of searching.
    fn slot_run(
        &self,
        from: LogIndex,
        to: LogIndex,
    ) -> (Range<u64>, impl Iterator<Item = &Option<LogEntry>>) {
        let base = self.compacted_through + 1;
        let end = base + self.slots.len() as u64; // exclusive
        let lo = from.as_u64().clamp(base, end);
        let hi = to.as_u64().saturating_add(1).min(end).max(lo); // exclusive
        let slots = self
            .slots
            .chunks((lo - base) as usize, (hi - base) as usize);
        (lo..hi, slots.flatten())
    }

    /// Iterates occupied `(index, entry)` pairs within `[from, to]`.
    pub fn range(
        &self,
        from: LogIndex,
        to: LogIndex,
    ) -> impl Iterator<Item = (LogIndex, &LogEntry)> {
        let (run, slots) = self.slot_run(from, to);
        slots
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|e| (LogIndex(run.start + i as u64), e)))
    }

    /// Iterates the **contiguous occupied run** starting at `from`: yields
    /// `(from, e)`, `(from+1, e)`, ... and stops at the first hole (or the
    /// end of the log). The protocols' commit scans and decision loops walk
    /// this run as a slice pass instead of issuing per-index lookups.
    pub fn contiguous_from(&self, from: LogIndex) -> impl Iterator<Item = (LogIndex, &LogEntry)> {
        // A start at or below the horizon holds no slot: the run rooted
        // there is empty.
        let valid = from.as_u64() > self.compacted_through;
        let (run, slots) = self.slot_run(from, self.last_index());
        slots
            .take_while(move |s| valid && s.is_some())
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|e| (LogIndex(run.start + i as u64), e)))
    }

    /// Collects the occupied slots of `[from, to]` into an [`EntryList`]
    /// honoring `budget`: admission stops at whichever of the entry-count or
    /// encoded-byte cap binds first, but at least one entry is always taken
    /// when the range holds any (see [`AppendBudget::admits`]).
    ///
    /// The budget charges each entry its `(index, entry)` wire encoding, the
    /// exact bytes it occupies inside an AppendEntries message.
    ///
    /// One pass clones the admitted entries — `Bytes` payloads by refcount
    /// — into a pooled buffer no earlier list still holds (see the module
    /// docs), or else into a new one with room for the range's slots up to
    /// the budget's entry cap. An empty range is the empty list and takes no
    /// buffer.
    pub fn collect_range_budgeted(
        &mut self,
        from: LogIndex,
        to: LogIndex,
        budget: AppendBudget,
    ) -> EntryList {
        let (run, slots) = self.slot_run(from, to);
        if slots.flatten().next().is_none() {
            return EntryList::empty();
        }
        let mut list = self.slots.lists.take(Vec::new);
        let buf = Rc::get_mut(&mut list).expect("a taken list is unique");
        buf.clear();
        buf.reserve(budget.max_entries.min((run.end - run.start) as usize));
        let mut bytes = 0;
        for (i, e) in self.range(from, to) {
            let sz = 8 + e.encoded_len();
            if !budget.admits(buf.len(), bytes, sz) {
                break;
            }
            bytes += sz;
            buf.push((i, e.clone()));
        }
        self.slots.lists.keep(&list, BLOCK);
        EntryList(Some(list))
    }

    /// The slot tail from its last slot down, each slot with its index.
    fn slots_rev(&self) -> impl Iterator<Item = (LogIndex, &Option<LogEntry>)> {
        let indices = (self.compacted_through + 1..=self.last_index().as_u64()).rev();
        indices.map(LogIndex).zip(self.slots.iter().rev())
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
        self.slots_rev()
            .find_map(|(i, s)| {
                s.as_ref()
                    .filter(|e| e.approval == Approval::LeaderApproved)
                    .map(|_| i)
            })
            .unwrap_or(LogIndex::ZERO)
    }

    /// The configuration from the highest-indexed config entry, if any —
    /// "the last configuration appended to the log" (§IV-A).
    pub fn latest_config(&self) -> Option<(LogIndex, &crate::Configuration)> {
        self.slots_rev()
            .find_map(|(i, s)| s.as_ref().and_then(|e| e.as_config().map(|c| (i, c))))
    }
}

impl PartialEq for SparseLog {
    /// Observational equality: same horizon, same boundary term, and the
    /// same slots. Where the slots sit in their blocks and what the pools
    /// hold are history-dependent bookkeeping, excluded from identity — a
    /// recovered log rebuilt entry-by-entry compares equal to the live log
    /// it mirrors.
    fn eq(&self, other: &Self) -> bool {
        self.compacted_through == other.compacted_through
            && self.compacted_term == other.compacted_term
            && self.slots.len() == other.slots.len()
            && self.slots.iter().eq(other.slots.iter())
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

    /// A budget no range reaches.
    const UNBOUNDED: AppendBudget = AppendBudget {
        max_entries: usize::MAX,
        max_bytes: usize::MAX,
    };

    #[test]
    fn collect_range_skips_holes() {
        let mut log = SparseLog::new();
        log.insert(LogIndex(1), entry(1, 0));
        log.insert(LogIndex(3), entry(1, 1));
        let got = log.collect_range_budgeted(LogIndex(1), LogIndex(3), UNBOUNDED);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, LogIndex(1));
        assert_eq!(got[1].0, LogIndex(3));
        // A range wholly past the end, even by many blocks, is empty.
        assert!(log
            .collect_range_budgeted(LogIndex(1_000), LogIndex(2_000), UNBOUNDED)
            .is_empty());
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
        assert_eq!(log.contiguous_from(LogIndex(1_000)).count(), 0);
    }

    #[test]
    fn budgeted_collect_honors_entry_cap() {
        let mut log: SparseLog = (0..10).map(|s| entry(1, s)).collect();
        let got =
            log.collect_range_budgeted(LogIndex(1), LogIndex(10), AppendBudget::new(3, usize::MAX));
        assert_eq!(got.len(), 3);
        assert_eq!(got.as_slice()[2].0, LogIndex(3));
    }

    #[test]
    fn budgeted_collect_honors_byte_cap() {
        let mut log: SparseLog = (0..10).map(|s| entry(1, s)).collect();
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
        let mut log: SparseLog = (0..3).map(|s| entry(1, s)).collect();
        // A byte budget smaller than any entry still yields one entry.
        let got = log.collect_range_budgeted(LogIndex(1), LogIndex(3), AppendBudget::new(128, 1));
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
    fn a_list_buffer_is_rewritten_only_once_no_list_holds_it() {
        let mut log: SparseLog = (0..9).map(|s| entry(1, s)).collect();
        let first = log.collect_range_budgeted(LogIndex(1), LogIndex(3), UNBOUNDED);
        let held = first.to_vec();
        let buffer = first.as_ptr();
        // Held: the next list gets a buffer of its own, and the held one is
        // unchanged.
        let second = log.collect_range_budgeted(LogIndex(4), LogIndex(6), UNBOUNDED);
        assert_ne!(second.as_ptr(), buffer);
        assert_eq!(first.as_slice(), held.as_slice());
        assert_eq!(log.slots.lists.len(), 2);
        // Every copy dropped: the buffer is rewritten in place.
        let copy = first.clone();
        drop(first);
        let third = log.collect_range_budgeted(LogIndex(7), LogIndex(9), UNBOUNDED);
        assert_ne!(third.as_ptr(), buffer, "a copy still holds it");
        drop(copy);
        drop(third);
        let fourth = log.collect_range_budgeted(LogIndex(7), LogIndex(9), UNBOUNDED);
        assert_eq!(fourth[0].0, LogIndex(7));
        assert_eq!(fourth.as_ptr(), buffer, "the oldest free buffer is reused");
        assert_eq!(log.slots.lists.len(), 3);
        // An empty range takes no buffer.
        assert!(log
            .collect_range_budgeted(LogIndex(10), LogIndex(20), UNBOUNDED)
            .is_empty());
        assert_eq!(log.slots.lists.len(), 3);
    }

    #[test]
    fn clone_debug_and_equality_ignore_the_list_pool() {
        let mut log: SparseLog = (0..4).map(|s| entry(1, s)).collect();
        let bare = log.clone();
        let list = log.collect_range_budgeted(LogIndex(1), LogIndex(4), UNBOUNDED);
        assert_eq!(log.slots.lists.len(), 1);
        let copy = log.clone();
        assert_eq!(copy.slots.lists.len(), 0, "a clone starts with no lists");
        assert_eq!(log, bare);
        assert_eq!(format!("{log:?}"), format!("{bare:?}"));
        assert_eq!(list.len(), 4);
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
    // Long logs: many blocks of slots
    // --------------------------------------------------------------

    /// A dense log of `n` entries; the entry at index `i` has seq `i - 1`.
    fn long_log(n: u64) -> SparseLog {
        (0..n).map(|s| entry(1, s)).collect()
    }

    #[test]
    fn every_read_path_spans_a_long_log() {
        let b = BLOCK as u64;
        let n = 20 * b + 7;
        let log = long_log(n);
        assert_eq!(log.last_index(), LogIndex(n));
        assert_eq!(log.len(), n as usize);
        assert!(log.is_dense());
        assert_eq!(log.first_gap(), LogIndex(n + 1));
        // Point reads on both sides of block boundaries.
        for i in [1, b, b + 1, 10 * b, 10 * b + 1, n] {
            let e = log.get(LogIndex(i)).expect("occupied");
            assert_eq!(e.id.seq, i - 1, "wrong entry at {i}");
            assert_eq!(log.term_at(LogIndex(i)), Term(1));
        }
        // Full iteration sees every index exactly once, in order.
        let indices: Vec<u64> = log.iter().map(|(i, _)| i.as_u64()).collect();
        assert_eq!(indices, (1..=n).collect::<Vec<_>>());
        // A contiguous run crosses every block boundary without a seam.
        let run: Vec<u64> = log
            .contiguous_from(LogIndex(5))
            .map(|(i, _)| i.as_u64())
            .collect();
        assert_eq!(run, (5..=n).collect::<Vec<_>>());
        // Ranges clamp correctly across a boundary.
        let mid: Vec<u64> = log
            .range(LogIndex(b - 1), LogIndex(b + 2))
            .map(|(i, _)| i.as_u64())
            .collect();
        assert_eq!(mid, vec![b - 1, b, b + 1, b + 2]);
    }

    #[test]
    fn budgeted_collect_across_seam_matches_window_semantics() {
        let b = BLOCK as u64;
        let mut log = long_log(4 * b);
        let budget = AppendBudget::new(64, usize::MAX);
        // Start just below the seam between the first two slot blocks: the
        // walk crosses it with exactly the window's entries.
        let from = LogIndex(b - 10);
        let got = log.collect_range_budgeted(from, log.last_index(), budget);
        let want: Vec<u64> = (from.as_u64()..from.as_u64() + 64).collect();
        let have: Vec<u64> = got.iter().map(|(i, _)| i.as_u64()).collect();
        assert_eq!(have, want);
        // After compaction moves the first slot mid-block, seams sit at
        // different offsets from the horizon; the walk is unchanged.
        log.compact_to(LogIndex(50));
        let from2 = LogIndex(2 * b - 10);
        let got2 = log.collect_range_budgeted(from2, log.last_index(), budget);
        assert_eq!(got2.len(), 64);
        assert_eq!(got2.as_slice()[0].0, from2);
        assert_eq!(got2.as_slice()[63].0, LogIndex(from2.as_u64() + 63));
    }

    #[test]
    fn budgeted_collect_window_clamped_by_range_end() {
        let mut log = long_log(3 * BLOCK as u64);
        // `to` binds before the budget: exactly 5 entries.
        let got = log.collect_range_budgeted(
            LogIndex(10),
            LogIndex(14),
            AppendBudget::new(64, usize::MAX),
        );
        assert_eq!(got.len(), 5);
        assert_eq!(got.as_slice()[0].0, LogIndex(10));
        assert_eq!(got.as_slice()[4].0, LogIndex(14));
    }

    #[test]
    fn idempotent_reinsert_returns_it_and_leaves_log_equal() {
        let mut log = long_log(3 * BLOCK as u64);
        let before = log.clone();
        for i in [LogIndex(7), log.last_index()] {
            let same = log.get(i).unwrap().clone();
            assert_eq!(log.insert(i, same.clone()), Some(same));
        }
        assert_eq!(log, before);
        assert!(log.is_dense());
    }

    #[test]
    fn equality_is_independent_of_block_layout() {
        // `a` grows from index 1 then compacts mid-block: its first slot
        // sits 100 slots into its first block.
        let mut a = long_log(3 * BLOCK as u64);
        a.compact_to(LogIndex(100));
        // `b` is rebuilt from the snapshot boundary (the recovery path):
        // its first slot opens its first block.
        let mut b = SparseLog::new();
        b.install_snapshot(LogIndex(100), Term(1));
        for (i, e) in a.iter() {
            b.insert(i, e.clone());
        }
        assert_ne!(a.slots.head, b.slots.head, "layouts should differ");
        assert_eq!(a, b);
        assert_eq!(b, a);
    }
}
