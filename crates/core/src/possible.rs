//! The leader's `possibleEntries` structure (§IV-A).
//!
//! For each log index the leader tracks which entries sites voted for and by
//! whom. The decision rule (§IV-B): once a classic quorum of votes exists
//! for index `k`, insert the entry with the most votes; if a fast quorum
//! voted for the same entry, it can be committed on the fast track.
//!
//! A *null vote* records that a site responded for an index but its vote no
//! longer names a candidate (its entry was chosen elsewhere, §IV-B step d).
//! Null votes count toward "a classic quorum of votes has been received" but
//! never win.
//!
//! The book is flat: one slot per tracked index in a deque kept in index
//! order, each slot holding its voters and its few candidates inline.
//! Recording a vote and releasing committed indices touch the heap only
//! until the slots have grown to the working set — the leader pays this on
//! every `Vote` of every committed write.

use std::collections::VecDeque;

use wire::{EntryId, LogEntry, LogIndex, NodeId};

/// Sites a [`SiteSet`] holds before it spills to the heap: configurations
/// are at most tens of sites, and a quorum of the paper's largest (§VI).
const INLINE_SITES: usize = 16;

/// A small sorted set of sites, inline up to [`INLINE_SITES`].
#[derive(Clone, Debug)]
enum SiteSet {
    Inline {
        len: usize,
        sites: [NodeId; INLINE_SITES],
    },
    Spilled(Vec<NodeId>),
}

impl Default for SiteSet {
    fn default() -> Self {
        SiteSet::Inline {
            len: 0,
            sites: [NodeId(0); INLINE_SITES],
        }
    }
}

impl SiteSet {
    /// The members, ascending.
    fn as_slice(&self) -> &[NodeId] {
        match self {
            SiteSet::Inline { len, sites } => &sites[..*len],
            SiteSet::Spilled(sites) => sites,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn insert(&mut self, site: NodeId) {
        let Err(at) = self.as_slice().binary_search(&site) else {
            return;
        };
        match self {
            SiteSet::Inline { len, sites } if *len < INLINE_SITES => {
                sites.copy_within(at..*len, at + 1);
                sites[at] = site;
                *len += 1;
            }
            SiteSet::Inline { sites, .. } => {
                let mut spilled = sites.to_vec();
                spilled.insert(at, site);
                *self = SiteSet::Spilled(spilled);
            }
            SiteSet::Spilled(sites) => sites.insert(at, site),
        }
    }

    fn remove(&mut self, site: NodeId) {
        let Ok(at) = self.as_slice().binary_search(&site) else {
            return;
        };
        match self {
            SiteSet::Inline { len, sites } => {
                sites.copy_within(at + 1..*len, at);
                *len -= 1;
            }
            SiteSet::Spilled(sites) => {
                sites.remove(at);
            }
        }
    }

    fn clear(&mut self) {
        match self {
            SiteSet::Inline { len, .. } => *len = 0,
            SiteSet::Spilled(sites) => sites.clear(),
        }
    }
}

/// One candidate entry at an index, with the sites that voted for it.
#[derive(Clone, Debug)]
struct Candidate {
    entry: LogEntry,
    voters: SiteSet,
}

/// Votes gathered for one log index.
#[derive(Clone, Debug, Default)]
struct IndexVotes {
    /// Candidate entries in ascending proposal-id order, each with at
    /// least one voter.
    candidates: Vec<Candidate>,
    /// Every site that has voted for this index (including null votes).
    voters: SiteSet,
}

impl IndexVotes {
    fn candidate(&self, id: EntryId) -> Option<&Candidate> {
        self.candidates
            .binary_search_by(|c| c.entry.id.cmp(&id))
            .ok()
            .map(|at| &self.candidates[at])
    }
}

/// The leader's per-index vote book.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use consensus_core::PossibleEntries;
/// use wire::{EntryId, LogEntry, LogIndex, NodeId, SessionId, Term};
///
/// let mut pe = PossibleEntries::new();
/// let id = EntryId::new(NodeId(9), 0);
/// let e = LogEntry::write(Term(1), id, SessionId::client(1), 1, Bytes::from_static(b"v"));
/// pe.record_vote(LogIndex(1), e.clone(), NodeId(1));
/// pe.record_vote(LogIndex(1), e.clone(), NodeId(2));
/// assert_eq!(pe.voters_at(LogIndex(1)), 2);
/// let (winner, voters) = pe.most_voted(LogIndex(1)).unwrap();
/// assert_eq!(winner.id, e.id);
/// assert_eq!(voters.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PossibleEntries {
    /// Tracked indices, ascending. Votes arrive for the few indices right
    /// above the commit point, so lookups and inserts work near the back
    /// and releases pop the front.
    by_index: VecDeque<(LogIndex, IndexVotes)>,
    /// Released slots, emptied, kept for the capacity of their candidate
    /// lists.
    spare: Vec<IndexVotes>,
}

impl PossibleEntries {
    /// An empty vote book.
    pub fn new() -> Self {
        PossibleEntries::default()
    }

    fn slot(&self, index: LogIndex) -> Option<&IndexVotes> {
        let at = self.by_index.binary_search_by_key(&index, |(i, _)| *i).ok()?;
        Some(&self.by_index[at].1)
    }

    fn slot_mut(&mut self, index: LogIndex) -> &mut IndexVotes {
        let at = match self.by_index.binary_search_by_key(&index, |(i, _)| *i) {
            Ok(at) => at,
            Err(at) => {
                let fresh = self.spare.pop().unwrap_or_default();
                self.by_index.insert(at, (index, fresh));
                at
            }
        };
        &mut self.by_index[at].1
    }

    /// Records `voter`'s vote for `entry` at `index`. Re-votes by the same
    /// site for a different entry at the same index replace its earlier vote
    /// (a site's log slot holds one entry at a time).
    pub fn record_vote(&mut self, index: LogIndex, entry: LogEntry, voter: NodeId) {
        let slot = self.slot_mut(index);
        // Remove any previous candidate vote by this site at this index.
        slot.candidates.retain_mut(|c| {
            if c.entry.id != entry.id {
                c.voters.remove(voter);
            }
            !c.voters.is_empty()
        });
        slot.voters.insert(voter);
        let at = match slot
            .candidates
            .binary_search_by(|c| c.entry.id.cmp(&entry.id))
        {
            Ok(at) => at,
            Err(at) => {
                let voters = SiteSet::default();
                slot.candidates.insert(at, Candidate { entry, voters });
                at
            }
        };
        slot.candidates[at].voters.insert(voter);
    }

    /// Records a null vote: the site responded for `index` but names no
    /// candidate.
    pub fn record_null_vote(&mut self, index: LogIndex, voter: NodeId) {
        self.slot_mut(index).voters.insert(voter);
    }

    /// Number of distinct sites that have voted for `index` (null included).
    pub fn voters_at(&self, index: LogIndex) -> usize {
        self.slot(index).map_or(0, |s| s.voters.len())
    }

    /// The candidate with the most votes at `index` and its voters
    /// (ascending), ties broken by the smallest proposal id (the paper
    /// allows arbitrary tie-breaks; a deterministic one keeps simulations
    /// reproducible).
    pub fn most_voted(&self, index: LogIndex) -> Option<(&LogEntry, &[NodeId])> {
        self.slot(index)?
            .candidates
            .iter()
            .max_by(|a, b| {
                a.voters
                    .len()
                    .cmp(&b.voters.len())
                    .then_with(|| b.entry.id.cmp(&a.entry.id))
            })
            .map(|c| (&c.entry, c.voters.as_slice()))
    }

    /// Vote count for a specific candidate at `index`.
    pub fn votes_for(&self, index: LogIndex, id: EntryId) -> usize {
        self.voters_for(index, id).len()
    }

    /// The voters for a specific candidate at `index`, ascending.
    pub fn voters_for(&self, index: LogIndex, id: EntryId) -> &[NodeId] {
        self.slot(index)
            .and_then(|s| s.candidate(id))
            .map_or(&[], |c| c.voters.as_slice())
    }

    /// Step (d) of the decision rule: after choosing `id` at `chosen_index`,
    /// convert its candidacies at **other** indices into null votes so the
    /// same proposal is not inserted twice.
    pub fn null_out_elsewhere(&mut self, id: EntryId, chosen_index: LogIndex) {
        for (idx, slot) in self.by_index.iter_mut() {
            if *idx == chosen_index {
                continue;
            }
            if let Ok(at) = slot.candidates.binary_search_by(|c| c.entry.id.cmp(&id)) {
                slot.candidates.remove(at);
            }
        }
    }

    /// Drops all state at and below `index` (already-committed indices).
    pub fn release_through(&mut self, index: LogIndex) {
        while self.by_index.front().is_some_and(|(i, _)| *i <= index) {
            let (_, mut slot) = self.by_index.pop_front().expect("front checked");
            slot.candidates.clear();
            slot.voters.clear();
            self.spare.push(slot);
        }
    }

    /// The highest index with any recorded vote.
    pub fn max_index(&self) -> LogIndex {
        self.by_index.back().map_or(LogIndex::ZERO, |(i, _)| *i)
    }

    /// Indices currently holding votes, ascending.
    pub fn indices(&self) -> Vec<LogIndex> {
        self.by_index.iter().map(|(i, _)| *i).collect()
    }

    /// Total number of indices tracked.
    pub fn len(&self) -> usize {
        self.by_index.len()
    }

    /// `true` if no votes are tracked.
    pub fn is_empty(&self) -> bool {
        self.by_index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use wire::{SessionId, Term};

    fn entry(seq: u64) -> LogEntry {
        LogEntry::write(
            Term(1),
            EntryId::new(NodeId(100), seq),
            SessionId::client(1),
            1,
            Bytes::from_static(b"v"),
        )
    }

    #[test]
    fn majority_candidate_wins() {
        let mut pe = PossibleEntries::new();
        let e = entry(0);
        let f = entry(1);
        for v in 1..=3 {
            pe.record_vote(LogIndex(1), e.clone(), NodeId(v));
        }
        pe.record_vote(LogIndex(1), f.clone(), NodeId(4));
        let (winner, voters) = pe.most_voted(LogIndex(1)).unwrap();
        assert_eq!(winner.id, e.id);
        assert_eq!(voters.len(), 3);
        assert_eq!(pe.voters_at(LogIndex(1)), 4);
        assert_eq!(pe.votes_for(LogIndex(1), f.id), 1);
    }

    #[test]
    fn tie_breaks_deterministically_by_smallest_id() {
        let mut pe = PossibleEntries::new();
        let e = entry(0);
        let f = entry(1);
        pe.record_vote(LogIndex(1), f.clone(), NodeId(1));
        pe.record_vote(LogIndex(1), e.clone(), NodeId(2));
        let (winner, _) = pe.most_voted(LogIndex(1)).unwrap();
        assert_eq!(winner.id, e.id, "smallest id wins ties");
    }

    #[test]
    fn revote_replaces_previous_choice() {
        let mut pe = PossibleEntries::new();
        let e = entry(0);
        let f = entry(1);
        pe.record_vote(LogIndex(1), e.clone(), NodeId(1));
        pe.record_vote(LogIndex(1), f.clone(), NodeId(1));
        assert_eq!(pe.votes_for(LogIndex(1), e.id), 0);
        assert_eq!(pe.votes_for(LogIndex(1), f.id), 1);
        assert_eq!(pe.voters_at(LogIndex(1)), 1, "one site, one voter slot");
    }

    #[test]
    fn duplicate_vote_is_idempotent() {
        let mut pe = PossibleEntries::new();
        let e = entry(0);
        pe.record_vote(LogIndex(1), e.clone(), NodeId(1));
        pe.record_vote(LogIndex(1), e.clone(), NodeId(1));
        assert_eq!(pe.votes_for(LogIndex(1), e.id), 1);
    }

    #[test]
    fn null_votes_count_toward_quorum_but_never_win() {
        let mut pe = PossibleEntries::new();
        pe.record_null_vote(LogIndex(2), NodeId(1));
        pe.record_null_vote(LogIndex(2), NodeId(2));
        assert_eq!(pe.voters_at(LogIndex(2)), 2);
        assert!(pe.most_voted(LogIndex(2)).is_none());
        let e = entry(0);
        pe.record_vote(LogIndex(2), e.clone(), NodeId(3));
        assert_eq!(pe.most_voted(LogIndex(2)).unwrap().0.id, e.id);
        assert_eq!(pe.voters_at(LogIndex(2)), 3);
    }

    #[test]
    fn null_out_elsewhere_keeps_chosen_index() {
        let mut pe = PossibleEntries::new();
        let e = entry(0);
        pe.record_vote(LogIndex(1), e.clone(), NodeId(1));
        pe.record_vote(LogIndex(2), e.clone(), NodeId(2));
        pe.null_out_elsewhere(e.id, LogIndex(1));
        assert_eq!(pe.votes_for(LogIndex(1), e.id), 1);
        assert_eq!(pe.votes_for(LogIndex(2), e.id), 0);
        // The voter at index 2 still counts as having responded.
        assert_eq!(pe.voters_at(LogIndex(2)), 1);
    }

    #[test]
    fn release_through_gcs_committed_indices() {
        let mut pe = PossibleEntries::new();
        for i in 1..=5u64 {
            pe.record_vote(LogIndex(i), entry(i), NodeId(1));
        }
        pe.release_through(LogIndex(3));
        assert_eq!(pe.indices(), vec![LogIndex(4), LogIndex(5)]);
        assert_eq!(pe.max_index(), LogIndex(5));
        assert_eq!(pe.len(), 2);
    }

    #[test]
    fn empty_book() {
        let pe = PossibleEntries::new();
        assert!(pe.is_empty());
        assert_eq!(pe.max_index(), LogIndex::ZERO);
        assert_eq!(pe.voters_at(LogIndex(1)), 0);
        assert!(pe.most_voted(LogIndex(1)).is_none());
    }
}

/// The flat book against the nested-B-tree book it replaced.
#[cfg(test)]
mod model {
    use std::collections::{BTreeMap, BTreeSet};

    use bytes::Bytes;
    use proptest::prelude::*;
    use wire::{SessionId, Term};

    use super::*;

    /// The previous representation, kept as the reference model.
    #[derive(Default)]
    struct TreeBook {
        by_index: BTreeMap<LogIndex, TreeVotes>,
    }

    #[derive(Default)]
    struct TreeVotes {
        candidates: BTreeMap<EntryId, (LogEntry, BTreeSet<NodeId>)>,
        voters: BTreeSet<NodeId>,
    }

    impl TreeBook {
        fn record_vote(&mut self, index: LogIndex, entry: LogEntry, voter: NodeId) {
            let slot = self.by_index.entry(index).or_default();
            let previous: Vec<EntryId> = slot
                .candidates
                .iter()
                .filter(|(id, (_, voters))| voters.contains(&voter) && **id != entry.id)
                .map(|(id, _)| *id)
                .collect();
            for id in previous {
                if let Some((_, voters)) = slot.candidates.get_mut(&id) {
                    voters.remove(&voter);
                    if voters.is_empty() {
                        slot.candidates.remove(&id);
                    }
                }
            }
            slot.voters.insert(voter);
            slot.candidates
                .entry(entry.id)
                .or_insert_with(|| (entry, BTreeSet::new()))
                .1
                .insert(voter);
        }

        fn record_null_vote(&mut self, index: LogIndex, voter: NodeId) {
            self.by_index.entry(index).or_default().voters.insert(voter);
        }

        fn voters_at(&self, index: LogIndex) -> usize {
            self.by_index.get(&index).map_or(0, |s| s.voters.len())
        }

        fn most_voted(&self, index: LogIndex) -> Option<(&LogEntry, Vec<NodeId>)> {
            let slot = self.by_index.get(&index)?;
            slot.candidates
                .iter()
                .max_by(|(id_a, (_, va)), (id_b, (_, vb))| {
                    va.len().cmp(&vb.len()).then_with(|| id_b.cmp(id_a))
                })
                .map(|(_, (e, v))| (e, v.iter().copied().collect()))
        }

        fn voters_for(&self, index: LogIndex, id: EntryId) -> Vec<NodeId> {
            self.by_index
                .get(&index)
                .and_then(|s| s.candidates.get(&id))
                .map(|(_, v)| v.iter().copied().collect())
                .unwrap_or_default()
        }

        fn null_out_elsewhere(&mut self, id: EntryId, chosen_index: LogIndex) {
            for (&idx, slot) in self.by_index.iter_mut() {
                if idx != chosen_index {
                    slot.candidates.remove(&id);
                }
            }
        }

        fn release_through(&mut self, index: LogIndex) {
            self.by_index = self.by_index.split_off(&index.next());
        }

        fn max_index(&self) -> LogIndex {
            self.by_index
                .keys()
                .next_back()
                .copied()
                .unwrap_or(LogIndex::ZERO)
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Vote { index: u64, seq: u64, voter: u64 },
        NullVote { index: u64, voter: u64 },
        NullOut { seq: u64, chosen: u64 },
        Release { through: u64 },
    }

    /// Few indices, few candidates (two proposers, so id order is not seq
    /// order) and more voters than a `SiteSet` holds inline: re-votes, ties
    /// and the heap spill all come up within a short sequence.
    fn arb_op() -> impl Strategy<Value = Op> {
        let vote = || {
            (1..5u64, 0..4u64, 0..20u64)
                .prop_map(|(index, seq, voter)| Op::Vote { index, seq, voter })
        };
        prop_oneof![
            vote(),
            vote(),
            vote(),
            (1..5u64, 0..20u64).prop_map(|(index, voter)| Op::NullVote { index, voter }),
            (0..4u64, 1..5u64).prop_map(|(seq, chosen)| Op::NullOut { seq, chosen }),
            (0..5u64).prop_map(|through| Op::Release { through }),
        ]
    }

    fn id(seq: u64) -> EntryId {
        EntryId::new(NodeId(100 - seq % 2), seq)
    }

    fn entry(seq: u64, voter: u64) -> LogEntry {
        // The payload names the first voter: the book must keep the entry
        // of a candidate's first vote, not a later one.
        LogEntry::write(Term(1), id(seq), SessionId::client(1), 1, Bytes::from(vec![voter as u8]))
    }

    fn assert_equivalent(book: &PossibleEntries, model: &TreeBook) {
        assert_eq!(book.len(), model.by_index.len(), "len");
        assert_eq!(book.is_empty(), model.by_index.is_empty(), "is_empty");
        assert_eq!(book.max_index(), model.max_index(), "max_index");
        let indices: Vec<LogIndex> = model.by_index.keys().copied().collect();
        assert_eq!(book.indices(), indices, "indices");
        for index in (0..6).map(LogIndex) {
            assert_eq!(book.voters_at(index), model.voters_at(index), "voters_at");
            let got = book.most_voted(index).map(|(e, v)| (e, v.to_vec()));
            assert_eq!(got, model.most_voted(index), "most_voted({index})");
            for seq in 0..4 {
                let want = model.voters_for(index, id(seq));
                assert_eq!(book.voters_for(index, id(seq)), want, "voters_for");
                assert_eq!(book.votes_for(index, id(seq)), want.len(), "votes_for");
            }
        }
    }

    #[test]
    fn sets_past_inline_capacity_match_the_model() {
        let mut book = PossibleEntries::new();
        let mut model = TreeBook::default();
        // Descending voters, so every insert lands at the front of the set.
        for voter in (0..3 * INLINE_SITES as u64).rev() {
            let e = entry(voter % 2, voter);
            book.record_vote(LogIndex(1), e.clone(), NodeId(voter));
            model.record_vote(LogIndex(1), e, NodeId(voter));
            assert_equivalent(&book, &model);
        }
        // Every site re-votes for candidate 0: candidate 1 empties and goes.
        for voter in 0..3 * INLINE_SITES as u64 {
            let e = entry(0, voter);
            book.record_vote(LogIndex(1), e.clone(), NodeId(voter));
            model.record_vote(LogIndex(1), e, NodeId(voter));
            assert_equivalent(&book, &model);
        }
        assert_eq!(book.votes_for(LogIndex(1), id(1)), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 256,
            ..ProptestConfig::default()
        })]

        #[test]
        fn flat_book_matches_nested_btree_model(
            ops in proptest::collection::vec(arb_op(), 1..120)
        ) {
            let mut book = PossibleEntries::new();
            let mut model = TreeBook::default();
            for op in ops {
                match op {
                    Op::Vote { index, seq, voter } => {
                        let e = entry(seq, voter);
                        book.record_vote(LogIndex(index), e.clone(), NodeId(voter));
                        model.record_vote(LogIndex(index), e, NodeId(voter));
                    }
                    Op::NullVote { index, voter } => {
                        book.record_null_vote(LogIndex(index), NodeId(voter));
                        model.record_null_vote(LogIndex(index), NodeId(voter));
                    }
                    Op::NullOut { seq, chosen } => {
                        book.null_out_elsewhere(id(seq), LogIndex(chosen));
                        model.null_out_elsewhere(id(seq), LogIndex(chosen));
                    }
                    Op::Release { through } => {
                        book.release_through(LogIndex(through));
                        model.release_through(LogIndex(through));
                    }
                }
                assert_equivalent(&book, &model);
            }
        }
    }
}
