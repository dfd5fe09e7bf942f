//! Membership configurations and replication budgets.
//!
//! A configuration is the set of voting members of a consensus group. It is
//! replicated through the log itself (a configuration entry); each site obeys
//! the configuration most recently *inserted* into its log (§III-A, §IV-D of
//! the paper). Safety requires configurations change by **one site at a
//! time**, which [`Configuration::diff_is_single_change`] lets callers check.
//!
//! [`AppendBudget`] caps how much one `AppendEntries` dispatch may carry —
//! by entry count *and* by encoded bytes, because in the wide-area regimes
//! the paper targets the binding constraint is link capacity, not entry
//! count.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::{classic_quorum, fast_quorum, NodeId};

/// The set of voting members of a consensus group.
///
/// Internally ordered (a `BTreeSet`) so iteration — and therefore message
/// emission order, and therefore whole-simulation traces — is deterministic.
///
/// # Examples
///
/// ```
/// use wire::{Configuration, NodeId};
///
/// let cfg = Configuration::new([NodeId(1), NodeId(2), NodeId(3)]);
/// assert_eq!(cfg.len(), 3);
/// assert_eq!(cfg.classic_quorum(), 2);
/// assert_eq!(cfg.fast_quorum(), 3);
/// assert!(cfg.contains(NodeId(2)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Configuration {
    members: BTreeSet<NodeId>,
}

impl Configuration {
    /// Creates a configuration from any collection of members.
    pub fn new(members: impl IntoIterator<Item = NodeId>) -> Self {
        Configuration {
            members: members.into_iter().collect(),
        }
    }

    /// The empty configuration (used only as a pre-bootstrap placeholder).
    pub fn empty() -> Self {
        Configuration::default()
    }

    /// Number of voting members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if there are no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// `true` if `node` is a voting member.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// Members other than `me`, in ascending id order.
    pub fn peers(&self, me: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied().filter(move |&n| n != me)
    }

    /// Classic (majority) quorum size for this configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is empty.
    pub fn classic_quorum(&self) -> usize {
        classic_quorum(self.members.len())
    }

    /// Fast quorum size (`⌈3m/4⌉`) for this configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is empty.
    pub fn fast_quorum(&self) -> usize {
        fast_quorum(self.members.len())
    }

    /// A new configuration with `node` added.
    #[must_use]
    pub fn with_member(&self, node: NodeId) -> Configuration {
        let mut members = self.members.clone();
        members.insert(node);
        Configuration { members }
    }

    /// A new configuration with `node` removed.
    #[must_use]
    pub fn without_member(&self, node: NodeId) -> Configuration {
        let mut members = self.members.clone();
        members.remove(&node);
        Configuration { members }
    }

    /// `true` if `next` differs from `self` by at most one added **or**
    /// removed member — the precondition for safe reconfiguration (§IV-D).
    pub fn diff_is_single_change(&self, next: &Configuration) -> bool {
        let added = next.members.difference(&self.members).count();
        let removed = self.members.difference(&next.members).count();
        added + removed <= 1
    }

    /// Members as a sorted `Vec`, for wire encoding and display.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.members.iter().copied().collect()
    }
}

/// Byte- and entry-count budget for one replication batch.
///
/// Batch assembly admits entries until **either** cap is reached, but always
/// admits at least one entry so an over-sized single entry cannot wedge
/// replication: a batch with one entry is valid regardless of its size, and
/// the follower's ack lets the window advance past it.
///
/// # Examples
///
/// ```
/// use wire::AppendBudget;
///
/// let budget = AppendBudget::new(128, 1024);
/// assert!(budget.admits(0, 0, 4096));      // first entry always fits
/// assert!(!budget.admits(1, 900, 200));    // would exceed the byte cap
/// assert!(!budget.admits(128, 0, 1));      // entry cap reached
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppendBudget {
    /// Maximum entries per batch.
    pub max_entries: usize,
    /// Maximum encoded payload bytes per batch.
    pub max_bytes: usize,
}

impl AppendBudget {
    /// Creates a budget from both caps.
    ///
    /// # Panics
    ///
    /// Panics if either cap is zero (a zero budget could never replicate).
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        assert!(max_entries > 0, "entry budget must be positive");
        assert!(max_bytes > 0, "byte budget must be positive");
        AppendBudget {
            max_entries,
            max_bytes,
        }
    }

    /// `true` if a batch already holding `entries` entries of `bytes` total
    /// encoded size may admit one more entry of `next_bytes`.
    pub fn admits(&self, entries: usize, bytes: usize, next_bytes: usize) -> bool {
        if entries == 0 {
            return true; // guarantee progress
        }
        entries < self.max_entries && bytes.saturating_add(next_bytes) <= self.max_bytes
    }
}

/// Encoded payload bytes one AppendEntries dispatch may carry (64 KiB): the
/// byte half of every [`AppendBudget`] the protocols build. Models a
/// per-dispatch link budget — wide-area bandwidth is bounded by bytes, not
/// entry count. A single over-sized entry still ships alone, so replication
/// always makes progress.
pub const MAX_BYTES_PER_APPEND: usize = 64 * 1024;

impl FromIterator<NodeId> for Configuration {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        Configuration::new(iter)
    }
}

impl Extend<NodeId> for Configuration {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        self.members.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Configuration {
    type Item = NodeId;
    type IntoIter = std::iter::Copied<std::collections::btree_set::Iter<'a, NodeId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.members.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ids: impl IntoIterator<Item = u64>) -> Configuration {
        Configuration::new(ids.into_iter().map(NodeId))
    }

    #[test]
    fn quorum_sizes_track_membership() {
        let five = cfg(0..5);
        assert_eq!(five.classic_quorum(), 3);
        assert_eq!(five.fast_quorum(), 4);
        let three = five.without_member(NodeId(0)).without_member(NodeId(1));
        assert_eq!(three.classic_quorum(), 2);
        assert_eq!(three.fast_quorum(), 3);
    }

    #[test]
    fn peers_excludes_self() {
        let c = cfg(0..3);
        let peers: Vec<NodeId> = c.peers(NodeId(1)).collect();
        assert_eq!(peers, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn with_and_without_member() {
        let c = cfg(0..2);
        let grown = c.with_member(NodeId(9));
        assert!(grown.contains(NodeId(9)));
        assert_eq!(grown.len(), 3);
        // Adding an existing member is a no-op.
        assert_eq!(grown.with_member(NodeId(9)), grown);
        let shrunk = grown.without_member(NodeId(0));
        assert!(!shrunk.contains(NodeId(0)));
        assert_eq!(shrunk.len(), 2);
    }

    #[test]
    fn single_change_detection() {
        let c = cfg(0..3);
        assert!(c.diff_is_single_change(&c));
        assert!(c.diff_is_single_change(&c.with_member(NodeId(7))));
        assert!(c.diff_is_single_change(&c.without_member(NodeId(0))));
        // Replacing one member is two changes.
        let swapped = c.without_member(NodeId(0)).with_member(NodeId(7));
        assert!(!c.diff_is_single_change(&swapped));
        // Adding two at once is two changes.
        let grown2 = c.with_member(NodeId(7)).with_member(NodeId(8));
        assert!(!c.diff_is_single_change(&grown2));
    }

    #[test]
    fn iteration_is_sorted_and_deterministic() {
        let c = Configuration::new([NodeId(5), NodeId(1), NodeId(3)]);
        let order: Vec<u64> = c.iter().map(NodeId::as_u64).collect();
        assert_eq!(order, vec![1, 3, 5]);
        assert_eq!(c.to_vec().len(), 3);
    }

    #[test]
    fn collect_and_extend() {
        let c: Configuration = (0..4).map(NodeId).collect();
        assert_eq!(c.len(), 4);
        let mut c2 = c.clone();
        c2.extend([NodeId(10)]);
        assert_eq!(c2.len(), 5);
    }
}
