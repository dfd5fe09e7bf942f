//! Network partitions: administratively blocked links.
//!
//! Partitions are orthogonal to random loss: a blocked link drops *every*
//! message until healed. Supports pairwise blocks, full node isolation, and
//! group partitions (every cross-group link blocked).

use des::IdSet;
use wire::NodeId;

/// The set of currently blocked communication links.
///
/// Blocks are **symmetric**: blocking `(a, b)` blocks both directions, which
/// matches how real partitions behave and keeps experiment configuration
/// simple.
///
/// # Examples
///
/// ```
/// use simnet::PartitionSet;
/// use wire::NodeId;
///
/// let mut parts = PartitionSet::new();
/// parts.block_pair(NodeId(1), NodeId(2));
/// assert!(parts.is_blocked(NodeId(2), NodeId(1)));
/// parts.heal_all();
/// assert!(!parts.is_blocked(NodeId(1), NodeId(2)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct PartitionSet {
    blocked_pairs: IdSet<(NodeId, NodeId)>,
    /// Directed cuts: `(from, to)` blocks only `from → to`.
    blocked_one_way: IdSet<(NodeId, NodeId)>,
    isolated: IdSet<NodeId>,
}

impl PartitionSet {
    /// No partitions.
    pub fn new() -> Self {
        PartitionSet::default()
    }

    fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Blocks the (symmetric) link between `a` and `b`.
    pub fn block_pair(&mut self, a: NodeId, b: NodeId) {
        self.blocked_pairs.insert(Self::key(a, b));
    }

    /// Unblocks the link between `a` and `b` (no-op if not blocked).
    pub fn heal_pair(&mut self, a: NodeId, b: NodeId) {
        self.blocked_pairs.remove(&Self::key(a, b));
    }

    /// Cuts a node off from everyone.
    pub fn isolate(&mut self, node: NodeId) {
        self.isolated.insert(node);
    }

    /// Reconnects an isolated node.
    pub fn reconnect(&mut self, node: NodeId) {
        self.isolated.remove(&node);
    }

    /// Blocks only the `from → to` direction (an asymmetric cut: `to` can
    /// still reach `from`). One-way cuts model routing asymmetries and
    /// half-open links — the failure shape where a node hears heartbeats it
    /// cannot answer, which symmetric partitions can never produce.
    pub fn block_one_way(&mut self, from: NodeId, to: NodeId) {
        self.blocked_one_way.insert((from, to));
    }

    /// Removes a directed cut (no-op if absent; does not affect symmetric
    /// blocks covering the same pair).
    pub fn heal_one_way(&mut self, from: NodeId, to: NodeId) {
        self.blocked_one_way.remove(&(from, to));
    }

    /// Splits the network into two sides, blocking every cross-side link.
    pub fn split(&mut self, side_a: &[NodeId], side_b: &[NodeId]) {
        for &a in side_a {
            for &b in side_b {
                self.block_pair(a, b);
            }
        }
    }

    /// Cuts only the `side_a → side_b` direction of every cross-side link.
    pub fn split_one_way(&mut self, side_a: &[NodeId], side_b: &[NodeId]) {
        for &a in side_a {
            for &b in side_b {
                self.block_one_way(a, b);
            }
        }
    }

    /// Removes all blocks and isolations.
    pub fn heal_all(&mut self) {
        self.blocked_pairs.clear();
        self.blocked_one_way.clear();
        self.isolated.clear();
    }

    /// `true` if traffic from `from` to `to` is currently blocked.
    pub fn is_blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.isolated.contains(&from)
            || self.isolated.contains(&to)
            || self.blocked_pairs.contains(&Self::key(from, to))
            || self.blocked_one_way.contains(&(from, to))
    }

    /// `true` if no blocks are active.
    pub fn is_clear(&self) -> bool {
        self.blocked_pairs.is_empty()
            && self.blocked_one_way.is_empty()
            && self.isolated.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_is_symmetric() {
        let mut p = PartitionSet::new();
        p.block_pair(NodeId(2), NodeId(1));
        assert!(p.is_blocked(NodeId(1), NodeId(2)));
        assert!(p.is_blocked(NodeId(2), NodeId(1)));
        p.heal_pair(NodeId(1), NodeId(2));
        assert!(p.is_clear());
    }

    #[test]
    fn isolation_blocks_everything() {
        let mut p = PartitionSet::new();
        p.isolate(NodeId(3));
        assert!(p.is_blocked(NodeId(3), NodeId(1)));
        assert!(p.is_blocked(NodeId(1), NodeId(3)));
        assert!(!p.is_blocked(NodeId(1), NodeId(2)));
        p.reconnect(NodeId(3));
        assert!(p.is_clear());
    }

    #[test]
    fn split_blocks_cross_side_only() {
        let mut p = PartitionSet::new();
        let a = [NodeId(1), NodeId(2)];
        let b = [NodeId(3), NodeId(4)];
        p.split(&a, &b);
        assert!(p.is_blocked(NodeId(1), NodeId(3)));
        assert!(p.is_blocked(NodeId(2), NodeId(4)));
        assert!(!p.is_blocked(NodeId(1), NodeId(2)));
        assert!(!p.is_blocked(NodeId(3), NodeId(4)));
    }

    #[test]
    fn heal_all_clears_everything() {
        let mut p = PartitionSet::new();
        p.block_pair(NodeId(1), NodeId(2));
        p.isolate(NodeId(5));
        p.block_one_way(NodeId(1), NodeId(4));
        p.heal_all();
        assert!(p.is_clear());
        assert!(!p.is_blocked(NodeId(5), NodeId(1)));
    }

    #[test]
    fn one_way_cut_is_directional() {
        let mut p = PartitionSet::new();
        p.block_one_way(NodeId(1), NodeId(2));
        assert!(p.is_blocked(NodeId(1), NodeId(2)));
        assert!(!p.is_blocked(NodeId(2), NodeId(1)));
        assert!(!p.is_clear());
        p.heal_one_way(NodeId(1), NodeId(2));
        assert!(p.is_clear());
    }

    #[test]
    fn one_way_heal_preserves_symmetric_block() {
        let mut p = PartitionSet::new();
        p.block_pair(NodeId(1), NodeId(2));
        p.block_one_way(NodeId(1), NodeId(2));
        p.heal_one_way(NodeId(1), NodeId(2));
        assert!(p.is_blocked(NodeId(1), NodeId(2)));
        assert!(p.is_blocked(NodeId(2), NodeId(1)));
    }

    #[test]
    fn split_one_way_cuts_single_direction() {
        let mut p = PartitionSet::new();
        p.split_one_way(&[NodeId(1), NodeId(2)], &[NodeId(3)]);
        assert!(p.is_blocked(NodeId(1), NodeId(3)));
        assert!(p.is_blocked(NodeId(2), NodeId(3)));
        assert!(!p.is_blocked(NodeId(3), NodeId(1)));
        assert!(!p.is_blocked(NodeId(3), NodeId(2)));
    }
}
