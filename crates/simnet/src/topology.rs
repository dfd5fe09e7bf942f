//! Node placement: which region each site lives in.
//!
//! The paper's C-Raft evaluation (§VI) places EC2 instances in AWS regions
//! across North America, South America, Europe, and Asia, with round-trip
//! latency "between 10 to 300 ms between AWS regions and less than 1 ms
//! within regions". [`Topology`] captures the placement; latency models
//! consult it.

use des::IdMap;
use serde::{Deserialize, Serialize};
use wire::NodeId;

/// A geographic region, an index into the topology's region table.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct RegionId(pub usize);

impl RegionId {
    /// The raw index.
    pub fn as_usize(self) -> usize {
        self.0
    }
}

/// Placement of sites into named regions.
///
/// # Examples
///
/// ```
/// use simnet::Topology;
/// use wire::NodeId;
///
/// let mut topo = Topology::new();
/// let na = topo.add_region("us-east-1");
/// let eu = topo.add_region("eu-west-1");
/// topo.place(NodeId(1), na);
/// topo.place(NodeId(2), eu);
/// assert_ne!(topo.region_of(NodeId(1)), topo.region_of(NodeId(2)));
/// assert!(!topo.same_region(NodeId(1), NodeId(2)));
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Topology {
    regions: Vec<String>,
    placement: IdMap<NodeId, RegionId>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// A single-region topology holding the given nodes — the paper's
    /// Fig. 3/4 setting (one cluster, one region).
    pub fn single_region(name: &str, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut t = Topology::new();
        let r = t.add_region(name);
        for n in nodes {
            t.place(n, r);
        }
        t
    }

    /// Registers a region, returning its id. Duplicate names are allowed
    /// (they are distinct regions).
    pub fn add_region(&mut self, name: impl Into<String>) -> RegionId {
        self.regions.push(name.into());
        RegionId(self.regions.len() - 1)
    }

    /// Places (or moves) a node into a region.
    ///
    /// # Panics
    ///
    /// Panics if the region does not exist.
    pub fn place(&mut self, node: NodeId, region: RegionId) {
        assert!(
            region.0 < self.regions.len(),
            "unknown region {:?}",
            region
        );
        self.placement.insert(node, region);
    }

    /// The region a node lives in, if placed.
    pub fn region_of(&self, node: NodeId) -> Option<RegionId> {
        self.placement.get(&node).copied()
    }

    /// `true` if both nodes are placed in the same region.
    ///
    /// Unplaced nodes are conservatively treated as *not* co-located with
    /// anything (including other unplaced nodes).
    pub fn same_region(&self, a: NodeId, b: NodeId) -> bool {
        match (self.region_of(a), self.region_of(b)) {
            (Some(ra), Some(rb)) => ra == rb,
            _ => false,
        }
    }

    /// Name of a region.
    pub fn region_name(&self, region: RegionId) -> Option<&str> {
        self.regions.get(region.0).map(String::as_str)
    }

    /// Number of registered regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of placed nodes.
    pub fn node_count(&self) -> usize {
        self.placement.len()
    }

    /// Nodes placed in `region`, in ascending id order.
    pub fn nodes_in(&self, region: RegionId) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .placement
            .iter()
            .filter(|(_, &r)| r == region)
            .map(|(&n, _)| n)
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_region_places_all() {
        let t = Topology::single_region("r", (0..5).map(NodeId));
        assert_eq!(t.region_count(), 1);
        assert_eq!(t.node_count(), 5);
        assert!(t.same_region(NodeId(0), NodeId(4)));
    }

    #[test]
    fn unplaced_nodes_are_not_colocated() {
        let t = Topology::new();
        assert!(!t.same_region(NodeId(1), NodeId(2)));
        assert_eq!(t.region_of(NodeId(1)), None);
    }

    #[test]
    fn nodes_in_is_sorted() {
        let mut t = Topology::new();
        let r = t.add_region("r");
        for n in [5u64, 1, 3] {
            t.place(NodeId(n), r);
        }
        assert_eq!(t.nodes_in(r), vec![NodeId(1), NodeId(3), NodeId(5)]);
    }

    #[test]
    fn moving_a_node_changes_region() {
        let mut t = Topology::new();
        let a = t.add_region("a");
        let b = t.add_region("b");
        t.place(NodeId(1), a);
        t.place(NodeId(1), b);
        assert_eq!(t.region_of(NodeId(1)), Some(b));
        assert_eq!(t.nodes_in(a), Vec::<NodeId>::new());
    }

    #[test]
    #[should_panic(expected = "unknown region")]
    fn placing_in_unknown_region_panics() {
        Topology::new().place(NodeId(1), RegionId(3));
    }

    #[test]
    fn region_names() {
        let mut t = Topology::new();
        let r = t.add_region("eu-west-1");
        assert_eq!(t.region_name(r), Some("eu-west-1"));
        assert_eq!(t.region_name(RegionId(9)), None);
    }
}
