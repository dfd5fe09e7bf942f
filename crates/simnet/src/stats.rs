//! Network traffic accounting.
//!
//! C-Raft's motivation is partly bandwidth: all-to-one wide-area
//! communication is "both time and bandwidth consuming" (§I). The stats here
//! let experiments report messages and bytes split by intra- vs inter-region
//! traffic, and why messages were dropped.

use des::IdMap;
use serde::{Deserialize, Serialize};
use wire::NodeId;

/// Why a message never arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// Random loss (the loss model fired).
    Loss,
    /// An active partition blocked the link.
    Partition,
    /// The destination does not exist or is crashed/stopped.
    NodeDown,
}

/// Aggregate and per-link traffic counters.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetStats {
    /// Messages handed to the network.
    pub offered: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Bytes delivered.
    pub delivered_bytes: u64,
    /// Messages dropped by random loss.
    pub dropped_loss: u64,
    /// Messages dropped by partitions.
    pub dropped_partition: u64,
    /// Messages dropped because the destination was down.
    pub dropped_node_down: u64,
    /// Bytes offered on intra-region links.
    pub intra_region_bytes: u64,
    /// Bytes offered on inter-region links.
    pub inter_region_bytes: u64,
    per_link: IdMap<(NodeId, NodeId), LinkStats>,
}

/// Counters for one directed link.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Messages offered on the link.
    pub offered: u64,
    /// Messages delivered on the link.
    pub delivered: u64,
    /// Bytes offered on the link.
    pub bytes: u64,
}

impl NetStats {
    /// Fresh counters.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Records an offered message and its routing class.
    pub(crate) fn record_offered(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        same_region: bool,
    ) {
        self.offered += 1;
        if same_region {
            self.intra_region_bytes += bytes as u64;
        } else {
            self.inter_region_bytes += bytes as u64;
        }
        let link = self.per_link.entry((from, to)).or_default();
        link.offered += 1;
        link.bytes += bytes as u64;
    }

    /// Records a delivery.
    pub(crate) fn record_delivered(&mut self, from: NodeId, to: NodeId, bytes: usize) {
        self.delivered += 1;
        self.delivered_bytes += bytes as u64;
        self.per_link.entry((from, to)).or_default().delivered += 1;
    }

    /// Records a drop.
    pub(crate) fn record_dropped(&mut self, reason: DropReason) {
        match reason {
            DropReason::Loss => self.dropped_loss += 1,
            DropReason::Partition => self.dropped_partition += 1,
            DropReason::NodeDown => self.dropped_node_down += 1,
        }
    }

    /// Counters for the directed link `from → to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkStats {
        self.per_link.get(&(from, to)).copied().unwrap_or_default()
    }

    /// The observed drop rate from random loss, over offered messages.
    pub fn observed_loss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped_loss as f64 / self.offered as f64
        }
    }

    /// Total dropped messages, all causes.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_loss + self.dropped_partition + self.dropped_node_down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::new();
        s.record_offered(NodeId(1), NodeId(2), 100, true);
        s.record_delivered(NodeId(1), NodeId(2), 100);
        s.record_offered(NodeId(1), NodeId(3), 50, false);
        s.record_dropped(DropReason::Loss);
        assert_eq!(s.offered, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.delivered_bytes, 100);
        assert_eq!(s.intra_region_bytes, 100);
        assert_eq!(s.inter_region_bytes, 50);
        assert_eq!(s.dropped_loss, 1);
        assert_eq!(s.dropped_total(), 1);
        assert_eq!(s.link(NodeId(1), NodeId(2)).delivered, 1);
        assert_eq!(s.link(NodeId(1), NodeId(3)).offered, 1);
        assert_eq!(s.link(NodeId(9), NodeId(9)).offered, 0);
    }

    #[test]
    fn loss_rate_over_offered() {
        let mut s = NetStats::new();
        assert_eq!(s.observed_loss_rate(), 0.0);
        for _ in 0..9 {
            s.record_offered(NodeId(1), NodeId(2), 1, true);
        }
        s.record_offered(NodeId(1), NodeId(2), 1, true);
        s.record_dropped(DropReason::Loss);
        assert!((s.observed_loss_rate() - 0.1).abs() < 1e-12);
    }
}
