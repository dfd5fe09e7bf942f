//! The network façade: judge each send, producing a delivery verdict.
//!
//! [`Network`] composes a latency model, a loss model, partitions, node
//! liveness, and traffic stats. It does **not** own the event queue — the
//! harness asks for a [`Verdict`] and schedules the delivery event itself,
//! keeping `simnet` independent of the event payload type.

use des::{IdSet, SimDuration, SimRng};
use wire::NodeId;

use crate::{
    ChaosModel, DropReason, LatencyModel, LossModel, NetStats, NoLoss, PartitionSet, Topology,
    UniformLatency,
};

/// The network's decision about one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver after the given one-way delay.
    Deliver {
        /// One-way latency to apply.
        after: SimDuration,
    },
    /// The message is lost.
    Drop {
        /// Why it was lost.
        reason: DropReason,
    },
}

/// A simulated unreliable datagram network.
///
/// # Examples
///
/// ```
/// use des::{SimDuration, SimRng};
/// use simnet::{Network, Verdict};
/// use wire::NodeId;
///
/// let mut rng = SimRng::seed_from_u64(1);
/// let mut net = Network::reliable_lan([NodeId(1), NodeId(2)]);
/// match net.judge(NodeId(1), NodeId(2), 64, &mut rng) {
///     Verdict::Deliver { after } => assert!(after > SimDuration::ZERO),
///     Verdict::Drop { .. } => unreachable!("reliable network"),
/// }
/// ```
pub struct Network {
    latency: Box<dyn LatencyModel + Send>,
    loss: Box<dyn LossModel + Send>,
    partitions: PartitionSet,
    topology: Topology,
    /// Nodes currently unable to receive (crashed or silently departed).
    down: IdSet<NodeId>,
    stats: NetStats,
    /// Delay applied to self-addressed messages (process-local loopback).
    loopback: SimDuration,
    /// Optional duplication/reordering layered over delivered messages.
    chaos: Option<ChaosModel>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("partitions", &self.partitions)
            .field("down", &self.down)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Builds a network from explicit models.
    pub fn new(
        topology: Topology,
        latency: Box<dyn LatencyModel + Send>,
        loss: Box<dyn LossModel + Send>,
    ) -> Self {
        Network {
            latency,
            loss,
            partitions: PartitionSet::new(),
            topology,
            down: IdSet::default(),
            stats: NetStats::new(),
            loopback: SimDuration::from_micros(20),
            chaos: None,
        }
    }

    /// A lossless single-region LAN: uniform 100–500 µs one-way delay —
    /// sub-millisecond RTT as in the paper's intra-region measurements.
    pub fn reliable_lan(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let topology = Topology::single_region("lan", nodes);
        Network::new(
            topology,
            Box::new(UniformLatency::new(
                SimDuration::from_micros(100),
                SimDuration::from_micros(500),
            )),
            Box::new(NoLoss),
        )
    }

    /// The topology used for region-aware accounting.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access to the partition set.
    pub fn partitions_mut(&mut self) -> &mut PartitionSet {
        &mut self.partitions
    }

    /// Marks a node as unable to receive messages (crash / silent leave).
    pub fn set_down(&mut self, node: NodeId) {
        self.down.insert(node);
    }

    /// Marks a node as receiving again.
    pub fn set_up(&mut self, node: NodeId) {
        self.down.remove(&node);
    }

    /// `true` if the node is currently down.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.contains(&node)
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Judges one message of `bytes` encoded size from `from` to `to`.
    ///
    /// Applies, in order: destination liveness, partitions, random loss,
    /// then latency sampling. Self-addressed messages use the loopback
    /// delay and bypass loss and partitions (a process talking to itself).
    pub fn judge(&mut self, from: NodeId, to: NodeId, bytes: usize, rng: &mut SimRng) -> Verdict {
        let same_region = from == to || self.topology.same_region(from, to);
        self.stats.record_offered(from, to, bytes, same_region);

        if from == to {
            self.stats.record_delivered(from, to, bytes);
            return Verdict::Deliver {
                after: self.loopback,
            };
        }
        if self.down.contains(&to) {
            self.stats.record_dropped(DropReason::NodeDown);
            return Verdict::Drop {
                reason: DropReason::NodeDown,
            };
        }
        if self.partitions.is_blocked(from, to) {
            self.stats.record_dropped(DropReason::Partition);
            return Verdict::Drop {
                reason: DropReason::Partition,
            };
        }
        if self.loss.dropped(from, to, rng) {
            self.stats.record_dropped(DropReason::Loss);
            return Verdict::Drop {
                reason: DropReason::Loss,
            };
        }
        let after = self.latency.sample(from, to, rng);
        self.stats.record_delivered(from, to, bytes);
        Verdict::Deliver { after }
    }

    /// Installs (or removes) a duplication/reordering model. `None` — the
    /// default — makes [`Network::judge_chaos`] behave exactly like
    /// [`Network::judge`], drawing the identical random sequence.
    pub fn set_chaos(&mut self, chaos: Option<ChaosModel>) {
        self.chaos = chaos;
    }

    /// `true` if a chaos model is installed.
    pub fn has_chaos(&self) -> bool {
        self.chaos.is_some()
    }

    /// [`Network::judge`] plus chaos: when a [`ChaosModel`] is installed
    /// and the message is delivered, the returned delay may carry reorder
    /// jitter and the delays of any duplicate copies are appended to
    /// `extras` (a caller-reused buffer, **not** cleared here; one
    /// scheduled delivery per element). Loopback sends bypass chaos like
    /// they bypass loss. Duplicate copies are free of charge in the traffic
    /// stats — accounting tracks what the protocol offered, not what the
    /// network invented.
    pub fn judge_chaos(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        rng: &mut SimRng,
        extras: &mut Vec<SimDuration>,
    ) -> Verdict {
        match self.judge(from, to, bytes, rng) {
            Verdict::Deliver { after } if from != to => match &self.chaos {
                Some(chaos) => Verdict::Deliver {
                    after: chaos.apply(after, rng, extras),
                },
                None => Verdict::Deliver { after },
            },
            verdict => verdict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BernoulliLoss;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(3)
    }

    #[test]
    fn reliable_lan_always_delivers() {
        let mut net = Network::reliable_lan((0..3).map(NodeId));
        let mut r = rng();
        for _ in 0..500 {
            match net.judge(NodeId(0), NodeId(1), 32, &mut r) {
                Verdict::Deliver { after } => {
                    assert!(after >= SimDuration::from_micros(100));
                    assert!(after <= SimDuration::from_micros(500));
                }
                Verdict::Drop { .. } => panic!("reliable lan dropped"),
            }
        }
        assert_eq!(net.stats().dropped_total(), 0);
        assert_eq!(net.stats().offered, 500);
    }

    #[test]
    fn loopback_bypasses_loss() {
        let topo = Topology::single_region("r", [NodeId(1)]);
        let mut net = Network::new(
            topo,
            Box::new(UniformLatency::new(
                SimDuration::from_micros(100),
                SimDuration::from_micros(200),
            )),
            Box::new(BernoulliLoss::new(1.0)),
        );
        let mut r = rng();
        assert!(matches!(
            net.judge(NodeId(1), NodeId(1), 8, &mut r),
            Verdict::Deliver { .. }
        ));
        // But a real link with p=1 always drops.
        assert!(matches!(
            net.judge(NodeId(1), NodeId(2), 8, &mut r),
            Verdict::Drop {
                reason: DropReason::Loss
            }
        ));
    }

    #[test]
    fn down_nodes_black_hole() {
        let mut net = Network::reliable_lan((0..2).map(NodeId));
        let mut r = rng();
        net.set_down(NodeId(1));
        assert!(matches!(
            net.judge(NodeId(0), NodeId(1), 8, &mut r),
            Verdict::Drop {
                reason: DropReason::NodeDown
            }
        ));
        net.set_up(NodeId(1));
        assert!(matches!(
            net.judge(NodeId(0), NodeId(1), 8, &mut r),
            Verdict::Deliver { .. }
        ));
    }

    #[test]
    fn partitions_block_before_loss() {
        let mut net = Network::reliable_lan((0..2).map(NodeId));
        let mut r = rng();
        net.partitions_mut().block_pair(NodeId(0), NodeId(1));
        assert!(matches!(
            net.judge(NodeId(0), NodeId(1), 8, &mut r),
            Verdict::Drop {
                reason: DropReason::Partition
            }
        ));
        net.partitions_mut().heal_all();
        assert!(matches!(
            net.judge(NodeId(0), NodeId(1), 8, &mut r),
            Verdict::Deliver { .. }
        ));
    }

    #[test]
    fn observed_loss_tracks_model() {
        let topo = Topology::single_region("r", (0..2).map(NodeId));
        let mut net = Network::new(
            topo,
            Box::new(UniformLatency::new(
                SimDuration::from_micros(100),
                SimDuration::from_micros(200),
            )),
            Box::new(BernoulliLoss::new(0.10)),
        );
        let mut r = rng();
        for _ in 0..20_000 {
            let _ = net.judge(NodeId(0), NodeId(1), 8, &mut r);
        }
        let rate = net.stats().observed_loss_rate();
        assert!((0.08..0.12).contains(&rate), "rate={rate}");
    }

    #[test]
    fn byte_accounting_by_region() {
        let mut topo = Topology::new();
        let a = topo.add_region("a");
        let b = topo.add_region("b");
        topo.place(NodeId(1), a);
        topo.place(NodeId(2), a);
        topo.place(NodeId(3), b);
        let mut net = Network::new(
            topo,
            Box::new(UniformLatency::new(
                SimDuration::from_micros(100),
                SimDuration::from_micros(200),
            )),
            Box::new(NoLoss),
        );
        let mut r = rng();
        net.judge(NodeId(1), NodeId(2), 100, &mut r);
        net.judge(NodeId(1), NodeId(3), 40, &mut r);
        assert_eq!(net.stats().intra_region_bytes, 100);
        assert_eq!(net.stats().inter_region_bytes, 40);
    }
}
