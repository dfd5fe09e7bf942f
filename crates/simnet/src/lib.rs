//! # `simnet` — simulated unreliable datagram network
//!
//! Substitutes for the paper's AWS deployment (§VI): EC2 instances in
//! regions worldwide, UDP messaging, and `tc`-injected loss. Provides:
//!
//! - [`Topology`]: node-to-region placement;
//! - [`LatencyModel`]s: [`ConstantLatency`], [`UniformLatency`], and
//!   region-aware [`RegionLatency`] with an [`RegionLatency::aws_global`]
//!   preset matching the paper's 10–300 ms inter-region RTT envelope;
//! - [`LossModel`]s: [`NoLoss`] and [`BernoulliLoss`] (`tc`-style i.i.d.);
//! - [`PartitionSet`]: administratively blocked links, symmetric or
//!   asymmetric (one-way cuts);
//! - [`PersistStalls`]: seed-driven slow-disk persistence stalls;
//! - [`Network`]: the façade that judges each send, producing a
//!   [`Verdict`] the harness turns into a delivery event, with full
//!   message/byte accounting in [`NetStats`].
//!
//! # Examples
//!
//! ```
//! use des::SimRng;
//! use simnet::{Network, Verdict};
//! use wire::NodeId;
//!
//! let mut net = Network::reliable_lan((0..5).map(NodeId));
//! let mut rng = SimRng::seed_from_u64(9);
//! assert!(matches!(
//!     net.judge(NodeId(0), NodeId(1), 128, &mut rng),
//!     Verdict::Deliver { .. }
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod latency;
mod loss;
mod net;
mod partition;
mod stats;
mod topology;

pub use chaos::PersistStalls;
pub use latency::{ConstantLatency, LatencyModel, RegionLatency, UniformLatency};
pub use loss::{BernoulliLoss, LossModel, NoLoss};
pub use net::{Network, Verdict};
pub use partition::PartitionSet;
pub use stats::{DropReason, LinkStats, NetStats};
pub use topology::{RegionId, Topology};
