//! # `consensus-core` — Fast Raft and C-Raft
//!
//! The paper's primary contribution:
//!
//! - [`FastRaftNode`] — Fast Raft (§IV): a Fast-Paxos-style Raft variant
//!   that commits in **two** message rounds on the fast track (proposer
//!   broadcast + votes to the leader, fast quorum ⌈3M/4⌉), falling back to
//!   a classic track under loss or contention; leader election judges
//!   up-to-dateness on leader-approved entries and runs a **recovery**
//!   replay of self-approved entries; membership is self-announced with
//!   **silent-leave** detection via a member timeout.
//! - [`CRaftNode`] — C-Raft (§V): hierarchical consensus for geo-distributed
//!   systems. Each cluster runs Fast Raft on a local log; cluster leaders
//!   form a global Fast Raft group replicating *batches* of locally
//!   committed entries, gating every global-log insert on an intra-cluster
//!   *global state entry* so successor leaders inherit inter-cluster state.
//!
//! C-Raft uses Fast Raft as its building block: each level is a
//! [`FastRaftNode`], built for its log scope ([`FastRaftNode::scoped`]) and,
//! at the global level, with every insert behind the insert gate
//! ([`FastRaftNode::gated`]).
//!
//! # Examples
//!
//! ```
//! use consensus_core::FastRaftNode;
//! use des::SimRng;
//! use raft::{Role, Timing};
//! use raft::testkit::Lockstep;
//! use wire::{Configuration, NodeId, TimerKind};
//!
//! let cfg: Configuration = (0..5).map(NodeId).collect();
//! let nodes = (0..5).map(|i| {
//!     FastRaftNode::new(NodeId(i), cfg.clone(), Timing::lan(), SimRng::seed_from_u64(i))
//! });
//! let mut net = Lockstep::new(nodes);
//! net.fire(NodeId(0), TimerKind::Election);
//! net.deliver_all();
//! assert_eq!(net.node(NodeId(0)).role(), Role::Leader);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod craft;
mod engine;
mod gate;
mod message;
mod possible;

pub use craft::{build_deployment, CRaftConfig, CRaftNode};
pub use engine::{FastRaftNode, ProposalMode};
pub use gate::{GateRequest, GateToken};
pub use message::{CRaftMessage, FastRaftMessage};
pub use possible::PossibleEntries;
