//! # `raft` — classic Raft, the paper's baseline
//!
//! A complete sans-IO implementation of classic Raft as summarized in §III-A
//! of the paper: terms, leader election with randomized timeouts, heartbeat
//! replication, the commit rule, proposer redirection with retry, and
//! administrator-driven single-site membership changes.
//!
//! [`RaftNode`] implements [`wire::ConsensusProtocol`]; the `harness` crate
//! runs it over the simulated network, and [`testkit::Lockstep`] drives it
//! synchronously in tests.
//!
//! [`replica`] holds what every Raft-family engine carries identically,
//! written once: [`replica::Replica`] — term, vote, log, role, replication
//! cursors and the protocol steps over them (step-down, candidacy, vote
//! grant and tally, leader init, AppendEntries fan-out, ack bookkeeping,
//! the classic commit scan, snapshot receipt, the client reply path) — over
//! the applied image, the read/lease path and proposal id minting.
//! [`RaftNode`] is one `Replica` plus classic Raft's own propose/commit
//! rule; `consensus-core`'s Fast Raft engine composes the same struct.
//!
//! ## Timing model
//!
//! Matching the paper's evaluation: AppendEntries dispatch is gated on the
//! leader's heartbeat tick (100 ms in §VI), commit advancement is
//! event-driven on acknowledgements, and proposers are notified immediately.
//!
//! # Examples
//!
//! ```
//! use des::SimRng;
//! use raft::{RaftNode, Role, Timing};
//! use raft::testkit::Lockstep;
//! use wire::{Configuration, ConsensusProtocol, NodeId, TimerKind};
//!
//! let cfg: Configuration = (0..3).map(NodeId).collect();
//! let nodes = (0..3).map(|i| {
//!     RaftNode::new(NodeId(i), cfg.clone(), Timing::lan(), SimRng::seed_from_u64(i))
//! });
//! let mut net = Lockstep::new(nodes);
//! net.fire(NodeId(0), TimerKind::Election);
//! net.deliver_all();
//! assert_eq!(net.node(NodeId(0)).role(), Role::Leader);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod message;
mod node;
pub mod replica;
pub mod testkit;
mod timing;

pub use message::RaftMessage;
pub use node::{NotLeader, RaftNode, Role};
pub use timing::Timing;
