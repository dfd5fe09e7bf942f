//! # `explorer` — adversarial schedule exploration for the sans-IO protocols
//!
//! The harness (`crates/harness`) answers *"how fast is the protocol under
//! a realistic network?"*; this crate answers *"is there **any** feasible
//! interleaving that breaks it?"*. It drives the same sans-IO protocol
//! cores through explicitly chosen event orders:
//!
//! - a [`World`] holds the nodes plus explicit pools of pending messages,
//!   armed timers, armed insert gates, and client lanes — every step, a
//!   [`Strategy`] picks one enabled [`Choice`] (deliver/duplicate/drop a
//!   message, fire a timer, crash/recover a node, cut/heal a one-way link,
//!   stall/unstall a disk, release a gate, advance a client);
//! - four oracles watch every schedule ([`Violation`]): cross-site commit
//!   agreement, read linearizability and lost proposals (a proposer told
//!   an id committed that no site committed) after every step, and — once the
//!   schedule is drained to quiescence — a **liveness** oracle asserting
//!   every placed client op resolved and every gate continuation and
//!   decision reservation drained;
//! - a failing schedule is greedily minimized ([`shrink()`]) and written as a
//!   replayable text [`Trace`] that re-executes bit-identically (`explorer
//!   replay <file>`).
//!
//! Four deployments are explorable ([`Proto`]): classic Raft, Fast Raft,
//! full C-Raft, and *gated* Fast Raft — the engine in C-Raft's global-level
//! configuration with every insert parked behind an explorer-controlled
//! gate, putting the intra-cluster replication delay under adversarial
//! control. The gated world is where the historical gate-path bugs
//! (`traces/`) were found and is the sharpest tool for hunting new ones.
//!
//! # Examples
//!
//! ```
//! use explorer::{explore_setup, strategy::RandomWalk, Proto, Setup};
//!
//! let setup = Setup::small(Proto::Fast, 7);
//! let report = explore_setup(&setup, &mut RandomWalk::new(7), 300);
//! assert!(report.violation.is_none(), "{:?}", report.violation);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gated;
pub mod oracle;
pub mod schedule;
pub mod setup;
pub mod shrink;
pub mod strategy;
pub mod world;

pub use gated::GatedFastRaftNode;
pub use oracle::Violation;
pub use schedule::{Choice, Proto, Setup, Trace};
pub use setup::{
    explore_setup, explore_world, replay_setup, replay_world, shrink_setup, RunReport,
};
pub use shrink::{shrink, Shrunk};
pub use strategy::{by_name, DelayBounded, GateHammer, RandomWalk, Strategy};
pub use world::{Enabled, Envelope, Explorable, RecoveryFn, World, WorldConfig};
