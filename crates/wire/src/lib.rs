//! # `wire` — consensus types and binary wire codec
//!
//! The shared vocabulary of the whole stack:
//!
//! - identifiers: [`NodeId`], [`ClusterId`], [`Term`], [`LogIndex`],
//!   [`EntryId`];
//! - quorum arithmetic: [`classic_quorum`], [`fast_quorum`] with the
//!   intersection properties Fast Raft's safety proof rests on;
//! - membership: [`Configuration`] (deterministically ordered);
//! - the log: [`LogEntry`], [`Payload`], [`Approval`], and [`SparseLog`]
//!   (Fast Raft logs may contain holes, and a decided prefix may be
//!   compacted into a [`Snapshot`]);
//! - the sans-IO protocol interface: [`Actions`], [`ConsensusProtocol`],
//!   [`TimerKind`], [`PersistCmd`], [`Observation`];
//! - hosting nodes: the [`Driver`] node table every embedding steps its
//!   nodes through, and the [`SafetyChecker`] it feeds every commit to
//!   (Definition 2.1, plus client-level linearizability);
//! - the typed client contract: [`ClientRequest`] (sessioned writes and
//!   reads with a [`Consistency`] level), [`ClientOutcome`], and the
//!   exactly-once [`SessionTable`] carried inside snapshots;
//! - a compact binary codec ([`Wire`], [`Encoder`], [`Decoder`]) used for
//!   exact bandwidth accounting and verified by roundtrip property tests.
//!
//! # Examples
//!
//! ```
//! use wire::{classic_quorum, fast_quorum, Configuration, NodeId};
//!
//! let cfg: Configuration = (0..5).map(NodeId).collect();
//! assert_eq!(cfg.classic_quorum(), classic_quorum(5));
//! assert_eq!(cfg.fast_quorum(), fast_quorum(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actions;
mod client;
mod codec;
mod config;
mod driver;
mod entry;
mod envelope;
mod ids;
mod lease;
mod log;
mod quorum;
mod read;
mod safety;
mod snapshot;

pub use actions::{
    Actions, Commit, ConsensusProtocol, LogScope, Message, Observation, PersistCmd, TimerCmd,
    TimerKind,
};
pub use client::{
    is_read_id, read_id, session_state_current, ClientOp, ClientOutcome, ClientRequest,
    Consistency, SessionApply, SessionId, SessionSlot, SessionTable,
};
pub use codec::{DecodeError, Decoder, Encoder, Wire};
pub use config::{AppendBudget, Configuration, MAX_BYTES_PER_APPEND};
pub use driver::{Driver, Slot};
/// `des`'s seedless id tables, re-exported for crates (`storage`) that key
/// tables by the ids above without depending on `des` themselves.
pub use des::{IdMap, IdSet};
pub use entry::{Approval, Batch, BatchItem, EntryList, GlobalState, LogEntry, Payload};
pub use envelope::{GroupFrame, ShardEnvelope};
pub use ids::{ClusterId, EntryId, GroupId, LogIndex, NodeId, Term};
pub use lease::{LeaseState, VoteHold};
pub use log::{SparseLog, MAX_INSERT_WINDOW};
pub use quorum::{
    classic_quorum, fast_quorum, is_classic_quorum, is_fast_quorum,
    min_chosen_votes_in_classic_quorum,
};
pub use read::{PendingRead, ReadIndexQueue};
pub use safety::{LinViolation, SafetyChecker, SafetyViolation};
pub use snapshot::{
    fold_commit_digest, fold_session_digest, fold_session_evicted, Snapshot,
    SNAPSHOT_FORMAT_VERSION,
};
