//! # `shard` — multi-group sharding over one consensus fabric
//!
//! One process can host **thousands** of consensus groups when three
//! costs are removed (the tentpole of this crate):
//!
//! - **Routing**: [`ShardRouter`] maps keys to groups through a sorted
//!   hash-range table; rebalance ops ([`ReconfigOp`]) commit through the
//!   owning group's own log, so every replica flips its table at the same
//!   point of that group's linearizable history.
//! - **Scheduling**: all timers of all groups live in one keyed timer
//!   heap (`des::TimerWheel` — the name predates the heap; the runner
//!   still calls it "the wheel"), driven by a single simulation event
//!   re-armed to its next deadline. Per-event cost is O(due work · log
//!   timers), never O(groups).
//! - **Idle groups**: a leadership-settled group with no client traffic
//!   is **parked** — its timers leave the heap with remainders recorded,
//!   so it consumes zero CPU until traffic returns. See
//!   [`ShardRunner`] for the full hibernation state machine.
//!
//! Messages from co-located groups to the same peer proc coalesce into
//! one [`wire::ShardEnvelope`] fabric frame per scheduling step.
//!
//! The sweep entry point ([`run_sweep`]) measures the two headline claims
//! (idle groups within 10% of free; throughput monotone in group count)
//! and feeds the `shard_sweep` CI gate.
//!
//! # Examples
//!
//! ```
//! use des::{SimDuration, SimTime};
//! use raft::Timing;
//! use shard::{raft_factory, ShardConfig, ShardRunner, WorkloadSpec};
//!
//! let cfg = ShardConfig {
//!     procs: 3,
//!     groups: 4,
//!     seed: 7,
//!     idle_after: SimDuration::from_secs(1),
//!     workload: WorkloadSpec {
//!         clients: 8,
//!         start_at: SimTime::from_secs(2),
//!         ..WorkloadSpec::default()
//!     },
//! };
//! let mut fabric = ShardRunner::new(cfg, Vec::new(), raft_factory(Timing::lan()));
//! fabric.run_until(SimTime::from_secs(8));
//! assert!(fabric.metrics().completed_total > 0);
//! assert!(fabric.violations().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod router;
mod runner;
mod sweep;
mod zipf;

pub use router::{key_hash, ReconfigError, ReconfigOp, ShardRouter, RECONFIG_MAGIC};
pub use runner::{
    raft_factory, ShardConfig, ShardMetrics, ShardNode, ShardRunner, WorkloadSpec,
};
pub use sweep::{ShardSweepResult, SweepCell};
pub use zipf::Zipf;

/// Re-exported for downstream convenience: the sweep entry point.
pub use sweep::run as run_sweep;
