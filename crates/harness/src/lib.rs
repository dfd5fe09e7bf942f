//! # `harness` — simulation harness and experiment suite
//!
//! Reproduces the paper's evaluation environment on the deterministic
//! simulator:
//!
//! - [`Runner`]: hosts protocol nodes over [`simnet::Network`] +
//!   [`storage::SimDisk`], with write-ahead persistence, timer management,
//!   closed-loop proposers (as in §VI), and a fault injector
//!   ([`FaultAction`]: silent leaves, crashes, recoveries, partitions);
//! - [`Metrics`] / [`RunReport`]: proposer-measured commit latency, global
//!   throughput, fast/classic track ratios, traffic accounting;
//! - [`SafetyChecker`] (re-exported from `wire`, where every embedding's
//!   node table feeds it): online Definition-2.1 checking across all sites
//!   in every run;
//! - [`Scenario`] builders for classic Raft, Fast Raft, and C-Raft; and
//! - [`experiments`]: one function per figure of the paper plus extension
//!   studies.
//!
//! # Examples
//!
//! ```
//! use harness::{run_fast_raft, Scenario};
//!
//! let mut s = Scenario::fig3_base(7, 0.0);
//! s.target_commits = Some(10);
//! let (report, _metrics) = run_fast_raft(&s);
//! assert!(report.safety_ok);
//! assert_eq!(report.completed, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod metrics;
mod report;
mod runner;
mod scenario;

pub use metrics::{LatencySample, LatencyStats, Metrics};
pub use report::{NetSummary, RunReport};
pub use runner::{FaultAction, Runner, RunnerConfig, Workload};
pub use scenario::{
    run_classic_raft, run_craft, run_fast_raft, CRaftScenario, NetworkKind, ReadMix, Scenario,
};
pub use wire::{LinViolation, SafetyChecker, SafetyViolation};
