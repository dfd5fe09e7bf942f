//! # `perf` — the performance ledger
//!
//! The repository's benchmark, as a standalone package that drives the real
//! `harness::Runner` and `shard::ShardRunner` from outside, through public
//! API only. Two binaries share this library:
//!
//! * `perf` — end to end, tracing off: runs one workload for a fixed wall
//!   time, checks every repetition's outputs, and prints every end-to-end
//!   metric. It compiles against the **facade** surface only
//!   (`run_fast_raft`, `run_craft`, `ShardRunner`, and the plain-data types
//!   they take), so a refactor of the deep surface cannot break the gate.
//! * `perf-trace` — the traced run: hosts every node in a benchmark-owned
//!   wrapper on the same runners, takes spans in situ, replays the layers
//!   the runners own concretely, and prints the per-layer metrics. Its
//!   wide-API code lives under `src/bin/perf-trace/`, not here.
//!
//! `README.md` defines each metric; `API.md` lists the repository symbols
//! each binary calls.

#![warn(missing_docs)]

pub mod alloc;
pub mod args;
pub mod output;
pub mod stats;
pub mod workloads;
