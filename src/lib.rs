//! # hierarchical-consensus
//!
//! A complete Rust implementation of **Fast Raft** and **C-Raft** from
//! *“A Hierarchical Model for Fast Distributed Consensus in Dynamic
//! Networks”* (Castiglia, Goldberg, Patterson — ICDCS 2020), together with
//! a classic-Raft baseline and the deterministic simulation stack used to
//! reproduce every figure of the paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace's public API.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`protocols`] | `consensus-core`, `raft` | Fast Raft, C-Raft, classic Raft (sans-IO) |
//! | [`sim`] | `des`, `simnet`, `storage` | event simulator, network models, stable storage |
//! | [`types`] | `wire` | ids, logs, configurations, quorums, codec |
//! | [`bench`](mod@bench) | `harness` | runner, scenarios, metrics, experiments |
//!
//! # Quickstart
//!
//! ```
//! use hierarchical_consensus::bench::{run_fast_raft, Scenario};
//!
//! // Five sites, one region, closed-loop proposer — the paper's Fig. 3 cell.
//! let mut scenario = Scenario::fig3_base(1, 0.0);
//! scenario.target_commits = Some(5);
//! let (report, _) = run_fast_raft(&scenario);
//! assert!(report.safety_ok);
//! assert_eq!(report.completed, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The consensus protocols: Fast Raft, C-Raft, and the classic baseline.
pub mod protocols {
    pub use consensus_core::{
        build_deployment, CRaftConfig, CRaftMessage, CRaftNode, FastRaftEngine, FastRaftMessage,
        FastRaftNode, GatePurpose, GateRecorder, GateRequest, GateToken, GateVerdict, InsertGate,
        PossibleEntries, ProceedGate, ProposalMode, TimerProfile,
    };
    pub use raft::{testkit, NotLeader, RaftMessage, RaftNode, Role, Timing};
}

/// The simulation substrate: deterministic events, network, storage.
pub mod sim {
    pub use des::{EventId, EventQueue, Firing, SimDuration, SimRng, SimTime, Simulation};
    pub use simnet::{
        BernoulliLoss, ConstantLatency, DropReason, LatencyModel, LinkStats, LossModel, NetStats,
        Network, NoLoss, PartitionSet, RegionId, RegionLatency, Topology, UniformLatency, Verdict,
    };
    pub use storage::{ScopeState, SimDisk, StableState};
}

/// Shared consensus types, the client contract, and the wire codec.
pub mod types {
    pub use wire::{
        classic_quorum, fast_quorum, is_classic_quorum, is_fast_quorum,
        min_chosen_votes_in_classic_quorum, Actions, Approval, Batch, BatchItem, ClientOp,
        ClientOutcome, ClientRequest, ClusterId, Commit, Configuration, ConsensusProtocol,
        Consistency, DecodeError, Decoder, Encoder, EntryId, GlobalState, LogEntry, LogIndex,
        LogScope, Message, NodeId, Observation, Payload, PersistCmd, SessionId, SessionTable, Sink,
        SparseLog, Term, TimerCmd, TimerKind, Wire, MAX_BYTES_PER_APPEND,
    };
}

/// The experiment harness: runner, scenarios, metrics, and the paper's
/// figures as runnable experiments.
pub mod bench {
    pub use harness::experiments;
    pub use harness::{
        run_classic_raft, run_craft, run_fast_raft, CRaftScenario, FaultAction, LatencySample,
        LatencyStats, LinViolation, Metrics, NetSummary, NetworkKind, ReadMix, RunReport, Runner,
        RunnerConfig, SafetyChecker, SafetyViolation, Scenario, Workload,
    };
}
