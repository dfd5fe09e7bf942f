//! The four workloads, as generated scenarios.
//!
//! Everything here is a pure function of the seed: the program under test
//! receives only the `Scenario` / `ShardConfig` values built below. All
//! four are **closed loop** — each client sends its next operation only
//! after the previous typed outcome, as in the paper's §VI and as both
//! runners implement — so a slower system is offered less load. The
//! injected message delay is stated per workload.

use des::{SimDuration, SimTime};
use harness::{CRaftScenario, FaultAction, NetworkKind, ReadMix, Scenario};
use raft::Timing;
use shard::{ShardConfig, WorkloadSpec};
use wire::{Consistency, NodeId};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "fast_lan_write",
    "craft_geo_write",
    "fast_churn_rw",
    "shard_zipf_g256",
];

/// Operations per repetition of the two count-targeted workloads.
pub const OPS_PER_REP: u64 = 25_000;

/// When `fast_churn_rw` crashes its leader (site 0).
pub const CHURN_CRASH_AT: SimTime = SimTime::from_secs(60);
/// When the crashed leader recovers — from `SimDisk` stable state only,
/// which is the durability test.
pub const CHURN_RECOVER_AT: SimTime = SimTime::from_secs(70);
/// When site 4 leaves silently.
pub const CHURN_LEAVE_AT: SimTime = SimTime::from_secs(200);
/// `failover_ms` looks for the service gap in `[crash, crash + this]`.
pub const FAILOVER_SEARCH: SimDuration = SimDuration::from_secs(30);

/// `shard_zipf_g256`: window `[from, until)` in simulated time.
pub const SHARD_WINDOW_FROM: SimTime = SimTime::from_secs(10);
/// End of the `shard_zipf_g256` window.
pub const SHARD_WINDOW_UNTIL: SimTime = SimTime::from_secs(20);
/// Closed-loop clients of `shard_zipf_g256`.
pub const SHARD_CLIENTS: usize = 256;
/// Clusters (= regions) of `craft_geo_write`.
pub const CLUSTERS: u64 = 10;

/// One workload's generated inputs, one per seed.
pub enum Inputs {
    /// Fast Raft on `harness::Runner` (`run_fast_raft`).
    FastRaft(Vec<Scenario>),
    /// C-Raft on `harness::Runner` (`run_craft`).
    CRaft(Vec<Scenario>, CRaftScenario),
    /// Classic Raft groups on `shard::ShardRunner`; the timing is what
    /// `raft_factory` receives.
    Shard(Vec<ShardConfig>, Timing),
}

/// Builds workload `name` for each of `seeds`; `None` for an unknown name.
pub fn generate(name: &str, seeds: &[u64]) -> Option<Inputs> {
    let each = |f: fn(u64) -> Scenario| seeds.iter().map(|&s| f(s)).collect();
    Some(match name {
        "fast_lan_write" => Inputs::FastRaft(each(fast_lan_write)),
        "craft_geo_write" => Inputs::CRaft(each(craft_geo_write), CRaftScenario::paper(CLUSTERS)),
        "fast_churn_rw" => Inputs::FastRaft(each(fast_churn_rw)),
        "shard_zipf_g256" => Inputs::Shard(
            seeds.iter().map(|&s| shard_zipf_g256(s)).collect(),
            shard_timing(),
        ),
        _ => return None,
    })
}

/// Fast Raft, 5 sites in one region (100–500 µs one-way, 0 % loss),
/// closed-loop writers at sites 1–3, 64 B payload, 3 s warm-up, 25 000
/// writes. Why: the paper's Fig. 3/4 cell with mild proposer contention.
pub fn fast_lan_write(seed: u64) -> Scenario {
    Scenario {
        seed,
        sites: 5,
        network: NetworkKind::SingleRegion,
        loss: 0.0,
        timing: Timing::lan(),
        proposers: vec![NodeId(1), NodeId(2), NodeId(3)],
        payload_bytes: 64,
        target_commits: Some(OPS_PER_REP),
        duration: SimDuration::from_secs(3600),
        warmup: SimDuration::from_secs(3),
        faults: Vec::new(),
        leader_bias: Some(NodeId(1)),
        reads: None,
        unbatched_persists: false,
    }
}

/// C-Raft, 10 clusters × 2 sites over ten regions (`aws_global`,
/// 10–300 ms one-way), one writer per cluster, 64 B, 10 s warm-up + 100
/// simulated seconds. Why: the paper's Fig. 5 headline cell.
pub fn craft_geo_write(seed: u64) -> Scenario {
    const PER: u64 = 2;
    // One writer per cluster, placed by the benchmark's own generator.
    let mut state = seed ^ 0xC4AF_7000;
    let proposers = (0..CLUSTERS)
        .map(|c| NodeId(c * PER + splitmix64(&mut state) % PER))
        .collect();
    Scenario {
        seed,
        sites: CLUSTERS * PER,
        network: NetworkKind::Regions { regions: CLUSTERS },
        loss: 0.0,
        timing: Timing::lan(),
        proposers,
        payload_bytes: 64,
        target_commits: None,
        duration: SimDuration::from_secs(110),
        warmup: SimDuration::from_secs(10),
        faults: Vec::new(),
        leader_bias: None,
        reads: None,
        unbatched_persists: false,
    }
}

/// Fast Raft, 5 sites LAN, 2 % i.i.d. loss, 50 % linearizable reads
/// (leases on), 1 ms fsync, clients at 1–3; the leader (site 0) crashes at
/// 60 s and recovers from stable storage at 70 s, site 4 leaves silently
/// at 200 s; 25 000 operations. Why: the dynamic-network regime — the same
/// engine as `fast_lan_write` used differently.
pub fn fast_churn_rw(seed: u64) -> Scenario {
    let mut timing = Timing::lan();
    timing.disk_fsync_latency = SimDuration::from_millis(1);
    Scenario {
        seed,
        sites: 5,
        network: NetworkKind::SingleRegion,
        loss: 0.02,
        timing,
        proposers: vec![NodeId(1), NodeId(2), NodeId(3)],
        payload_bytes: 64,
        target_commits: Some(OPS_PER_REP),
        duration: SimDuration::from_secs(3600),
        warmup: SimDuration::from_secs(3),
        faults: vec![
            (CHURN_CRASH_AT, FaultAction::Crash(NodeId(0))),
            (CHURN_RECOVER_AT, FaultAction::Recover(NodeId(0))),
            (CHURN_LEAVE_AT, FaultAction::SilentLeave(NodeId(4))),
        ],
        leader_bias: Some(NodeId(0)),
        reads: Some(ReadMix {
            ratio: 0.5,
            consistency: Consistency::Linearizable,
            final_read: false,
        }),
        unbatched_persists: false,
    }
}

/// Classic Raft on the shard fabric: 3 procs, 256 groups, 256 closed-loop
/// clients, Zipf(0.99) over 4096 keys, 512 B payload, reliable LAN
/// (`Network::reliable_lan`), hibernation after 1 s; clients start at 5 s,
/// window 10→20 simulated seconds. Why: the only workload on classic Raft,
/// the timer wheel, the router and frame coalescing.
pub fn shard_zipf_g256(seed: u64) -> ShardConfig {
    ShardConfig {
        procs: 3,
        groups: 256,
        seed,
        idle_after: SimDuration::from_secs(1),
        workload: WorkloadSpec {
            clients: SHARD_CLIENTS,
            keys: 4096,
            zipf_theta: 0.99,
            payload_bytes: 512,
            start_at: SimTime::from_secs(5),
            op_timeout: SimDuration::from_secs(2),
            retry_backoff: SimDuration::from_millis(25),
            target_group: None,
        },
    }
}

/// The engine timing of `shard_zipf_g256`: LAN numbers with a tight
/// per-append entry budget, as in `shard_sweep`.
pub fn shard_timing() -> Timing {
    let mut timing = Timing::lan();
    timing.max_entries_per_append = 32;
    timing
}

/// The benchmark's own input generator (SplitMix64), so generating a
/// scenario calls nothing in the program under test.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
