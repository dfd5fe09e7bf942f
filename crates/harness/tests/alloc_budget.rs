//! Allocation budget: a steady-state committed write may cost only a few
//! allocator calls.
//!
//! A protocol step gets its `Actions` buffer from the embedding's free
//! list, the leader's vote book reuses its slots, and engine handlers
//! iterate instead of collecting — so what a committed write still
//! allocates is its own payload and the entry batches that carry it, not
//! per-step scaffolding. This test pins that: it runs the 5-site LAN Fast
//! Raft scenario and the 10 × 2 C-Raft scenario to N and to 2N operations
//! under a counting allocator and bounds the **marginal** calls per
//! operation, `(calls(2N) − calls(N)) / N`, so deployment set-up, elections
//! and buffer warm-up cancel out.
//!
//! It also pins that the count is exact: a `perf` `fast_churn_rw`-shaped
//! run (loss, linearizable reads, a leader crash and recovery) repeated at
//! one seed makes the same number of allocator calls. Every simulator table
//! hashes with the seedless `des::IdHasher`; under std's seeded hasher a
//! table's tombstone layout, and so when it grows, varied run to run.
//!
//! Own test binary, own `#[global_allocator]`, a single `#[test]`: nothing
//! else allocates while a run is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use des::{SimDuration, SimTime};
use harness::{
    run_craft, run_fast_raft, CRaftScenario, FaultAction, NetworkKind, ReadMix, RunReport, Scenario,
};
use raft::Timing;
use wire::{Consistency, NodeId};

/// Allocator calls (`alloc` + `realloc`, `perf`'s rule).
static CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Operations of the shorter run; the longer one does twice as many.
const N: u64 = 2_000;

/// Measured marginal cost at the time of writing: 2.91 (Fast Raft) and 4.63
/// (C-Raft) calls per write — the 64-byte payload, its `Bytes` handle, and
/// a share of the AppendEntries batches. The budgets leave about 2× for
/// drift; the figures were 3.24 and 4.66 under std's seeded hasher, 44 and
/// 65 before step buffers were recycled.
const FAST_RAFT_BUDGET: f64 = 8.0;
const CRAFT_BUDGET: f64 = 12.0;

fn lan_writes(target: u64) -> Scenario {
    // The paper's 5-site single-region cell with three contending writers.
    Scenario {
        proposers: vec![NodeId(1), NodeId(2), NodeId(3)],
        target_commits: Some(target),
        duration: SimDuration::from_secs(3600),
        leader_bias: Some(NodeId(1)),
        ..Scenario::fig3_base(4242, 0.0)
    }
}

/// `perf`'s `fast_churn_rw`, shortened: 2 % loss, 1 ms fsync, half the
/// operations linearizable reads (leases on), and the leader crashing and
/// recovering from stable storage mid-run.
fn churn_rw(target: u64) -> Scenario {
    let mut timing = Timing::lan();
    timing.disk_fsync_latency = SimDuration::from_millis(1);
    Scenario {
        loss: 0.02,
        timing,
        faults: vec![
            (SimTime::from_secs(4), FaultAction::Crash(NodeId(0))),
            (SimTime::from_secs(5), FaultAction::Recover(NodeId(0))),
        ],
        leader_bias: Some(NodeId(0)),
        reads: Some(ReadMix {
            ratio: 0.5,
            consistency: Consistency::Linearizable,
            final_read: false,
        }),
        ..lan_writes(target)
    }
}

fn geo_writes(target: u64) -> Scenario {
    Scenario {
        sites: 20,
        network: NetworkKind::Regions { regions: 10 },
        proposers: (0..10).map(|cluster| NodeId(cluster * 2)).collect(),
        warmup: SimDuration::from_secs(10),
        leader_bias: None,
        ..lan_writes(target)
    }
}

/// Allocator calls of one whole run, which must complete `target` writes.
fn calls_of(target: u64, run: impl FnOnce() -> RunReport) -> u64 {
    let before = CALLS.load(Relaxed);
    let report = run();
    let calls = CALLS.load(Relaxed) - before;
    assert!(report.safety_ok, "safety violated");
    assert!(
        report.completed >= target,
        "only {} of {target} operations completed",
        report.completed
    );
    calls
}

fn marginal_calls_per_op(run: impl Fn(u64) -> RunReport) -> f64 {
    let short = calls_of(N, || run(N));
    let long = calls_of(2 * N, || run(2 * N));
    long.saturating_sub(short) as f64 / N as f64
}

#[test]
fn a_steady_state_write_stays_within_its_allocation_budget() {
    let fast = marginal_calls_per_op(|n| run_fast_raft(&lan_writes(n)).0);
    let craft = marginal_calls_per_op(|n| run_craft(&geo_writes(n), &CRaftScenario::paper(10)).0);
    println!("marginal allocator calls per write: Fast Raft {fast:.2}, C-Raft {craft:.2}");
    let churn = [0; 2].map(|_| {
        calls_of(2 * N, || {
            let report = run_fast_raft(&churn_rw(2 * N)).0;
            assert!(
                report.leaderships >= 2,
                "the leader crash forced no failover"
            );
            report
        })
    });
    println!("allocator calls of one churn run, twice: {churn:?}");
    assert_eq!(
        churn[0], churn[1],
        "the same churn run at the same seed made different allocator call counts"
    );
    assert!(
        fast <= FAST_RAFT_BUDGET,
        "5-site LAN Fast Raft: {fast:.2} allocator calls per write, budget {FAST_RAFT_BUDGET}"
    );
    assert!(
        craft <= CRAFT_BUDGET,
        "10x2 C-Raft: {craft:.2} allocator calls per write, budget {CRAFT_BUDGET}"
    );
}
