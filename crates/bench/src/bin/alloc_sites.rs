//! Allocation-site profile: where do the allocator calls behind one
//! committed operation come from?
//!
//! Runs four scenarios shaped like the benchmark's workloads (5-site LAN
//! Fast Raft writes; 10 × 2 C-Raft over regions; Fast Raft under loss with
//! reads, a leader crash and a silent leave; 256 classic-Raft groups on the
//! shard fabric) under a **sampling** global allocator: one allocator call
//! in [`SAMPLE_EVERY`] captures a backtrace, and each sample is charged to
//! its *leaf frame* — the innermost frame inside this workspace, i.e. the
//! repository line that asked for memory, not the `Vec`/`BTreeMap`
//! internals it went through. Prints one table per scenario, in allocator
//! calls per completed operation (`perf`'s rule: `alloc` + `realloc`).
//!
//! ```text
//! CARGO_PROFILE_RELEASE_DEBUG=true cargo run --release -p bench --bin alloc_sites
//! CARGO_PROFILE_RELEASE_DEBUG=true cargo run --release -p bench --bin alloc_sites -- craft_geo 40 2
//! ```
//!
//! Arguments: an optional scenario-name filter, the table length (default
//! 25), and how many workspace frames identify a site (default 1, the leaf;
//! 2 adds its caller, which tells one `clone()` from another). Build with
//! debug info as above to get `file:line` and to see through inlining;
//! without it the table still names functions. The totals are exact; a
//! site's share is an estimate from ~1 % of the calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

use des::{SimDuration, SimTime};
use harness::{
    run_craft, run_fast_raft, CRaftScenario, FaultAction, NetworkKind, ReadMix, Scenario,
};
use raft::Timing;
use shard::{raft_factory, ShardConfig, ShardRunner, WorkloadSpec};
use wire::{Consistency, NodeId};

/// One allocator call in this many is sampled (a prime, so no periodic
/// allocation pattern aliases with the sampler).
const SAMPLE_EVERY: u64 = 97;

/// Crates whose frames count as "this repository" for leaf attribution.
const WORKSPACE: [&str; 9] = [
    "harness",
    "shard",
    "consensus_core",
    "raft",
    "wire",
    "storage",
    "simnet",
    "des",
    "bytes",
];

struct SamplingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static SAMPLES: Mutex<Vec<Backtrace>> = Mutex::new(Vec::new());

thread_local! {
    /// Set while a sample is being taken: capturing a backtrace allocates,
    /// and those calls must neither be counted nor sampled.
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
}

fn note_call() {
    if SAMPLING.with(Cell::get) {
        return;
    }
    if !CALLS.fetch_add(1, Relaxed).is_multiple_of(SAMPLE_EVERY) {
        return;
    }
    SAMPLING.with(|s| s.set(true));
    // Unresolved capture: symbolication happens once, at report time.
    let trace = Backtrace::force_capture();
    if let Ok(mut samples) = SAMPLES.lock() {
        samples.push(trace);
    }
    SAMPLING.with(|s| s.set(false));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note_call` only counts and samples.
unsafe impl GlobalAlloc for SamplingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_call();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_call();
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: SamplingAlloc = SamplingAlloc;

/// The innermost `depth` workspace frames of a rendered backtrace, leaf
/// first, each as `function (file:line)` and joined by ` <- `; `None` when
/// no frame belongs to the workspace (runtime start-up, the profiler's own
/// bookkeeping).
fn leaf_frames(rendered: &str, depth: usize) -> Option<String> {
    let mut frames: Vec<String> = Vec::new();
    let mut lines = rendered.lines().peekable();
    while let Some(line) = lines.next() {
        // Frame lines read "  12: path::to::function"; the optional
        // location follows on its own line as "      at file:line:col".
        let Some((num, func)) = line.trim_start().split_once(": ") else {
            continue;
        };
        if !num.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        let path = func.trim_start_matches('<');
        let ours = WORKSPACE.iter().any(|c| {
            path.strip_prefix(c)
                .is_some_and(|rest| rest.starts_with("::"))
        });
        if !ours {
            continue;
        }
        let at = lines
            .peek()
            .and_then(|next| next.trim_start().strip_prefix("at "))
            .map(|loc| {
                // Keep "crates/…/file.rs:line", drop the column.
                let loc = loc.rsplit_once(':').map_or(loc, |(head, _col)| head);
                loc.find("crates/").map_or(loc, |i| &loc[i..]).to_owned()
            });
        frames.push(match at {
            Some(at) => format!("{func} ({at})"),
            None => func.to_owned(),
        });
        if frames.len() == depth {
            break;
        }
    }
    (!frames.is_empty()).then(|| frames.join(" <- "))
}

/// Command-line options.
struct Opts {
    /// Only scenarios whose name contains this run.
    filter: String,
    /// Rows per table.
    top: usize,
    /// Workspace frames that identify a site.
    depth: usize,
}

/// Runs scenario `name` through `run` (which returns the operations it
/// completed) and prints its leaf-frame table.
fn profile(opts: &Opts, name: &str, run: impl FnOnce() -> u64) {
    if !name.contains(&opts.filter) {
        return;
    }
    SAMPLES.lock().expect("single-threaded").clear();
    let before = CALLS.load(Relaxed);
    let ops = run();
    let calls = CALLS.load(Relaxed) - before;

    // Everything below allocates freely; keep it out of the next scenario.
    SAMPLING.with(|s| s.set(true));
    let samples = std::mem::take(&mut *SAMPLES.lock().expect("single-threaded"));
    let mut sites: HashMap<String, u64> = HashMap::new();
    for trace in &samples {
        let site = leaf_frames(&trace.to_string(), opts.depth)
            .unwrap_or_else(|| "(outside the workspace)".into());
        *sites.entry(site).or_default() += 1;
    }
    let mut table: Vec<(String, u64)> = sites.into_iter().collect();
    table.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let per_op = |n: u64| n as f64 / ops as f64;
    println!(
        "\n== {name}: {ops} ops, {calls} allocator calls = {:.2} calls/op ({} samples, whole run incl. set-up)",
        per_op(calls),
        samples.len()
    );
    println!("{:>9} {:>6}  leaf frame", "calls/op", "share");
    for (site, n) in table.iter().take(opts.top) {
        println!(
            "{:>9.2} {:>5.1}%  {site}",
            per_op(n * SAMPLE_EVERY),
            100.0 * *n as f64 / samples.len().max(1) as f64
        );
    }
    drop((samples, table));
    SAMPLING.with(|s| s.set(false));
}

fn lan_scenario(seed: u64) -> Scenario {
    Scenario {
        proposers: vec![NodeId(1), NodeId(2), NodeId(3)],
        target_commits: Some(25_000),
        duration: SimDuration::from_secs(3600),
        leader_bias: Some(NodeId(1)),
        ..Scenario::fig3_base(seed, 0.0)
    }
}

fn geo_scenario(seed: u64) -> Scenario {
    Scenario {
        sites: 20,
        network: NetworkKind::Regions { regions: 10 },
        proposers: (0..10).map(|c| NodeId(c * 2)).collect(),
        target_commits: None,
        duration: SimDuration::from_secs(110),
        warmup: SimDuration::from_secs(10),
        leader_bias: None,
        ..lan_scenario(seed)
    }
}

fn churn_scenario(seed: u64) -> Scenario {
    let mut timing = Timing::lan();
    timing.disk_fsync_latency = SimDuration::from_millis(1);
    Scenario {
        loss: 0.02,
        timing,
        faults: vec![
            (SimTime::from_secs(60), FaultAction::Crash(NodeId(0))),
            (SimTime::from_secs(70), FaultAction::Recover(NodeId(0))),
            (SimTime::from_secs(200), FaultAction::SilentLeave(NodeId(4))),
        ],
        leader_bias: Some(NodeId(0)),
        reads: Some(ReadMix {
            ratio: 0.5,
            consistency: Consistency::Linearizable,
            final_read: false,
        }),
        ..lan_scenario(seed)
    }
}

fn shard_ops(seed: u64) -> u64 {
    let cfg = ShardConfig {
        procs: 3,
        groups: 256,
        seed,
        idle_after: SimDuration::from_secs(1),
        workload: WorkloadSpec {
            clients: 256,
            keys: 4096,
            zipf_theta: 0.99,
            payload_bytes: 512,
            start_at: SimTime::from_secs(5),
            op_timeout: SimDuration::from_secs(2),
            retry_backoff: SimDuration::from_millis(25),
            target_group: None,
        },
    };
    let mut timing = Timing::lan();
    timing.max_entries_per_append = 32;
    let mut runner = ShardRunner::new(cfg, Vec::new(), raft_factory(timing));
    runner.run_until(SimTime::from_secs(20));
    assert!(runner.violations().is_empty());
    runner.metrics().completed_total
}

fn main() {
    let mut args = std::env::args().skip(1);
    let opts = Opts {
        filter: args.next().unwrap_or_default(),
        top: args.next().and_then(|n| n.parse().ok()).unwrap_or(25),
        depth: args.next().and_then(|n| n.parse().ok()).unwrap_or(1).max(1),
    };
    let seed = 4242;
    let harness_ops = |(report, _): (harness::RunReport, harness::Metrics)| {
        assert!(report.safety_ok);
        report.completed
    };
    profile(&opts, "fast_lan_write", || {
        harness_ops(run_fast_raft(&lan_scenario(seed)))
    });
    profile(&opts, "craft_geo_write", || {
        harness_ops(run_craft(&geo_scenario(seed), &CRaftScenario::paper(10)))
    });
    profile(&opts, "fast_churn_rw", || {
        harness_ops(run_fast_raft(&churn_scenario(seed)))
    });
    profile(&opts, "shard_zipf_g256", || shard_ops(seed));
}
