//! Allocation-site profile: where do the allocator calls behind one
//! committed operation come from, and what is resident at a run's peak?
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
//! The `peak` mode prints instead the bytes each site holds live at the
//! moment the run's live heap is highest, measured from the run's start as
//! `perf` measures one seed's `peak_heap_mb` (`perf` reports the median over
//! five seeds; this runs seed 4242 only). Every block of [`EXACT_BYTES`] or more is tracked
//! with its backtrace, which is exact; a smaller block is tracked when its
//! call is sampled and then stands for [`SAMPLE_EVERY`] blocks of its size.
//! A tracked block records the call that made it and the one after which it
//! was freed, so one run yields the live set at its peak.
//!
//! ```text
//! CARGO_PROFILE_RELEASE_DEBUG=true cargo run --release -p bench --bin alloc_sites
//! CARGO_PROFILE_RELEASE_DEBUG=true cargo run --release -p bench --bin alloc_sites -- craft_geo 40 2
//! CARGO_PROFILE_RELEASE_DEBUG=true cargo run --release -p bench --bin alloc_sites -- peak fast_lan 20 2
//! ```
//!
//! Arguments: an optional `peak`, an optional scenario-name filter, the
//! table length (default 25), and how many workspace frames identify a site
//! (default 1, the leaf; 2 adds its caller, which tells one `clone()` from
//! another). Build with debug info as above to get `file:line` and to see
//! through inlining; without it the table still names functions. The call
//! totals and the peak are exact; a site's share of the calls is an
//! estimate from ~1 % of them, and its small blocks at the peak likewise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
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

/// In `peak` mode, blocks of at least this many bytes are all tracked.
const EXACT_BYTES: usize = 4096;

struct SamplingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static SAMPLES: Mutex<Vec<Backtrace>> = Mutex::new(Vec::new());
/// Set for the `peak` mode: allocations become tracked blocks.
static PEAK_MODE: AtomicBool = AtomicBool::new(false);
/// Bytes currently allocated by the program (wrapping: a block allocated
/// before the profiler started counting may be freed after).
static LIVE: AtomicU64 = AtomicU64::new(0);
/// Highest `LIVE` since the scenario started, and the call that reached it.
static PEAK: AtomicU64 = AtomicU64::new(0);
static PEAK_AT: AtomicU64 = AtomicU64::new(0);
static BLOCKS: Mutex<Blocks> = Mutex::new(Blocks {
    all: Vec::new(),
    open: None,
});

/// One tracked block of the `peak` mode.
struct Block {
    trace: Backtrace,
    /// Bytes it stands for: its size, times [`SAMPLE_EVERY`] when sampled.
    bytes: u64,
    /// The allocator call that made it.
    born: u64,
    /// Calls made before it was freed; `None` while live.
    freed: Option<u64>,
}

/// The tracked blocks, and the live ones by address.
struct Blocks {
    all: Vec<Block>,
    open: Option<HashMap<usize, usize>>,
}

thread_local! {
    /// Set while the profiler itself works: capturing a backtrace and
    /// filing a block allocate, and those calls must be neither counted,
    /// sampled nor tracked.
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` as the profiler's own work (see `SAMPLING`).
fn untracked<T>(f: impl FnOnce() -> T) -> T {
    SAMPLING.with(|s| s.set(true));
    let out = f();
    SAMPLING.with(|s| s.set(false));
    out
}

fn note_alloc(ptr: *mut u8, size: usize) {
    if SAMPLING.with(Cell::get) {
        return;
    }
    let call = CALLS.fetch_add(1, Relaxed);
    let live = LIVE
        .fetch_add(size as u64, Relaxed)
        .wrapping_add(size as u64);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
        PEAK_AT.store(call, Relaxed);
    }
    let sampled = call.is_multiple_of(SAMPLE_EVERY);
    if PEAK_MODE.load(Relaxed) {
        if size < EXACT_BYTES && !sampled {
            return;
        }
        let weight = if size < EXACT_BYTES { SAMPLE_EVERY } else { 1 };
        untracked(|| {
            let block = Block {
                trace: Backtrace::force_capture(),
                bytes: size as u64 * weight,
                born: call,
                freed: None,
            };
            if let Ok(mut blocks) = BLOCKS.lock() {
                let at = blocks.all.len();
                blocks.all.push(block);
                blocks
                    .open
                    .get_or_insert_with(HashMap::new)
                    .insert(ptr as usize, at);
            }
        });
    } else if sampled {
        // Unresolved capture: symbolication happens once, at report time.
        untracked(|| {
            let trace = Backtrace::force_capture();
            if let Ok(mut samples) = SAMPLES.lock() {
                samples.push(trace);
            }
        });
    }
}

fn note_free(ptr: *mut u8, size: usize) {
    if SAMPLING.with(Cell::get) {
        return;
    }
    LIVE.fetch_sub(size as u64, Relaxed);
    if PEAK_MODE.load(Relaxed) {
        untracked(|| {
            if let Ok(mut blocks) = BLOCKS.lock() {
                if let Some(at) = blocks.open.as_mut().and_then(|o| o.remove(&(ptr as usize))) {
                    blocks.all[at].freed = Some(CALLS.load(Relaxed));
                }
            }
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns its result unchanged;
// `note_alloc` and `note_free` only count, sample and file addresses.
unsafe impl GlobalAlloc for SamplingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let ptr = unsafe { System.alloc(layout) };
        note_alloc(ptr, layout.size());
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(ptr, layout.size());
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        note_free(ptr, layout.size());
        note_alloc(new, new_size);
        new
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

/// Command-line options (`peak` is kept in `PEAK_MODE`, which the
/// allocator reads).
struct Opts {
    /// Only scenarios whose name contains this run.
    filter: String,
    /// Rows per table.
    top: usize,
    /// Workspace frames that identify a site.
    depth: usize,
}

/// Sums `weight` per site over `traces`, largest first.
fn tally<'a>(
    opts: &Opts,
    traces: impl Iterator<Item = (&'a Backtrace, u64)>,
) -> Vec<(String, u64)> {
    let mut sites: HashMap<String, u64> = HashMap::new();
    for (trace, weight) in traces {
        let site = leaf_frames(&trace.to_string(), opts.depth)
            .unwrap_or_else(|| "(outside the workspace)".into());
        *sites.entry(site).or_default() += weight;
    }
    let mut table: Vec<(String, u64)> = sites.into_iter().collect();
    table.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    table
}

/// Runs scenario `name` through `run` (which returns the operations it
/// completed) and prints its leaf-frame table.
fn profile(opts: &Opts, name: &str, run: impl FnOnce() -> u64) {
    if !name.contains(&opts.filter) {
        return;
    }
    let start = untracked(|| {
        SAMPLES.lock().expect("single-threaded").clear();
        let mut blocks = BLOCKS.lock().expect("single-threaded");
        blocks.all.clear();
        blocks.open.get_or_insert_with(HashMap::new).clear();
        let live = LIVE.load(Relaxed);
        PEAK.store(live, Relaxed);
        PEAK_AT.store(CALLS.load(Relaxed), Relaxed);
        live
    });
    let before = CALLS.load(Relaxed);
    let ops = run();
    let calls = CALLS.load(Relaxed) - before;

    // Everything below allocates freely; keep it out of the next scenario.
    untracked(|| {
        if PEAK_MODE.load(Relaxed) {
            print_peak(opts, name, ops, PEAK.load(Relaxed).wrapping_sub(start));
        } else {
            print_calls(opts, name, ops, calls);
        }
    });
}

/// The calls table: allocator calls per completed operation, per site.
fn print_calls(opts: &Opts, name: &str, ops: u64, calls: u64) {
    let samples = std::mem::take(&mut *SAMPLES.lock().expect("single-threaded"));
    let table = tally(opts, samples.iter().map(|t| (t, 1)));
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
}

/// The peak table: bytes each site holds live when the run's live heap,
/// `peak` bytes above its start, is highest.
fn print_peak(opts: &Opts, name: &str, ops: u64, peak: u64) {
    let blocks = {
        let mut blocks = BLOCKS.lock().expect("single-threaded");
        blocks.open = None;
        std::mem::take(&mut blocks.all)
    };
    let at = PEAK_AT.load(Relaxed);
    let live = blocks
        .iter()
        .filter(|b| b.born <= at && b.freed.is_none_or(|f| f > at))
        .map(|b| (&b.trace, b.bytes));
    let table = tally(opts, live);
    let tracked: u64 = table.iter().map(|(_, n)| n).sum();
    let mb = |n: u64| n as f64 / 1e6;
    println!(
        "\n== {name}: {ops} ops, peak heap {:.3} MB above the run's start, at allocator call {at} \
         (blocks of {EXACT_BYTES} B and up exact, smaller ones sampled 1 in {SAMPLE_EVERY}; {:.3} MB tracked)",
        mb(peak),
        mb(tracked)
    );
    println!("{:>9} {:>6}  leaf frame", "MB", "share");
    for (site, n) in table.iter().take(opts.top) {
        println!(
            "{:>9.3} {:>5.1}%  {site}",
            mb(*n),
            100.0 * *n as f64 / peak.max(1) as f64
        );
    }
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
    let mut args = std::env::args().skip(1).peekable();
    PEAK_MODE.store(args.next_if(|a| a == "peak").is_some(), Relaxed);
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
