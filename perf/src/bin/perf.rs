//! `perf` — the end-to-end run, tracing off.
//!
//! Runs one workload as many short repetitions as fit in `--seconds`,
//! cycling the seeds `base..base+5` round-robin after two discarded
//! warm-ups; checks every repetition's outputs; and prints, as the last
//! line of standard output, one JSON object with every end-to-end metric.
//! Repetitions of one seed must agree exactly on their outputs, and on
//! their allocation counts to one part in ten thousand (see
//! [`ALLOC_TOLERANCE`]) — determinism is the repository's one untradeable
//! invariant — and any disagreement or failed check exits non-zero without
//! a result line.
//!
//! This file calls the facade only (see `API.md`): a scenario goes in, a
//! report comes out. The time before the measurement window opens cannot
//! be bracketed through that surface on the `harness` workloads, so it is
//! measured by running the same scenario truncated at the end of its
//! warm-up; the window's wall time and allocations are the full run's
//! minus that.

use std::time::Instant;

use harness::{run_craft, run_fast_raft, Metrics, RunReport, Scenario};
use perf::alloc::{self, AllocDelta, CountingAlloc, COUNTERS};
use perf::args::Args;
use perf::output::{ResultLine, END_TO_END};
use perf::stats::{fastest_half_mean, iqr_share, median, quartiles};
use perf::workloads::{generate, Inputs, SHARD_WINDOW_FROM, SHARD_WINDOW_UNTIL};
use shard::{raft_factory, ShardRunner};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Discarded repetitions before measuring: allocator arenas, lazy statics
/// and the instruction cache settle.
const WARMUPS: usize = 2;

/// Repetitions of one seed may differ in allocator calls and bytes by at
/// most one part in this many. Everything the simulation decides repeats
/// exactly, but allocation counts do not quite: about one repetition in
/// fifty makes one table-growth allocation more or fewer (1 call in
/// ~800 000), because `std`'s `HashMap` seeds each instance's hasher at
/// random and hashbrown's tombstone clean-up — grow or rehash in place —
/// depends on where keys land. Found by this check; nothing a seed fixes.
const ALLOC_TOLERANCE: u64 = 10_000;

/// What one repetition's measurement window produced.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Window {
    /// Client operations completed inside the window.
    ops: u64,
    /// Operations refused terminally or missing against a count target.
    failed: u64,
    /// Simulated length of the window, seconds.
    sim_s: f64,
    /// Mean client-measured write latency, simulated ms.
    commit_mean_ms: f64,
    /// Completed operations, messages (frames) offered, and simulated end
    /// time (events dispatched, for the shard runner): repetitions of one
    /// seed must agree on all three.
    fingerprint: [u64; 3],
}

/// One measured repetition.
#[derive(Clone, Copy, Debug)]
struct Rep {
    /// Wall seconds from window-open to the end of the run.
    wall_s: f64,
    /// Wall seconds from the start of the repetition to window-open.
    setup_s: f64,
    window: Window,
    /// Allocator calls and bytes inside the window; peak over the whole
    /// repetition.
    alloc: AllocDelta,
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// The output check of a `harness` repetition, and its window.
fn harness_window(s: &Scenario, report: &RunReport, metrics: &Metrics) -> Result<Window, String> {
    let seed = s.seed;
    // `run_*` already panicked on a safety or linearizability violation
    // (`SafetyChecker::assert_ok`); the report repeats the verdict.
    check(report.safety_ok, || format!("seed {seed}: safety violated"))?;
    check(report.commits_checked > 0, || {
        format!("seed {seed}: the safety checker saw no commit")
    })?;
    let ops = (metrics.samples.len() + metrics.read_samples.len()) as u64;
    check(ops > 0 && !metrics.samples.is_empty(), || {
        format!("seed {seed}: nothing completed inside the window")
    })?;
    if s.reads.is_some() {
        check(report.lin_reads_checked > 0, || {
            format!("seed {seed}: no linearizable read was checked")
        })?;
    }
    let shortfall = s
        .target_commits
        .map_or(0, |t| t.saturating_sub(report.completed));
    let sum_us: u64 = metrics
        .samples
        .iter()
        .map(|x| x.latency().as_micros())
        .sum();
    Ok(Window {
        ops,
        failed: shortfall + metrics.sessions_expired,
        sim_s: report.sim_seconds - s.warmup.as_secs_f64(),
        commit_mean_ms: sum_us as f64 / metrics.samples.len() as f64 / 1e3,
        fingerprint: [
            report.completed,
            report.net.offered,
            (report.sim_seconds * 1e6).round() as u64,
        ],
    })
}

/// Runs `s` through `run`, bracketing the window by a truncated twin.
fn harness_rep(
    s: &Scenario,
    run: impl Fn(&Scenario) -> (RunReport, Metrics),
) -> Result<Rep, String> {
    // The twin: same deployment, same seed, stopped where the window
    // opens. No client has started, so no target and no fault applies.
    let mut twin = s.clone();
    twin.duration = s.warmup;
    twin.target_commits = None;
    twin.faults
        .retain(|(at, _)| *at < des::SimTime::ZERO + s.warmup);

    let a0 = alloc::region_start();
    let t0 = Instant::now();
    drop(run(&twin));
    let setup_s = t0.elapsed().as_secs_f64();
    let setup = alloc::region_end(a0);

    let a1 = alloc::region_start();
    let t1 = Instant::now();
    let (report, metrics) = run(s);
    let total_s = t1.elapsed().as_secs_f64();
    let full = alloc::region_end(a1);

    Ok(Rep {
        wall_s: total_s - setup_s,
        setup_s,
        window: harness_window(s, &report, &metrics)?,
        alloc: AllocDelta {
            calls: full.calls - setup.calls,
            bytes: full.bytes - setup.bytes,
            peak_above_start: full.peak_above_start,
        },
    })
}

fn shard_rep(cfg: &shard::ShardConfig, timing: raft::Timing) -> Result<Rep, String> {
    let seed = cfg.seed;
    let a0 = alloc::region_start();
    let t0 = Instant::now();
    let mut runner = ShardRunner::new(cfg.clone(), Vec::new(), raft_factory(timing));
    runner.set_measure_window(SHARD_WINDOW_FROM, SHARD_WINDOW_UNTIL);
    runner.run_until(SHARD_WINDOW_FROM);
    let setup_s = t0.elapsed().as_secs_f64();
    let opened = COUNTERS.snapshot();

    let t1 = Instant::now();
    runner.run_until(SHARD_WINDOW_UNTIL);
    let wall_s = t1.elapsed().as_secs_f64();
    let closed = COUNTERS.snapshot();

    check(runner.violations().is_empty(), || {
        format!(
            "seed {seed}: commit agreement violated: {:?}",
            runner.violations()
        )
    })?;
    let m = runner.metrics();
    check(m.completed_window > 0, || {
        format!("seed {seed}: nothing completed inside the window")
    })?;
    Ok(Rep {
        wall_s,
        setup_s,
        window: Window {
            ops: m.completed_window,
            // The shard runner exposes no terminal refusals; a client
            // stuck for good shows as fewer completed operations.
            failed: 0,
            sim_s: SHARD_WINDOW_UNTIL
                .saturating_since(SHARD_WINDOW_FROM)
                .as_secs_f64(),
            commit_mean_ms: m.latency_window_us as f64 / m.completed_window as f64 / 1e3,
            fingerprint: [m.completed_total, m.frames_window, m.events_total],
        },
        alloc: AllocDelta {
            calls: closed.calls - opened.calls,
            bytes: closed.bytes - opened.bytes,
            peak_above_start: closed.peak.saturating_sub(a0.live),
        },
    })
}

/// One seed's repetition, ready to run again and again.
type RepFn = Box<dyn Fn() -> Result<Rep, String>>;

fn repetitions(inputs: Inputs) -> Vec<RepFn> {
    match inputs {
        Inputs::FastRaft(scenarios) => scenarios
            .into_iter()
            .map(|s| Box::new(move || harness_rep(&s, run_fast_raft)) as RepFn)
            .collect(),
        Inputs::CRaft(scenarios, c) => scenarios
            .into_iter()
            .map(|s| {
                let c = c.clone();
                Box::new(move || harness_rep(&s, |s| run_craft(s, &c))) as RepFn
            })
            .collect(),
        Inputs::Shard(cfgs, timing) => cfgs
            .into_iter()
            .map(|cfg| Box::new(move || shard_rep(&cfg, timing)) as RepFn)
            .collect(),
    }
}

fn main() {
    let args = Args::from_env();
    let seeds = args.seeds();
    let run_rep =
        repetitions(generate(&args.workload, &seeds).expect("workload name was validated"));

    let fail = |msg: String| -> ! {
        eprintln!("perf: {}: FAILED: {msg}", args.workload);
        std::process::exit(1);
    };

    for run in run_rep.iter().take(WARMUPS) {
        run().unwrap_or_else(|e| fail(e));
    }

    // Whole seed cycles until the time is used: every seed gets the same
    // number of repetitions, so the wall estimate is not tilted toward
    // whichever seed happens to be cheapest.
    let mut reps: Vec<Vec<Rep>> = vec![Vec::new(); seeds.len()];
    let started = Instant::now();
    let budget = args.seconds as f64;
    loop {
        let cycle = Instant::now();
        for (ix, run) in run_rep.iter().enumerate() {
            let rep = run().unwrap_or_else(|e| fail(e));
            if let Some(first) = reps[ix].first() {
                if first.window != rep.window {
                    fail(format!(
                        "seed {} is not deterministic: {:?} then {:?}",
                        seeds[ix], first.window, rep.window
                    ));
                }
                let near = |a: u64, b: u64| a.abs_diff(b) * ALLOC_TOLERANCE <= a;
                if !(near(first.alloc.calls, rep.alloc.calls)
                    && near(first.alloc.bytes, rep.alloc.bytes))
                {
                    fail(format!(
                        "seed {} allocates differently: {:?} then {:?}",
                        seeds[ix], first.alloc, rep.alloc
                    ));
                }
            }
            reps[ix].push(rep);
        }
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + cycle.elapsed().as_secs_f64() / 2.0 >= budget {
            break;
        }
    }

    // Wall-clock metrics pool every repetition; exact metrics are one value
    // per seed (identical across that seed's repetitions, as just checked)
    // and report the median over the seeds, which one unlucky seed — an
    // election that drags on — cannot move.
    let all: Vec<&Rep> = reps.iter().flatten().collect();
    let rates: Vec<f64> = all.iter().map(|r| r.window.ops as f64 / r.wall_s).collect();
    let setups: Vec<f64> = all.iter().map(|r| r.setup_s).collect();
    let per_seed = |f: &dyn Fn(&Rep) -> f64| -> f64 {
        median(&reps.iter().map(|r| f(&r[0])).collect::<Vec<_>>())
    };
    let ops = |r: &Rep| r.window.ops as f64;
    let values = [
        fastest_half_mean(&rates),
        median(&setups),
        per_seed(&|r| r.alloc.calls as f64 / ops(r)),
        per_seed(&|r| r.alloc.bytes as f64 / ops(r)),
        per_seed(&|r| r.alloc.peak_above_start as f64 / 1e6),
        per_seed(&|r| ops(r) / r.window.sim_s),
        per_seed(&|r| r.window.commit_mean_ms),
    ];

    let failed: u64 = all.iter().map(|r| r.window.failed).sum();
    let attempted: u64 = all.iter().map(|r| r.window.ops + r.window.failed).sum();

    let [q1, q2, q3] = quartiles(&rates);
    eprintln!(
        "perf: {} seeds {}..={} — {} reps in {:.1} s, closed loop",
        args.workload,
        seeds[0],
        seeds[seeds.len() - 1],
        all.len(),
        started.elapsed().as_secs_f64()
    );
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        eprintln!("  {name:<20} {value:>16.4} {unit}");
    }
    eprintln!(
        "  wall rate per rep: q1 {q1:.0}  median {q2:.0}  q3 {q3:.0}  (n = {}, IQR {:.1} % of median)",
        rates.len(),
        100.0 * iqr_share(&rates)
    );
    eprintln!(
        "  failed_share {:.6} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    // One line of raw per-repetition rates, for the A/A study in NOISE.md.
    eprintln!(
        "reps: {{\"workload\": \"{}\", \"seed\": {}, \"rates\": {:?}, \"setups\": {:?}}}",
        args.workload, args.seed, rates, setups
    );

    let line = ResultLine {
        correct: true,
        attempted,
        failed,
        metrics: END_TO_END.iter().map(|m| m.0).zip(values).collect(),
    };
    println!("{}", line.render(&END_TO_END));
}
