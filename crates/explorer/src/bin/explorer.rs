//! The `explorer` CLI: hunt interleaving bugs, replay repro traces.
//!
//! ```text
//! explorer explore --proto gated --seeds 0..50 --steps 2000 \
//!     --strategy hammer --out crates/explorer/traces
//! explorer replay crates/explorer/traces/gated_noop_wedge.trace --expect-pass
//! ```
//!
//! `explore` runs one exploration per seed; on the first violation it
//! shrinks the schedule and (with `--out`) writes the minimized trace, then
//! exits non-zero. `replay` re-executes a trace bit-identically and reports
//! the verdict; `--expect-pass` / `--expect-fail` set the exit code for CI.

use explorer::{explore_setup, replay_setup, shrink_setup, strategy, Proto, Setup, Trace};

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => cmd_explore(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  explorer explore [--proto raft|fast|gated|craft|all] [--seeds A..B]
                   [--steps N] [--strategy random|delay|hammer|all]
                   [--sites N] [--clusters N] [--ops N] [--read-every N]
                   [--lanes N] [--register] [--snapshot N]
                   [--shrink-budget N] [--out DIR]
  explorer replay FILE [--expect-pass|--expect-fail]";

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_num(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match parse_flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {name} value {v:?}")),
    }
}

fn cmd_explore(args: &[String]) -> ExitCode {
    match run_explore(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_explore(args: &[String]) -> Result<ExitCode, String> {
    let protos: Vec<Proto> = match parse_flag(args, "--proto").as_deref() {
        None | Some("all") => vec![Proto::Raft, Proto::Fast, Proto::Gated, Proto::Craft],
        Some(p) => vec![Proto::parse(p).ok_or_else(|| format!("unknown proto {p:?}"))?],
    };
    let strategies: Vec<String> = match parse_flag(args, "--strategy").as_deref() {
        None | Some("all") => vec!["random".into(), "delay".into(), "hammer".into()],
        Some(s) => vec![s.to_string()],
    };
    let seeds = parse_flag(args, "--seeds").unwrap_or_else(|| "0..10".into());
    let (lo, hi) = seeds
        .split_once("..")
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)))
        .ok_or_else(|| format!("bad --seeds range {seeds:?} (want A..B)"))?;
    let steps = parse_num(args, "--steps", 1_000)?;
    let sites = parse_num(args, "--sites", 3)?;
    let clusters = parse_num(args, "--clusters", 2)?;
    let ops = parse_num(args, "--ops", 3)? as u32;
    let read_every = parse_num(args, "--read-every", 3)? as u32;
    let lanes = parse_num(args, "--lanes", 1)? as u32;
    let register = args.iter().any(|a| a == "--register");
    let snapshot = parse_flag(args, "--snapshot")
        .map(|v| v.parse().map_err(|_| format!("bad --snapshot value {v:?}")))
        .transpose()?;
    let shrink_budget = parse_num(args, "--shrink-budget", 3_000)? as u32;
    let out_dir = parse_flag(args, "--out");

    let mut explored = 0u64;
    let (mut compactions, mut installs) = (0u64, 0u64);
    for proto in &protos {
        let setup_base = Setup {
            proto: *proto,
            sites,
            clusters: if *proto == Proto::Craft { clusters } else { 0 },
            seed: 0,
            ops,
            read_every,
            lanes,
            register_first: register,
            snapshot,
        };
        for strat_name in &strategies {
            for seed in lo..hi {
                let setup = Setup {
                    seed,
                    ..setup_base.clone()
                };
                let mut strat = strategy::by_name(strat_name, seed)
                    .ok_or_else(|| format!("unknown strategy {strat_name:?}"))?;
                let report = explore_setup(&setup, strat.as_mut(), steps);
                explored += 1;
                compactions += report.snapshots.0;
                installs += report.snapshots.1;
                let Some(violation) = report.violation else {
                    continue;
                };
                println!(
                    "VIOLATION proto={} strategy={strat_name} seed={seed}: {violation}",
                    proto.name()
                );
                println!(
                    "  schedule: {} choices, {} commits checked — shrinking (budget {})...",
                    report.choices.len(),
                    report.commits_seen,
                    shrink_budget
                );
                // Replays that panic again would each print the panic;
                // the first one already has.
                let hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(|_| {}));
                let shrunk = shrink_setup(&setup, &report.choices, shrink_budget);
                std::panic::set_hook(hook);
                println!(
                    "  minimized to {} choices in {} replays: {}",
                    shrunk.choices.len(),
                    shrunk.replays,
                    shrunk.violation
                );
                let trace = Trace {
                    setup: setup.clone(),
                    choices: shrunk.choices,
                };
                if let Some(dir) = &out_dir {
                    let file = format!(
                        "{dir}/{}_{}_{}_{}.trace",
                        proto.name(),
                        strat_name,
                        seed,
                        shrunk.violation.kind()
                    );
                    std::fs::write(&file, trace.to_text())
                        .map_err(|e| format!("writing {file}: {e}"))?;
                    println!("  wrote {file}");
                } else {
                    print!("{}", trace.to_text());
                }
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    println!(
        "clean: {explored} exploration(s) across {} proto(s) x {} strategy(ies), seeds {lo}..{hi}, {steps} steps each — no violations ({compactions} compactions, {installs} snapshot installs)",
        protos.len(),
        strategies.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let Some(file) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("replay: missing trace file\n{USAGE}");
        return ExitCode::from(2);
    };
    let expect_pass = args.iter().any(|a| a == "--expect-pass");
    let expect_fail = args.iter().any(|a| a == "--expect-fail");
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("replay: reading {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = match Trace::parse(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("replay: parsing {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let verdict = replay_setup(&trace.setup, &trace.choices);
    match &verdict {
        Some(v) => println!(
            "{file}: {} choices on {} -> {v}",
            trace.choices.len(),
            trace.setup.proto.name()
        ),
        None => println!(
            "{file}: {} choices on {} -> pass (no violation)",
            trace.choices.len(),
            trace.setup.proto.name()
        ),
    }
    let failed = verdict.is_some();
    let ok = if expect_pass {
        !failed
    } else if expect_fail {
        failed
    } else {
        !failed
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
