//! CI bench gate: compares bench JSON results against a checked-in baseline.
//!
//! Usage:
//!
//! ```text
//! bench_compare --baseline ci/bench_baseline.json [--threshold 0.20] [--exact] <current.json>...
//! ```
//!
//! The baseline maps bench names to `series` objects (`{"fig5": {"craft/10":
//! 193.33, ...}, ...}`); each current file is the `--json` output of a bench
//! binary (`{"bench": "fig5", "series": {...}}`). The gate fails (exit 1)
//! when any baseline series key is missing from the current run or its
//! throughput dropped by more than `threshold` (default 20%). Keys present
//! only in the current run are reported but not gated, so sweeps can grow
//! without immediately re-baselining.
//!
//! The simulator is deterministic, so for identical code the numbers match
//! the baseline exactly; the threshold only absorbs intentional,
//! benign-but-measurable behavior shifts.
//!
//! Threshold mode reads every series as higher-is-better: a value may rise
//! without limit and fails only when it drops. Lower-is-better series (the
//! latencies and hop counts of `fig3`, `fig4`, `rounds`) therefore go
//! through `--exact` only.
//!
//! `--exact` replaces the threshold with bit-for-bit reproduction: every
//! baseline key must match the current value exactly (up to float-print
//! rounding). Refactors that claim to be behavior-identical — the simulator
//! being deterministic, *any* divergence means behavior changed — are gated
//! with this mode.

use bench::json::{parse, Value};

struct Args {
    baseline: String,
    threshold: f64,
    exact: bool,
    current: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut threshold = 0.20;
    let mut exact = false;
    let mut current = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => {
                baseline = match args.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err("--baseline needs a file path".into()),
                };
            }
            "--threshold" => {
                threshold = args
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threshold needs a number")?;
            }
            "--exact" => exact = true,
            other if !other.starts_with("--") => current.push(other.to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let baseline = baseline.ok_or("--baseline <file> is required")?;
    if current.is_empty() {
        return Err("at least one current result file is required".into());
    }
    Ok(Args {
        baseline,
        threshold,
        exact,
        current,
    })
}

/// Equality up to float-print rounding (values travel through `{:.2}`).
fn matches_exactly(cur: f64, base: f64) -> bool {
    (cur - base).abs() <= 1e-9 * base.abs().max(1.0)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            std::process::exit(2);
        }
    };
    let baseline = match load(&args.baseline) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut failures = 0u32;
    for path in &args.current {
        let current = match load(path) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        let Some(name) = current.get("bench").and_then(Value::as_str) else {
            eprintln!("{path}: missing \"bench\" name");
            std::process::exit(2);
        };
        let Some(cur_series) = current.get("series").and_then(Value::as_obj) else {
            eprintln!("{path}: missing \"series\" object");
            std::process::exit(2);
        };
        let Some(base_series) = baseline.get(name).and_then(Value::as_obj) else {
            eprintln!("FAIL {name}: no baseline entry in {}", args.baseline);
            failures += 1;
            continue;
        };
        if args.exact {
            println!("== {name} (exact reproduction)");
        } else {
            println!("== {name} (threshold -{:.0}%)", args.threshold * 100.0);
        }
        for (key, base_val) in base_series {
            let Some(base) = base_val.as_num() else {
                eprintln!("FAIL {name}/{key}: baseline value is not a number");
                failures += 1;
                continue;
            };
            match cur_series.get(key).and_then(Value::as_num) {
                None => {
                    eprintln!("FAIL {name}/{key}: missing from current run");
                    failures += 1;
                }
                Some(cur) if args.exact => {
                    if matches_exactly(cur, base) {
                        println!("  ok {key}: {cur:.2} == baseline (exact)");
                    } else {
                        eprintln!(
                            "FAIL {name}/{key}: {cur:.2} != baseline {base:.2} — the \
                             deterministic series diverged, so behavior changed"
                        );
                        failures += 1;
                    }
                }
                Some(cur) => {
                    let floor = base * (1.0 - args.threshold);
                    let delta = if base > 0.0 {
                        (cur - base) / base * 100.0
                    } else {
                        0.0
                    };
                    if cur < floor {
                        eprintln!(
                            "FAIL {name}/{key}: {cur:.2} < {floor:.2} (baseline {base:.2}, {delta:+.1}%)"
                        );
                        failures += 1;
                    } else {
                        println!("  ok {key}: {cur:.2} vs baseline {base:.2} ({delta:+.1}%)");
                    }
                }
            }
        }
        for key in cur_series.keys() {
            if !base_series.contains_key(key) {
                println!("  new {key}: not in baseline (not gated)");
            }
        }
    }
    if failures > 0 {
        eprintln!("bench gate: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("bench gate: all series within threshold");
}
