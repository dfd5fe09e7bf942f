//! Multi-group sharding sweep: throughput scaling across 1/16/256 groups
//! under Zipfian keys, plus the hibernation triplet (one active group
//! alone, with 4096 parked neighbours, and with hibernation disabled).
//! `ShardSweepResult::check` enforces the headline claims inline —
//! monotone scaling and idle-fleet cost within 10% — so the binary exits
//! non-zero on regression. `--json` writes the series `ci/figures.sh`
//! records.

fn main() {
    let opts = bench::BenchOpts::from_args();
    let seed = opts.seed_list()[0];
    let result = shard::run_sweep(seed, opts.quick);
    print!("{}", result.render());
    result.check();
    assert!(
        result.coalesce_widest() >= 1.0,
        "frame coalescing regressed below 1 message per frame"
    );
    opts.write_json(&result.to_json());
}
