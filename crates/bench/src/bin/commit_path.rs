//! Deterministic write-path probe: one write-only closed-loop workload
//! (11-site classic Raft, every site proposing, fsync latency modeled at
//! 10 ms) run twice from the same seed — group commit and the unbatched
//! one-fsync-per-command twin. The experiment itself asserts the write-path
//! contract: comparable persisted command streams, fewer fsync boundaries
//! and higher throughput for group commit.
//! `--json` feeds the fsync-ratio / cmds-per-batch / throughput series to
//! the CI gate.

fn main() {
    let opts = bench::BenchOpts::from_args();
    let ops: u64 = if opts.quick { 400 } else { 1500 };
    let seed = opts.seed_list()[0];
    let result = harness::experiments::commit_path::run(seed, ops);
    print!("{}", result.render());
    assert!(
        result.fsync_batch_ratio() >= 5.0,
        "group commit must cut fsync boundaries per commit by >= 5x, got {:.2}x",
        result.fsync_batch_ratio()
    );
    assert!(
        result.tput_speedup() > 1.0,
        "group commit failed to win on throughput"
    );
    opts.write_json(&result.to_json());
}
