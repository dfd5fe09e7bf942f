//! Extension: C-Raft global proposal-mode ablation (Ext-A).
//!
//! `--json <path>` additionally writes the per-mode throughput series.

fn main() {
    let opts = bench::BenchOpts::from_args();
    let secs = if opts.quick { 20 } else { 120 };
    let result = harness::experiments::ext::mode_ablation(7, &[2, 4, 10], secs);
    print!("{}", result.render());
    opts.write_json(&result.to_json());
}
