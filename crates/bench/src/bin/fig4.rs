//! Regenerates Fig. 4: Fast Raft latency across a silent leave of 2/5 sites.
//!
//! `--json <path>` additionally writes the machine-readable series consumed
//! by the CI bench gate.

fn main() {
    let opts = bench::BenchOpts::from_args();
    let (leave_at, total) = if opts.quick { (6, 14) } else { (10, 30) };
    let result = harness::experiments::fig4::run(4242, leave_at, total);
    print!("{}", result.render());
    opts.write_json(&result.to_json());
}
