//! Extension: concurrent proposers vs the fast track.
//!
//! `--json <path>` additionally writes the latency, fast-track share and
//! throughput series per proposer count.

fn main() {
    let opts = bench::BenchOpts::from_args();
    let secs = if opts.quick { 10 } else { 60 };
    let result = harness::experiments::ext::contention(7, 5, secs);
    print!("{}", result.render());
    opts.write_json(&result.to_json());
}
