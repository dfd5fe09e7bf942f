//! Regenerates Fig. 3: commit latency vs message loss, classic vs Fast Raft.
//!
//! `--json <path>` additionally writes the machine-readable series consumed
//! by the CI bench gate.

fn main() {
    let opts = bench::BenchOpts::from_args();
    let (losses, commits): (Vec<f64>, u64) = if opts.quick {
        (vec![0.0, 5.0, 10.0], 30)
    } else {
        ((0..=10).map(|p| p as f64).collect(), 100)
    };
    let result = harness::experiments::fig3::run(&opts.seed_list(), &losses, commits);
    print!("{}", result.render());
    opts.write_json(&result.to_json());
}
