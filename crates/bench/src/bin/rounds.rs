//! Regenerates Figs. 1–2: message rounds per committed proposal.
//!
//! `--json <path>` additionally writes the machine-readable series consumed
//! by the CI bench gate.

fn main() {
    let opts = bench::BenchOpts::from_args();
    let commits = if opts.quick { 10 } else { 50 };
    let result = harness::experiments::rounds::run(42, commits);
    print!("{}", result.render());
    opts.write_json(&result.to_json());
}
