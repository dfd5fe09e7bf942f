//! # `bench` — the figure and probe binaries
//!
//! One binary per table/figure of the paper (`fig3`, `fig4`, `fig5`,
//! `rounds`), the extension studies (`ext_*`), the simulated-time CI probes
//! (`residency`, `read_mix`, `lease_mix`, `commit_path`, `shard_sweep`), and
//! `alloc_sites`, the sampling allocation profiler. They report what the
//! *simulation* decides, and `ci/figures.sh` records every `--json` series
//! exactly in the `ci/figures/` ledger; how fast the implementation runs is
//! measured by `perf/` alone (`BENCHMARK.json`).
//!
//! Every binary accepts `--quick` for a fast, reduced-parameter pass and
//! `--seeds N` to control trial counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

/// Shared command-line options for the figure binaries.
#[derive(Clone, Debug)]
pub struct BenchOpts {
    /// Reduced parameters for a fast pass.
    pub quick: bool,
    /// Number of seeds (trials) per configuration.
    pub seeds: u64,
    /// Also write the machine-readable JSON result to this path (the
    /// `ci/figures/` ledger holds these files).
    pub json: Option<String>,
}

impl BenchOpts {
    /// Parses options from `std::env::args`; a malformed command line
    /// prints the reason and exits with status 2.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

    /// Parses options from `args` (the command line without the program
    /// name). A flag that needs a value and is followed by another flag, or
    /// by nothing, is an error rather than a silently kept default, and so
    /// is an unknown argument: `--seed 1` must not run the default seeds.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = BenchOpts {
            quick: false,
            seeds: 3,
            json: None,
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => opts.quick = true,
                "--seeds" => {
                    opts.seeds = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seeds needs a number")?;
                }
                "--json" => {
                    // A following flag is a missing value, not a filename.
                    opts.json = Some(
                        args.next()
                            .filter(|v| !v.starts_with("--"))
                            .ok_or("--json needs a file path")?,
                    );
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }

    /// Writes `json` to the `--json` path, if one was given.
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be written (CI must fail loudly).
    pub fn write_json(&self, json: &str) {
        if let Some(path) = &self.json {
            std::fs::write(path, json).expect("writing --json output");
            eprintln!("wrote {path}");
        }
    }

    /// The seed list for this options set.
    pub fn seed_list(&self) -> Vec<u64> {
        (0..self.seeds.max(1)).map(|i| 1000 + 7 * i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<BenchOpts, String> {
        BenchOpts::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn seeds_without_a_value_is_an_error_not_a_swallowed_flag() {
        assert_eq!(
            parse("--seeds --quick").unwrap_err(),
            "--seeds needs a number"
        );
        assert_eq!(parse("--seeds x").unwrap_err(), "--seeds needs a number");
        assert_eq!(parse("--seeds").unwrap_err(), "--seeds needs a number");
    }

    #[test]
    fn flags_after_a_valued_seeds_are_all_seen() {
        let o = parse("--seeds 2 --quick --json f").unwrap();
        assert_eq!((o.seeds, o.quick, o.json.as_deref()), (2, true, Some("f")));
        assert_eq!(
            parse("--json --quick").unwrap_err(),
            "--json needs a file path"
        );
    }

    #[test]
    fn unknown_arguments_are_errors_not_defaults() {
        assert_eq!(
            parse("--quick --seed 1").unwrap_err(),
            "unknown argument: --seed"
        );
        assert_eq!(parse("quick").unwrap_err(), "unknown argument: quick");
    }

    #[test]
    fn seed_list_is_deterministic() {
        let o = BenchOpts {
            quick: true,
            seeds: 3,
            json: None,
        };
        assert_eq!(o.seed_list(), vec![1000, 1007, 1014]);
    }

    #[test]
    fn seed_list_never_empty() {
        let o = BenchOpts {
            quick: false,
            seeds: 0,
            json: None,
        };
        assert_eq!(o.seed_list().len(), 1);
    }
}
