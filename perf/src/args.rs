//! The command line both binaries share:
//! `--workload <name> --seed <base> --seconds <n> [--trace <0|1>]`.

use crate::workloads::WORKLOADS;

/// Seeds a run cycles through: `base..base + SEEDS`.
pub const SEEDS: u64 = 5;

/// Parsed options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Base seed; the run uses `seed..seed + SEEDS`.
    pub seed: u64,
    /// How long to measure, in wall seconds.
    pub seconds: u64,
}

impl Args {
    /// Parses `args` (without the program name). `--trace` is accepted and
    /// ignored: `run.sh` has already picked the binary by it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 4242;
        let mut seconds = 20;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = parse_u64(&flag, &value()?)?,
                "--seconds" => seconds = parse_u64(&flag, &value()?)?,
                "--trace" => drop(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(1..=120).contains(&seconds) {
            return Err(format!("--seconds {seconds} outside 1..=120"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
        })
    }

    /// Parses the process arguments, printing the problem and exiting with
    /// status 2 on a bad command line.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]");
            std::process::exit(2);
        })
    }

    /// The seeds this run cycles through.
    pub fn seeds(&self) -> Vec<u64> {
        (0..SEEDS).map(|i| self.seed.wrapping_add(i)).collect()
    }
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} {v}: not a whole number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse("--workload fast_churn_rw --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, "fast_churn_rw");
        assert_eq!(a.seeds(), [7, 8, 9, 10, 11]);
        assert_eq!(a.seconds, 20);
    }

    #[test]
    fn defaults_and_errors() {
        assert_eq!(parse("--workload fast_lan_write").unwrap().seed, 4242);
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fast_lan_write --seed x").is_err());
        assert!(parse("--workload fast_lan_write --seconds 0").is_err());
        assert!(parse("--workload fast_lan_write --bogus 1").is_err());
    }
}
