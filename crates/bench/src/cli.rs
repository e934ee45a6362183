//! Tiny shared argument parsing for the figure binaries.
//!
//! Every binary accepts the same shape: an optional positional trial count
//! (kept for backwards compatibility), `--trials N`, `--threads N` (or
//! `--threads auto` for one worker per available core), and `--no-wall`
//! (suppress host wall-clock columns so outputs can be diffed across runs).
//!
//! Degenerate values are rejected up front with a clear message —
//! `--trials 0` would silently print figures made of no data, and
//! `--threads 0` used to mean "auto" while *looking* like a mistake; both
//! now exit with status 2 instead of failing (or worse, "succeeding")
//! somewhere deep inside the trial executor.

/// Parsed command-line arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchArgs {
    /// Trial count, if given (positional or `--trials N`); always ≥ 1.
    pub trials: Option<u32>,
    /// Worker threads for the trial executor (default 1); always ≥ 1.
    pub threads: usize,
    /// Suppress nondeterministic host wall-clock columns.
    pub no_wall: bool,
    /// `--quick` (used by `all_figures` for reduced trial counts).
    pub quick: bool,
}

impl BenchArgs {
    /// Parses the process arguments, exiting with status 2 and a message
    /// on stderr when they are malformed or degenerate.
    pub fn parse() -> Self {
        match Self::from_args(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [trials] [--trials N>=1] [--threads N>=1|auto] [--no-wall] [--quick]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses from an explicit argument iterator (testable).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed or degenerate
    /// argument: unknown flags, non-numeric values, `--trials 0`, or
    /// `--threads 0`.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = BenchArgs {
            trials: None,
            threads: 1,
            no_wall: false,
            quick: false,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--threads" => {
                    let v = it.next().ok_or("--threads takes a value")?;
                    out.threads = if v == "auto" {
                        std::thread::available_parallelism().map_or(1, |p| p.get())
                    } else {
                        match v.parse::<usize>() {
                            Ok(0) => {
                                return Err(
                                    "--threads must be at least 1 (use `--threads auto` for one \
                                     worker per core)"
                                        .into(),
                                )
                            }
                            Ok(n) => n,
                            Err(_) => return Err(format!("--threads takes a number, got `{v}`")),
                        }
                    };
                }
                "--trials" => {
                    let v = it.next().ok_or("--trials takes a value")?;
                    out.trials = Some(parse_trials(&v)?);
                }
                "--no-wall" => out.no_wall = true,
                "--quick" => out.quick = true,
                // Anything else must be the positional trial count; a typo'd
                // flag silently reconfiguring a benchmark would defeat the
                // byte-for-byte diff contract, so reject it loudly.
                other => match (out.trials, other.parse::<u32>()) {
                    (None, Ok(_)) => out.trials = Some(parse_trials(other)?),
                    _ => return Err(format!("unexpected argument: `{other}`")),
                },
            }
        }
        Ok(out)
    }

    /// The trial count, or the binary's default.
    pub fn trials_or(&self, default: u32) -> u32 {
        self.trials.unwrap_or(default)
    }
}

fn parse_trials(v: &str) -> Result<u32, String> {
    match v.parse::<u32>() {
        Ok(0) => Err("--trials must be at least 1 (a 0-trial figure is all denominator)".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("--trials takes a number, got `{v}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.trials, None);
        assert_eq!(a.threads, 1);
        assert!(!a.no_wall);
        assert_eq!(a.trials_or(100), 100);
    }

    #[test]
    fn positional_trials_kept_for_compat() {
        assert_eq!(parse(&["25"]).unwrap().trials, Some(25));
    }

    #[test]
    fn flags() {
        let a = parse(&["--trials", "5", "--threads", "4", "--no-wall", "--quick"]).unwrap();
        assert_eq!(a.trials, Some(5));
        assert_eq!(a.threads, 4);
        assert!(a.no_wall);
        assert!(a.quick);
    }

    #[test]
    fn threads_auto_means_available_cores() {
        assert!(parse(&["--threads", "auto"]).unwrap().threads >= 1);
    }

    #[test]
    fn zero_threads_rejected_with_guidance() {
        let err = parse(&["--threads", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(err.contains("auto"), "{err}");
    }

    #[test]
    fn zero_trials_rejected_flag_and_positional() {
        assert!(parse(&["--trials", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["0"]).unwrap_err().contains("at least 1"));
    }

    #[test]
    fn typoed_flag_is_rejected_not_swallowed() {
        // Retired flags count as typos: a script still passing one must
        // fail rather than silently run a different configuration.
        for args in [["--thread", "2"], ["--shards", "2"], ["--sim-threads", "2"]] {
            let err = parse(&args).unwrap_err();
            assert!(err.contains("unexpected argument"), "{args:?}: {err}");
        }
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse(&["--trials", "abc"]).unwrap_err().contains("number"));
        assert!(parse(&["--threads", "two"]).unwrap_err().contains("number"));
        assert!(parse(&["--threads"]).unwrap_err().contains("value"));
        assert!(parse(&["--trials"]).unwrap_err().contains("value"));
    }

    #[test]
    fn second_positional_is_an_error() {
        assert!(parse(&["5", "7"]).unwrap_err().contains("unexpected"));
    }
}
