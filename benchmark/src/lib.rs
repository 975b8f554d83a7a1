//! The repository benchmark. See `README.md` in this directory for the
//! workloads, the metrics and what each should move.
//!
//! ```text
//! bench-plain  --workload NAME --seed N --seconds S --trace 0
//! bench-traced --workload NAME --seed N --seconds S --trace 1
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); progress and failures go
//! to standard error. A failed correctness gate exits 1, a usage error 2.

pub mod alloc;
pub mod gates;
pub mod measure;
pub mod output;
pub mod probe;
pub mod serve;
pub mod sim;

use gates::Gates;
use sim::SimWorkload;
use std::path::PathBuf;

pub const WORKLOADS: &[&str] = &["fig1_paper", "churn_sharded", "serve_open_loop"];

const USAGE: &str =
    "usage: --workload fig1_paper|churn_sharded|serve_open_loop --seed N --seconds S --trace 0|1";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Options {
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for {flag}"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *WORKLOADS
                            .iter()
                            .find(|w| **w == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => {
                    let s = number()?;
                    if !(1..=600).contains(&s) {
                        return Err(format!("--seconds must be 1..=600, got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Where traced runs write spans and scratch trace files: inside the
/// build directory, which the checkout's `.gitignore` names.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("benchmark-out")
}

/// Run the benchmark; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let opts = match Options::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let mut gates = Gates::default();
    let ticks_before = measure::host_ticks();
    let sim = match opts.workload {
        "fig1_paper" => Some(SimWorkload::Fig1Paper),
        "churn_sharded" => Some(SimWorkload::ChurnSharded),
        _ => None,
    };
    let (metrics, attempted, failed) = if opts.trace {
        let dir = out_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return 1;
        }
        gates.check(alloc::installed(), || {
            "the counting allocator is not installed: use the bench-traced binary".to_string()
        });
        match sim {
            Some(w) => sim::run_traced(w, opts.seed, &dir, &mut gates),
            None => serve::run_traced(opts.seed, &dir, &mut gates),
        }
    } else {
        match sim {
            Some(w) => sim::run_plain(w, opts.seed, opts.seconds, &mut gates),
            None => serve::run_plain(opts.seed, opts.seconds, &mut gates),
        }
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, measure::host_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        eprintln!(
            "[benchmark] host steal time: {:.2}% of CPU time",
            100.0 * share
        );
    }
    let line = metrics.result_line(&mut gates, attempted, failed);
    for f in gates.failures() {
        eprintln!("[benchmark] FAILED: {f}");
    }
    println!("{line}");
    gates.exit_code()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = Options::parse(&args(
            "--workload churn_sharded --seed 42 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            o,
            Options {
                workload: "churn_sharded",
                seed: 42,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 10 --trace 0",
            "--workload fig1_paper --seed -1 --seconds 10 --trace 0",
            "--workload fig1_paper --seed 1 --seconds 0 --trace 0",
            "--workload fig1_paper --seed 1 --seconds 10 --trace 2",
            "--workload fig1_paper --seed 1 --seconds 10",
            "--workload fig1_paper --seed 1 --seconds 10 --trace",
            "--workload fig1_paper --seed 1 --seconds 10 --trace 0 --extra 1",
        ] {
            assert!(Options::parse(&args(bad)).is_err(), "{bad}");
        }
        assert_eq!(run(&args("--workload nope")), 2);
    }
}
