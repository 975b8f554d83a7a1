//! Entry-point plumbing: the `ddr` multi-experiment CLI over the
//! [`crate::registry`].

use crate::emit::Emitter;
use crate::opts::{CliError, ExpOptions, USAGE};
use crate::registry::{find, registry};

const DDR_USAGE: &str = "\
usage:
  ddr list                     enumerate experiments
  ddr run <name>... [flags]    run the named experiments
  ddr run --all [flags]        run every experiment
  ddr inspect <file.jsonl>     summarize a query trace (hop depth, funnel,
                               slowest queries, record breakdown) or a
                               metrics timeline (per-window table, anomaly
                               flags) — the file kind is sniffed
  ddr serve gnutella [flags]   real-time load test: shard the node fleet
                               across threads, inject queries at a target
                               rate, report qps/core and p50/p99 latency
                               (`ddr serve gnutella --help` for flags)

flags (shared by every experiment):
  --scale N         divide users & songs by N (default 1 = paper scale)
  --hours H         simulated horizon (default 96)
  --seed S          root seed override
  --csv DIR         also write table CSVs into DIR
  --json DIR        also write report JSON into DIR
  --smoke           seconds-long CI configuration
  --trace FILE      write sampled query-lifecycle spans as JSONL to FILE
  --trace-sample N  trace every Nth query (default 1 = all)
  --profile         print a kernel dispatch/queue report after the run
                    (on sharded runs: per-shard work/barrier/merge
                    wall-clock breakdown)
  --metrics FILE    append per-window metrics timeline JSONL to FILE
                    (hourly snapshots; `ddr inspect FILE` renders them)
  --threads N       cap sweep worker fan-out (default: one per core)
  --shards N        shard count for sharded-kernel experiments
                    (fig1_dynamic, the scenario pack, shard_scaling;
                    default 1; rejected for experiments on the serial
                    kernel)

scenario-pack knobs (flash_crowd, partition_heal, heavy_churn,
free_riders, bandwidth_eras):
  --spike-boost F   flash-crowd peak weight in (0, 1] (default 0.8)
  --pareto-shape F  heavy-churn Pareto shape, > 1 (default 1.5)
  --liar-fraction F malicious-advertiser share in [0, 1) (default 0.15)
  --islands N       partition island count, >= 2 (default 3)";

/// The `ddr` binary, minus process concerns: parse `args` (everything
/// after the program name) and return the exit code.
pub fn ddr_main(args: Vec<String>) -> i32 {
    let mut args = args.into_iter();
    match args.next().as_deref() {
        Some("list") => {
            for e in registry() {
                println!("{:<18} {}", e.name, e.description);
            }
            0
        }
        Some("run") => {
            let rest: Vec<String> = args.collect();
            let all = rest.iter().any(|a| a == "--all");
            let rest: Vec<String> = rest.into_iter().filter(|a| a != "--all").collect();
            let (opts, names) = match ExpOptions::parse(rest) {
                Ok(parsed) => parsed,
                Err(CliError::Help) => {
                    eprintln!("{DDR_USAGE}");
                    return 0;
                }
                Err(e) => {
                    eprintln!("{e}");
                    eprintln!("{USAGE}");
                    return 2;
                }
            };
            let selected: Vec<_> = if all {
                if !names.is_empty() {
                    eprintln!("--all and explicit names are mutually exclusive");
                    return 2;
                }
                registry()
            } else {
                if names.is_empty() {
                    eprintln!("no experiment named; try `ddr list` or `ddr run --all`");
                    return 2;
                }
                let mut sel = Vec::new();
                for name in &names {
                    match find(name) {
                        Some(e) => sel.push(e),
                        None => {
                            eprintln!("unknown experiment {name:?}; `ddr list` shows the names");
                            return 2;
                        }
                    }
                }
                sel
            };
            if opts.shards.is_some() {
                if let Some(e) = selected.iter().find(|e| !e.shardable) {
                    let shardable: Vec<&str> = registry()
                        .iter()
                        .filter(|e| e.shardable)
                        .map(|e| e.name)
                        .collect();
                    eprintln!(
                        "--shards: {:?} runs on the serial kernel; shardable experiments: {}",
                        e.name,
                        shardable.join(", ")
                    );
                    eprintln!("{USAGE}");
                    return 2;
                }
            }
            for e in selected {
                crate::banner(e.name, &opts);
                let mut em = Emitter::stdout();
                (e.run)(&opts, &mut em);
            }
            0
        }
        Some("serve") => crate::serve::serve_main(args.collect()),
        Some("inspect") => {
            let rest: Vec<String> = args.collect();
            match rest.as_slice() {
                [path] if !path.starts_with('-') => match inspect_file(path) {
                    Ok(rendered) => {
                        print!("{rendered}");
                        0
                    }
                    Err(e) => {
                        eprintln!("inspect: {e}");
                        2
                    }
                },
                [flag] if flag == "--help" || flag == "-h" => {
                    eprintln!("{DDR_USAGE}");
                    0
                }
                _ => {
                    eprintln!("inspect takes exactly one trace file");
                    eprintln!("{DDR_USAGE}");
                    2
                }
            }
        }
        Some("--help") | Some("-h") => {
            eprintln!("{DDR_USAGE}");
            0
        }
        None => {
            eprintln!("{DDR_USAGE}");
            2
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}");
            eprintln!("{DDR_USAGE}");
            2
        }
    }
}

/// `ddr inspect` body: sniff whether `path` is a metrics timeline or a
/// query trace and render the matching summary. Both summarisers read
/// the whole file anyway, so the sniff reads it once up front.
fn inspect_file(path: &str) -> Result<String, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if ddr_telemetry::is_timeline(&src) {
        Ok(ddr_telemetry::summarize_timeline(&src)?.render())
    } else {
        Ok(ddr_telemetry::summarize(&src)?.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn list_succeeds() {
        assert_eq!(ddr_main(argv(&["list"])), 0);
    }

    #[test]
    fn run_without_names_fails() {
        assert_eq!(ddr_main(argv(&["run"])), 2);
    }

    #[test]
    fn unknown_subcommand_fails() {
        assert_eq!(ddr_main(argv(&["frobnicate"])), 2);
        assert_eq!(ddr_main(argv(&["compare", "a.json", "b.json"])), 2);
    }

    #[test]
    fn unknown_experiment_fails() {
        assert_eq!(ddr_main(argv(&["run", "no_such_experiment"])), 2);
    }

    #[test]
    fn bad_flag_fails_with_two() {
        assert_eq!(ddr_main(argv(&["run", "fig1", "--bogus"])), 2);
        assert_eq!(ddr_main(argv(&["run", "fig1", "--scale"])), 2);
    }

    #[test]
    fn bad_pack_flag_values_exit_two_before_running() {
        // Out-of-range pack knobs must take the CliError path (usage +
        // exit 2), not panic inside a half-built scenario.
        assert_eq!(
            ddr_main(argv(&["run", "flash_crowd", "--spike-boost", "2.0"])),
            2
        );
        assert_eq!(
            ddr_main(argv(&["run", "heavy_churn", "--pareto-shape", "0.5"])),
            2
        );
        assert_eq!(
            ddr_main(argv(&["run", "free_riders", "--liar-fraction", "1.0"])),
            2
        );
        assert_eq!(
            ddr_main(argv(&["run", "partition_heal", "--islands", "1"])),
            2
        );
        assert_eq!(
            ddr_main(argv(&["run", "flash_crowd", "--spike-boost"])),
            2,
            "missing value exits 2"
        );
    }

    #[test]
    fn all_conflicts_with_names() {
        assert_eq!(ddr_main(argv(&["run", "--all", "fig1"])), 2);
    }

    #[test]
    fn shards_rejected_for_serial_kernel_experiments() {
        // Rejection happens before anything runs, so these are instant.
        assert_eq!(ddr_main(argv(&["run", "fig1", "--shards", "2"])), 2);
        assert_eq!(
            ddr_main(argv(&["run", "webcache_eval", "--shards", "2"])),
            2
        );
        // --all includes serial-kernel experiments, so it conflicts too.
        assert_eq!(ddr_main(argv(&["run", "--all", "--shards", "2"])), 2);
        // A shardable experiment mixed with a serial one still fails.
        assert_eq!(
            ddr_main(argv(&["run", "fig1_dynamic", "fig1", "--shards", "2"])),
            2
        );
    }

    #[test]
    fn inspect_rejects_missing_or_extra_arguments() {
        assert_eq!(ddr_main(argv(&["inspect"])), 2);
        assert_eq!(ddr_main(argv(&["inspect", "a.jsonl", "b.jsonl"])), 2);
        assert_eq!(ddr_main(argv(&["inspect", "--bogus"])), 2);
    }

    #[test]
    fn inspect_fails_cleanly_on_unreadable_file() {
        assert_eq!(
            ddr_main(argv(&["inspect", "/no/such/dir/trace.jsonl"])),
            2,
            "missing file must exit 2, not panic"
        );
    }

    #[test]
    fn inspect_help_exits_zero() {
        assert_eq!(ddr_main(argv(&["inspect", "--help"])), 0);
    }

    #[test]
    fn serve_subcommand_routes_through_ddr() {
        assert_eq!(ddr_main(argv(&["serve"])), 2, "scenario required");
        assert_eq!(ddr_main(argv(&["serve", "gnutella", "--bogus"])), 2);
        assert_eq!(ddr_main(argv(&["serve", "gnutella", "--help"])), 0);
    }

    #[test]
    fn inspect_summarizes_a_metrics_timeline() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ddr-cli-timeline-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            concat!(
                "{\"v\":1,\"type\":\"window\",\"run\":\"T\",\"t\":1000,\"counters\":{\"hits\":3},\"gauges\":{\"online\":9}}\n",
                "{\"v\":1,\"type\":\"window\",\"run\":\"T\",\"t\":2000,\"counters\":{\"hits\":4},\"gauges\":{\"online\":9}}\n",
            ),
        )
        .expect("write timeline fixture into the temp dir");
        let code = ddr_main(argv(&[
            "inspect",
            path.to_str().expect("temp path is valid UTF-8"),
        ]));
        std::fs::remove_file(&path).ok();
        assert_eq!(
            code, 0,
            "timeline files must route to the timeline summariser"
        );
    }

    #[test]
    fn inspect_summarizes_a_valid_trace() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ddr-cli-inspect-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            concat!(
                "{\"v\":1,\"type\":\"issue\",\"run\":\"t\",\"t\":0,\"q\":0,\"node\":1,\"item\":5,\"ttl\":2}\n",
                "{\"v\":1,\"type\":\"end\",\"run\":\"t\",\"t\":90,\"q\":0,\"outcome\":\"hit\",\"results\":1,\"latency_ms\":90.0}\n",
            ),
        )
        .expect("write trace fixture into the temp dir");
        let code = ddr_main(argv(&[
            "inspect",
            path.to_str().expect("temp path is valid UTF-8"),
        ]));
        std::fs::remove_file(&path).ok();
        assert_eq!(code, 0);
    }
}
