//! Centralized command-line parsing for every experiment entry point.
//!
//! One flag grammar serves every experiment `ddr run` drives:
//!
//! ```text
//! --scale N         divide users & songs by N (default 1 = paper scale)
//! --hours H         simulated horizon (default 96 = the paper's 4 days)
//! --seed S          root seed (default: the scenario default)
//! --csv DIR         also write table CSVs into DIR
//! --json DIR        also write report JSON into DIR (defaults to the CSV dir)
//! --smoke           shrink every world to a seconds-long CI configuration
//! --trace FILE      write sampled query-lifecycle spans as JSONL to FILE
//! --trace-sample N  trace every Nth query (default 1 = all; needs --trace)
//! --metrics FILE    write windowed metrics timeline records (JSONL) to FILE
//! --profile         profile the kernel and print a dispatch/queue report
//! --threads N       cap sweep worker fan-out (default: one per core);
//!                   `ddr serve` reuses it as the shard count
//! --shards N        shard count for the conservative parallel kernel
//!                   (shardable experiments only — the ddr CLI rejects it
//!                   for serial-kernel experiments; default 1 = serial)
//! --spike-boost F   scenario pack: flash-crowd peak weight in (0, 1]
//! --pareto-shape F  scenario pack: heavy-churn Pareto shape (> 1)
//! --liar-fraction F scenario pack: malicious-advertiser share in [0, 1)
//! --islands N       scenario pack: partition island count (>= 2)
//! ```
//!
//! Parsing is a pure function ([`ExpOptions::parse`]) returning
//! [`CliError`] on bad input; the `ddr` CLI maps errors onto usage and
//! exit status 2, never a panic.

use ddr_gnutella::{Mode, ScenarioConfig};
use ddr_stats::Table;
use ddr_telemetry::TelemetryConfig;
use std::path::PathBuf;

/// Why parsing failed (or stopped) — surfaced verbatim in usage output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A value-taking flag appeared last: `--scale` with nothing after it.
    MissingValue(String),
    /// A value did not parse: flag name + offending text.
    BadValue(String, String),
    /// A flag nobody recognises.
    UnknownFlag(String),
    /// `--help`/`-h`: not an error, but parsing stops.
    Help,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            CliError::BadValue(flag, v) => write!(f, "bad value for {flag}: {v:?}"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::Help => write!(f, "help requested"),
        }
    }
}

/// The flag summary printed on `--help` and on parse errors.
pub const USAGE: &str = "options: --scale N  --hours H  --seed S  --csv DIR  --json DIR  --smoke  \
     --trace FILE  --trace-sample N  --metrics FILE  --profile  --threads N  --shards N  \
     --spike-boost F  --pareto-shape F  --liar-fraction F  --islands N  (-h for help)";

/// Scenario-pack knobs (flash_crowd, heavy_churn, partition_heal,
/// free_riders, bandwidth_eras). Range checks happen at parse time so a
/// bad value prints usage and exits 2 instead of panicking mid-run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackOptions {
    /// Flash-crowd peak weight: share of queries redirected to the hot
    /// genre at the spike's plateau. In (0, 1].
    pub spike_boost: f64,
    /// Pareto shape for heavy-tailed churn (> 1 keeps the mean finite).
    pub pareto_shape: f64,
    /// Fraction of nodes advertising summaries they refuse to serve.
    /// In [0, 1); combined with the scenario's free-rider share.
    pub liar_fraction: f64,
    /// Island count for the regional partition (>= 2).
    pub islands: usize,
}

impl Default for PackOptions {
    fn default() -> Self {
        PackOptions {
            spike_boost: 0.8,
            pareto_shape: 1.5,
            liar_fraction: 0.15,
            islands: 3,
        }
    }
}

/// Command-line options shared by all experiment entry points.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpOptions {
    /// Scale divisor for users/songs (1 = paper scale).
    pub scale: u32,
    /// Simulated hours (96 = paper).
    pub hours: u64,
    /// Root seed override.
    pub seed: Option<u64>,
    /// Directory for CSV output, if requested.
    pub csv_dir: Option<PathBuf>,
    /// Directory for JSON output; falls back to [`csv_dir`](Self::csv_dir).
    pub json_dir: Option<PathBuf>,
    /// CI smoke mode: shrink every world so the run takes seconds.
    pub smoke: bool,
    /// Whether `--scale` was given explicitly (experiments with their own
    /// unattended defaults only retune when it was not).
    pub scale_explicit: bool,
    /// Whether `--hours` was given explicitly.
    pub hours_explicit: bool,
    /// JSONL trace output path: compile the trace sink in and write
    /// sampled query-lifecycle spans there.
    pub trace: Option<PathBuf>,
    /// Trace every Nth query (1 = all). Meaningful only with `--trace`.
    pub trace_sample: u64,
    /// JSONL metrics timeline output path: sample windowed system
    /// metrics (hits/h, messages, online population, queue depths)
    /// there. Independent of `--trace`.
    pub metrics: Option<PathBuf>,
    /// Profile the event kernel (per-event-type dispatch timing + queue
    /// occupancy) and print the report after the run.
    pub profile: bool,
    /// Worker-thread cap for sweep fan-out (and the serve backend's
    /// shard count). `None` means one per core.
    pub threads: Option<usize>,
    /// Shard count for experiments running on the conservative parallel
    /// kernel. `None` means serial (one shard). Shardable worlds (the
    /// Gnutella slice world and the synthetic relay world) produce
    /// bit-identical output at any shard count (DESIGN.md §11–12); the
    /// `ddr run` subcommand rejects the flag for everything else rather
    /// than silently ignoring it.
    pub shards: Option<usize>,
    /// Scenario-pack knobs; every field has a sensible default, so the
    /// pack experiments run with no extra flags.
    pub pack: PackOptions,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 1,
            hours: 96,
            seed: None,
            csv_dir: None,
            json_dir: None,
            smoke: false,
            scale_explicit: false,
            hours_explicit: false,
            trace: None,
            trace_sample: 1,
            metrics: None,
            profile: false,
            threads: None,
            shards: None,
            pack: PackOptions::default(),
        }
    }
}

impl ExpOptions {
    /// Parse a flag stream. Returns the options plus any positional
    /// (non-flag) tokens in input order — the `ddr` CLI reads experiment
    /// names from them.
    pub fn parse<I>(args: I) -> Result<(Self, Vec<String>), CliError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut opts = ExpOptions::default();
        let mut positional = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| -> Result<String, CliError> {
                args.next()
                    .ok_or_else(|| CliError::MissingValue(flag.into()))
            };
            match arg.as_str() {
                "--scale" => {
                    let v = value("--scale")?;
                    opts.scale = v
                        .parse()
                        .map_err(|_| CliError::BadValue("--scale".into(), v))?;
                    opts.scale_explicit = true;
                }
                "--hours" => {
                    let v = value("--hours")?;
                    opts.hours = v
                        .parse()
                        .map_err(|_| CliError::BadValue("--hours".into(), v))?;
                    opts.hours_explicit = true;
                }
                "--seed" => {
                    let v = value("--seed")?;
                    opts.seed = Some(
                        v.parse()
                            .map_err(|_| CliError::BadValue("--seed".into(), v))?,
                    );
                }
                "--csv" => opts.csv_dir = Some(PathBuf::from(value("--csv")?)),
                "--json" => opts.json_dir = Some(PathBuf::from(value("--json")?)),
                "--smoke" => opts.smoke = true,
                "--trace" => opts.trace = Some(PathBuf::from(value("--trace")?)),
                "--metrics" => opts.metrics = Some(PathBuf::from(value("--metrics")?)),
                "--trace-sample" => {
                    let v = value("--trace-sample")?;
                    opts.trace_sample = match v.parse() {
                        Ok(n) if n >= 1 => n,
                        _ => return Err(CliError::BadValue("--trace-sample".into(), v)),
                    };
                }
                "--profile" => opts.profile = true,
                "--threads" => {
                    let v = value("--threads")?;
                    opts.threads = match v.parse() {
                        Ok(n) if n >= 1 => Some(n),
                        _ => return Err(CliError::BadValue("--threads".into(), v)),
                    };
                }
                "--shards" => {
                    let v = value("--shards")?;
                    opts.shards = match v.parse() {
                        Ok(n) if n >= 1 => Some(n),
                        _ => return Err(CliError::BadValue("--shards".into(), v)),
                    };
                }
                "--spike-boost" => {
                    let v = value("--spike-boost")?;
                    opts.pack.spike_boost = match v.parse::<f64>() {
                        Ok(f) if f > 0.0 && f <= 1.0 => f,
                        _ => return Err(CliError::BadValue("--spike-boost".into(), v)),
                    };
                }
                "--pareto-shape" => {
                    let v = value("--pareto-shape")?;
                    opts.pack.pareto_shape = match v.parse::<f64>() {
                        Ok(f) if f > 1.0 && f.is_finite() => f,
                        _ => return Err(CliError::BadValue("--pareto-shape".into(), v)),
                    };
                }
                "--liar-fraction" => {
                    let v = value("--liar-fraction")?;
                    opts.pack.liar_fraction = match v.parse::<f64>() {
                        Ok(f) if (0.0..1.0).contains(&f) => f,
                        _ => return Err(CliError::BadValue("--liar-fraction".into(), v)),
                    };
                }
                "--islands" => {
                    let v = value("--islands")?;
                    opts.pack.islands = match v.parse() {
                        Ok(n) if n >= 2 => n,
                        _ => return Err(CliError::BadValue("--islands".into(), v)),
                    };
                }
                "--help" | "-h" => return Err(CliError::Help),
                flag if flag.starts_with('-') => return Err(CliError::UnknownFlag(flag.into())),
                _ => positional.push(arg),
            }
        }
        Ok((opts, positional))
    }

    /// Apply an experiment's unattended default tuning: when the user gave
    /// neither `--scale` nor `--hours`, substitute the experiment's own
    /// fast defaults (the long-running suites run at scale 4 / 48 h unless
    /// asked for paper scale explicitly).
    pub fn tuned(mut self, scale: u32, hours: u64) -> Self {
        if !self.scale_explicit && !self.hours_explicit {
            self.scale = scale;
            self.hours = hours;
        }
        self
    }

    /// The worker-thread count every sweep fans out to: the `--threads`
    /// cap when given, otherwise one per core.
    pub fn workers(&self) -> usize {
        ddr_sim::resolve_workers(self.threads)
    }

    /// The shard count for sharded-kernel experiments: the `--shards`
    /// value when given, otherwise 1 (serial).
    pub fn shard_count(&self) -> usize {
        self.shards.unwrap_or(1)
    }

    /// The telemetry settings these options imply for one run, labelled
    /// so records from parallel runs sharing a trace file stay separable.
    pub fn telemetry_for(&self, run_label: &'static str) -> TelemetryConfig {
        TelemetryConfig {
            trace_path: self.trace.clone(),
            sample: self.trace_sample,
            run_label,
            metrics_path: self.metrics.clone(),
        }
    }

    /// Build a Gnutella scenario configuration under these options.
    pub fn scenario(&self, mode: Mode, hops: u8) -> ScenarioConfig {
        let mut c = if self.scale == 1 {
            let mut c = ScenarioConfig::paper(mode, hops);
            c.sim_hours = self.hours;
            c.warmup_hours = c.warmup_hours.min(self.hours.saturating_sub(1)).max(1);
            c
        } else {
            ScenarioConfig::scaled(mode, hops, self.scale, self.hours)
        };
        if let Some(seed) = self.seed {
            c.seed = seed;
        }
        c.telemetry = self.telemetry_for(mode.label());
        c
    }

    /// Write `table` as CSV into the csv dir (if configured).
    pub fn write_csv(&self, name: &str, table: &Table) {
        if let Some(dir) = &self.csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, table.to_csv()).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }

    /// Write any serialisable value as pretty JSON into the json dir
    /// (falling back to the csv dir) — used to archive full run reports
    /// next to the table CSVs.
    pub fn write_json<T: serde::Serialize>(&self, name: &str, value: &T) {
        if let Some(dir) = self.json_dir.as_ref().or(self.csv_dir.as_ref()) {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = dir.join(format!("{name}.json"));
            let json = serde_json::to_string_pretty(value).expect("serialise");
            std::fs::write(&path, json).expect("write json");
            eprintln!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(ExpOptions, Vec<String>), CliError> {
        ExpOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_hold_with_no_args() {
        let (o, pos) = parse(&[]).unwrap();
        assert_eq!(o.scale, 1);
        assert_eq!(o.hours, 96);
        assert!(o.seed.is_none() && o.csv_dir.is_none() && o.json_dir.is_none());
        assert!(!o.smoke && !o.scale_explicit && !o.hours_explicit);
        assert!(o.trace.is_none() && !o.profile);
        assert_eq!(o.trace_sample, 1);
        assert!(pos.is_empty());
    }

    #[test]
    fn trace_flags_parse_and_stamp_the_scenario() {
        let (o, _) = parse(&[
            "--trace",
            "/tmp/t.jsonl",
            "--trace-sample",
            "8",
            "--profile",
        ])
        .unwrap();
        assert_eq!(
            o.trace.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert_eq!(o.trace_sample, 8);
        assert!(o.profile);
        let c = o.scenario(Mode::Dynamic, 2);
        assert_eq!(
            c.telemetry.trace_path.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert_eq!(c.telemetry.sample, 8);
        assert_eq!(c.telemetry.run_label, Mode::Dynamic.label());
    }

    #[test]
    fn trace_sample_zero_is_rejected() {
        assert_eq!(
            parse(&["--trace-sample", "0"]),
            Err(CliError::BadValue("--trace-sample".into(), "0".into()))
        );
        assert_eq!(
            parse(&["--trace-sample", "many"]),
            Err(CliError::BadValue("--trace-sample".into(), "many".into()))
        );
    }

    #[test]
    fn threads_caps_workers_and_rejects_zero() {
        let (o, _) = parse(&["--threads", "3"]).unwrap();
        assert_eq!(o.threads, Some(3));
        assert_eq!(o.workers(), 3);
        let (o, _) = parse(&[]).unwrap();
        assert_eq!(o.threads, None);
        assert!(o.workers() >= 1, "default must be at least one worker");
        assert_eq!(
            parse(&["--threads", "0"]),
            Err(CliError::BadValue("--threads".into(), "0".into()))
        );
        assert_eq!(
            parse(&["--threads", "lots"]),
            Err(CliError::BadValue("--threads".into(), "lots".into()))
        );
    }

    #[test]
    fn shards_parse_and_default_to_serial() {
        let (o, _) = parse(&["--shards", "4"]).unwrap();
        assert_eq!(o.shards, Some(4));
        assert_eq!(o.shard_count(), 4);
        let (o, _) = parse(&[]).unwrap();
        assert_eq!(o.shards, None);
        assert_eq!(o.shard_count(), 1, "default is serial");
        assert_eq!(
            parse(&["--shards", "0"]),
            Err(CliError::BadValue("--shards".into(), "0".into()))
        );
    }

    #[test]
    fn pack_flags_parse_and_default() {
        let (o, _) = parse(&[]).unwrap();
        assert_eq!(o.pack, PackOptions::default());
        let (o, _) = parse(&[
            "--spike-boost",
            "0.5",
            "--pareto-shape",
            "2.5",
            "--liar-fraction",
            "0.2",
            "--islands",
            "4",
        ])
        .unwrap();
        assert_eq!(o.pack.spike_boost, 0.5);
        assert_eq!(o.pack.pareto_shape, 2.5);
        assert_eq!(o.pack.liar_fraction, 0.2);
        assert_eq!(o.pack.islands, 4);
    }

    #[test]
    fn pack_flags_reject_out_of_range_values() {
        for (flag, bad) in [
            ("--spike-boost", "0"),
            ("--spike-boost", "1.5"),
            ("--pareto-shape", "1.0"),
            ("--pareto-shape", "inf"),
            ("--liar-fraction", "1.0"),
            ("--liar-fraction", "-0.1"),
            ("--islands", "1"),
            ("--islands", "many"),
        ] {
            assert_eq!(
                parse(&[flag, bad]),
                Err(CliError::BadValue(flag.into(), bad.into())),
                "{flag} {bad}"
            );
        }
    }

    #[test]
    fn full_flag_set_parses() {
        let (o, pos) = parse(&[
            "--scale", "10", "--hours", "12", "--seed", "7", "--csv", "out", "--json", "jdir",
            "--smoke",
        ])
        .unwrap();
        assert_eq!(o.scale, 10);
        assert_eq!(o.hours, 12);
        assert_eq!(o.seed, Some(7));
        assert_eq!(o.csv_dir.as_deref(), Some(std::path::Path::new("out")));
        assert_eq!(o.json_dir.as_deref(), Some(std::path::Path::new("jdir")));
        assert!(o.smoke && o.scale_explicit && o.hours_explicit);
        assert!(pos.is_empty());
    }

    #[test]
    fn missing_value_is_an_error_not_a_panic() {
        assert_eq!(
            parse(&["--scale"]),
            Err(CliError::MissingValue("--scale".into()))
        );
        assert_eq!(
            parse(&["--hours", "6", "--seed"]),
            Err(CliError::MissingValue("--seed".into()))
        );
    }

    #[test]
    fn bad_value_names_the_flag() {
        assert_eq!(
            parse(&["--hours", "six"]),
            Err(CliError::BadValue("--hours".into(), "six".into()))
        );
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(
            parse(&["--frobnicate"]),
            Err(CliError::UnknownFlag("--frobnicate".into()))
        );
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&["--help"]), Err(CliError::Help));
        assert_eq!(parse(&["-h"]), Err(CliError::Help));
    }

    #[test]
    fn positionals_pass_through_in_order() {
        let (o, pos) = parse(&["fig1", "--scale", "4", "fig2"]).unwrap();
        assert_eq!(pos, vec!["fig1".to_string(), "fig2".to_string()]);
        assert_eq!(o.scale, 4);
    }

    #[test]
    fn tuned_yields_to_explicit_flags() {
        let (o, _) = parse(&[]).unwrap();
        let o = o.tuned(4, 48);
        assert_eq!((o.scale, o.hours), (4, 48));
        let (o, _) = parse(&["--scale", "2"]).unwrap();
        let o = o.tuned(4, 48);
        assert_eq!((o.scale, o.hours), (2, 96), "explicit scale blocks retune");
        let (o, _) = parse(&["--hours", "10"]).unwrap();
        let o = o.tuned(4, 48);
        assert_eq!((o.scale, o.hours), (1, 10), "explicit hours blocks retune");
    }
}
