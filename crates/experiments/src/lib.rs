//! # ddr-experiments — regenerating the paper's tables and figures
//!
//! Every figure, evaluation and ablation registers as a named
//! [`Experiment`] in the [`registry`]; the single `ddr` binary drives
//! them (`ddr list`, `ddr run <name>...`, `ddr run --all`).
//!
//! Every experiment accepts the shared flag grammar (see
//! [`ExpOptions`]):
//!
//! ```text
//! --scale N    divide users & songs by N (default 1 = paper scale: 2000 users)
//! --hours H    simulated horizon (default 96 = the paper's 4 days)
//! --seed S     root seed (default: the scenario default)
//! --csv DIR    also write CSV files into DIR
//! --json DIR   also write report JSON into DIR
//! --smoke      seconds-long CI configuration
//! ```
//!
//! Runs with the same options are bit-reproducible. Independent runs in a
//! sweep fan out across worker threads via the shared engine in
//! `ddr-harness` ([`ddr_harness::run_many`] / [`ddr_harness::Sweep`]);
//! each run is single-threaded and deterministic, so parallelism never
//! affects results — only wall-clock time.

pub mod cli;
pub mod emit;
pub mod exps;
pub mod opts;
pub mod registry;
pub mod serve;

pub use emit::Emitter;
pub use opts::{CliError, ExpOptions, PackOptions, USAGE};
pub use registry::{find, registry, Experiment};

use ddr_gnutella::{GnutellaScenario, RunReport, ScenarioConfig};
use ddr_stats::Table;
use ddr_telemetry::{JsonlSink, KernelProfiler};

/// Run every Gnutella configuration, fanning out across up to `workers`
/// threads, and return reports in input order. A thin alias over the
/// shared sweep engine, kept for the experiment modules and downstream
/// callers.
pub fn run_all(configs: Vec<ScenarioConfig>, workers: usize) -> Vec<RunReport> {
    ddr_harness::run_many::<GnutellaScenario>(configs, workers)
}

/// [`run_all`] with the telemetry options applied: the default build is
/// the parallel untraced sweep; `--trace` swaps in the JSONL-sink world
/// (sampled query spans appended to one shared file, each record carrying
/// its run label); `--profile` runs serially under a kernel probe and
/// emits the dispatch/queue report afterwards. Reports are bit-identical
/// across all three paths — telemetry only observes.
pub fn run_all_with(
    opts: &ExpOptions,
    configs: Vec<ScenarioConfig>,
    em: &mut Emitter,
) -> Vec<RunReport> {
    if opts.profile {
        let mut profiler = KernelProfiler::new();
        let reports = configs
            .into_iter()
            .map(|c| {
                if opts.trace.is_some() {
                    ddr_harness::run_probed::<GnutellaScenario<JsonlSink>, _>(c, &mut profiler)
                } else {
                    ddr_harness::run_probed::<GnutellaScenario, _>(c, &mut profiler)
                }
            })
            .collect();
        em.note(&profiler.render());
        reports
    } else if opts.trace.is_some() {
        ddr_harness::run_many::<GnutellaScenario<JsonlSink>>(configs, opts.workers())
    } else {
        run_all(configs, opts.workers())
    }
}

/// Default worker count: one per core (the kernel's shared helper — the
/// same one the sweep engine, the serve backend, and the sharded kernel
/// resolve through).
pub fn default_workers() -> usize {
    ddr_sim::parallelism::default_workers()
}

/// The hourly-series table for one (static, dynamic) pair — the layout of
/// Figures 1 and 2: one row per reported hour, series side by side. The
/// paper samples every 15th hour starting at 12; we print the same rows
/// (and the CSV carries every hour).
pub fn hourly_figure_table(
    title: &str,
    metric: &str,
    stat: &RunReport,
    dyn_: &RunReport,
    every: usize,
) -> Table {
    let mut t = Table::new(
        title,
        &[
            "Hour",
            &format!("Gnutella {metric}"),
            &format!("Dynamic_Gnutella {metric}"),
        ],
    );
    let s = pick_series(stat, metric);
    let d = pick_series(dyn_, metric);
    let base = stat.window.from_hour as usize;
    for (i, (sv, dv)) in s.iter().zip(&d).enumerate() {
        if i % every == 0 {
            t.row(vec![
                format!("{}", base + i),
                format!("{sv:.0}"),
                format!("{dv:.0}"),
            ]);
        }
    }
    t
}

fn pick_series(r: &RunReport, metric: &str) -> Vec<f64> {
    match metric {
        "hits" => r.hits_series(),
        "messages" => r.messages_series(),
        other => panic!("unknown metric {other}"),
    }
}

/// Banner line printed by each entry point so logs identify the run.
pub fn banner(name: &str, opts: &ExpOptions) {
    eprintln!(
        "[{name}] scale={} hours={} seed={:?} smoke={} workers={}",
        opts.scale,
        opts.hours,
        opts.seed,
        opts.smoke,
        opts.workers()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddr_gnutella::Mode;

    fn tiny(mode: Mode) -> ScenarioConfig {
        let mut c = ScenarioConfig::scaled(mode, 2, 20, 6);
        c.seed = 3;
        c
    }

    #[test]
    fn run_all_preserves_order_and_determinism() {
        let configs = vec![tiny(Mode::Static), tiny(Mode::Dynamic), tiny(Mode::Static)];
        let seq = run_all(configs.clone(), 1);
        let par = run_all(configs, 4);
        assert_eq!(seq.len(), 3);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.total_hits(), b.total_hits());
            assert_eq!(a.total_messages(), b.total_messages());
        }
        assert_eq!(seq[0].label, "Gnutella");
        assert_eq!(seq[1].label, "Dynamic_Gnutella");
    }

    #[test]
    fn run_all_empty_is_empty() {
        assert!(run_all(vec![], 4).is_empty());
    }

    #[test]
    fn profiled_run_matches_plain_and_names_event_types() {
        let opts = ExpOptions {
            profile: true,
            ..ExpOptions::default()
        };
        let mut em = Emitter::capture();
        let configs = vec![tiny(Mode::Static), tiny(Mode::Dynamic)];
        let prof = run_all_with(&opts, configs.clone(), &mut em);
        let plain = run_all(configs, 2);
        for (a, b) in prof.iter().zip(&plain) {
            assert_eq!(a.total_hits(), b.total_hits(), "probing changed the run");
            assert_eq!(a.total_messages(), b.total_messages());
        }
        let out = em.captured().unwrap();
        assert!(out.contains("QueryArrive"), "no per-event profile row");
        assert!(out.contains("occupancy"), "no queue-occupancy table");
    }

    #[test]
    fn scenario_building_respects_options() {
        let opts = ExpOptions {
            scale: 10,
            hours: 12,
            seed: Some(99),
            ..ExpOptions::default()
        };
        let c = opts.scenario(Mode::Dynamic, 3);
        assert_eq!(c.workload.users, 200);
        assert_eq!(c.sim_hours, 12);
        assert_eq!(c.max_hops, 3);
        assert_eq!(c.seed, 99);
    }

    #[test]
    fn figure_table_shape() {
        let configs = vec![tiny(Mode::Static), tiny(Mode::Dynamic)];
        let r = run_all(configs, 2);
        let t = hourly_figure_table("Fig X", "hits", &r[0], &r[1], 1);
        assert_eq!(
            t.len(),
            (r[0].window.to_hour - r[0].window.from_hour) as usize
        );
        assert!(t.render().contains("Dynamic_Gnutella"));
    }
}
