//! Driving the Gnutella world on the conservative sharded kernel.
//!
//! [`GnutellaWorld`] is a slice world (see the `world` module docs): each
//! shard owns a contiguous node range, every handler touches only the
//! destination node's state, and all delays respect the lookahead. Under
//! those rules `ddr_sim::ShardedSimulation` processes events in exactly
//! the serial kernel's order, so [`run_scenario_sharded`] returns a
//! [`RunReport`] *bit-identical* to [`crate::run_scenario`] — at any
//! shard count, serial or thread-parallel. The shard-parity tests and the
//! `fig1_dynamic --shards N` CI gate pin that property.

use crate::config::ScenarioConfig;
use crate::metrics::{Metrics, RunReport};
use crate::world::GnutellaWorld;
use ddr_sim::{RunOutcome, ShardProfile, ShardedSimulation, SimTime};
use ddr_stats::MeasurementWindow;
use ddr_telemetry::{JsonlSink, MetricsRecorder, NullSink, TraceSink};

/// Kernel-side measurements from one sharded run: wall clock excludes
/// construction and report merging.
#[derive(Debug, Clone, Copy)]
pub struct ShardedRunStats {
    /// Kernel wall-clock time (the `run`/`run_parallel` call only).
    pub elapsed: std::time::Duration,
    /// Events dispatched across all shards.
    pub events_processed: u64,
    /// Conservative windows the kernel opened.
    pub windows: u64,
    /// Events still queued at the horizon (a churn world never drains).
    pub final_pending: usize,
}

/// Run one scenario on the sharded kernel and return the merged report.
///
/// `shards` is the number of contiguous node slices; `threads > 1`
/// additionally processes the shards on a thread pool (same result, less
/// wall clock). A pure function of `(config, )` — shard and thread counts
/// do not change the report.
pub fn run_scenario_sharded(config: ScenarioConfig, shards: usize, threads: usize) -> RunReport {
    let (report, _stats, _prof, _worlds) =
        run_scenario_sharded_full(config, shards, threads, false);
    report
}

/// [`run_scenario_sharded`] plus the final per-shard worlds, for
/// post-run inspection: the scenario-pack invariant checker walks the
/// worlds (pending queries, per-node roles, degrees) next to the merged
/// report.
pub fn run_scenario_sharded_with_worlds(
    config: ScenarioConfig,
    shards: usize,
    threads: usize,
) -> (RunReport, Vec<GnutellaWorld<NullSink>>) {
    let (report, _stats, _prof, worlds) = run_scenario_sharded_full(config, shards, threads, false);
    (report, worlds)
}

/// The full-surface sharded entry point: report, kernel stats, an
/// optional per-shard [`ShardProfile`] (when `profile` is set) and the
/// final worlds. When `config.telemetry.metrics_path` is set, the run is
/// chunked one simulated hour at a time and every shard world is sampled
/// into a `"v":1` timeline file at each boundary — sampling happens
/// strictly *between* kernel windows, so the report (and its digest) is
/// identical to an unmetered run's.
pub fn run_scenario_sharded_full(
    config: ScenarioConfig,
    shards: usize,
    threads: usize,
    profile: bool,
) -> (
    RunReport,
    ShardedRunStats,
    Option<ShardProfile>,
    Vec<GnutellaWorld<NullSink>>,
) {
    if config.telemetry.metrics_path.is_some() {
        run_core::<JsonlSink>(config, shards, threads, profile)
    } else {
        run_core::<NullSink>(config, shards, threads, profile)
    }
}

fn run_core<S: TraceSink>(
    config: ScenarioConfig,
    shards: usize,
    threads: usize,
    profile: bool,
) -> (
    RunReport,
    ShardedRunStats,
    Option<ShardProfile>,
    Vec<GnutellaWorld<NullSink>>,
) {
    let window = MeasurementWindow::new(config.warmup_hours, config.sim_hours);
    let horizon = SimTime::from_hours(config.sim_hours);
    let label = config.mode.label();
    let mut recorder: MetricsRecorder<S> = MetricsRecorder::new(&config.telemetry);
    let (mut worlds, partition, lookahead) =
        GnutellaWorld::<NullSink>::build_sharded(config.clone(), shards);

    // Initial events, concatenated in shard (= global node) order so the
    // kernel's insertion sequence matches the serial queue exactly.
    let mut prime = Vec::new();
    for w in &mut worlds {
        w.collect_prime(&mut prime);
    }
    let mut sim = ShardedSimulation::new(worlds, partition, lookahead);
    for (at, node, ev) in prime {
        sim.schedule_at(at, node, ev);
    }
    if profile {
        sim.enable_profiling();
    }

    let start = std::time::Instant::now();
    let outcome = if MetricsRecorder::<S>::enabled() && config.sim_hours > 0 {
        // Chunked horizon: `run(h1); run(h2)` is event-identical to
        // `run(h2)` on this kernel (pinned by the resumability tests),
        // so hourly sampling pauses cannot perturb the run.
        let mut outcome = RunOutcome::ReachedHorizon;
        for hour in 1..=config.sim_hours {
            let chunk_end = SimTime::from_hours(hour);
            outcome = if threads > 1 {
                sim.run_parallel(chunk_end, threads)
            } else {
                sim.run(chunk_end)
            };
            recorder.sample_sharded(chunk_end, &sim);
        }
        outcome
    } else if threads > 1 {
        sim.run_parallel(horizon, threads)
    } else {
        sim.run(horizon)
    };
    let stats = ShardedRunStats {
        elapsed: start.elapsed(),
        events_processed: sim.processed(),
        windows: sim.windows(),
        final_pending: sim.pending(),
    };
    debug_assert!(
        matches!(outcome, RunOutcome::ReachedHorizon),
        "a churn-driven simulation never drains: {outcome:?}"
    );
    recorder.finish();
    let prof = sim.profile();

    let worlds = sim.into_worlds();
    let mut metrics = Metrics::new();
    for w in &worlds {
        metrics.merge(&w.metrics);
    }
    (
        RunReport {
            metrics,
            window,
            label,
        },
        stats,
        prof,
        worlds,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::run_scenario;

    fn small(mode: Mode) -> ScenarioConfig {
        let mut c = ScenarioConfig::scaled(mode, 2, 20, 6);
        c.seed = 7;
        c
    }

    #[test]
    fn one_shard_matches_serial_bit_for_bit() {
        for mode in [Mode::Static, Mode::Dynamic] {
            let serial = run_scenario(small(mode));
            let sharded = run_scenario_sharded(small(mode), 1, 1);
            assert_eq!(serial, sharded, "{mode:?}");
        }
    }

    #[test]
    fn shard_count_is_invisible() {
        let serial = run_scenario(small(Mode::Dynamic));
        for shards in [2, 3, 4] {
            let sharded = run_scenario_sharded(small(Mode::Dynamic), shards, 1);
            assert_eq!(serial.digest(), sharded.digest(), "shards={shards}");
            assert_eq!(serial, sharded, "shards={shards}");
        }
    }

    #[test]
    fn threads_are_invisible() {
        let one = run_scenario_sharded(small(Mode::Dynamic), 4, 1);
        let four = run_scenario_sharded(small(Mode::Dynamic), 4, 4);
        assert_eq!(one, four);
    }
}
