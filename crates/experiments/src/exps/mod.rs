//! One module per registered experiment. Each exposes
//! `run(&ExpOptions, &mut Emitter)` — the function the registry points
//! at — and nothing else; entry-point plumbing lives in [`crate::cli`].

pub mod ablations;
pub mod all_experiments;
pub mod bandwidth_eras;
pub mod diag;
pub mod exploration_sweep;
pub mod fairness;
pub mod fig1;
pub mod fig1_dynamic;
pub mod fig2;
pub mod fig3a;
pub mod fig3b;
pub mod fig3b_ablation;
pub mod flash_crowd;
pub mod free_riders;
pub mod heavy_churn;
pub mod partition_heal;
pub mod peerolap_eval;
pub mod shard_scaling;
pub mod strategies;
pub mod webcache_eval;

use crate::opts::ExpOptions;
use ddr_gnutella::{
    check_invariants, run_scenario_sharded_with_worlds, GnutellaWorld, RunReport, ScenarioConfig,
};
use ddr_peerolap::PeerOlapConfig;
use ddr_telemetry::{JsonlMetrics, MetricsRecorder, NullSink, TelemetryConfig};
use ddr_webcache::WebCacheConfig;

/// Smoke-mode clamp for Gnutella-based experiments: force a tiny world
/// (at most 100 users, at most 6 hours) so `ddr run --all --smoke`
/// finishes in seconds. No-op outside smoke mode.
pub(crate) fn smoke_scale(mut opts: ExpOptions) -> ExpOptions {
    if opts.smoke {
        opts.scale = opts.scale.max(20);
        opts.hours = opts.hours.min(6);
    }
    opts
}

/// Run one scenario-pack configuration on the sharded kernel and assert
/// the [`check_invariants`] layer over the result — every pack experiment
/// goes through here, so a conservation or isolation violation aborts the
/// run loudly instead of producing a quietly wrong table.
pub(crate) fn run_pack(
    config: ScenarioConfig,
    shards: usize,
    threads: usize,
) -> (RunReport, Vec<GnutellaWorld<NullSink>>) {
    config.validate().expect("pack scenario config");
    let (report, worlds) = run_scenario_sharded_with_worlds(config, shards, threads);
    if let Err(e) = check_invariants(&report, &worlds) {
        panic!("scenario invariants violated: {e}");
    }
    (report, worlds)
}

/// Run a serial (harness-driven) scenario with hourly metrics sampling
/// into `telemetry.metrics_path`. Chunked via `ddr_harness::run_sampled`,
/// so the report is bit-identical to a plain `run` — the timeline is a
/// pure side channel.
pub(crate) fn run_metered<S: ddr_harness::Scenario>(
    cfg: S::Config,
    telemetry: &TelemetryConfig,
) -> S::Report {
    let mut rec: MetricsRecorder<JsonlMetrics> = MetricsRecorder::new(telemetry);
    let report = ddr_harness::run_sampled::<S>(cfg, |now, sim| rec.sample_sim(now, sim));
    rec.finish();
    report
}

/// Order-sensitive fold of several run digests into the single `digest:`
/// line the shard-parity gate compares across `--shards` counts.
pub(crate) fn fold_digests(reports: &[&RunReport]) -> u64 {
    reports
        .iter()
        .fold(0u64, |acc, r| acc.rotate_left(17) ^ r.digest())
}

/// `value` as a percentage change relative to `base` (for delta notes).
pub(crate) fn pct_delta(value: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (value / base - 1.0)
    }
}

/// Smoke-mode shrink for a web-cache world.
pub(crate) fn shrink_webcache(cfg: &mut WebCacheConfig) {
    cfg.proxies = 16;
    cfg.groups = 4;
    cfg.pages_per_group = 2_000;
    cfg.global_pages = 2_000;
    cfg.cache_capacity = 300;
    cfg.sim_hours = cfg.sim_hours.min(4);
    cfg.warmup_hours = 1;
}

/// Smoke-mode shrink for a PeerOlap world.
pub(crate) fn shrink_peerolap(cfg: &mut PeerOlapConfig) {
    cfg.peers = 16;
    cfg.groups = 4;
    cfg.chunks_per_region = 1_024;
    cfg.cache_capacity = 256;
    cfg.sim_hours = cfg.sim_hours.min(4);
    cfg.warmup_hours = 1;
}
