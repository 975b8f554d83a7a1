//! The two simulator workloads: `fig1_paper` on the serial kernel through
//! the harness's scenario steps, and `churn_sharded` on the sharded kernel
//! through `ddr_gnutella::run_scenario_sharded_full` (the `--shards 2`
//! path).

use crate::alloc::{self, AllocCount};
use crate::gates::Gates;
use crate::measure::{cpu_seconds, histogram_quantile, median, peak_rss_mib, Spans};
use crate::output::{MetricSet, LABELS};
use crate::probe::{calibrate, LabelProbe, ProbeCost};
use ddr_gnutella::{
    check_invariants, run_scenario_sharded_full, GnutellaScenario, GnutellaWorld, Mode, RunReport,
    ScenarioConfig,
};
use ddr_harness::Scenario;
use ddr_sim::{EventQueue, RunOutcome, ShardProfile, SimDuration, SimTime, Simulation};
use ddr_telemetry::{JsonlSink, NullSink, TraceSink};
use std::path::Path;
use std::time::{Duration, Instant};

/// `fig1_paper`: the paper's population, catalog and churn, hop limit 2,
/// dynamic mode, over a horizon short enough for several repetitions in
/// one run. The first `FIG1_WARMUP_HOURS` are excluded from the reported
/// ratios, as the paper excludes its warm-up.
const FIG1_HOURS: u64 = 12;
const FIG1_WARMUP_HOURS: u64 = 2;

/// `churn_sharded`: `ScenarioConfig::big_world` at sixteen times the
/// paper's population with sessions (and offline gaps) eight times
/// shorter, the perfbench `churn_stress` shape, on two shards over one
/// simulated hour, measured from the start. The shards advance in
/// lookahead windows on one thread: with a worker per shard on a 2-vCPU
/// host the run is bound by barrier wake-ups, which time the host's
/// scheduler rather than the kernel.
const CHURN_USERS: usize = 32_000;
const CHURN_HOURS: u64 = 1;
const CHURN_SESSION_DIVISOR: u64 = 8;
pub const SHARDS: usize = 2;
const SHARD_THREADS: usize = 1;

/// Repetitions a plain run makes at least, however long they take.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    Fig1Paper,
    ChurnSharded,
}

impl SimWorkload {
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::Fig1Paper => "fig1_paper",
            SimWorkload::ChurnSharded => "churn_sharded",
        }
    }

    pub fn config(self, seed: u64) -> ScenarioConfig {
        let mut c = match self {
            SimWorkload::Fig1Paper => {
                let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
                c.sim_hours = FIG1_HOURS;
                c.warmup_hours = FIG1_WARMUP_HOURS;
                c
            }
            SimWorkload::ChurnSharded => {
                let mut c = ScenarioConfig::big_world(Mode::Dynamic, 2, CHURN_USERS, 2);
                c.sim_hours = CHURN_HOURS;
                c.warmup_hours = 0;
                let w = &mut c.workload;
                w.mean_online =
                    SimDuration::from_millis(w.mean_online.as_millis() / CHURN_SESSION_DIVISOR);
                w.mean_offline =
                    SimDuration::from_millis(w.mean_offline.as_millis() / CHURN_SESSION_DIVISOR);
                c
            }
        };
        c.seed = seed;
        c
    }
}

/// One run of the serial path, timed step by step.
pub struct SerialRep<T: TraceSink> {
    pub report: RunReport,
    pub world: GnutellaWorld<T>,
    pub outcome: RunOutcome,
    pub build_s: f64,
    pub prime_s: f64,
    pub loop_s: f64,
    pub report_s: f64,
    pub cpu_s: f64,
    pub events: u64,
    pub peak_pending: usize,
    /// Allocations inside the event loop, when counting was asked for.
    pub loop_allocs: Option<AllocCount>,
}

/// Build, prime, run and extract through the harness's `Scenario` steps
/// (what `ddr_harness::run_with_world` does in one call), with a span
/// around each step.
pub fn serial_rep<T: TraceSink>(
    cfg: &ScenarioConfig,
    probe: Option<&mut LabelProbe>,
    count_allocs: bool,
    spans: &mut Spans,
) -> SerialRep<T> {
    let cpu0 = cpu_seconds();
    let rep = spans.open("serial_rep", None);
    let window = GnutellaScenario::<T>::window(cfg);
    let horizon = SimTime::from_hours(window.to_hour);
    let (mut world, build_s) = spans.timed(rep, "harness.build", || {
        GnutellaScenario::<T>::build(cfg.clone())
    });
    let (queue, prime_s) = spans.timed(rep, "harness.prime", || {
        let mut queue = EventQueue::with_capacity(GnutellaScenario::<T>::capacity_hint(cfg));
        GnutellaScenario::<T>::prime(&mut world, &mut queue);
        queue
    });
    let mut sim = Simulation::with_queue(world, queue);
    if count_allocs {
        alloc::start();
    }
    let (outcome, loop_s) = spans.timed(rep, "sim.run", || match probe {
        Some(p) => sim.run_probed(horizon, p),
        None => sim.run(horizon),
    });
    let loop_allocs = count_allocs.then(alloc::stop);
    let (events, peak_pending) = (sim.processed(), sim.peak_pending());
    let world = sim.into_world();
    let (report, report_s) = spans.timed(rep, "harness.extract_report", || {
        GnutellaScenario::<T>::extract_report(&world, window)
    });
    spans.close(rep);
    SerialRep {
        report,
        world,
        outcome,
        build_s,
        prime_s,
        loop_s,
        report_s,
        cpu_s: cpu_seconds() - cpu0,
        events,
        peak_pending,
        loop_allocs,
    }
}

/// Gate a serial run: it reached its horizon (a churn world never drains)
/// and its final world passes the program's invariant checker.
fn check_serial<T: TraceSink>(gates: &mut Gates, what: &str, r: &SerialRep<T>) {
    gates.check(r.outcome == RunOutcome::ReachedHorizon, || {
        format!("{what}: run ended with {:?}", r.outcome)
    });
    gates.check_result(
        &format!("{what}: check_invariants"),
        check_invariants(&r.report, std::slice::from_ref(&r.world)),
    );
}

/// One run of the sharded path through its public entry point.
pub struct ShardedRep {
    pub report: RunReport,
    pub worlds: Vec<GnutellaWorld<NullSink>>,
    pub profile: Option<ShardProfile>,
    /// Wall time of the call outside the kernel loop: world build, prime
    /// and the final merge of the shards' metrics.
    pub setup_s: f64,
    pub loop_s: f64,
    pub cpu_s: f64,
    pub events: u64,
}

pub fn sharded_rep(cfg: &ScenarioConfig, profile: bool, spans: &mut Spans) -> ShardedRep {
    let cpu0 = cpu_seconds();
    let rep = spans.open("sharded_rep", None);
    let ((report, stats, profile, worlds), total_s) =
        spans.timed(rep, "gnutella.run_scenario_sharded_full", || {
            run_scenario_sharded_full(cfg.clone(), SHARDS, SHARD_THREADS, profile)
        });
    spans.close(rep);
    let loop_s = stats.elapsed.as_secs_f64();
    ShardedRep {
        report,
        worlds,
        profile,
        setup_s: total_s - loop_s,
        loop_s,
        cpu_s: cpu_seconds() - cpu0,
        events: stats.events_processed,
    }
}

/// Queries issued over the whole run (warm-up included, as the loop time
/// covers it).
fn queries(report: &RunReport) -> f64 {
    report.metrics.runtime.queries.total()
}

/// `hit_ratio`, `messages_per_query` and the first-result quantiles: all
/// deterministic for a seed, over the measurement window.
fn set_report_metrics(m: &mut MetricSet, report: &RunReport) {
    let metrics = &report.metrics;
    m.set("hit_ratio", report.hit_ratio());
    let window_queries = report.window.sum(&metrics.runtime.queries);
    m.set(
        "messages_per_query",
        report.total_messages() / window_queries,
    );
    let h = &metrics.first_delay_hist;
    for (name, q) in [("first_result_p50_ms", 0.5), ("first_result_p99_ms", 0.99)] {
        let v = histogram_quantile(h.buckets(), h.overflow(), h.bucket_width(), q);
        m.set(name, v.unwrap_or(f64::NAN));
    }
    eprintln!(
        "[benchmark] first-result quantiles over {} samples (simulated ms)",
        h.count()
    );
}

/// The plain pass: repeat the workload from a fresh world until `seconds`
/// have passed (at least `MIN_REPS` times) and report medians. Returns
/// the metrics, repetitions attempted and repetitions failed.
pub fn run_plain(
    workload: SimWorkload,
    seed: u64,
    seconds: u64,
    gates: &mut Gates,
) -> (MetricSet, u64, u64) {
    let cfg = workload.config(seed);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut spans = Spans::default();
    let (mut setup, mut wall, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<RunReport> = None;
    let mut first_digest = None;
    let mut failed = 0u64;
    while setup.len() < MIN_REPS || Instant::now() < deadline {
        let failures_before = gates.failures().len();
        let (report, setup_s, loop_s, cpu_s) = match workload {
            SimWorkload::Fig1Paper => {
                let r = serial_rep::<NullSink>(&cfg, None, false, &mut spans);
                check_serial(gates, "fig1_paper", &r);
                (r.report, r.build_s + r.prime_s, r.loop_s, r.cpu_s)
            }
            SimWorkload::ChurnSharded => {
                let r = sharded_rep(&cfg, false, &mut spans);
                gates.check_result(
                    "churn_sharded: check_invariants",
                    check_invariants(&r.report, &r.worlds),
                );
                (r.report, r.setup_s, r.loop_s, r.cpu_s)
            }
        };
        let digest = report.digest();
        match first_digest {
            Some(d) => {
                gates.same_digest("repeat with the same seed", d, digest);
            }
            None => first_digest = Some(digest),
        }
        if gates.failures().len() > failures_before {
            failed += 1;
        }
        let q = queries(&report);
        setup.push(setup_s);
        wall.push(loop_s * 1e6 / q);
        cpu.push(cpu_s * 1e6 / q);
        first.get_or_insert(report);
    }
    let report = first.expect("at least one repetition");
    let reps = setup.len() as u64;
    eprintln!(
        "[benchmark] {}: {reps} repetitions of {} queries each; wall us/query per repetition: {:.3?}",
        workload.name(),
        queries(&report),
        wall
    );
    let mut m = MetricSet::end_to_end();
    m.set("setup_s", median(&setup));
    m.set("wall_us_per_query", median(&wall));
    m.set("cpu_us_per_query", median(&cpu));
    m.set("peak_rss_mib", peak_rss_mib());
    set_report_metrics(&mut m, &report);
    m.set("completed_share", (reps - failed) as f64 / reps as f64);
    (m, reps, failed)
}

/// Per-layer metrics of the serial replay: harness steps, kernel, handlers
/// by label, search, update and churn counters, allocations and the JSONL
/// tracer's cost.
struct SerialLayers {
    plain: SerialRep<NullSink>,
    probed: SerialRep<NullSink>,
    probe: LabelProbe,
    cost: ProbeCost,
}

fn serial_layers(
    workload: SimWorkload,
    cfg: &ScenarioConfig,
    out_dir: &Path,
    gates: &mut Gates,
    spans: &mut Spans,
    m: &mut MetricSet,
) -> SerialLayers {
    let name = workload.name();
    let cost = calibrate();
    let plain = serial_rep::<NullSink>(cfg, None, false, spans);
    let mut probe = LabelProbe::default();
    let probed = serial_rep::<NullSink>(cfg, Some(&mut probe), true, spans);

    // The program's own JSONL query tracer, every query sampled.
    let trace_path = out_dir.join(format!("trace-{name}.jsonl"));
    let mut traced_cfg = cfg.clone();
    traced_cfg.telemetry.trace_path = Some(trace_path.clone());
    traced_cfg.telemetry.sample = 1;
    traced_cfg.telemetry.run_label = "benchmark";
    let jsonl = serial_rep::<JsonlSink>(&traced_cfg, None, false, spans);
    let jsonl_loop_s = jsonl.loop_s;
    let jsonl_digest = jsonl.report.digest();
    check_serial(gates, &format!("{name} JSONL-traced"), &jsonl);
    drop(jsonl); // flushes the trace file
    let trace_bytes = std::fs::metadata(&trace_path).map_or(0, |md| md.len());
    gates.check(trace_bytes > 0, || {
        format!("{name}: the JSONL tracer wrote nothing")
    });
    let _ = std::fs::remove_file(&trace_path);

    check_serial(gates, &format!("{name} serial"), &plain);
    check_serial(gates, &format!("{name} probed"), &probed);
    let digest = plain.report.digest();
    gates.same_digest("serial: plain vs probed", digest, probed.report.digest());
    gates.same_digest("serial: plain vs JSONL-traced", digest, jsonl_digest);

    m.set("harness.build_s", plain.build_s);
    m.set("harness.prime_s", plain.prime_s);
    m.set("harness.report_s", plain.report_s);
    m.set(
        "telemetry.jsonl_trace_overhead_share",
        jsonl_loop_s / plain.loop_s - 1.0,
    );

    let events = probed.events as f64;
    let q = queries(&plain.report);
    m.set("sim.events", plain.events as f64);
    m.set("sim.events_per_query", plain.events as f64 / q);
    m.set("sim.peak_pending", plain.peak_pending as f64);
    m.set(
        "sim.overflow_share",
        probe.overflow_share_sum / probe.samples.max(1) as f64,
    );
    m.set("sim.wheel_migrations", probe.migrations as f64);
    let handler_ns = probe.handler_ns() as f64;
    let kernel_ns = probed.loop_s * 1e9 - handler_ns - events * (cost.total_ns - cost.inside_ns);
    m.set("sim.kernel_self_ns_per_event", kernel_ns / events);

    let handler_true = handler_ns - events * cost.inside_ns;
    for &(label, count, ns) in &probe.labels {
        if !LABELS.contains(&label) {
            eprintln!("[benchmark] {name}: label {label} is not in the benchmark's label list");
            continue;
        }
        let own_ns = ns as f64 - count as f64 * cost.inside_ns;
        m.set(&format!("gnutella.{label}.events"), count as f64);
        m.set(
            &format!("gnutella.{label}.ns_per_event"),
            own_ns / count as f64,
        );
        m.set(
            &format!("gnutella.{label}.time_share"),
            own_ns / handler_true,
        );
    }

    let allocs = probed.loop_allocs.unwrap_or_default();
    m.set("alloc.per_event", allocs.allocs as f64 / events);
    m.set("alloc.bytes_per_event", allocs.bytes as f64 / events);
    m.set("alloc.per_query", allocs.allocs as f64 / q);
    m.set("trace.probe_cost_s", events * cost.total_ns * 1e-9);
    set_protocol_layers(m, &plain.report);

    SerialLayers {
        plain,
        probed,
        probe,
        cost,
    }
}

/// Search, update and churn counters from a report. A ratio whose base
/// is zero (no invitation sent, say) reads 0.
fn set_protocol_layers(m: &mut MetricSet, report: &RunReport) {
    let r = &report.metrics;
    let kq = queries(report) / 1_000.0;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.set(
        "search.duplicate_share",
        ratio(r.duplicates_dropped as f64, r.runtime.messages.total()),
    );
    m.set("search.first_result_hops_mean", r.first_result_hops.mean());
    m.set("first_result.samples", r.first_delay_hist.count() as f64);
    m.set("update.invites_per_kquery", r.invitations_sent as f64 / kq);
    m.set(
        "update.invite_accept_share",
        ratio(r.invitations_accepted as f64, r.invitations_sent as f64),
    );
    m.set("update.evictions_per_kquery", r.evictions as f64 / kq);
    m.set(
        "update.edges_changed_per_update",
        ratio(r.runtime.edges_changed as f64, r.runtime.updates as f64),
    );
    m.set("churn.logins_per_kquery", r.logins as f64 / kq);
}

/// The traced pass. Both workloads replay their config through the
/// serial probed driver; `churn_sharded` also runs its sharded path plain
/// and with `ShardProfile` on. Spans are written to `out_dir` at the end.
pub fn run_traced(
    workload: SimWorkload,
    seed: u64,
    out_dir: &Path,
    gates: &mut Gates,
) -> (MetricSet, u64, u64) {
    let cfg = workload.config(seed);
    let mut spans = Spans::default();
    let mut m = MetricSet::per_layer();
    let mut reps = 3;

    let sharded = (workload == SimWorkload::ChurnSharded).then(|| {
        let plain = sharded_rep(&cfg, false, &mut spans);
        let profiled = sharded_rep(&cfg, true, &mut spans);
        reps += 2;
        (plain, profiled)
    });
    let serial = serial_layers(workload, &cfg, out_dir, gates, &mut spans, &mut m);

    match &sharded {
        None => m.set(
            "trace.overhead_share",
            serial.probed.loop_s / serial.plain.loop_s - 1.0,
        ),
        Some((plain, profiled)) => {
            let digest = serial.plain.report.digest();
            gates.same_digest("2-shard vs serial driver", digest, plain.report.digest());
            gates.same_digest(
                "profiled 2-shard vs serial driver",
                digest,
                profiled.report.digest(),
            );
            gates.check_result(
                "churn_sharded: check_invariants",
                check_invariants(&plain.report, &plain.worlds),
            );
            m.set("trace.overhead_share", profiled.loop_s / plain.loop_s - 1.0);
            match &profiled.profile {
                Some(p) => set_sharded_layers(&mut m, p, profiled.events),
                None => {
                    gates.check(false, || "ShardProfile missing after enable".to_string());
                }
            }
        }
    }
    eprintln!(
        "[benchmark] probe cost {:.1} ns per dispatch ({:.1} ns inside the timed handler), \
         {} queue samples",
        serial.cost.total_ns, serial.cost.inside_ns, serial.probe.samples
    );

    let spans_path = out_dir.join(format!("spans-{}-{seed}.jsonl", workload.name()));
    if let Err(e) = spans.write_jsonl(&spans_path, &format!("{}-{seed}", workload.name())) {
        gates.check(false, || format!("writing {}: {e}", spans_path.display()));
    }
    eprintln!("[benchmark] spans written to {}", spans_path.display());
    let failed = u64::from(gates.failed());
    (m, reps, failed)
}

fn set_sharded_layers(m: &mut MetricSet, p: &ShardProfile, events: u64) {
    let secs = |ns: u64| ns as f64 * 1e-9;
    let work: u64 = p.lanes.iter().map(|l| l.work_ns).sum();
    let barrier: u64 = p.lanes.iter().map(|l| l.barrier_ns).sum();
    let stall: u64 = p.lanes.iter().map(|l| l.stall_ns).sum();
    let max_work = p.lanes.iter().map(|l| l.work_ns).max().unwrap_or(0);
    m.set("sharded.windows", p.windows as f64);
    m.set(
        "sharded.events_per_window",
        events as f64 / p.windows.max(1) as f64,
    );
    m.set(
        "sharded.max_window_events",
        p.lanes
            .iter()
            .map(|l| l.max_window_events)
            .max()
            .unwrap_or(0) as f64,
    );
    m.set("sharded.work_s", secs(work));
    m.set("sharded.barrier_s", secs(barrier));
    m.set("sharded.stall_s", secs(stall));
    m.set("sharded.merge_s", secs(p.merge_ns));
    m.set(
        "sharded.busy_share",
        work as f64 / (work + barrier + stall).max(1) as f64,
    );
    m.set(
        "sharded.cross_shard_share",
        p.cross_shard_events as f64 / events as f64,
    );
    m.set(
        "sharded.lane_imbalance",
        max_work as f64 * p.lanes.len() as f64 / work.max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small serial run through the same gate the workloads use.
    fn small() -> ScenarioConfig {
        let mut c = ScenarioConfig::scaled(Mode::Dynamic, 2, 20, 3);
        c.seed = 11;
        c
    }

    #[test]
    fn clean_run_passes_and_tampered_digest_fails_the_run() {
        let mut spans = Spans::default();
        let a = serial_rep::<NullSink>(&small(), None, false, &mut spans);
        let mut b = serial_rep::<NullSink>(&small(), None, false, &mut spans);
        let mut gates = Gates::default();
        check_serial(&mut gates, "small", &a);
        gates.same_digest("repeat", a.report.digest(), b.report.digest());
        assert!(!gates.failed(), "{:?}", gates.failures());

        // Tamper with one counter of the second report: the digest gate
        // must catch it and the run's result line must say so.
        b.report.metrics.invitations_sent += 1;
        gates.same_digest("repeat", a.report.digest(), b.report.digest());
        let mut m = MetricSet::end_to_end();
        set_report_metrics(&mut m, &a.report);
        let line = m.result_line(&mut gates, 2, 0);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
        assert_ne!(gates.exit_code(), 0);
    }

    #[test]
    fn workload_configs_are_valid_and_seeded() {
        for w in [SimWorkload::Fig1Paper, SimWorkload::ChurnSharded] {
            let c = w.config(5);
            c.validate().expect("valid config");
            assert_eq!(c.seed, 5);
            assert!(c.warmup_hours < c.sim_hours);
        }
        assert_eq!(SimWorkload::Fig1Paper.config(1).workload.users, 2_000);
    }
}
