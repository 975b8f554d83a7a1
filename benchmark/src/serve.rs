//! `serve_open_loop`: the wall-clock serve bus, `ddr_serve::run_gnutella`,
//! with one shard per core and its single-thread generator offering a
//! fixed rate open loop.

use crate::alloc;
use crate::gates::Gates;
use crate::measure::{cpu_seconds, median, peak_rss_mib, Spans};
use crate::output::MetricSet;
use ddr_gnutella::{build_nodes, NodeSetConfig};
use ddr_serve::{run_gnutella, ServeConfig, ServeReport};
use ddr_sim::SimDuration;
use std::path::Path;
use std::time::{Duration, Instant};

/// The paper's population, served by the bus.
const NODES: usize = 2_000;
/// Offered queries per second: three quarters of the rate at which the
/// generator starts to fall behind on a 2-vCPU host (see README.md).
const QPS: f64 = 24_000.0;
/// Per-query collection window. First-result p99 is about 1 s, so 3 s
/// covers it three times over.
const QUERY_TIMEOUT_MS: u64 = 3_000;
/// The bus drains for this long past the last collection window
/// (`DRAIN_GRACE` in `crates/serve/src/bus.rs`, which is private).
const DRAIN_GRACE_S: f64 = 0.5;
/// Injection window of one bus run; with the collection window and the
/// drain grace a run takes 10 s.
const INJECT_S: f64 = 6.5;
/// Bus runs a plain pass makes at least.
const MIN_REPS: usize = 3;

pub fn config(seed: u64) -> ServeConfig {
    let mut nodes = NodeSetConfig::new(NODES, seed);
    nodes.query_timeout = SimDuration::from_millis(QUERY_TIMEOUT_MS);
    ServeConfig::new(nodes, QPS, INJECT_S, ddr_sim::default_workers())
}

/// One bus run with its process CPU time.
fn serve_rep(cfg: &ServeConfig, spans: &mut Spans, parent: usize) -> (ServeReport, f64) {
    let cpu0 = cpu_seconds();
    let (report, _) = spans.timed(parent, "serve.run_gnutella", || run_gnutella(cfg));
    (report, cpu_seconds() - cpu0)
}

fn completed(r: &ServeReport) -> f64 {
    r.queries_completed.max(1) as f64
}

/// The plain pass: repeat {time one fleet build (`setup_s`), one bus run}
/// until `seconds` have passed, at least `MIN_REPS` times, and report
/// medians. `attempted` counts offered queries and `failed` those not
/// completed.
pub fn run_plain(seed: u64, seconds: u64, gates: &mut Gates) -> (MetricSet, u64, u64) {
    let cfg = config(seed);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut spans = Spans::default();
    let mut per_rep: Vec<[f64; 8]> = Vec::new();
    let (mut offered, mut not_completed) = (0u64, 0u64);
    while per_rep.len() < MIN_REPS || Instant::now() < deadline {
        let rep = spans.open("serve_rep", None);
        let (_, setup_s) = spans.timed(rep, "gnutella.build_nodes", || build_nodes(&cfg.node_set));
        let (r, cpu_s) = serve_rep(&cfg, &mut spans, rep);
        spans.close(rep);
        gates.serve_accounting(&r);
        let n = completed(&r);
        eprintln!(
            "[benchmark] serve_open_loop: {} shards, {} offered, {} completed, first-result \
             quantiles over {} samples (wall ms)",
            r.shards, r.queries_offered, r.queries_completed, r.hits
        );
        offered += r.queries_offered;
        not_completed += r.queries_offered.saturating_sub(r.queries_completed);
        per_rep.push([
            setup_s,
            r.elapsed_s * 1e6 / n,
            cpu_s * 1e6 / n,
            r.p50_first_ms.unwrap_or(f64::NAN),
            r.p99_first_ms.unwrap_or(f64::NAN),
            r.hits as f64 / n,
            r.messages as f64 / n,
            r.queries_completed as f64 / r.queries_offered.max(1) as f64,
        ]);
    }
    let mut m = MetricSet::end_to_end();
    let column = |i: usize| median(&per_rep.iter().map(|r| r[i]).collect::<Vec<_>>());
    for (i, name) in [
        "setup_s",
        "wall_us_per_query",
        "cpu_us_per_query",
        "first_result_p50_ms",
        "first_result_p99_ms",
        "hit_ratio",
        "messages_per_query",
        "completed_share",
    ]
    .into_iter()
    .enumerate()
    {
        m.set(name, column(i));
    }
    m.set("peak_rss_mib", peak_rss_mib());
    (m, offered, not_completed)
}

/// Largest value of every gauge whose name starts with `prefix` across a
/// monitor timeline file.
///
/// The bus keeps inbox depth in an unsigned atomic that a receiver can
/// decrement before the sender's increment lands, so a sample can read as
/// a wrapped negative number near 2^64. Such readings stand for a depth
/// below zero and are skipped: they can never be the maximum.
fn timeline_max(text: &str, prefix: &str) -> Result<f64, String> {
    const WRAPPED: f64 = 9.223_372_036_854_776e18; // 2^63
    let mut max: Option<f64> = None;
    for (i, line) in text.lines().enumerate() {
        let v = serde::json::parse(line).map_err(|e| format!("line {}: {e:?}", i + 1))?;
        let Some(serde::json::Value::Obj(gauges)) = v.get("gauges") else {
            continue;
        };
        for (name, value) in gauges {
            match value.as_f64() {
                Some(x) if name.starts_with(prefix) && x < WRAPPED => {
                    max = Some(max.map_or(x, |m: f64| m.max(x)));
                }
                _ => {}
            }
        }
    }
    max.ok_or_else(|| format!("no {prefix}* gauge in the timeline"))
}

/// The traced pass: one plain bus run as the baseline, then one with the
/// bus's monitor writing its timeline and allocations counted.
pub fn run_traced(seed: u64, out_dir: &Path, gates: &mut Gates) -> (MetricSet, u64, u64) {
    let cfg = config(seed);
    let mut spans = Spans::default();
    let rep = spans.open("serve_traced", None);
    let (plain, plain_cpu) = serve_rep(&cfg, &mut spans, rep);
    gates.serve_accounting(&plain);

    let timeline = out_dir.join("serve-timeline.jsonl");
    let _ = std::fs::remove_file(&timeline);
    let mut monitored = cfg.clone();
    monitored.telemetry.metrics_path = Some(timeline.clone());
    monitored.telemetry.run_label = "benchmark";
    monitored.monitor_interval_ms = 50;
    alloc::start();
    let (r, cpu) = serve_rep(&monitored, &mut spans, rep);
    let allocs = alloc::stop();
    spans.close(rep);
    gates.serve_accounting(&r);

    let mut m = MetricSet::per_layer();
    let text = std::fs::read_to_string(&timeline).unwrap_or_default();
    let _ = std::fs::remove_file(&timeline);
    for (metric, prefix) in [
        ("serve.inbox_depth_max", "inbox_depth."),
        ("serve.timer_heap_max", "timer_heap."),
    ] {
        match timeline_max(&text, prefix) {
            Ok(v) => m.set(metric, v),
            Err(e) => {
                gates.check(false, || format!("serve monitor timeline: {e}"));
            }
        }
    }
    let n = completed(&r);
    let scheduled_stop = cfg.duration_s + QUERY_TIMEOUT_MS as f64 / 1_000.0 + DRAIN_GRACE_S;
    let offered = r.queries_offered.max(1) as f64;
    m.set("serve.offered_share", offered / (cfg.qps * cfg.duration_s));
    m.set("serve.issued_share", r.queries_issued as f64 / offered);
    m.set("serve.drain_overrun_s", r.elapsed_s - scheduled_stop);
    m.set(
        "serve.duplicate_share",
        r.duplicates as f64 / r.messages.max(1) as f64,
    );
    m.set("first_result.samples", r.hits as f64);
    m.set("alloc.per_query", allocs.allocs as f64 / n);
    m.set(
        "trace.overhead_share",
        (cpu / n) / (plain_cpu / completed(&plain)) - 1.0,
    );

    let spans_path = out_dir.join(format!("spans-serve_open_loop-{seed}.jsonl"));
    if let Err(e) = spans.write_jsonl(&spans_path, &format!("serve_open_loop-{seed}")) {
        gates.check(false, || format!("writing {}: {e}", spans_path.display()));
    }
    let failed = u64::from(gates.failed());
    (m, 2, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_max_reads_gauges_across_windows() {
        let text = "{\"v\":1,\"type\":\"window\",\"t\":50,\"counters\":{},\
                    \"gauges\":{\"inbox_depth.s0\":3,\"inbox_depth.s1\":9,\"timer_heap.s0\":4}}\n\
                    {\"v\":1,\"type\":\"window\",\"t\":100,\"counters\":{},\
                    \"gauges\":{\"inbox_depth.s0\":5,\"timer_heap.s0\":40}}\n";
        assert_eq!(timeline_max(text, "inbox_depth."), Ok(9.0));
        assert_eq!(timeline_max(text, "timer_heap."), Ok(40.0));
        assert!(timeline_max(text, "missing.").is_err());
        let wrapped = "{\"gauges\":{\"inbox_depth.s0\":18446744073709551615,\"inbox_depth.s1\":2}}";
        assert_eq!(timeline_max(wrapped, "inbox_depth."), Ok(2.0));
        assert!(timeline_max("not json", "x").is_err());
    }

    #[test]
    fn config_is_seeded_and_a_run_takes_ten_seconds() {
        let c = config(3);
        assert_eq!(c.node_set.seed, 3);
        let run_s =
            c.duration_s + c.node_set.query_timeout.as_millis() as f64 / 1e3 + DRAIN_GRACE_S;
        assert!((run_s - 10.0).abs() < 1e-9);
    }
}
