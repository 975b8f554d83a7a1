//! Metric declarations and the result line printed as the last line of
//! standard output.

use crate::gates::Gates;

/// End-to-end metrics, printed by every plain (`--trace 0`) run, with
/// their units. `BENCHMARK.json` declares the same list.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_us_per_query", "us"),
    ("cpu_us_per_query", "us"),
    ("peak_rss_mib", "MiB"),
    ("first_result_p50_ms", "ms"),
    ("first_result_p99_ms", "ms"),
    ("hit_ratio", "share"),
    ("messages_per_query", "count"),
    ("completed_share", "share"),
];

/// Event labels whose handlers the traced pass times. These are the
/// labels the benchmark's workloads dispatch; the deepening, local-index
/// and trial strategies (`WaveCheck`, `IndexRefresh`, `TrialExpire`) are
/// not configured by any workload.
pub const LABELS: &[&str] = &[
    "Toggle",
    "IssueQuery",
    "QueryArrive",
    "ReplyArrive",
    "QueryFinalize",
    "InviteArrive",
    "InviteReply",
    "EvictArrive",
    "LinkRequest",
    "LinkAck",
    "Unlink",
];

const LAYER_FIXED: &[(&str, &str)] = &[
    ("harness.build_s", "s"),
    ("harness.prime_s", "s"),
    ("harness.report_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_query", "count"),
    ("sim.peak_pending", "count"),
    ("sim.overflow_share", "share"),
    ("sim.wheel_migrations", "count"),
    ("sim.kernel_self_ns_per_event", "ns"),
    ("sharded.windows", "count"),
    ("sharded.events_per_window", "count"),
    ("sharded.max_window_events", "count"),
    ("sharded.work_s", "s"),
    ("sharded.barrier_s", "s"),
    ("sharded.stall_s", "s"),
    ("sharded.merge_s", "s"),
    ("sharded.busy_share", "share"),
    ("sharded.cross_shard_share", "share"),
    ("sharded.lane_imbalance", "ratio"),
    ("search.duplicate_share", "share"),
    ("search.first_result_hops_mean", "hops"),
    ("first_result.samples", "count"),
    ("update.invites_per_kquery", "count"),
    ("update.invite_accept_share", "share"),
    ("update.evictions_per_kquery", "count"),
    ("update.edges_changed_per_update", "count"),
    ("churn.logins_per_kquery", "count"),
    ("alloc.per_event", "count"),
    ("alloc.bytes_per_event", "B"),
    ("alloc.per_query", "count"),
    ("telemetry.jsonl_trace_overhead_share", "share"),
    ("serve.offered_share", "share"),
    ("serve.issued_share", "share"),
    ("serve.drain_overrun_s", "s"),
    ("serve.duplicate_share", "share"),
    ("serve.inbox_depth_max", "count"),
    ("serve.timer_heap_max", "count"),
    ("trace.overhead_share", "share"),
    ("trace.probe_cost_s", "s"),
];

/// Every per-layer metric, printed by every traced (`--trace 1`) run, with
/// its unit: the fixed list plus three metrics per handler label.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for label in LABELS {
        out.push((format!("gnutella.{label}.events"), "count"));
        out.push((format!("gnutella.{label}.ns_per_event"), "ns"));
        out.push((format!("gnutella.{label}.time_share"), "share"));
    }
    out
}

/// The metrics of one run, in declaration order. A per-layer metric that
/// the workload never sets stays 0: that layer is bypassed by the
/// workload (the sharded kernel on `fig1_paper`, the serve bus on the
/// simulator workloads, and so on), which the run lists on stderr.
#[derive(Debug)]
pub struct MetricSet {
    entries: Vec<(String, &'static str, Option<f64>)>,
    missing_is_zero: bool,
}

impl MetricSet {
    pub fn end_to_end() -> Self {
        MetricSet {
            entries: END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u, None))
                .collect(),
            missing_is_zero: false,
        }
    }

    pub fn per_layer() -> Self {
        MetricSet {
            entries: per_layer().into_iter().map(|(n, u)| (n, u, None)).collect(),
            missing_is_zero: true,
        }
    }

    /// Set a declared metric. Setting an undeclared name is a bug in the
    /// benchmark itself.
    pub fn set(&mut self, name: &str, value: f64) {
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        entry.2 = Some(value);
    }

    /// Render the result line. An end-to-end metric left unset, or any
    /// value that is not finite, is a failed gate.
    pub fn result_line(&self, gates: &mut Gates, attempted: u64, failed: u64) -> String {
        let mut metrics = Vec::with_capacity(self.entries.len());
        let mut unset = Vec::new();
        for (name, unit, value) in &self.entries {
            let v = match value {
                Some(v) => *v,
                None if self.missing_is_zero => {
                    unset.push(name.as_str());
                    0.0
                }
                None => {
                    gates.check(false, || format!("metric {name} was not measured"));
                    0.0
                }
            };
            let v = if gates.check(v.is_finite(), || format!("metric {name} = {v}")) {
                v
            } else {
                0.0
            };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(v)
            ));
        }
        if !unset.is_empty() {
            eprintln!(
                "[benchmark] layers bypassed by this workload report 0: {}",
                unset.join(", ")
            );
        }
        let failed = if gates.failed() {
            failed.max(1)
        } else {
            failed
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            !gates.failed(),
            attempted.max(1),
            failed,
            metrics.join(",")
        )
    }
}

/// A finite f64 as JSON, with every digit Rust's shortest round-trip form
/// keeps.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extract the `"name"` strings of one metric array in BENCHMARK.json.
    fn declared(json: &serde::json::Value, key: &str) -> Vec<String> {
        match json.get(key) {
            Some(serde::json::Value::Arr(items)) => items
                .iter()
                .map(|m| match m.get("name") {
                    Some(serde::json::Value::Str(s)) => s.clone(),
                    other => panic!("{key}: name is {other:?}"),
                })
                .collect(),
            other => panic!("{key} is {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let json = serde::json::parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared(&json, "end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared(&json, "per_layer"), layers);
    }

    #[test]
    fn result_line_marks_unmeasured_end_to_end_metrics_as_failures() {
        let mut m = MetricSet::end_to_end();
        m.set("setup_s", 0.5);
        let mut gates = Gates::default();
        let line = m.result_line(&mut gates, 3, 0);
        assert!(gates.failed());
        assert!(line.starts_with("{\"correct\":false,\"attempted\":3,\"failed\":1,"));
        assert!(line.contains("\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}"));
    }

    #[test]
    fn result_line_is_valid_json_with_every_metric() {
        let mut m = MetricSet::per_layer();
        m.set("sim.events", 12.0);
        let mut gates = Gates::default();
        let line = m.result_line(&mut gates, 1, 0);
        assert!(!gates.failed());
        let v = serde::json::parse(&line).expect("result line parses");
        let metrics = v.get("metrics").expect("metrics key");
        for (name, unit) in per_layer() {
            let entry = metrics
                .get(&name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(entry.get("value").and_then(|x| x.as_f64()).is_some());
            assert_eq!(
                entry.get("unit"),
                Some(&serde::json::Value::Str(unit.to_string()))
            );
        }
    }
}
