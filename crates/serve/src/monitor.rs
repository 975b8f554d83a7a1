//! Live introspection for the serve bus: a monitor thread sampling
//! shared atomic counters into the same `"v":1` timeline format the
//! simulator's metrics layer writes, plus an optional plaintext TCP
//! endpoint serving a Prometheus-style snapshot while the run is live.
//!
//! The instrumentation is strictly *observational*: shards and the load
//! generator bump lock-free atomics on paths they already execute, the
//! monitor thread only reads them, and completed-query outcomes are
//! drained into the same end-of-run report whether the monitor is on or
//! off. `monitor_does_not_perturb_the_report` pins that the monitor's
//! cumulative counters agree exactly with the final [`ServeReport`]
//! fields.

use crate::bus::WallClock;
use ddr_sim::MetricsHub;
use ddr_telemetry::{JsonlMetrics, MetricsRecorder, TelemetryConfig};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Relaxed ordering everywhere: the monitor reports trends, not
/// linearizable cuts; the end-of-run parity check happens after the
/// shard threads are joined (a full synchronization point).
const ORD: Ordering = Ordering::Relaxed;

/// A lock-free log-bucketed latency histogram, bucket geometry shared
/// with `ddr_telemetry::LogHistogram`: bucket `k` covers
/// `[2^(k-1), 2^k)` ms, bucket 0 everything below 1 ms.
#[derive(Debug)]
pub struct AtomicLogHist {
    counts: [AtomicU64; 64],
    total: AtomicU64,
}

impl Default for AtomicLogHist {
    fn default() -> Self {
        AtomicLogHist {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
        }
    }
}

impl AtomicLogHist {
    fn bucket(v: f64) -> usize {
        if v.is_nan() || v < 1.0 {
            return 0;
        }
        let u = if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v as u64
        };
        ((64 - u.leading_zeros()) as usize).min(63)
    }

    /// Record one sample (any thread).
    pub fn record(&self, v: f64) {
        self.counts[Self::bucket(v)].fetch_add(1, ORD);
        self.total.fetch_add(1, ORD);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.total.load(ORD)
    }

    /// Upper bucket edge covering the `q`-quantile; 0 when empty.
    /// Approximate under concurrent writes (counts are read one by one),
    /// which is fine for a rolling dashboard figure.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.total.load(ORD);
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, c) in self.counts.iter().enumerate() {
            seen += c.load(ORD);
            if seen >= rank {
                return if k == 0 { 1.0 } else { (1u64 << k) as f64 };
            }
        }
        (1u64 << 63) as f64
    }
}

/// Counters and levels shared between the bus (writers) and the monitor
/// / TCP endpoint (readers). One instance per run, behind an `Arc`.
#[derive(Debug)]
pub struct MonitorShared {
    /// Per-shard inbox occupancy: +1 just before every channel send (undone
    /// if the send fails), -1 on every receive.
    pub inbox_depth: Vec<AtomicUsize>,
    /// Per-shard timer-heap size, stored by each shard once per loop.
    pub heap_len: Vec<AtomicUsize>,
    /// Envelopes the load generator handed to the bus.
    pub offered: AtomicU64,
    /// Issue messages delivered to nodes.
    pub issued: AtomicU64,
    /// Queries whose collection window closed.
    pub completed: AtomicU64,
    /// Completed queries with at least one result.
    pub hits: AtomicU64,
    /// First-result latency, milliseconds.
    pub latency_ms: AtomicLogHist,
    /// Set by the coordinator once the shards are joined; tells the
    /// monitor and endpoint threads to emit a final window and exit.
    pub done: AtomicBool,
}

impl MonitorShared {
    /// Fresh (all-zero) state for `nshards` shards.
    pub fn new(nshards: usize) -> Self {
        MonitorShared {
            inbox_depth: (0..nshards).map(|_| AtomicUsize::new(0)).collect(),
            heap_len: (0..nshards).map(|_| AtomicUsize::new(0)).collect(),
            offered: AtomicU64::new(0),
            issued: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            latency_ms: AtomicLogHist::default(),
            done: AtomicBool::new(false),
        }
    }

    /// The Prometheus-text exposition of the current state.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::with_capacity(512);
        for (name, v) in [
            ("ddr_serve_queries_offered", self.offered.load(ORD)),
            ("ddr_serve_queries_issued", self.issued.load(ORD)),
            ("ddr_serve_queries_completed", self.completed.load(ORD)),
            ("ddr_serve_hits", self.hits.load(ORD)),
            ("ddr_serve_latency_samples", self.latency_ms.count()),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in [
            ("ddr_serve_latency_p50_ms", self.latency_ms.quantile(0.50)),
            ("ddr_serve_latency_p99_ms", self.latency_ms.quantile(0.99)),
        ] {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        out.push_str("# TYPE ddr_serve_inbox_depth gauge\n");
        for (i, d) in self.inbox_depth.iter().enumerate() {
            out.push_str(&format!(
                "ddr_serve_inbox_depth{{shard=\"{i}\"}} {}\n",
                d.load(ORD)
            ));
        }
        out.push_str("# TYPE ddr_serve_timer_heap gauge\n");
        for (i, d) in self.heap_len.iter().enumerate() {
            out.push_str(&format!(
                "ddr_serve_timer_heap{{shard=\"{i}\"}} {}\n",
                d.load(ORD)
            ));
        }
        out
    }

    /// The live report as a JSON object (the dashboard analogue of the
    /// end-of-run [`crate::ServeReport`]).
    pub fn report_json(&self) -> String {
        let completed = self.completed.load(ORD);
        let hits = self.hits.load(ORD);
        let hit_rate = if completed == 0 {
            0.0
        } else {
            hits as f64 / completed as f64
        };
        let depths: Vec<String> = self
            .inbox_depth
            .iter()
            .map(|d| d.load(ORD).to_string())
            .collect();
        let heaps: Vec<String> = self
            .heap_len
            .iter()
            .map(|d| d.load(ORD).to_string())
            .collect();
        format!(
            "{{\"queries_offered\":{},\"queries_issued\":{},\"queries_completed\":{completed},\
             \"hits\":{hits},\"hit_rate\":{hit_rate},\"p50_first_ms\":{},\"p99_first_ms\":{},\
             \"inbox_depth\":[{}],\"timer_heap\":[{}]}}",
            self.offered.load(ORD),
            self.issued.load(ORD),
            self.latency_ms.quantile(0.50),
            self.latency_ms.quantile(0.99),
            depths.join(","),
            heaps.join(","),
        )
    }
}

/// Spawn the monitor thread: every `interval_ms` of wall time it copies
/// the shared atomics into a `MetricsRecorder` window (cumulative
/// counters are differenced into per-window deltas by the recorder) and
/// appends a timeline record to `telemetry.metrics_path`. After `done`
/// is raised it emits one final window — taken *after* the shard
/// threads joined, so the file's column sums equal the final report —
/// and flushes.
pub(crate) fn spawn_monitor(
    shared: Arc<MonitorShared>,
    clock: Arc<WallClock>,
    telemetry: TelemetryConfig,
    interval_ms: u64,
) -> JoinHandle<u64> {
    thread::spawn(move || {
        let mut rec: MetricsRecorder<JsonlMetrics> = MetricsRecorder::new(&telemetry);
        let interval = interval_ms.max(1);
        let mut prev_completed = 0u64;
        let mut prev_t = clock.now().as_millis();
        let mut next = prev_t + interval;
        loop {
            let finished = shared.done.load(ORD);
            let now = clock.now().as_millis();
            if now >= next || finished {
                let completed = shared.completed.load(ORD);
                let dt_s = (now.saturating_sub(prev_t)).max(1) as f64 / 1_000.0;
                let reg = rec.registry_mut();
                reg.begin_sample();
                reg.counter("queries_offered", shared.offered.load(ORD));
                reg.counter("queries_issued", shared.issued.load(ORD));
                reg.counter("queries_completed", completed);
                reg.counter("hits", shared.hits.load(ORD));
                reg.gauge(
                    "achieved_qps",
                    (completed.saturating_sub(prev_completed)) as f64 / dt_s,
                );
                reg.gauge("latency_count", shared.latency_ms.count() as f64);
                reg.gauge("latency_p50_ms", shared.latency_ms.quantile(0.50));
                reg.gauge("latency_p99_ms", shared.latency_ms.quantile(0.99));
                for (i, d) in shared.inbox_depth.iter().enumerate() {
                    reg.gauge(&format!("inbox_depth.s{i}"), d.load(ORD) as f64);
                }
                for (i, d) in shared.heap_len.iter().enumerate() {
                    reg.gauge(&format!("timer_heap.s{i}"), d.load(ORD) as f64);
                }
                rec.emit_window(now);
                prev_completed = completed;
                prev_t = now;
                next = now + interval;
            }
            if finished {
                break;
            }
            thread::sleep(Duration::from_millis(interval.min(25)));
        }
        rec.finish();
        rec.windows()
    })
}

/// Spawn the `--metrics-port` endpoint: a stdlib TCP listener on
/// `127.0.0.1:port` answering `GET /metrics` with the Prometheus text
/// snapshot and any other path with the live report as JSON. Exits when
/// `done` is raised. A bind failure is reported and tolerated — the run
/// itself must not die because a port is taken.
pub(crate) fn spawn_endpoint(shared: Arc<MonitorShared>, port: u16) -> JoinHandle<()> {
    thread::spawn(move || {
        let listener = match TcpListener::bind(("127.0.0.1", port)) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("[serve] --metrics-port {port}: bind failed ({e}); endpoint disabled");
                return;
            }
        };
        listener
            .set_nonblocking(true)
            .expect("set_nonblocking on metrics listener");
        while !shared.done.load(ORD) {
            match listener.accept() {
                Ok((mut stream, _peer)) => {
                    stream
                        .set_read_timeout(Some(Duration::from_millis(200)))
                        .ok();
                    let mut req = [0u8; 1024];
                    let n = stream.read(&mut req).unwrap_or(0);
                    let head = String::from_utf8_lossy(&req[..n]);
                    let want_prometheus = head
                        .lines()
                        .next()
                        .map(|l| l.contains("/metrics"))
                        .unwrap_or(false);
                    let (ctype, body) = if want_prometheus {
                        ("text/plain; version=0.0.4", shared.prometheus_text())
                    } else {
                        ("application/json", shared.report_json())
                    };
                    let resp = format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    );
                    stream.write_all(resp.as_bytes()).ok();
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(_) => thread::sleep(Duration::from_millis(20)),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_hist_matches_log_histogram_geometry() {
        let h = AtomicLogHist::default();
        let mut reference = ddr_telemetry::LogHistogram::default();
        for v in [0.0, 0.5, 1.0, 3.0, 100.0, 1000.0, 4096.0] {
            h.record(v);
            reference.record(v);
        }
        assert_eq!(h.count(), reference.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(h.quantile(q), reference.quantile(q), "q={q}");
        }
    }

    #[test]
    fn prometheus_and_json_snapshots_render() {
        let s = MonitorShared::new(2);
        s.offered.store(10, ORD);
        s.completed.store(8, ORD);
        s.hits.store(4, ORD);
        s.inbox_depth[1].store(7, ORD);
        s.latency_ms.record(12.0);
        let text = s.prometheus_text();
        assert!(text.contains("ddr_serve_queries_completed 8"));
        assert!(text.contains("ddr_serve_inbox_depth{shard=\"1\"} 7"));
        let json = s.report_json();
        assert!(json.contains("\"hit_rate\":0.5"), "{json}");
        // Both shards appear in the depth arrays.
        assert!(json.contains("\"inbox_depth\":[0,7]"), "{json}");
        serde::json::parse(&json).expect("report JSON parses");
    }

    #[test]
    fn endpoint_serves_both_content_types() {
        let s = Arc::new(MonitorShared::new(1));
        s.completed.store(3, ORD);
        // Pick an ephemeral port by binding first, then freeing it.
        let probe = TcpListener::bind(("127.0.0.1", 0)).expect("probe bind");
        let port = probe.local_addr().expect("probe addr").port();
        drop(probe);
        let handle = spawn_endpoint(Arc::clone(&s), port);
        let fetch = |path: &str| -> String {
            for _ in 0..50 {
                if let Ok(mut c) = std::net::TcpStream::connect(("127.0.0.1", port)) {
                    c.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                        .expect("write request");
                    let mut out = String::new();
                    c.read_to_string(&mut out).expect("read response");
                    return out;
                }
                thread::sleep(Duration::from_millis(10));
            }
            panic!("endpoint never came up on port {port}");
        };
        let prom = fetch("/metrics");
        assert!(prom.contains("ddr_serve_queries_completed 3"), "{prom}");
        let json = fetch("/report");
        assert!(json.contains("\"queries_completed\":3"), "{json}");
        s.done.store(true, ORD);
        handle.join().expect("endpoint thread");
    }
}
