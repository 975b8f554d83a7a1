//! The real-time backend: a sharded in-process message bus driving
//! [`GnutellaNode`]s under wall-clock time and synthetic query load.
//!
//! Architecture:
//!
//! * Nodes are partitioned across `shards` worker threads by
//!   `node_id % shards`; each shard owns its nodes exclusively, so no
//!   node state is ever shared or locked.
//! * Each shard has one bounded [`mpsc::sync_channel`] inbox. A message
//!   carries its *delivery deadline* (`Envelope::at`, wall time since
//!   run start): the sending node's `Transport::send` adds the modelled
//!   network delay, the receiving shard parks the envelope in a local
//!   timer heap and delivers it when the [`WallClock`] catches up — the
//!   exact analogue of the DES calendar queue, with real elapsed time
//!   as the event clock.
//! * Cross-shard sends use `try_send`; a full inbox spills into the
//!   sender's outbox for retry instead of blocking, so two shards
//!   flooding each other cannot deadlock.
//! * A self-pacing load generator on the caller's thread injects
//!   `NodeMsg::Issue` envelopes round-robin at the target rate, then
//!   the shards drain in-flight queries for one collection window
//!   before stopping.
//!
//! Completed-query spans go through `ddr-telemetry`'s `QueryTracer`
//! (one per shard, appending to the shared JSONL file), so
//! `ddr inspect` reads a serve trace exactly like a sim trace.
//! Wall-clock delivery makes run-to-run interleavings — and therefore
//! exact message counts — non-deterministic; see EXPERIMENTS.md
//! "Serve-backend determinism".

use crate::monitor::{spawn_endpoint, spawn_monitor, MonitorShared};
use ddr_core::runtime::{Clock, NodeBehavior, Transport};
use ddr_gnutella::{build_nodes, GnutellaNode, NodeMsg, NodeSetConfig, QueryOutcome};
use ddr_sim::{NodeId, QueryId, SimDuration, SimTime};
use ddr_telemetry::{JsonlSink, NullSink, QueryTracer, TelemetryConfig, TraceOutcome, TraceSink};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::Ordering as AtomicOrd;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Inbox depth per shard. Deep enough that a flood burst (degree ×
/// in-flight queries) never blocks the sender in practice; the outbox
/// retry path covers the pathological case.
const INBOX_DEPTH: usize = 65_536;

/// Extra wall time past the last collection window before shards stop,
/// covering network-delay stragglers still in flight to a finalizer.
const DRAIN_GRACE: SimDuration = SimDuration::from_millis(500);

/// Wall-clock time source for the serve backend, reporting elapsed
/// milliseconds since run start as a [`SimTime`] so node logic sees the
/// same time type under both engines.
#[derive(Debug, Clone)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Start the clock now.
    pub fn start() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    /// Elapsed wall time since start, at millisecond resolution.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_millis(self.start.elapsed().as_millis() as u64)
    }
}

/// Configuration of a serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Fleet shape (size, degree, hops, collection window, seed).
    pub node_set: NodeSetConfig,
    /// Offered load, queries per second across the whole fleet.
    pub qps: f64,
    /// Injection window, wall seconds. Shards keep draining for one
    /// collection window past this before stopping.
    pub duration_s: f64,
    /// Worker-thread count; nodes are owned `node_id % shards`.
    pub shards: usize,
    /// Tracing config (path, sampling, run label) for the traced entry
    /// point; ignored under [`run_gnutella`]'s `NullSink`. When
    /// `telemetry.metrics_path` is set a monitor thread samples the bus
    /// into a timeline file at `monitor_interval_ms`.
    pub telemetry: TelemetryConfig,
    /// When set, a stdlib TCP endpoint on `127.0.0.1:port` serves the
    /// live Prometheus-text snapshot (`/metrics`) and report JSON.
    pub metrics_port: Option<u16>,
    /// Monitor sampling period, wall milliseconds.
    pub monitor_interval_ms: u64,
}

impl ServeConfig {
    /// A serve run over `nodes` nodes at `qps` for `duration_s`, with
    /// `shards` workers and tracing off.
    pub fn new(node_set: NodeSetConfig, qps: f64, duration_s: f64, shards: usize) -> Self {
        ServeConfig {
            node_set,
            qps,
            duration_s,
            shards: shards.max(1),
            telemetry: TelemetryConfig::default(),
            metrics_port: None,
            monitor_interval_ms: 250,
        }
    }
}

/// What a serve run measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    pub nodes: usize,
    pub shards: usize,
    pub offered_qps: f64,
    pub duration_s: f64,
    /// Envelopes the load generator handed to the bus.
    pub queries_offered: u64,
    /// Issue messages actually delivered to nodes.
    pub queries_issued: u64,
    /// Queries whose collection window closed before shutdown.
    pub queries_completed: u64,
    /// Completed queries with at least one result.
    pub hits: u64,
    /// Protocol messages sent by nodes (floods + replies).
    pub messages: u64,
    /// Duplicate floods suppressed.
    pub duplicates: u64,
    /// Wall time from clock start to the last shard stopping.
    pub elapsed_s: f64,
    /// Completed queries over the injection window.
    pub achieved_qps: f64,
    /// `achieved_qps / shards` — the per-core throughput figure.
    pub qps_per_core: f64,
    /// `hits / queries_completed`.
    pub hit_rate: f64,
    pub p50_first_ms: Option<f64>,
    pub p99_first_ms: Option<f64>,
}

/// A routed message with its wall-clock delivery deadline.
#[derive(Debug, Clone, Copy)]
struct Envelope {
    at: SimTime,
    to: NodeId,
    from: NodeId,
    msg: NodeMsg,
}

/// Heap entry: earliest `(at, seq)` first (reversed for `BinaryHeap`);
/// `seq` is assigned by the owning shard so same-instant deliveries
/// stay FIFO, matching the DES kernel's tie-break contract.
struct Due {
    at: SimTime,
    seq: u64,
    env: Envelope,
}

impl PartialEq for Due {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Due {}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Due {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// `Clock`/`Transport` context handed to a node while it handles one
/// message. Sends are *staged* (the node holds `&mut self` while the
/// shard owns the routing tables) and routed by the shard afterwards.
struct ShardCtx<'a> {
    now: SimTime,
    me: NodeId,
    staged: &'a mut Vec<Envelope>,
}

impl Clock<NodeMsg> for ShardCtx<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_after(&mut self, delay: SimDuration, msg: NodeMsg) {
        let me = self.me;
        self.staged.push(Envelope {
            at: self.now + delay,
            to: me,
            from: me,
            msg,
        });
    }

    fn schedule_at(&mut self, at: SimTime, msg: NodeMsg) {
        let me = self.me;
        self.staged.push(Envelope {
            at: at.max(self.now),
            to: me,
            from: me,
            msg,
        });
    }
}

impl Transport<NodeMsg> for ShardCtx<'_> {
    fn send(&mut self, to: NodeId, delay: SimDuration, msg: NodeMsg) {
        let from = self.me;
        self.staged.push(Envelope {
            at: self.now + delay,
            to,
            from,
            msg,
        });
    }
}

/// Aggregates a shard hands back when it stops.
struct ShardResult {
    queries_issued: u64,
    messages: u64,
    duplicates: u64,
    outcomes: Vec<QueryOutcome>,
}

struct Shard {
    index: usize,
    nshards: usize,
    /// Nodes this shard owns, indexed `global_index / nshards`.
    nodes: Vec<GnutellaNode>,
    heap: BinaryHeap<Due>,
    seq: u64,
    rx: Receiver<Envelope>,
    peers: Vec<SyncSender<Envelope>>,
    /// Cross-shard envelopes bounced by a full inbox, retried each turn.
    outbox: VecDeque<(usize, Envelope)>,
    staged: Vec<Envelope>,
    /// Live-introspection state; `None` keeps every hot-path branch a
    /// predictable not-taken jump.
    monitor: Option<Arc<MonitorShared>>,
    /// Outcomes drained mid-run for the monitor, replayed into the
    /// end-of-run report so monitored and unmonitored runs report the
    /// same fields.
    stash: Vec<QueryOutcome>,
}

impl Shard {
    fn route(&mut self, env: Envelope) {
        let target = env.to.index() % self.nshards;
        if target == self.index {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Due {
                at: env.at,
                seq,
                env,
            });
            return;
        }
        self.forward(target, env);
    }

    /// Hand `env` to shard `target`'s inbox; a full inbox parks it in the
    /// outbox for retry. The monitor's depth gauge is raised *before* the
    /// envelope becomes visible to the receiver (whose [`Self::note_recv`]
    /// lowers it) and lowered again if the send fails, so the gauge never
    /// wraps below zero. `Relaxed` suffices: the channel's send/receive
    /// pairing orders the increment before the receiver's decrement.
    fn forward(&mut self, target: usize, env: Envelope) {
        if let Some(m) = &self.monitor {
            m.inbox_depth[target].fetch_add(1, AtomicOrd::Relaxed);
        }
        if let Err(e) = self.peers[target].try_send(env) {
            if let Some(m) = &self.monitor {
                m.inbox_depth[target].fetch_sub(1, AtomicOrd::Relaxed);
            }
            match e {
                TrySendError::Full(env) => self.outbox.push_back((target, env)),
                // The peer already stopped (drain deadline passed there);
                // the message could never complete a query anyway.
                TrySendError::Disconnected(_) => {}
            }
        }
    }

    fn flush_outbox(&mut self) {
        for _ in 0..self.outbox.len() {
            let (target, env) = self.outbox.pop_front().expect("len-bounded pop");
            self.forward(target, env);
        }
    }

    /// One received envelope's monitor bookkeeping (inbox shrank by one).
    fn note_recv(&self) {
        if let Some(m) = &self.monitor {
            m.inbox_depth[self.index].fetch_sub(1, AtomicOrd::Relaxed);
        }
    }

    /// Drain outcomes the node finished during this delivery into the
    /// stash, feeding the monitor's counters as they happen.
    fn drain_completed(&mut self, local: usize) {
        let Some(m) = self.monitor.clone() else {
            return;
        };
        for done in self.nodes[local].take_completed() {
            m.completed.fetch_add(1, AtomicOrd::Relaxed);
            if let Some((_, at, _)) = done.first {
                m.hits.fetch_add(1, AtomicOrd::Relaxed);
                m.latency_ms
                    .record(at.saturating_since(done.issued_at).as_millis() as f64);
            }
            self.stash.push(done);
        }
    }

    fn deliver(&mut self, env: Envelope, now: SimTime) {
        let local = env.to.index() / self.nshards;
        let mut staged = std::mem::take(&mut self.staged);
        let mut ctx = ShardCtx {
            now,
            me: env.to,
            staged: &mut staged,
        };
        self.nodes[local].on_message(env.from, env.msg, &mut ctx);
        self.staged = staged;
        let drained: Vec<Envelope> = self.staged.drain(..).collect();
        for out in drained {
            self.route(out);
        }
    }

    /// The shard main loop: drain the inbox, deliver due envelopes,
    /// retry bounced sends, sleep until the next deadline. Runs until
    /// the wall clock passes `deadline`.
    fn run(
        mut self,
        clock: Arc<WallClock>,
        deadline: SimTime,
    ) -> (Vec<GnutellaNode>, u64, Vec<QueryOutcome>) {
        let mut delivered_issues = 0u64;
        loop {
            while let Ok(env) = self.rx.try_recv() {
                self.note_recv();
                self.route(env);
            }
            let now = clock.now();
            if now >= deadline {
                break;
            }
            while let Some(top) = self.heap.peek() {
                if top.at > now {
                    break;
                }
                let due = self.heap.pop().expect("peeked entry vanished");
                if matches!(due.env.msg, NodeMsg::Issue { .. }) {
                    delivered_issues += 1;
                    if let Some(m) = &self.monitor {
                        m.issued.fetch_add(1, AtomicOrd::Relaxed);
                    }
                }
                let local = due.env.to.index() / self.nshards;
                self.deliver(due.env, now);
                if self.monitor.is_some() {
                    self.drain_completed(local);
                }
            }
            if let Some(m) = &self.monitor {
                m.heap_len[self.index].store(self.heap.len(), AtomicOrd::Relaxed);
            }
            self.flush_outbox();
            // Sleep until the next timer or the next inbox arrival,
            // capped so the deadline check stays responsive.
            let next_gap = self
                .heap
                .peek()
                .map(|d| d.at.saturating_since(now).as_millis())
                .unwrap_or(u64::MAX)
                .clamp(1, 2);
            match self.rx.recv_timeout(Duration::from_millis(next_gap)) {
                Ok(env) => {
                    self.note_recv();
                    self.route(env);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                // All senders gone: only timers remain, pace manually.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    thread::sleep(Duration::from_millis(1));
                }
            }
        }
        (self.nodes, delivered_issues, self.stash)
    }
}

/// Run the serve bus without tracing.
pub fn run_gnutella(cfg: &ServeConfig) -> ServeReport {
    run_bus::<NullSink>(cfg)
}

/// Run the serve bus, tracing completed query spans to
/// `cfg.telemetry.trace_path` in the same JSONL schema the simulator
/// emits (so `ddr inspect` works unchanged).
pub fn run_gnutella_traced(cfg: &ServeConfig) -> ServeReport {
    run_bus::<JsonlSink>(cfg)
}

fn run_bus<T: TraceSink + Send + 'static>(cfg: &ServeConfig) -> ServeReport {
    let nshards = cfg.shards.clamp(1, cfg.node_set.nodes.max(1));
    let nodes = build_nodes(&cfg.node_set);
    let n = nodes.len();

    let mut txs: Vec<SyncSender<Envelope>> = Vec::with_capacity(nshards);
    let mut rxs: Vec<Receiver<Envelope>> = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        let (tx, rx) = mpsc::sync_channel(INBOX_DEPTH);
        txs.push(tx);
        rxs.push(rx);
    }

    // Partition nodes: shard s owns global indices { i | i % nshards == s },
    // stored in increasing order so local index is i / nshards.
    let mut per_shard: Vec<Vec<GnutellaNode>> = (0..nshards).map(|_| Vec::new()).collect();
    for (i, node) in nodes.into_iter().enumerate() {
        per_shard[i % nshards].push(node);
    }

    let clock = Arc::new(WallClock::start());
    let deadline = SimTime::from_millis((cfg.duration_s * 1_000.0) as u64)
        + cfg.node_set.query_timeout
        + DRAIN_GRACE;

    // Live introspection: shared atomics plus a monitor and/or endpoint
    // thread, only when asked for — otherwise every branch stays `None`.
    let monitor = (cfg.telemetry.metrics_path.is_some() || cfg.metrics_port.is_some())
        .then(|| Arc::new(MonitorShared::new(nshards)));
    let monitor_handle = monitor
        .as_ref()
        .filter(|_| cfg.telemetry.metrics_path.is_some())
        .map(|m| {
            spawn_monitor(
                Arc::clone(m),
                Arc::clone(&clock),
                cfg.telemetry.clone(),
                cfg.monitor_interval_ms,
            )
        });
    let endpoint_handle = match (&monitor, cfg.metrics_port) {
        (Some(m), Some(port)) => Some(spawn_endpoint(Arc::clone(m), port)),
        _ => None,
    };

    let mut handles = Vec::with_capacity(nshards);
    for (index, (owned, rx)) in per_shard.into_iter().zip(rxs).enumerate() {
        let shard = Shard {
            index,
            nshards,
            nodes: owned,
            heap: BinaryHeap::new(),
            seq: 0,
            rx,
            peers: txs.clone(),
            outbox: VecDeque::new(),
            staged: Vec::new(),
            monitor: monitor.clone(),
            stash: Vec::new(),
        };
        let clock = Arc::clone(&clock);
        let telemetry = cfg.telemetry.clone();
        let shared = monitor.clone();
        handles.push(thread::spawn(move || {
            let (mut nodes, delivered_issues, stash) = shard.run(clock, deadline);
            let mut result = ShardResult {
                queries_issued: delivered_issues,
                messages: 0,
                duplicates: 0,
                outcomes: stash,
            };
            let mut tracer: QueryTracer<T> = QueryTracer::new(&telemetry);
            for node in &mut nodes {
                result.messages += node.counters.messages_sent;
                result.duplicates += node.counters.duplicates_dropped;
                for done in node.take_completed() {
                    // Outcomes still parked on the node at shutdown were
                    // never seen by the mid-run drain; count them so the
                    // monitor's totals equal the final report.
                    if let Some(m) = &shared {
                        m.completed.fetch_add(1, AtomicOrd::Relaxed);
                        if let Some((_, at, _)) = done.first {
                            m.hits.fetch_add(1, AtomicOrd::Relaxed);
                            m.latency_ms
                                .record(at.saturating_since(done.issued_at).as_millis() as f64);
                        }
                    }
                    result.outcomes.push(done);
                }
            }
            for done in &result.outcomes {
                trace_outcome(&mut tracer, done);
            }
            result
        }));
    }

    // ---- load generator (caller's thread) --------------------------------
    // Self-pacing: each tick computes how many queries the elapsed time
    // entitles the run to and catches up, so short stalls borrow from
    // the next tick instead of skewing the offered rate.
    let mut offered = 0u64;
    loop {
        let elapsed_s = clock.now().as_millis() as f64 / 1_000.0;
        if elapsed_s >= cfg.duration_s {
            break;
        }
        let target = (elapsed_s * cfg.qps) as u64;
        while offered < target {
            let node = NodeId::from_index((offered % n as u64) as usize);
            let env = Envelope {
                at: clock.now(),
                to: node,
                from: node,
                msg: NodeMsg::Issue {
                    query: QueryId(offered),
                },
            };
            // Count before the send (the receiving shard lowers the depth
            // gauge as soon as it sees the envelope) and undo on failure,
            // so no gauge reading wraps or exceeds the offered count.
            let shard = node.index() % nshards;
            if let Some(m) = &monitor {
                m.offered.fetch_add(1, AtomicOrd::Relaxed);
                m.inbox_depth[shard].fetch_add(1, AtomicOrd::Relaxed);
            }
            if txs[shard].send(env).is_err() {
                if let Some(m) = &monitor {
                    m.offered.fetch_sub(1, AtomicOrd::Relaxed);
                    m.inbox_depth[shard].fetch_sub(1, AtomicOrd::Relaxed);
                }
                break;
            }
            offered += 1;
        }
        thread::sleep(Duration::from_micros(500));
    }
    drop(txs);

    let mut issued = 0u64;
    let mut completed = 0u64;
    let mut hits = 0u64;
    let mut messages = 0u64;
    let mut duplicates = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    for handle in handles {
        let r = handle.join().expect("shard thread panicked");
        issued += r.queries_issued;
        messages += r.messages;
        duplicates += r.duplicates;
        for done in r.outcomes {
            completed += 1;
            if let Some((_, at, _)) = done.first {
                hits += 1;
                latencies.push(at.saturating_since(done.issued_at).as_millis() as f64);
            }
        }
    }
    // All shard threads are joined: the monitor atomics are final. Raise
    // `done` so the monitor emits its closing window (whose column sums
    // now equal this report) and the endpoint stops accepting.
    if let Some(m) = &monitor {
        m.done.store(true, AtomicOrd::Relaxed);
    }
    if let Some(h) = monitor_handle {
        h.join().expect("monitor thread panicked");
    }
    if let Some(h) = endpoint_handle {
        h.join().expect("metrics endpoint thread panicked");
    }

    let elapsed_s = clock.now().as_millis() as f64 / 1_000.0;
    let achieved_qps = if cfg.duration_s > 0.0 {
        completed as f64 / cfg.duration_s
    } else {
        0.0
    };
    let p50 = crate::percentile(&mut latencies, 50.0);
    let p99 = crate::percentile(&mut latencies, 99.0);
    ServeReport {
        nodes: n,
        shards: nshards,
        offered_qps: cfg.qps,
        duration_s: cfg.duration_s,
        queries_offered: offered,
        queries_issued: issued,
        queries_completed: completed,
        hits,
        messages,
        duplicates,
        elapsed_s,
        achieved_qps,
        qps_per_core: achieved_qps / nshards as f64,
        hit_rate: if completed == 0 {
            0.0
        } else {
            hits as f64 / completed as f64
        },
        p50_first_ms: p50,
        p99_first_ms: p99,
    }
}

/// Emit one completed query's span (issue → optional first → end) with
/// the timestamps the node recorded at delivery time. Replaying the
/// span at drain time keeps the tracer single-threaded per shard while
/// preserving wall-accurate latencies.
fn trace_outcome<T: TraceSink>(tracer: &mut QueryTracer<T>, done: &QueryOutcome) {
    if !QueryTracer::<T>::enabled() {
        return;
    }
    tracer.issue(
        done.issued_at,
        done.query,
        done.node,
        done.item.index() as u64,
        done.ttl,
    );
    let outcome = if done.results > 0 {
        TraceOutcome::Hit
    } else {
        TraceOutcome::Miss
    };
    if let Some((from, at, hops)) = done.first {
        let latency = at.saturating_since(done.issued_at).as_millis() as f64;
        tracer.first(at, done.query, from, hops, latency);
    }
    let total = done
        .finished_at
        .saturating_since(done.issued_at)
        .as_millis() as f64;
    tracer.finish(
        done.finished_at,
        done.query,
        outcome,
        done.results as u64,
        total,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(nodes: usize, seed: u64, qps: f64, duration_s: f64, shards: usize) -> ServeConfig {
        let mut node_set = NodeSetConfig::new(nodes, seed);
        // Short collection window so the drain phase stays test-sized.
        node_set.query_timeout = SimDuration::from_millis(300);
        ServeConfig::new(node_set, qps, duration_s, shards)
    }

    #[test]
    fn bus_completes_queries_under_load() {
        let cfg = quick_cfg(64, 11, 400.0, 0.5, 2);
        let r = run_gnutella(&cfg);
        assert_eq!(r.nodes, 64);
        assert_eq!(r.shards, 2);
        assert!(r.queries_offered > 0, "load generator never fired");
        assert!(
            r.queries_completed > 0,
            "no query survived to its collection window"
        );
        // Issues are delivered reliably inside one process.
        assert_eq!(r.queries_issued, r.queries_offered);
        assert!(r.messages > 0);
        assert!(r.hit_rate >= 0.0 && r.hit_rate <= 1.0);
        if r.hits > 0 {
            let p50 = r.p50_first_ms.expect("hits imply latency samples");
            let p99 = r.p99_first_ms.expect("hits imply latency samples");
            assert!(p50 <= p99);
        }
    }

    #[test]
    fn traced_bus_writes_inspectable_spans() {
        let dir = std::env::temp_dir().join(format!("ddr-serve-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("serve.jsonl");
        let mut cfg = quick_cfg(48, 5, 300.0, 0.4, 2);
        cfg.telemetry = TelemetryConfig {
            trace_path: Some(path.clone()),
            sample: 1,
            run_label: "ServeSmoke",
            ..TelemetryConfig::default()
        };
        let r = run_gnutella_traced(&cfg);
        assert!(r.queries_completed > 0);
        let summary = ddr_telemetry::summarize_file(&path).expect("trace must parse");
        assert_eq!(
            summary.spans, r.queries_completed,
            "one span per completed query"
        );
        assert!(summary.is_complete(), "every serve span must be closed");
        std::fs::remove_file(&path).ok();
    }

    /// The monitor thread is purely observational: its cumulative
    /// counters must agree exactly with the end-of-run report, and the
    /// timeline file's per-window deltas must sum back to those same
    /// totals — i.e. turning the monitor on changes what is *written*,
    /// never what is *reported*.
    #[test]
    fn monitor_does_not_perturb_the_report() {
        let dir = std::env::temp_dir().join(format!("ddr-serve-mon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("timeline.jsonl");
        let mut cfg = quick_cfg(48, 7, 300.0, 0.4, 2);
        cfg.telemetry.metrics_path = Some(path.clone());
        cfg.monitor_interval_ms = 50;
        let r = run_gnutella(&cfg);
        assert!(r.queries_completed > 0, "run produced no completions");

        let text = std::fs::read_to_string(&path).expect("timeline file written");
        let mut sum_completed = 0u64;
        let mut sum_hits = 0u64;
        let mut sum_offered = 0u64;
        let mut windows = 0u64;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = serde::json::parse(line).expect("window record parses");
            let counters = v.get("counters").expect("counters object");
            let num = |k: &str| counters.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
            sum_completed += num("queries_completed");
            sum_hits += num("hits");
            sum_offered += num("queries_offered");
            windows += 1;
        }
        assert!(windows >= 2, "expected several windows, got {windows}");
        assert_eq!(sum_completed, r.queries_completed, "completed parity");
        assert_eq!(sum_hits, r.hits, "hits parity");
        assert_eq!(sum_offered, r.queries_offered, "offered parity");
        // The report's derived fields are internally consistent — the
        // monitor did not leak into their computation.
        assert!((r.achieved_qps - r.queries_completed as f64 / r.duration_s).abs() < 1e-9);
        if r.queries_completed > 0 {
            assert!((r.hit_rate - r.hits as f64 / r.queries_completed as f64).abs() < 1e-9);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Per window of a monitored run's timeline: the cumulative
    /// `queries_offered` counter and the largest `inbox_depth.s*` gauge.
    fn offered_and_depth_per_window(path: &std::path::Path) -> Vec<(u64, f64)> {
        let text = std::fs::read_to_string(path).expect("timeline file written");
        let mut offered = 0u64;
        let mut out = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = serde::json::parse(line).expect("window record parses");
            let counters = v.get("counters").expect("counters object");
            offered += counters
                .get("queries_offered")
                .and_then(|x| x.as_f64())
                .unwrap_or(0.0) as u64;
            let serde::json::Value::Obj(gauges) = v.get("gauges").expect("gauges object") else {
                panic!("gauges is not an object: {line}");
            };
            let depth = gauges
                .iter()
                .filter(|(k, _)| k.starts_with("inbox_depth.s"))
                .filter_map(|(_, g)| g.as_f64())
                .fold(0.0, f64::max);
            out.push((offered, depth));
        }
        out
    }

    /// The inbox-depth gauges count envelopes on their way into a shard.
    /// With one shard every channel message is a generator `Issue`, so no
    /// sample may exceed the queries offered so far. The bound for a
    /// window is the offered count of the *next* window, because the
    /// monitor reads the counter before the gauges. A count raised after
    /// the send can lose the race to the receiver's decrement and wrap
    /// the gauge to ~2^64; with several shards the cross-shard sends
    /// take that path too, bounded by every envelope the run put on a
    /// channel.
    #[test]
    fn inbox_depth_gauges_never_exceed_what_was_sent() {
        let dir = std::env::temp_dir().join(format!("ddr-serve-depth-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");

        // One shard offered far more than it can serve: its inbox backs up.
        let path = dir.join("one-shard.jsonl");
        let mut cfg = quick_cfg(400, 9, 20_000.0, 0.5, 1);
        cfg.telemetry.metrics_path = Some(path.clone());
        cfg.monitor_interval_ms = 2;
        let r = run_gnutella(&cfg);
        let windows = offered_and_depth_per_window(&path);
        assert!(windows.len() >= 10, "expected many windows");
        for (i, &(_, depth)) in windows.iter().enumerate() {
            let bound = windows.get(i + 1).map_or(r.queries_offered, |w| w.0);
            assert!(
                depth <= bound as f64,
                "window {i}: inbox depth {depth} above the {bound} queries offered"
            );
        }
        assert!(
            windows.iter().any(|&(_, depth)| depth > 0.0),
            "the shard never fell behind; the test saturates nothing"
        );

        // Two shards: cross-shard floods go through `forward` too.
        let path = dir.join("two-shards.jsonl");
        let mut cfg = quick_cfg(400, 9, 4_000.0, 0.5, 2);
        cfg.telemetry.metrics_path = Some(path.clone());
        cfg.monitor_interval_ms = 2;
        let r = run_gnutella(&cfg);
        let sent = (r.queries_offered + r.messages) as f64;
        for (i, &(_, depth)) in offered_and_depth_per_window(&path).iter().enumerate() {
            assert!(
                depth <= sent,
                "window {i}: inbox depth {depth} above the {sent} envelopes sent"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_shard_degenerate_case_works() {
        let cfg = quick_cfg(16, 3, 150.0, 0.3, 1);
        let r = run_gnutella(&cfg);
        assert_eq!(r.shards, 1);
        assert!(r.queries_completed > 0);
    }
}
