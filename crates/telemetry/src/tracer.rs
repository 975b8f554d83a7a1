//! The query-lifecycle tracer embedded in scenario worlds.
//!
//! A *span* is the life of one query: an `issue` record, any number of
//! `hop` / `dup` records as the query propagates, at most one `first`
//! record (first useful result back at the initiator), optional
//! `relaunch` links (iterative-deepening waves re-issue under a fresh
//! query id), and exactly one terminal `end` record with outcome
//! `hit` / `miss` / `timeout`. All records carry the schema version
//! (`"v":1`), the run label, and the virtual time in ms (`"t"`).
//!
//! Sampling is by query id (`qid % sample == 0`), decided once at issue;
//! every later record checks membership in the live-span set, so an
//! unsampled query costs one hash probe per touch point and writes
//! nothing. With [`NullSink`](crate::NullSink) the `T::ENABLED` guard
//! removes even that.

use crate::config::TelemetryConfig;
use crate::sink::TraceSink;
use ddr_sim::{FastHashSet, NodeId, QueryId, SimTime};
use std::fmt::Write as _;

/// How a traced query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The query was satisfied (at least one result / page / chunk came
    /// from the peer network).
    Hit,
    /// The query fell through to the alternative repository (origin
    /// server, warehouse) or simply found nothing it was allowed to.
    Miss,
    /// The query was cut off: its deadline passed with no result, or its
    /// initiator left the network with the query in flight.
    Timeout,
}

impl TraceOutcome {
    /// The schema string for this outcome.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Hit => "hit",
            TraceOutcome::Miss => "miss",
            TraceOutcome::Timeout => "timeout",
        }
    }
}

/// Per-world span recorder, generic over the sink so the off-state
/// compiles to nothing.
pub struct QueryTracer<T: TraceSink> {
    sink: T,
    sample: u64,
    run: &'static str,
    /// Sampled spans that have not yet seen their terminal record.
    live: FastHashSet<u64>,
    /// Latest virtual time seen (stamps drop-time cut terminals).
    last_t: u64,
    line: String,
}

impl<T: TraceSink> QueryTracer<T> {
    /// Build a tracer (and its sink) from the run's telemetry config.
    pub fn new(cfg: &TelemetryConfig) -> Self {
        QueryTracer {
            sink: T::create(cfg.trace_path.as_deref()),
            sample: cfg.sample_every(),
            run: cfg.run_label,
            live: ddr_sim::hash::fast_set(),
            last_t: 0,
            line: String::new(),
        }
    }

    /// Whether this tracer records anything at all (compile-time).
    #[inline]
    pub fn enabled() -> bool {
        T::ENABLED
    }

    /// The sink, for tests and explicit flushing.
    pub fn sink_mut(&mut self) -> &mut T {
        &mut self.sink
    }

    #[inline]
    fn tracked(&self, q: QueryId) -> bool {
        self.live.contains(&q.0)
    }

    fn emit(&mut self) {
        let line = std::mem::take(&mut self.line);
        self.sink.write_line(&line);
        self.line = line;
        self.line.clear();
    }

    fn head(&mut self, kind: &str, t: SimTime) {
        self.last_t = t.as_millis();
        let run = self.run;
        let t = self.last_t;
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"v\":1,\"type\":\"{kind}\",\"run\":\"{run}\",\"t\":{t}"
        );
    }

    /// A query was issued. Starts a span when the id is sampled.
    #[inline]
    pub fn issue(&mut self, t: SimTime, q: QueryId, node: NodeId, item: u64, ttl: u8) {
        if !T::ENABLED {
            return;
        }
        if !q.0.is_multiple_of(self.sample) {
            return;
        }
        self.live.insert(q.0);
        self.head("issue", t);
        let _ = write!(
            self.line,
            ",\"q\":{},\"node\":{},\"item\":{item},\"ttl\":{ttl}}}",
            q.0,
            node.index()
        );
        self.emit();
    }

    /// The query reached `node` and is being served / forwarded there.
    /// `hops` is the overlay distance travelled so far, `fanout` the
    /// number of neighbors it was forwarded to from here.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn hop(
        &mut self,
        t: SimTime,
        q: QueryId,
        node: NodeId,
        from: NodeId,
        ttl: u8,
        hops: u8,
        fanout: usize,
    ) {
        if !T::ENABLED {
            return;
        }
        if !self.tracked(q) {
            return;
        }
        self.head("hop", t);
        let _ = write!(
            self.line,
            ",\"q\":{},\"node\":{},\"from\":{},\"ttl\":{ttl},\"hops\":{hops},\"fanout\":{fanout}}}",
            q.0,
            node.index(),
            from.index()
        );
        self.emit();
    }

    /// The query arrived at `node` a second time and was dropped.
    #[inline]
    pub fn dup(&mut self, t: SimTime, q: QueryId, node: NodeId) {
        if !T::ENABLED {
            return;
        }
        if !self.tracked(q) {
            return;
        }
        self.head("dup", t);
        let _ = write!(self.line, ",\"q\":{},\"node\":{}}}", q.0, node.index());
        self.emit();
    }

    /// The first useful result reached the initiator.
    #[inline]
    pub fn first(&mut self, t: SimTime, q: QueryId, from: NodeId, hops: u8, latency_ms: f64) {
        if !T::ENABLED {
            return;
        }
        if !self.tracked(q) {
            return;
        }
        self.head("first", t);
        let _ = write!(
            self.line,
            ",\"q\":{},\"from\":{},\"hops\":{hops},\"latency_ms\":{latency_ms:.3}}}",
            q.0,
            from.index()
        );
        self.emit();
    }

    /// An iterative-deepening wave re-issued the query under a new id;
    /// the span continues under `new`.
    #[inline]
    pub fn relaunch(&mut self, t: SimTime, old: QueryId, new: QueryId, wave: u8) {
        if !T::ENABLED {
            return;
        }
        if !self.live.remove(&old.0) {
            return;
        }
        self.live.insert(new.0);
        self.head("relaunch", t);
        let _ = write!(
            self.line,
            ",\"q\":{},\"parent\":{},\"wave\":{wave}}}",
            new.0, old.0
        );
        self.emit();
    }

    /// Terminal record: the span is over.
    #[inline]
    pub fn finish(
        &mut self,
        t: SimTime,
        q: QueryId,
        outcome: TraceOutcome,
        results: u64,
        latency_ms: f64,
    ) {
        if !T::ENABLED {
            return;
        }
        if !self.live.remove(&q.0) {
            return;
        }
        self.head("end", t);
        let _ = write!(
            self.line,
            ",\"q\":{},\"outcome\":\"{}\",\"results\":{results},\"latency_ms\":{latency_ms:.3}}}",
            q.0,
            outcome.as_str()
        );
        self.emit();
    }
}

impl<T: TraceSink> Drop for QueryTracer<T> {
    /// Spans still live when the world is torn down (queries in flight at
    /// the horizon) are closed as timeouts so every sampled span has
    /// exactly one terminal record.
    fn drop(&mut self) {
        if !T::ENABLED || self.live.is_empty() {
            let _ = &mut self.sink; // sink's own Drop/flush still runs
            self.sink.flush();
            return;
        }
        let mut open: Vec<u64> = self.live.drain().collect();
        open.sort_unstable();
        let t = SimTime::from_millis(self.last_t);
        for q in open {
            self.live.insert(q); // finish() checks membership
            self.finish(t, QueryId(q), TraceOutcome::Timeout, 0, -1.0);
        }
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;

    /// In-memory sink for asserting on emitted lines.
    struct VecSink(Vec<String>);
    impl TraceSink for VecSink {
        const ENABLED: bool = true;
        fn create(_path: Option<&std::path::Path>) -> Self {
            VecSink(Vec::new())
        }
        fn write_line(&mut self, line: &str) {
            self.0.push(line.to_string());
        }
    }

    fn cfg(sample: u64) -> TelemetryConfig {
        TelemetryConfig {
            trace_path: None,
            sample,
            run_label: "TestRun",
            ..TelemetryConfig::default()
        }
    }

    #[test]
    fn full_span_emits_parseable_records() {
        let mut tr: QueryTracer<VecSink> = QueryTracer::new(&cfg(1));
        let n = |i: usize| NodeId::from_index(i);
        tr.issue(SimTime::from_millis(10), QueryId(4), n(0), 99, 2);
        tr.hop(SimTime::from_millis(80), QueryId(4), n(1), n(0), 2, 1, 3);
        tr.dup(SimTime::from_millis(90), QueryId(4), n(2));
        tr.first(SimTime::from_millis(150), QueryId(4), n(1), 1, 140.0);
        tr.finish(
            SimTime::from_millis(500),
            QueryId(4),
            TraceOutcome::Hit,
            2,
            140.0,
        );
        let lines = tr.sink_mut().0.clone();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            let v = serde::json::parse(line).expect("record must be valid JSON");
            assert_eq!(v.get("v").and_then(|x| x.as_f64()), Some(1.0));
            assert_eq!(
                v.get("run"),
                Some(&serde::json::Value::Str("TestRun".into()))
            );
        }
        assert!(lines[0].contains("\"type\":\"issue\""));
        assert!(lines[4].contains("\"outcome\":\"hit\""));
    }

    #[test]
    fn sampling_skips_unselected_ids_entirely() {
        let mut tr: QueryTracer<VecSink> = QueryTracer::new(&cfg(10));
        tr.issue(SimTime::ZERO, QueryId(3), NodeId::from_index(0), 1, 2);
        tr.hop(
            SimTime::ZERO,
            QueryId(3),
            NodeId::from_index(1),
            NodeId::from_index(0),
            2,
            1,
            1,
        );
        tr.finish(SimTime::ZERO, QueryId(3), TraceOutcome::Miss, 0, 0.0);
        assert!(tr.sink_mut().0.is_empty(), "qid 3 % 10 != 0 must not trace");
        tr.issue(SimTime::ZERO, QueryId(20), NodeId::from_index(0), 1, 2);
        assert_eq!(tr.sink_mut().0.len(), 1);
    }

    #[test]
    fn relaunch_transfers_span_membership() {
        let mut tr: QueryTracer<VecSink> = QueryTracer::new(&cfg(1));
        tr.issue(SimTime::ZERO, QueryId(0), NodeId::from_index(0), 1, 2);
        tr.relaunch(SimTime::from_millis(5), QueryId(0), QueryId(7), 1);
        // The old id is dead, the new one is live.
        tr.finish(
            SimTime::from_millis(6),
            QueryId(0),
            TraceOutcome::Hit,
            1,
            1.0,
        );
        tr.finish(
            SimTime::from_millis(9),
            QueryId(7),
            TraceOutcome::Timeout,
            0,
            9.0,
        );
        let lines = tr.sink_mut().0.clone();
        assert_eq!(lines.len(), 3, "finish on the dead id must be ignored");
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[2].contains("\"q\":7"));
    }

    #[test]
    fn drop_closes_open_spans_as_timeouts() {
        let mut tr: QueryTracer<VecSink> = QueryTracer::new(&cfg(1));
        tr.issue(
            SimTime::from_millis(42),
            QueryId(0),
            NodeId::from_index(0),
            1,
            2,
        );
        tr.issue(
            SimTime::from_millis(43),
            QueryId(1),
            NodeId::from_index(1),
            1,
            2,
        );
        // Steal the lines through a raw pointer dance is overkill: drop
        // writes into the sink, which we can't read afterwards — so
        // instead verify via the live count before and rely on the
        // integration test (file sink) for the drop-path content.
        assert_eq!(tr.live.len(), 2);
        drop(tr);
    }

    #[test]
    fn null_sink_tracer_tracks_nothing() {
        let mut tr: QueryTracer<NullSink> = QueryTracer::new(&cfg(1));
        tr.issue(SimTime::ZERO, QueryId(0), NodeId::from_index(0), 1, 2);
        assert!(tr.live.is_empty(), "NullSink must keep no span state");
    }
}
