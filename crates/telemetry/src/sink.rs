//! JSONL sinks: where span and timeline records go.
//!
//! One sink trait serves both record streams. The sink is a *type*
//! parameter of the scenario worlds (spans, through
//! [`crate::QueryTracer`]) and of [`crate::MetricsRecorder`] (timeline
//! windows), defaulting to [`NullSink`]. Monomorphisation makes the
//! off-state free: every tracer and recorder method begins with
//! `if !T::ENABLED { return; }`, which the compiler folds away for
//! `NullSink`, leaving the untraced build byte-for-byte on the same hot
//! path it had before telemetry existed.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A destination for JSONL records: trace spans or timeline windows.
pub trait TraceSink {
    /// Whether this sink records anything. `false` lets the tracer's
    /// guard const-fold every call site to a no-op.
    const ENABLED: bool;

    /// Build the sink writing to `path` (`None` discards). The caller
    /// picks the path: [`crate::QueryTracer`] passes
    /// [`crate::TelemetryConfig::trace_path`], [`crate::MetricsRecorder`]
    /// passes [`crate::TelemetryConfig::metrics_path`].
    fn create(path: Option<&Path>) -> Self;

    /// Accept one complete JSON record (no trailing newline).
    fn write_line(&mut self, line: &str);

    /// Persist anything buffered.
    fn flush(&mut self) {}
}

/// The compile-time-off sink: records nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    fn create(_path: Option<&Path>) -> Self {
        NullSink
    }

    fn write_line(&mut self, _line: &str) {}
}

/// Paths some `JsonlSink` has already written to in this process. The
/// first flush to a path truncates it; later flushes (same world growing
/// its trace, or the parallel sweep's other worlds sharing one file)
/// append. The lock is held across the file write so concurrently
/// flushed buffers never interleave mid-line.
static OPENED: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Drain `buf` into the JSONL file at `path` with truncate-once-then-
/// append semantics: the first writer of a path this process sees
/// truncates stale content, later writers append, so a file survives
/// multiple worlds or chunks in one process but never keeps content
/// from a previous run.
fn flush_jsonl(path: &PathBuf, buf: &mut String) {
    if buf.is_empty() {
        return;
    }
    let mut opened = OPENED.lock().unwrap_or_else(|e| e.into_inner());
    let fresh = !opened.iter().any(|p| p == path);
    let result = if fresh {
        opened.push(path.clone());
        std::fs::write(path, buf.as_bytes())
    } else {
        std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(buf.as_bytes()))
    };
    if let Err(e) = result {
        eprintln!("[telemetry] cannot write {}: {e}", path.display());
    }
    buf.clear();
}

/// A buffered JSONL file sink. Worlds run on sweep worker threads, so
/// records accumulate in memory and reach the file in whole-buffer
/// appends; the buffer drains when it exceeds ~1 MiB and on drop.
#[derive(Debug)]
pub struct JsonlSink {
    path: Option<PathBuf>,
    buf: String,
}

impl TraceSink for JsonlSink {
    const ENABLED: bool = true;

    fn create(path: Option<&Path>) -> Self {
        JsonlSink {
            path: path.map(Path::to_path_buf),
            buf: String::new(),
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.path.is_none() {
            return;
        }
        self.buf.push_str(line);
        self.buf.push('\n');
        if self.buf.len() >= 1 << 20 {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let Some(path) = &self.path else {
            return;
        };
        flush_jsonl(path, &mut self.buf);
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ddr_sink_{}_{name}.jsonl", std::process::id()))
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!NullSink::ENABLED) };
        let mut s = NullSink::create(None);
        s.write_line("{}");
        s.flush();
    }

    #[test]
    fn jsonl_sink_truncates_then_appends() {
        let path = tmp("trunc");
        std::fs::write(&path, "stale\n").unwrap();
        let mut a = JsonlSink::create(Some(&path));
        a.write_line("{\"a\":1}");
        a.flush();
        let mut b = JsonlSink::create(Some(&path));
        b.write_line("{\"b\":2}");
        drop(b); // drop flushes
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n", "stale content must go");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pathless_jsonl_sink_discards() {
        let mut s = JsonlSink::create(None);
        s.write_line("{\"x\":1}");
        s.flush();
        assert!(s.buf.is_empty());
    }
}
