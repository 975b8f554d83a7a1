//! Clocks, resource readings, order statistics and the benchmark's own
//! in-memory spans.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) of the whole process so far, in seconds. It
/// includes threads that have already exited, so a reading taken after a
/// multi-threaded phase has joined its workers covers their work too.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark builds for), and the clock
    // id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM`), in MiB. Each invocation
/// runs one workload, so this is that workload's peak alone.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Host-wide `(steal, total)` CPU ticks from the first line of
/// `/proc/stat`. Steal is time the hypervisor ran something else while a
/// vCPU of this VM wanted to run; a run with a large steal share was
/// slowed by the host, not by the program.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of a fixed-width histogram (`counts[i]` covers
/// `[i * width, (i + 1) * width)`, `overflow` counts samples past the last
/// bucket), interpolated linearly inside the bucket that holds the rank.
/// `None` when empty or when the rank falls into the overflow.
pub fn histogram_quantile(counts: &[u64], overflow: u64, width: f64, q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum::<u64>() + overflow;
    if total == 0 {
        return None;
    }
    let rank = q * total as f64;
    let mut below = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= rank {
            let into = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
            return Some((i as f64 + into) * width);
        }
        below += c;
    }
    None
}

/// One timed call into the program, recorded by the benchmark around a
/// public function. `parent` is the enclosing span's index.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Spans are kept until [`Spans::write_jsonl`].
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that later spans name as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close a span opened with [`Spans::open`]; returns its seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Run `f` inside a span; returns its result and its seconds.
    pub fn timed<T>(
        &mut self,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, Some(parent));
        let out = f();
        let secs = self.close(id);
        (out, secs)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line, tagged with the run's trace id.
    pub fn write_jsonl(&self, path: &Path, trace: &str) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"trace\":\"{trace}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        // 10 samples in [0, 50), 10 in [50, 100).
        let counts = [10, 10, 0];
        assert_eq!(histogram_quantile(&counts, 0, 50.0, 0.5), Some(50.0));
        assert_eq!(histogram_quantile(&counts, 0, 50.0, 0.75), Some(75.0));
        assert_eq!(histogram_quantile(&counts, 0, 50.0, 0.0), Some(0.0));
        assert_eq!(histogram_quantile(&[0, 0], 0, 50.0, 0.5), None);
        // Overflow counts toward the rank but has no upper edge.
        assert_eq!(histogram_quantile(&counts, 20, 50.0, 0.5), Some(100.0));
        assert_eq!(histogram_quantile(&counts, 20, 50.0, 0.9), None);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_seconds() > before, "{x}");
        assert!(peak_rss_mib() > 0.0);
        let (steal, total) = host_ticks().expect("/proc/stat cpu line");
        assert!(steal <= total && total > 0);
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut spans = Spans::default();
        let root = spans.open("rep", None);
        let (v, secs) = spans.timed(root, "child", || 7);
        spans.close(root);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(spans.spans()[1].parent, Some(root));
        assert!(spans.spans()[0].end_ns >= spans.spans()[1].end_ns);
    }
}
