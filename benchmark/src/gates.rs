//! Correctness gates. Every run checks the program's outputs; any failed
//! gate marks the run incorrect, counts in `completed_share` and makes the
//! command exit non-zero.

use ddr_serve::ServeReport;

/// The failures collected during one run.
#[derive(Debug, Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    /// Record `what` as failed unless `ok`. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    /// Record a `Result` from a program-side checker.
    pub fn check_result(&mut self, what: &str, result: Result<(), String>) -> bool {
        let ok = result.is_ok();
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
        ok
    }

    /// Two report digests that the program promises are equal.
    pub fn same_digest(&mut self, what: &str, expected: u64, got: u64) -> bool {
        self.check(expected == got, || {
            format!("{what}: digest {got:#018x} != {expected:#018x}")
        })
    }

    /// Serve-bus accounting: completed ≤ issued ≤ offered, hits ≤
    /// completed, some query completed, and both latency quantiles exist
    /// and are finite.
    pub fn serve_accounting(&mut self, r: &ServeReport) -> bool {
        let mut ok = self.check(r.queries_issued <= r.queries_offered, || {
            format!(
                "serve: issued {} > offered {}",
                r.queries_issued, r.queries_offered
            )
        });
        ok &= self.check(r.queries_completed <= r.queries_issued, || {
            format!(
                "serve: completed {} > issued {}",
                r.queries_completed, r.queries_issued
            )
        });
        ok &= self.check(r.hits <= r.queries_completed, || {
            format!("serve: hits {} > completed {}", r.hits, r.queries_completed)
        });
        ok &= self.check(r.queries_completed > 0, || {
            "serve: no query completed".to_string()
        });
        for (name, q) in [("p50", r.p50_first_ms), ("p99", r.p99_first_ms)] {
            ok &= self.check(q.is_some_and(f64::is_finite), || {
                format!("serve: {name} first-result latency is {q:?}")
            });
        }
        ok
    }

    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The process exit code for these gates.
    pub fn exit_code(&self) -> i32 {
        if self.failed() {
            1
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_report() -> ServeReport {
        ServeReport {
            nodes: 10,
            shards: 2,
            offered_qps: 100.0,
            duration_s: 1.0,
            queries_offered: 100,
            queries_issued: 100,
            queries_completed: 100,
            hits: 60,
            messages: 900,
            duplicates: 40,
            elapsed_s: 2.0,
            achieved_qps: 100.0,
            qps_per_core: 50.0,
            hit_rate: 0.6,
            p50_first_ms: Some(300.0),
            p99_first_ms: Some(900.0),
        }
    }

    #[test]
    fn clean_serve_report_passes() {
        let mut g = Gates::default();
        assert!(g.serve_accounting(&serve_report()));
        assert_eq!(g.exit_code(), 0);
    }

    #[test]
    fn violated_accounting_fails_the_run() {
        let mut r = serve_report();
        r.queries_completed = 101; // more completed than issued
        let mut g = Gates::default();
        assert!(!g.serve_accounting(&r));
        assert_ne!(g.exit_code(), 0);
        assert!(g.failures()[0].contains("completed 101 > issued 100"));

        let mut r = serve_report();
        r.hits = 101;
        r.p99_first_ms = Some(f64::INFINITY);
        let mut g = Gates::default();
        assert!(!g.serve_accounting(&r));
        assert_eq!(g.failures().len(), 2);
    }

    #[test]
    fn tampered_digest_fails_the_run() {
        let mut g = Gates::default();
        assert!(g.same_digest("plain vs traced", 0xfeed, 0xfeed));
        assert!(!g.failed());
        assert!(!g.same_digest("plain vs traced", 0xfeed, 0xfeed ^ 1));
        assert_ne!(g.exit_code(), 0);
    }
}
