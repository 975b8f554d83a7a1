//! The benchmark's [`KernelProbe`]: per-label dispatch time and queue
//! samples from the serial kernel, plus a calibration of what the probe's
//! own clock reads cost.

use ddr_sim::{KernelProbe, QueueSample};
use std::hint::black_box;
use std::time::Instant;

/// Per-label dispatch counts and handler nanoseconds.
#[derive(Debug, Default)]
pub struct LabelProbe {
    /// `(label, dispatches, handler ns)`, in first-seen order. The few
    /// labels make a linear scan cheaper than hashing.
    pub labels: Vec<(&'static str, u64, u64)>,
    pub samples: u64,
    /// Sum over samples of `overflow / pending`.
    pub overflow_share_sum: f64,
    /// Cumulative overflow → wheel migrations at the last sample.
    pub migrations: u64,
}

impl KernelProbe for LabelProbe {
    #[inline]
    fn on_dispatch(&mut self, label: &'static str, wall_ns: u64) {
        let slot = match self
            .labels
            .iter()
            .position(|(l, _, _)| std::ptr::eq(*l, label) || *l == label)
        {
            Some(i) => i,
            None => {
                self.labels.push((label, 0, 0));
                self.labels.len() - 1
            }
        };
        let entry = &mut self.labels[slot];
        entry.1 += 1;
        entry.2 += wall_ns;
    }

    fn on_queue_sample(&mut self, s: QueueSample) {
        self.samples += 1;
        if s.pending > 0 {
            self.overflow_share_sum += s.overflow as f64 / s.pending as f64;
        }
        self.migrations = s.migrations;
    }
}

impl LabelProbe {
    pub fn handler_ns(&self) -> u64 {
        self.labels.iter().map(|l| l.2).sum()
    }
}

/// What the probe costs per dispatch on the host running the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCost {
    /// Nanoseconds an empty timed region reads as: the part of the clock
    /// cost that lands inside each measured handler time.
    pub inside_ns: f64,
    /// Nanoseconds the whole probe adds per dispatch: two clock reads, the
    /// elapsed-time conversion and `on_dispatch`.
    pub total_ns: f64,
}

/// Time the probe's per-dispatch pattern with an empty handler, the way
/// `Simulation::run_probed` wraps each `World::handle`. The median of a
/// few rounds damps scheduler noise.
pub fn calibrate() -> ProbeCost {
    const N: u64 = 400_000;
    const LABELS: [&str; 4] = ["A", "B", "C", "D"];
    let mut inside = Vec::new();
    let mut total = Vec::new();
    for _ in 0..5 {
        let mut probe = LabelProbe::default();
        let t0 = Instant::now();
        for i in 0..N {
            let label = black_box(LABELS[(i % 4) as usize]);
            let start = Instant::now();
            probe.on_dispatch(label, start.elapsed().as_nanos() as u64);
        }
        let elapsed = t0.elapsed().as_nanos() as f64;
        black_box(&probe);
        inside.push(probe.handler_ns() as f64 / N as f64);
        total.push(elapsed / N as f64);
    }
    ProbeCost {
        inside_ns: crate::measure::median(&inside),
        total_ns: crate::measure::median(&total),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_groups_by_label() {
        let mut p = LabelProbe::default();
        p.on_dispatch("QueryArrive", 10);
        p.on_dispatch("Toggle", 5);
        p.on_dispatch("QueryArrive", 20);
        assert_eq!(p.labels, vec![("QueryArrive", 2, 30), ("Toggle", 1, 5)]);
        assert_eq!(p.handler_ns(), 35);
        p.on_queue_sample(QueueSample {
            pending: 10,
            overflow: 5,
            occupied_buckets: 3,
            migrations: 7,
        });
        assert_eq!((p.samples, p.overflow_share_sum, p.migrations), (1, 0.5, 7));
    }

    #[test]
    fn calibration_is_positive_and_ordered() {
        let c = calibrate();
        assert!(c.total_ns > 0.0);
        assert!(c.inside_ns >= 0.0 && c.inside_ns <= c.total_ns);
    }
}
