//! Shard-scaling curve on the conservative parallel kernel.
//!
//! Runs a synthetic node-local relay world (flat neighbor arena,
//! struct-of-arrays per-node state — the sharded-kernel memory layout at
//! its purest) across a 1→N shard curve and reports events/sec per shard
//! count. Every point is checked bit-identical against the 1-shard
//! serial reference before its timing is reported, so the table cannot
//! silently trade determinism for speed.
//!
//! The world is deliberately *not* the Gnutella case study (that one
//! runs on the sharded kernel via `fig1_dynamic --shards N`; DESIGN.md
//! §12): this is the framework's node model with everything except the
//! kernel stripped away — per-node RNG-free tags, a degree-`D`
//! neighbor table packed into one flat `Vec<u32>` arena per shard, and
//! message delays drawn from the network model's floor upward — so the
//! curve measures the synchronization machinery itself, not protocol
//! cost.

use crate::emit::Emitter;
use crate::opts::ExpOptions;
use ddr_sim::{
    NodeId, Partition, RunOutcome, ShardCtx, ShardWorld, ShardedSimulation, SimDuration, SimTime,
};
use ddr_stats::Table;

/// The kernel's lookahead: the minimum one-way delay of the `ddr-net`
/// LAN latency class (`LatencyParams::lo()`, 10 ms) — the physical
/// quantity that makes conservative windows possible.
const LOOKAHEAD: SimDuration = SimDuration::from_millis(10);

/// Neighbors per node in the synthetic overlay (paper degree is 4; 8
/// keeps the relay fan-out interesting without blowing up the arena).
const DEGREE: usize = 8;

/// splitmix-style mixer: all of the world's "randomness" is a pure
/// function of (seed, node, hop), so every shard layout computes the
/// identical global topology and identical event cascade.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = (a ^ b).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One relayed message. Events carry their destination's global index
/// because the kernel routes on [`NodeId`] but hands the handler only
/// the payload.
#[derive(Clone)]
struct Relay {
    node: u32,
    hops: u8,
    tag: u64,
}

/// One shard's slice of the relay world, laid out struct-of-arrays: the
/// neighbor table is a single flat arena (`local * DEGREE ..`), and the
/// per-node counters/checksums are dense parallel columns — no per-node
/// heap allocations anywhere.
struct RelayWorld {
    base: usize,
    neighbors: Vec<u32>,
    counts: Vec<u64>,
    checksums: Vec<u64>,
}

impl RelayWorld {
    fn for_shard(partition: &Partition, shard: usize, total: usize, seed: u64) -> Self {
        let r = partition.range(shard);
        let mut neighbors = Vec::with_capacity(r.len() * DEGREE);
        for g in r.clone() {
            for j in 0..DEGREE {
                neighbors.push((mix(seed ^ g as u64, j as u64 + 1) % total as u64) as u32);
            }
        }
        RelayWorld {
            base: r.start,
            neighbors,
            counts: vec![0; r.len()],
            checksums: vec![0; r.len()],
        }
    }
}

impl ShardWorld for RelayWorld {
    type Event = Relay;

    fn handle(&mut self, now: SimTime, ev: Relay, ctx: &mut ShardCtx<'_, Relay>) {
        let i = ev.node as usize - self.base;
        self.counts[i] += 1;
        self.checksums[i] = mix(self.checksums[i], mix(now.as_millis(), ev.tag));
        if ev.hops > 0 {
            let t = mix(ev.tag, ev.hops as u64);
            let dest = self.neighbors[i * DEGREE + (t % DEGREE as u64) as usize];
            let delay = LOOKAHEAD + SimDuration::from_millis(t % 23);
            ctx.send(
                NodeId::from_index(dest as usize),
                delay,
                Relay {
                    node: dest,
                    hops: ev.hops - 1,
                    tag: t,
                },
            );
        }
    }
}

/// Build a primed kernel: every node seeds one relay cascade of `hops`
/// forwards, start times staggered over the first 50 ms.
fn build(nodes: usize, shards: usize, hops: u8, seed: u64) -> ShardedSimulation<RelayWorld> {
    let partition = Partition::contiguous(nodes, shards);
    let worlds = (0..partition.shards())
        .map(|s| RelayWorld::for_shard(&partition, s, nodes, seed))
        .collect();
    let mut sim = ShardedSimulation::new(worlds, partition, LOOKAHEAD);
    for g in 0..nodes {
        let tag = mix(seed, g as u64);
        sim.schedule_at(
            SimTime::from_millis(tag % 50),
            NodeId::from_index(g),
            Relay {
                node: g as u32,
                hops,
                tag,
            },
        );
    }
    sim
}

/// Order-sensitive digest of the full world state (every node's count
/// and checksum). Two runs with equal digests dispatched the identical
/// event sequence.
fn digest(sim: &ShardedSimulation<RelayWorld>) -> u64 {
    let mut acc = 0u64;
    for w in sim.worlds() {
        for (&c, &k) in w.counts.iter().zip(&w.checksums) {
            acc = mix(acc, mix(c, k));
        }
    }
    acc
}

/// One timed point on the scaling curve.
struct ShardMeasurement {
    shards: usize,
    events: u64,
    windows: u64,
    wall_seconds: f64,
    digest: u64,
}

impl ShardMeasurement {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds.max(1e-9)
    }
}

/// Run the relay world to exhaustion on `shards` shards (1 ⇒ the serial
/// reference loop, >1 ⇒ one worker thread per shard) and time it.
fn measure(nodes: usize, hops: u8, shards: usize, seed: u64) -> ShardMeasurement {
    let mut sim = build(nodes, shards, hops, seed);
    // run_parallel needs a finite horizon; the cascade dies out after
    // hops * 33 ms, so any large bound is "never".
    let horizon = SimTime::from_hours(1_000_000);
    let start = std::time::Instant::now();
    let outcome = if shards == 1 {
        sim.run(horizon)
    } else {
        sim.run_parallel(horizon, shards)
    };
    let wall_seconds = start.elapsed().as_secs_f64();
    assert_eq!(outcome, RunOutcome::Exhausted, "cascade must drain");
    ShardMeasurement {
        shards,
        events: sim.processed(),
        windows: sim.windows(),
        wall_seconds,
        digest: digest(&sim),
    }
}

/// The shard counts measured for a curve up to `max`: powers of two plus
/// `max` itself (1, 2, 4, …, max).
fn shard_curve(max: usize) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut s = 1;
    while s < max {
        counts.push(s);
        s *= 2;
    }
    counts.push(max);
    counts
}

/// Registry entry point: measure the curve, assert every point
/// bit-identical to the serial reference, and emit the table.
pub fn run(opts: &ExpOptions, em: &mut Emitter) {
    let (nodes, hops) = if opts.smoke {
        (2_000, 8)
    } else {
        ((100_000 / opts.scale as usize).max(1_000), 16)
    };
    let max_shards = opts.shard_count().max(4);
    let seed = opts.seed.unwrap_or(7);

    let mut points = Vec::new();
    for s in shard_curve(max_shards) {
        let m = measure(nodes, hops, s, seed);
        eprintln!(
            "[shard_scaling] shards={:<2} {:>9} events  {:>7.3}s  {:>10.0} ev/s",
            m.shards,
            m.events,
            m.wall_seconds,
            m.events_per_sec()
        );
        points.push(m);
    }
    let base = &points[0];
    for p in &points[1..] {
        assert_eq!(
            p.digest, base.digest,
            "{} shards diverged from serial",
            p.shards
        );
        assert_eq!(p.events, base.events);
    }

    let cores = ddr_sim::default_workers();
    let mut t = Table::new(
        format!(
            "Shard scaling: {nodes} nodes, degree {DEGREE}, {hops} hops, \
             lookahead {} ms ({cores} cores)",
            LOOKAHEAD.as_millis()
        ),
        &["Shards", "events", "windows", "ev/s vs serial"],
    );
    for p in &points {
        t.row(vec![
            format!("{}", p.shards),
            format!("{}", p.events),
            format!("{}", p.windows),
            format!("{:.2}x", p.events_per_sec() / base.events_per_sec()),
        ]);
    }
    em.table(&t);
    em.note(&format!(
        "every point verified bit-identical to the 1-shard serial run \
         (digest {:#018x}); wall-clock speedup requires free cores — \
         this host has {cores} (see EXPERIMENTS.md)",
        base.digest
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_powers_of_two_plus_max() {
        assert_eq!(shard_curve(1), vec![1]);
        assert_eq!(shard_curve(4), vec![1, 2, 4]);
        assert_eq!(shard_curve(6), vec![1, 2, 4, 6]);
    }

    #[test]
    fn every_shard_count_matches_serial_digest() {
        let reference = measure(500, 6, 1, 42);
        for shards in [2, 3, 5] {
            let m = measure(500, 6, shards, 42);
            assert_eq!(m.digest, reference.digest, "x{shards}");
            assert_eq!(m.events, reference.events);
        }
        // 500 seeds × 7 dispatches (hops 6..=0) each.
        assert_eq!(reference.events, 500 * 7);
    }

    #[test]
    fn smoke_run_emits_the_table() {
        let opts = ExpOptions {
            smoke: true,
            shards: Some(2),
            ..ExpOptions::default()
        };
        let mut em = Emitter::capture();
        run(&opts, &mut em);
        let out = em.captured().unwrap();
        assert!(out.contains("Shard scaling"));
        assert!(out.contains("bit-identical"));
    }
}
