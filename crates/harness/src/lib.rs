//! # ddr-harness — one driver loop for every framework instantiation
//!
//! The paper's thesis is that Search / Exploration / Update form a
//! *general* framework instantiated per repository type (§3, §5). This
//! crate is that claim applied to our own simulation stack: every case
//! study (Gnutella music sharing, cooperative web caches, PeerOlap) used
//! to hand-roll the same prime → run → report loop; now each one is a
//! [`Scenario`] implementation and the single generic driver
//! [`run`] / [`run_with_world`] owns the loop (queue sizing, in-place
//! priming, horizon run, outcome check, report extraction).
//!
//! Adding a new instantiation therefore means writing a
//! [`ddr_sim::World`] plus a `Scenario` impl — not a fourth copy of the
//! driver and a fifteenth experiment binary.
//!
//! On top of the driver sits the engine the experiment layer shares:
//! [`Sweep`] / [`run_many`], a deterministic parallel sweep engine —
//! named parameter axes, per-point seed derivation ([`derive_seed`]),
//! fan-out over a shared worker pool with a bounded result channel, and
//! results returned in input order regardless of completion order.

pub mod scenario;
pub mod sweep;

pub use scenario::{run, run_probed, run_sampled, run_with_world, Scenario};
pub use sweep::{default_workers, derive_seed, run_many, Sweep, SweepPoint};
