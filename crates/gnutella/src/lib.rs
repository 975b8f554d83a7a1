//! # ddr-gnutella — the paper's case study (§4): adaptive content-sharing
//!
//! A full discrete-event simulation of music sharing among Gnutella
//! end-users, in two modes:
//!
//! * **Static** (the baseline): neighbors are chosen uniformly at random at
//!   login and replaced randomly only when a neighbor logs off — vanilla
//!   Gnutella.
//! * **Dynamic** (the framework instantiation, Algo 5): every node keeps
//!   per-node statistics, scores each obtained result `B / R`, and every
//!   `reconfig_threshold` requests rebuilds its neighborhood from the most
//!   beneficial nodes via the symmetric invitation/eviction protocol.
//!
//! The simulation reproduces all of §4.1's design decisions: symmetric
//! relations, no directory information, combined search + exploration
//! (responders reply straight to the initiator and do not forward),
//! duplicate suppression via recent-message lists, always-accept
//! invitations with least-beneficial eviction, stats reset on eviction,
//! reconfiguration-counter resets to damp cascades, and log-off-triggered
//! updates.
//!
//! Entry point: [`scenario::run_scenario`] — a pure function of
//! [`config::ScenarioConfig`] (including the seed) returning a
//! [`metrics::RunReport`].

pub mod config;
pub mod events;
pub mod hosts;
pub mod invariants;
pub mod metrics;
pub mod node;
pub mod peer;
pub mod scenario;
pub mod sharded;
pub mod world;

pub use config::{BenefitKind, Mode, PartitionWindow, ScenarioConfig};
pub use hosts::HostCache;
pub use invariants::check_invariants;
pub use metrics::{Metrics, RunReport};
pub use node::{build_nodes, GnutellaNode, NodeMsg, NodeSetConfig, QueryOutcome};
pub use scenario::{run_scenario, run_scenario_traced, run_scenario_with_world, GnutellaScenario};
pub use sharded::{
    run_scenario_sharded, run_scenario_sharded_full, run_scenario_sharded_with_worlds,
    ShardedRunStats,
};
pub use world::GnutellaWorld;
