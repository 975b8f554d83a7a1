//! Scenario configuration for the Gnutella case study, defaulting to the
//! paper's §4.2/§4.3 settings.

use ddr_core::benefit::{
    AdvertisedBandwidthBenefit, BenefitFunction, CountBenefit, CumulativeBenefit,
    LatencyAwareBenefit,
};
use ddr_core::{ForwardSelection, InvitationPolicy, ResultScore};
use ddr_net::ClassMix;
use ddr_sim::SimDuration;
use ddr_telemetry::TelemetryConfig;
use ddr_workload::WorkloadConfig;

/// A regional-partition window: for simulated hours `[from_hour, to_hour)`
/// the node population is split into `islands` contiguous index ranges and
/// every message crossing an island boundary is dropped at delivery time —
/// correlated link failure, not independent loss. Outside the window the
/// network heals and traffic flows normally again.
///
/// The gate is a pure function of `(sender, receiver, now, config)`, so it
/// commutes with sharding: the sharded kernel applies it identically and
/// digests stay parity-safe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// Number of islands the population splits into (≥ 2).
    pub islands: usize,
    /// Hour the partition begins.
    pub from_hour: u64,
    /// Hour the partition heals (exclusive).
    pub to_hour: u64,
}

impl PartitionWindow {
    /// The island a node index belongs to: contiguous equal-width ranges,
    /// matching `Partition::contiguous` in the sharded kernel so islands
    /// never straddle a shard boundary ambiguity.
    pub fn island_of(&self, node: usize, users: usize) -> usize {
        debug_assert!(node < users);
        (node * self.islands) / users
    }

    /// Whether the partition is active at millisecond timestamp `now_ms`.
    pub fn active_at_ms(&self, now_ms: u64) -> bool {
        let hour = now_ms / 3_600_000;
        (self.from_hour..self.to_hour).contains(&hour)
    }

    /// Sanity checks against a `users`-node world.
    pub fn validate(&self, users: usize, sim_hours: u64) -> Result<(), String> {
        if self.islands < 2 {
            return Err(format!(
                "partition needs >= 2 islands, got {}",
                self.islands
            ));
        }
        if self.islands > users {
            return Err(format!(
                "more islands ({}) than users ({users})",
                self.islands
            ));
        }
        if self.from_hour >= self.to_hour {
            return Err(format!(
                "partition window [{}, {}) is empty",
                self.from_hour, self.to_hour
            ));
        }
        if self.from_hour >= sim_hours {
            return Err(format!(
                "partition starts at hour {} but the run ends at {sim_hours}",
                self.from_hour
            ));
        }
        Ok(())
    }
}

/// Static baseline vs dynamic (framework) reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Vanilla Gnutella: random neighborhoods, random replacement on
    /// neighbor log-off, no statistics.
    Static,
    /// Algo 5: benefit-driven reconfiguration every `reconfig_threshold`
    /// requests, invitation/eviction protocol, log-off-triggered updates.
    Dynamic,
}

impl Mode {
    /// Label used in result tables ("Gnutella" vs "Dynamic_Gnutella", as
    /// in the paper's figures).
    pub fn label(self) -> &'static str {
        match self {
            Mode::Static => "Gnutella",
            Mode::Dynamic => "Dynamic_Gnutella",
        }
    }
}

/// How the initiator drives the search (paper §2: Yang & Garcia-Molina's
/// techniques "are orthogonal to our methods and can be employed in our
/// framework in order to further reduce the query cost").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Plain BFS flood to `max_hops` — the paper's case study.
    Bfs,
    /// Iterative deepening: successive BFS waves of increasing depth,
    /// stopping at the first wave that returns results. Each wave uses a
    /// fresh wire id (the simple restart variant), so satisfied shallow
    /// queries never pay for the deep flood.
    IterativeDeepening {
        /// Strictly increasing depth schedule (e.g. `[1, 2, 4]`).
        depths: Vec<u8>,
    },
    /// Local indices of radius `r`: every node answers on behalf of all
    /// peers within `r` hops, so queries start with `max_hops - r` TTL and
    /// terminate at the first index hit.
    LocalIndices {
        /// Index radius in hops.
        radius: u8,
    },
}

impl SearchStrategy {
    /// Label for tables.
    pub fn label(&self) -> String {
        match self {
            SearchStrategy::Bfs => "bfs".into(),
            SearchStrategy::IterativeDeepening { depths } => {
                format!("iter-deep{depths:?}")
            }
            SearchStrategy::LocalIndices { radius } => format!("local-idx-r{radius}"),
        }
    }
}

/// Config-friendly benefit-function selector (kept as an enum so the
/// configuration stays `Clone + Send`; resolved to a trait object at
/// world-construction time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BenefitKind {
    /// Σ of per-result scores — the paper's choice.
    #[default]
    Cumulative,
    /// Result count only (ablation).
    Count,
    /// Results per second of observed latency (ablation).
    LatencyAware,
    /// Advertised bandwidth class only (ablation).
    AdvertisedBandwidth,
}

impl BenefitKind {
    /// Materialise the benefit function.
    pub fn build(self) -> Box<dyn BenefitFunction> {
        match self {
            BenefitKind::Cumulative => Box::new(CumulativeBenefit),
            BenefitKind::Count => Box::new(CountBenefit),
            BenefitKind::LatencyAware => Box::new(LatencyAwareBenefit::default()),
            BenefitKind::AdvertisedBandwidth => Box::new(AdvertisedBandwidthBenefit),
        }
    }
}

/// All parameters of one simulation run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// The synthetic workload (users, catalog, churn, query rate).
    pub workload: WorkloadConfig,
    /// Static baseline or dynamic framework.
    pub mode: Mode,
    /// Terminating condition: maximum hops per query (paper: 1–4).
    pub max_hops: u8,
    /// Maximum symmetric neighbors per node (paper: 4).
    pub degree: usize,
    /// Reconfigure after this many issued requests (paper default: 2).
    pub reconfig_threshold: u32,
    /// Maximum neighbor exchanges per reconfiguration ("only one neighbor
    /// is exchanged during each reconfiguration", paper §4.3). `usize::MAX`
    /// disables the cap (full-list replacement, the literal Algo 5
    /// pseudo-code) — an ablation in `ddr-bench` compares the two.
    pub max_swaps_per_reconfig: usize,
    /// How long the initiator collects results before finalising a query.
    pub query_timeout: SimDuration,
    /// Recent-message list capacity (duplicate suppression).
    pub dup_cache_capacity: usize,
    /// Forward-target selection (paper: flood to all neighbors).
    pub forward: ForwardSelection,
    /// Search driver strategy (paper: plain BFS; the alternatives are the
    /// §2 techniques).
    pub strategy: SearchStrategy,
    /// Per-wave collection window for iterative deepening.
    pub wave_timeout: SimDuration,
    /// Rebuild period for local indices (staleness/maintenance model).
    pub index_refresh: SimDuration,
    /// Per-result score (paper: `B / R`).
    pub result_score: ResultScore,
    /// Ranking function for reconfiguration (paper: cumulative).
    pub benefit: BenefitKind,
    /// Invitation handling (paper: always accept).
    pub invitation: InvitationPolicy,
    /// On login, invite the most beneficial *remembered* online nodes
    /// instead of joining purely at random ("infrequent reconfiguration
    /// once the first beneficial neighbors are found" presumes the found
    /// neighborhood survives the user's next session; §4.1's forced
    /// reconfiguration makes login the natural update trigger). Random
    /// join fills whatever the invitations don't.
    pub benefit_join_on_login: bool,
    /// Keep a node's statistics store across its own offline periods
    /// (default `true`: the same user returns with the same static music
    /// preferences, so remembered benefit is still valid). `false` models
    /// a stateless 2003-era client that restarts cold each session
    /// (ablation; see EXPERIMENTS.md's Fig 3(b) discussion).
    pub persist_stats: bool,
    /// Connectivity floor maintained with random links after a
    /// reconfiguration. The paper's dynamic variant regains links only
    /// through invitations, which leaves dynamic nodes running
    /// under-degree during churn — a real part of its message savings —
    /// but a node severed from the overlay can neither search nor be
    /// found. The floor keeps a minimum of random connectivity (default:
    /// half the degree) while invitations fill the rest; `degree` turns
    /// it into vanilla always-reconnect (ablation), `0` is paper-literal.
    pub min_degree_floor: usize,
    /// Simulated horizon in hours (paper: 4 days = 96 h).
    pub sim_hours: u64,
    /// Hour from which metrics count ("results after the 12th hour, when
    /// the system has reached its steady-state").
    pub warmup_hours: u64,
    /// Trigger a reconfiguration when one of the node's neighbors logs
    /// off ("Neighbor log-offs trigger the update process", §4.1).
    /// Disabling it makes the request-count threshold K the *only* update
    /// clock — the ablation that reveals how much of the adaptation rate
    /// is K-independent (see EXPERIMENTS.md's Fig 3(b) discussion).
    pub reconfig_on_neighbor_loss: bool,
    /// Fraction of users who are free-riders (§2: "a peer only requires,
    /// but refuses to provide any content"): they query like everyone
    /// else but never answer. Dynamic reconfiguration should starve them
    /// of neighbors (benefit 0 → evicted) — the `fairness` experiment
    /// measures exactly that.
    pub free_rider_fraction: f64,
    /// Fraction of users who are *liars*: they advertise full content
    /// summaries (so they look attractive to the statistics layer) but,
    /// like free-riders, refuse to serve. Drawn from the non-free-rider
    /// population. The benefit function must learn through observed
    /// answers that the advertisement is hollow — the `free_riders`
    /// scenario asserts it does.
    pub liar_fraction: f64,
    /// Optional regional partition-and-heal window (none in the paper).
    pub partition: Option<PartitionWindow>,
    /// Optional bandwidth-class mix override ("bandwidth eras"); `None`
    /// keeps the paper's uniform split, bit-identical to previous
    /// behaviour.
    pub bandwidth_mix: Option<ClassMix>,
    /// Root seed; a run is a pure function of `(config, seed)`.
    pub seed: u64,
    /// Trace output settings. Only consulted when the world is built with
    /// an enabled sink (`GnutellaWorld<JsonlSink>`); the default
    /// `NullSink` world ignores it entirely.
    pub telemetry: TelemetryConfig,
}

impl ScenarioConfig {
    /// The paper's experimental settings for the given mode and hop limit.
    pub fn paper(mode: Mode, max_hops: u8) -> Self {
        ScenarioConfig {
            workload: WorkloadConfig::paper(),
            mode,
            max_hops,
            degree: 4,
            reconfig_threshold: 2,
            max_swaps_per_reconfig: 1,
            query_timeout: SimDuration::from_secs(5),
            dup_cache_capacity: 4_096,
            forward: ForwardSelection::All,
            strategy: SearchStrategy::Bfs,
            wave_timeout: SimDuration::from_secs(2),
            index_refresh: SimDuration::from_mins(30),
            result_score: ResultScore::BandwidthOverResults,
            benefit: BenefitKind::Cumulative,
            invitation: InvitationPolicy::AlwaysAccept,
            benefit_join_on_login: false,
            persist_stats: true,
            min_degree_floor: 2,
            sim_hours: 96,
            warmup_hours: 12,
            reconfig_on_neighbor_loss: true,
            free_rider_fraction: 0.0,
            liar_fraction: 0.0,
            partition: None,
            bandwidth_mix: None,
            seed: 0xDD_2003,
            telemetry: TelemetryConfig::default(),
        }
    }

    /// A proportionally scaled-down variant for tests and benches (same
    /// densities, `scale`× fewer users/songs, shorter horizon).
    pub fn scaled(mode: Mode, max_hops: u8, scale: u32, sim_hours: u64) -> Self {
        let mut c = ScenarioConfig::paper(mode, max_hops);
        c.workload = ddr_workload::WorkloadConfig::paper_scaled(scale);
        c.sim_hours = sim_hours;
        c.warmup_hours = (sim_hours / 8).max(1);
        c
    }

    /// A large-world capacity configuration: the paper's catalog and
    /// per-user densities (library size, categories, churn, query rate)
    /// with the user count raised to `users` and a short horizon — the
    /// base of the repository benchmark's `churn_sharded` world, which
    /// then shortens sessions.
    /// Unlike [`scaled`](Self::scaled), nothing shrinks: a 100k-user
    /// world carries 50× the paper's population against the same
    /// 200k-song catalog.
    ///
    /// # Panics
    /// Panics if `sim_hours < 2` (warmup needs one hour before it).
    pub fn big_world(mode: Mode, max_hops: u8, users: usize, sim_hours: u64) -> Self {
        assert!(sim_hours >= 2, "capacity runs need warmup + measurement");
        let mut c = ScenarioConfig::paper(mode, max_hops);
        c.workload.users = users;
        c.sim_hours = sim_hours;
        c.warmup_hours = 1;
        c
    }

    /// Validate the configuration, including the workload.
    pub fn validate(&self) -> Result<(), String> {
        self.workload.validate()?;
        if self.max_hops == 0 {
            return Err("max_hops must be >= 1".into());
        }
        if self.degree == 0 {
            return Err("degree must be >= 1".into());
        }
        if self.reconfig_threshold == 0 {
            return Err("reconfig_threshold must be >= 1".into());
        }
        if self.warmup_hours >= self.sim_hours {
            return Err(format!(
                "warmup ({}) must precede the horizon ({})",
                self.warmup_hours, self.sim_hours
            ));
        }
        if self.query_timeout == SimDuration::ZERO {
            return Err("query_timeout must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.free_rider_fraction) {
            return Err("free_rider_fraction out of [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.liar_fraction) {
            return Err("liar_fraction out of [0,1]".into());
        }
        if self.free_rider_fraction + self.liar_fraction > 1.0 {
            return Err(format!(
                "free riders ({}) + liars ({}) exceed the population",
                self.free_rider_fraction, self.liar_fraction
            ));
        }
        if let Some(p) = &self.partition {
            p.validate(self.workload.users, self.sim_hours)?;
        }
        if let Some(mix) = &self.bandwidth_mix {
            mix.validate()?;
        }
        match &self.strategy {
            SearchStrategy::Bfs => {}
            SearchStrategy::IterativeDeepening { depths } => {
                if depths.is_empty() {
                    return Err("iterative deepening needs at least one depth".into());
                }
                if !depths.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("depth schedule must strictly increase: {depths:?}"));
                }
                if self.wave_timeout == SimDuration::ZERO {
                    return Err("wave_timeout must be positive".into());
                }
            }
            SearchStrategy::LocalIndices { radius } => {
                if *radius == 0 {
                    return Err("local-index radius must be >= 1".into());
                }
                if *radius >= self.max_hops {
                    return Err(format!(
                        "index radius ({radius}) must be below max_hops ({})",
                        self.max_hops
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4_3() {
        let c = ScenarioConfig::paper(Mode::Dynamic, 2);
        assert_eq!(c.degree, 4);
        assert_eq!(c.reconfig_threshold, 2);
        assert_eq!(c.max_hops, 2);
        assert_eq!(c.sim_hours, 96);
        assert_eq!(c.warmup_hours, 12);
        assert_eq!(c.forward, ForwardSelection::All);
        assert_eq!(c.result_score, ResultScore::BandwidthOverResults);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(Mode::Static.label(), "Gnutella");
        assert_eq!(Mode::Dynamic.label(), "Dynamic_Gnutella");
    }

    #[test]
    fn scaled_keeps_validity() {
        let c = ScenarioConfig::scaled(Mode::Static, 4, 10, 24);
        assert_eq!(c.workload.users, 200);
        assert_eq!(c.warmup_hours, 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn big_world_keeps_paper_densities() {
        let c = ScenarioConfig::big_world(Mode::Dynamic, 2, 100_000, 2);
        assert_eq!(c.workload.users, 100_000);
        assert_eq!(c.workload.songs, 200_000);
        assert_eq!(c.workload.library_mean, 200.0);
        assert_eq!(c.sim_hours, 2);
        assert_eq!(c.warmup_hours, 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerates() {
        let mut c = ScenarioConfig::paper(Mode::Static, 2);
        c.max_hops = 0;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Static, 2);
        c.warmup_hours = 96;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Static, 2);
        c.reconfig_threshold = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn partition_window_islands_and_activity() {
        let p = PartitionWindow {
            islands: 3,
            from_hour: 2,
            to_hour: 4,
        };
        assert!(p.validate(60, 6).is_ok());
        // Contiguous thirds of a 60-node world.
        assert_eq!(p.island_of(0, 60), 0);
        assert_eq!(p.island_of(19, 60), 0);
        assert_eq!(p.island_of(20, 60), 1);
        assert_eq!(p.island_of(39, 60), 1);
        assert_eq!(p.island_of(40, 60), 2);
        assert_eq!(p.island_of(59, 60), 2);
        // Active exactly over [2h, 4h).
        assert!(!p.active_at_ms(2 * 3_600_000 - 1));
        assert!(p.active_at_ms(2 * 3_600_000));
        assert!(p.active_at_ms(4 * 3_600_000 - 1));
        assert!(!p.active_at_ms(4 * 3_600_000));
    }

    #[test]
    fn validation_rejects_bad_pack_knobs() {
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.liar_fraction = 1.5;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.free_rider_fraction = 0.6;
        c.liar_fraction = 0.6;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.partition = Some(PartitionWindow {
            islands: 1,
            from_hour: 2,
            to_hour: 4,
        });
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.partition = Some(PartitionWindow {
            islands: 3,
            from_hour: 4,
            to_hour: 4,
        });
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.partition = Some(PartitionWindow {
            islands: 3,
            from_hour: 100,
            to_hour: 101,
        });
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.bandwidth_mix = Some(ClassMix {
            modem: 0.9,
            cable: 0.9,
            lan: 0.9,
        });
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::paper(Mode::Dynamic, 2);
        c.liar_fraction = 0.15;
        c.free_rider_fraction = 0.2;
        c.partition = Some(PartitionWindow {
            islands: 3,
            from_hour: 2,
            to_hour: 4,
        });
        c.bandwidth_mix = Some(ClassMix::dialup_era());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn benefit_kinds_materialise() {
        for k in [
            BenefitKind::Cumulative,
            BenefitKind::Count,
            BenefitKind::LatencyAware,
            BenefitKind::AdvertisedBandwidth,
        ] {
            let f = k.build();
            assert!(!f.name().is_empty());
        }
    }
}
