//! The experiment registry: every figure, evaluation and ablation is a
//! named [`Experiment`] the `ddr` CLI (and the tests) can enumerate and
//! run.

use crate::emit::Emitter;
use crate::opts::ExpOptions;

/// One registered experiment: a name, a one-line description, and the
/// function that runs it against shared options and an output emitter.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Registry key (the name `ddr run` takes).
    pub name: &'static str,
    /// One-line description shown by `ddr list`.
    pub description: &'static str,
    /// Entry point.
    pub run: fn(&ExpOptions, &mut Emitter),
    /// Whether the experiment runs on the conservative sharded kernel
    /// and honours `--shards N`. The `ddr run` subcommand rejects
    /// `--shards` for experiments that don't (exit 2): silently ignoring
    /// the flag would let a typo masquerade as a parallel run.
    pub shardable: bool,
}

/// Every experiment, in presentation order (paper figures first, then
/// case-study evaluations, ablations and diagnostics, then the umbrella
/// run and the sharded-kernel scaling curve).
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "fig1",
            description: "Figure 1: hits & messages per hour, static vs dynamic, hops=2",
            run: crate::exps::fig1::run,
            shardable: false,
        },
        Experiment {
            name: "fig1_dynamic",
            description: "Figure 1 dynamic half on the sharded kernel (--shards N, digest-pinned)",
            run: crate::exps::fig1_dynamic::run,
            shardable: true,
        },
        Experiment {
            name: "fig2",
            description: "Figure 2: hits & messages per hour, static vs dynamic, hops=4",
            run: crate::exps::fig2::run,
            shardable: false,
        },
        Experiment {
            name: "fig3a",
            description: "Figure 3(a): first-result delay and total results vs hop limit",
            run: crate::exps::fig3a::run,
            shardable: false,
        },
        Experiment {
            name: "fig3b",
            description: "Figure 3(b): total hits vs reconfiguration threshold K",
            run: crate::exps::fig3b::run,
            shardable: false,
        },
        Experiment {
            name: "fig3b_ablation",
            description: "Fig 3(b) mechanism ablation: adaptation channels vs K-sensitivity",
            run: crate::exps::fig3b_ablation::run,
            shardable: false,
        },
        Experiment {
            name: "webcache_eval",
            description: "Case study 2: cooperative web caching, static vs dynamic",
            run: crate::exps::webcache_eval::run,
            shardable: false,
        },
        Experiment {
            name: "peerolap_eval",
            description: "Case study 3: PeerOlap distributed OLAP caching, static vs dynamic",
            run: crate::exps::peerolap_eval::run,
            shardable: false,
        },
        Experiment {
            name: "ablations",
            description: "Design-choice ablations over the framework knobs (7 suites)",
            run: crate::exps::ablations::run,
            shardable: false,
        },
        Experiment {
            name: "strategies",
            description: "Search-cost techniques: BFS vs iterative deepening vs local indices",
            run: crate::exps::strategies::run,
            shardable: false,
        },
        Experiment {
            name: "diag",
            description: "Overlay diagnostics: clustering strength, statistics coverage",
            run: crate::exps::diag::run,
            shardable: false,
        },
        Experiment {
            name: "fairness",
            description: "Serving-load distribution and free-rider isolation",
            run: crate::exps::fairness::run,
            shardable: false,
        },
        Experiment {
            name: "flash_crowd",
            description:
                "Scenario pack: Zipf spike on one genre (ramp/hold/decay), invariant-checked",
            run: crate::exps::flash_crowd::run,
            shardable: true,
        },
        Experiment {
            name: "partition_heal",
            description:
                "Scenario pack: regional partition into islands, then heal; isolation proof",
            run: crate::exps::partition_heal::run,
            shardable: true,
        },
        Experiment {
            name: "heavy_churn",
            description: "Scenario pack: Pareto session/offline times at fixed means",
            run: crate::exps::heavy_churn::run,
            shardable: true,
        },
        Experiment {
            name: "free_riders",
            description: "Scenario pack: query-only nodes + liars advertising content they refuse",
            run: crate::exps::free_riders::run,
            shardable: true,
        },
        Experiment {
            name: "bandwidth_eras",
            description: "Scenario pack: dial-up-heavy vs fiber-heavy access-link censuses",
            run: crate::exps::bandwidth_eras::run,
            shardable: true,
        },
        Experiment {
            name: "exploration_sweep",
            description: "Exploration-frequency sweep on the web-cache case study",
            run: crate::exps::exploration_sweep::run,
            shardable: false,
        },
        Experiment {
            name: "all_experiments",
            description: "Every paper experiment plus both case studies (EXPERIMENTS.md source)",
            run: crate::exps::all_experiments::run,
            shardable: false,
        },
        Experiment {
            name: "shard_scaling",
            description: "Parallel sharded kernel: 1->N shard throughput curve with parity check",
            run: crate::exps::shard_scaling::run,
            shardable: true,
        },
    ]
}

/// Look up one experiment by name.
pub fn find(name: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_nonempty() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate experiment name");
        assert!(names.iter().all(|n| !n.is_empty()));
        assert!(registry().iter().all(|e| !e.description.is_empty()));
    }

    #[test]
    fn find_resolves_known_and_rejects_unknown() {
        assert!(find("fig1").is_some());
        assert!(find("shard_scaling").is_some());
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn exactly_the_sharded_kernel_experiments_are_shardable() {
        let shardable: Vec<&str> = registry()
            .iter()
            .filter(|e| e.shardable)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            shardable,
            vec![
                "fig1_dynamic",
                "flash_crowd",
                "partition_heal",
                "heavy_churn",
                "free_riders",
                "bandwidth_eras",
                "shard_scaling"
            ]
        );
    }
}
