//! The three benchmark workloads and the `(config, seed)` run lists they
//! expand to.
//!
//! A workload is a fixed list of configurations; a workload seed turns it
//! into a list of `(config, seed)` runs, with each run's seed derived from
//! the workload seed by [`SimRng::split_index`]. The simulator only ever
//! sees the generated list.

use lockgran_core::{ConflictMode, HierarchySpec, ModelConfig};
use lockgran_sim::SimRng;
use lockgran_workload::{Placement, SizeDistribution};

/// One named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Probabilistic conflicts over the paper's figure grid.
    PaperGrid,
    /// Conservative lock tables (explicit and hierarchical) at MPL 200.
    LocktableChurn,
    /// The two 10⁷-entity / 10⁵-transaction capacity points.
    Capacity,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::LocktableChurn,
        Workload::Capacity,
    ];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::LocktableChurn => "locktable_churn",
            Workload::Capacity => "capacity",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large the generated runs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured size.
    Full,
    /// Short horizons and a shrunken capacity point, for the benchmark's
    /// own tests.
    Small,
}

/// One simulation run of a workload.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Index of the run's configuration in the workload's config list.
    pub config: usize,
    /// The configuration.
    pub cfg: ModelConfig,
    /// The run's seed.
    pub seed: u64,
}

/// A workload expanded for one workload seed.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload's distinct configurations (set-up is timed on these).
    pub configs: Vec<ModelConfig>,
    /// Human-readable label per configuration.
    pub labels: Vec<String>,
    /// The runs, in execution order.
    pub runs: Vec<RunSpec>,
    /// Pairs of run indices whose simulated statistics must be identical
    /// (explicit vs hierarchical-without-escalation on the same seed).
    pub identical_pairs: Vec<(usize, usize)>,
}

impl Plan {
    /// Expand `workload` for `seed` at `size`.
    pub fn new(workload: Workload, seed: u64, size: Size) -> Plan {
        let small = size == Size::Small;
        let (configs, labels, seeds_per_config) = match workload {
            Workload::PaperGrid => paper_grid(small),
            Workload::LocktableChurn => locktable_churn(small),
            Workload::Capacity => capacity(small),
        };
        // Run k of the list uses seed k of the workload stream; configs
        // interleave within each round, so one round covers every
        // configuration once.
        let root = SimRng::new(seed);
        let mut runs = Vec::new();
        let mut identical_pairs = Vec::new();
        for _ in 0..seeds_per_config {
            let first = runs.len();
            for (i, cfg) in configs.iter().enumerate() {
                runs.push(RunSpec {
                    config: i,
                    cfg: cfg.clone(),
                    seed: root.split_index(runs.len() as u64).seed(),
                });
            }
            if workload == Workload::LocktableChurn {
                // Configs 0 and 1 differ only in explicit vs
                // hierarchical-never-escalate, and run on one seed.
                runs[first + 1].seed = runs[first].seed;
                identical_pairs.push((first, first + 1));
            }
        }
        Plan {
            configs,
            labels,
            runs,
            identical_pairs,
        }
    }
}

type Configs = (Vec<ModelConfig>, Vec<String>, u64);

/// Table 1 / fig 2, 9, 10, 12 corners × placement × granularity, under
/// the paper's probabilistic conflict model.
fn paper_grid(small: bool) -> Configs {
    let tmax = if small { 200.0 } else { 4_000.0 };
    let mut configs = Vec::new();
    let mut labels = Vec::new();
    for (npros, ntrans, maxtransize) in [(10, 10, 500), (30, 10, 500), (20, 200, 500), (10, 10, 50)]
    {
        for placement in Placement::ALL {
            for ltot in [1, 10, 100, 1_000, 5_000] {
                configs.push(
                    ModelConfig::table1()
                        .with_npros(npros)
                        .with_ntrans(ntrans)
                        .with_maxtransize(maxtransize)
                        .with_placement(placement)
                        .with_ltot(ltot)
                        .with_tmax(tmax),
                );
                labels.push(format!(
                    "prob npros={npros} ntrans={ntrans} max={maxtransize} {} ltot={ltot}",
                    placement.name()
                ));
            }
        }
    }
    (configs, labels, 1)
}

/// Conservative lock tables at `ntrans = 200`, `ltot = dbsize = 5000`.
fn locktable_churn(small: bool) -> Configs {
    let tmax = if small { 200.0 } else { 2_000.0 };
    let base = ModelConfig::table1()
        .with_ntrans(200)
        .with_ltot(5_000)
        .with_tmax(tmax);
    let random_small = base
        .clone()
        .with_placement(Placement::Random)
        .with_size(SizeDistribution::Uniform { max: 20 });
    let hier = |threshold| {
        Some(
            HierarchySpec::default()
                .with_areas(50)
                .with_escalation_threshold(threshold),
        )
    };
    let configs = vec![
        random_small.clone().with_conflict(ConflictMode::Explicit),
        random_small
            .with_conflict(ConflictMode::Hierarchical)
            .with_hierarchy(hier(None)),
        base.with_placement(Placement::Best)
            .with_size(SizeDistribution::Uniform { max: 200 })
            .with_conflict(ConflictMode::Hierarchical)
            .with_hierarchy(hier(Some(16))),
    ];
    let labels = vec![
        "explicit random U(1,20)".to_string(),
        "hierarchical 50 areas no-escalation random U(1,20)".to_string(),
        "hierarchical 50 areas escalation 16 best U(1,200)".to_string(),
    ];
    (configs, labels, if small { 1 } else { 8 })
}

/// The two `bench_capacity` points: `dbsize = 10⁷`, `ntrans = 10⁵`, MPL
/// 64, `ltot = 10⁴` (a shrunken copy under [`Size::Small`]).
fn capacity(small: bool) -> Configs {
    let (dbsize, ntrans, ltot, max_prob, max_hier, tmax) = if small {
        (100_000, 2_000, 1_000, 10_000, 500, 2_500.0)
    } else {
        (10_000_000, 100_000, 10_000, 100_000, 2_000, 110_000.0)
    };
    let base = ModelConfig::table1()
        .with_ltot(ltot)
        .with_ntrans(ntrans)
        .with_mpl_limit(Some(64))
        .with_tmax(tmax);
    let prob = ModelConfig {
        dbsize,
        ..base
            .clone()
            .with_placement(Placement::Random)
            .with_size(SizeDistribution::Uniform { max: max_prob })
    };
    let hier = ModelConfig {
        dbsize,
        ..base
            .with_size(SizeDistribution::Uniform { max: max_hier })
            .with_conflict(ConflictMode::Hierarchical)
            .with_hierarchy(Some(
                HierarchySpec::default()
                    .with_areas(100)
                    .with_escalation_threshold(Some(64)),
            ))
    };
    (
        vec![prob, hier],
        vec![
            "capacity probabilistic random U(1,1e5)".to_string(),
            "capacity hierarchical 100 areas escalation 64".to_string(),
        ],
        if small { 1 } else { 8 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_config_validates_and_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            for size in [Size::Small, Size::Full] {
                let plan = Plan::new(w, 7, size);
                assert_eq!(plan.configs.len(), plan.labels.len());
                for c in &plan.configs {
                    c.validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn same_seed_same_runs() {
        for w in Workload::ALL {
            let a = Plan::new(w, 3, Size::Full);
            let b = Plan::new(w, 3, Size::Full);
            let c = Plan::new(w, 4, Size::Full);
            let seeds = |p: &Plan| p.runs.iter().map(|r| r.seed).collect::<Vec<_>>();
            assert_eq!(seeds(&a), seeds(&b));
            assert_ne!(seeds(&a), seeds(&c));
        }
    }
}
