//! Behavioural tests of the admission-control extension (`mpl_limit`).

use lockgran_core::system::System;
use lockgran_core::{sim, ConflictMode, HierarchySpec, ModelConfig};
use lockgran_sim::Executor;
use lockgran_workload::{Placement, SizeDistribution};

fn heavy() -> ModelConfig {
    ModelConfig::table1()
        .with_ntrans(100)
        .with_npros(10)
        .with_tmax(1_000.0)
}

#[test]
fn uncapped_system_has_empty_pending_queue() {
    let m = sim::run(&heavy(), 1);
    assert_eq!(m.mean_pending, 0.0);
}

#[test]
fn capped_system_queues_the_surplus() {
    let m = sim::run(&heavy().with_mpl_limit(Some(10)), 1);
    // 100 resident, 10 admitted: most of the population waits.
    assert!(
        m.mean_pending > 50.0,
        "mean pending {} too small for 100 resident / cap 10",
        m.mean_pending
    );
    m.check_consistency(10).unwrap();
}

#[test]
fn tighter_caps_mean_fewer_denials() {
    let loose = sim::run(&heavy().with_ltot(5000).with_mpl_limit(Some(50)), 2);
    let tight = sim::run(&heavy().with_ltot(5000).with_mpl_limit(Some(5)), 2);
    assert!(
        tight.denial_rate < loose.denial_rate,
        "tight {} !< loose {}",
        tight.denial_rate,
        loose.denial_rate
    );
}

#[test]
fn cap_improves_fine_granularity_under_heavy_load() {
    let uncapped = sim::run(&heavy().with_ltot(5000), 3);
    let capped = sim::run(&heavy().with_ltot(5000).with_mpl_limit(Some(10)), 3);
    assert!(
        capped.throughput > uncapped.throughput,
        "capped {} !> uncapped {}",
        capped.throughput,
        uncapped.throughput
    );
}

#[test]
fn cap_equal_to_ntrans_changes_nothing() {
    let base = ModelConfig::table1().with_tmax(800.0);
    let a = sim::run(&base, 4);
    let b = sim::run(&base.clone().with_mpl_limit(Some(base.ntrans)), 4);
    // Same admissions in the same order: identical runs.
    assert_eq!(a.totcom, b.totcom);
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    assert_eq!(b.mean_pending, 0.0);
}

#[test]
fn response_time_includes_pending_wait() {
    // With a tight cap, the pending wait dominates response time (it is
    // measured from system entry, as the paper defines it). Longer run:
    // with 100 residents the closed system needs time to reach steady
    // state before L = lambda * W is tight.
    let capped = sim::run(&heavy().with_tmax(4_000.0).with_mpl_limit(Some(5)), 5);
    let uncapped = sim::run(&heavy().with_tmax(4_000.0), 5);
    assert!(
        capped.response_time > 0.0 && uncapped.response_time > 0.0,
        "no completions"
    );
    // Little's law must keep holding: L = ntrans for both (loose band —
    // a 4000-unit window still carries start-up transient at MPL 100).
    for m in [&capped, &uncapped] {
        let lw = m.throughput * m.response_time;
        assert!((lw - 100.0).abs() / 100.0 < 0.35, "Little's law: {lw}");
    }
}

#[test]
fn zero_cap_rejected_by_validation() {
    assert!(ModelConfig::table1()
        .with_mpl_limit(Some(0))
        .validate()
        .is_err());
}

/// The small capacity shape (`dbsize = 10⁵`, `ntrans = 2 000`, MPL 64):
/// the scaled-down copy of the `bench_capacity` points, on both conflict
/// models those points run.
fn small_capacity_points(ntrans: u32) -> [ModelConfig; 2] {
    let base = ModelConfig::table1()
        .with_ltot(1_000)
        .with_ntrans(ntrans)
        .with_mpl_limit(Some(64))
        .with_tmax(2_500.0);
    let prob = ModelConfig {
        dbsize: 100_000,
        ..base
            .clone()
            .with_placement(Placement::Random)
            .with_size(SizeDistribution::Uniform { max: 10_000 })
    };
    let hier = ModelConfig {
        dbsize: 100_000,
        ..base
            .with_size(SizeDistribution::Uniform { max: 500 })
            .with_conflict(ConflictMode::Hierarchical)
            .with_hierarchy(Some(
                HierarchySpec::default()
                    .with_areas(100)
                    .with_escalation_threshold(Some(64)),
            ))
    };
    [prob, hier]
}

/// Step a fresh run to its horizon; return the FEL population right
/// after set-up and its peak over the run.
fn fel_population(cfg: &ModelConfig) -> (usize, usize) {
    let mut ex = Executor::new();
    let mut system = System::new(cfg, 11, &mut ex);
    let initial = ex.pending();
    let mut peak = initial;
    while ex.step(&mut system, 1) == 1 && ex.now() <= system.tmax() {
        peak = peak.max(ex.pending());
    }
    (initial, peak)
}

/// The future-event list holds work in flight, not the arrival stream:
/// right after set-up only the first arrival and the warm-up and failure
/// events are pending, and the run's peak is bounded by a multiple of
/// `npros` whatever `ntrans` is. Each processor's CPU and disk hold one
/// live completion plus the stale ones lock preemptions leave behind;
/// the measured peaks are 31 (probabilistic) and 46 (hierarchical) at
/// `npros = 10`, for `ntrans` 2 000 and 20 000 alike, and 69 at the full
/// `bench_capacity` scale. `8 · npros` leaves headroom over all three.
#[test]
fn fel_population_scales_with_processors_not_arrivals() {
    for ntrans in [2_000, 20_000] {
        for cfg in small_capacity_points(ntrans) {
            let (initial, peak) = fel_population(&cfg);
            let label = format!("ntrans {ntrans}, {:?}", cfg.conflict);
            assert!(
                initial <= 2 + cfg.npros as usize,
                "{label}: {initial} events pending after set-up"
            );
            assert!(
                peak <= 8 * cfg.npros as usize,
                "{label}: FEL peak {peak} exceeds 8 · npros"
            );
        }
    }
}
