//! Future-event-list identity: the production 4-ary heap is a pure
//! performance substitution for the reference binary heap. Both order
//! events by the same stable `(time, seq)` key, so every simulation
//! output — metrics, float rounding, RNG consumption — must be
//! byte-identical across FEL kinds.
//!
//! This is what lets `core::sim::run` default to the production FEL while
//! every committed artifact stays bit-for-bit unchanged.

use lockgran_core::sim::run_with_fel;
use lockgran_core::{ConflictMode, LockDistribution, ModelConfig, ServiceVariability};
use lockgran_sim::{FelKind, ToJson};
use lockgran_workload::{FailureSpec, Partitioning, Placement};

/// Serialize one run to JSON text — byte-identical serialized output is
/// exactly the claim the committed figure artifacts rest on.
fn fingerprint(cfg: &ModelConfig, seed: u64, fel: FelKind) -> String {
    run_with_fel(cfg, seed, fel).to_json().to_string()
}

fn assert_identical(label: &str, cfg: &ModelConfig) {
    for seed in [42, 7, 12345] {
        let heap = fingerprint(cfg, seed, FelKind::Heap);
        let production = fingerprint(cfg, seed, FelKind::QuadHeap);
        assert_eq!(heap, production, "{label}, seed {seed}: FEL kinds diverged");
    }
}

/// The Table 1 baseline — the configuration every figure sweeps from —
/// run long enough for the event list to grow, churn and shrink.
#[test]
fn table1_baseline_is_fel_independent() {
    assert_identical("table1", &ModelConfig::table1().with_tmax(2_000.0));
}

/// A figure-style granularity sweep: every `(ltot, seed)` cell must match.
/// `ltot = 1` serializes the system (long FEL plateaus); `ltot = 5000`
/// maximizes concurrency (dense FEL) — the two FEL stress extremes.
#[test]
fn ltot_sweep_is_fel_independent() {
    for ltot in [1, 10, 100, 1_000, 5_000] {
        let cfg = ModelConfig::table1().with_ltot(ltot).with_tmax(1_000.0);
        assert_identical(&format!("ltot={ltot}"), &cfg);
    }
}

/// Model variants that exercise every event-producing subsystem: explicit
/// conflicts, random partitioning, worst-case placement, exponential
/// service, per-operation lock distribution, and warm-up snapshots.
#[test]
fn model_variants_are_fel_independent() {
    let base = ModelConfig::table1().with_tmax(1_000.0);
    let variants: Vec<(&str, ModelConfig)> = vec![
        (
            "explicit",
            base.clone().with_conflict(ConflictMode::Explicit),
        ),
        (
            "random-partitioning",
            base.clone().with_partitioning(Partitioning::Random),
        ),
        (
            "worst-placement",
            base.clone().with_placement(Placement::Worst).with_ltot(250),
        ),
        (
            "exponential-service",
            base.clone().with_service(ServiceVariability::Exponential),
        ),
        (
            "per-operation-locks",
            base.clone()
                .with_lock_distribution(LockDistribution::PerOperation),
        ),
        ("warmup", base.clone().with_warmup(300.0)),
        ("uniprocessor", base.clone().with_npros(1)),
    ];
    for (label, cfg) in &variants {
        assert_identical(label, cfg);
    }
}

/// Failures and repairs inject far-future events (repair times) next to
/// near-future ones, so the event list holds widely spread times.
#[test]
fn failure_runs_are_fel_independent() {
    let cfg = ModelConfig::table1()
        .with_failure(Some(FailureSpec::new(150.0, 30.0)))
        .with_tmax(1_500.0);
    assert_identical("failure", &cfg);
}
