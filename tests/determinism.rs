//! Cross-crate integration tests: reproducibility guarantees.

use lockgran::prelude::*;

/// Bit-for-bit reproducibility of a full run.
#[test]
fn identical_seeds_identical_metrics() {
    let cfg = ModelConfig::table1().with_tmax(1_000.0);
    let a = run(&cfg, 0xABCD);
    let b = run(&cfg, 0xABCD);
    assert_eq!(a.totcom, b.totcom);
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    assert_eq!(a.response_time.to_bits(), b.response_time.to_bits());
    assert_eq!(a.totcpus.to_bits(), b.totcpus.to_bits());
    assert_eq!(a.totios.to_bits(), b.totios.to_bits());
    assert_eq!(a.lockcpus.to_bits(), b.lockcpus.to_bits());
    assert_eq!(a.lockios.to_bits(), b.lockios.to_bits());
    assert_eq!(a.lock_attempts, b.lock_attempts);
    assert_eq!(a.lock_denials, b.lock_denials);
}

/// Replications with distinct derived seeds differ from each other but
/// the aggregate is reproducible.
#[test]
fn replications_reproducible() {
    let cfg = ModelConfig::table1().with_tmax(800.0);
    let a = run_replicated(&cfg, 7, 4);
    let b = run_replicated(&cfg, 7, 4);
    assert_eq!(a.throughput.mean.to_bits(), b.throughput.mean.to_bits());
    assert_eq!(a.throughput.ci95.to_bits(), b.throughput.ci95.to_bits());
    // Replications are genuinely distinct runs.
    assert!(a
        .runs
        .windows(2)
        .any(|w| w[0].totcom != w[1].totcom || w[0].response_time != w[1].response_time));
}

/// Sweep points share workload streams (common random numbers): the
/// transaction-size sequence must not depend on ltot. Verified
/// indirectly — with conflict-free locking (ltot at entity level and a
/// single terminal) the completed-work totals per seed agree across two
/// unrelated ltot values.
#[test]
fn common_random_numbers_across_sweep() {
    let mk = |ltot: u64| {
        ModelConfig::table1()
            .with_ntrans(1)
            .with_ltot(ltot)
            .with_tmax(2_000.0)
    };
    // One terminal: no conflicts, so completions depend only on sizes and
    // (tiny) lock overhead. The completed counts must be nearly equal.
    let a = run(&mk(10), 99);
    let b = run(&mk(100), 99);
    assert!(
        (a.totcom as i64 - b.totcom as i64).abs() <= 1,
        "size streams diverged: {} vs {}",
        a.totcom,
        b.totcom
    );
}

/// Golden snapshot of the Table 1 baseline at seed 42.
///
/// These values were re-pinned when the in-tree xoshiro256++ generator
/// replaced the external `rand` SmallRng: the random stream (and thus
/// every seed-sensitive output) changed once, deliberately, at that
/// point. They must never change again — any drift means a behavioural
/// change in the RNG, the workload generator or the simulator kernel,
/// and must be investigated, not re-pinned.
#[test]
fn table1_seed42_golden_snapshot() {
    let m = run(&ModelConfig::table1(), 42);
    assert_eq!(m.totcom, 1907);
    assert_eq!(m.throughput, 0.1907);
    assert_eq!(m.response_time, 52.266_182_485_579_47);
    assert_eq!(m.usefulcpus, 2415.79);
    assert_eq!(m.usefulios, 9667.365);
    assert_eq!(m.lockcpus, 166.03);
    assert_eq!(m.lockios, 3320.6);
    assert_eq!(m.denial_rate, 0.366_015_236_833_388_55);
    assert_eq!(m.lock_attempts, 3019);
    assert_eq!(m.lock_denials, 1105);
}

/// The JSON round trip of a config reproduces the identical simulation.
#[test]
fn config_json_round_trip_runs_identically() {
    use lockgran::sim::{FromJson, ToJson};
    let cfg = ModelConfig::table1()
        .with_npros(7)
        .with_ltot(37)
        .with_placement(Placement::Random)
        .with_tmax(500.0);
    let text = cfg.to_json().pretty();
    let back = ModelConfig::from_json(&lockgran::sim::json::parse(&text).unwrap()).unwrap();
    let a = run(&cfg, 11);
    let b = run(&back, 11);
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    assert_eq!(a.totcom, b.totcom);
}

/// Golden snapshot of a run whose arrivals tie with other events: 200
/// arrivals one time unit apart land on instants where deterministic
/// lock-share and stage completions also fire. Each arrival must win
/// those ties, as it did when every arrival was scheduled first at
/// set-up; the arrival chain keeps that order through the executor's
/// front band. An arrival chain scheduled in the ordinary band changes
/// every value below.
#[test]
fn arrival_ties_golden_snapshot() {
    let m = run(
        &ModelConfig::table1().with_ntrans(200).with_tmax(1_000.0),
        42,
    );
    assert_eq!(m.totcom, 136);
    assert_eq!(m.throughput, 0.136);
    assert_eq!(m.response_time, 355.057_647_058_823_4);
    assert_eq!(m.lock_attempts, 2701);
    assert_eq!(m.lock_denials, 2548);
    assert_eq!(m.denial_rate, 0.943_354_313_217_326_9);
}
