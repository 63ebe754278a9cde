//! The benchmark's own tests, at a small scale.

use lockgran_core::{sim, ConflictMode, HierarchySpec, ModelConfig, RunMetrics};
use lockgran_sim::json::{self, Json};
use lockgran_workload::Placement;

use lockgran_perfbench::checks::{self, digest};
use lockgran_perfbench::e2e::{self, fresh_run};
use lockgran_perfbench::layers::{self, replay};
use lockgran_perfbench::report::Outcome;
use lockgran_perfbench::workloads::{Plan, Size, Workload};

/// `BENCHMARK.json` at the repository root, next to this package.
fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn metric_names(out: &Outcome) -> Vec<String> {
    out.metrics.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_builds_and_passes_its_checks() {
    let doc = benchmark_json();
    assert_eq!(
        names(&doc, "workloads"),
        Workload::ALL.map(|w| w.name().to_string())
    );
    for w in Workload::ALL {
        let plan = Plan::new(w, 5, Size::Small);
        let out = e2e::measure(&plan, None, 0.0);
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        assert!(out.attempted >= plan.runs.len() as u64);
        assert_eq!(metric_names(&out), names(&doc, "end_to_end"));
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            out.metrics
        );
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let doc = benchmark_json();
    for w in Workload::ALL {
        let plan = Plan::new(w, 5, Size::Small);
        let out = layers::measure(&plan, None, 0.0);
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        assert_eq!(metric_names(&out), names(&doc, "per_layer"), "{}", w.name());
        assert!(out.notes.iter().any(|n| n.starts_with("run:")));
        assert!(out.notes.iter().any(|n| n.starts_with("handlers:")));
    }
}

#[test]
fn locktable_churn_pairs_explicit_with_hierarchy_without_escalation() {
    let plan = Plan::new(Workload::LocktableChurn, 9, Size::Small);
    assert!(!plan.identical_pairs.is_empty());
    for &(a, b) in &plan.identical_pairs {
        let (ra, rb) = (&plan.runs[a], &plan.runs[b]);
        assert_eq!(ra.cfg.conflict, ConflictMode::Explicit);
        assert_eq!(rb.cfg.conflict, ConflictMode::Hierarchical);
        assert_eq!(rb.cfg.hierarchy_spec().escalation_threshold, None);
        assert_eq!(ra.seed, rb.seed);
    }
}

/// A small config per concurrency-control model, contended enough that
/// every decision kind occurs. The lock-table models get small
/// transactions over many granules, so that their decisions depend on
/// which granules each transaction draws.
fn model_configs() -> Vec<ModelConfig> {
    let base = ModelConfig::table1()
        .with_ntrans(40)
        .with_ltot(20)
        .with_placement(Placement::Random)
        .with_tmax(400.0);
    let sparse = base.clone().with_ltot(1_000).with_maxtransize(50);
    vec![
        base.clone(),
        sparse.clone().with_conflict(ConflictMode::Explicit),
        sparse
            .with_conflict(ConflictMode::Hierarchical)
            .with_hierarchy(Some(
                HierarchySpec::default()
                    .with_areas(4)
                    .with_escalation_threshold(Some(8)),
            )),
        base.with_conflict(ConflictMode::Twophase),
    ]
}

#[test]
fn replay_reproduces_the_decisions_of_every_model() {
    for cfg in model_configs() {
        let (m, trace) = sim::run_traced(&cfg, 17);
        trace.check_protocol().unwrap();
        let r =
            replay(&cfg, 17, &trace, &m).unwrap_or_else(|e| panic!("{}: {e}", cfg.conflict.name()));
        let calls = r.calls;
        assert!(
            calls.iter().all(|&c| c > 0),
            "{}: {calls:?}",
            cfg.conflict.name()
        );
        assert!(
            r.grants > 0 && r.grants < calls[2],
            "{}",
            cfg.conflict.name()
        );
        if cfg.conflict == ConflictMode::Twophase {
            assert!(m.deadlocks > 0, "the twophase config must deadlock");
        }
        if cfg.conflict == ConflictMode::Hierarchical {
            assert!(m.escalations > 0, "the hierarchical config must escalate");
        }
    }
}

#[test]
fn replay_of_another_seed_is_reported_as_diverged() {
    for cfg in model_configs() {
        let (m, trace) = sim::run_traced(&cfg, 17);
        assert!(
            replay(&cfg, 18, &trace, &m).is_err(),
            "{}",
            cfg.conflict.name()
        );
    }
}

fn small_digests(plan: &Plan) -> Vec<u64> {
    plan.runs
        .iter()
        .map(|r| digest(&fresh_run(&r.cfg, r.seed).0))
        .collect()
}

#[test]
fn matching_digests_pass_and_a_corrupted_digest_fails() {
    let plan = Plan::new(Workload::LocktableChurn, 3, Size::Small);
    let good = small_digests(&plan);
    assert!(e2e::measure(&plan, Some(&good), 0.0).correct());

    let mut bad = good.clone();
    bad[1] ^= 1;
    let e = e2e::measure(&plan, Some(&bad), 0.0);
    assert!(!e.correct());
    assert!(e.failed >= 1);
    assert!(e.json_line().starts_with("{\"correct\": false"));
    let l = layers::measure(&plan, Some(&bad), 0.0);
    assert!(!l.correct());
    assert_eq!(l.failed, 1);
}

#[test]
fn inconsistent_statistics_fail_the_run() {
    let plan = Plan::new(Workload::PaperGrid, 3, Size::Small);
    let (m, _) = fresh_run(&plan.runs[0].cfg, plan.runs[0].seed);
    let broken = RunMetrics {
        lockcpus: m.totcpus + 1.0,
        ..m
    };
    assert!(checks::check_run(&broken, plan.runs[0].cfg.npros, None).is_err());
}

#[test]
fn digests_are_recorded_for_every_run_at_the_default_seed() {
    for w in Workload::ALL {
        let plan = Plan::new(w, checks::DEFAULT_SEED, Size::Full);
        assert_eq!(checks::recorded(w).len(), plan.runs.len(), "{}", w.name());
    }
}
