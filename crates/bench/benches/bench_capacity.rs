//! Macro capacity bench: 10⁷-entity databases, 10⁵ resident transactions.
//!
//! The paper's own experiments stop at `dbsize = 5000`; this bench pins
//! the engine at production scale — `dbsize = 10_000_000`, `ntrans =
//! 100_000` (a 10⁵-slot slab and a pending queue to match, with
//! admission control at MPL 64; a transaction draws its workload when it
//! is admitted), `maxtransize = 100_000` (the Yao evaluation runs in its
//! closed-form ln-gamma regime) — on both the
//! probabilistic and the hierarchical conflict models. Each iteration
//! streams a fresh `(seed)` run through one reused [`RunArena`], which is
//! how the sweep harness executes at this scale: the slab, the
//! future-event list, the lock tables and the Yao memo all carry across
//! runs.
//!
//! Under `LOCKGRAN_BENCH_QUICK` the configuration shrinks (10⁵ entities,
//! 2·10³ transactions) so CI can smoke the same code path in seconds.

use lockgran_bench::{criterion_group, criterion_main, Criterion};
use lockgran_core::{ConflictMode, HierarchySpec, ModelConfig, RunArena};
use lockgran_workload::{Placement, SizeDistribution};
use std::hint::black_box;

struct Scale {
    dbsize: u64,
    ntrans: u32,
    ltot: u64,
    maxtransize_prob: u64,
    maxtransize_hier: u64,
    tmax: f64,
}

fn scale() -> Scale {
    if std::env::var_os("LOCKGRAN_BENCH_QUICK").is_some() {
        // CI smoke: same code paths (slab reuse, ln-gamma Yao is still
        // exercised via the large maxtransize-to-dbsize ratio), small
        // enough for seconds-scale runs.
        Scale {
            dbsize: 100_000,
            ntrans: 2_000,
            ltot: 1_000,
            maxtransize_prob: 10_000,
            maxtransize_hier: 500,
            tmax: 2_500.0,
        }
    } else {
        Scale {
            dbsize: 10_000_000,
            ntrans: 100_000,
            ltot: 10_000,
            // The probabilistic point stresses the Yao/memo layer with
            // transaction sizes up to 10⁵ entities; the hierarchical
            // point keeps granule sets materializable (LU ≈ hundreds)
            // while the slab still holds 10⁵ residents.
            maxtransize_prob: 100_000,
            maxtransize_hier: 2_000,
            tmax: 110_000.0,
        }
    }
}

fn capacity_base(s: &Scale) -> ModelConfig {
    ModelConfig::table1()
        .with_ltot(s.ltot)
        .with_ntrans(s.ntrans)
        .with_mpl_limit(Some(64))
        .with_tmax(s.tmax)
}

fn bench(c: &mut Criterion) {
    let s = scale();
    // Random placement routes every admission through Yao's formula —
    // the paper's §3.5 model for unclustered access — so each admitted
    // transaction evaluates `E[LU]` at `d = 10⁷`. Arrivals still waiting
    // in the admission queue at the horizon (most of the 10⁵) never draw
    // a workload. That is the layer the capacity work targets: the
    // closed-form ln-gamma evaluation plus the cross-run memo carried by
    // the arena.
    let prob = capacity_base(&s)
        .with_placement(Placement::Random)
        .with_size(SizeDistribution::Uniform {
            max: s.maxtransize_prob,
        });
    // `with_size` does not touch dbsize; set it last so validation sees
    // the full pair.
    let prob = ModelConfig {
        dbsize: s.dbsize,
        ..prob
    };
    let hier = ModelConfig {
        dbsize: s.dbsize,
        ..capacity_base(&s)
            .with_size(SizeDistribution::Uniform {
                max: s.maxtransize_hier,
            })
            .with_conflict(ConflictMode::Hierarchical)
            .with_hierarchy(Some(
                HierarchySpec::default()
                    .with_areas(100)
                    .with_escalation_threshold(Some(64)),
            ))
    };

    let mut group = c.benchmark_group("capacity");
    let mut arena = RunArena::new();
    let mut seed = 0u64;
    group.bench_function("probabilistic", |b| {
        b.iter(|| {
            seed += 1;
            black_box(arena.run(black_box(&prob), seed).totcom)
        })
    });
    let mut arena = RunArena::new();
    let mut seed = 0u64;
    group.bench_function("hierarchical", |b| {
        b.iter(|| {
            seed += 1;
            black_box(arena.run(black_box(&hier), seed).totcom)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(10)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
