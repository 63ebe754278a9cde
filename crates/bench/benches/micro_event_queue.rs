//! Micro-bench: the future-event list.
//!
//! Push/pop throughput of the reference binary heap (`EventQueue`) and the
//! production 4-ary heap (`QuadHeap`) at the queue sizes the model
//! actually reaches (tens to 10⁵ pending events) — the simulator's hottest
//! data structure.

use lockgran_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lockgran_sim::{EventQueue, QuadHeap, Time};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    for &n in &[64usize, 1024, 16384] {
        group.bench_with_input(BenchmarkId::new("push_pop_cycle", n), &n, |b, &n| {
            // Pre-fill to steady-state size, then measure a push+pop churn.
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(Time::from_ticks((i as u64) * 7 % 10_000), i as u64);
            }
            let mut t = 10_000u64;
            b.iter(|| {
                let (at, v) = q.pop().expect("non-empty");
                t += 13;
                q.push(Time::from_ticks(t), v);
                black_box(at);
            });
        });
    }
    for &n in &[64usize, 1024, 16384] {
        group.bench_with_input(
            BenchmarkId::new("quadheap_push_pop_cycle", n),
            &n,
            |b, &n| {
                let mut q = QuadHeap::new();
                for i in 0..n {
                    q.push(Time::from_ticks((i as u64) * 7 % 10_000), i as u64);
                }
                let mut t = 10_000u64;
                b.iter(|| {
                    let (at, v) = q.pop().expect("non-empty");
                    t += 13;
                    q.push(Time::from_ticks(t), v);
                    black_box(at);
                });
            },
        );
    }
    group.bench_function("drain_4096", |b| {
        b.iter_with_setup(
            || {
                let mut q = EventQueue::new();
                for i in 0..4096u64 {
                    q.push(Time::from_ticks(i.wrapping_mul(2_654_435_761) % 100_000), i);
                }
                q
            },
            |mut q| {
                while let Some(e) = q.pop() {
                    black_box(e);
                }
            },
        );
    });
    // The `capacity` set-up shape: every one of 10⁵ resident transactions
    // schedules its first event in time order, then the list drains. One
    // queue is reused across iterations, as `RunArena` reuses its FEL.
    group.bench_function("bootstrap_push_100k", |b| {
        let mut q = QuadHeap::new();
        b.iter(|| {
            for i in 0..100_000u64 {
                q.push(Time::from_ticks(i / 3), i);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
