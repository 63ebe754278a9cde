//! Property tests for the simulation kernel: the event queues against a
//! reference sort, the server against conservation laws, and the
//! statistics against naive recomputation.
//!
//! Cases are generated by seeded [`SimRng`] loops (one sub-stream per
//! case), so every failure is reproducible from the printed case number.

use lockgran_sim::{
    Class, CompletionOutcome, Dur, EventQueue, Job, JobId, QuadHeap, Server, SimRng, Tally, Time,
    TimeWeighted,
};

const CASES: u64 = 64;

fn case_rng(test: &str, case: u64) -> SimRng {
    SimRng::new(0x5EED).split(test).split_index(case)
}

/// The heap-based queue pops exactly the stable sort of its input.
#[test]
fn event_queue_is_stable_sort() {
    for case in 0..CASES {
        let mut rng = case_rng("event_queue_is_stable_sort", case);
        let len = rng.uniform_inclusive(0, 199);
        let times: Vec<u64> = (0..len).map(|_| rng.uniform_inclusive(0, 999)).collect();

        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ticks(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_by_key(|&(t, i)| (t, i)); // stable by construction
        let popped: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.ticks(), e))).collect();
        assert_eq!(popped, expected, "case {case}");
    }
}

/// The production 4-ary heap agrees with the reference heap queue under
/// an arbitrary interleaving of pushes and pops (the simulation access
/// pattern: never push into the past).
#[test]
fn quadheap_matches_heap() {
    for case in 0..CASES {
        let mut rng = case_rng("quadheap_matches_heap", case);
        let len = rng.uniform_inclusive(1, 299);
        let script: Vec<(u64, bool)> = (0..len)
            .map(|_| (rng.uniform_inclusive(0, 399), rng.bernoulli(0.5)))
            .collect();

        let mut quad = QuadHeap::new();
        let mut heap = EventQueue::new();
        let mut clock = 0u64;
        for (id, (delay, do_pop)) in script.into_iter().enumerate() {
            let id = id as u64;
            quad.push(Time::from_ticks(clock + delay), id);
            heap.push(Time::from_ticks(clock + delay), id);
            if do_pop {
                let a = quad.pop();
                let b = heap.pop();
                assert_eq!(a, b, "case {case}");
                if let Some((t, _)) = a {
                    clock = t.ticks();
                }
            }
        }
        loop {
            let a = quad.pop();
            let b = heap.pop();
            assert_eq!(a, b, "case {case}");
            if a.is_none() {
                break;
            }
        }
    }
}

/// Server conservation: for any job mix, total busy time equals total
/// demand, every job completes exactly once, and per-class busy time
/// equals per-class demand — regardless of preemptions.
#[test]
fn server_conserves_work() {
    for case in 0..CASES {
        let mut rng = case_rng("server_conserves_work", case);
        let len = rng.uniform_inclusive(1, 59);
        let jobs: Vec<(u64, u64, bool)> = (0..len)
            .map(|_| {
                (
                    rng.uniform_inclusive(1, 49),
                    rng.uniform_inclusive(0, 29),
                    rng.bernoulli(0.5),
                )
            })
            .collect();

        let mut server = Server::new();
        let mut pending: Vec<lockgran_sim::Completion> = Vec::new();
        let mut finished = 0usize;
        let mut now = Time::ZERO;
        let mut demand = [Dur::ZERO; 2];

        let drain_until = |server: &mut Server,
                           pending: &mut Vec<lockgran_sim::Completion>,
                           finished: &mut usize,
                           horizon: Time| {
            loop {
                pending.sort_by_key(|c| c.at);
                let Some(idx) = pending.iter().position(|c| c.at <= horizon) else {
                    return;
                };
                let c = pending.remove(idx);
                match server.on_completion(c.at, c.token) {
                    CompletionOutcome::Stale => {}
                    CompletionOutcome::Finished { next, .. } => {
                        *finished += 1;
                        if let Some(n) = next {
                            pending.push(n);
                        }
                    }
                }
            }
        };

        for (i, (dur, gap, is_lock)) in jobs.iter().enumerate() {
            now += Dur::from_ticks(*gap);
            // Fire everything due before this submission.
            drain_until(&mut server, &mut pending, &mut finished, now);
            let class = if *is_lock {
                Class::Lock
            } else {
                Class::Transaction
            };
            demand[if *is_lock { 0 } else { 1 }] += Dur::from_ticks(*dur);
            if let Some(c) = server.submit(
                now,
                Job {
                    id: JobId(i as u64),
                    demand: Dur::from_ticks(*dur),
                    class,
                },
            ) {
                pending.push(c);
            }
        }
        drain_until(
            &mut server,
            &mut pending,
            &mut finished,
            Time::from_ticks(u64::MAX / 2),
        );

        assert_eq!(
            finished,
            jobs.len(),
            "case {case}: every job completes exactly once"
        );
        assert_eq!(server.busy_time(Class::Lock), demand[0], "case {case}");
        assert_eq!(
            server.busy_time(Class::Transaction),
            demand[1],
            "case {case}"
        );
        assert!(server.is_idle(), "case {case}");
    }
}

/// Tally matches a naive two-pass mean/variance computation.
#[test]
fn tally_matches_naive() {
    for case in 0..CASES {
        let mut rng = case_rng("tally_matches_naive", case);
        let len = rng.uniform_inclusive(2, 199);
        let xs: Vec<f64> = (0..len).map(|_| (rng.uniform01() - 0.5) * 2e6).collect();

        let mut t = Tally::new();
        for &x in &xs {
            t.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert!(
            (t.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()),
            "case {case}: mean {} vs {mean}",
            t.mean()
        );
        assert!(
            (t.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()),
            "case {case}: variance {} vs {var}",
            t.variance()
        );
        assert_eq!(
            t.min().unwrap(),
            xs.iter().copied().fold(f64::INFINITY, f64::min),
            "case {case}"
        );
        assert_eq!(
            t.max().unwrap(),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            "case {case}"
        );
    }
}

/// TimeWeighted matches a naive piecewise integration.
#[test]
fn timeweighted_matches_naive() {
    for case in 0..CASES {
        let mut rng = case_rng("timeweighted_matches_naive", case);
        let len = rng.uniform_inclusive(1, 99);
        let steps: Vec<(u64, f64)> = (0..len)
            .map(|_| (rng.uniform_inclusive(1, 99), rng.uniform01() * 50.0))
            .collect();

        let mut tw = TimeWeighted::new();
        let mut now = Time::ZERO;
        let mut area = 0.0;
        let mut level = 0.0;
        for (gap, new_level) in steps {
            let next = now + Dur::from_ticks(gap);
            area += level * Dur::from_ticks(gap).units();
            tw.record(next, new_level);
            level = new_level;
            now = next;
        }
        let horizon = now + Dur::from_ticks(10);
        area += level * Dur::from_ticks(10).units();
        let expected = area / horizon.units();
        assert!(
            (tw.mean_at(horizon) - expected).abs() < 1e-9,
            "case {case}: {} vs {expected}",
            tw.mean_at(horizon)
        );
    }
}
