//! End-to-end measurement, tracing off.
//!
//! * A reference pass runs every `(config, seed)` on a fresh executor and
//!   system, counting [`Executor::events_processed`] and recording each
//!   run's digest (checked against the recorded digests at the default
//!   seed).
//! * Timed passes stream the whole list through one reused [`RunArena`]
//!   until the time budget is spent, each followed by a slice of cold
//!   [`System::new`] rounds on every distinct configuration. Every arena
//!   run must reproduce its reference digest bit for bit.
//! * `wall_s` is Σ over runs of each run's fastest time across the
//!   passes, `events_per_s` Σ events ÷ `wall_s`, and `setup_s` Σ over
//!   configurations of each one's fastest cold `System::new`, all scaled
//!   to a reference host speed by [`HostSpeed`], whose kernel is timed
//!   every half second through the passes. Contention from other tenants
//!   only ever adds time, so a per-item minimum over samples spread
//!   across the whole run is the steadiest estimate of the program's own
//!   cost; a median pass time follows the host's drift. The table also
//!   prints the unscaled times.
//! * `peak_rss_mb`: the process's `VmHWM` at the end (it includes the
//!   calibration kernel's 1 MiB).

// lint:allow-file(D002): a host-time benchmark reads the wall clock by design

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lockgran_core::system::System;
use lockgran_core::{ModelConfig, RunArena, RunMetrics};
use lockgran_sim::{Executor, FelKind};

use crate::checks::{check_run, digest_without_intents};
use crate::hostspeed::HostSpeed;
use crate::report::{median, Outcome};
use crate::workloads::Plan;

/// Fewest timed passes per measurement, however long a pass takes.
const MIN_PASSES: usize = 3;

/// Host time of the cold `System::new` rounds after each timed pass (at
/// least one round).
const SETUP_SLICE_S: f64 = 0.05;

/// [`median_rounds`]: at least this many rounds, and more until this much
/// host time is spent (capped so tiny rounds do not loop forever).
const SETUP_MIN_ROUNDS: usize = 5;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MAX_ROUNDS: usize = 20_000;

/// Time `f` over repeated rounds and return the median round time.
pub fn median_rounds(mut f: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < SETUP_MIN_ROUNDS
        || (start.elapsed().as_secs_f64() < SETUP_BUDGET_S && rounds.len() < SETUP_MAX_ROUNDS)
    {
        rounds.push(f());
    }
    median(&mut rounds)
}

/// One cold `System::new` on every distinct configuration, lowering
/// `best[c]` to configuration `c`'s time where it is faster.
fn setup_round(plan: &Plan, best: &mut [f64]) {
    for (cfg, best) in plan.configs.iter().zip(best) {
        let mut ex = Executor::with_fel(FelKind::Calendar);
        let t = Instant::now();
        let system = System::new(cfg, plan.runs[0].seed, &mut ex);
        *best = best.min(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(system));
    }
}

/// One run on a fresh executor and system: its metrics and event count.
pub fn fresh_run(cfg: &ModelConfig, seed: u64) -> (RunMetrics, u64) {
    let mut ex = Executor::with_fel(FelKind::Calendar);
    let mut system = System::new(cfg, seed, &mut ex);
    let horizon = system.tmax();
    let end = ex.run(&mut system, horizon);
    (system.finish(end), ex.events_processed())
}

/// Measure `plan` end to end for about `seconds` of timed passes.
/// `expected` holds recorded digests to check the reference pass against.
pub fn measure(plan: &Plan, expected: Option<&[u64]>, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut host = HostSpeed::new();

    // Reference pass: events and digests from fresh systems.
    let mut events = 0u64;
    let mut reference: Vec<Option<u64>> = Vec::with_capacity(plan.runs.len());
    let mut without_intents: Vec<Option<u64>> = Vec::with_capacity(plan.runs.len());
    for (i, run) in plan.runs.iter().enumerate() {
        let result = catch_unwind(|| fresh_run(&run.cfg, run.seed));
        let want = expected.and_then(|e| e.get(i).copied());
        let (d, w) = match result {
            Ok((m, n)) => {
                events += n;
                let d = out.record(i, check_run(&m, run.cfg.npros, want));
                (d, d.map(|_| digest_without_intents(&m)))
            }
            Err(_) => (out.record(i, Err("panicked".to_string())), None),
        };
        reference.push(d);
        without_intents.push(w);
    }
    for &(a, b) in &plan.identical_pairs {
        if let (Some(x), Some(y)) = (without_intents[a], without_intents[b]) {
            if x != y {
                out.fail(
                    b,
                    "explicit and hierarchical-without-escalation statistics differ",
                );
            }
        }
    }

    // Timed passes through one arena, each followed by a set-up slice.
    let mut arena = RunArena::new();
    let mut run_best = vec![f64::INFINITY; plan.runs.len()];
    let mut setup_best = vec![f64::INFINITY; plan.configs.len()];
    let mut passes = 0;
    let mut results: Vec<Option<RunMetrics>> = Vec::with_capacity(plan.runs.len());
    let start = Instant::now();
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        results.clear();
        for (run, best) in plan.runs.iter().zip(&mut run_best) {
            let t = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| arena.run(&run.cfg, run.seed)));
            *best = best.min(t.elapsed().as_secs_f64());
            if r.is_err() {
                arena = RunArena::new();
            }
            results.push(r.ok());
            host.maybe_sample();
        }
        passes += 1;
        for (i, (m, want)) in results.iter().zip(&reference).enumerate() {
            let checked = match (m, want) {
                (None, _) => Err("panicked".to_string()),
                (Some(_), None) => Err("its reference run failed".to_string()),
                (Some(m), Some(d)) => check_run(m, plan.runs[i].cfg.npros, Some(*d)),
            };
            out.record(i, checked);
        }
        let slice = Instant::now();
        while slice.elapsed().as_secs_f64() < SETUP_SLICE_S {
            setup_round(plan, &mut setup_best);
        }
    }

    let raw_wall_s = run_best.iter().sum::<f64>();
    let raw_setup_s = setup_best.iter().sum::<f64>();
    let factor = host.factor();
    out.notes.push(format!(
        "host speed: kernel best {:.6} s vs reference {:.6} s, times scaled by {factor:.4}; \
         unscaled wall_s {raw_wall_s:.6} s, events_per_s {:.0}, setup_s {raw_setup_s:.6} s \
         ({passes} passes)",
        host.best_s(),
        crate::hostspeed::REFERENCE_S,
        events as f64 / raw_wall_s,
    ));
    let wall_s = raw_wall_s * factor;
    out.metric("wall_s", wall_s, "s");
    out.metric("events_per_s", events as f64 / wall_s, "events/s");
    out.metric("setup_s", raw_setup_s * factor, "s");
    let rss_kib = peak_rss_kib();
    if rss_kib == 0 {
        out.problem("peak resident set unavailable (no VmHWM in /proc/self/status)".to_string());
    }
    out.metric("peak_rss_mb", rss_kib as f64 / 1024.0, "MB");
    out
}

/// The process's peak resident set (`VmHWM`) in KiB, 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
