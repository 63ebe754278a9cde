//! The traced per-layer run, timed from outside the library.
//!
//! For every `(config, seed)` of a workload:
//!
//! 1. an untraced run gives the reference run time;
//! 2. the same run with [`System`] wrapped in [`Timed`], a [`Model`] that
//!    times each `handle` call by event kind, gives the engine's self time
//!    (`Executor::run` time minus handler time), the handler busy times
//!    and the future-event-list peak;
//! 3. [`sim::run_traced`] records the protocol trace, which must pass
//!    [`lockgran_core::VecTracer::check_protocol`];
//! 4. [`replay`] rebuilds the run's `WorkloadGenerator`, RNG streams and
//!    `ConcurrencyControl` and repeats their calls in trace order,
//!    timing each one. The replay must reproduce every decision, blocker
//!    and wake order of the trace; where it cannot, the workload's
//!    `workload` and `cc` rows are left out and marked unattributed.
//!
//! Both runs reuse one executor and system, reset between runs as
//! [`lockgran_core::RunArena`] does, so neither pays cold-allocation
//! costs the other does not.
//!
//! `core.system.residual_s` is handler busy time minus the replayed
//! `workload` and `cc` time: servers, fork/join, wake bookkeeping and
//! statistics.

// lint:allow-file(D002): a host-time benchmark reads the wall clock by design

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lockgran_core::system::{Event, System};
use lockgran_core::{
    build_concurrency_control, sim, ConflictDecision, ModelConfig, RunMetrics, TraceEvent,
    VecTracer,
};
use lockgran_sim::{Executor, FelKind, Model, SimRng, Time};
use lockgran_workload::{TransactionSpec, WorkloadGenerator};

use crate::checks::{check_run, digest};
use crate::e2e::median_rounds;
use crate::report::{median, Outcome};
use crate::workloads::Plan;

/// Handler kinds timed by [`Timed`]: the three that carry the run, then
/// everything else (warm-up boundary, sampling, failures).
const KINDS: [&str; 3] = ["arrive", "cpu_done", "io_done"];
const OTHER: usize = 3;

/// The replayed library calls, in report order.
const CALLS: [&str; 5] = [
    "workload.next_spec",
    "cc.register_access",
    "cc.try_acquire",
    "cc.release",
    "cc.drain_deadlock_effects",
];
const NEXT_SPEC: usize = 0;
const REGISTER: usize = 1;
const TRY_ACQUIRE: usize = 2;
const RELEASE: usize = 3;
const DRAIN: usize = 4;

/// A [`System`] whose `handle` calls are timed by event kind.
struct Timed<'a> {
    system: &'a mut System,
    busy_ns: [u64; 4],
    count: [u64; 4],
    fel_peak: usize,
}

impl Model for Timed<'_> {
    type Event = Event;

    fn handle(&mut self, now: Time, event: Event, ex: &mut Executor<Event>) {
        let kind = match event {
            Event::Arrive => 0,
            Event::CpuDone { .. } => 1,
            Event::IoDone { .. } => 2,
            Event::WarmupReached
            | Event::SampleTick
            | Event::Fail { .. }
            | Event::Repair { .. } => OTHER,
        };
        let t = Instant::now();
        self.system.handle(now, event, ex);
        self.busy_ns[kind] += t.elapsed().as_nanos() as u64;
        self.count[kind] += 1;
        self.fel_peak = self.fel_peak.max(ex.pending());
    }
}

/// Per-call counts and host time of one replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplayTotals {
    /// Calls per entry of [`CALLS`].
    pub calls: [u64; 5],
    /// Host nanoseconds per entry of [`CALLS`].
    pub busy_ns: [u64; 5],
    /// `try_acquire` calls that granted.
    pub grants: u64,
}

impl ReplayTotals {
    fn add(&mut self, o: &ReplayTotals) {
        for i in 0..CALLS.len() {
            self.calls[i] += o.calls[i];
            self.busy_ns[i] += o.busy_ns[i];
        }
        self.grants += o.grants;
    }
}

/// One replayed transaction slot.
#[derive(Default)]
struct Slot {
    serial: u64,
    locks: u64,
    granules: Vec<u64>,
}

/// What the trace must show next after a `try_acquire` or `release`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Effect {
    Abort(u64),
    Wake(u64),
}

/// Replay one run's workload and concurrency-control calls in trace
/// order, timing each. Slab slots are reproduced the way [`System`]
/// assigns them: a LIFO free list fed by completions, else the next new
/// slot. Fails, naming the first event it could not reproduce, when the
/// replay's decisions diverge from the trace.
pub fn replay(
    cfg: &ModelConfig,
    seed: u64,
    trace: &VecTracer,
    truth: &RunMetrics,
) -> Result<ReplayTotals, String> {
    let root = SimRng::new(seed);
    let mut generator = WorkloadGenerator::new(cfg.workload_params(), &root);
    let mut access = root.split("access");
    let mut conflict_rng = root.split("conflict");
    let mut cc = build_concurrency_control(cfg);

    let mut spec = TransactionSpec {
        entities: 0,
        locks: 0,
        processors: Vec::new(),
    };
    let mut slots: Vec<Slot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut slot_of: Vec<usize> = Vec::new();
    let mut expected: VecDeque<Effect> = VecDeque::new();
    let (mut aborted, mut woken) = (Vec::new(), Vec::new());
    let mut tot = ReplayTotals::default();
    let mut timed = |call: usize, t: Instant| {
        tot.calls[call] += 1;
        tot.busy_ns[call] += t.elapsed().as_nanos() as u64;
    };
    let slot_of_serial = |slot_of: &[usize], serial: u64| {
        slot_of
            .get(serial as usize)
            .copied()
            .ok_or_else(|| format!("serial {serial} never arrived"))
    };

    let mut grants = 0;
    for (at, ev) in &trace.events {
        let bad = |why: &str| format!("t={}: {ev:?}: {why}", at.units());
        match *ev {
            TraceEvent::Arrived { serial } => {
                if serial != slot_of.len() as u64 {
                    return Err(bad("serials out of order"));
                }
                let t = Instant::now();
                generator.next_spec_into(&mut spec);
                timed(NEXT_SPEC, t);
                let slot = free.pop().unwrap_or_else(|| {
                    slots.push(Slot::default());
                    slots.len() - 1
                });
                let s = &mut slots[slot];
                s.serial = serial;
                s.locks = spec.locks;
                let t = Instant::now();
                cc.register_access(&mut access, spec.entities, &mut s.granules);
                timed(REGISTER, t);
                slot_of.push(slot);
            }
            TraceEvent::DeadlockAborted { serial }
                if expected.front() == Some(&Effect::Abort(serial)) =>
            {
                expected.pop_front();
            }
            TraceEvent::Granted { serial }
            | TraceEvent::Denied { serial, .. }
            | TraceEvent::DeadlockAborted { serial } => {
                if !expected.is_empty() {
                    return Err(bad("decision before the previous effects were traced"));
                }
                let slot = slot_of_serial(&slot_of, serial)?;
                let s = &slots[slot];
                let t = Instant::now();
                let decision = cc.try_acquire(slot as u64, s.locks, &s.granules, &mut conflict_rng);
                timed(TRY_ACQUIRE, t);
                let same = match (decision, ev) {
                    (ConflictDecision::Granted, TraceEvent::Granted { .. }) => true,
                    (ConflictDecision::BlockedBy(b), TraceEvent::Denied { blocker, .. }) => {
                        slots.get(b as usize).map(|s| s.serial) == Some(*blocker)
                    }
                    (ConflictDecision::Aborted, TraceEvent::DeadlockAborted { .. }) => true,
                    _ => false,
                };
                if !same {
                    return Err(bad(&format!("replay decided {decision:?}")));
                }
                grants += u64::from(decision == ConflictDecision::Granted);
                aborted.clear();
                woken.clear();
                let t = Instant::now();
                cc.drain_deadlock_effects(&mut aborted, &mut woken);
                timed(DRAIN, t);
                for &v in &aborted {
                    expected.push_back(Effect::Abort(slots[v as usize].serial));
                }
                for &w in &woken {
                    expected.push_back(Effect::Wake(slots[w as usize].serial));
                }
            }
            TraceEvent::Woken { serial } => {
                if expected.pop_front() != Some(Effect::Wake(serial)) {
                    return Err(bad("wake the replay did not produce"));
                }
            }
            TraceEvent::Completed { serial } | TraceEvent::Aborted { serial } => {
                if !expected.is_empty() {
                    return Err(bad("release before the previous effects were traced"));
                }
                let slot = slot_of_serial(&slot_of, serial)?;
                if matches!(ev, TraceEvent::Completed { .. }) {
                    free.push(slot);
                }
                woken.clear();
                let t = Instant::now();
                cc.release(slot as u64, &mut woken);
                timed(RELEASE, t);
                for &w in &woken {
                    expected.push_back(Effect::Wake(slots[w as usize].serial));
                }
            }
            TraceEvent::LockRequested { .. }
            | TraceEvent::SubIoDone { .. }
            | TraceEvent::SubCpuDone { .. }
            | TraceEvent::Failed { .. }
            | TraceEvent::Repaired { .. } => {}
        }
    }
    if let Some(e) = expected.front() {
        return Err(format!("trace ended before {e:?}"));
    }
    // Without a warm-up the run's protocol counters cover the whole run,
    // so the replayed model must have counted exactly the same.
    let stats = cc.stats();
    if cfg.warmup <= 0.0
        && (stats.deadlocks, stats.escalations, stats.intent_locks)
            != (truth.deadlocks, truth.escalations, truth.intent_locks)
    {
        return Err(format!(
            "replayed protocol counters {stats:?} differ from the run's"
        ));
    }
    tot.grants = grants;
    Ok(tot)
}

/// Sums over one pass of every run of a workload.
#[derive(Clone, Debug, Default)]
struct Pass {
    untraced_s: f64,
    timed_s: f64,
    busy_ns: [u64; 4],
    count: [u64; 4],
    events: u64,
    fel_peak: usize,
    replay: ReplayTotals,
    deadlocks: u64,
    aborts: u64,
    escalations: u64,
    intent_locks: u64,
}

impl Pass {
    fn busy_s(&self, kind: usize) -> f64 {
        self.busy_ns[kind] as f64 * 1e-9
    }
    fn handler_s(&self) -> f64 {
        (0..4).map(|k| self.busy_s(k)).sum()
    }
    fn engine_self_s(&self) -> f64 {
        self.timed_s - self.handler_s()
    }
    fn call_s(&self, call: usize) -> f64 {
        self.replay.busy_ns[call] as f64 * 1e-9
    }
    fn replayed_s(&self) -> f64 {
        (0..CALLS.len()).map(|c| self.call_s(c)).sum()
    }
    fn residual_s(&self) -> f64 {
        self.handler_s() - self.replayed_s()
    }
    /// Time in the traced table that no untraced run spends, plus any
    /// replayed time that exceeds the handler time it came from.
    fn unattributed_s(&self) -> f64 {
        (self.timed_s - self.untraced_s) + (-self.residual_s()).max(0.0)
    }
}

/// Everything one `(config, seed)` contributes to a traced pass.
struct Sample {
    untraced_s: f64,
    timed_s: f64,
    busy_ns: [u64; 4],
    count: [u64; 4],
    fel_peak: usize,
    events: u64,
    /// Statistics of the untraced, the timed and the traced run.
    metrics: [RunMetrics; 3],
    protocol: Result<(), String>,
    replay: Result<ReplayTotals, String>,
}

/// Run one `(cfg, seed)` untraced, timed and traced, and replay it. The
/// first two reuse `ex` and `slot`, reset between runs as `RunArena`
/// does, so both run warm.
fn traced_run(
    ex: &mut Executor<Event>,
    slot: &mut Option<System>,
    cfg: &ModelConfig,
    seed: u64,
) -> Sample {
    ex.reset();
    let system = match slot {
        Some(s) => {
            s.reset(cfg, seed, ex);
            s
        }
        None => slot.insert(System::new(cfg, seed, ex)),
    };
    let horizon = system.tmax();
    let t = Instant::now();
    let end = ex.run(system, horizon);
    let untraced_s = t.elapsed().as_secs_f64();
    let untraced = system.finish(end);
    let events = ex.events_processed();

    ex.reset();
    system.reset(cfg, seed, ex);
    let mut timed = Timed {
        system,
        busy_ns: [0; 4],
        count: [0; 4],
        fel_peak: ex.pending(),
    };
    let t = Instant::now();
    let end = ex.run(&mut timed, horizon);
    let timed_s = t.elapsed().as_secs_f64();
    let (busy_ns, count, fel_peak) = (timed.busy_ns, timed.count, timed.fel_peak);
    let timed_metrics = timed.system.finish(end);

    let (traced, trace) = sim::run_traced(cfg, seed);
    let protocol = trace.check_protocol();
    let replay = replay(cfg, seed, &trace, &untraced);
    Sample {
        untraced_s,
        timed_s,
        busy_ns,
        count,
        fel_peak,
        events,
        metrics: [untraced, timed_metrics, traced],
        protocol,
        replay,
    }
}

/// One traced pass over every run of `plan`. Check failures are recorded
/// in `out`; a replay divergence is returned as `Err`.
fn traced_pass(
    plan: &Plan,
    expected: Option<&[u64]>,
    out: &mut Outcome,
) -> (Pass, Result<(), String>) {
    let mut p = Pass::default();
    let mut replay_ok = Ok(());
    let mut ex = Executor::with_fel(FelKind::Calendar);
    let mut slot: Option<System> = None;
    for (i, run) in plan.runs.iter().enumerate() {
        let (cfg, seed) = (&run.cfg, run.seed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            traced_run(&mut ex, &mut slot, cfg, seed)
        }));
        let Ok(r) = result else {
            out.record(i, Err("panicked".to_string()));
            slot = None;
            continue;
        };
        let [m0, m1, m2] = &r.metrics;
        let want = expected.and_then(|e| e.get(i).copied());
        let checked = check_run(m0, cfg.npros, want).and_then(|d| {
            r.protocol.clone().map_err(|e| format!("protocol: {e}"))?;
            if digest(m1) != d || digest(m2) != d {
                return Err("timed or traced run differs from the untraced run".to_string());
            }
            Ok(d)
        });
        out.record(i, checked);
        p.untraced_s += r.untraced_s;
        p.timed_s += r.timed_s;
        for k in 0..4 {
            p.busy_ns[k] += r.busy_ns[k];
            p.count[k] += r.count[k];
        }
        p.events += r.events;
        p.fel_peak = p.fel_peak.max(r.fel_peak);
        p.deadlocks += m0.deadlocks;
        p.aborts += m0.aborts;
        p.escalations += m0.escalations;
        p.intent_locks += m0.intent_locks;
        match r.replay {
            Ok(t) => p.replay.add(&t),
            Err(e) => {
                if replay_ok.is_ok() {
                    replay_ok = Err(format!("run {i} ({}): {e}", plan.labels[run.config]));
                }
            }
        }
    }
    (p, replay_ok)
}

/// Set-up split by layer, each the median over rounds of the sum over
/// the workload's distinct configurations.
fn setup_layers(plan: &Plan) -> [f64; 3] {
    let seed = plan.runs[0].seed;
    let cc = median_rounds(|| {
        plan.configs
            .iter()
            .map(|cfg| {
                let t = Instant::now();
                let cc = build_concurrency_control(cfg);
                let dt = t.elapsed().as_secs_f64();
                drop(std::hint::black_box(cc));
                dt
            })
            .sum()
    });
    let workload = median_rounds(|| {
        plan.configs
            .iter()
            .map(|cfg| {
                let t = Instant::now();
                let g = WorkloadGenerator::new(cfg.workload_params(), &SimRng::new(seed));
                let dt = t.elapsed().as_secs_f64();
                drop(std::hint::black_box(g));
                dt
            })
            .sum()
    });
    let system = median_rounds(|| {
        plan.configs
            .iter()
            .map(|cfg| {
                let mut ex = Executor::with_fel(FelKind::Calendar);
                let t = Instant::now();
                let s = System::new(cfg, seed, &mut ex);
                let dt = t.elapsed().as_secs_f64();
                drop(std::hint::black_box(s));
                dt
            })
            .sum()
    });
    [cc, workload, system]
}

/// Host cost of one `Instant::now()` / `elapsed()` pair, the unit of
/// instrumentation every timed handler and replayed call pays.
fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 100_000;
    median_rounds(|| {
        let t = Instant::now();
        for _ in 0..PAIRS {
            std::hint::black_box(Instant::now().elapsed());
        }
        t.elapsed().as_secs_f64() * 1e9 / f64::from(PAIRS)
    })
}

/// Median over passes of `f`.
fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let mut v: Vec<f64> = passes.iter().map(f).collect();
    median(&mut v)
}

fn per_call_ns(busy_s: f64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        busy_s * 1e9 / calls as f64
    }
}

/// Measure `plan` layer by layer: traced passes within `seconds` (at
/// least one), time metrics as medians over passes.
pub fn measure(plan: &Plan, expected: Option<&[u64]>, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let [cc_build_s, workload_new_s, system_new_s] = setup_layers(plan);
    let mut passes = Vec::new();
    let mut replay_ok = Ok(());
    // A traced pass can take many seconds: start another only if it is
    // expected to finish within the budget.
    let start = Instant::now();
    let mut last = 0.0;
    while passes.is_empty() || start.elapsed().as_secs_f64() + last <= seconds {
        let t = Instant::now();
        let (p, ok) = traced_pass(plan, expected, &mut out);
        last = t.elapsed().as_secs_f64();
        passes.push(p);
        if replay_ok.is_ok() {
            replay_ok = ok;
        }
    }
    let first = passes[0].clone();

    out.metric("sim.engine.events", first.events as f64, "count");
    out.metric("sim.engine.self_s", med(&passes, Pass::engine_self_s), "s");
    out.metric(
        "sim.engine.ns_per_event",
        med(&passes, |p| per_call_ns(p.engine_self_s(), p.events)),
        "ns",
    );
    out.metric("sim.engine.fel_peak", first.fel_peak as f64, "count");
    for (k, kind) in KINDS.iter().enumerate() {
        out.metric(
            &format!("core.system.{kind}.count"),
            first.count[k] as f64,
            "count",
        );
        out.metric(
            &format!("core.system.{kind}.busy_s"),
            med(&passes, |p| p.busy_s(k)),
            "s",
        );
    }
    match &replay_ok {
        Ok(()) => {
            out.metric(
                "core.system.residual_s",
                med(&passes, Pass::residual_s),
                "s",
            );
            for (c, call) in CALLS.iter().enumerate() {
                let calls = first.replay.calls[c];
                out.metric(&format!("{call}.calls"), calls as f64, "count");
                out.metric(
                    &format!("{call}.ns_per_call"),
                    med(&passes, |p| per_call_ns(p.call_s(c), calls)),
                    "ns",
                );
                out.metric(
                    &format!("{call}.busy_s"),
                    med(&passes, |p| p.call_s(c)),
                    "s",
                );
            }
            let attempts = first.replay.calls[TRY_ACQUIRE];
            let ratio = if attempts == 0 {
                0.0
            } else {
                first.replay.grants as f64 / attempts as f64
            };
            out.metric("cc.grant_ratio", ratio, "ratio");
        }
        Err(e) => {
            out.problem(format!(
                "replay diverged, workload and cc rows unattributed: {e}"
            ));
        }
    }
    out.metric("cc.deadlocks", first.deadlocks as f64, "count");
    out.metric("cc.aborts", first.aborts as f64, "count");
    out.metric("cc.escalations", first.escalations as f64, "count");
    out.metric("cc.intent_locks", first.intent_locks as f64, "count");
    out.metric("setup.cc_build_s", cc_build_s, "s");
    out.metric("setup.workload_new_s", workload_new_s, "s");
    out.metric("setup.system_new_s", system_new_s, "s");
    out.metric(
        "trace.overhead_ratio",
        med(&passes, |p| p.timed_s / p.untraced_s),
        "ratio",
    );
    out.metric(
        "trace.unattributed_s",
        med(&passes, Pass::unattributed_s),
        "s",
    );

    // Reconciliation, from the median pass by timed run time.
    passes.sort_by(|a, b| a.timed_s.total_cmp(&b.timed_s));
    let p = &passes[passes.len() / 2];
    out.notes.push(format!(
        "{} traced pass(es); reconciliation from the median one:",
        passes.len()
    ));
    let pair_ns = timer_pair_ns();
    out.notes.push(format!(
        "timer:    one Instant pair costs {pair_ns:.1} ns here; the timed run made {} \
         pairs ({:.6} s), the replay {} ({:.6} s)",
        p.events,
        p.events as f64 * pair_ns * 1e-9,
        p.replay.calls.iter().sum::<u64>(),
        p.replay.calls.iter().sum::<u64>() as f64 * pair_ns * 1e-9
    ));
    out.notes.push(format!(
        "run:      sim.engine.self_s {:.6} + core.system busy {:.6} = {:.6} s timed \
         vs {:.6} s untraced; unattributed (instrumentation) {:.6} s",
        p.engine_self_s(),
        p.handler_s(),
        p.timed_s,
        p.untraced_s,
        p.timed_s - p.untraced_s
    ));
    if replay_ok.is_ok() {
        out.notes.push(format!(
            "handlers: core.system busy {:.6} s = workload {:.6} + cc {:.6} + residual {:.6} s; \
             unattributed (replay above handler time) {:.6} s",
            p.handler_s(),
            p.call_s(NEXT_SPEC),
            p.replayed_s() - p.call_s(NEXT_SPEC),
            p.residual_s(),
            (-p.residual_s()).max(0.0)
        ));
    } else {
        out.notes.push(format!(
            "handlers: core.system busy {:.6} s; workload and cc unattributed (replay diverged)",
            p.handler_s()
        ));
    }
    out
}
