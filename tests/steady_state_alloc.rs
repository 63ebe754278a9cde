//! Steady-state allocation audit: once a Table 1 run is past its start-up
//! transient, the event loop must touch the heap **zero** times — no
//! per-event, per-transaction, or per-request allocation at all.
//!
//! Every hot-path buffer is recycled: the slab reuses transaction slots
//! and a pool of completed-transaction carcasses,
//! `TransactionSpec::processors` is drawn in-place, lock/stage share
//! vectors are taken and restored around each submission, conflict waiter
//! lists are recycled through a spare pool, and the event list reuses its
//! backing storage once the population has peaked.
//! This test is the proof: a `#[global_allocator]` wrapper counts every
//! `alloc`/`realloc`, and the count must not move across the measured
//! half of the run.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use lockgran_core::system::System;
use lockgran_core::{ConflictMode, ModelConfig};
use lockgran_sim::{Executor, Time};

/// Passthrough allocator that counts heap acquisitions (`alloc` and
/// `realloc`; `dealloc` is free to run — returning memory is not the
/// failure mode this test polices) made by a thread that armed it.
///
/// The harness runs these tests on parallel threads, so a process-wide
/// count would charge one test's set-up to another's measured window.
/// The count therefore lives in a thread-local: `None` while the thread
/// is not measuring, `Some(n)` while it is.
struct CountingAlloc;

thread_local! {
    /// `const`-initialised, so touching it from inside the allocator never
    /// allocates (a lazily initialised thread-local could recurse).
    static ACQUISITIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_if_armed() {
    // `try_with` because the allocator also runs while thread-locals are
    // being torn down at thread exit.
    let _ = ACQUISITIONS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

/// Heap acquisitions made by the calling thread while `f` runs.
fn acquisitions_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ACQUISITIONS.with(|c| c.set(Some(0)));
    let out = f();
    let n = ACQUISITIONS.with(Cell::take).unwrap_or(0);
    (out, n)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Drive a configuration through a warm half (capacities settle, the
/// event list reaches its peak population, server queues reach their
/// high-water marks, lock-table pools fill) and then a measured half
/// that must perform **exactly zero** heap acquisitions on this thread.
fn assert_steady_state_is_silent(cfg: ModelConfig, what: &str) {
    let mut ex = Executor::new();
    let mut system = System::new(&cfg, 42, &mut ex);
    let horizon = system.tmax();

    // Start-up transient: arrivals fill the slab, buffers and queues grow
    // to their working sizes. Allocation here is expected and amortized.
    let mid = Time::from_units(horizon.units() / 2.0);
    ex.run(&mut system, mid);
    let events_before = ex.events_processed();

    // Steady state: every buffer is recycled, so the heap must be silent.
    let (end, allocs) = acquisitions_during(|| ex.run(&mut system, horizon));
    let events = ex.events_processed() - events_before;

    assert!(
        events > 1_000,
        "{what}: measured half processed only {events} events — not a meaningful audit"
    );
    assert_eq!(
        allocs, 0,
        "{what}: steady state performed {allocs} heap acquisitions over {events} events"
    );

    // The run itself must still be a valid, completing simulation.
    let metrics = system.finish(end);
    assert!(metrics.totcom > 0, "{what}: no transactions completed");
}

#[test]
fn table1_steady_state_allocates_nothing() {
    assert_steady_state_is_silent(ModelConfig::table1().with_tmax(4_000.0), "probabilistic");
}

/// The explicit model runs the conservative protocol against the real
/// pooled lock table: granule sampling, request merging, blocking,
/// wake-up and retry must all recycle their buffers.
#[test]
fn explicit_steady_state_allocates_nothing() {
    let cfg = ModelConfig::table1()
        .with_conflict(ConflictMode::Explicit)
        .with_tmax(4_000.0);
    assert_steady_state_is_silent(cfg, "explicit");
}

/// Incremental 2PL adds the waits-for graph, deadlock detection and
/// victim abort/replay on top of the lock table — the full machinery
/// must be allocation-free once warm.
#[test]
fn twophase_steady_state_allocates_nothing() {
    let cfg = ModelConfig::table1()
        .with_conflict(ConflictMode::Twophase)
        .with_tmax(4_000.0);
    assert_steady_state_is_silent(cfg, "twophase");
}

/// Arena reuse audit: the second run through a [`RunArena`] must get by
/// on a small, `ntrans`-independent allocation budget. The first run
/// builds the slab, the conflict tables, the FEL's storage and every
/// scratch buffer; the reset keeps all of it, so run two only pays for
/// the few structures rebuilt per reset (the response histogram and the
/// per-processor server vector — O(npros + histogram buckets), not
/// O(ntrans) or O(events)).
#[test]
fn arena_second_run_allocates_a_small_fraction_of_the_first() {
    let cfg = ModelConfig::table1().with_tmax(1_500.0);
    let mut arena = lockgran_core::RunArena::new();

    let (first, cold) = acquisitions_during(|| arena.run(&cfg, 7));
    let (second, warm) = acquisitions_during(|| arena.run(&cfg, 8));

    assert!(first.totcom > 0 && second.totcom > 0);
    assert!(
        warm * 10 <= cold,
        "arena reuse saved too little: cold run {cold} acquisitions, warm run {warm}"
    );
}
