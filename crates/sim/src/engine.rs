//! Event loop.
//!
//! [`Executor`] owns the clock and the future-event list; a user-supplied
//! [`Model`] owns all simulation state and reacts to events. The executor
//! is deliberately dumb: pop the earliest event, advance the clock, hand it
//! to the model, repeat until the horizon. Everything interesting —
//! queues, servers, blocking — lives in the model, which keeps this kernel
//! reusable and trivially testable.
//!
//! The future-event list is pluggable via [`FelKind`]: the production
//! flat 4-ary [`QuadHeap`] or the std-`BinaryHeap` [`EventQueue`] that
//! tests hold it against. Both order events by the same stable
//! `(time, seq)` key, so a model observes the identical event sequence —
//! and therefore makes the identical RNG draws — under either.

use crate::event::EventQueue;
use crate::quadheap::QuadHeap;
use crate::time::{Dur, Time};

/// A discrete-event model: reacts to its own event type, scheduling
/// follow-on events through the executor.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event at simulated time `now`. New events are scheduled
    /// via [`Executor::schedule`] / [`Executor::schedule_in`].
    fn handle(&mut self, now: Time, event: Self::Event, ex: &mut Executor<Self::Event>);
}

/// Which future-event list implementation an [`Executor`] pumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FelKind {
    /// Std-`BinaryHeap` [`EventQueue`]: the reference oracle tests compare
    /// the production FEL against.
    Heap,
    /// Flat 4-ary [`QuadHeap`]: the production FEL.
    QuadHeap,
}

impl FelKind {
    /// The production FEL under its former name. It exists only because
    /// the host-time benchmark (`perfbench/`) still spells
    /// `FelKind::Calendar`; it goes when a benchmark change renames that
    /// call.
    #[allow(non_upper_case_globals)]
    pub const Calendar: FelKind = FelKind::QuadHeap;
}

/// The future-event list behind an executor. Both variants share the
/// stable `(time, seq)` total order, so they are interchangeable without
/// perturbing event order (the bit-identity contract DESIGN.md §9
/// documents).
enum Fel<E> {
    Heap(EventQueue<E>),
    QuadHeap(QuadHeap<E>),
}

impl<E> Fel<E> {
    fn push(&mut self, at: Time, event: E) {
        match self {
            Fel::Heap(q) => q.push(at, event),
            Fel::QuadHeap(q) => q.push(at, event),
        }
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        match self {
            Fel::Heap(q) => q.pop(),
            Fel::QuadHeap(q) => q.pop(),
        }
    }

    fn peek_time(&self) -> Option<Time> {
        match self {
            Fel::Heap(q) => q.peek_time(),
            Fel::QuadHeap(q) => q.peek_time(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Fel::Heap(q) => q.len(),
            Fel::QuadHeap(q) => q.len(),
        }
    }

    fn clear(&mut self) {
        match self {
            Fel::Heap(q) => q.clear(),
            Fel::QuadHeap(q) => q.clear(),
        }
    }
}

/// The simulation executor: clock plus future-event list.
pub struct Executor<E> {
    queue: Fel<E>,
    now: Time,
    events_processed: u64,
}

impl<E> Default for Executor<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Executor<E> {
    /// A fresh executor with the clock at [`Time::ZERO`], pumping the
    /// production FEL ([`FelKind::QuadHeap`]).
    pub fn new() -> Self {
        Self::with_fel(FelKind::QuadHeap)
    }

    /// A fresh executor pumping the chosen future-event list.
    pub fn with_fel(kind: FelKind) -> Self {
        let queue = match kind {
            FelKind::Heap => Fel::Heap(EventQueue::new()),
            FelKind::QuadHeap => Fel::QuadHeap(QuadHeap::new()),
        };
        Executor {
            queue,
            now: Time::ZERO,
            events_processed: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Rewind to a pristine state — clock at [`Time::ZERO`], no pending
    /// events, counters zeroed — while keeping the FEL's grown storage.
    /// A reset executor is observationally identical to a fresh one (same
    /// FEL kind, same `(time, seq)` pop order), so sweep harnesses can
    /// reuse one executor across runs without perturbing results.
    pub fn reset(&mut self) {
        self.queue.clear();
        self.now = Time::ZERO;
        self.events_processed = 0;
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// In debug builds, panics if `at` is in the past — scheduling into the
    /// past is always a model bug.
    pub fn schedule(&mut self, at: Time, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past ({at:?} < {:?})",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Schedule `event` after a delay of `d` from the current time.
    pub fn schedule_in(&mut self, d: Dur, event: E) {
        self.queue.push(self.now + d, event);
    }

    /// Number of events handled so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Run the model until the event list drains or the next event would
    /// fire strictly after `until`. Events at exactly `until` are
    /// processed. Returns the final clock value (== `until` if the horizon
    /// was hit, otherwise the time of the last processed event).
    pub fn run<M: Model<Event = E>>(&mut self, model: &mut M, until: Time) -> Time {
        while let Some(at) = self.queue.peek_time() {
            if at > until {
                break;
            }
            let Some((at, event)) = self.queue.pop() else {
                break;
            };
            self.now = at;
            self.events_processed += 1;
            model.handle(at, event, self);
        }
        // The horizon defines "end of measurement" even if the system went
        // quiet earlier; report it so busy-time denominators are consistent.
        if until > self.now {
            self.now = until;
        }
        self.now
    }

    /// Run a bounded number of events (diagnostic / stepping aid).
    /// Returns the number actually processed.
    pub fn step<M: Model<Event = E>>(&mut self, model: &mut M, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events {
            match self.queue.pop() {
                Some((at, event)) => {
                    self.now = at;
                    self.events_processed += 1;
                    model.handle(at, event, self);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    #[derive(Debug)]
    struct Tagged(u32);

    impl Model for Recorder {
        type Event = Tagged;
        fn handle(&mut self, now: Time, ev: Tagged, _ex: &mut Executor<Tagged>) {
            self.seen.push((now.ticks(), ev.0));
        }
    }

    #[test]
    fn processes_in_order_and_stops_at_horizon() {
        let mut m = Recorder::default();
        let mut ex = Executor::new();
        ex.schedule(Time::from_ticks(10), Tagged(1));
        ex.schedule(Time::from_ticks(5), Tagged(0));
        ex.schedule(Time::from_ticks(50), Tagged(9)); // beyond horizon
        let end = ex.run(&mut m, Time::from_ticks(20));
        assert_eq!(m.seen, vec![(5, 0), (10, 1)]);
        assert_eq!(end, Time::from_ticks(20));
        assert_eq!(ex.pending(), 1);
        assert_eq!(ex.events_processed(), 2);
    }

    #[test]
    fn event_at_exact_horizon_fires() {
        let mut m = Recorder::default();
        let mut ex = Executor::new();
        ex.schedule(Time::from_ticks(20), Tagged(7));
        ex.run(&mut m, Time::from_ticks(20));
        assert_eq!(m.seen, vec![(20, 7)]);
    }

    struct Chain {
        hops: u32,
    }
    impl Model for Chain {
        type Event = ();
        fn handle(&mut self, _now: Time, _ev: (), ex: &mut Executor<()>) {
            self.hops += 1;
            ex.schedule_in(Dur::from_ticks(3), ());
        }
    }

    #[test]
    fn self_scheduling_chain_respects_horizon() {
        let mut m = Chain { hops: 0 };
        let mut ex = Executor::new();
        ex.schedule(Time::ZERO, ());
        ex.run(&mut m, Time::from_ticks(10));
        // Fires at t = 0, 3, 6, 9; next (12) is beyond the horizon.
        assert_eq!(m.hops, 4);
    }

    #[test]
    fn step_bounds_work() {
        let mut m = Chain { hops: 0 };
        let mut ex = Executor::new();
        ex.schedule(Time::ZERO, ());
        assert_eq!(ex.step(&mut m, 5), 5);
        assert_eq!(m.hops, 5);
    }

    #[test]
    fn clock_advances_to_horizon_when_queue_drains() {
        let mut m = Recorder::default();
        let mut ex = Executor::new();
        ex.schedule(Time::from_ticks(2), Tagged(0));
        let end = ex.run(&mut m, Time::from_ticks(100));
        assert_eq!(end, Time::from_ticks(100));
        assert_eq!(ex.now(), Time::from_ticks(100));
    }

    /// A reset executor replays a workload identically to a fresh one,
    /// for both FEL kinds.
    #[test]
    fn reset_executor_replays_identically() {
        for kind in [FelKind::Heap, FelKind::QuadHeap] {
            let drive = |ex: &mut Executor<Tagged>| {
                let mut m = Recorder::default();
                for i in 0..80u32 {
                    ex.schedule(Time::from_ticks(u64::from(i % 9) * 7), Tagged(i));
                }
                ex.run(&mut m, Time::from_ticks(1_000));
                m.seen
            };
            let mut ex = Executor::with_fel(kind);
            let first = drive(&mut ex);
            assert!(ex.now() > Time::ZERO);
            ex.reset();
            assert_eq!(ex.now(), Time::ZERO);
            assert_eq!(ex.pending(), 0);
            assert_eq!(ex.events_processed(), 0);
            let second = drive(&mut ex);
            assert_eq!(first, second);
        }
    }

    /// Both FEL kinds drive a model through the identical event sequence —
    /// including FIFO ties — which is the bit-identity foundation the
    /// production engine relies on.
    #[test]
    fn reference_and_production_executors_see_identical_sequences() {
        let run = |kind: FelKind| {
            let mut m = Recorder::default();
            let mut ex = Executor::with_fel(kind);
            for i in 0..50u32 {
                ex.schedule(Time::from_ticks(u64::from(i % 7) * 10), Tagged(i));
            }
            ex.run(&mut m, Time::from_ticks(1_000));
            m.seen
        };
        assert_eq!(run(FelKind::Heap), run(FelKind::QuadHeap));
    }
}
