//! Flat 4-ary min-heap — the production future-event list.
//!
//! One `Vec` of entries laid out as an implicit 4-ary heap: the children
//! of slot `i` are `4i+1 ..= 4i+4`. Each entry is keyed by a single packed
//! `u128` = `(ticks << 64) | seq`, so the stable `(time, seq)` order of
//! [`crate::event::EventQueue`] — **FIFO among simultaneous events** — is
//! one integer compare. Four children per node halve the tree depth of a
//! binary heap and keep each level's siblings adjacent in memory, which
//! is what makes the heap cheaper than the std binary heap at the
//! 10⁵-event populations of capacity-scale runs.
//!
//! `clear` keeps the vector's capacity, so once a run's population has
//! peaked no push allocates (`tests/steady_state_alloc.rs` enforces this).

use crate::time::Time;

/// Children per node.
const ARITY: usize = 4;

struct Entry<E> {
    /// `(ticks << 64) | seq` — the whole `(time, seq)` order in one integer.
    key: u128,
    event: E,
}

/// A 4-ary min-heap future-event list (see module docs).
pub struct QuadHeap<E> {
    entries: Vec<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for QuadHeap<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> QuadHeap<E> {
    /// An empty queue.
    pub fn new() -> Self {
        QuadHeap {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let key = (u128::from(at.ticks()) << 64) | u128::from(self.next_seq);
        self.next_seq += 1;
        self.entries.push(Entry { key, event });
        self.sift_up(self.entries.len() - 1);
    }

    /// Remove and return the earliest event, together with its firing time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.entries.is_empty() {
            return None;
        }
        let top = self.entries.swap_remove(0);
        self.sift_down(0);
        Some((time_of(top.key), top.event))
    }

    /// Firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.entries.first().map(|e| time_of(e.key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every pending event and restart the sequence counter, keeping
    /// the vector's allocation for reuse. After `clear` the queue is
    /// indistinguishable from a fresh one except for retained capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.next_seq = 0;
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.entries[i].key;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.entries[parent].key <= key {
                break;
            }
            self.entries.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.entries.len();
        let Some(key) = self.entries.get(i).map(|e| e.key) else {
            return;
        };
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            let mut best_key = self.entries[first].key;
            for c in first + 1..(first + ARITY).min(len) {
                let k = self.entries[c].key;
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if key <= best_key {
                break;
            }
            self.entries.swap(i, best);
            i = best;
        }
    }
}

fn time_of(key: u128) -> Time {
    // The high half is exactly the `u64` tick count `push` packed in.
    Time::from_ticks((key >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::rng::SimRng;

    /// Pop both queues in lockstep until both are empty, asserting every
    /// `(time, event)` pair agrees.
    fn drain_in_lockstep(quad: &mut QuadHeap<u64>, heap: &mut EventQueue<u64>, what: &str) {
        loop {
            assert_eq!(quad.peek_time(), heap.peek_time(), "{what}");
            let a = quad.pop();
            assert_eq!(a, heap.pop(), "{what}");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = QuadHeap::new();
        q.push(Time::from_ticks(300), "c");
        q.push(Time::from_ticks(100), "a");
        q.push(Time::from_ticks(200), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = QuadHeap::new();
        for t in [
            Time::ZERO,
            Time::from_ticks(500),
            Time::from_ticks(u64::MAX),
        ] {
            for i in 0..200 {
                q.push(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..200).collect::<Vec<_>>());
        }
    }

    /// Peeking is idempotent, removes nothing, and always names the time
    /// the next pop returns.
    #[test]
    fn peek_matches_pop_and_leaves_queue_intact() {
        let mut rng = SimRng::new(47);
        let mut q = QuadHeap::new();
        let mut clock = 0u64;
        for i in 0..2_000u64 {
            q.push(Time::from_ticks(clock + rng.uniform_inclusive(0, 300)), i);
            if rng.bernoulli(0.6) {
                let before = q.len();
                let peeked = q.peek_time();
                assert_eq!(q.peek_time(), peeked);
                assert_eq!(q.len(), before);
                let (t, _) = q.pop().unwrap();
                assert_eq!(peeked, Some(t));
                clock = t.ticks();
            }
        }
        while let Some(t) = q.peek_time() {
            assert_eq!(q.pop().map(|(at, _)| at), Some(t));
        }
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// A cleared queue — even one that grew large and whose clock and
    /// sequence counter advanced far — drains a fresh workload in exactly
    /// the order a brand-new queue would, without reallocating.
    #[test]
    fn clear_matches_fresh_queue_after_growth() {
        let mut grown = QuadHeap::new();
        for i in 0..5_000u64 {
            grown.push(Time::from_ticks(i * 7), i);
        }
        while grown.pop().is_some() {}
        let capacity = grown.entries.capacity();
        grown.clear();
        assert!(grown.is_empty());
        assert_eq!(grown.peek_time(), None);
        assert_eq!(grown.entries.capacity(), capacity);

        let mut fresh = EventQueue::new();
        let mut rng = SimRng::new(271);
        let mut clock = 0u64;
        for id in 0..3_000u64 {
            let dt = if rng.bernoulli(0.3) {
                0
            } else {
                rng.uniform_inclusive(0, 120)
            };
            let at = Time::from_ticks(clock + dt);
            grown.push(at, id);
            fresh.push(at, id);
            if rng.bernoulli(0.5) {
                let a = grown.pop();
                assert_eq!(a, fresh.pop());
                if let Some((t, _)) = a {
                    clock = t.ticks();
                }
            }
        }
        drain_in_lockstep(&mut grown, &mut fresh, "after clear");
        assert_eq!(grown.entries.capacity(), capacity);
    }

    /// Seeded property test: interleaved push/peek/pop traffic with time
    /// plateaus (forcing ties) and bursts (growing and shrinking the heap
    /// by tens of entries at a time) agrees with the binary-heap FEL at
    /// every step.
    #[test]
    fn prop_agrees_with_heap_through_bursts_and_plateaus() {
        for case in 0..40u64 {
            let mut rng = SimRng::new(9_000 + case);
            let mut quad = QuadHeap::new();
            let mut heap = EventQueue::new();
            let mut clock = 0u64;
            let mut id = 0u64;
            for _ in 0..600 {
                let burst = if rng.bernoulli(0.1) {
                    rng.uniform_inclusive(20, 60)
                } else {
                    rng.uniform_inclusive(0, 2)
                };
                for _ in 0..burst {
                    let dt = if rng.bernoulli(0.3) {
                        0 // plateau: simultaneous events
                    } else {
                        rng.uniform_inclusive(0, 200)
                    };
                    let at = Time::from_ticks(clock + dt);
                    quad.push(at, id);
                    heap.push(at, id);
                    id += 1;
                }
                for _ in 0..rng.uniform_inclusive(0, 8) {
                    assert_eq!(quad.peek_time(), heap.peek_time(), "case {case}");
                    let a = quad.pop();
                    assert_eq!(a, heap.pop(), "diverged in case {case}");
                    if let Some((t, _)) = a {
                        clock = t.ticks();
                    }
                }
            }
            drain_in_lockstep(&mut quad, &mut heap, &format!("case {case} drain"));
        }
    }

    /// The `capacity` shape: a 10⁵-event bootstrap of monotone pushes
    /// (every resident transaction's first event), then steady
    /// push/pop churn at that population, then a full drain.
    #[test]
    fn capacity_bootstrap_agrees_with_heap() {
        let mut rng = SimRng::new(100_029);
        let mut quad = QuadHeap::new();
        let mut heap = EventQueue::new();
        for id in 0..100_000u64 {
            let at = Time::from_ticks(id / 3);
            quad.push(at, id);
            heap.push(at, id);
        }
        let mut clock = 0u64;
        for id in 100_000..300_000u64 {
            let a = quad.pop();
            assert_eq!(a, heap.pop(), "churn event {id}");
            if let Some((t, _)) = a {
                clock = t.ticks();
            }
            let at = Time::from_ticks(clock + rng.uniform_inclusive(0, 50_000));
            quad.push(at, id);
            heap.push(at, id);
        }
        assert_eq!(quad.len(), 100_000);
        drain_in_lockstep(&mut quad, &mut heap, "capacity drain");
    }
}
