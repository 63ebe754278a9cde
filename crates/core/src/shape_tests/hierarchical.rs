//! [`ConservativeConflict`](crate::ConservativeConflict) in the tree
//! request shape (`ConflictMode::Hierarchical`): database → area →
//! granule, with escalation and `IX` intents on the ancestors.

#[cfg(test)]
mod tests {
    use crate::conflict::{build_concurrency_control, ConcurrencyControl, ConflictDecision::*};
    use crate::conservative::tests::{acquire, flat, holds_nothing, release, retry, tree};
    use crate::{ConflictMode, HierarchySpec, ModelConfig};
    use lockgran_sim::SimRng;

    #[test]
    fn disjoint_areas_admit_concurrently() {
        // 100 granules in 10 areas of 10; transactions in different areas
        // only share the database IX, which is compatible.
        let mut m = tree(10, None);
        assert_eq!(acquire(&mut m, 1, &[0, 1, 2]), Granted);
        assert_eq!(acquire(&mut m, 2, &[55, 56]), Granted);
        assert_eq!(m.active_count(), 2);
        assert_eq!(m.locks_held(), 5);
        // Each grant carries database + area intention locks.
        assert_eq!(m.stats().intent_locks, 4);
        assert_eq!(m.stats().escalations, 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn overlapping_leaves_block_like_explicit() {
        let mut m = tree(10, None);
        assert_eq!(acquire(&mut m, 1, &[7, 8]), Granted);
        assert_eq!(acquire(&mut m, 2, &[8]), BlockedBy(1));
        assert!(holds_nothing(&m, 2), "not even the intents");
        assert_eq!(release(&mut m, 1), vec![2]);
        // The retry passes an empty slice: the saved set is replayed.
        assert_eq!(retry(&mut m, 2, 1), Granted);
        assert_eq!(m.locks_held(), 1);
        assert_eq!(acquire(&mut m, 3, &[8]), BlockedBy(2));
        m.check_invariants().unwrap();
    }

    #[test]
    fn threshold_one_serializes_everything() {
        // Immediate escalation: every non-empty request is an X on the
        // database root, so even disjoint granule sets serialize.
        let mut m = tree(10, Some(1));
        assert_eq!(acquire(&mut m, 1, &[0]), Granted);
        for t in 2..10 {
            assert_eq!(acquire(&mut m, t, &[99]), BlockedBy(1));
        }
        assert_eq!(m.stats().escalations, 2, "the area, then the database");
        assert_eq!(m.stats().intent_locks, 0, "a root X needs no intents");
    }

    #[test]
    fn escalation_covers_undeclared_granules_in_the_area() {
        // Area size 10, threshold 3: declaring granules 0..3 escalates to
        // the whole area, so granule 9 (undeclared) is covered too.
        let mut m = tree(10, Some(3));
        assert_eq!(acquire(&mut m, 1, &[0, 1, 2]), Granted);
        assert_eq!(m.stats().escalations, 1);
        assert_eq!(
            acquire(&mut m, 2, &[9]),
            BlockedBy(1),
            "area lock must cover undeclared granule 9"
        );
        // A different area stays available.
        assert_eq!(acquire(&mut m, 3, &[10]), Granted);
    }

    #[test]
    fn never_escalating_matches_explicit_decisions() {
        // Same request stream through both shapes: without escalation
        // intention locks never conflict, so every decision (and wake
        // order) must agree with the flat table.
        let sets: &[&[u64]] = &[
            &[0, 1, 2],
            &[2, 3],
            &[50, 51],
            &[1],
            &[99],
            &[10, 20, 30, 40],
        ];
        let mut h = tree(16, None);
        let mut e = flat();
        for (txn, set) in sets.iter().enumerate() {
            let txn = txn as u64;
            assert_eq!(
                acquire(&mut h, txn, set),
                acquire(&mut e, txn, set),
                "decision diverged for txn {txn}"
            );
        }
        // Drain the admitted transactions; wake lists must agree too.
        for txn in [0u64, 2, 5] {
            assert_eq!(
                release(&mut h, txn),
                release(&mut e, txn),
                "wake list diverged releasing txn {txn}"
            );
        }
        assert_eq!(h.stats().escalations, 0);
    }

    #[test]
    fn empty_set_admits_without_locks() {
        // Even with threshold 1 a zero-lock transaction locks nothing, so
        // a second one is admitted concurrently.
        let mut m = tree(10, Some(1));
        assert_eq!(acquire(&mut m, 1, &[]), Granted);
        assert_eq!(m.locks_held(), 0);
        assert_eq!(acquire(&mut m, 2, &[]), Granted);
        assert_eq!(m.stats().escalations, 0);
        assert!(release(&mut m, 1).is_empty());
    }

    #[test]
    fn factory_uses_config_spec() {
        // 4 areas of 25 granules, threshold 2, taken from the config: two
        // leaves of area 0 escalate to the area, which covers granule 24
        // but not granule 25.
        let cfg = ModelConfig::table1()
            .with_ltot(100)
            .with_conflict(ConflictMode::Hierarchical)
            .with_hierarchy(Some(HierarchySpec {
                areas: 4,
                escalation_threshold: Some(2),
            }));
        let mut m = build_concurrency_control(&cfg);
        let mut rng = SimRng::new(7);
        assert_eq!(m.try_acquire(1, 2, &[0, 1], &mut rng), Granted);
        assert_eq!(m.stats().escalations, 1);
        assert_eq!(m.try_acquire(2, 1, &[24], &mut rng), BlockedBy(1));
        assert_eq!(m.try_acquire(3, 1, &[25], &mut rng), Granted);
    }

    #[test]
    #[should_panic(expected = "release of inactive")]
    fn release_of_unknown_txn_panics() {
        release(&mut tree(2, None), 5);
    }
}
