//! [`ConservativeConflict`](crate::ConservativeConflict) in the flat
//! request shape (`ConflictMode::Explicit`): an `X` lock on every declared
//! granule, nothing else.

#[cfg(test)]
mod tests {
    use crate::conflict::{ConcurrencyControl, ConflictDecision::*};
    use crate::conservative::tests::{acquire, flat, holds_nothing, release, retry, sampler};
    use crate::ConservativeConflict;
    use lockgran_lockmgr::{GranuleId, LockMode, TxnId};

    #[test]
    fn disjoint_sets_admit_concurrently() {
        let mut m = flat();
        assert_eq!(acquire(&mut m, 1, &[0, 1, 2]), Granted);
        assert_eq!(acquire(&mut m, 2, &[5, 6]), Granted);
        assert_eq!(m.active_count(), 2);
        assert_eq!(m.locks_held(), 5);
        // The flat shape locks the granules themselves: no intents.
        let held: Vec<_> = m.table().holdings(TxnId(2)).collect();
        assert_eq!(held, vec![GranuleId(5), GranuleId(6)]);
        assert_eq!(
            m.table().held_mode(TxnId(2), GranuleId(5)),
            Some(LockMode::X)
        );
        assert_eq!(m.stats().intent_locks, 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn overlapping_set_blocks_on_holder() {
        let mut m = flat();
        assert_eq!(acquire(&mut m, 1, &[0, 1, 2]), Granted);
        assert_eq!(acquire(&mut m, 2, &[2, 3]), BlockedBy(1));
        // The blocked transaction holds nothing and counts as inactive.
        assert!(holds_nothing(&m, 2));
        assert_eq!(m.active_count(), 1);
        assert_eq!(m.locks_held(), 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn retry_uses_saved_granule_set() {
        let mut m = flat();
        assert_eq!(acquire(&mut m, 1, &[4]), Granted);
        assert_eq!(acquire(&mut m, 2, &[4]), BlockedBy(1));
        assert_eq!(release(&mut m, 1), vec![2]);
        // The retry passes an empty slice: the saved set must be used.
        assert_eq!(retry(&mut m, 2, 1), Granted);
        assert_eq!(m.locks_held(), 1);
        assert_eq!(acquire(&mut m, 3, &[4]), BlockedBy(2));
        m.check_invariants().unwrap();
    }

    #[test]
    fn release_wakes_all_dependents() {
        let mut m = flat();
        assert_eq!(acquire(&mut m, 1, &[0, 1]), Granted);
        assert_eq!(acquire(&mut m, 2, &[0]), BlockedBy(1));
        assert_eq!(acquire(&mut m, 3, &[1]), BlockedBy(1));
        assert_eq!(release(&mut m, 1), vec![2, 3]);
        assert_eq!(m.active_count(), 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn whole_database_lock_serializes() {
        // `ltot = 1`: every transaction locks the one granule.
        let mut m = ConservativeConflict::new(sampler(1), None);
        assert_eq!(acquire(&mut m, 1, &[0]), Granted);
        for t in 2..10 {
            assert_eq!(acquire(&mut m, t, &[0]), BlockedBy(1));
        }
        assert_eq!(release(&mut m, 1), (2..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "release of inactive")]
    fn release_of_unknown_txn_panics() {
        release(&mut flat(), 5);
    }
}
