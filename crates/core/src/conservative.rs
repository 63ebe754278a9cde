//! Conservative (predeclared, all-or-nothing) locking over a real lock
//! table — the protocol the paper simulates.
//!
//! "Transactions request all needed locks before using the I/O and CPU
//! resources. Thus deadlock is impossible." (paper §2). Each attempt
//! presents the transaction's complete lock set: either every lock is
//! granted at once, or none is and the transaction blocks on the first
//! conflicting holder. A completing transaction releases everything and
//! wakes every transaction blocked on it, in the order they blocked; each
//! retries with the set it declared. A blocked transaction never holds a
//! partial set, so deadlock stays impossible.
//!
//! Unlike the paper's probabilistic partition draw
//! ([`crate::conflict::ProbabilisticConflict`]), the granule sets are
//! materialized (sampled to match the placement model, see
//! [`lockgran_workload::access`]), so conflicts are exact set
//! intersections. The configured [`ConflictMode`] picks the shape of the
//! request:
//!
//! * **Explicit** — the flat granules, each in `X` (the paper locks
//!   exclusively).
//! * **Hierarchical** — Gray's multigranularity protocol over a database
//!   → area → granule tree. The declared leaves first pass through
//!   [`escalate_predeclared_into`]: an area covering at least
//!   `escalation_threshold` declared granules is requested whole, and
//!   clustered area locks cascade to the database. Every surviving
//!   target is then requested in `X` with `IX` on each of its ancestors.
//!
//! Either way the request is sorted by flat id (in the tree: database,
//! areas, then granules) and duplicates merge by supremum, so the probe
//! meets the first conflicting holder deterministically. Without
//! escalation, intention locks never conflict (every non-leaf lock is
//! `IX`), so the tree admits exactly the flat shape's schedules and only
//! adds intent-chain overhead. With `escalation_threshold = Some(1)`
//! every non-empty request collapses to an `X` on the root:
//! whole-database locking, the paper's `ltot = 1` extreme.
//!
//! Every per-transaction buffer is pooled, so the steady-state
//! request/release cycle of the flat shape allocates nothing.

use lockgran_lockmgr::{
    escalate_predeclared_into, EscalationPolicy, GranuleId, GranuleTree, LockMode, LockTable,
    NodeId, TxnId,
};
use lockgran_sim::{DetMap, SimRng};
use lockgran_workload::HierarchyMap;

use crate::config::{ConflictMode, HierarchySpec, ModelConfig};
use crate::conflict::{AccessSampler, CcStats, ConcurrencyControl, ConflictDecision, TxnSerial};

/// The database → area → granule tree of the hierarchical shape, with
/// the scratch buffers its request expansion reuses.
struct Hierarchy {
    map: HierarchyMap,
    tree: GranuleTree,
    policy: EscalationPolicy,
    /// Scratch: declared leaves of the current attempt.
    leaves: Vec<NodeId>,
    /// Scratch: escalation survivors of the current attempt.
    targets: Vec<(NodeId, LockMode)>,
    /// Scratch: escalation working sets (see `escalate_predeclared_into`).
    current: Vec<NodeId>,
    promoted: Vec<NodeId>,
}

impl Hierarchy {
    /// The tree for `ltot` granules under `spec`. The tree is a pure
    /// function of the effective geometry, so `prev` (with its scratch
    /// capacity) is kept when its map equals the one `spec` yields.
    ///
    /// # Panics
    /// Panics if `ltot == 0` or `spec.areas == 0`.
    fn for_spec(prev: Option<Hierarchy>, ltot: u64, spec: HierarchySpec) -> Self {
        let map = HierarchyMap::new(ltot, spec.areas);
        let policy = match spec.escalation_threshold {
            None => EscalationPolicy::never(),
            Some(t) => EscalationPolicy {
                threshold: usize::try_from(t).unwrap_or(usize::MAX),
            },
        };
        match prev {
            Some(h) if h.map == map => Hierarchy { policy, ..h },
            _ => Hierarchy {
                map,
                tree: GranuleTree::new(&map.fanouts()),
                policy,
                leaves: Vec::new(),
                targets: Vec::new(),
                current: Vec::new(),
                promoted: Vec::new(),
            },
        }
    }

    /// Append the escalated targets of the flat granule `set`, each
    /// preceded by the intention locks on its ancestors, to `request`.
    /// Returns the escalations performed.
    fn expand(&mut self, set: &[u64], request: &mut Vec<(GranuleId, LockMode)>) -> u64 {
        let leaf = self.tree.leaf_level();
        self.leaves.clear();
        self.leaves.extend(set.iter().map(|&g| NodeId {
            level: leaf,
            index: g,
        }));
        let escalations = escalate_predeclared_into(
            &self.tree,
            self.policy,
            &self.leaves,
            LockMode::X,
            &mut self.targets,
            &mut self.current,
            &mut self.promoted,
        );
        for &(node, mode) in &self.targets {
            let intent = mode.required_ancestor_intent();
            let mut up = self.tree.parent(node);
            while let Some(a) = up {
                request.push((self.tree.flat_id(a), intent));
                up = self.tree.parent(a);
            }
            request.push((self.tree.flat_id(node), mode));
        }
        escalations
    }
}

/// What the protocol knows about one transaction.
enum Record {
    /// Holds its whole lock set; `locks` is its share of
    /// [`ConcurrencyControl::locks_held`] (the paper's `LU` count,
    /// independent of escalation). `waiters` are blocked on it, in the
    /// order they blocked.
    Active { locks: u64, waiters: Vec<TxnSerial> },
    /// Holds nothing. `on` is the holder it waits for, `None` once that
    /// holder has released and woken it; `set` is replayed on retry, so a
    /// retry contends for the granules it failed on.
    Blocked {
        on: Option<TxnSerial>,
        set: Vec<u64>,
    },
}

/// Conservative locking over a [`LockTable`], in the flat (explicit) or
/// the tree (hierarchical) request shape (see module docs).
pub struct ConservativeConflict {
    table: LockTable,
    /// `None` requests the flat granules; `Some` the tree shape.
    hierarchy: Option<Hierarchy>,
    sampler: AccessSampler,
    /// One record per active or blocked transaction.
    txns: DetMap<Record>,
    /// Retired set and waiter buffers (cleared), recycled through the
    /// records.
    spare: Vec<Vec<u64>>,
    active: u64,
    locks_held: u64,
    stats: CcStats,
    /// Scratch: the sorted, merged request of the current attempt.
    request: Vec<(GranuleId, LockMode)>,
    /// Scratch sinks the table fills; conservative locking leaves both
    /// empty.
    blockers: Vec<TxnId>,
    promoted: Vec<(TxnId, GranuleId, LockMode)>,
}

impl ConservativeConflict {
    /// The protocol over `sampler`'s granules: the flat shape when
    /// `hierarchy` is `None`, the tree shape otherwise.
    ///
    /// # Panics
    /// Panics if the tree shape is asked for with `sampler.ltot == 0` or
    /// `areas == 0` (validated configurations never are).
    pub fn new(sampler: AccessSampler, hierarchy: Option<HierarchySpec>) -> Self {
        ConservativeConflict {
            table: LockTable::new(),
            hierarchy: hierarchy.map(|spec| Hierarchy::for_spec(None, sampler.ltot, spec)),
            sampler,
            txns: DetMap::new(),
            spare: Vec::new(),
            active: 0,
            locks_held: 0,
            stats: CcStats::default(),
            request: Vec::new(),
            blockers: Vec::new(),
            promoted: Vec::new(),
        }
    }

    /// The underlying lock table (diagnostics, invariant checks).
    pub fn table(&self) -> &LockTable {
        &self.table
    }

    /// Fill `self.request` with the lock request for `set`: sorted by
    /// flat id, duplicates merged by supremum. Returns the escalations
    /// performed.
    fn build_request(&mut self, set: &[u64]) -> u64 {
        let request = &mut self.request;
        request.clear();
        let escalations = match &mut self.hierarchy {
            None => {
                request.extend(set.iter().map(|&g| (GranuleId(g), LockMode::X)));
                0
            }
            Some(h) => h.expand(set, request),
        };
        request.sort_unstable_by_key(|&(g, _)| g);
        request.dedup_by(|(g, m), (kept, kept_mode)| {
            let duplicate = g == kept;
            if duplicate {
                *kept_mode = kept_mode.supremum(*m);
            }
            duplicate
        });
        escalations
    }

    /// Check the table invariants and that the records agree with it and
    /// with each other: a blocked transaction holds nothing and sits in
    /// its holder's waiter list, and every listed waiter is blocked on
    /// that holder.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.table.check_invariants()?;
        let blocked_on = |w: TxnSerial| match self.txns.get(w) {
            Some(Record::Blocked { on, .. }) => *on,
            _ => None,
        };
        let waiters_of = |h: TxnSerial| match self.txns.get(h) {
            Some(Record::Active { waiters, .. }) => waiters.as_slice(),
            _ => &[],
        };
        let (mut active, mut locks_held) = (0, 0);
        for (txn, record) in self.txns.iter() {
            match record {
                Record::Active { locks, waiters } => {
                    active += 1;
                    locks_held += locks;
                    if let Some(w) = waiters.iter().find(|&&w| blocked_on(w) != Some(txn)) {
                        return Err(format!("{w} listed under {txn} but not blocked on it"));
                    }
                }
                Record::Blocked { on, .. } => {
                    if self.table.holdings(TxnId(txn)).next().is_some() {
                        return Err(format!("blocked transaction {txn} holds locks"));
                    }
                    if let Some(h) = on.filter(|&h| !waiters_of(h).contains(&txn)) {
                        return Err(format!("{txn} blocked on {h} but not in its waiter list"));
                    }
                }
            }
        }
        if (active, locks_held) != (self.active, self.locks_held) {
            return Err(format!(
                "{active} active records holding {locks_held} locks, counters say {} and {}",
                self.active, self.locks_held
            ));
        }
        Ok(())
    }
}

impl ConcurrencyControl for ConservativeConflict {
    fn register_access(&mut self, rng: &mut SimRng, entities: u64, granules: &mut Vec<u64>) {
        self.sampler.sample_into(rng, entities, granules);
    }

    /// # Panics
    /// Panics if `txn` already holds locks or is blocked on a holder that
    /// has not released yet: a conservative transaction declares its set
    /// once per attempt.
    fn try_acquire(
        &mut self,
        txn: TxnSerial,
        locks: u64,
        granules: &[u64],
        _rng: &mut SimRng,
    ) -> ConflictDecision {
        // A retry replays the set saved when it blocked; a first attempt
        // copies the set passed in into a pooled buffer.
        let mut set = match self.txns.remove(txn) {
            None => {
                let mut buf = self.spare.pop().unwrap_or_default();
                buf.extend_from_slice(granules);
                buf
            }
            Some(Record::Blocked { on: None, set }) => set,
            Some(Record::Blocked { on: Some(h), .. }) => {
                panic!("transaction {txn} is already blocked on {h}")
            }
            Some(Record::Active { .. }) => panic!("transaction {txn} already holds locks"),
        };
        debug_assert_eq!(
            set.len() as u64,
            locks,
            "granule set size disagrees with lock count"
        );
        let escalations = self.build_request(&set);

        // Probe phase: find the first conflict without acquiring anything.
        let me = TxnId(txn);
        let conflict = self
            .request
            .iter()
            .find_map(|&(g, m)| self.table.first_conflict(me, g, m));
        if let Some(TxnId(holder)) = conflict {
            match self.txns.get_mut(holder) {
                Some(Record::Active { waiters, .. }) => {
                    if waiters.capacity() == 0 {
                        if let Some(buf) = self.spare.pop() {
                            *waiters = buf;
                        }
                    }
                    waiters.push(txn);
                }
                _ => unreachable!("lock holder {holder} has no active record"),
            }
            self.txns.insert(
                txn,
                Record::Blocked {
                    on: Some(holder),
                    set,
                },
            );
            return ConflictDecision::BlockedBy(holder);
        }

        // Acquire phase: every request is grantable, and nothing changed
        // since the probe.
        for &(g, m) in &self.request {
            let granted = self.table.lock_into(me, g, m, &mut self.blockers);
            debug_assert!(granted, "probe said grantable but lock queued");
        }
        self.active += 1;
        self.locks_held += locks;
        self.stats.escalations += escalations;
        self.stats.intent_locks += self
            .request
            .iter()
            .filter(|(_, m)| matches!(m, LockMode::IS | LockMode::IX | LockMode::SIX))
            .count() as u64;
        set.clear();
        self.spare.push(set);
        // The waiter list takes a pooled buffer only once someone blocks.
        let waiters = Vec::new();
        self.txns.insert(txn, Record::Active { locks, waiters });
        ConflictDecision::Granted
    }

    fn release(&mut self, txn: TxnSerial, woken: &mut Vec<TxnSerial>) {
        // Protocol invariant: the system releases only transactions it
        // admitted.
        let Some(Record::Active { locks, mut waiters }) = self.txns.remove(txn) else {
            panic!("release of inactive transaction {txn}");
        };
        self.active -= 1;
        self.locks_held -= locks;
        self.table.release_all_into(TxnId(txn), &mut self.promoted);
        debug_assert!(
            self.promoted.is_empty(),
            "conservative locking never leaves waiters inside the table"
        );
        for &w in &waiters {
            if let Some(Record::Blocked { on, .. }) = self.txns.get_mut(w) {
                debug_assert_eq!(*on, Some(txn));
                *on = None;
            }
        }
        woken.extend_from_slice(&waiters);
        if waiters.capacity() > 0 {
            waiters.clear();
            self.spare.push(waiters);
        }
    }

    fn active_count(&self) -> usize {
        self.active as usize
    }

    fn locks_held(&self) -> u64 {
        self.locks_held
    }

    fn stats(&self) -> CcStats {
        self.stats
    }

    fn reset(&mut self, cfg: &ModelConfig) -> bool {
        let spec = match cfg.conflict {
            ConflictMode::Explicit => None,
            ConflictMode::Hierarchical => Some(cfg.hierarchy_spec()),
            ConflictMode::Probabilistic | ConflictMode::Twophase => return false,
        };
        // A change of shape declines too: one table kept across
        // alternating shapes raised peak RSS by ~7% on the
        // `locktable_churn` benchmark workload, a rebuild does not.
        if spec.is_some() != self.hierarchy.is_some() {
            return false;
        }
        self.sampler = AccessSampler::from_config(cfg);
        let prev = self.hierarchy.take();
        self.hierarchy = spec.map(|spec| Hierarchy::for_spec(prev, cfg.ltot, spec));
        // Reset-equals-fresh throughout: the table, the record map and the
        // pooled buffers all keep their allocations.
        self.table.reset();
        for record in self.txns.values_mut() {
            let (Record::Active { waiters: buf, .. } | Record::Blocked { set: buf, .. }) = record;
            if buf.capacity() > 0 {
                buf.clear();
                self.spare.push(std::mem::take(buf));
            }
        }
        self.txns.clear();
        self.active = 0;
        self.locks_held = 0;
        self.stats = CcStats::default();
        true
    }
}

/// Cases that hold in either request shape, and the helpers the
/// shape-specific cases (`crate::explicit`, `crate::hierarchical`) share.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lockgran_workload::Placement;
    use ConflictDecision::{BlockedBy, Granted};

    pub(crate) fn sampler(ltot: u64) -> AccessSampler {
        AccessSampler {
            placement: Placement::Best,
            ltot,
            dbsize: 5000,
            hot_spot: None,
        }
    }

    /// The flat shape over 100 granules.
    pub(crate) fn flat() -> ConservativeConflict {
        ConservativeConflict::new(sampler(100), None)
    }

    /// The tree shape: 100 granules in `areas` areas.
    pub(crate) fn tree(areas: u64, threshold: Option<u64>) -> ConservativeConflict {
        ConservativeConflict::new(
            sampler(100),
            Some(HierarchySpec {
                areas,
                escalation_threshold: threshold,
            }),
        )
    }

    /// Both shapes, 10 areas of 10 granules in the tree.
    fn both() -> [ConservativeConflict; 2] {
        [flat(), tree(10, None)]
    }

    pub(crate) fn acquire(m: &mut ConservativeConflict, txn: u64, set: &[u64]) -> ConflictDecision {
        m.try_acquire(txn, set.len() as u64, set, &mut SimRng::new(7))
    }

    /// Retry a woken transaction that needs `locks` locks: the caller
    /// passes no set, the saved one is replayed.
    pub(crate) fn retry(m: &mut ConservativeConflict, txn: u64, locks: u64) -> ConflictDecision {
        m.try_acquire(txn, locks, &[], &mut SimRng::new(7))
    }

    pub(crate) fn release(m: &mut ConservativeConflict, txn: u64) -> Vec<u64> {
        let mut woken = Vec::new();
        m.release(txn, &mut woken);
        woken
    }

    pub(crate) fn holds_nothing(m: &ConservativeConflict, txn: u64) -> bool {
        m.table.holdings(TxnId(txn)).next().is_none()
    }

    #[test]
    fn disjoint_sets_run_concurrently() {
        for mut m in both() {
            assert_eq!(acquire(&mut m, 1, &[0, 1, 2]), Granted);
            assert_eq!(acquire(&mut m, 2, &[55, 56]), Granted);
            assert_eq!(m.active_count(), 2);
            assert_eq!(m.locks_held(), 5);
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn overlap_blocks_all_or_nothing() {
        for mut m in both() {
            assert_eq!(acquire(&mut m, 1, &[0, 1, 2]), Granted);
            assert_eq!(acquire(&mut m, 2, &[2, 3, 4]), BlockedBy(1));
            // The blocked transaction holds nothing and counts as inactive.
            assert!(holds_nothing(&m, 2));
            assert_eq!((m.active_count(), m.locks_held()), (1, 3));
            // Nothing partial: granules 3 and 4 are still free for others.
            assert_eq!(acquire(&mut m, 3, &[3, 4]), Granted);
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn release_wakes_blocked_in_fifo_order() {
        for mut m in both() {
            assert_eq!(acquire(&mut m, 1, &[0, 1]), Granted);
            assert_eq!(acquire(&mut m, 2, &[0]), BlockedBy(1));
            assert_eq!(acquire(&mut m, 3, &[1]), BlockedBy(1));
            assert_eq!(acquire(&mut m, 4, &[0]), BlockedBy(1));
            assert_eq!(release(&mut m, 1), vec![2, 3, 4]);
            assert_eq!(m.active_count(), 0);
            // Retries in wake order: the first two win, the third blocks
            // again, now on transaction 2.
            assert_eq!(retry(&mut m, 2, 1), Granted);
            assert_eq!(retry(&mut m, 3, 1), Granted);
            assert_eq!(retry(&mut m, 4, 1), BlockedBy(2));
            m.check_invariants().unwrap();
        }
    }

    #[test]
    fn no_deadlock_under_conservative_protocol() {
        // The classic 2PL deadlock: t1 wants {0,1}, t2 wants {1,0}.
        // Conservatively, whoever asks second simply blocks; no cycle.
        let mut m = flat();
        assert_eq!(acquire(&mut m, 1, &[0, 1]), Granted);
        assert_eq!(acquire(&mut m, 2, &[1, 0]), BlockedBy(1));
        assert_eq!(release(&mut m, 1), vec![2]);
        assert_eq!(acquire(&mut m, 2, &[1, 0]), Granted);
    }

    #[test]
    fn duplicate_granules_in_request_are_merged() {
        let mut m = flat();
        assert_eq!(acquire(&mut m, 1, &[3, 3, 5]), Granted);
        assert_eq!(m.table.holdings(TxnId(1)).count(), 2);
        assert_eq!(m.table.held_mode(TxnId(1), GranuleId(3)), Some(LockMode::X));
        // Two leaves of one area share the database and area intents:
        // each is requested (and counted) once.
        let mut m = tree(10, None);
        assert_eq!(acquire(&mut m, 1, &[0, 1]), Granted);
        assert_eq!(m.table.holdings(TxnId(1)).count(), 4);
        assert_eq!(m.stats().intent_locks, 2);
        m.check_invariants().unwrap();
    }

    #[test]
    fn blocker_is_deterministic_lowest_granule() {
        for mut m in both() {
            assert_eq!(acquire(&mut m, 1, &[95]), Granted);
            assert_eq!(acquire(&mut m, 2, &[5]), Granted);
            // t3 conflicts on both; it blocks on the holder of granule 5,
            // first in flat-id order although declared second.
            assert_eq!(acquire(&mut m, 3, &[95, 5]), BlockedBy(2));
        }
    }

    #[test]
    fn shared_sets_do_not_block_each_other() {
        // Compatible modes do not block. Leaves of one area and of
        // another: every transaction holds IX on the database, the first
        // two IX on area 0 as well, and IX is compatible with IX.
        let mut m = tree(10, Some(3));
        assert_eq!(acquire(&mut m, 1, &[0]), Granted);
        assert_eq!(acquire(&mut m, 2, &[1]), Granted);
        assert_eq!(acquire(&mut m, 3, &[55, 56]), Granted);
        assert_eq!(
            m.table.held_mode(TxnId(2), GranuleId(0)),
            Some(LockMode::IX)
        );
        assert_eq!(m.stats().intent_locks, 6);
        assert_eq!(m.stats().escalations, 0);
        // An X on the shared area (three leaves escalate) conflicts with
        // the IX holders; the blocked attempt counts no escalation.
        assert_eq!(acquire(&mut m, 4, &[2, 3, 4]), BlockedBy(1));
        assert!(holds_nothing(&m, 4));
        assert_eq!(m.stats().escalations, 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn empty_lock_set_is_trivially_granted() {
        for mut m in both() {
            assert_eq!(acquire(&mut m, 1, &[]), Granted);
            assert_eq!(acquire(&mut m, 2, &[]), Granted);
            assert_eq!(m.locks_held(), 0);
            assert!(release(&mut m, 1).is_empty());
        }
    }

    #[test]
    fn reset_behaves_like_fresh() {
        let mut m = flat();
        assert_eq!(acquire(&mut m, 1, &[0, 1]), Granted);
        assert_eq!(acquire(&mut m, 2, &[1]), BlockedBy(1));
        let cfg = ModelConfig::table1()
            .with_ltot(100)
            .with_conflict(ConflictMode::Explicit);
        assert!(m.reset(&cfg));
        assert_eq!((m.active_count(), m.locks_held()), (0, 0));
        assert!(m.txns.is_empty());
        assert_eq!(acquire(&mut m, 2, &[1]), Granted);
        m.check_invariants().unwrap();
    }

    #[test]
    fn reset_follows_the_configured_shape() {
        let hierarchical = |areas| {
            ModelConfig::table1()
                .with_ltot(100)
                .with_conflict(ConflictMode::Hierarchical)
                .with_hierarchy(Some(HierarchySpec {
                    areas,
                    escalation_threshold: Some(2),
                }))
        };
        let mut m = tree(10, None);
        assert!(m.reset(&hierarchical(4)));
        let map = m.hierarchy.as_ref().map(|h| h.map);
        assert_eq!(map, Some(HierarchyMap::new(100, 4)));
        assert_eq!(map.map(|m| m.per_area()), Some(25));

        // 16 areas do not divide 100 granules: the map clamps to 15. A
        // reset to the same request compares the effective geometry, so
        // the tree (and the scratch it grew) is kept.
        assert!(m.reset(&hierarchical(16)));
        assert_eq!(acquire(&mut m, 1, &[0, 1]), Granted);
        assert!(m.reset(&hierarchical(16)));
        let h = m.hierarchy.as_ref().unwrap();
        assert_eq!(h.map.areas(), 15);
        assert!(h.leaves.capacity() > 0, "same geometry must reuse the tree");

        // Another shape or protocol declines; the caller rebuilds.
        let explicit = ModelConfig::table1().with_conflict(ConflictMode::Explicit);
        assert!(!m.reset(&explicit));
        let mut f = flat();
        assert!(f.hierarchy.is_none(), "the flat shape builds no tree");
        assert!(f.reset(&explicit));
        assert!(!f.reset(&hierarchical(4)));
        assert!(!f.reset(&ModelConfig::table1()));
        assert!(!f.reset(&ModelConfig::table1().with_conflict(ConflictMode::Twophase)));
    }

    #[test]
    #[should_panic(expected = "already holds locks")]
    fn double_request_panics() {
        let mut m = flat();
        acquire(&mut m, 1, &[0]);
        acquire(&mut m, 1, &[1]);
    }
}
