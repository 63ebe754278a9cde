//! Lock escalation over the granule hierarchy.
//!
//! The paper studies *fixed* granule sizes; production systems resolve
//! the same trade-off by trading many fine locks under one parent for a
//! single coarse lock on the parent. This module applies that policy to
//! a predeclared request set over [`crate::hierarchy::GranuleTree`] — the
//! adaptive counterpart of the paper's static `ltot` sweep.

use crate::hierarchy::{GranuleTree, NodeId};
use crate::mode::LockMode;

/// Escalation policy: when a transaction declares at least `threshold`
/// children under one parent, it requests the parent whole instead.
#[derive(Clone, Copy, Debug)]
pub struct EscalationPolicy {
    /// Child-lock count that triggers escalation.
    pub threshold: usize,
}

impl Default for EscalationPolicy {
    fn default() -> Self {
        // SQL Server's classic default magnitude.
        EscalationPolicy { threshold: 64 }
    }
}

impl EscalationPolicy {
    /// A policy that never escalates (the threshold is unreachable) —
    /// pure multigranularity locking.
    pub fn never() -> Self {
        EscalationPolicy {
            threshold: usize::MAX,
        }
    }
}

/// Apply the escalation policy to a *predeclared* request set.
///
/// The conservative protocol (the one the paper simulates) declares every
/// leaf up front, so escalation runs on the whole set before any lock is
/// taken: wherever at least `policy.threshold` requested children share a
/// parent, the children are replaced by the parent requested whole in
/// `mode`. The promotion cascades bottom-up — promoted parents that
/// themselves cluster under one grandparent can escalate again, so
/// `threshold = 1` always collapses a non-empty set to the root
/// (whole-database locking).
///
/// `kept` receives the surviving requests, each to be taken in `mode`
/// (callers still owe intention locks on the ancestors of every
/// survivor), deepest level first and by index within a level. All three buffers are cleared
/// first, so steady-state callers reuse their capacity; `current` and
/// `promoted` are pure scratch whose contents after the call are
/// unspecified. Returns the number of promotions performed.
pub fn escalate_predeclared_into(
    tree: &GranuleTree,
    policy: EscalationPolicy,
    leaves: &[NodeId],
    mode: LockMode,
    kept: &mut Vec<(NodeId, LockMode)>,
    current: &mut Vec<NodeId>,
    promoted: &mut Vec<NodeId>,
) -> u64 {
    kept.clear();
    let mut escalations = 0u64;
    // Sort (and dedup) so nodes sharing a parent are contiguous; every
    // round works on a single level, so ordering by index suffices.
    current.clear();
    current.extend_from_slice(leaves);
    current.sort_unstable_by_key(|n| (n.level.0, n.index));
    current.dedup();
    while let Some(&first) = current.first() {
        if first.level.0 == 0 {
            // The root cannot escalate further.
            kept.extend(current.drain(..).map(|n| (n, mode)));
            break;
        }
        promoted.clear();
        let mut i = 0;
        while i < current.len() {
            let parent = tree
                .parent(current[i])
                // lint:allow(P001): non-root nodes always have a parent
                .expect("non-root node has a parent");
            let mut j = i;
            while j < current.len() && tree.parent(current[j]) == Some(parent) {
                j += 1;
            }
            if j - i >= policy.threshold {
                escalations += 1;
                promoted.push(parent);
            } else {
                kept.extend(current[i..j].iter().map(|&n| (n, mode)));
            }
            i = j;
        }
        std::mem::swap(current, promoted);
    }
    escalations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::HierarchyLevel;
    use LockMode::{S, X};

    fn node(level: usize, index: u64) -> NodeId {
        NodeId {
            level: HierarchyLevel(level),
            index,
        }
    }
    /// db -> 10 files -> 50 blocks each.
    fn tree() -> GranuleTree {
        GranuleTree::new(&[10, 50])
    }

    fn leaves(ids: &[u64]) -> Vec<NodeId> {
        ids.iter().map(|&i| node(2, i)).collect()
    }

    /// Run [`escalate_predeclared_into`] on fresh buffers.
    fn escalate(
        tree: &GranuleTree,
        policy: EscalationPolicy,
        leaves: &[NodeId],
        mode: LockMode,
    ) -> (Vec<(NodeId, LockMode)>, u64) {
        let mut kept = Vec::new();
        let escalations = escalate_predeclared_into(
            tree,
            policy,
            leaves,
            mode,
            &mut kept,
            &mut Vec::new(),
            &mut Vec::new(),
        );
        (kept, escalations)
    }

    #[test]
    fn predeclared_threshold_one_collapses_to_root() {
        let tr = tree();
        let pol = EscalationPolicy { threshold: 1 };
        // Any non-empty leaf set cascades all the way to the root.
        let (kept, escalations) = escalate(&tr, pol, &leaves(&[7]), X);
        assert_eq!(kept, vec![(node(0, 0), X)]);
        assert_eq!(escalations, 2); // file 0, then the database

        let (kept, escalations) = escalate(&tr, pol, &leaves(&[0, 60, 499]), X);
        assert_eq!(kept, vec![(node(0, 0), X)]);
        assert_eq!(escalations, 4); // three files, then the database
    }

    #[test]
    fn predeclared_never_policy_keeps_all_leaves() {
        let tr = tree();
        let (kept, escalations) = escalate(&tr, EscalationPolicy::never(), &leaves(&[3, 1, 2]), X);
        assert_eq!(escalations, 0);
        assert_eq!(
            kept,
            vec![(node(2, 1), X), (node(2, 2), X), (node(2, 3), X)],
            "survivors come back sorted"
        );
    }

    #[test]
    fn predeclared_escalates_only_dense_parents() {
        let tr = tree();
        let pol = EscalationPolicy { threshold: 3 };
        // Three blocks in file 0 (escalates), two in file 1 (kept).
        let (kept, escalations) = escalate(&tr, pol, &leaves(&[0, 1, 2, 50, 51]), X);
        assert_eq!(escalations, 1);
        assert_eq!(
            kept,
            vec![(node(2, 50), X), (node(2, 51), X), (node(1, 0), X)]
        );
    }

    #[test]
    fn predeclared_cascades_through_intermediate_levels() {
        // 2 files × 2 blocks; threshold 2: both files escalate, then the
        // two file locks escalate to the root.
        let tr = GranuleTree::new(&[2, 2]);
        let pol = EscalationPolicy { threshold: 2 };
        let all: Vec<NodeId> = (0..4).map(|i| node(2, i)).collect();
        let (kept, escalations) = escalate(&tr, pol, &all, X);
        assert_eq!(kept, vec![(node(0, 0), X)]);
        assert_eq!(escalations, 3);
    }

    #[test]
    fn predeclared_dedups_and_handles_empty_sets() {
        let tr = tree();
        let pol = EscalationPolicy { threshold: 2 };
        let (kept, escalations) = escalate(&tr, pol, &leaves(&[9, 9]), S);
        assert_eq!(escalations, 0);
        assert_eq!(kept, vec![(node(2, 9), S)]);
        let (kept, escalations) = escalate(&tr, pol, &[], X);
        assert!(kept.is_empty());
        assert_eq!(escalations, 0);
    }
}
