//! # lockgran-lockmgr — a real lock manager
//!
//! The paper *approximates* lock conflicts probabilistically and never
//! builds a lock table. This crate builds the real thing, for two
//! reasons:
//!
//! 1. **Validation.** `lockgran-core` offers an explicit conflict model
//!    backed by this lock table; comparing it against the paper's
//!    probabilistic model quantifies how much the approximation matters
//!    (an ablation the paper could not run).
//! 2. **Substrate completeness.** A locking-granularity library that a
//!    downstream user would adopt needs an actual lock manager, not just a
//!    coin flip.
//!
//! Components:
//!
//! * [`mode`] — lock modes `S`/`X` plus the intention modes `IS`/`IX`/`SIX`
//!   with Gray's compatibility matrix.
//! * [`table`] — a lock table over a deterministic hash map
//!   ([`lockgran_sim::DetMap`]) with granted groups and FIFO wait queues
//!   (no starvation: a request conflicts with earlier waiters too).
//! * [`conservative`] — static (pre-declaration) locking, the protocol the
//!   paper simulates: all locks are acquired before any resource is used,
//!   so deadlock is impossible.
//! * [`twophase`] — incremental two-phase locking with a waits-for graph
//!   and deadlock detection (extension beyond the paper).
//! * [`deadlock`] — the waits-for graph and cycle detection.
//! * [`hierarchy`] — multi-granularity (intention) locking over a granule
//!   tree, mirroring the paper's closing remark that "providing
//!   granularity at the block level and at the file level, as is done in
//!   the Gamma database machine, may be adequate".
//! * [`escalation`] — adaptive lock escalation over that hierarchy: the
//!   dynamic counterpart of the paper's static granule-size sweep
//!   (extension).
//! * [`sharded`] — a thread-safe sharded try-lock table, the production
//!   shape of a lock manager (extension; stress-tested under real
//!   threads).
//! * [`reference`] — a naive ordered-map lock table with identical
//!   semantics, the oracle for the differential property test pinning
//!   [`table`]'s pooled implementation to an executable specification.
//!
//! ## Production status
//!
//! [`mode`], [`table`], [`conservative`], [`hierarchy`], [`escalation`],
//! [`twophase`], and [`deadlock`] are live production code: the first
//! five back the explicit and hierarchical conflict models in
//! `lockgran-core` (extB/extD/extG/extH sweeps), and the last two back
//! the incremental-2PL `TwoPhaseConflict` model (extI sweeps, the
//! `micro_twophase` bench) — the first half of ROADMAP item 3.
//! [`sharded`] is not yet reachable from the simulator's event loop —
//! it is the substrate for a thread-safe lock-manager stage, kept fully
//! unit-tested rather than suppressed; nothing in this crate carries a
//! `dead_code` allow.

#![warn(missing_docs)]

pub mod conservative;
pub mod deadlock;
pub mod escalation;
pub mod hierarchy;
pub mod mode;
pub mod reference;
pub mod sharded;
pub mod table;
pub mod twophase;

pub use conservative::{ConservativeOutcome, ConservativeScheduler};
pub use deadlock::WaitsForGraph;
pub use escalation::{
    escalate_predeclared, escalate_predeclared_into, EscalationManager, EscalationOutcome,
    EscalationPolicy,
};
pub use hierarchy::{GranuleTree, HierarchyLevel, NodeId};
pub use mode::LockMode;
pub use reference::ReferenceLockTable;
pub use sharded::ShardedLockTable;
pub use table::{GranuleId, LockOutcome, LockTable, TxnId};
pub use twophase::{
    AcquireEffects, AcquireOutcome, AcquireStatus, RetryOutcome, TwoPhaseScheduler,
};
