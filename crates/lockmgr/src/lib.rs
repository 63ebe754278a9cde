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
//! * [`twophase`] — incremental two-phase locking with a waits-for graph
//!   and deadlock detection (extension beyond the paper).
//! * [`deadlock`] — the waits-for graph and cycle detection.
//! * [`hierarchy`] — multi-granularity (intention) locking over a granule
//!   tree, mirroring the paper's closing remark that "providing
//!   granularity at the block level and at the file level, as is done in
//!   the Gamma database machine, may be adequate".
//! * [`escalation`] — lock escalation over that hierarchy for a
//!   predeclared request set (extension).
//! * [`reference`] — a naive ordered-map lock table with identical
//!   semantics, the oracle for the differential property test pinning
//!   [`table`]'s pooled implementation to an executable specification.
//!
//! The conservative protocol the paper simulates (all locks are acquired
//! before any resource is used, so deadlock is impossible) is a thin
//! policy over [`table`], [`hierarchy`] and [`escalation`]; it lives in
//! `lockgran-core` as `ConservativeConflict`, next to the event loop
//! that drives it.
//!
//! ## Production status
//!
//! Every module is reached from the simulator: [`mode`], [`table`],
//! [`hierarchy`] and [`escalation`] back the explicit and hierarchical
//! conflict models in `lockgran-core` (extB/extD/extG/extH sweeps), and
//! [`twophase`] and [`deadlock`] back the incremental-2PL
//! `TwoPhaseConflict` model (extI sweeps, the `micro_twophase` bench).
//! [`reference`] is the test oracle.

#![warn(missing_docs)]

pub mod deadlock;
pub mod escalation;
pub mod hierarchy;
pub mod mode;
pub mod reference;
pub mod table;
pub mod twophase;

pub use deadlock::WaitsForGraph;
pub use escalation::{escalate_predeclared_into, EscalationPolicy};
pub use hierarchy::{GranuleTree, HierarchyLevel, NodeId};
pub use mode::LockMode;
pub use reference::ReferenceLockTable;
pub use table::{GranuleId, LockOutcome, LockTable, TxnId};
pub use twophase::{
    AcquireEffects, AcquireOutcome, AcquireStatus, RetryOutcome, TwoPhaseScheduler,
};
