//! # lockgran-core — the paper's model
//!
//! The closed-system simulation model of **Dandamudi & Au, "Locking
//! Granularity in Multiprocessor Database Systems" (ICDE 1991)**: a fixed
//! multiprogramming level of `ntrans` transactions cycles through a
//! shared-nothing machine of `npros` processors (each with a private CPU
//! and disk), guarded by `ltot` physical granule locks acquired with a
//! conservative (pre-declaration) protocol.
//!
//! * [`config`] — every input parameter of the paper's Table 1, plus the
//!   sweep dimensions of §3 (placement, partitioning, conflict model).
//! * [`conflict`] — the [`ConcurrencyControl`] trait (conflict decisions
//!   plus declared-access sampling and protocol statistics) and the
//!   paper's probabilistic Ries–Stonebraker implementation of it.
//! * [`conservative`] — the same conservative protocol over a *real* lock
//!   table ([`lockgran_lockmgr`]), in two request shapes: flat granule
//!   locks (explicit mode, which validates the probabilistic
//!   approximation) and Gray's multigranularity protocol (hierarchical
//!   mode: database → area → granule with IX intention locks and lock
//!   escalation, the production shape of the granularity trade-off).
//! * [`twophase`] — incremental (claim-as-needed) two-phase locking with
//!   waits-for deadlock detection and youngest-victim abort as a third
//!   conflict model, re-examining the Ries & Stonebraker claim the paper
//!   leans on.
//! * [`transaction`] — per-transaction runtime state (`NU_i`, `LU_i`,
//!   `PU_i`, fork/join bookkeeping).
//! * [`system`] — the event-driven model itself: lock phase shared across
//!   processors with preemptive priority, sub-transaction fork/join over
//!   per-processor I/O→CPU FCFS stages, block/wake on conflicts.
//! * [`metrics`] — the paper's output parameters (`throughput`, response
//!   time, `usefulcpus`, `usefulios`, `lockcpus`, `lockios`, …) plus
//!   extended diagnostics.
//! * [`sim`] — the entry point: [`run`](sim::run) a [`ModelConfig`] to a
//!   [`RunMetrics`].
//!
//! ## Quickstart
//!
//! ```
//! use lockgran_core::{ModelConfig, sim};
//!
//! // Paper Table 1 defaults, 10 processors, 100 granule locks.
//! let cfg = ModelConfig::table1()
//!     .with_npros(10)
//!     .with_ltot(100)
//!     .with_tmax(500.0); // short run for the doc test
//! let m = sim::run(&cfg, 42);
//! assert!(m.throughput > 0.0);
//! assert!(m.response_time > 0.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod conflict;
pub mod conservative;
pub mod metrics;
pub mod sim;
pub mod system;
pub mod timeline;
pub mod trace;
pub mod transaction;
pub mod twophase;

// Cases of `ConservativeConflict` that belong to one request shape; the
// shape-independent cases live in `conservative::tests`.
#[cfg(test)]
#[path = "shape_tests/explicit.rs"]
mod explicit;
#[cfg(test)]
#[path = "shape_tests/hierarchical.rs"]
mod hierarchical;

pub use config::{
    ConflictMode, HierarchySpec, LockDistribution, ModelConfig, QueueDiscipline, ServiceVariability,
};
pub use conflict::{
    build_concurrency_control, AccessSampler, CcStats, ConcurrencyControl, ConflictDecision,
    ProbabilisticConflict,
};
pub use conservative::ConservativeConflict;
pub use metrics::RunMetrics;
pub use sim::RunArena;
pub use timeline::{TimelineCollector, TimelinePoint};
pub use trace::{TraceEvent, VecTracer};
pub use transaction::{Transaction, TxnPhase};
pub use twophase::TwoPhaseConflict;
