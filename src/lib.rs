//! # lockgran — locking granularity in multiprocessor database systems
//!
//! A from-scratch Rust reproduction of **S. Dandamudi and S.-L. Au,
//! "Locking Granularity in Multiprocessor Database Systems", Proc. IEEE
//! ICDE 1991, pp. 268–277**: a closed-system simulation study of how the
//! number of physical granule locks (`ltot`) affects throughput, response
//! time and lock-management overhead in a shared-nothing parallel
//! database machine.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] ([`lockgran_sim`]) — the deterministic discrete-event
//!   simulation kernel (integer-tick clock, preemptive-resume servers,
//!   statistics).
//! * [`workload`] ([`lockgran_workload`]) — transaction sizes, granule
//!   placement (best / random-Yao / worst), partitioning, explicit
//!   granule sets.
//! * [`lockmgr`] ([`lockgran_lockmgr`]) — a real lock manager: Gray's
//!   lock modes, hashed lock table, incremental 2PL with deadlock
//!   detection, multi-granularity hierarchy with escalation.
//! * [`core`] ([`lockgran_core`]) — the paper's model: configuration,
//!   the `ConcurrencyControl` layer (the probabilistic draw, conservative
//!   locking over the real lock table in a flat or a
//!   multigranularity/escalation shape, and incremental 2PL), the
//!   event-driven system, output metrics.
//! * [`experiments`] ([`lockgran_experiments`]) — one module per paper
//!   table/figure, sweep machinery, emitters, and the `lockgran` CLI.
//!
//! ## Quickstart
//!
//! ```
//! use lockgran::prelude::*;
//!
//! // Paper Table 1 baseline at 100 locks, 10 processors.
//! let cfg = ModelConfig::table1().with_tmax(500.0);
//! let metrics = run(&cfg, 42);
//! println!("throughput = {:.4} txn/unit", metrics.throughput);
//! assert!(metrics.throughput > 0.0);
//! ```
//!
//! See `examples/` for runnable scenarios and the `lockgran` binary for
//! regenerating every figure of the paper.

#![warn(missing_docs)]

pub use lockgran_core as core;
pub use lockgran_experiments as experiments;
pub use lockgran_lockmgr as lockmgr;
pub use lockgran_sim as sim;
pub use lockgran_workload as workload;

/// The most common imports for driving the model.
pub mod prelude {
    pub use lockgran_core::sim::{
        run, run_replicated, run_timeline, run_traced, suggest_warmup, Estimate, ReplicatedMetrics,
    };
    pub use lockgran_core::{
        ConflictMode, HierarchySpec, LockDistribution, ModelConfig, QueueDiscipline, RunMetrics,
        ServiceVariability, TimelinePoint,
    };
    pub use lockgran_experiments::{Figure, Metric, RunOptions};
    pub use lockgran_workload::{FailureSpec, HotSpot, Partitioning, Placement, SizeDistribution};
}
