//! Host-time benchmark of the lockgran simulator, measured from outside
//! the library through its public entry points.
//!
//! * [`workloads`] — the three named workloads and the `(config, seed)`
//!   run lists a workload seed expands them to.
//! * [`e2e`] — the end-to-end metrics, tracing off.
//! * [`layers`] — the traced per-layer run: a timing `Model` around
//!   `System` plus a replay of each run's workload and
//!   concurrency-control calls.
//! * [`hostspeed`] — the calibration kernel that scales end-to-end times
//!   to a reference host speed.
//! * [`checks`] — per-run consistency checks and the digests of simulated
//!   statistics recorded at the default seed.
//! * [`report`] — the printed table and the one-line JSON result.

#![warn(missing_docs)]

pub mod checks;
pub mod e2e;
pub mod hostspeed;
pub mod layers;
pub mod report;
pub mod workloads;
