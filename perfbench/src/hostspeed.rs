//! Host-speed calibration for the end-to-end times.
//!
//! The shared host this benchmark runs on slows every single-threaded
//! program by up to ~1.7× in regimes lasting tens of seconds to minutes
//! (contention from other tenants, not preemption: steal time stays
//! flat). A fixed kernel that shares no code with the simulator is timed
//! at intervals through the measurement; its fastest time says how fast
//! the host was at its best during the run, and the end-to-end times are
//! scaled by [`HostSpeed::factor`] to what they would be at
//! [`REFERENCE_S`]. The kernel is the benchmark's own code, so a change
//! to the simulator moves the scaled times exactly as it moves the raw
//! ones.
//!
//! The kernel is the geometric mean of two timings: a dependent walk over
//! a 1 MiB single-cycle permutation (cache latency, which a busy
//! neighbour on the same core raises) and a serial xorshift chain (core
//! clock). On a 2-vCPU KVM Xeon host (2.1 GHz nominal), over 25-s windows
//! of one long `paper_grid` series, the kernel's minima correlated with
//! the simulator's per-run-minimum time at ~0.8 and scaling halved that
//! time's coefficient of variation (0.070 → 0.032).

// lint:allow-file(D002): a host-time calibration reads the wall clock by design

use std::time::Instant;

/// Entries of the permutation walked (4 bytes each: 1 MiB).
const CHASE_LEN: usize = 1 << 18;
/// Steps of one walk.
const CHASE_STEPS: usize = 1_000_000;
/// Steps of one xorshift chain.
const ALU_STEPS: usize = 10_000_000;
/// Seconds between samples taken by [`HostSpeed::maybe_sample`].
const SAMPLE_EVERY_S: f64 = 0.5;

/// The kernel's time (geometric mean of its two timings, seconds) that the
/// scaled times refer to: about its fastest on the host described above.
pub const REFERENCE_S: f64 = 0.0150;

/// The calibration kernel and the fastest timings it has seen.
pub struct HostSpeed {
    next: Vec<u32>,
    best_chase: f64,
    best_alu: f64,
    last: Instant,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    /// Build the permutation (Sattolo's algorithm, so the walk visits
    /// every entry) and take a first sample.
    pub fn new() -> HostSpeed {
        let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..CHASE_LEN).rev() {
            x = xorshift(x);
            next.swap(i, (x % i as u64) as usize);
        }
        let mut h = HostSpeed {
            next,
            best_chase: f64::INFINITY,
            best_alu: f64::INFINITY,
            last: Instant::now(),
        };
        h.sample();
        h
    }

    /// Time the kernel once.
    fn sample(&mut self) {
        let t = Instant::now();
        let mut p = 0u32;
        for _ in 0..CHASE_STEPS {
            p = self.next[p as usize];
        }
        std::hint::black_box(p);
        self.best_chase = self.best_chase.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..ALU_STEPS {
            x = xorshift(x);
        }
        std::hint::black_box(x);
        self.best_alu = self.best_alu.min(t.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// Time the kernel if the last sample is older than half a second.
    pub fn maybe_sample(&mut self) {
        if self.last.elapsed().as_secs_f64() >= SAMPLE_EVERY_S {
            self.sample();
        }
    }

    /// The kernel's fastest time so far (geometric mean, seconds).
    pub fn best_s(&self) -> f64 {
        (self.best_chase * self.best_alu).sqrt()
    }

    /// Multiply a host time by this to scale it to [`REFERENCE_S`].
    pub fn factor(&self) -> f64 {
        REFERENCE_S / self.best_s()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_one_cycle_and_the_factor_is_finite() {
        let h = HostSpeed::new();
        let mut p = 0u32;
        let mut steps = 0;
        loop {
            p = h.next[p as usize];
            steps += 1;
            if p == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_LEN);
        assert!(h.factor().is_finite() && h.factor() > 0.0);
    }
}
