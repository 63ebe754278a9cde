//! Output checks: per-run consistency, digests of simulated statistics,
//! and the digests recorded with the benchmark at its default seed.

use lockgran_core::RunMetrics;
use lockgran_sim::ToJson;

use crate::workloads::Workload;

/// The workload seed whose digests are recorded in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Digests of every run of every workload at [`DEFAULT_SEED`] and full
/// size, one `workload run-index hex-digest` line each. Regenerate with
/// `perfbench --print-digests` after a change that is meant to move
/// simulated statistics.
const RECORDED: &str = include_str!("../digests.txt");

/// FNV-1a digest of a run's simulated statistics (its JSON rendering,
/// which prints every float with round-trip precision).
pub fn digest(m: &RunMetrics) -> u64 {
    m.to_json()
        .to_string_compact()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Digest of a run's statistics with the intention-lock count zeroed:
/// the only statistic in which a hierarchy that never escalates may
/// differ from a flat lock table over the same accesses.
pub fn digest_without_intents(m: &RunMetrics) -> u64 {
    digest(&RunMetrics {
        intent_locks: 0,
        ..m.clone()
    })
}

/// The recorded digests of `workload`, in run order.
pub fn recorded(workload: Workload) -> Vec<u64> {
    RECORDED
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            if parts.next() != Some(workload.name()) {
                return None;
            }
            let _index = parts.next();
            parts.next().and_then(|h| u64::from_str_radix(h, 16).ok())
        })
        .collect()
}

/// Check one run's statistics: consistency always, and the recorded
/// digest when one is given.
pub fn check_run(m: &RunMetrics, npros: u32, expected: Option<u64>) -> Result<u64, String> {
    m.check_consistency(npros)?;
    let d = digest(m);
    match expected {
        Some(e) if e != d => Err(format!("digest {d:016x} differs from recorded {e:016x}")),
        _ => Ok(d),
    }
}
