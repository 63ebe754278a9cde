//! The outcome of one measurement and its rendering: a human-readable
//! table, then one JSON line with `correct`, `attempted`, `failed` and
//! `metrics`.

use std::fmt::Write as _;

/// At most this many failure messages are kept for the report.
const MAX_PROBLEMS: usize = 20;

/// One metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Runs attempted and failed, problems found, and the metrics measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulation runs attempted (every run of every pass).
    pub attempted: u64,
    /// Runs that panicked or failed a check.
    pub failed: u64,
    /// Failure messages (the first few) and benchmark-level problems.
    pub problems: Vec<String>,
    /// Lines printed above the table (reconciliation, notes).
    pub notes: Vec<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// A benchmark-level check failed (not attributable to one run).
    pub broken: bool,
}

impl Outcome {
    /// Count an attempted run and its check result; returns the digest
    /// of a run that passed.
    pub fn record(&mut self, run: usize, result: Result<u64, String>) -> Option<u64> {
        self.attempted += 1;
        match result {
            Ok(d) => Some(d),
            Err(e) => {
                self.failed += 1;
                self.note_problem(format!("run {run}: {e}"));
                None
            }
        }
    }

    /// Mark an already-attempted run as failed.
    pub fn fail(&mut self, run: usize, msg: &str) {
        self.failed += 1;
        self.note_problem(format!("run {run}: {msg}"));
    }

    /// A check that fails the whole measurement.
    pub fn problem(&mut self, msg: String) {
        self.broken = true;
        self.note_problem(msg);
    }

    fn note_problem(&mut self, msg: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(msg);
        }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Whether every run passed its checks and every metric is a finite
    /// number.
    pub fn correct(&self) -> bool {
        !self.broken
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable report: problems, notes, then one metric per
    /// line.
    pub fn table(&self, title: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== {title}: {} runs attempted, {} failed ==",
            self.attempted, self.failed
        );
        for p in &self.problems {
            let _ = writeln!(s, "  FAIL {p}");
        }
        for n in &self.notes {
            let _ = writeln!(s, "  {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(s, "  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
        }
        s
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `v` (mean of the middle two for even lengths); NaN if empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        assert_eq!(o.record(0, Ok(1)), Some(1));
        o.metric("wall_s", 1.25, "s");
        let line = o.json_line();
        let v = lockgran_sim::json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(1));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(0));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(wall.get("unit").and_then(|x| x.as_str()), Some("s"));
    }

    #[test]
    fn failures_and_non_finite_values_are_not_correct() {
        let mut o = Outcome::default();
        o.record(0, Err("bad".into()));
        assert!(!o.correct());
        let mut o = Outcome::default();
        o.record(0, Ok(1));
        o.metric("x", f64::NAN, "s");
        assert!(!o.correct());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
