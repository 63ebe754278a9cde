//! Host-time benchmark of the lockgran simulator.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --print-digests
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (`wall_s`, `events_per_s`,
//! `setup_s`, `peak_rss_mb`) with tracing off; `--trace 1` runs the
//! per-layer traced measurement. Either prints a table, then as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--workload all` runs each workload in its own child
//! process (so `peak_rss_mb` is per workload) and prints every table.
//! The workloads and their reasons are listed in `BENCHMARK.json`.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload all
//! ```

use std::process::{Command, ExitCode};

use lockgran_perfbench::checks::{self, DEFAULT_SEED};
use lockgran_perfbench::report::Outcome;
use lockgran_perfbench::workloads::{Plan, Size, Workload};
use lockgran_perfbench::{e2e, layers};

const USAGE: &str = "usage: perfbench --workload <paper_grid|locktable_churn|capacity|all> \
[--seed N] [--seconds S] [--trace 0|1]\n       perfbench --print-digests";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(Some(args))
}

/// Measure one workload in this process.
fn run_one(workload: Workload, args: &Args) -> Outcome {
    let plan = Plan::new(workload, args.seed, Size::Full);
    let recorded = checks::recorded(workload);
    let expected = (args.seed == DEFAULT_SEED).then_some(recorded.as_slice());
    let mut out = if args.trace {
        layers::measure(&plan, expected, args.seconds)
    } else {
        e2e::measure(&plan, expected, args.seconds)
    };
    if expected.is_some_and(|e| e.len() != plan.runs.len()) {
        out.problem(format!(
            "{} digests recorded for {} runs",
            recorded.len(),
            plan.runs.len()
        ));
    }
    out
}

/// Run every workload in its own child process and relay their reports.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        let correct = lockgran_sim::json::parse(last)
            .ok()
            .and_then(|v| v.get("correct").and_then(|c| c.as_bool()))
            .unwrap_or(false);
        if !output.status.success() || !correct {
            eprintln!("{}: not correct ({})", w.name(), output.status);
            all_correct = false;
        }
    }
    Ok(all_correct)
}

fn print_digests() {
    for w in Workload::ALL {
        let plan = Plan::new(w, DEFAULT_SEED, Size::Full);
        for (i, run) in plan.runs.iter().enumerate() {
            let (m, _) = e2e::fresh_run(&run.cfg, run.seed);
            println!("{} {i} {:016x}", w.name(), checks::digest(&m));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print_digests();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = Workload::from_name(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let out = run_one(workload, &args);
    let mode = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    print!("{}", out.table(&format!("{} {mode}", workload.name())));
    println!("{}", out.json_line());
    ExitCode::SUCCESS
}
