//! Time-to-certificate benchmark for the optassign workspace.
//!
//! One binary runs one named workload per invocation (see `README.md`
//! for why each exists): the offline certificate workloads in
//! [`offline`] and the service workload in [`tenants`]. Every workload
//! pins its campaign settings, so only speed can move its numbers, and
//! checks its outputs. Untraced runs report the end-to-end metrics; a
//! traced run (`--trace 1`) reports per-layer numbers from the timing
//! wrappers in [`probe`], placed around the calls the benchmark makes.
//! Bounded times are rescaled to a reference speed of the host, measured
//! by the fixed kernel in [`reference`] around each timed interval.

pub mod offline;
pub mod probe;
pub mod reference;
pub mod stats;
pub mod tenants;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sim-l1", "sim-mem", "evt-rounds", "optd-tenants"];

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement time budget.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for campaign stores; removed afterwards.
    pub work_dir: PathBuf,
    /// Worker threads per campaign (the machine's parallelism).
    pub workers: usize,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: campaigns, HTTP requests and output checks.
    pub attempted: u64,
    /// Of those, failed campaigns, non-2xx or refused requests, and
    /// failed checks.
    pub failed: u64,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (certificates, digests, notes).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Counts one output check, recording a line when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.lines.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Reports the tail latencies. Their run-to-run spread on a small
    /// shared machine is wider than any bound a regression gate could
    /// use, so untraced runs print them and traced runs report them with
    /// the per-layer numbers, where no bound applies.
    pub fn tails(&mut self, trace: bool, round_p95_ms: f64, best_query_p99_ms: f64) {
        if trace {
            self.metric("round_p95_ms", round_p95_ms, "ms");
            self.metric("best_query_p99_ms", best_query_p99_ms, "ms");
        } else {
            self.lines
                .push(format!("round_p95_ms = {round_p95_ms} ms (unbounded tail)"));
            self.lines.push(format!(
                "best_query_p99_ms = {best_query_p99_ms} ms (unbounded tail)"
            ));
        }
    }

    /// Failed ÷ attempted.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A finite number in JSON syntax, with every digit Rust prints.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or a failure that leaves nothing to report
/// (for example an unusable scratch directory).
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&args.work_dir);
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("creating {}: {e}", args.work_dir.display()))?;
    let outcome = match args.workload.as_str() {
        "optd-tenants" => tenants::run(args),
        name => match offline::plan(name) {
            Some(plan) => offline::run(&plan, args),
            None => Err(format!(
                "unknown workload \"{name}\"; known: {}",
                WORKLOADS.join(", ")
            )),
        },
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Some(parent) = args.work_dir.parent() {
        // Removed only when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    outcome
}

/// A fresh, empty directory `name` under `root`.
///
/// # Errors
///
/// Filesystem failures.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Nanoseconds to seconds.
#[must_use]
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Nanoseconds to milliseconds.
#[must_use]
pub fn millis(ns: u64) -> f64 {
    ns as f64 / 1e6
}
