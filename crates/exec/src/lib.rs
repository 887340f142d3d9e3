//! Deterministic scoped-thread parallel execution.
//!
//! The paper's estimation pipeline is embarrassingly parallel: §3 draws
//! `n` iid random assignments and measures each independently, and the
//! iterative algorithm of §5.3 adds `N_delta` independent measurements
//! per round. This crate provides the execution engine those layers
//! share, with one non-negotiable contract:
//!
//! > **Output is bit-identical for every worker count, including 1.**
//!
//! Three mechanisms make that hold:
//!
//! 1. **Seed-splitting** — randomness is never drawn from a shared
//!    stream inside a parallel region. Each task index derives its own
//!    stream with [`split_seed`], so the values a slot sees do not
//!    depend on scheduling order.
//! 2. **Pre-indexed slots** — every task writes its result into the
//!    slot for its index; nothing is appended in completion order.
//! 3. **Order-fixed reduction** — results (and errors) are folded in
//!    index order after the parallel region, never as workers finish.
//!    [`try_parallel_map`] always reports the error of the *smallest*
//!    failing index.
//!
//! The engine is dependency-free beyond the workspace's observability
//! crate (`std::thread::scope` only) and the `workers == 1` path is a
//! plain sequential loop, so serial callers pay nothing.
//!
//! ## Observability
//!
//! [`parallel_map_obs`] and [`try_parallel_map_obs`] accept an
//! [`Obs`] handle and report per-task latency, queue occupancy, and
//! worker utilization. Instrumentation follows the crate's own rules:
//! each worker accumulates into a thread-local
//! [`MetricsRegistry`] (integer-valued, so totals are exact and
//! commutative) and the locals merge in spawn order after the join —
//! recording never touches task inputs or reduction order, so the
//! determinism contract holds with any recorder attached.

use optassign_obs::{lane_span_id, Event, MetricsRegistry, Obs, SpanGuard, VALUE_BUCKETS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Derives an independent, reproducible RNG seed for one task index.
///
/// SplitMix64-style finalizer over the pair `(seed, index)`: the golden
/// ratio increment separates consecutive indices by a full avalanche,
/// so per-slot streams are statistically independent of each other and
/// of the parent stream. Pure function — same `(seed, index)` in, same
/// stream out, on every platform and worker count.
#[must_use]
pub const fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker-count policy for a parallel region.
///
/// `workers == 1` means a plain sequential loop (no threads spawned).
/// Because every parallel path in the workspace is bit-identical to its
/// serial path, the choice of worker count is purely a throughput knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// Number of worker threads to use (at least 1).
    pub workers: usize,
    /// Preferred chunk size for batched evaluation paths
    /// ([`parallel_map_batched`]): how many items one `evaluate_batch`
    /// call covers. `0` disables batching (callers fall back to their
    /// per-item path). Like `workers`, this is purely a throughput knob —
    /// every batched path in the workspace is bit-identical at every
    /// batch size, including 0.
    pub batch: usize,
}

impl Parallelism {
    /// Environment variable consulted by [`Parallelism::default`] and
    /// [`Parallelism::max_available`].
    pub const ENV_VAR: &'static str = "OPTASSIGN_WORKERS";

    /// Environment variable overriding the batch size in the non-const
    /// constructors (`0` disables batching).
    pub const BATCH_ENV_VAR: &'static str = "OPTASSIGN_BATCH";

    /// Default batch size: large enough to amortize per-batch setup
    /// (shared decode tables, cache prefill images), small enough that
    /// chunk-level work stealing still load-balances.
    pub const DEFAULT_BATCH: usize = 32;

    /// Sequential execution: one worker, no threads spawned.
    #[must_use]
    pub const fn serial() -> Self {
        Self {
            workers: 1,
            batch: Self::DEFAULT_BATCH,
        }
    }

    /// Exactly `workers` workers (floored at 1).
    #[must_use]
    pub const fn new(workers: usize) -> Self {
        Self {
            workers: if workers == 0 { 1 } else { workers },
            batch: Self::DEFAULT_BATCH,
        }
    }

    /// Returns `self` with the given batch size (`0` disables batching).
    #[must_use]
    pub const fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Batch size requested through `OPTASSIGN_BATCH`, if set to a
    /// non-negative integer (`0` disables batching).
    #[must_use]
    pub fn batch_from_env() -> Option<usize> {
        std::env::var(Self::BATCH_ENV_VAR)
            .ok()
            .and_then(|raw| raw.trim().parse().ok())
    }

    /// Applies the `OPTASSIGN_BATCH` override, when present.
    #[must_use]
    fn with_env_batch(self) -> Self {
        match Self::batch_from_env() {
            Some(batch) => self.with_batch(batch),
            None => self,
        }
    }

    /// All hardware threads the OS reports (at least 1).
    #[must_use]
    pub fn available() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self::new(workers).with_env_batch()
    }

    /// Worker count requested through `OPTASSIGN_WORKERS`, if the
    /// variable is set to a positive integer.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var(Self::ENV_VAR).ok()?;
        let workers: usize = raw.trim().parse().ok()?;
        (workers > 0).then(|| Self::new(workers).with_env_batch())
    }

    /// Throughput-oriented default for experiment binaries:
    /// `OPTASSIGN_WORKERS` if set, otherwise every available core.
    #[must_use]
    pub fn max_available() -> Self {
        Self::from_env().unwrap_or_else(Self::available)
    }
}

/// Library default: `OPTASSIGN_WORKERS` if set, otherwise serial.
///
/// Library entry points stay single-threaded unless the caller (or the
/// environment) opts in; binaries that want "all cores" use
/// [`Parallelism::max_available`] explicitly.
impl Default for Parallelism {
    fn default() -> Self {
        Self::from_env().unwrap_or_else(Self::serial)
    }
}

/// Indices are claimed from a shared counter in chunks; this caps the
/// chunk size so the tail of a batch still load-balances.
const MAX_CHUNK: usize = 32;

fn chunk_size(n: usize, workers: usize) -> usize {
    (n / (workers * 4)).clamp(1, MAX_CHUNK)
}

/// Per-worker instrumentation accumulator: times each task through the
/// shared clock into a worker-local [`MetricsRegistry`]. Everything it
/// records is integer-valued (exact, commutative accumulation) and the
/// locals merge in spawn order after the join, so recording never
/// depends on — or influences — scheduling.
struct WorkerStats<'a> {
    obs: &'a Obs,
    local: MetricsRegistry,
    /// Clock reading when this worker timed its first task (`None` if it
    /// never ran one) and when its last task finished — the bounds of
    /// the worker's lane span in the trace timeline.
    first_ns: Option<u64>,
    last_ns: u64,
}

impl<'a> WorkerStats<'a> {
    fn new(obs: &'a Obs) -> Self {
        WorkerStats {
            obs,
            local: MetricsRegistry::default(),
            first_ns: None,
            last_ns: 0,
        }
    }

    /// Runs one task, recording its latency. Pure pass-through when the
    /// handle is disabled.
    fn time<T>(&mut self, task: impl FnOnce() -> T) -> T {
        if !self.obs.enabled() {
            return task();
        }
        let t0 = self.obs.now_ns();
        let value = task();
        let end_ns = self.obs.now_ns();
        let dt = end_ns.saturating_sub(t0);
        if self.first_ns.is_none() {
            self.first_ns = Some(t0);
        }
        self.last_ns = end_ns;
        self.local.observe("exec_task_ns", dt);
        self.local.counter_add("exec_tasks_total", 1);
        self.local.counter_add("exec_busy_ns_total", dt);
        value
    }

    /// Records the queue occupancy (unclaimed indices) seen at a chunk
    /// claim.
    fn queue_depth(&mut self, remaining: usize) {
        if self.obs.enabled() {
            self.local
                .observe_with("exec_queue_depth", remaining as u64, &VALUE_BUCKETS);
        }
    }

    /// Counts one failed task.
    fn task_error(&mut self) {
        if self.obs.enabled() {
            self.local.counter_add("exec_task_errors_total", 1);
        }
    }
}

/// Region-level summary: merges the worker-local registries in spawn
/// order, emits each worker's lane span (spawn order again, so the
/// journal is deterministic), closes the region span, and records one
/// `exec_region` event (with the busy/wall worker-utilization ratio).
///
/// Lane spans carry derived ids ([`lane_span_id`] over the region span's
/// id and the worker index) with the region span as parent, and render
/// on `tid = 1 + worker_index` in the Chrome trace — track 0 stays the
/// orchestration timeline. All of this happens after the join, outside
/// the parallel region, so tracing cannot perturb scheduling.
fn finish_region(
    obs: &Obs,
    region: SpanGuard<'_>,
    n: usize,
    workers: usize,
    stats: &[WorkerStats],
) {
    if !obs.enabled() {
        drop(region);
        return;
    }
    let region_id = region.id();
    let mut busy_ns = 0u64;
    let mut tasks = 0u64;
    for (worker, s) in stats.iter().enumerate() {
        busy_ns = busy_ns.saturating_add(s.local.counter("exec_busy_ns_total"));
        tasks += s.local.counter("exec_tasks_total");
        obs.merge_metrics(&s.local);
        if let Some(first_ns) = s.first_ns {
            obs.record_lane_span(
                "exec_lane_ns",
                lane_span_id(region_id, worker as u64),
                region_id,
                1 + worker as u64,
                first_ns,
                s.last_ns,
            );
        }
    }
    let wall_ns = region.finish();
    obs.counter_add("exec_regions_total", 1);
    obs.gauge_set("exec_workers", workers as f64);
    let denom = wall_ns.saturating_mul(workers as u64);
    let utilization = if denom == 0 {
        0.0
    } else {
        busy_ns as f64 / denom as f64
    };
    obs.emit(|| {
        Event::new("exec_region")
            .with("n", n)
            .with("workers", workers)
            .with("tasks", tasks)
            .with("wall_ns", wall_ns)
            .with("busy_ns", busy_ns)
            .with("utilization", utilization)
    });
}

/// Maps `f` over `0..n` and returns the results in index order.
///
/// With `workers == 1` this is a plain loop. Otherwise `f` runs on
/// scoped threads; each worker claims chunks of indices from a shared
/// counter, keeps `(index, value)` pairs locally, and the pairs are
/// merged into pre-indexed slots after all workers join. `f` must be
/// a pure function of its index (draw randomness only from a stream
/// derived via [`split_seed`]) for the bit-identical guarantee to hold.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread.
pub fn parallel_map<T, F>(par: Parallelism, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_obs(par, n, &Obs::disabled(), f)
}

/// [`parallel_map`] with observability: per-task latency, queue
/// occupancy, and worker utilization land in `obs`. The results are
/// bit-identical to the unobserved call — instrumentation only reads
/// the clock and appends to worker-local registries.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread.
pub fn parallel_map_obs<T, F>(par: Parallelism, n: usize, obs: &Obs, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = par.workers.min(n.max(1));
    let region = obs.span("exec_region_ns");
    if workers <= 1 {
        let mut stats = WorkerStats::new(obs);
        let out = (0..n).map(|i| stats.time(|| f(i))).collect();
        finish_region(obs, region, n, 1, std::slice::from_ref(&stats));
        return out;
    }

    let next = AtomicUsize::new(0);
    let chunk = chunk_size(n, workers);
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(n);
    let mut locals: Vec<WorkerStats> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut stats = WorkerStats::new(obs);
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    stats.queue_depth(n - start);
                    for i in start..(start + chunk).min(n) {
                        local.push((i, stats.time(|| f(i))));
                    }
                }
                (local, stats)
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok((local, stats)) => {
                    collected.extend(local);
                    locals.push(stats);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    finish_region(obs, region, n, workers, &locals);

    // Order-fixed reduction: sort by index, independent of which worker
    // produced what and when.
    collected.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(collected.len(), n);
    collected.into_iter().map(|(_, v)| v).collect()
}

/// Fallible [`parallel_map`]: maps `f` over `0..n`, returning all
/// results in index order, or the error produced at the **smallest
/// failing index** — exactly what a sequential early-exit loop would
/// return, for any worker count.
///
/// Once some index has failed, workers skip indices above it (those
/// results could never be observed), but every index below the current
/// minimum failure is still evaluated, so the reported error is
/// deterministic.
///
/// # Errors
///
/// Returns the error of the smallest index at which `f` failed.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread.
pub fn try_parallel_map<T, E, F>(par: Parallelism, n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    try_parallel_map_obs(par, n, &Obs::disabled(), f)
}

/// [`try_parallel_map`] with observability: per-task latency, queue
/// occupancy, worker utilization, and failed-task counts land in `obs`.
/// Results — including which error is reported — are bit-identical to
/// the unobserved call.
///
/// # Errors
///
/// Returns the error of the smallest index at which `f` failed.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread.
pub fn try_parallel_map_obs<T, E, F>(
    par: Parallelism,
    n: usize,
    obs: &Obs,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let workers = par.workers.min(n.max(1));
    let region = obs.span("exec_region_ns");
    if workers <= 1 {
        // Sequential early exit: first error wins, which is also the
        // smallest-index error.
        let mut stats = WorkerStats::new(obs);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match stats.time(|| f(i)) {
                Ok(value) => out.push(value),
                Err(e) => {
                    stats.task_error();
                    finish_region(obs, region, n, 1, std::slice::from_ref(&stats));
                    return Err(e);
                }
            }
        }
        finish_region(obs, region, n, 1, std::slice::from_ref(&stats));
        return Ok(out);
    }

    let next = AtomicUsize::new(0);
    // Smallest failing index seen so far; usize::MAX means "none yet".
    let first_failure = AtomicUsize::new(usize::MAX);
    let chunk = chunk_size(n, workers);
    let mut oks: Vec<(usize, T)> = Vec::with_capacity(n);
    let mut locals: Vec<WorkerStats> = Vec::with_capacity(workers);
    let errs: Mutex<Vec<(usize, E)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut stats = WorkerStats::new(obs);
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let start = next.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    stats.queue_depth(n - start);
                    for i in start..(start + chunk).min(n) {
                        // An index above the smallest known failure can
                        // never be observed — skip it. Indices below it
                        // must still run (one of them may fail at an
                        // even smaller index).
                        if i > first_failure.load(Ordering::Relaxed) {
                            continue;
                        }
                        match stats.time(|| f(i)) {
                            Ok(value) => local.push((i, value)),
                            Err(e) => {
                                stats.task_error();
                                first_failure.fetch_min(i, Ordering::Relaxed);
                                let mut guard = errs
                                    .lock()
                                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                                guard.push((i, e));
                            }
                        }
                    }
                }
                (local, stats)
            }));
        }
        for handle in handles {
            match handle.join() {
                Ok((local, stats)) => {
                    oks.extend(local);
                    locals.push(stats);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    finish_region(obs, region, n, workers, &locals);

    let mut errors = errs
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(min_idx) = errors.iter().map(|(i, _)| *i).min() {
        // Order-fixed error reduction: the smallest failing index wins,
        // matching the sequential path bit for bit.
        if let Some(pos) = errors.iter().position(|(i, _)| *i == min_idx) {
            return Err(errors.swap_remove(pos).1);
        }
    }

    oks.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(oks.len(), n);
    Ok(oks.into_iter().map(|(_, v)| v).collect())
}

/// Cache-aware [`parallel_map_obs`]: `resolved[i]` is `Some(v)` when
/// slot `i` is already known (a durable-cache hit or a checkpoint
/// replay), `None` when it must be computed. Only the misses run through
/// the parallel engine — with zero misses no parallel region is entered
/// and `f` is never called — and the output is in index order, exactly
/// as if every slot had been computed fresh.
///
/// Hits and misses are counted (`exec_cache_hits_total` /
/// `exec_cache_misses_total`). Because miss indices ascend and the
/// reduction is order-fixed, results are bit-identical at every worker
/// count.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread.
pub fn parallel_map_cached<T, F>(
    par: Parallelism,
    resolved: Vec<Option<T>>,
    obs: &Obs,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n = resolved.len();
    let miss_idx: Vec<usize> = resolved
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_none())
        .map(|(i, _)| i)
        .collect();
    obs.counter_add("exec_cache_hits_total", (n - miss_idx.len()) as u64);
    obs.counter_add("exec_cache_misses_total", miss_idx.len() as u64);
    let mut slots = resolved;
    if !miss_idx.is_empty() {
        let computed = parallel_map_obs(par, miss_idx.len(), obs, |j| f(miss_idx[j]));
        for (j, value) in computed.into_iter().enumerate() {
            slots[miss_idx[j]] = Some(value);
        }
    }
    let out: Vec<T> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), n);
    out
}

/// Fallible [`parallel_map_cached`]: pre-resolved slots never fail, and
/// the error reported for the misses is the one at the smallest failing
/// *original* index (miss indices ascend, so the engine's
/// smallest-failing-index contract carries over directly).
///
/// # Errors
///
/// Returns the error of the smallest original index at which `f` failed.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread.
pub fn try_parallel_map_cached<T, E, F>(
    par: Parallelism,
    resolved: Vec<Option<T>>,
    obs: &Obs,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let n = resolved.len();
    let miss_idx: Vec<usize> = resolved
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_none())
        .map(|(i, _)| i)
        .collect();
    obs.counter_add("exec_cache_hits_total", (n - miss_idx.len()) as u64);
    obs.counter_add("exec_cache_misses_total", miss_idx.len() as u64);
    let mut slots = resolved;
    if !miss_idx.is_empty() {
        let computed = try_parallel_map_obs(par, miss_idx.len(), obs, |j| f(miss_idx[j]))?;
        for (j, value) in computed.into_iter().enumerate() {
            slots[miss_idx[j]] = Some(value);
        }
    }
    let out: Vec<T> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), n);
    Ok(out)
}

/// Splits ascending miss indices into contiguous runs for the batched
/// engines below: the fewest runs of at most `par.batch` (floored at 1)
/// items, rounded up to a multiple of `par.workers` (capped at one item
/// per run), with lengths differing by at most one. Equal runs keep every
/// worker busy to the end: 300 misses at batch 32 on 2 workers become
/// 10 × 30, not 9 × 32 + 12.
fn batch_chunks(par: Parallelism, miss_idx: &[usize]) -> Vec<Vec<usize>> {
    let n = miss_idx.len();
    let workers = par.workers.max(1);
    let runs = n
        .div_ceil(par.batch.max(1))
        .div_ceil(workers)
        .saturating_mul(workers)
        .min(n);
    let mut out = Vec::with_capacity(runs);
    let mut start = 0;
    for r in 0..runs {
        let len = n / runs + usize::from(r < n % runs);
        out.push(miss_idx[start..start + len].to_vec());
        start += len;
    }
    out
}

/// Batched [`parallel_map_cached`]: identical cache-key semantics
/// (`resolved[i]` is `Some` for a hit, `None` for a miss; hits and
/// misses feed the same `exec_cache_hits_total` /
/// `exec_cache_misses_total` counters), but the misses are handed to `f`
/// in ascending runs of at most `par.batch` indices so the callee can
/// amortize per-call setup across the run.
///
/// `f` receives a slice of original indices and must return exactly one
/// value per index, in order. Chunks are distributed over the workers by
/// the same split-seed deterministic engine as [`parallel_map_obs`], so
/// results are bit-identical at every worker count and every batch size
/// — provided `f` itself is pure per index, which is the whole contract.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread, and panics if `f`
/// returns a vector of the wrong length.
pub fn parallel_map_batched<T, F>(
    par: Parallelism,
    resolved: Vec<Option<T>>,
    obs: &Obs,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(&[usize]) -> Vec<T> + Sync,
{
    let n = resolved.len();
    let miss_idx: Vec<usize> = resolved
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_none())
        .map(|(i, _)| i)
        .collect();
    obs.counter_add("exec_cache_hits_total", (n - miss_idx.len()) as u64);
    obs.counter_add("exec_cache_misses_total", miss_idx.len() as u64);
    let mut slots = resolved;
    if !miss_idx.is_empty() {
        let chunks = batch_chunks(par, &miss_idx);
        obs.counter_add("exec_batches_total", chunks.len() as u64);
        let computed = parallel_map_obs(par, chunks.len(), obs, |c| {
            let out = f(&chunks[c]);
            assert_eq!(
                out.len(),
                chunks[c].len(),
                "batch fn must return one value per index"
            );
            out
        });
        for (chunk, values) in chunks.iter().zip(computed) {
            for (&i, value) in chunk.iter().zip(values) {
                slots[i] = Some(value);
            }
        }
    }
    let out: Vec<T> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), n);
    out
}

/// Fallible [`parallel_map_batched`]: `f` returns a per-index
/// `Result`, and the call reports the error at the smallest failing
/// *original* index — the same contract as [`try_parallel_map_cached`].
///
/// Unlike the per-item engine this cannot skip work past the first
/// failure (a chunk is an indivisible unit for `f`), so on the failure
/// path it may compute more than the scalar engine would — but the
/// returned error, and the success-path output, are identical.
///
/// # Errors
///
/// Returns the error of the smallest original index at which `f` failed.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread, and panics if `f`
/// returns a vector of the wrong length.
pub fn try_parallel_map_batched<T, E, F>(
    par: Parallelism,
    resolved: Vec<Option<T>>,
    obs: &Obs,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(&[usize]) -> Vec<Result<T, E>> + Sync,
{
    let n = resolved.len();
    let miss_idx: Vec<usize> = resolved
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_none())
        .map(|(i, _)| i)
        .collect();
    obs.counter_add("exec_cache_hits_total", (n - miss_idx.len()) as u64);
    obs.counter_add("exec_cache_misses_total", miss_idx.len() as u64);
    let mut slots = resolved;
    if !miss_idx.is_empty() {
        let chunks = batch_chunks(par, &miss_idx);
        obs.counter_add("exec_batches_total", chunks.len() as u64);
        let computed = parallel_map_obs(par, chunks.len(), obs, |c| {
            let out = f(&chunks[c]);
            assert_eq!(
                out.len(),
                chunks[c].len(),
                "batch fn must return one value per index"
            );
            out
        });
        // Order-fixed error reduction: chunks ascend and indices ascend
        // within a chunk, so the first Err seen in this scan is the one
        // at the smallest original index.
        for (chunk, values) in chunks.iter().zip(computed) {
            for (&i, value) in chunk.iter().zip(values) {
                slots[i] = Some(value?);
            }
        }
    }
    let out: Vec<T> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), n);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_seed_separates_indices() {
        let seeds: Vec<u64> = (0..64).map(|i| split_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(
            unique.len(),
            seeds.len(),
            "adjacent indices must not collide"
        );
        // Different parents give different streams for the same index.
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }

    #[test]
    fn split_seed_is_pure() {
        assert_eq!(split_seed(0xDEAD_BEEF, 17), split_seed(0xDEAD_BEEF, 17));
    }

    #[test]
    fn parallelism_constructors() {
        assert_eq!(Parallelism::serial().workers, 1);
        assert_eq!(Parallelism::new(0).workers, 1);
        assert_eq!(Parallelism::new(6).workers, 6);
        assert!(Parallelism::available().workers >= 1);
    }

    #[test]
    fn parallel_map_matches_serial_for_all_worker_counts() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
        let serial: Vec<u64> = (0..257).map(f).collect();
        for workers in [1, 2, 3, 4, 7, 16] {
            let par = parallel_map(Parallelism::new(workers), 257, f);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        for n in [0usize, 1, 2] {
            let out = parallel_map(Parallelism::new(8), n, |i| i * 2);
            assert_eq!(out, (0..n).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_parallel_map_returns_smallest_failing_index() {
        let f = |i: usize| -> Result<usize, String> {
            if i == 5 || i == 199 {
                Err(format!("boom at {i}"))
            } else {
                Ok(i)
            }
        };
        for workers in [1, 2, 4, 7] {
            let err = try_parallel_map(Parallelism::new(workers), 256, f).expect_err("must fail");
            assert_eq!(err, "boom at 5", "workers={workers}");
        }
    }

    #[test]
    fn try_parallel_map_succeeds_in_index_order() {
        let f = |i: usize| -> Result<usize, ()> { Ok(i * 3) };
        let serial = try_parallel_map(Parallelism::serial(), 100, f);
        for workers in [2, 4, 7] {
            assert_eq!(try_parallel_map(Parallelism::new(workers), 100, f), serial);
        }
    }

    #[test]
    fn observed_map_is_bit_identical_and_counts_every_task() {
        use optassign_obs::{FakeClock, NullRecorder};
        let f = |i: usize| (i as u64).wrapping_mul(0xABCD).rotate_left(11);
        let plain = parallel_map(Parallelism::serial(), 100, f);
        for workers in [1, 4] {
            let clock = std::sync::Arc::new(FakeClock::new(0));
            let obs = Obs::new(
                Box::new(NullRecorder),
                Box::new(std::sync::Arc::clone(&clock)),
            );
            let observed = parallel_map_obs(Parallelism::new(workers), 100, &obs, |i| {
                clock.advance(10);
                f(i)
            });
            assert_eq!(observed, plain, "workers={workers}");
            let snap = obs.metrics();
            assert_eq!(snap.counter("exec_tasks_total"), 100, "workers={workers}");
            assert_eq!(snap.counter("exec_regions_total"), 1);
            assert!(snap.histogram("exec_task_ns").is_some());
            assert!(snap.histogram("exec_region_ns").is_some());
        }
    }

    #[test]
    fn observed_try_map_counts_errors_and_keeps_error_selection() {
        use optassign_obs::{MonotonicClock, NullRecorder};
        let f = |i: usize| -> Result<usize, String> {
            if i == 9 {
                Err("boom at 9".into())
            } else {
                Ok(i)
            }
        };
        for workers in [1, 4] {
            let obs = Obs::new(Box::new(NullRecorder), Box::new(MonotonicClock::new()));
            let err = try_parallel_map_obs(Parallelism::new(workers), 64, &obs, f)
                .expect_err("must fail");
            assert_eq!(err, "boom at 9", "workers={workers}");
            let snap = obs.metrics();
            assert!(snap.counter("exec_task_errors_total") >= 1);
        }
    }

    #[test]
    fn disabled_obs_map_records_nothing() {
        let obs = Obs::disabled();
        let out = parallel_map_obs(Parallelism::new(4), 50, &obs, |i| i + 1);
        assert_eq!(out.len(), 50);
        assert!(obs.metrics().is_empty());
    }

    #[test]
    fn cached_map_matches_fresh_map_for_any_hit_pattern() {
        let f = |i: usize| (i as u64).wrapping_mul(0x517C_C1B7).rotate_left(13);
        let fresh: Vec<u64> = (0..100).map(f).collect();
        for workers in [1, 4] {
            for pattern in 0..4u64 {
                // Pre-resolve a deterministic, pattern-dependent subset.
                let resolved: Vec<Option<u64>> = (0..100)
                    .map(|i| {
                        split_seed(pattern, i as u64)
                            .is_multiple_of(3)
                            .then(|| f(i))
                    })
                    .collect();
                let obs = Obs::metrics_only();
                let out = parallel_map_cached(Parallelism::new(workers), resolved, &obs, f);
                assert_eq!(out, fresh, "workers={workers} pattern={pattern}");
                let snap = obs.metrics();
                assert_eq!(
                    snap.counter("exec_cache_hits_total") + snap.counter("exec_cache_misses_total"),
                    100
                );
            }
        }
    }

    #[test]
    fn fully_resolved_cached_map_never_calls_f() {
        let resolved: Vec<Option<usize>> = (0..50).map(Some).collect();
        let obs = Obs::metrics_only();
        let out = parallel_map_cached(Parallelism::new(4), resolved, &obs, |_| {
            panic!("no slot should be computed")
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        let snap = obs.metrics();
        assert_eq!(snap.counter("exec_cache_hits_total"), 50);
        assert_eq!(snap.counter("exec_cache_misses_total"), 0);
        assert_eq!(snap.counter("exec_regions_total"), 0);
    }

    #[test]
    fn try_cached_map_reports_smallest_failing_original_index() {
        let f = |i: usize| -> Result<usize, String> {
            if i == 30 || i == 70 {
                Err(format!("boom at {i}"))
            } else {
                Ok(i)
            }
        };
        for workers in [1, 4] {
            // Slot 30 pre-resolved: only 70 can fail now.
            let resolved: Vec<Option<usize>> = (0..100).map(|i| (i == 30).then_some(i)).collect();
            let err =
                try_parallel_map_cached(Parallelism::new(workers), resolved, &Obs::disabled(), f)
                    .expect_err("must fail");
            assert_eq!(err, "boom at 70", "workers={workers}");
            // Nothing pre-resolved: 30 wins.
            let none: Vec<Option<usize>> = vec![None; 100];
            let err = try_parallel_map_cached(Parallelism::new(workers), none, &Obs::disabled(), f)
                .expect_err("must fail");
            assert_eq!(err, "boom at 30", "workers={workers}");
        }
    }

    #[test]
    fn batched_map_matches_cached_at_every_batch_size_and_worker_count() {
        let f = |i: usize| (i as u64).wrapping_mul(0x517C_C1B7).rotate_left(11);
        let fresh: Vec<u64> = (0..203).map(f).collect();
        for workers in [1, 2, 4, 7] {
            for batch in [1, 3, 16, 1000] {
                // Pre-resolve a deterministic subset so the hit/miss
                // scatter path is exercised too.
                let resolved: Vec<Option<u64>> = (0..203)
                    .map(|i| split_seed(7, i as u64).is_multiple_of(4).then(|| f(i)))
                    .collect();
                let obs = Obs::metrics_only();
                let par = Parallelism::new(workers).with_batch(batch);
                let out = parallel_map_batched(par, resolved, &obs, |idxs| {
                    assert!(idxs.len() <= batch, "chunk larger than batch size");
                    idxs.iter().map(|&i| f(i)).collect()
                });
                assert_eq!(out, fresh, "workers={workers} batch={batch}");
                let snap = obs.metrics();
                assert_eq!(
                    snap.counter("exec_cache_hits_total") + snap.counter("exec_cache_misses_total"),
                    203
                );
                let misses = snap.counter("exec_cache_misses_total") as usize;
                let runs = misses.div_ceil(batch).div_ceil(workers) * workers;
                assert_eq!(snap.counter("exec_batches_total"), runs.min(misses) as u64);
            }
        }
    }

    #[test]
    fn batch_chunks_are_equal_runs_in_multiples_of_workers() {
        let idx: Vec<usize> = (0..300).map(|i| 3 * i + 1).collect();
        let shape = |workers: usize, batch: usize, n: usize| -> Vec<usize> {
            let par = Parallelism::new(workers).with_batch(batch);
            let chunks = batch_chunks(par, &idx[..n]);
            // Contiguous, ascending, covering every index exactly once.
            assert_eq!(chunks.concat(), idx[..n].to_vec());
            chunks.iter().map(Vec::len).collect()
        };
        assert_eq!(shape(2, 32, 300), vec![30; 10]);
        assert_eq!(shape(1, 32, 299), [vec![30; 9], vec![29]].concat());
        assert_eq!(shape(4, 32, 300), vec![25; 12]);
        assert_eq!(shape(2, 32, 33), vec![17, 16]);
        // Never an empty run, even when workers outnumber the misses.
        assert_eq!(shape(8, 32, 3), vec![1, 1, 1]);
        for workers in [1, 2, 3, 7] {
            for batch in [1, 5, 32, 1000] {
                for n in [1, 2, 31, 64, 299] {
                    let lens = shape(workers, batch, n);
                    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(
                        *max <= batch && max - min <= 1,
                        "{workers} {batch} {n}: {lens:?}"
                    );
                    assert!(lens.len() % workers == 0 || lens.len() == n);
                }
            }
        }
    }

    #[test]
    fn fully_resolved_batched_map_never_calls_f() {
        let resolved: Vec<Option<usize>> = (0..50).map(Some).collect();
        let obs = Obs::metrics_only();
        let out = parallel_map_batched(Parallelism::new(4), resolved, &obs, |_| {
            panic!("no chunk should be computed")
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
        let snap = obs.metrics();
        assert_eq!(snap.counter("exec_cache_hits_total"), 50);
        assert_eq!(snap.counter("exec_batches_total"), 0);
    }

    #[test]
    fn try_batched_map_reports_smallest_failing_original_index() {
        let f = |i: usize| -> Result<usize, String> {
            if i == 30 || i == 70 {
                Err(format!("boom at {i}"))
            } else {
                Ok(i)
            }
        };
        let chunked =
            |idxs: &[usize]| -> Vec<Result<usize, String>> { idxs.iter().map(|&i| f(i)).collect() };
        for workers in [1, 4] {
            for batch in [1, 3, 16, 1000] {
                let par = Parallelism::new(workers).with_batch(batch);
                // Slot 30 pre-resolved: only 70 can fail now.
                let resolved: Vec<Option<usize>> =
                    (0..100).map(|i| (i == 30).then_some(i)).collect();
                let err = try_parallel_map_batched(par, resolved, &Obs::disabled(), chunked)
                    .expect_err("must fail");
                assert_eq!(err, "boom at 70", "workers={workers} batch={batch}");
                // Nothing pre-resolved: 30 wins.
                let none: Vec<Option<usize>> = vec![None; 100];
                let err = try_parallel_map_batched(par, none, &Obs::disabled(), chunked)
                    .expect_err("must fail");
                assert_eq!(err, "boom at 30", "workers={workers} batch={batch}");
                // Success path matches the per-item engine.
                let clean: Vec<Option<usize>> = vec![None; 100];
                let ok = try_parallel_map_batched(par, clean, &Obs::disabled(), |idxs| {
                    idxs.iter().map(|&i| Ok::<_, String>(i * 3)).collect()
                })
                .expect("must succeed");
                assert_eq!(ok, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn batch_knob_constructors_and_env() {
        assert_eq!(Parallelism::serial().batch, Parallelism::DEFAULT_BATCH);
        assert_eq!(Parallelism::new(3).batch, Parallelism::DEFAULT_BATCH);
        assert_eq!(Parallelism::new(3).with_batch(0).batch, 0);
        assert_eq!(Parallelism::new(3).with_batch(7).batch, 7);
    }

    #[test]
    fn seed_split_streams_are_schedule_independent() {
        // Simulate "each slot draws from its own stream": the resulting
        // table must not depend on worker count.
        let gen = |i: usize| {
            let mut s = split_seed(99, i as u64);
            let mut vals = [0u64; 4];
            for v in &mut vals {
                s = split_seed(s, 1);
                *v = s;
            }
            vals
        };
        let serial = parallel_map(Parallelism::serial(), 64, gen);
        for workers in [2, 4, 7] {
            assert_eq!(parallel_map(Parallelism::new(workers), 64, gen), serial);
        }
    }
}
