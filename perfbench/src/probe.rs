//! Timing wrappers placed at the benchmark's layer boundaries.
//!
//! [`TimedModel`] forwards every [`PerformanceModel`] method to the
//! wrapped model and times each evaluation call (the sim layer, and the
//! exec layer's parallel region derived from the same calls).
//! [`TimedIo`] forwards every [`StoreIo`] operation to an inner I/O
//! implementation and times each one (the store layer). Neither changes
//! a result: a wrapped campaign journals the same bytes as an unwrapped
//! one (see `tests/parity.rs`).

use optassign::model::{MeasureError, PerformanceModel};
use optassign::{Assignment, Topology};
use optassign_store::io::{StoreFile, StoreIo};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters recorded by a [`TimedModel`].
#[derive(Debug)]
pub struct SimProbe {
    epoch: Instant,
    calls: AtomicU64,
    batch_calls: AtomicU64,
    evals: AtomicU64,
    busy_ns: AtomicU64,
    /// Start of the earliest and end of the latest call since the last
    /// [`SimProbe::take_region`], in ns since `epoch`.
    region_start: AtomicU64,
    region_end: AtomicU64,
}

/// A snapshot of a [`SimProbe`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// `evaluate*` / `try_evaluate*` calls.
    pub calls: u64,
    /// Of those, calls that took a slice of assignments.
    pub batch_calls: u64,
    /// Assignments evaluated.
    pub evals: u64,
    /// Summed wall time inside the calls, over all threads.
    pub busy_ns: u64,
}

impl Default for SimProbe {
    fn default() -> Self {
        SimProbe {
            epoch: Instant::now(),
            calls: AtomicU64::new(0),
            batch_calls: AtomicU64::new(0),
            evals: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            region_start: AtomicU64::new(u64::MAX),
            region_end: AtomicU64::new(0),
        }
    }
}

impl SimProbe {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn timed<T>(&self, evals: usize, batch: bool, call: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = call();
        let end = self.now_ns();
        self.calls.fetch_add(1, Ordering::Relaxed);
        if batch {
            self.batch_calls.fetch_add(1, Ordering::Relaxed);
        }
        self.evals.fetch_add(evals as u64, Ordering::Relaxed);
        self.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        self.region_start.fetch_min(start, Ordering::Relaxed);
        self.region_end.fetch_max(end, Ordering::Relaxed);
        out
    }

    /// The counters so far.
    #[must_use]
    pub fn counts(&self) -> SimCounts {
        SimCounts {
            calls: self.calls.load(Ordering::Relaxed),
            batch_calls: self.batch_calls.load(Ordering::Relaxed),
            evals: self.evals.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Wall time from the start of the first call to the end of the last
    /// call since the previous `take_region` (0 when no call ran), and
    /// resets the interval. Within one session step this is the exec
    /// layer's parallel region.
    pub fn take_region(&self) -> u64 {
        let start = self.region_start.swap(u64::MAX, Ordering::Relaxed);
        let end = self.region_end.swap(0, Ordering::Relaxed);
        end.saturating_sub(start)
    }
}

/// A [`PerformanceModel`] that forwards to `inner` and times every
/// evaluation call into a [`SimProbe`].
pub struct TimedModel<'a, M> {
    inner: &'a M,
    probe: &'a SimProbe,
}

impl<'a, M> TimedModel<'a, M> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: &'a M, probe: &'a SimProbe) -> Self {
        TimedModel { inner, probe }
    }
}

impl<M: PerformanceModel> PerformanceModel for TimedModel<'_, M> {
    fn tasks(&self) -> usize {
        self.inner.tasks()
    }

    fn topology(&self) -> Topology {
        self.inner.topology()
    }

    fn evaluate(&self, assignment: &Assignment) -> f64 {
        self.probe
            .timed(1, false, || self.inner.evaluate(assignment))
    }

    fn try_evaluate(&self, assignment: &Assignment) -> Result<f64, MeasureError> {
        self.probe
            .timed(1, false, || self.inner.try_evaluate(assignment))
    }

    fn try_evaluate_at(
        &self,
        assignment: &Assignment,
        stream: u64,
        attempt: u32,
    ) -> Result<f64, MeasureError> {
        self.probe.timed(1, false, || {
            self.inner.try_evaluate_at(assignment, stream, attempt)
        })
    }

    fn evaluate_batch(&self, assignments: &[Assignment]) -> Vec<f64> {
        self.probe.timed(assignments.len(), true, || {
            self.inner.evaluate_batch(assignments)
        })
    }

    fn try_evaluate_batch(&self, assignments: &[Assignment]) -> Vec<Result<f64, MeasureError>> {
        self.probe.timed(assignments.len(), true, || {
            self.inner.try_evaluate_batch(assignments)
        })
    }

    fn try_evaluate_batch_at(
        &self,
        assignments: &[Assignment],
        keys: &[(u64, u32)],
    ) -> Vec<Result<f64, MeasureError>> {
        self.probe.timed(assignments.len(), true, || {
            self.inner.try_evaluate_batch_at(assignments, keys)
        })
    }
}

/// Counters recorded by a [`TimedIo`].
#[derive(Debug, Default)]
pub struct IoProbe {
    appends: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    io_ns: AtomicU64,
}

/// A snapshot of an [`IoProbe`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// `StoreFile::append` calls.
    pub appends: u64,
    /// Bytes appended.
    pub bytes: u64,
    /// `StoreFile::sync` calls.
    pub syncs: u64,
    /// Wall time inside syncs.
    pub sync_ns: u64,
    /// Wall time inside every I/O operation, syncs included.
    pub io_ns: u64,
}

impl IoProbe {
    fn timed<T>(&self, call: impl FnOnce() -> T) -> (T, u64) {
        let start = Instant::now();
        let out = call();
        let ns = start.elapsed().as_nanos() as u64;
        self.io_ns.fetch_add(ns, Ordering::Relaxed);
        (out, ns)
    }

    /// The counters so far.
    #[must_use]
    pub fn counts(&self) -> IoCounts {
        IoCounts {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
            io_ns: self.io_ns.load(Ordering::Relaxed),
        }
    }
}

/// A [`StoreIo`] that forwards to `inner` and times every operation into
/// an [`IoProbe`].
pub struct TimedIo<I> {
    inner: I,
    probe: Arc<IoProbe>,
}

impl<I> TimedIo<I> {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: I, probe: Arc<IoProbe>) -> Self {
        TimedIo { inner, probe }
    }
}

struct TimedFile {
    inner: Box<dyn StoreFile>,
    probe: Arc<IoProbe>,
}

impl StoreFile for TimedFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let (out, _) = self.probe.timed(|| self.inner.append(bytes));
        self.probe.appends.fetch_add(1, Ordering::Relaxed);
        self.probe
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        out
    }

    fn sync(&mut self) -> io::Result<()> {
        let (out, ns) = self.probe.timed(|| self.inner.sync());
        self.probe.syncs.fetch_add(1, Ordering::Relaxed);
        self.probe.sync_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl<I: StoreIo> StoreIo for TimedIo<I> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.probe.timed(|| self.inner.read(path)).0
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.probe.timed(|| self.inner.write(path, bytes)).0
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StoreFile>> {
        let inner = self.probe.timed(|| self.inner.open_append(path)).0?;
        Ok(Box::new(TimedFile {
            inner,
            probe: Arc::clone(&self.probe),
        }))
    }

    fn set_len(&self, path: &Path, len: u64) -> io::Result<()> {
        self.probe.timed(|| self.inner.set_len(path, len)).0
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.probe.timed(|| self.inner.rename(from, to)).0
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.probe.timed(|| self.inner.remove_file(path)).0
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.probe.timed(|| self.inner.create_dir_all(path)).0
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.probe.timed(|| self.inner.list_dir(path)).0
    }

    fn exists(&self, path: &Path) -> bool {
        self.probe.timed(|| self.inner.exists(path)).0
    }
}
