//! A fixed reference kernel that measures how fast the host runs.
//!
//! A shared small VM speeds up and slows down with its neighbours, by
//! tens of percent from one run to the next, which no run length
//! averages out. The kernel below is the benchmark's own code and calls
//! nothing in the measured crates, so a change to the program cannot
//! move it. A run times it between its measured intervals, while the
//! program is idle, and reports every bounded time rescaled to the
//! reference speed, at which the kernel takes [`NOMINAL_S`]:
//!
//! `reported = measured × NOMINAL_S ÷ mean(kernel times of the run)`.
//!
//! The mean, not the median: like the run's total measured time, it
//! integrates how slow the host was over the run.
//!
//! A program that gets 10% slower still reports 10% more; a host that
//! gets 10% slower reports about the same. Raw wall times stay in the
//! report lines.

use crate::stats::{mean, median};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Kernel wall time, in seconds, that defines the reference speed.
pub const NOMINAL_S: f64 = 0.2;
/// Chunks of kernel work per thread it runs on, so that its time at a
/// given speed does not depend on the thread count.
const CHUNKS_PER_THREAD: usize = 2048;
/// Steps of each part of a chunk.
const STEPS: usize = 1024;
/// Table entries: 256 KiB, an L2-resident working set.
const TABLE: usize = 1 << 15;

/// One thread's working memory, allocated once and reused, so that the
/// kernel adds a constant to the process's resident memory.
#[derive(Debug)]
pub struct Scratch {
    table: Vec<u64>,
    values: Vec<f64>,
    /// A fixed hasher, so that every run probes the same way.
    counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch {
            table: vec![0; TABLE],
            values: Vec::with_capacity(STEPS),
            counts: HashMap::default(),
        }
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One chunk: a little of each kind of work the workloads' hot paths
/// are made of, so that no single kind of contention on the host sets
/// its speed: an integer hash chain; random read-modify-writes over an
/// L2-sized table; exponential variates drawn with `ln`, sorted, and
/// folded with `exp`; hash-map updates; and short-lived heap buffers.
fn chunk(scratch: &mut Scratch, seed: u64) -> f64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..STEPS {
        hash = (hash ^ xorshift(&mut x)).wrapping_mul(0x0100_0000_01b3);
    }
    for _ in 0..STEPS {
        let v = xorshift(&mut x);
        let slot = &mut scratch.table[(v as usize) & (TABLE - 1)];
        *slot = slot.wrapping_add(v).rotate_left(7);
        hash ^= *slot;
    }
    scratch.values.clear();
    for _ in 0..STEPS {
        let u = ((xorshift(&mut x) >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        scratch.values.push(-u.ln());
    }
    scratch.values.sort_unstable_by(f64::total_cmp);
    let mut acc: f64 = scratch.values.iter().map(|v| (-v).exp()).sum();
    scratch.counts.clear();
    for _ in 0..STEPS {
        *scratch.counts.entry(xorshift(&mut x) & 0x1FF).or_insert(0) += 1;
    }
    hash ^= scratch.counts.get(&(x & 0x1FF)).copied().unwrap_or(0);
    for _ in 0..STEPS / 16 {
        let len = (xorshift(&mut x) % 512) as usize + 1;
        acc += black_box(vec![1u8; len]).len() as f64;
    }
    acc + (hash >> 11) as f64 * 1e-30
}

/// Runs the kernel once on one thread per scratch area, which take
/// chunks from a shared counter as the campaign executor does, and
/// returns its wall time in seconds.
#[must_use]
pub fn kernel_s(scratch: &mut [Scratch]) -> f64 {
    let chunks = CHUNKS_PER_THREAD * scratch.len();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for area in scratch.iter_mut() {
            let next = &next;
            scope.spawn(move || {
                let mut acc = 0.0;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= chunks {
                        break;
                    }
                    acc += chunk(area, black_box(i as u64));
                }
                black_box(acc);
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Kernel times taken over a run: on one thread, for times set by one
/// thread's speed, and on the campaign's worker threads, for times set
/// by a parallel region.
#[derive(Debug)]
pub struct Speed {
    /// One scratch area per worker thread.
    scratch: Vec<Scratch>,
    serial_s: Vec<f64>,
    /// Empty when there is one worker.
    parallel_s: Vec<f64>,
}

impl Speed {
    /// Runs the kernel once to warm up, then takes the first sample.
    #[must_use]
    pub fn start(workers: usize) -> Speed {
        let mut speed = Speed {
            scratch: (0..workers.max(1)).map(|_| Scratch::new()).collect(),
            serial_s: Vec::new(),
            parallel_s: Vec::new(),
        };
        let _ = kernel_s(&mut speed.scratch);
        speed.sample();
        speed
    }

    /// Times the kernel once more. Call it only while the program is
    /// idle.
    pub fn sample(&mut self) {
        self.serial_s.push(kernel_s(&mut self.scratch[..1]));
        if self.scratch.len() > 1 {
            self.parallel_s.push(kernel_s(&mut self.scratch));
        }
    }

    /// The factor that rescales this run's single-thread times to the
    /// reference speed.
    #[must_use]
    pub fn serial(&self) -> f64 {
        NOMINAL_S / mean(&self.serial_s)
    }

    /// The factor that rescales this run's times of work spread over the
    /// worker threads to the reference speed.
    #[must_use]
    pub fn parallel(&self) -> f64 {
        if self.parallel_s.is_empty() {
            self.serial()
        } else {
            NOMINAL_S / mean(&self.parallel_s)
        }
    }

    /// A report line on the host's speed over the run.
    #[must_use]
    pub fn summary(&self) -> String {
        let describe = |k: &[f64], threads: usize| {
            let each: Vec<String> = k.iter().map(|v| format!("{v:.4}")).collect();
            format!(
                "{} runs on {threads} thread(s), mean {:.4} s, median {:.4} s [{}]",
                k.len(),
                mean(k),
                median(k),
                each.join(" ")
            )
        };
        let mut line = format!("reference kernel: {}", describe(&self.serial_s, 1));
        if !self.parallel_s.is_empty() {
            line += &format!("; {}", describe(&self.parallel_s, self.scratch.len()));
        }
        line + &format!(
            "; times rescaled by {:.4} (serial) and {:.4} (parallel) to the reference \
             speed ({NOMINAL_S} s)",
            self.serial(),
            self.parallel()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_is_fixed_and_not_optimised_away() {
        let (mut a, mut b) = (Scratch::new(), Scratch::new());
        assert_eq!(chunk(&mut a, 3).to_bits(), chunk(&mut b, 3).to_bits());
        assert_eq!(a.table, b.table);
        assert_eq!(a.values.len(), STEPS);
        assert!(kernel_s(&mut [a, b]) > 0.0);
    }

    #[test]
    fn factors_are_nominal_over_the_mean_kernel_times() {
        let mut speed = Speed::start(2);
        speed.sample();
        speed.sample();
        assert_eq!(speed.serial(), NOMINAL_S / mean(&speed.serial_s));
        assert_eq!(speed.parallel(), NOMINAL_S / mean(&speed.parallel_s));
        let one = Speed::start(1);
        assert!(one.parallel_s.is_empty());
        assert_eq!(one.parallel(), one.serial());
    }
}
