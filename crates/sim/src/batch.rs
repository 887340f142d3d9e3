//! Batched evaluation of many assignments over one workload.
//!
//! [`BatchSimulator`] prepares everything that does **not** depend on the
//! assignment exactly once — workload validation, region base addresses, a
//! flat decoded op table, and the steady-state L2 prefill image — and then
//! evaluates assignments one lane at a time against that shared state. Lane
//! state lives in structure-of-arrays scratch buffers that are reused (not
//! reallocated) across lanes, so the inner loop stays cache-resident and the
//! per-assignment setup cost of [`crate::Simulator`] is amortized over the
//! whole batch.
//!
//! The contract is strict bit-identity: for any assignment, warm-up and
//! measurement window, [`BatchSimulator::run_one`] returns exactly the
//! [`SimReport`] that `Simulator::new(..)?.run(..)` would, including error
//! strings for invalid assignments. The engine replays the scalar
//! implementation's arithmetic and RNG draw order precisely; where the
//! arithmetic is restructured (integer Bernoulli thresholds, decoded
//! access patterns), the transformation is exact, not approximate.

use crate::machine::MachineConfig;
use crate::program::{AccessPattern, Op, WorkloadSpec};
use crate::report::SimReport;
use crate::rng::{Bernoulli, XorShift64};
use crate::SimError;

/// One program op with every workload-level lookup already resolved. Kept
/// to eight bytes — the table is re-read on every issue, so a fetch must be
/// a single load. Memory ops index into the shared [`MemOp`] side table,
/// which is only dereferenced on the (more expensive anyway) memory path.
#[derive(Debug, Clone, Copy)]
enum DecodedOp {
    Int(u16),
    Mul(u16),
    Fp(u16),
    Crypto(u16),
    /// Index into [`BatchSimulator::mem_ops`].
    Mem(u32),
    QueuePush(u32),
    QueuePop(u32),
    NiuRx,
    Transmit,
}

/// Resolved details of one memory op: the region's base/size/pattern and
/// whether the access is a store.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    base: u64,
    bytes: u64,
    pattern: DecodedPattern,
    region: u32,
    store: bool,
}

/// [`AccessPattern`] with its per-access constants precomputed: the hot-set
/// clamp and the Bernoulli threshold are resolved at decode time, so the
/// inner loop draws addresses with pure integer arithmetic while consuming
/// the RNG stream exactly like [`crate::engine`]'s `gen_addr`.
#[derive(Debug, Clone, Copy)]
enum DecodedPattern {
    Uniform,
    Sequential { stride: u64 },
    Hot { draw: Bernoulli, hot_span: u64 },
}

impl DecodedPattern {
    fn new(pattern: AccessPattern, bytes: u64) -> Self {
        match pattern {
            AccessPattern::Uniform => DecodedPattern::Uniform,
            AccessPattern::Sequential { stride } => DecodedPattern::Sequential {
                stride: stride as u64,
            },
            AccessPattern::Hot {
                hot_bytes,
                hot_prob,
            } => DecodedPattern::Hot {
                draw: Bernoulli::new(hot_prob),
                hot_span: hot_bytes.clamp(8, bytes),
            },
        }
    }
}

/// L2-bank selection, strength-reduced at decode time when the line size
/// and bank count are powers of two (they are for every shipped machine
/// config); the `Div` form keeps exact semantics for exotic geometries.
#[derive(Debug, Clone, Copy)]
enum BankSel {
    Pow2 { shift: u32, mask: u64 },
    Div { line: u64, banks: u64 },
}

impl BankSel {
    fn new(line: usize, banks: usize) -> Self {
        if line.is_power_of_two() && banks.is_power_of_two() {
            BankSel::Pow2 {
                shift: line.trailing_zeros(),
                mask: banks as u64 - 1,
            }
        } else {
            BankSel::Div {
                line: line as u64,
                banks: banks as u64,
            }
        }
    }

    /// Same value as `(addr / line) % banks`.
    #[inline]
    fn of(self, addr: u64) -> usize {
        match self {
            BankSel::Pow2 { shift, mask } => ((addr >> shift) & mask) as usize,
            BankSel::Div { line, banks } => ((addr / line) % banks) as usize,
        }
    }
}

/// Memory-controller selection — `(addr >> 12) % controllers`, reduced to a
/// mask when the controller count is a power of two.
#[derive(Debug, Clone, Copy)]
enum McSel {
    Pow2 { mask: u64 },
    Div { mcs: u64 },
}

impl McSel {
    fn new(mcs: usize) -> Self {
        if mcs.is_power_of_two() {
            McSel::Pow2 {
                mask: mcs as u64 - 1,
            }
        } else {
            McSel::Div { mcs: mcs as u64 }
        }
    }

    /// Same value as `(addr >> 12) % controllers`.
    #[inline]
    fn of(self, addr: u64) -> usize {
        match self {
            McSel::Pow2 { mask } => ((addr >> 12) & mask) as usize,
            McSel::Div { mcs } => ((addr >> 12) % mcs) as usize,
        }
    }
}

/// A set-associative LRU cache laid out for the batch inner loop: tag and
/// stamp interleaved per way (a 4-way L1 set is exactly one 64-byte cache
/// line) and the hit scan fused with victim selection into a single pass.
///
/// Decision-identical to [`crate::cache::Cache`]: same hit condition, same
/// victim (first invalid way, else the first way with the smallest stamp),
/// same counters — only the memory layout and the scan structure differ.
#[derive(Debug, Clone)]
struct LaneCache {
    sets_mask: usize,
    ways: usize,
    line_shift: u32,
    /// `(tag, stamp)` per way, `slots[set * ways + way]`; tag `u64::MAX`
    /// marks an invalid way.
    slots: Vec<(u64, u64)>,
    hits: u64,
    misses: u64,
}

impl LaneCache {
    fn new(size_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        assert!(ways > 0, "ways must be non-zero");
        let sets = size_bytes / (ways * line_bytes);
        assert!(sets > 0, "cache too small for its geometry");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        LaneCache {
            sets_mask: sets - 1,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            slots: vec![(u64::MAX, 0); sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `addr` at time `now`; returns `true` on a hit, filling the
    /// LRU way on a miss — the exact replacement decision of
    /// [`crate::cache::Cache::access`] in one pass.
    #[inline]
    fn access(&mut self, addr: u64, now: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize) & self.sets_mask;
        let base = set * self.ways;
        let slots = &mut self.slots[base..base + self.ways];
        // Hit scan first, without early exit: the way-select compare
        // becomes conditional moves instead of one unpredictable branch
        // per way, leaving a single (usually well-predicted) hit/miss
        // branch. Tags are unique within a set, so "last match" equals
        // "first match".
        let mut hit = usize::MAX;
        for (w, &(tag, _)) in slots.iter().enumerate() {
            if tag == line {
                hit = w;
            }
        }
        if hit != usize::MAX {
            slots[hit].1 = now;
            self.hits += 1;
            return true;
        }
        // Miss path: first invalid way, else the first way with the
        // smallest stamp — the exact replacement decision of
        // [`crate::cache::Cache::access`].
        let mut invalid = usize::MAX;
        let mut victim = 0usize;
        let mut oldest = u64::MAX;
        for (w, &(tag, stamp)) in slots.iter().enumerate() {
            if tag == u64::MAX {
                if invalid == usize::MAX {
                    invalid = w;
                }
            } else if stamp < oldest {
                oldest = stamp;
                victim = w;
            }
        }
        self.misses += 1;
        let victim = if invalid != usize::MAX {
            invalid
        } else {
            victim
        };
        slots[victim] = (line, now);
        false
    }

    /// Invalidates every line and zeroes the stats.
    fn clear(&mut self) {
        self.slots.fill((u64::MAX, 0));
        self.hits = 0;
        self.misses = 0;
    }

    /// Resets the hit/miss counters, preserving contents.
    fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Copies the full state from a same-geometry template.
    fn copy_state_from(&mut self, src: &LaneCache) {
        debug_assert_eq!(self.sets_mask, src.sets_mask);
        debug_assert_eq!(self.ways, src.ways);
        debug_assert_eq!(self.line_shift, src.line_shift);
        self.slots.copy_from_slice(&src.slots);
        self.hits = src.hits;
        self.misses = src.misses;
    }

    /// Hit rate over all accesses so far (0 when never accessed) — same
    /// definition as [`crate::cache::Cache::hit_rate`].
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The per-task state touched on every issue, packed into one 64-byte
/// cache line per task: the arbitration wake check, the RNG, the program
/// counter and the micro-op countdown all hit the same line, and the inner
/// loop keeps a single base pointer live instead of one per field.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct TaskHot {
    rng: XorShift64,
    /// Per-issue L1I miss draw for this task's core placement.
    imiss: Bernoulli,
    /// Absolute current position in the flat op table.
    op_pos: u32,
    /// Program bounds in the flat op table (`op_pos` wraps from `op_end`
    /// back to `op_start`).
    op_start: u32,
    op_end: u32,
    /// Core of the context this task is bound to.
    core: u32,
    /// Remaining micro-ops of the current burst op (0 = not started).
    micro: u16,
}

/// Lane state that [`fast_forward`] reads but never writes.
#[derive(Clone, Copy)]
struct Peers<'a> {
    ops: &'a [DecodedOp],
    /// Global pipe of each task.
    task_pipe: &'a [usize],
    /// See [`Scratch::pipe_next`].
    pipe_next: &'a [u64],
    q_count: &'a [usize],
    q_cap: &'a [usize],
    /// Producer and consumer task of each queue.
    q_ends: &'a [(usize, usize)],
    lat_l2: u64,
    queue_retry: u64,
}

impl Peers<'_> {
    /// Whether granting `op` to a strand of pipe `p` at cycle `c` is a
    /// queue retry that must fail, whatever the other pipes do first.
    ///
    /// A retry on a full (empty) queue changes only its own strand, but
    /// whether it fails reads the queue's count, which the consumer's pop
    /// (the producer's push) changes. That peer changes it only through a
    /// grant of the cycle loop, at or after both its wake-up and its
    /// pipe's `pipe_next`; before that cycle the retry must fail. A peer
    /// on pipe `p` itself would have to win `p`'s arbitration with a
    /// non-private op, which ends the replay first.
    #[inline]
    fn blocked_retry(&self, op: DecodedOp, p: usize, c: u64, wake_at: &[u64]) -> bool {
        let (blocked, peer) = match op {
            DecodedOp::QueuePop(q) => {
                let q = q as usize;
                (self.q_count[q] == 0, self.q_ends[q].0)
            }
            DecodedOp::QueuePush(q) => {
                let q = q as usize;
                (self.q_count[q] >= self.q_cap[q], self.q_ends[q].1)
            }
            _ => return false,
        };
        let pp = self.task_pipe[peer];
        blocked && (pp == p || c < wake_at[peer].max(self.pipe_next[pp]))
    }
}

/// Replays pipe `p`'s round-robin arbitration from cycle `from` for as
/// long as every winner's grant is private, making those grants in place
/// of the cycle loop. A private grant is an `Int` micro-op or a queue
/// retry that must fail ([`Peers::blocked_retry`]).
///
/// Either touches only its own strand (RNG, micro-op count, program
/// counter, iterations, wake-up) and its pipe's round-robin pointer, and
/// a pipe's arbitration reads only its own strands' wake-ups. So running
/// one pipe ahead of the others changes no outcome, as long as every
/// replayed grant is private and lies inside the window. Grants are
/// replayed only at cycles `c` with `c + 1 < end`: a grant on the
/// window's last cycle stays with the cycle loop, which then steps onto
/// `end` exactly as the scalar engine does (the measurement-boundary
/// reset depends on that).
///
/// Returns `(hold, grants)`: the first cycle the cycle loop must
/// arbitrate this pipe again — the cycle whose winner's grant is not
/// private, the next wake-up of an all-blocked pipe, or the cycle after
/// the last replayed grant near the window end — and the number of
/// replayed grants.
#[allow(clippy::too_many_arguments)]
#[inline]
fn fast_forward(
    p: usize,
    list: &[usize],
    rr: &mut usize,
    from: u64,
    end: u64,
    peers: Peers<'_>,
    tasks: &mut [TaskHot],
    wake_at: &mut [u64],
    iterations: &mut [u64],
) -> (u64, u64) {
    let len = list.len();
    let mut c = from;
    let mut grants = 0u64;
    while c + 1 < end {
        // Same least-recently-served scan as the cycle loop.
        let mut chosen = None;
        let mut earliest = u64::MAX;
        let mut j = *rr;
        for _ in 0..len {
            let w = wake_at[list[j]];
            if w <= c {
                chosen = Some(j);
                break;
            }
            earliest = earliest.min(w);
            j += 1;
            if j == len {
                j = 0;
            }
        }
        let Some(pos) = chosen else {
            c = earliest;
            continue;
        };
        let t = list[pos];
        let op = peers.ops[tasks[t].op_pos as usize];
        let int_len = match op {
            DecodedOp::Int(n) => Some(n),
            _ if peers.blocked_retry(op, p, c, wake_at) => None,
            _ => break,
        };
        *rr = if pos + 1 == len { 0 } else { pos + 1 };
        let th = &mut tasks[t];
        let Some(n) = int_len else {
            let extra = if th.imiss.sample(&mut th.rng) {
                peers.lat_l2
            } else {
                0
            };
            wake_at[t] = c + peers.queue_retry + extra;
            grants += 1;
            c += 1;
            continue;
        };
        // Horizon: until another strand of this pipe wakes, `t` is the
        // only candidate, so it wins every cycle it is ready in. Issue its
        // micro-ops back to back without re-scanning the pipe; stop on an
        // I-miss (its wake-up jumps), at the end of the op, or at the
        // horizon.
        let mut horizon = end - 1;
        for &u in list {
            if u != t {
                horizon = horizon.min(wake_at[u]);
            }
        }
        let mut micro = if th.micro == 0 { n } else { th.micro };
        let mut issued = 0u64;
        let mut extra = 0;
        loop {
            issued += 1;
            micro -= 1;
            if th.imiss.sample(&mut th.rng) {
                extra = peers.lat_l2;
                break;
            }
            if micro == 0 || c + issued >= horizon {
                break;
            }
        }
        th.micro = micro;
        grants += issued;
        c += issued;
        wake_at[t] = c + extra;
        if micro == 0 {
            th.op_pos += 1;
            if th.op_pos == th.op_end {
                th.op_pos = th.op_start;
                iterations[t] += 1;
            }
        }
    }
    (c, grants)
}

/// Reusable per-lane state: one [`TaskHot`] record per task for the hot
/// fields, structure-of-arrays vectors for everything touched rarely (or
/// aggregated per core / pipe / queue / bank / controller), reset in place
/// between lanes instead of reallocated.
#[derive(Debug, Clone)]
struct Scratch {
    // Per task.
    tasks: Vec<TaskHot>,
    /// Cycle at which each strand becomes ready again. Kept outside
    /// [`TaskHot`] as a packed array: the arbitration loop polls every
    /// task's wake-up each cycle, and eight per cache line beats one.
    wake_at: Vec<u64>,
    iterations: Vec<u64>,
    transmits: Vec<u64>,
    /// `seq_cursors[task * n_regions + region]`.
    seq_cursors: Vec<u64>,
    /// Global pipe of each task.
    task_pipe: Vec<usize>,
    // Per core.
    core_code: Vec<u64>,
    l1d: Vec<LaneCache>,
    lsu_free: Vec<u64>,
    fpu_free: Vec<u64>,
    crypto_free: Vec<u64>,
    // Per pipe.
    pipe_tasks: Vec<Vec<usize>>,
    /// The pipe's only task when it has exactly one (arbitration
    /// degenerates to a wake check), else `usize::MAX`.
    solo: Vec<usize>,
    pipe_rr: Vec<usize>,
    /// The next cycle at which pipe `p` must be arbitrated: its solo
    /// strand's wake-up, the next wake-up of an all-blocked shared pipe,
    /// or the hold left by [`fast_forward`]. Never later than the pipe's
    /// next grant, and `u64::MAX` for a pipe without tasks.
    pipe_next: Vec<u64>,
    // Per queue.
    q_count: Vec<usize>,
    q_lat: Vec<u64>,
    // Shared fabric.
    l2: LaneCache,
    bank_free: Vec<u64>,
    mc_free: Vec<u64>,
    // Assignment validation.
    used: Vec<bool>,
}

/// A prepared batch evaluation of one workload on one machine.
///
/// Construction validates the workload, allocates region bases, decodes
/// every task program into one flat op table and computes the steady-state
/// L2 prefill image. [`BatchSimulator::run_one`] then evaluates a single
/// assignment reusing that shared state; results are bit-identical to
/// [`crate::Simulator`].
///
/// # Examples
///
/// ```
/// use optassign_sim::{BatchSimulator, MachineConfig, ProgramBuilder, Simulator, WorkloadSpec};
///
/// let m = MachineConfig::ultrasparc_t2();
/// let mut w = WorkloadSpec::new(1);
/// w.add_task("t", ProgramBuilder::new().int(10).transmit().build(), 2048);
///
/// let mut batch = BatchSimulator::new(&m, &w).unwrap();
/// let fast = batch.run_one(&[3], 1_000, 10_000).unwrap();
/// let slow = Simulator::new(&m, &w, &[3]).unwrap().run(1_000, 10_000);
/// assert_eq!(fast, slow);
/// ```
#[derive(Debug, Clone)]
pub struct BatchSimulator<'a> {
    cfg: &'a MachineConfig,
    workload: &'a WorkloadSpec,
    /// L2 image after steady-state prefill, stats already reset; restored
    /// into scratch with a memcpy per lane instead of replaying the fill.
    l2_template: LaneCache,
    /// Strength-reduced L2-bank / memory-controller selection.
    bank_sel: BankSel,
    mc_sel: McSel,
    /// Flat decoded op table for all tasks (eight bytes per op).
    ops: Vec<DecodedOp>,
    /// Side table with the resolved details of every memory op.
    mem_ops: Vec<MemOp>,
    /// `(start, len)` into `ops` per task.
    task_ops: Vec<(usize, usize)>,
    /// Queue capacities (assignment-independent).
    q_cap: Vec<usize>,
    /// `(producer, consumer)` task of each queue.
    q_ends: Vec<(usize, usize)>,
    scratch: Scratch,
}

impl<'a> BatchSimulator<'a> {
    /// Prepares the shared state for a batch of evaluations.
    ///
    /// # Errors
    ///
    /// [`SimError::BadWorkload`] — inconsistent workload (see
    /// [`WorkloadSpec::validate`]).
    pub fn new(cfg: &'a MachineConfig, workload: &'a WorkloadSpec) -> Result<Self, SimError> {
        workload.validate()?;
        let topo = &cfg.topology;

        // Region bases: identical bump allocation to `Simulator::new`.
        let line = cfg.l2_line as u64;
        let mut next = 0x1000_0000u64;
        let mut region_bases = Vec::with_capacity(workload.regions().len());
        for r in workload.regions() {
            region_bases.push(next);
            let padded = r.bytes.div_ceil(line) * line + line;
            next += padded;
        }

        // Decode all programs into one flat table with region/queue lookups
        // pre-resolved, so the inner loop never touches the workload spec.
        let mut ops = Vec::new();
        let mut mem_ops = Vec::new();
        let mut task_ops = Vec::with_capacity(workload.tasks().len());
        for task in workload.tasks() {
            let start = ops.len();
            for &op in task.program.ops() {
                ops.push(match op {
                    Op::Int(n) => DecodedOp::Int(n),
                    Op::Mul(n) => DecodedOp::Mul(n),
                    Op::Fp(n) => DecodedOp::Fp(n),
                    Op::Crypto(n) => DecodedOp::Crypto(n),
                    Op::Load(r) | Op::Store(r) => {
                        let spec = &workload.regions()[r.0];
                        mem_ops.push(MemOp {
                            base: region_bases[r.0],
                            bytes: spec.bytes,
                            pattern: DecodedPattern::new(spec.pattern, spec.bytes),
                            region: r.0 as u32,
                            store: matches!(op, Op::Store(_)),
                        });
                        DecodedOp::Mem((mem_ops.len() - 1) as u32)
                    }
                    Op::QueuePush(q) => DecodedOp::QueuePush(q.0 as u32),
                    Op::QueuePop(q) => DecodedOp::QueuePop(q.0 as u32),
                    Op::NiuRx => DecodedOp::NiuRx,
                    Op::Transmit => DecodedOp::Transmit,
                });
            }
            task_ops.push((start, ops.len() - start));
        }

        // Steady-state L2 prefill: the fill sequence only depends on the
        // workload's regions, so it is computed once here and restored per
        // lane. This block mirrors `Simulator::run` exactly.
        let mut l2_template = LaneCache::new(cfg.l2_bytes, cfg.l2_ways, cfg.l2_line);
        {
            let budget = (cfg.l2_bytes / cfg.l2_line) * 3 / 2;
            let mut inserted = 0usize;
            let mut round: u64 = 0;
            let mut any = true;
            while inserted < budget && any {
                any = false;
                for (ri, r) in workload.regions().iter().enumerate() {
                    let lines = r.bytes.div_ceil(line);
                    if round < lines {
                        l2_template.access(region_bases[ri] + round * line, round);
                        inserted += 1;
                        any = true;
                        if inserted >= budget {
                            break;
                        }
                    }
                }
                round += 1;
            }
            l2_template.reset_stats();
        }

        let n_tasks = workload.tasks().len();
        let n_regions = workload.regions().len();
        let n_queues = workload.queues().len();
        let scratch = Scratch {
            tasks: vec![
                TaskHot {
                    rng: XorShift64::new(0),
                    imiss: Bernoulli::Never,
                    op_pos: 0,
                    op_start: 0,
                    op_end: 0,
                    core: 0,
                    micro: 0,
                };
                n_tasks
            ],
            wake_at: vec![0; n_tasks],
            iterations: vec![0; n_tasks],
            transmits: vec![0; n_tasks],
            seq_cursors: vec![0; n_tasks * n_regions],
            core_code: vec![0; topo.cores],
            l1d: (0..topo.cores)
                .map(|_| LaneCache::new(cfg.l1d_bytes, cfg.l1d_ways, cfg.l1d_line))
                .collect(),
            lsu_free: vec![0; topo.cores],
            fpu_free: vec![0; topo.cores],
            crypto_free: vec![0; topo.cores],
            task_pipe: vec![0; n_tasks],
            pipe_tasks: vec![Vec::new(); topo.pipes()],
            solo: vec![usize::MAX; topo.pipes()],
            pipe_rr: vec![0; topo.pipes()],
            pipe_next: vec![0; topo.pipes()],
            q_count: vec![0; n_queues],
            q_lat: vec![0; n_queues],
            l2: l2_template.clone(),
            bank_free: vec![0; cfg.l2_banks],
            mc_free: vec![0; cfg.mem_controllers],
            used: vec![false; topo.contexts()],
        };

        Ok(BatchSimulator {
            cfg,
            workload,
            l2_template,
            bank_sel: BankSel::new(cfg.l2_line, cfg.l2_banks),
            mc_sel: McSel::new(cfg.mem_controllers),
            ops,
            mem_ops,
            task_ops,
            q_cap: workload.queues().iter().map(|q| q.capacity).collect(),
            q_ends: workload
                .queues()
                .iter()
                .map(|q| (q.producer.0, q.consumer.0))
                .collect(),
            scratch,
        })
    }

    /// The workload this batch evaluates.
    pub fn workload(&self) -> &WorkloadSpec {
        self.workload
    }

    /// Evaluates one assignment, reusing the shared batch state. Returns
    /// the same report, bit for bit, as
    /// `Simulator::new(cfg, workload, assignment)?.run(warmup, measure)`.
    ///
    /// # Errors
    ///
    /// [`SimError::BadAssignment`] — wrong length, out-of-range context, or
    /// two tasks mapped to the same context (identical messages to
    /// [`crate::Simulator::new`]).
    pub fn run_one(
        &mut self,
        assignment: &[usize],
        warmup_cycles: u64,
        measure_cycles: u64,
    ) -> Result<SimReport, SimError> {
        let cfg = self.cfg;
        let topo = &cfg.topology;
        let n_tasks = self.workload.tasks().len();
        let n_regions = self.workload.regions().len();
        let bank_sel = self.bank_sel;
        let mc_sel = self.mc_sel;

        // ---- validation (same checks, same messages as Simulator::new) --
        let contexts = topo.contexts();
        if assignment.len() != n_tasks {
            return Err(SimError::BadAssignment(format!(
                "assignment has {} entries for {} tasks",
                assignment.len(),
                n_tasks
            )));
        }
        self.scratch.used.fill(false);
        for (t, &ctx) in assignment.iter().enumerate() {
            if ctx >= contexts {
                return Err(SimError::BadAssignment(format!(
                    "task {t} mapped to context {ctx}, machine has {contexts}"
                )));
            }
            if self.scratch.used[ctx] {
                return Err(SimError::BadAssignment(format!(
                    "two tasks mapped to context {ctx}"
                )));
            }
            self.scratch.used[ctx] = true;
        }

        // Split-borrow the scratch so lane state and the shared tables can
        // be used together in the loop below.
        let Scratch {
            tasks,
            wake_at,
            iterations,
            transmits,
            seq_cursors,
            core_code,
            l1d,
            lsu_free,
            fpu_free,
            crypto_free,
            task_pipe,
            pipe_tasks,
            solo,
            pipe_rr,
            pipe_next,
            q_count,
            q_lat,
            l2,
            bank_free,
            mc_free,
            used: _,
        } = &mut self.scratch;
        let ops = &self.ops;

        // ---- per-task state (lane reset) --------------------------------
        // Same placement-hash seeding as the scalar engine: identical
        // placements replay exactly, distinct placements sample distinct
        // stochastic streams.
        let mut placement_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &ctx in assignment {
            placement_hash ^= ctx as u64 + 1;
            placement_hash = placement_hash.wrapping_mul(0x0000_0100_0000_01B3);
        }

        for t in 0..n_tasks {
            let (ostart, olen) = self.task_ops[t];
            tasks[t] = TaskHot {
                rng: XorShift64::new(
                    self.workload.seed() ^ placement_hash ^ (t as u64).wrapping_mul(0x9E37_79B9),
                ),
                imiss: Bernoulli::Never,
                op_pos: ostart as u32,
                op_start: ostart as u32,
                op_end: (ostart + olen) as u32,
                core: topo.core_of(assignment[t]) as u32,
                micro: 0,
            };
            wake_at[t] = 0;
            iterations[t] = 0;
            transmits[t] = 0;
        }
        seq_cursors.fill(0);

        // L1I contention: per-core code footprint -> per-strand I-miss
        // probability.
        core_code.fill(0);
        for (t, task) in self.workload.tasks().iter().enumerate() {
            core_code[tasks[t].core as usize] += task.code_bytes;
        }
        for t in 0..n_tasks {
            let total = core_code[tasks[t].core as usize] as f64;
            let capacity = cfg.l1i_bytes as f64;
            let overflow = ((total - capacity) / capacity).max(0.0);
            tasks[t].imiss =
                Bernoulli::new((cfg.imiss_base + cfg.imiss_slope * overflow).min(cfg.imiss_max));
        }

        // ---- pipes ------------------------------------------------------
        for list in pipe_tasks.iter_mut() {
            list.clear();
        }
        for (t, &ctx) in assignment.iter().enumerate() {
            task_pipe[t] = topo.pipe_of(ctx);
            pipe_tasks[task_pipe[t]].push(t);
        }
        for (p, list) in pipe_tasks.iter().enumerate() {
            solo[p] = if list.len() == 1 { list[0] } else { usize::MAX };
            pipe_next[p] = if list.is_empty() { u64::MAX } else { 0 };
        }
        pipe_rr.fill(0);

        // ---- queues -----------------------------------------------------
        q_count.fill(0);
        for (qi, q) in self.workload.queues().iter().enumerate() {
            let same_core = tasks[q.producer.0].core == tasks[q.consumer.0].core;
            q_lat[qi] = if same_core {
                cfg.queue_same_core_lat
            } else {
                cfg.queue_cross_core_lat
            };
        }

        // ---- memory hierarchy -------------------------------------------
        for c in l1d.iter_mut() {
            c.clear();
        }
        l2.copy_state_from(&self.l2_template);
        lsu_free.fill(0);
        fpu_free.fill(0);
        crypto_free.fill(0);
        bank_free.fill(0);
        mc_free.fill(0);

        // ---- main loop (same grants as Simulator::run) -----------------
        // The scalar engine's single loop is split into a warm-up window
        // and a measurement window with the boundary reset in between, so
        // the `measuring` flag becomes a compile-time constant inside each
        // window. `issue_op!` / `run_window!` stamp out the shared body.
        // Every grant the scalar loop makes is made here too, with the same
        // draws, at the same cycle, in the same per-pipe order. Two
        // shortcuts change only which cycles the loop visits: it steps
        // straight to the next cycle in which some pipe must be
        // arbitrated, and after each grant `fast_forward` makes the pipe's
        // following private grants (`Int` micro-ops, queue retries that
        // must fail) ahead of the other pipes.
        let total_end = warmup_cycles + measure_cycles;
        let mut now: u64 = 0;
        let mut issue_slots: u64 = 0;
        let mut first_tx: Option<u64> = None;
        let mut last_tx: Option<u64> = None;

        macro_rules! issue_op {
            ($t:expr, $measuring:expr) => {{
                let t = $t;
                let th = &mut tasks[t];
                let c = th.core as usize;
                let op = ops[th.op_pos as usize];

                // Probabilistic L1I miss, drawn before the op — same RNG
                // draw order as the scalar engine.
                let imiss_extra = if th.imiss.sample(&mut th.rng) {
                    cfg.lat_l2
                } else {
                    0
                };

                let mut advance = true;
                let wake = match op {
                    DecodedOp::Int(n) => {
                        if th.micro == 0 {
                            th.micro = n;
                        }
                        th.micro -= 1;
                        advance = th.micro == 0;
                        now + 1
                    }
                    DecodedOp::Mul(n) => {
                        if th.micro == 0 {
                            th.micro = n;
                        }
                        th.micro -= 1;
                        advance = th.micro == 0;
                        now + cfg.lat_mul
                    }
                    DecodedOp::Fp(n) => {
                        if th.micro == 0 {
                            th.micro = n;
                        }
                        th.micro -= 1;
                        advance = th.micro == 0;
                        let issue = now.max(fpu_free[c]);
                        fpu_free[c] = issue + 1;
                        issue + cfg.lat_fp
                    }
                    DecodedOp::Crypto(n) => {
                        if th.micro == 0 {
                            th.micro = n;
                        }
                        th.micro -= 1;
                        advance = th.micro == 0;
                        let issue = now.max(crypto_free[c]);
                        crypto_free[c] = issue + 1;
                        issue + cfg.lat_crypto
                    }
                    DecodedOp::Mem(mi) => {
                        let m = &self.mem_ops[mi as usize];
                        // Inline `gen_addr` over the decoded pattern — the
                        // RNG consumption matches the scalar engine draw
                        // for draw.
                        let addr = match m.pattern {
                            DecodedPattern::Uniform => m.base + (th.rng.next_below(m.bytes) & !7),
                            DecodedPattern::Sequential { stride } => {
                                let cur = &mut seq_cursors[t * n_regions + m.region as usize];
                                let offset = *cur;
                                // `(offset + stride) % bytes` — the cursor
                                // stays below `bytes`, so when the stride
                                // does too (the common case) the modulo is
                                // a single conditional subtraction.
                                let mut next = offset + stride;
                                if stride < m.bytes {
                                    if next >= m.bytes {
                                        next -= m.bytes;
                                    }
                                } else {
                                    next %= m.bytes;
                                }
                                *cur = next;
                                m.base + offset
                            }
                            DecodedPattern::Hot { draw, hot_span } => {
                                let span = if draw.sample(&mut th.rng) {
                                    hot_span
                                } else {
                                    m.bytes
                                };
                                m.base + (th.rng.next_below(span) & !7)
                            }
                        };
                        let issue = now.max(lsu_free[c]);
                        lsu_free[c] = issue + 1;
                        let done = if l1d[c].access(addr, now) {
                            issue + cfg.lat_l1
                        } else {
                            let bank = bank_sel.of(addr);
                            let t_bank = (issue + cfg.lat_l1).max(bank_free[bank]);
                            bank_free[bank] = t_bank + 1;
                            if l2.access(addr, now) {
                                t_bank + cfg.lat_l2
                            } else {
                                let mc = mc_sel.of(addr);
                                let t_mc = (t_bank + cfg.lat_l2).max(mc_free[mc]);
                                mc_free[mc] = t_mc + cfg.mem_issue_gap;
                                t_mc + cfg.lat_mem
                            }
                        };
                        if m.store {
                            // Store buffer hides the latency from the
                            // strand; bandwidth was still charged above.
                            issue + 1
                        } else {
                            done
                        }
                    }
                    DecodedOp::QueuePush(q) => {
                        let q = q as usize;
                        if q_count[q] >= self.q_cap[q] {
                            advance = false;
                            now + cfg.queue_retry
                        } else {
                            q_count[q] += 1;
                            now + q_lat[q]
                        }
                    }
                    DecodedOp::QueuePop(q) => {
                        let q = q as usize;
                        if q_count[q] == 0 {
                            advance = false;
                            now + cfg.queue_retry
                        } else {
                            q_count[q] -= 1;
                            now + q_lat[q]
                        }
                    }
                    DecodedOp::NiuRx => now + cfg.lat_niu_rx,
                    DecodedOp::Transmit => {
                        transmits[t] += 1;
                        if $measuring {
                            let rel = now - warmup_cycles.min(now);
                            if first_tx.is_none() {
                                first_tx = Some(rel);
                            }
                            last_tx = Some(rel);
                        }
                        now + cfg.lat_niu_tx
                    }
                };
                wake_at[t] = wake + imiss_extra;
                if advance {
                    th.op_pos += 1;
                    if th.op_pos == th.op_end {
                        th.op_pos = th.op_start;
                        iterations[t] += 1;
                    }
                }
            }};
        }

        macro_rules! run_window {
            ($end:expr, $measuring:expr) => {
                while now < $end {
                    let mut granted = false;
                    // Visit pipes in two steps: a branchless pass computes
                    // a bitmask of the pipes due this cycle, then only the
                    // set bits are walked, in ascending pipe order. At
                    // typical issue densities most pipes are not due, and
                    // folding those unpredictable per-pipe branches into
                    // setcc arithmetic is markedly cheaper than
                    // mispredicting them.
                    let pipes = pipe_next.len();
                    let mut base = 0;
                    while base < pipes {
                        let top = (base + 64).min(pipes);
                        let mut due: u64 = 0;
                        for (i, &at) in pipe_next[base..top].iter().enumerate() {
                            due |= u64::from(at <= now) << i;
                        }
                        while due != 0 {
                            let p = base + due.trailing_zeros() as usize;
                            due &= due - 1;
                            let only = solo[p];
                            let t = if only != usize::MAX {
                                // Single-strand pipe: its `pipe_next` is
                                // the strand's wake-up, so being due is the
                                // whole arbitration.
                                only
                            } else {
                                let list = &pipe_tasks[p];
                                let len = list.len();
                                let start = pipe_rr[p];
                                // Least-recently-served rotation — same
                                // order as the scalar engine's
                                // `(start + i) % len` walk, expressed with
                                // a branchy wrap to avoid the integer
                                // division.
                                let mut chosen = None;
                                let mut earliest = u64::MAX;
                                let mut j = start;
                                for _ in 0..len {
                                    let t = list[j];
                                    let w = wake_at[t];
                                    if w <= now {
                                        chosen = Some((j, t));
                                        break;
                                    }
                                    earliest = earliest.min(w);
                                    j += 1;
                                    if j == len {
                                        j = 0;
                                    }
                                }
                                let Some((pos, t)) = chosen else {
                                    // Full scan failed: `earliest` is the
                                    // true next wake-up of this pipe.
                                    pipe_next[p] = earliest;
                                    continue;
                                };
                                pipe_rr[p] = if pos + 1 == len { 0 } else { pos + 1 };
                                t
                            };
                            granted = true;
                            issue_op!(t, $measuring);
                            // Run this pipe ahead through its private
                            // grants and hold it until the cycle it must
                            // be arbitrated again.
                            let peers = Peers {
                                ops,
                                task_pipe,
                                pipe_next,
                                q_count,
                                q_cap: &self.q_cap,
                                q_ends: &self.q_ends,
                                lat_l2: cfg.lat_l2,
                                queue_retry: cfg.queue_retry,
                            };
                            let (hold, replayed) = fast_forward(
                                p,
                                &pipe_tasks[p],
                                &mut pipe_rr[p],
                                now + 1,
                                $end,
                                peers,
                                tasks,
                                wake_at,
                                iterations,
                            );
                            pipe_next[p] = if only != usize::MAX {
                                wake_at[only]
                            } else {
                                hold
                            };
                            if $measuring {
                                issue_slots += 1 + replayed;
                            }
                        }
                        base = top;
                    }

                    // Every pipe's `pipe_next` is now past `now` and no
                    // later than its next grant, so their minimum is the
                    // next cycle in which anything can issue. The scalar
                    // engine steps one cycle after a grant instead; that
                    // only shows when the step lands on the window end,
                    // where it decides the measurement-boundary reset.
                    let next = pipe_next.iter().copied().min().unwrap_or(u64::MAX);
                    debug_assert!(next > now);
                    now = if granted && now + 1 == $end {
                        $end
                    } else {
                        next.min(total_end)
                    };
                }
            };
        }

        run_window!(warmup_cycles, false);
        // Measurement-boundary reset: the scalar engine performs it on the
        // first iteration with `now >= warmup_cycles`, i.e. exactly when a
        // warm-up actually ran and the loop continues past it (an idle jump
        // can leap straight to `total_end`, in which case the scalar loop
        // exits without ever resetting).
        if warmup_cycles > 0 && now < total_end {
            transmits.fill(0);
            iterations.fill(0);
            issue_slots = 0;
            first_tx = None;
            last_tx = None;
            for c in l1d.iter_mut() {
                c.reset_stats();
            }
            l2.reset_stats();
        }
        run_window!(total_end, true);

        Ok(SimReport {
            measured_cycles: measure_cycles,
            clock_hz: cfg.clock_hz,
            packets_transmitted: transmits.iter().sum(),
            per_task_transmits: transmits.clone(),
            per_task_iterations: iterations.clone(),
            l1d_hit_rates: l1d.iter().map(|cache| cache.hit_rate()).collect(),
            l2_hit_rate: l2.hit_rate(),
            issue_slots_granted: issue_slots,
            first_transmit_cycle: first_tx,
            last_transmit_cycle: last_tx,
        })
    }

    /// Evaluates a slice of assignments in order.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first [`SimError::BadAssignment`] — the
    /// same error a sequential scalar loop would hit first.
    pub fn run_batch<A: AsRef<[usize]>>(
        &mut self,
        assignments: &[A],
        warmup_cycles: u64,
        measure_cycles: u64,
    ) -> Result<Vec<SimReport>, SimError> {
        let mut out = Vec::with_capacity(assignments.len());
        for a in assignments {
            out.push(self.run_one(a.as_ref(), warmup_cycles, measure_cycles)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::program::{ProgramBuilder, QueueId};
    use crate::topology::Topology;

    fn machine() -> MachineConfig {
        MachineConfig::ultrasparc_t2()
    }

    /// A mixed workload exercising every op kind and every access pattern.
    fn mixed_workload(seed: u64) -> WorkloadSpec {
        let mut w = WorkloadSpec::new(seed);
        let uni = w.add_region("uniform", 96 * 1024, AccessPattern::Uniform);
        let seq = w.add_region(
            "stream",
            48 * 1024,
            AccessPattern::Sequential { stride: 64 },
        );
        let hot = w.add_region(
            "hot",
            256 * 1024,
            AccessPattern::Hot {
                hot_bytes: 4 * 1024,
                hot_prob: 0.9,
            },
        );
        let rx = w.add_task(
            "rx",
            ProgramBuilder::new().niu_rx().int(6).loads(seq, 2).build(),
            4096,
        );
        let work = w.add_task(
            "work",
            ProgramBuilder::new()
                .int(4)
                .loads(uni, 3)
                .mul(3)
                .fp(2)
                .store(hot)
                .build(),
            8192,
        );
        let tx = w.add_task(
            "tx",
            ProgramBuilder::new()
                .crypto(2)
                .loads(hot, 2)
                .transmit()
                .build(),
            4096,
        );
        let q1 = w.add_queue(rx, work, 16);
        let q2 = w.add_queue(work, tx, 16);
        // Wire the queues into the programs.
        let mut tasks: Vec<_> = w.tasks().to_vec();
        tasks[rx.0].program = ProgramBuilder::new()
            .niu_rx()
            .int(6)
            .loads(seq, 2)
            .push(q1)
            .build();
        tasks[work.0].program = ProgramBuilder::new()
            .pop(q1)
            .int(4)
            .loads(uni, 3)
            .mul(3)
            .fp(2)
            .store(hot)
            .push(q2)
            .build();
        tasks[tx.0].program = ProgramBuilder::new()
            .pop(q2)
            .crypto(2)
            .loads(hot, 2)
            .transmit()
            .build();
        let regions = w.regions().to_vec();
        let queues = w.queues().to_vec();
        let mut fresh = WorkloadSpec::new(w.seed());
        for r in regions {
            fresh.add_region(r.name, r.bytes, r.pattern);
        }
        for t in tasks {
            fresh.add_task(t.name, t.program, t.code_bytes);
        }
        for q in queues {
            fresh.add_queue(q.producer, q.consumer, q.capacity);
        }
        fresh
    }

    #[test]
    fn batch_matches_scalar_bit_for_bit() {
        let m = machine();
        let w = mixed_workload(11);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        let assignments: [&[usize]; 5] = [
            &[0, 1, 2],   // one pipe
            &[0, 4, 8],   // spread over pipes/cores
            &[0, 8, 16],  // three cores
            &[63, 31, 7], // scattered high contexts
            &[5, 6, 4],   // same pipe, reordered
        ];
        for a in assignments {
            let scalar = Simulator::new(&m, &w, a).unwrap().run(2_000, 20_000);
            let fast = batch.run_one(a, 2_000, 20_000).unwrap();
            assert_eq!(fast, scalar, "assignment {a:?}");
        }
    }

    #[test]
    fn lane_reuse_does_not_leak_state() {
        // Running the same assignment first, repeatedly, and after other
        // lanes must give identical reports: scratch reset is complete.
        let m = machine();
        let w = mixed_workload(23);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        let first = batch.run_one(&[0, 1, 2], 1_000, 8_000).unwrap();
        for other in [&[9usize, 17, 33][..], &[2, 1, 0], &[40, 41, 42]] {
            batch.run_one(other, 1_000, 8_000).unwrap();
        }
        let again = batch.run_one(&[0, 1, 2], 1_000, 8_000).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn zero_warmup_and_tiny_windows_match() {
        let m = machine();
        let w = mixed_workload(3);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        for (warm, meas) in [(0, 5_000), (0, 1), (100, 100), (7, 9)] {
            let scalar = Simulator::new(&m, &w, &[0, 8, 16]).unwrap().run(warm, meas);
            let fast = batch.run_one(&[0, 8, 16], warm, meas).unwrap();
            assert_eq!(fast, scalar, "windows ({warm}, {meas})");
        }
    }

    #[test]
    fn small_topology_matches() {
        let mut m = machine();
        m.topology = Topology::new(2, 2, 2);
        let w = mixed_workload(5);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        for a in [&[0usize, 1, 2][..], &[7, 3, 5], &[0, 4, 6]] {
            let scalar = Simulator::new(&m, &w, a).unwrap().run(1_000, 10_000);
            let fast = batch.run_one(a, 1_000, 10_000).unwrap();
            assert_eq!(fast, scalar, "assignment {a:?}");
        }
    }

    #[test]
    fn int_only_pipe_with_l1i_overflow_matches() {
        // Four Int-only strands share pipe 0, and their 32 KiB code
        // footprints overflow the core's 16 KiB L1I seven times over, so
        // every micro-op draws an I-miss at `imiss_max`: the fast-forward's
        // back-to-back run keeps breaking on misses, and the pipe's
        // round-robin pointer is moved by replayed grants only.
        let m = machine();
        let mut w = WorkloadSpec::new(17);
        for (i, prog) in [
            ProgramBuilder::new().int(13).build(),
            ProgramBuilder::new().int(3).int(8).build(),
            ProgramBuilder::new().int(1).build(),
            ProgramBuilder::new().int(40).int(2).build(),
        ]
        .into_iter()
        .enumerate()
        {
            w.add_task(format!("int{i}"), prog, 32 * 1024);
        }
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        for a in [&[0usize, 1, 2, 3][..], &[3, 1, 0, 2], &[0, 1, 2, 9]] {
            for (warm, meas) in [(0, 5_000), (7, 9), (1_001, 2_999), (20_000, 80_000)] {
                let scalar = Simulator::new(&m, &w, a).unwrap().run(warm, meas);
                let fast = batch.run_one(a, warm, meas).unwrap();
                assert_eq!(fast, scalar, "assignment {a:?}, windows ({warm}, {meas})");
            }
        }
    }

    #[test]
    fn imiss_on_last_warmup_cycle_matches() {
        // One Int-only strand alone on its pipe, missing L1I at
        // `imiss_max`. Whenever its grant on the last warm-up cycle
        // misses, its next wake-up lies past a 9-cycle measurement window:
        // the scalar loop still steps onto the boundary and resets the
        // counters, so the replay must leave that grant to the cycle loop.
        let m = machine();
        let mut w = WorkloadSpec::new(31);
        w.add_task("int", ProgramBuilder::new().int(3).build(), 64 * 1024);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        for warm in 1..300 {
            let scalar = Simulator::new(&m, &w, &[5]).unwrap().run(warm, 9);
            let fast = batch.run_one(&[5], warm, 9).unwrap();
            assert_eq!(fast, scalar, "windows ({warm}, 9)");
        }
    }

    #[test]
    fn blocked_queue_retries_match() {
        // Two one-slot queues: a fast producer that keeps finding `q0`
        // full, and a slow producer whose consumer keeps finding `q1`
        // empty. Retries are replayed only until the peer that could
        // unblock them may issue; the assignments put the peers on the
        // same pipe, on sibling pipes of one core, and on other cores.
        let m = machine();
        let mut w = WorkloadSpec::new(41);
        let r = w.add_region("table", 512 * 1024, AccessPattern::Uniform);
        let (q0, q1) = (QueueId(0), QueueId(1));
        let fast = w.add_task("fast", ProgramBuilder::new().int(2).push(q0).build(), 4096);
        let slow = w.add_task(
            "slow",
            ProgramBuilder::new()
                .pop(q0)
                .loads(r, 3)
                .int(9)
                .push(q1)
                .build(),
            4096,
        );
        let sink = w.add_task(
            "sink",
            ProgramBuilder::new().pop(q1).mul(2).transmit().build(),
            4096,
        );
        assert_eq!(w.add_queue(fast, slow, 1), q0);
        assert_eq!(w.add_queue(slow, sink, 1), q1);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        for a in [
            &[0usize, 1, 2][..],
            &[2, 0, 1],
            &[0, 4, 5],
            &[4, 0, 1],
            &[0, 8, 16],
            &[16, 8, 0],
            &[0, 1, 8],
        ] {
            for (warm, meas) in [(0, 5_000), (7, 9), (1_001, 2_999), (20_000, 80_000)] {
                let scalar = Simulator::new(&m, &w, a).unwrap().run(warm, meas);
                let fast = batch.run_one(a, warm, meas).unwrap();
                assert_eq!(fast, scalar, "assignment {a:?}, windows ({warm}, {meas})");
            }
        }
    }

    #[test]
    fn window_ends_inside_int_bursts_match() {
        // A 5000-micro-op burst on a solo pipe and on a shared one, next to
        // memory and queue traffic: the warm-up and measurement ends fall
        // inside a burst, so the replay must stop short of each window end.
        let m = machine();
        let mut w = WorkloadSpec::new(29);
        let r = w.add_region("table", 64 * 1024, AccessPattern::Uniform);
        let q = QueueId(0);
        w.add_task(
            "long",
            ProgramBuilder::new()
                .int(5_000)
                .loads(r, 1)
                .transmit()
                .build(),
            2048,
        );
        let prod = w.add_task("prod", ProgramBuilder::new().int(37).push(q).build(), 2048);
        let cons = w.add_task(
            "cons",
            ProgramBuilder::new()
                .pop(q)
                .int(11)
                .loads(r, 2)
                .transmit()
                .build(),
            2048,
        );
        assert_eq!(w.add_queue(prod, cons, 4), q);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        for a in [&[0usize, 4, 8][..], &[0, 1, 2], &[1, 0, 40]] {
            for (warm, meas) in [(7, 9), (1_001, 2_999), (20_000, 80_000)] {
                let scalar = Simulator::new(&m, &w, a).unwrap().run(warm, meas);
                let fast = batch.run_one(a, warm, meas).unwrap();
                assert_eq!(fast, scalar, "assignment {a:?}, windows ({warm}, {meas})");
            }
        }
    }

    #[test]
    fn error_messages_match_scalar() {
        let m = machine();
        let w = mixed_workload(1);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        let cases: [&[usize]; 3] = [&[0], &[0, 1, 64], &[3, 3, 4]];
        for a in cases {
            let scalar = Simulator::new(&m, &w, a).err().unwrap();
            let fast = batch.run_one(a, 1_000, 1_000).err().unwrap();
            assert_eq!(format!("{fast}"), format!("{scalar}"), "assignment {a:?}");
        }
    }

    #[test]
    fn run_batch_orders_and_propagates_errors() {
        let m = machine();
        let w = mixed_workload(9);
        let mut batch = BatchSimulator::new(&m, &w).unwrap();
        let good: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![0, 8, 16]];
        let reports = batch.run_batch(&good, 1_000, 5_000).unwrap();
        assert_eq!(reports.len(), 2);
        for (a, r) in good.iter().zip(&reports) {
            let scalar = Simulator::new(&m, &w, a).unwrap().run(1_000, 5_000);
            assert_eq!(*r, scalar);
        }
        let bad: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![0, 0, 1]];
        assert!(batch.run_batch(&bad, 1_000, 5_000).is_err());
    }
}
