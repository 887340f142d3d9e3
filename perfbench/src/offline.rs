//! The offline certificate workloads: `sim-l1`, `sim-mem` and
//! `evt-rounds`.
//!
//! Each repetition builds the workload, opens a fresh persistent
//! campaign store (set-up), then drives an [`IterativeSession`] step by
//! step until it returns its certificate (timed). Outputs are checked
//! after the timed region. The reference kernel runs between
//! repetitions, and the run's times are rescaled to the reference speed
//! (see [`crate::reference`]). In a traced run the repetitions
//! alternate between the plain model and store and the timing wrappers
//! of [`crate::probe`]; both kinds must journal the same bytes.

use crate::probe::{IoCounts, IoProbe, SimCounts, SimProbe, TimedIo, TimedModel};
use crate::reference::Speed;
use crate::stats::{digest, mean, median, peak_rss_mb, percentile, windowed_percentile};
use crate::{fresh_dir, millis, secs, Outcome, RunArgs};
use optassign::iterative::{IterativeConfig, IterativeResult, IterativeSession, StepOutcome};
use optassign::model::{AnalyticModel, PerformanceModel, SimModel};
use optassign::{persist, split_seed, Parallelism};
use optassign_evt::pot::PotConfig;
use optassign_evt::resilient::{estimate_resilient, ResilientConfig};
use optassign_netapps::Benchmark;
use optassign_obs::Obs;
use optassign_sim::{MachineConfig, WorkloadSpec};
use optassign_store::io::RealIo;
use optassign_store::{CampaignStore, WAL_FILE};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Pipeline instances of every offline workload: 8 × 3 = 24 threads,
/// the paper's case-study size.
const INSTANCES: usize = 8;
/// Fewest timed repetitions in a run (untraced), whatever `--seconds`.
const MIN_REPS: usize = 3;
/// Set-up samples per run; each is the mean of `SETUP_BATCH` set-ups.
const SETUP_SAMPLES: usize = 9;
const SETUP_BATCH: usize = 200;
/// In-process best-so-far reads timed after each certificate.
const QUERY_READS: usize = 2000;
/// Samples per window of a windowed tail percentile.
const QUERY_WINDOW: usize = 1000;

/// Which model a workload evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The cycle-level simulator with a pinned warm-up/measure window.
    Sim { warmup: u64, measure: u64 },
    /// The closed-form analytic model (microsecond evaluations).
    Analytic,
}

/// A pinned offline campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Workload name.
    pub name: &'static str,
    /// Network application being assigned.
    pub bench: Benchmark,
    /// Model the campaign evaluates.
    pub engine: Engine,
    /// `N_init`.
    pub n_init: usize,
    /// `N_delta`.
    pub n_delta: usize,
    /// Sample cap; with an unreachable loss it fixes the work.
    pub max_samples: usize,
    /// Acceptable-loss target.
    pub loss: f64,
}

/// The plan behind an offline workload name.
#[must_use]
pub fn plan(name: &str) -> Option<Plan> {
    let sim = |name, bench| Plan {
        name,
        bench,
        engine: Engine::Sim {
            warmup: 20_000,
            measure: 80_000,
        },
        n_init: 300,
        n_delta: 100,
        max_samples: 300,
        loss: 0.05,
    };
    match name {
        "sim-l1" => Some(sim("sim-l1", Benchmark::IpFwdL1)),
        "sim-mem" => Some(sim("sim-mem", Benchmark::IpFwdMem)),
        "evt-rounds" => Some(Plan {
            name: "evt-rounds",
            bench: Benchmark::IpFwdL1,
            engine: Engine::Analytic,
            n_init: 1000,
            n_delta: 100,
            max_samples: 10_000,
            // The smallest loss the session accepts, so that only a gap
            // of exactly 0 meets it: a degenerate fit (UPB equal to the
            // best sample within 1e-9) meets any loss above ~1e-10 and
            // would stop the campaign before its pinned work.
            loss: f64::MIN_POSITIVE,
        }),
        _ => None,
    }
}

impl Plan {
    /// The campaign configuration: every setting that decides how much
    /// work a campaign does is explicit, and the stall stop is off.
    #[must_use]
    pub fn config(&self, workers: usize) -> IterativeConfig {
        IterativeConfig {
            n_init: self.n_init,
            n_delta: self.n_delta,
            acceptable_loss: self.loss,
            confidence: 0.95,
            max_samples: self.max_samples,
            max_eval_retries: 2,
            eval_budget: 200_000,
            stall_rounds: usize::MAX,
            parallelism: Parallelism::new(workers),
            ..IterativeConfig::default()
        }
    }

    /// Samples every certificate must use: `N_init` plus every whole
    /// `N_delta` batch that fits under the cap.
    #[must_use]
    pub fn pinned_samples(&self) -> usize {
        self.n_init + (self.max_samples - self.n_init) / self.n_delta * self.n_delta
    }

    /// Simulated cycles per evaluation, for the simulator workloads.
    #[must_use]
    pub fn window_cycles(&self) -> Option<u64> {
        match self.engine {
            Engine::Sim { warmup, measure } => Some(warmup + measure),
            Engine::Analytic => None,
        }
    }

    /// Builds the model for a workload seed, timing the netapps build.
    #[must_use]
    pub fn build(&self, workload_seed: u64) -> (Model, u64) {
        let start = Instant::now();
        let workload = self.bench.build_workload(INSTANCES, workload_seed);
        let build_ns = start.elapsed().as_nanos() as u64;
        (Model::new(self.engine, workload), build_ns)
    }
}

/// The model of an offline workload.
pub enum Model {
    /// Simulator-backed.
    Sim(SimModel),
    /// Analytic.
    Analytic(AnalyticModel),
}

impl Model {
    fn new(engine: Engine, workload: WorkloadSpec) -> Model {
        let machine = MachineConfig::ultrasparc_t2();
        match engine {
            Engine::Sim { warmup, measure } => {
                Model::Sim(SimModel::new(machine, workload).with_windows(warmup, measure))
            }
            Engine::Analytic => Model::Analytic(AnalyticModel::new(machine, workload)),
        }
    }
}

/// Seeds derived from the run seed: the netapps workload's and the
/// campaign's.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Workload (traffic and tables) seed.
    pub workload: u64,
    /// Campaign seed.
    pub campaign: u64,
}

impl Seeds {
    /// Splits the run seed.
    #[must_use]
    pub fn from_run(seed: u64) -> Seeds {
        Seeds {
            workload: split_seed(seed, 1),
            campaign: split_seed(seed, 2),
        }
    }
}

/// Timing of one certificate.
#[derive(Debug, Clone)]
pub struct Certificate {
    /// The session's final result.
    pub result: IterativeResult,
    /// Session creation to final result.
    pub wall_ns: u64,
    /// Wall time of each `step` call.
    pub step_ns: Vec<u64>,
    /// Milliseconds per in-process best-so-far read
    /// (`IterativeSession::snapshot`), timed after the certificate.
    pub query_ms: Vec<f64>,
}

/// Drives one campaign to its certificate. `after_step` runs after each
/// step, inside the timed region, with the step's wall time.
///
/// # Errors
///
/// A failed session step.
pub fn certify<P: PerformanceModel + Sync>(
    model: &P,
    store: &CampaignStore,
    config: &IterativeConfig,
    seed: u64,
    mut after_step: impl FnMut(u64),
) -> Result<Certificate, String> {
    let obs = Obs::disabled();
    let start = Instant::now();
    let mut session = IterativeSession::new(config, seed).map_err(|e| e.to_string())?;
    let mut step_ns = Vec::new();
    let result = loop {
        let step_start = Instant::now();
        let outcome = session
            .step(model, &obs, Some(store))
            .map_err(|e| e.to_string())?;
        let ns = step_start.elapsed().as_nanos() as u64;
        step_ns.push(ns);
        after_step(ns);
        if let StepOutcome::Finished(result) = outcome {
            break *result;
        }
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    // The in-process form of the service's best-so-far query.
    let query_ms = (0..QUERY_READS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(session.snapshot());
            millis(t.elapsed().as_nanos() as u64)
        })
        .collect();
    Ok(Certificate {
        result,
        wall_ns,
        step_ns,
        query_ms,
    })
}

/// The estimator configuration an [`IterativeSession`] derives from its
/// campaign config and seed.
#[must_use]
pub fn session_resilient_config(config: &IterativeConfig, seed: u64) -> ResilientConfig {
    ResilientConfig {
        base: PotConfig {
            confidence: config.confidence,
            ..PotConfig::default()
        },
        policy: config.fallback,
        seed: seed ^ 0xE57,
        ..ResilientConfig::default()
    }
}

/// The campaign's measured values in sample order, rebuilt from its
/// store: batch 0 (`N_init` slots), then each `N_delta` extension.
/// Also returns the sample size at the end of each batch.
///
/// # Errors
///
/// A batch journaled only in part.
pub fn journaled_sample(
    store: &CampaignStore,
    config: &IterativeConfig,
    seed: u64,
    tasks: usize,
    topology: optassign::Topology,
) -> Result<(Vec<f64>, Vec<usize>), String> {
    let campaign = persist::iterative_campaign_id(seed, config, tasks, topology);
    let mut values = Vec::new();
    let mut ends = Vec::new();
    for sequence in 0u64.. {
        let want = if sequence == 0 {
            config.n_init
        } else {
            config.n_delta
        };
        if store.lookup_slot(campaign, sequence, 0).is_none() {
            break;
        }
        for slot in 0..want as u64 {
            let record = store
                .lookup_slot(campaign, sequence, slot)
                .ok_or_else(|| format!("batch {sequence} lacks slot {slot}"))?;
            values.push(record.value);
        }
        ends.push(values.len());
    }
    Ok((values, ends))
}

/// Per-layer numbers of one traced certificate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LayerTimes {
    sim: SimCounts,
    io: IoCounts,
    /// Σ workers × each step's parallel region.
    exec_capacity_ns: u64,
    /// Σ step time outside the parallel region and store I/O.
    core_self_ns: u64,
    /// Σ step time.
    steps_ns: u64,
}

/// One repetition: a certificate and what the report needs.
#[derive(Clone)]
struct Rep {
    /// Which sub-seed of the run the repetition used.
    index: usize,
    seeds: Seeds,
    traced: bool,
    build_ns: u64,
    cert: Certificate,
    layers: Option<LayerTimes>,
}

/// What a repetition journaled: its WAL image and its measured values in
/// sample order, with the sample size at the end of each batch. Checked,
/// then dropped, so memory does not grow with the repetitions.
pub(crate) struct Journal {
    pub(crate) wal: Vec<u8>,
    values: Vec<f64>,
    batch_ends: Vec<usize>,
}

impl Journal {
    /// Reads a finished campaign's sample from its store, then closes the
    /// store and reads the WAL file in `dir`.
    pub(crate) fn read(
        store: CampaignStore,
        dir: &Path,
        config: &IterativeConfig,
        seed: u64,
        tasks: usize,
        topology: optassign::Topology,
    ) -> Result<Journal, String> {
        let (values, batch_ends) = journaled_sample(&store, config, seed, tasks, topology)?;
        store.sync();
        drop(store);
        let wal = std::fs::read(dir.join(WAL_FILE)).map_err(|e| format!("reading WAL: {e}"))?;
        Ok(Journal {
            wal,
            values,
            batch_ends,
        })
    }
}

/// Builds the workload and opens a fresh store in `dir`: the set-up.
fn setup(
    plan: &Plan,
    seeds: Seeds,
    dir: &Path,
    io_probe: Option<&Arc<IoProbe>>,
) -> Result<(Model, CampaignStore, u64), String> {
    let (model, build_ns) = plan.build(seeds.workload);
    let store = match io_probe {
        Some(probe) => CampaignStore::open_with(
            dir,
            Arc::new(TimedIo::new(RealIo, Arc::clone(probe))),
            &Obs::disabled(),
        ),
        None => CampaignStore::open(dir),
    }
    .map_err(|e| format!("opening store: {e}"))?;
    Ok((model, store, build_ns))
}

/// Set-up times in seconds: `SETUP_SAMPLES` samples, each the mean of
/// `SETUP_BATCH` individually timed set-ups into fresh directories.
fn time_setups(plan: &Plan, seeds: Seeds, root: &Path) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for i in 0..SETUP_SAMPLES {
        let mut total_ns = 0;
        for j in 0..SETUP_BATCH {
            let dir = fresh_dir(root, &format!("setup-{i}-{j}"))?;
            let start = Instant::now();
            let built = setup(plan, seeds, &dir, None)?;
            total_ns += start.elapsed().as_nanos() as u64;
            drop(built);
            let _ = std::fs::remove_dir_all(&dir);
        }
        samples.push(secs(total_ns) / SETUP_BATCH as f64);
    }
    Ok(samples)
}

/// Certifies `model`; with an I/O probe (the store must journal through
/// a [`TimedIo`] recording into it), also wraps the model in a
/// [`TimedModel`] and returns the certificate's layer times.
pub(crate) fn rep_on<M: PerformanceModel + Sync>(
    model: &M,
    store: &CampaignStore,
    config: &IterativeConfig,
    seed: u64,
    io_probe: Option<&Arc<IoProbe>>,
) -> Result<(Certificate, Option<LayerTimes>), String> {
    let Some(io_probe) = io_probe else {
        return Ok((certify(model, store, config, seed, |_| {})?, None));
    };
    let sim_probe = SimProbe::default();
    let timed = TimedModel::new(model, &sim_probe);
    let workers = config.parallelism.workers as u64;
    let io_start = io_probe.counts();
    let mut io_before = io_start.io_ns;
    let mut layers = LayerTimes::default();
    let cert = certify(&timed, store, config, seed, |step_ns| {
        let region = sim_probe.take_region();
        let io_now = io_probe.counts().io_ns;
        let io = io_now - io_before;
        io_before = io_now;
        layers.exec_capacity_ns += workers * region;
        layers.core_self_ns += step_ns.saturating_sub(region + io);
        layers.steps_ns += step_ns;
    })?;
    let io_end = io_probe.counts();
    layers.sim = sim_probe.counts();
    layers.io = IoCounts {
        appends: io_end.appends - io_start.appends,
        bytes: io_end.bytes - io_start.bytes,
        syncs: io_end.syncs - io_start.syncs,
        sync_ns: io_end.sync_ns - io_start.sync_ns,
        io_ns: io_end.io_ns - io_start.io_ns,
    };
    Ok((cert, Some(layers)))
}

fn one_rep(
    plan: &Plan,
    config: &IterativeConfig,
    index: usize,
    seeds: Seeds,
    dir: &Path,
    traced: bool,
) -> Result<(Rep, Journal), String> {
    let io_probe = traced.then(|| Arc::new(IoProbe::default()));
    let (model, store, build_ns) = setup(plan, seeds, dir, io_probe.as_ref())?;
    let (cert, layers) = match &model {
        Model::Sim(m) => rep_on(m, &store, config, seeds.campaign, io_probe.as_ref())?,
        Model::Analytic(m) => rep_on(m, &store, config, seeds.campaign, io_probe.as_ref())?,
    };
    let (tasks, topology) = match &model {
        Model::Sim(m) => (m.tasks(), m.topology()),
        Model::Analytic(m) => (m.tasks(), m.topology()),
    };
    let journal = Journal::read(store, dir, config, seeds.campaign, tasks, topology)?;
    let rep = Rep {
        index,
        seeds,
        traced,
        build_ns,
        cert,
        layers,
    };
    Ok((rep, journal))
}

/// Re-evaluates the certificate's best assignment on a freshly built
/// model; it must reproduce the reported performance bit for bit.
fn reevaluate(plan: &Plan, seeds: Seeds, result: &IterativeResult) -> f64 {
    match plan.build(seeds.workload).0 {
        Model::Sim(m) => m.evaluate(&result.best_assignment),
        Model::Analytic(m) => m.evaluate(&result.best_assignment),
    }
}

/// Re-times the estimator on every round's sample. Returns the fit
/// times, or `None` when a re-fit does not reproduce the session's
/// estimate bit for bit (the evt layer is then unmeasured).
pub(crate) fn refit(
    result: &IterativeResult,
    journal: &Journal,
    config: &IterativeConfig,
    seed: u64,
) -> Option<Vec<f64>> {
    let cfg = session_resilient_config(config, seed);
    let mut fit_ms = Vec::with_capacity(journal.batch_ends.len());
    for &end in &journal.batch_ends {
        let start = Instant::now();
        let fit = estimate_resilient(&journal.values[..end], &cfg);
        fit_ms.push(millis(start.elapsed().as_nanos() as u64));
        let logged = result.trace.iter().find(|t| t.samples == end);
        match (fit, logged) {
            (Ok(report), Some(t))
                if report.upb.point.to_bits() == t.estimated_optimal.to_bits() => {}
            (Err(_), None) => {}
            _ => return None,
        }
    }
    Some(fit_ms)
}

/// Output checks of one repetition. A traced repetition is also
/// compared with the untraced one of the same sub-seed (`twin`).
fn check_rep(
    out: &mut Outcome,
    plan: &Plan,
    rep: &Rep,
    journal: &Journal,
    twin: Option<&(Rep, Journal)>,
) {
    let r = &rep.cert.result;
    let pinned = plan.pinned_samples();
    out.check(r.samples_used == pinned, || {
        format!("samples_used {} != pinned {pinned}", r.samples_used)
    });
    out.check(journal.values.len() == pinned, || {
        format!(
            "store holds {} samples, pinned {pinned}",
            journal.values.len()
        )
    });
    let upb = r.final_estimate.upb.point;
    out.check(r.best_performance <= upb, || {
        format!("best {} above UPB {upb}", r.best_performance)
    });
    let again = reevaluate(plan, rep.seeds, r);
    out.check(again.to_bits() == r.best_performance.to_bits(), || {
        format!(
            "best assignment re-evaluates to {again}, certificate says {}",
            r.best_performance
        )
    });
    if let Some((p, p_journal)) = twin {
        let f = &p.cert.result;
        let same = r.best_assignment == f.best_assignment
            && r.best_performance.to_bits() == f.best_performance.to_bits()
            && upb.to_bits() == f.final_estimate.upb.point.to_bits()
            && r.samples_used == f.samples_used
            && r.stop == f.stop
            && journal.wal == p_journal.wal;
        out.check(same, || {
            format!(
                "traced repetition {} differs from the untraced one (certificate or WAL bytes)",
                rep.index
            )
        });
    }
    if !rep.traced {
        out.lines.push(format!(
            "certificate[{}]: best {:.6e} UPB {:.6e} gap {:.3e} samples {} stop {} \
             digest {:016x} in {:.4} s wall",
            rep.index,
            r.best_performance,
            upb,
            r.final_estimate.improvement_headroom(),
            r.samples_used,
            r.stop.name(),
            digest(&journal.values),
            secs(rep.cert.wall_ns)
        ));
    }
}

/// Runs an offline workload. Repetition `k` uses sub-seed `k` of the run
/// seed (in a traced run, an untraced and a traced repetition share each
/// sub-seed), so a run's medians span several campaigns' data. The
/// reference kernel runs before the first repetition and after each.
///
/// # Errors
///
/// Failures that leave nothing to report (the scratch directory).
pub fn run(plan: &Plan, args: &RunArgs) -> Result<Outcome, String> {
    let config = plan.config(args.workers);
    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut twin: Option<(Rep, Journal)> = None;
    let mut fits = None;
    let start = Instant::now();
    // A simulator certificate's time is set by its parallel region, an
    // evt-rounds one's by serial fits.
    let mut speed = Speed::start(match plan.engine {
        Engine::Sim { .. } => args.workers,
        Engine::Analytic => 1,
    });
    // Set-ups are timed first, in the same state of the process in
    // every run.
    let setups = time_setups(plan, Seeds::from_run(args.seed), &args.work_dir)?;
    speed.sample();
    let (min_reps, per_seed) = if args.trace { (4, 2) } else { (MIN_REPS, 1) };
    let mut tries = 0usize;
    loop {
        let index = tries / per_seed;
        let traced = args.trace && tries % 2 == 1;
        let seeds = Seeds::from_run(split_seed(args.seed, index as u64));
        let dir = fresh_dir(&args.work_dir, &format!("rep-{tries}"))?;
        tries += 1;
        out.attempted += 1;
        let done = one_rep(plan, &config, index, seeds, &dir, traced);
        speed.sample();
        match done {
            Ok((rep, journal)) => {
                let pair = twin.as_ref().filter(|(p, _)| traced && p.index == index);
                check_rep(&mut out, plan, &rep, &journal, pair);
                if traced && fits.is_none() {
                    fits = Some(refit(&rep.cert.result, &journal, &config, seeds.campaign));
                }
                if args.trace && !traced {
                    twin = Some((rep.clone(), journal));
                }
                reps.push(rep);
            }
            Err(e) => {
                out.failed += 1;
                out.lines.push(format!("campaign failed: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let elapsed = start.elapsed();
        let per_rep = elapsed / tries as u32;
        if tries >= min_reps && elapsed + per_rep > args.seconds {
            break;
        }
    }
    out.lines.push(speed.summary());
    report(&mut out, plan, args, &reps, &setups, &speed, fits.flatten());
    Ok(out)
}

fn report(
    out: &mut Outcome,
    plan: &Plan,
    args: &RunArgs,
    reps: &[Rep],
    setups: &[f64],
    speed: &Speed,
    fits: Option<Vec<f64>>,
) {
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    // Every time below is rescaled to the reference speed: a simulator
    // certificate by the speed of the worker threads its parallel region
    // runs on; evt-rounds certificates (serial fits dominate), set-ups
    // and best-so-far reads by the speed of one thread.
    let scale = match plan.engine {
        Engine::Sim { .. } => speed.parallel(),
        Engine::Analytic => speed.serial(),
    };
    // The mean certificate time: like the kernel's mean, it integrates
    // how slow the host was over the run.
    let cert_s = |rs: &[&Rep]| {
        let v: Vec<f64> = rs.iter().map(|r| secs(r.cert.wall_ns) * scale).collect();
        mean(&v)
    };
    // Round latency: every step after a campaign's first; a one-step
    // campaign's single step is its only round.
    let rounds: Vec<f64> = untraced
        .iter()
        .flat_map(|r| {
            let skip = usize::from(r.cert.step_ns.len() > 1);
            r.cert.step_ns[skip..].iter().map(|&ns| millis(ns) * scale)
        })
        .collect();
    let queries: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.cert.query_ms.iter().map(|&ms| ms * speed.serial()))
        .collect();
    out.tails(
        args.trace,
        percentile(&rounds, 95.0),
        windowed_percentile(&queries, QUERY_WINDOW, 99.0),
    );
    if !args.trace {
        out.metric("setup_s", median(setups) * speed.serial(), "s");
        out.metric("certificate_s", cert_s(&untraced), "s");
        out.metric("round_p50_ms", percentile(&rounds, 50.0), "ms");
        out.metric("best_query_p50_ms", percentile(&queries, 50.0), "ms");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        out.lines.push(format!(
            "{}: {} certificates, {} rounds, {} best-so-far reads",
            plan.name,
            untraced.len(),
            rounds.len(),
            queries.len()
        ));
        return;
    }

    let pairs: Vec<(&Certificate, &LayerTimes)> = traced
        .iter()
        .filter_map(|r| r.layers.as_ref().map(|l| (&r.cert, l)))
        .collect();
    let (wall_ns, steps_ns) = campaign_layers(out, &pairs, plan.window_cycles(), fits.as_deref());
    crate::tenants::unused_service_metrics(out);
    let builds: Vec<f64> = reps.iter().map(|r| secs(r.build_ns)).collect();
    out.metric("netapps.build_s", median(&builds), "s");
    let coverage = if wall_ns > 0.0 {
        steps_ns / wall_ns
    } else {
        0.0
    };
    out.metric("trace.coverage", coverage, "ratio");
    let overhead = if untraced.is_empty() || traced.is_empty() {
        0.0
    } else {
        cert_s(&traced) / cert_s(&untraced) - 1.0
    };
    out.metric("trace.overhead", overhead, "ratio");
    out.lines.push(format!(
        "{}: {} traced and {} untraced certificates; coverage {coverage:.4}",
        plan.name,
        traced.len(),
        untraced.len()
    ));
    if coverage < 0.95 {
        out.lines.push(format!(
            "uncovered: {:.3} ms per certificate outside IterativeSession::step \
             (session creation and the loop between steps)",
            (wall_ns - steps_ns) / 1e6
        ));
    }
}

/// Reports the sim, exec, core, evt and store layers of traced
/// certificates, as means per certificate, and returns the mean
/// certificate wall time and the mean time inside session steps (ns).
/// `fits` are the evt re-fit times; `None` reports evt as unmeasured.
pub(crate) fn campaign_layers(
    out: &mut Outcome,
    traced: &[(&Certificate, &LayerTimes)],
    window_cycles: Option<u64>,
    fits: Option<&[f64]>,
) -> (f64, f64) {
    let n = traced.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Certificate, &LayerTimes) -> f64| -> f64 {
        traced.iter().map(|(c, l)| f(c, l)).sum::<f64>() / n
    };
    let evals = mean(&|_, l| l.sim.evals as f64);
    let busy_ns = mean(&|_, l| l.sim.busy_ns as f64);
    let capacity_ns = mean(&|_, l| l.exec_capacity_ns as f64);
    let ns_per_eval = if evals > 0.0 { busy_ns / evals } else { 0.0 };
    out.metric("sim.evals", evals, "count");
    out.metric("sim.calls", mean(&|_, l| l.sim.calls as f64), "count");
    out.metric("sim.busy_s", busy_ns / 1e9, "s");
    out.metric("sim.ms_per_eval", ns_per_eval / 1e6, "ms");
    out.metric(
        "sim.ns_per_cycle",
        window_cycles.map_or(0.0, |c| ns_per_eval / c as f64),
        "ns",
    );
    out.metric(
        "exec.utilization",
        if capacity_ns > 0.0 {
            busy_ns / capacity_ns
        } else {
            0.0
        },
        "ratio",
    );
    out.metric("exec.idle_s", (capacity_ns - busy_ns).max(0.0) / 1e9, "s");
    out.metric("core.steps", mean(&|c, _| c.step_ns.len() as f64), "count");
    out.metric(
        "core.self_s",
        mean(&|_, l| l.core_self_ns as f64) / 1e9,
        "s",
    );
    match fits {
        Some(fit_ms) => {
            out.metric("evt.fits", fit_ms.len() as f64, "count");
            out.metric("evt.fit_p50_ms", percentile(fit_ms, 50.0), "ms");
            out.metric("evt.fit_p95_ms", percentile(fit_ms, 95.0), "ms");
            out.metric("evt.fit_s", fit_ms.iter().sum::<f64>() / 1e3, "s");
        }
        None => {
            out.lines
                .push("evt: unmeasured (a re-fit did not reproduce the session's UPB)".into());
            for (name, unit) in [
                ("evt.fits", "count"),
                ("evt.fit_p50_ms", "ms"),
                ("evt.fit_p95_ms", "ms"),
                ("evt.fit_s", "s"),
            ] {
                out.metric(name, 0.0, unit);
            }
        }
    }
    out.metric("store.appends", mean(&|_, l| l.io.appends as f64), "count");
    out.metric("store.bytes", mean(&|_, l| l.io.bytes as f64), "bytes");
    out.metric("store.syncs", mean(&|_, l| l.io.syncs as f64), "count");
    out.metric("store.sync_s", mean(&|_, l| l.io.sync_ns as f64) / 1e9, "s");
    out.metric("store.io_s", mean(&|_, l| l.io.io_ns as f64) / 1e9, "s");
    let hit = mean(&|c, _| 1.0 - c.result.evaluations as f64 / c.result.samples_used.max(1) as f64);
    out.metric("store.cache_hit_ratio", hit, "ratio");
    (
        mean(&|c, _| c.wall_ns as f64),
        mean(&|_, l| l.steps_ns as f64),
    )
}
