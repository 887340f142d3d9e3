//! The `optd-tenants` workload: an in-process `optd` daemon behind its
//! HTTP API, driven by two client threads.
//!
//! - The submitter is closed-loop: it submits one pinned campaign,
//!   polls its status until it finishes, reads the final best/UPB pair,
//!   and only then submits the next.
//! - The reader is open-loop: it issues `GET /v1/campaigns/{id}/best`
//!   for the newest campaign with a visible round at a fixed rate, and
//!   times each query from when it was due. It spins through the last
//!   [`SPIN`] before each due time, so that its own timer wake-up
//!   lateness does not count as the server's latency.
//!
//! The run is cut into load segments. Between segments, while the daemon
//! is idle, the reference kernel times the host's speed, and the run's
//! bounded times are rescaled to the reference speed (see
//! [`crate::reference`]).
//!
//! After the timed region, the first finished campaign's WAL is checked
//! byte for byte against the offline persistent run of the same spec,
//! admitted through `admission::admit`.

use crate::offline::{campaign_layers, refit, rep_on, Certificate, Journal, LayerTimes};
use crate::probe::{IoProbe, TimedIo};
use crate::reference::Speed;
use crate::stats::{median, peak_rss_mb, percentile, windowed_percentile};
use crate::{fresh_dir, millis, secs, Outcome, RunArgs};
use optassign::iterative::{run_iterative_persistent, IterativeConfig};
use optassign::split_seed;
use optassign::PerformanceModel;
use optassign_httpd::{HttpConfig, HttpServer};
use optassign_obs::{Json, Obs};
use optassign_optd::client::http_call;
use optassign_optd::{
    admission, api, CampaignSpec, Daemon, DaemonConfig, InfeasiblePolicy, ModelSpec,
};
use optassign_store::io::RealIo;
use optassign_store::{CampaignStore, WAL_FILE};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tasks of every tenant's synthetic model.
const TASKS: usize = 8;
/// Open-loop best-query rate, per second.
const QUERY_RATE: f64 = 1000.0;
/// Pause between a campaign's status polls.
const POLL: Duration = Duration::from_millis(4);
/// Length of one load segment; the reference kernel runs between
/// segments.
const SEGMENT: Duration = Duration::from_millis(1250);
/// How long before each due time the open-loop reader stops sleeping
/// and spins.
const SPIN: Duration = Duration::from_micros(150);
/// Set-up samples per run; each is the mean of `SETUP_BATCH` daemon
/// starts and server binds.
const SETUP_SAMPLES: usize = 9;
const SETUP_BATCH: usize = 50;
/// Samples per window of the windowed tail percentiles: one second of
/// best queries, and 200 campaigns.
const QUERY_WINDOW: usize = 1000;
const ROUND_WINDOW: usize = 200;
/// Tenants the campaigns rotate over.
const TENANTS: u64 = 4;
/// Campaign settings. Work is pinned by the sample cap: one `N_INIT`
/// batch, one estimate, then the cap stops the campaign whatever the
/// estimate says. (An unreachable loss cannot pin a multi-round synthetic
/// campaign: its degenerate fits certify gaps below the smallest loss the
/// admission check accepts.)
const N_INIT: usize = 8000;
const N_DELTA: usize = 100;
const MAX_SAMPLES: usize = N_INIT;
const LOSS: f64 = 0.05;
const EVAL_BUDGET: usize = 10_000;

/// The samples every campaign must end with.
const PINNED_SAMPLES: usize = N_INIT + (MAX_SAMPLES - N_INIT) / N_DELTA * N_DELTA;

/// Campaign `index` of a run.
#[must_use]
pub fn campaign_spec(run_seed: u64, index: u64) -> CampaignSpec {
    CampaignSpec {
        tenant: format!("tenant-{}", index % TENANTS),
        seed: split_seed(run_seed, 100 + index),
        model: ModelSpec::Synthetic {
            tasks: TASKS,
            base_pps: 2.0e6,
        },
        config: IterativeConfig {
            n_init: N_INIT,
            n_delta: N_DELTA,
            acceptable_loss: LOSS,
            confidence: 0.95,
            max_samples: MAX_SAMPLES,
            max_eval_retries: 2,
            eval_budget: EVAL_BUDGET,
            stall_rounds: 1_000_000,
            ..IterativeConfig::default()
        },
        on_infeasible: InfeasiblePolicy::Reject,
        degraded_from: None,
    }
}

/// One HTTP call, timed, with its status and parsed JSON body.
struct Call {
    ms: f64,
    status: u16,
    body: Option<Json>,
}

fn call(addr: &str, method: &str, path: &str, body: Option<&str>) -> Call {
    let start = Instant::now();
    let reply = http_call(addr, method, path, body);
    let ms = millis(start.elapsed().as_nanos() as u64);
    match reply {
        Ok((status, text)) => Call {
            ms,
            status,
            body: Json::parse(&text),
        },
        Err(_) => Call {
            ms,
            status: 0,
            body: None,
        },
    }
}

fn ok(status: u16) -> bool {
    (200..300).contains(&status)
}

/// A started daemon and its HTTP front end.
struct Service {
    server: HttpServer,
    daemon: Daemon,
    data: PathBuf,
}

impl Service {
    fn start(data: PathBuf) -> Result<Service, String> {
        let obs = Obs::metrics_only();
        let config = DaemonConfig {
            workers: Some(1),
            ..DaemonConfig::new(&data)
        };
        let daemon = Daemon::start(config, obs.clone()).map_err(|e| e.to_string())?;
        let http = HttpConfig {
            thread_name: "perfbench-optd-http",
            rejected_counter: api::REJECTED_COUNTER,
            allowed_methods: &["GET", "POST", "DELETE"],
            max_body_bytes: 64 * 1024,
        };
        let server = HttpServer::start(
            "127.0.0.1:0",
            obs.clone(),
            http,
            api::handler(daemon.handle(), obs),
        )
        .map_err(|e| e.to_string())?;
        Ok(Service {
            server,
            daemon,
            data,
        })
    }

    fn stop(mut self) {
        self.server.shutdown();
        self.daemon.shutdown();
    }
}

/// What the submitter measured.
#[derive(Default)]
struct Submitted {
    campaigns: u64,
    failed_campaigns: u64,
    requests: u64,
    errors: u64,
    /// Output checks of the finished campaigns.
    checks: Outcome,
    certificate_s: Vec<f64>,
    step_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    /// Time inside HTTP calls, and the submitter loop's wall time.
    covered_ms: f64,
    wall_ms: f64,
    /// The first finished campaign's index and WAL, for the parity check.
    parity: Option<(u64, Vec<u8>)>,
}

impl Submitted {
    fn request(&mut self, c: &Call) {
        self.requests += 1;
        self.covered_ms += c.ms;
        if !ok(c.status) {
            self.errors += 1;
        }
    }
}

fn field_f64(body: Option<&Json>, key: &str) -> Option<f64> {
    body.and_then(|b| b.get(key)).and_then(Json::as_f64)
}

fn field_str<'a>(body: Option<&'a Json>, key: &str) -> Option<&'a str> {
    body.and_then(|b| b.get(key)).and_then(Json::as_str)
}

/// Runs one campaign through the API; returns its name once finished.
fn one_campaign(
    addr: &str,
    data: &Path,
    spec: &CampaignSpec,
    index: u64,
    newest: &Mutex<Option<String>>,
    s: &mut Submitted,
) -> Option<String> {
    let start = Instant::now();
    let submit = call(addr, "POST", "/v1/campaigns", Some(&spec.to_json()));
    s.request(&submit);
    s.submit_ms.push(submit.ms);
    s.campaigns += 1;
    let name = submit
        .body
        .as_ref()
        .and_then(|b| b.get("campaign"))
        .and_then(|c| c.get("id"))
        .and_then(Json::as_str)
        .map(str::to_string);
    let (true, Some(name)) = (submit.status == 201, name) else {
        s.failed_campaigns += 1;
        return None;
    };
    let path = format!("/v1/campaigns/{name}");
    let mut visible = false;
    // The first poll comes after a seeded fraction of the period, so the
    // poll grid's quantisation averages out of the certificate median.
    let mut pause = POLL.mul_f64((split_seed(spec.seed, 1) >> 11) as f64 / (1u64 << 53) as f64);
    let view = loop {
        std::thread::sleep(pause);
        pause = POLL;
        let status = call(addr, "GET", &path, None);
        s.request(&status);
        s.status_ms.push(status.ms);
        if !ok(status.status) {
            s.failed_campaigns += 1;
            return None;
        }
        let body = status.body;
        if !visible && field_f64(body.as_ref(), "rounds").is_some_and(|r| r >= 1.0) {
            visible = true;
            s.queue_ms.push(millis(start.elapsed().as_nanos() as u64));
            *newest
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(name.clone());
        }
        if field_str(body.as_ref(), "state") != Some("running") {
            break body;
        }
    };
    let best = call(addr, "GET", &format!("{path}/best"), None);
    s.request(&best);
    let wall = start.elapsed();
    if field_str(view.as_ref(), "state") != Some("finished") || !ok(best.status) {
        s.failed_campaigns += 1;
        return None;
    }
    s.certificate_s.push(wall.as_secs_f64());
    let steps = field_f64(view.as_ref(), "steps").unwrap_or(0.0);
    s.step_ms
        .push(millis(wall.as_nanos() as u64) / steps.max(1.0));
    let samples = field_f64(view.as_ref(), "samples").unwrap_or(0.0);
    s.checks.check(samples as usize == PINNED_SAMPLES, || {
        format!("{name}: samples {samples} != pinned {PINNED_SAMPLES}")
    });
    let performance = field_f64(best.body.as_ref(), "performance");
    let upb = field_f64(best.body.as_ref(), "estimated_optimal");
    s.checks.check(
        matches!((performance, upb), (Some(p), Some(u)) if p <= u),
        || format!("{name}: best {performance:?} above UPB {upb:?}"),
    );
    if s.parity.is_none() {
        let wal = std::fs::read(data.join(&name).join(WAL_FILE)).unwrap_or_default();
        s.parity = Some((index, wal));
    }
    Some(name)
}

/// Where the submitter is, carried from one segment to the next.
#[derive(Default)]
struct Cursor {
    /// Index of the next campaign.
    index: u64,
    /// Finished campaigns not yet deleted, oldest first.
    finished: Vec<String>,
}

/// Submits campaigns one after another until `deadline`; the last one
/// runs to its end, so the daemon is idle on return.
fn submitter(
    addr: &str,
    data: &Path,
    run_seed: u64,
    deadline: Instant,
    newest: &Mutex<Option<String>>,
    cursor: &mut Cursor,
    s: &mut Submitted,
) {
    let start = Instant::now();
    while Instant::now() < deadline {
        let spec = campaign_spec(run_seed, cursor.index);
        if let Some(name) = one_campaign(addr, data, &spec, cursor.index, newest, s) {
            cursor.finished.push(name);
        }
        cursor.index += 1;
        // Keep the daemon's state bounded: drop campaigns two behind.
        if cursor.finished.len() > 2 {
            let old = cursor.finished.remove(0);
            let delete = call(addr, "DELETE", &format!("/v1/campaigns/{old}"), None);
            s.request(&delete);
        }
    }
    s.wall_ms += millis(start.elapsed().as_nanos() as u64);
}

/// What the open-loop reader measured.
#[derive(Default)]
struct Read {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    requests: u64,
    errors: u64,
}

impl Read {
    fn absorb(&mut self, other: Read) {
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.requests += other.requests;
        self.errors += other.errors;
    }
}

fn reader(addr: &str, start: Instant, deadline: Instant, newest: &Mutex<Option<String>>) -> Read {
    let mut r = Read::default();
    let period = Duration::from_secs_f64(1.0 / QUERY_RATE);
    let mut due = start;
    while due < deadline {
        let now = Instant::now();
        if due > now {
            // Sleep to just before the due time, then spin: on a 2-vCPU
            // VM a timer wake-up alone came ~0.1 ms late, which would
            // otherwise count into every query's latency.
            if due - now > SPIN {
                std::thread::sleep(due - now - SPIN);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
        }
        let target = newest
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        if let Some(name) = target {
            let sent = Instant::now();
            let reply = call(addr, "GET", &format!("/v1/campaigns/{name}/best"), None);
            r.requests += 1;
            if !ok(reply.status) {
                r.errors += 1;
            }
            r.lag_ms
                .push(millis(sent.duration_since(due).as_nanos() as u64));
            r.latency_ms
                .push(millis(Instant::now().duration_since(due).as_nanos() as u64));
        }
        due += period;
    }
    r
}

/// An offline replay of one daemon campaign.
struct Replay {
    wal: Vec<u8>,
    /// With the timing wrappers: the certificate, its layer times, and
    /// the evt re-fit times (`None` when a re-fit disagreed).
    traced: Option<(Certificate, LayerTimes, Option<Vec<f64>>)>,
}

/// Re-runs a campaign offline, persistent, as the daemon would after
/// admission. Traced, it runs through the same timing wrappers as the
/// offline workloads, so the daemon's sim, exec, core, evt and store
/// layers are measured on an identical campaign (its WAL is checked
/// against the daemon's either way).
fn replay(spec: &CampaignSpec, dir: &Path, traced: bool) -> Result<Replay, String> {
    let (effective, _) = admission::admit(spec)
        .map_err(|e| e.to_string())?
        .ok_or("spec rejected by admission")?;
    let model = effective.model.build();
    let (config, seed) = (&effective.config, effective.seed);
    if !traced {
        let store = CampaignStore::open(dir).map_err(|e| e.to_string())?;
        run_iterative_persistent(&model, config, seed, &store).map_err(|e| e.to_string())?;
        store.sync();
        drop(store);
        let wal = std::fs::read(dir.join(WAL_FILE)).map_err(|e| e.to_string())?;
        return Ok(Replay { wal, traced: None });
    }
    let io = Arc::new(IoProbe::default());
    let store = CampaignStore::open_with(
        dir,
        Arc::new(TimedIo::new(RealIo, Arc::clone(&io))),
        &Obs::disabled(),
    )
    .map_err(|e| e.to_string())?;
    let (cert, layers) = rep_on(&model, &store, config, seed, Some(&io))?;
    let journal = Journal::read(store, dir, config, seed, model.tasks(), model.topology())?;
    let fits = refit(&cert.result, &journal, config, seed);
    Ok(Replay {
        wal: journal.wal,
        traced: layers.map(|l| (cert, l, fits)),
    })
}

/// Runs the service workload.
///
/// # Errors
///
/// The daemon or server could not start.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    // The daemon steps campaigns on one worker: one thread's speed sets
    // the times.
    let mut speed = Speed::start(1);
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let mut service: Option<Service> = None;
    for i in 0..SETUP_SAMPLES {
        let mut total_ns = 0;
        for j in 0..SETUP_BATCH {
            let dir = fresh_dir(&args.work_dir, &format!("daemon-{i}-{j}"))?;
            let start = Instant::now();
            let started = Service::start(dir)?;
            total_ns += start.elapsed().as_nanos() as u64;
            // The last service started serves the run.
            if let Some(previous) = service.replace(started) {
                let data = previous.data.clone();
                previous.stop();
                let _ = std::fs::remove_dir_all(data);
            }
        }
        setups.push(secs(total_ns) / SETUP_BATCH as f64);
    }
    let service = service.ok_or("no daemon started")?;
    speed.sample();
    let addr = service.server.addr().to_string();
    let newest = Mutex::new(None);
    let mut cursor = Cursor::default();
    let mut sub = Submitted::default();
    let mut read = Read::default();
    let run_start = Instant::now();
    loop {
        let start = Instant::now();
        let deadline = start + SEGMENT;
        let segment_read = std::thread::scope(|scope| {
            let reads = scope.spawn(|| reader(&addr, start, deadline, &newest));
            let data = &service.data;
            submitter(
                &addr,
                data,
                args.seed,
                deadline,
                &newest,
                &mut cursor,
                &mut sub,
            );
            reads.join().unwrap_or_default()
        });
        read.absorb(segment_read);
        speed.sample();
        if run_start.elapsed() + SEGMENT > args.seconds {
            break;
        }
    }
    let data = service.data.clone();
    service.stop();

    let mut out = std::mem::take(&mut sub.checks);
    out.attempted += sub.campaigns + sub.requests + read.requests;
    out.failed += sub.failed_campaigns + sub.errors + read.errors;
    let replayed = match &sub.parity {
        Some((index, wal)) => {
            let spec = campaign_spec(args.seed, *index);
            let dir = fresh_dir(&args.work_dir, "offline")?;
            let replayed = replay(&spec, &dir, args.trace);
            out.check(
                matches!(&replayed, Ok(r) if &r.wal == wal && !wal.is_empty()),
                || {
                    format!(
                        "campaign {index}: daemon WAL differs from the offline run ({:?})",
                        replayed.as_ref().err()
                    )
                },
            );
            replayed.ok()
        }
        None => {
            out.check(false, || "no campaign finished".into());
            None
        }
    };
    let _ = std::fs::remove_dir_all(&data);
    out.lines.push(format!(
        "optd-tenants: {} campaigns, {} submitter requests, {} best queries",
        sub.campaigns, sub.requests, read.requests
    ));
    out.lines.push(speed.summary());
    // Every time from here to the per-layer report is rescaled to the
    // reference speed.
    let scale = speed.serial();
    let scaled = |v: &[f64]| v.iter().map(|x| x * scale).collect::<Vec<f64>>();
    let (steps, latencies) = (scaled(&sub.step_ms), scaled(&read.latency_ms));
    out.tails(
        args.trace,
        windowed_percentile(&steps, ROUND_WINDOW, 95.0),
        windowed_percentile(&latencies, QUERY_WINDOW, 99.0),
    );
    if args.trace {
        let traced = replayed.and_then(|r| r.traced);
        report_layers(&mut out, &sub, &read, traced.as_ref());
    } else {
        out.metric("setup_s", median(&setups) * scale, "s");
        out.metric("certificate_s", median(&sub.certificate_s) * scale, "s");
        out.metric("round_p50_ms", percentile(&steps, 50.0), "ms");
        out.metric("best_query_p50_ms", percentile(&latencies, 50.0), "ms");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    Ok(out)
}

fn report_layers(
    out: &mut Outcome,
    sub: &Submitted,
    read: &Read,
    replay: Option<&(Certificate, LayerTimes, Option<Vec<f64>>)>,
) {
    // The daemon builds its models and stores itself, so the sim, exec,
    // core, evt and store layers come from the traced offline replay of
    // a campaign whose WAL matched the daemon's.
    match replay {
        Some((cert, layers, fits)) => {
            campaign_layers(out, &[(cert, layers)], None, fits.as_deref());
        }
        None => {
            campaign_layers(out, &[], None, None);
        }
    }
    out.metric("netapps.build_s", 0.0, "s");
    // Client timers run in both modes: tracing adds nothing.
    out.metric("trace.overhead", 0.0, "ratio");
    out.metric("optd.submit_p50_ms", median(&sub.submit_ms), "ms");
    out.metric("optd.status_p50_ms", median(&sub.status_ms), "ms");
    out.metric("optd.queue_ms_p50", median(&sub.queue_ms), "ms");
    out.metric(
        "httpd.requests",
        (sub.requests + read.requests) as f64,
        "count",
    );
    out.metric("httpd.errors", (sub.errors + read.errors) as f64, "count");
    out.metric("load.lag_p99_ms", percentile(&read.lag_ms, 99.0), "ms");
    let coverage = if sub.wall_ms > 0.0 {
        sub.covered_ms / sub.wall_ms
    } else {
        0.0
    };
    out.metric("trace.coverage", coverage, "ratio");
    if coverage < 0.95 {
        out.lines.push(format!(
            "uncovered: {:.3} of the submitter's time is the pause between status polls \
             (daemon steps run inside the server, unseen by the client)",
            1.0 - coverage
        ));
    }
}

/// Reports the service layers as idle on a workload that never touches
/// them.
pub fn unused_service_metrics(out: &mut Outcome) {
    for (name, unit) in [
        ("optd.submit_p50_ms", "ms"),
        ("optd.status_p50_ms", "ms"),
        ("optd.queue_ms_p50", "ms"),
        ("httpd.requests", "count"),
        ("httpd.errors", "count"),
        ("load.lag_p99_ms", "ms"),
    ] {
        out.metric(name, 0.0, unit);
    }
}
