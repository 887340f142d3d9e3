//! The traced run must measure the same campaign the untraced run does:
//! wrapping the model in `TimedModel` and the store I/O in `TimedIo`
//! changes neither the certificate nor a single WAL byte, at one worker
//! and at the machine's parallelism, and keeps the batched evaluation
//! path.

use optassign::iterative::IterativeConfig;
use optassign::model::{AnalyticModel, PerformanceModel, SimModel};
use optassign::Parallelism;
use optassign_netapps::Benchmark;
use optassign_obs::Obs;
use optassign_perfbench::offline::{certify, Certificate};
use optassign_perfbench::probe::{IoProbe, SimProbe, TimedIo, TimedModel};
use optassign_sim::MachineConfig;
use optassign_store::io::RealIo;
use optassign_store::{CampaignStore, WAL_FILE};
use std::path::PathBuf;
use std::sync::Arc;

fn dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("parity-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn worker_counts() -> Vec<usize> {
    let n = std::thread::available_parallelism()
        .map_or(2, usize::from)
        .max(2);
    vec![1, n]
}

/// A certificate and the WAL image its campaign left.
type Run = (Certificate, Vec<u8>);

/// Runs the campaign plain and wrapped; returns both runs plus the
/// wrapped run's probe counters.
fn plain_and_wrapped<M: PerformanceModel + Sync>(
    model: &M,
    config: &IterativeConfig,
    tag: &str,
) -> (Run, Run, SimProbe, Arc<IoProbe>) {
    let plain_dir = dir(&format!("{tag}-plain"));
    let store = CampaignStore::open(&plain_dir).unwrap();
    let plain = certify(model, &store, config, 7, |_| {}).unwrap();
    drop(store);
    let plain_wal = std::fs::read(plain_dir.join(WAL_FILE)).unwrap();

    let wrapped_dir = dir(&format!("{tag}-wrapped"));
    let io = Arc::new(IoProbe::default());
    let store = CampaignStore::open_with(
        &wrapped_dir,
        Arc::new(TimedIo::new(RealIo, Arc::clone(&io))),
        &Obs::disabled(),
    )
    .unwrap();
    let sim = SimProbe::default();
    let wrapped = certify(&TimedModel::new(model, &sim), &store, config, 7, |_| {}).unwrap();
    drop(store);
    let wrapped_wal = std::fs::read(wrapped_dir.join(WAL_FILE)).unwrap();
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&wrapped_dir);
    ((plain, plain_wal), (wrapped, wrapped_wal), sim, io)
}

fn assert_identical(plain: &Run, wrapped: &Run) {
    let (p, w) = (&plain.0.result, &wrapped.0.result);
    assert_eq!(p.best_assignment, w.best_assignment);
    assert_eq!(p.best_performance.to_bits(), w.best_performance.to_bits());
    assert_eq!(
        p.final_estimate.upb.point.to_bits(),
        w.final_estimate.upb.point.to_bits()
    );
    assert_eq!(p.samples_used, w.samples_used);
    assert_eq!(p.evaluations, w.evaluations);
    assert_eq!(p.stop, w.stop);
    assert_eq!(p.trace, w.trace);
    assert!(!plain.1.is_empty());
    assert!(plain.1 == wrapped.1, "WAL bytes differ");
}

fn config(n_init: usize, n_delta: usize, max_samples: usize, workers: usize) -> IterativeConfig {
    IterativeConfig {
        n_init,
        n_delta,
        acceptable_loss: 1e-5,
        max_samples,
        stall_rounds: usize::MAX,
        parallelism: Parallelism::new(workers),
        ..IterativeConfig::default()
    }
}

#[test]
fn wrapped_simulator_campaign_is_byte_identical_and_batched() {
    let workload = Benchmark::IpFwdL1.build_workload(8, 3);
    let model = SimModel::new(MachineConfig::ultrasparc_t2(), workload).with_windows(500, 2_000);
    for workers in worker_counts() {
        let cfg = config(100, 100, 100, workers);
        let (plain, wrapped, sim, io) = plain_and_wrapped(&model, &cfg, &format!("sim-{workers}"));
        assert_identical(&plain, &wrapped);
        let counts = sim.counts();
        assert_eq!(counts.evals, 100);
        assert!(counts.batch_calls > 0, "the batched path was not taken");
        assert_eq!(counts.calls, counts.batch_calls, "scalar evaluations ran");
        let io = io.counts();
        assert_eq!(io.bytes, wrapped.1.len() as u64);
        assert!(io.syncs >= 1 && io.appends >= 1);
    }
}

#[test]
fn wrapped_multi_round_campaign_is_byte_identical() {
    let workload = Benchmark::IpFwdL1.build_workload(8, 5);
    let model = AnalyticModel::new(MachineConfig::ultrasparc_t2(), workload);
    for workers in worker_counts() {
        let cfg = config(200, 50, 500, workers);
        let (plain, wrapped, sim, io) = plain_and_wrapped(&model, &cfg, &format!("evt-{workers}"));
        assert_identical(&plain, &wrapped);
        assert_eq!(plain.0.result.samples_used, 500);
        assert!(plain.0.step_ns.len() > 1);
        assert_eq!(sim.counts().evals, 500);
        assert_eq!(io.counts().bytes, wrapped.1.len() as u64);
    }
}
