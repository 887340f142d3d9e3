//! Micro-benchmarks of assignment generation, canonicalization, and the
//! parallel sampling engine's throughput — with the study's per-item
//! (scalar) and batched evaluation paths side by side.
//!
//! `--json <path>` writes the machine-readable report the perf gate
//! (`bench_gate`) consumes; seeds are pinned. Set
//! `OPTASSIGN_BENCH_WINDOW_MS` to shrink the measurement window for
//! smoke runs.

use optassign::sampling::random_assignment;
use optassign::study::SampleStudy;
use optassign::{Parallelism, Topology};
use optassign_bench::microbench::{bench, bench_pair, bench_report_json, group, BenchEntry};
use optassign_bench::{case_study_model_small, BenchArgs};
use optassign_netapps::Benchmark;

fn json_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            return Some(args.next().expect("--json needs a path"));
        }
    }
    None
}

fn main() {
    let topo = Topology::ultrasparc_t2();
    let scale = BenchArgs::from_args();
    let _ = &scale;

    group("random_assignment");
    // Rejection rate grows with density: 24 tasks ~1% acceptance on 64
    // contexts, 48 tasks far lower.
    for &tasks in &[6usize, 24, 48] {
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(1);
        bench(&format!("random_assignment/{tasks}"), || {
            random_assignment(tasks, topo, &mut rng).unwrap()
        });
    }

    group("canonicalization");
    let mut rng = optassign_stats::rng::StdRng::seed_from_u64(2);
    let a = random_assignment(24, topo, &mut rng).unwrap();
    bench("canonical_key_24_tasks", || a.canonical_key());

    group("sampling_parallel");
    // Throughput of the deterministic parallel engine on a real
    // simulator-backed study, on the per-item path (batch disabled) and
    // the batched hot path (the default). Results are bit-identical in
    // all four cells, so the only question is speed.
    let model = case_study_model_small(Benchmark::IpFwdL1, 2);
    let n = 48;
    let mut entries = Vec::new();
    for &workers in &[1usize, 4] {
        let scalar_par = Parallelism::new(workers).with_batch(0);
        let batched_par = Parallelism::new(workers);
        let (scalar_ns, batch_ns) = bench_pair(
            &format!("sample_study/{n}x{workers}w/scalar"),
            || SampleStudy::run_with(&model, n, 7, scalar_par).unwrap(),
            &format!("sample_study/{n}x{workers}w/batched"),
            || SampleStudy::run_with(&model, n, 7, batched_par).unwrap(),
        );
        let (scalar_ns, batch_ns) = (scalar_ns / n as f64, batch_ns / n as f64);
        println!(
            "  └ batch{} speedup at {workers} workers: {:.2}x",
            batched_par.batch,
            scalar_ns / batch_ns
        );
        entries.push(BenchEntry {
            name: format!("sample_study/{n}x{workers}w"),
            scalar_ns_per_eval: scalar_ns,
            batch_ns_per_eval: batch_ns,
        });
    }

    if let Some(path) = json_path() {
        let report = bench_report_json("sampling", Parallelism::DEFAULT_BATCH, &entries);
        std::fs::write(&path, &report).expect("write bench report");
        println!("\nwrote {path}");
    }
}
