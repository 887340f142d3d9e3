//! Micro-benchmarks of the simulator: the cost of one assignment
//! evaluation — the unit of the paper's "experimental time" discussion
//! (§5.4: 1000/2000/5000 measurements took 25/50/120 minutes on the real
//! testbed) — on both the scalar path and the batched SoA hot path.
//!
//! `--json <path>` additionally writes the machine-readable report the
//! perf gate (`bench_gate`) consumes; seeds are pinned so the measured
//! work is identical run to run. Set `OPTASSIGN_BENCH_WINDOW_MS` to
//! shrink the measurement window for smoke runs.

use optassign::model::{AnalyticModel, PerformanceModel, SimModel};
use optassign::sampling::random_assignment;
use optassign::Assignment;
use optassign_bench::microbench::{bench, bench_pair, bench_report_json, group, BenchEntry};
use optassign_netapps::Benchmark;
use optassign_sim::MachineConfig;

/// Batch size of the batched variants; mirrored into the JSON report.
const BATCH: usize = 16;

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
    let mut entries = Vec::new();

    group("simulate_assignment");
    for bm in [Benchmark::IpFwdL1, Benchmark::IpFwdMem, Benchmark::Stateful] {
        let machine = MachineConfig::ultrasparc_t2();
        let workload = bm.build_workload(8, 1);
        let model = SimModel::new(machine, workload);
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(3);
        let batch: Vec<Assignment> = (0..BATCH)
            .map(|_| random_assignment(24, model.topology(), &mut rng).unwrap())
            .collect();
        // The scalar path evaluates the same pinned assignments one by
        // one; the batched path amortizes setup across all of them.
        // Identical work, identical results — only the path differs.
        let (scalar_ns, batch_ns) = bench_pair(
            &format!("simulate/{}", bm.name()),
            || batch.iter().map(|a| model.evaluate(a)).sum::<f64>(),
            &format!("simulate_batch{BATCH}/{}", bm.name()),
            || model.evaluate_batch(&batch),
        );
        let (scalar_ns, batch_ns) = (scalar_ns / BATCH as f64, batch_ns / BATCH as f64);
        println!("  └ batch{BATCH} speedup: {:.2}x", scalar_ns / batch_ns);
        entries.push(BenchEntry {
            name: format!("simulate/{}", bm.name()),
            scalar_ns_per_eval: scalar_ns,
            batch_ns_per_eval: batch_ns,
        });
    }

    group("predict_assignment");
    // The analytic predictor should be orders of magnitude cheaper than
    // simulation — the trade-off §5.4 discusses.
    let machine = MachineConfig::ultrasparc_t2();
    let workload = Benchmark::IpFwdL1.build_workload(8, 1);
    let model = AnalyticModel::new(machine, workload);
    let mut rng = optassign_stats::rng::StdRng::seed_from_u64(4);
    let a = random_assignment(24, model.topology(), &mut rng).unwrap();
    bench("predict/IPFwd-L1", || model.evaluate(&a));

    if let Some(path) = json_path() {
        let report = bench_report_json("simulator", BATCH, &entries);
        std::fs::write(&path, &report).expect("write bench report");
        println!("\nwrote {path}");
    }
}
