//! Full reproduction run: every table and figure in one process.
//!
//! Measures one random-assignment pool per benchmark and derives all the
//! sample-dependent figures from it (the per-figure binaries recompute
//! their own pools; this runner shares them). Output is the text that
//! EXPERIMENTS.md records.
//!
//! Run: `cargo run --release -p optassign-bench --bin repro_all
//! [--scale f] [--checkpoint dir] [--resume]`

use optassign::model::PerformanceModel;
use optassign::probability::capture_probability;
use optassign::schedulers::{linux_like, naive};
use optassign::space::{enumerate_assignments, table1_row};
use optassign::Topology;
use optassign_bench::{
    case_study_model_small, fmt_pps, measured_pool_persistent, print_table, report_store,
    stderr_obs, BenchArgs, BASE_SEED,
};
use optassign_evt::mean_excess::MeanExcessPlot;
use optassign_evt::pot::{PotAnalysis, PotConfig};
use optassign_netapps::Benchmark;
use optassign_stats::ecdf::Ecdf;

fn main() {
    let scale = BenchArgs::from_args();
    let t_start = std::time::Instant::now();
    println!("================================================================");
    println!(
        "optassign reproduction run (scale {}, {} workers)",
        scale.factor,
        scale.parallelism().workers
    );
    println!("================================================================\n");

    table1();
    fig2();
    let small_perfs = fig1_and_fig3();
    let _ = small_perfs;

    // ---- measured pools for the 24-thread case study -------------------
    let sizes = scale.sample_sizes();
    let pool_size = scale.sample(8000);
    let mut pools = Vec::new();
    for bench in Benchmark::paper_suite() {
        // Per-benchmark store scope: campaign identities cannot cover the
        // model, so distinct workloads must not share cache entries. The
        // scope matches fig14's, so both binaries reuse one checkpoint.
        let store = scale.store(&format!("fig14-{}", bench.name()), &stderr_obs());
        let pool = measured_pool_persistent(
            bench,
            pool_size,
            scale.parallelism(),
            store.as_ref(),
            &stderr_obs(),
        )
        .expect("case-study workloads fit the machine");
        if let Some(store) = &store {
            report_store(store);
        }
        pools.push((bench, pool));
    }

    fig6_and_7(&pools[0].1);
    fig10_11_12(&pools, &sizes);
    fig14(&pools, &scale);

    println!(
        "\nTotal reproduction wall time: {:.1} s",
        t_start.elapsed().as_secs_f64()
    );
}

fn table1() {
    println!("---- Table 1: number of task assignments ------------------------\n");
    let topo = Topology::ultrasparc_t2();
    let mut rows = Vec::new();
    for tasks in [3usize, 6, 9, 12, 15, 18, 60] {
        let row = table1_row(tasks, topo).expect("fits");
        rows.push(vec![
            tasks.to_string(),
            row.assignments.to_scientific(3),
            format!("{:.3e} years", row.execute_all_years),
            format!("{:.3e} years", row.predict_all_years),
        ]);
    }
    print_table(
        &["Tasks", "# assignments", "execute all", "predict all"],
        &rows,
    );
    println!();
}

fn fig2() {
    println!("---- Figure 2: capture probability ------------------------------\n");
    let mut rows = Vec::new();
    for &n in &[10usize, 100, 300, 500, 1000] {
        let mut row = vec![n.to_string()];
        for &f in &[0.01, 0.02, 0.05, 0.10, 0.25] {
            row.push(format!("{:.4}", capture_probability(n, f).expect("valid")));
        }
        rows.push(row);
    }
    print_table(&["n", "P=1%", "P=2%", "P=5%", "P=10%", "P=25%"], &rows);
    println!();
}

fn fig1_and_fig3() -> Vec<f64> {
    println!("---- Figures 1 & 3: 6-thread exhaustive study --------------------\n");
    let mut fig3_perfs = Vec::new();
    let mut rows = Vec::new();
    for bench in [Benchmark::IpFwdIntAdd, Benchmark::IpFwdIntMul] {
        let model = case_study_model_small(bench, 2);
        eprintln!("[fig1] {}: exhaustive evaluation…", bench.name());
        let all =
            enumerate_assignments(model.tasks(), model.topology(), 10_000).expect("6-task space");
        let perfs: Vec<f64> = all.iter().map(|a| model.evaluate(a)).collect();
        let optimal = perfs.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(BASE_SEED);
        let mut naive_sum = 0.0;
        for _ in 0..25 {
            let a = naive(model.tasks(), model.topology(), &mut rng).expect("fits");
            naive_sum += model.evaluate(&a);
        }
        let naive_pps = naive_sum / 25.0;
        let linux_pps = model.evaluate(&linux_like(model.tasks(), model.topology()).expect("fits"));

        rows.push(vec![
            bench.name().to_string(),
            fmt_pps(naive_pps),
            fmt_pps(linux_pps),
            fmt_pps(optimal),
            format!("{:+.1}%", (linux_pps / naive_pps - 1.0) * 100.0),
            format!("{:+.1}%", (optimal / naive_pps - 1.0) * 100.0),
            format!("{:.1}%", (1.0 - linux_pps / optimal) * 100.0),
        ]);

        if bench == Benchmark::IpFwdIntAdd {
            fig3_perfs = perfs;
        }
    }
    print_table(
        &[
            "Benchmark",
            "Naive",
            "Linux-like",
            "Optimal",
            "Linux/naive",
            "Opt/naive",
            "Linux loss",
        ],
        &rows,
    );

    let ecdf = Ecdf::new(&fig3_perfs).expect("non-empty");
    println!(
        "\nFigure 3 (CDF of all {} classes, IPFwd-intadd):",
        fig3_perfs.len()
    );
    println!(
        "  worst {}, median {}, best {}  (spread {:.1}%)",
        fmt_pps(ecdf.sorted_sample()[0]),
        fmt_pps(ecdf.quantile(0.5).expect("ok")),
        fmt_pps(*ecdf.sorted_sample().last().expect("non-empty")),
        ecdf.relative_spread() * 100.0
    );
    let best = *ecdf.sorted_sample().last().expect("non-empty");
    let p99 = ecdf.quantile(0.99).expect("ok");
    println!(
        "  top-1% band width: {:.2}% of the optimum\n",
        (best - p99) / best * 100.0
    );
    fig3_perfs
}

fn fig6_and_7(pool: &optassign::study::SampleStudy) {
    println!("---- Figures 6 & 7: threshold + profile likelihood (IPFwd-L1) ----\n");
    let sorted = optassign_stats::descriptive::sorted(pool.performances());
    let plot = MeanExcessPlot::from_sorted(&sorted).expect("large sample");
    let u95 = sorted[(sorted.len() as f64 * 0.95) as usize];
    match plot.linearity_above(u95) {
        Ok(fit) => println!(
            "mean-excess tail above u={}: slope {:.4} (negative => shape<0), R^2 {:.3}",
            fmt_pps(u95),
            fit.slope,
            fit.r_squared
        ),
        Err(e) => println!("tail linearity unavailable: {e}"),
    }
    let analysis =
        PotAnalysis::run(pool.performances(), &PotConfig::default()).expect("bounded tail");
    println!(
        "POT: u={}, {} exceedances, GPD shape {:.3}, qq-R^2 {:.3}, KS {:.3}",
        fmt_pps(analysis.threshold),
        analysis.exceedances.len(),
        analysis.fit.gpd.shape(),
        analysis.quantile_plot_r2,
        analysis.ks_distance
    );
    println!(
        "UPB = {}  95% CI [{}, {}]\n",
        fmt_pps(analysis.upb.point),
        fmt_pps(analysis.upb.ci_low),
        analysis
            .upb
            .ci_high
            .map(fmt_pps)
            .unwrap_or_else(|| "unbounded".into())
    );
}

fn fig10_11_12(pools: &[(Benchmark, optassign::study::SampleStudy)], sizes: &[usize; 3]) {
    println!("---- Figures 10/11/12: sample-size study -------------------------\n");
    let cfg = PotConfig::default();
    let mut rows10 = Vec::new();
    let mut rows11 = Vec::new();
    let mut rows12 = Vec::new();
    for (bench, pool) in pools {
        let mut r10 = vec![bench.name().to_string()];
        let mut r11 = vec![bench.name().to_string()];
        let mut r12 = vec![bench.name().to_string()];
        for &n in sizes {
            let study = pool.prefix(n).expect("sizes fit the pool");
            r10.push(fmt_pps(study.best_performance()));
            match PotAnalysis::run(study.performances(), &cfg) {
                Ok(analysis) => {
                    let hi = analysis
                        .upb
                        .ci_high
                        .map(fmt_pps)
                        .unwrap_or_else(|| "inf".into());
                    r11.push(format!(
                        "{} [{}..{}]",
                        fmt_pps(analysis.upb.point),
                        fmt_pps(analysis.upb.ci_low),
                        hi
                    ));
                    r12.push(format!("{:.2}%", analysis.improvement_headroom() * 100.0));
                }
                Err(e) => {
                    r11.push(format!("unresolved ({e})"));
                    r12.push("unresolved".into());
                }
            }
        }
        rows10.push(r10);
        rows11.push(r11);
        rows12.push(r12);
    }
    let h: Vec<String> = sizes.iter().map(|n| format!("n={n}")).collect();
    let headers: Vec<&str> = std::iter::once("Benchmark")
        .chain(h.iter().map(|s| s.as_str()))
        .collect();
    println!("Figure 10: best-in-sample performance");
    print_table(&headers, &rows10);
    println!("\nFigure 11: estimated optimal performance (UPB [95% CI])");
    print_table(&headers, &rows11);
    println!("\nFigure 12: headroom (UPB - best)/UPB");
    print_table(&headers, &rows12);
    println!();
}

fn fig14(pools: &[(Benchmark, optassign::study::SampleStudy)], scale: &BenchArgs) {
    println!("---- Figure 14: iterative algorithm ------------------------------\n");
    let n_init = scale.sample(1000);
    let n_delta = 100;
    let cfg = PotConfig::default();
    let mut rows = Vec::new();
    for (bench, pool) in pools {
        let perfs = pool.performances();
        let mut row = vec![bench.name().to_string()];
        for &target in &[0.025, 0.05, 0.10] {
            let mut n = n_init;
            let mut found = None;
            while n <= perfs.len() {
                if let Ok(analysis) = PotAnalysis::run(&perfs[..n], &cfg) {
                    if analysis.improvement_headroom() <= target {
                        found = Some(n);
                        break;
                    }
                }
                n += n_delta;
            }
            row.push(
                found
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| format!(">{}", perfs.len())),
            );
        }
        rows.push(row);
    }
    print_table(&["Benchmark", "loss<=2.5%", "loss<=5%", "loss<=10%"], &rows);
}
