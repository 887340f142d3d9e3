//! Figure 6: threshold selection for 24 threads of IPFwd-L1.
//!
//! (a) the sorted performance of 5000 random task assignments;
//! (b) the sample mean excess plot, whose roughly-linear right portion
//! indicates where the GPD tail model applies.
//!
//! Run: `cargo run --release -p optassign-bench --bin fig6 [--scale f]`

use optassign_bench::{fmt_pps, measured_pool, print_table, BenchArgs};
use optassign_evt::mean_excess::MeanExcessPlot;
use optassign_netapps::Benchmark;

fn main() {
    let scale = BenchArgs::from_args();
    let n = scale.sample(5000);
    let study = measured_pool(Benchmark::IpFwdL1, n).expect("case-study workloads fit the machine");
    let sorted = optassign_stats::descriptive::sorted(study.performances());

    println!(
        "Figure 6(a): sorted performance of {} random assignments (IPFwd-L1, 24 threads)\n",
        sorted.len()
    );
    let mut rows = Vec::new();
    for &pct in &[0usize, 10, 25, 50, 75, 90, 95, 99, 100] {
        let idx = ((pct * (sorted.len() - 1)) / 100).min(sorted.len() - 1);
        rows.push(vec![format!("{pct}%"), fmt_pps(sorted[idx])]);
    }
    print_table(&["rank", "performance"], &rows);

    println!("\nFigure 6(b): sample mean excess plot e_n(u)\n");
    let plot = MeanExcessPlot::from_sorted(&sorted).expect("large sample");
    let points = plot.points();
    let mut rows = Vec::new();
    for i in 0..20 {
        let idx = i * (points.len() - 1) / 19;
        let (u, e) = points[idx];
        rows.push(vec![fmt_pps(u), format!("{e:.0}")]);
    }
    print_table(&["threshold u", "mean excess e_n(u)"], &rows);

    println!();
    let sorted_points: Vec<(f64, f64)> = sorted
        .iter()
        .enumerate()
        .map(|(i, &p)| (i as f64, p))
        .collect();
    println!(
        "{}",
        optassign_bench::ascii::line_chart(
            &sorted_points,
            70,
            14,
            "Fig 6(a): sorted assignment performance (x: rank, y: PPS)"
        )
    );
    println!(
        "{}",
        optassign_bench::ascii::line_chart(
            points,
            70,
            14,
            "Fig 6(b): sample mean excess plot (x: threshold u, y: e_n(u))"
        )
    );

    // Linearity above the 95% threshold.
    let u95 = sorted[(sorted.len() as f64 * 0.95) as usize];
    match plot.linearity_above(u95) {
        Ok(fit) => {
            println!(
                "\nTail above u = {} : slope {:.4}, R^2 = {:.4}",
                fmt_pps(u95),
                fit.slope,
                fit.r_squared
            );
            println!(
                "A decreasing, roughly linear tail (negative slope, R^2 near 1) indicates a\n\
                 GPD with shape < 0, i.e. a finite optimal performance — the paper selects\n\
                 the threshold exactly here."
            );
        }
        Err(e) => println!("\ntail linearity unavailable: {e}"),
    }
}
