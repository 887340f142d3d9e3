//! EVT from first principles: fit a GPD tail and bound an unseen optimum.
//!
//! Walks through the Peaks-Over-Threshold pipeline on synthetic data with
//! a *known* upper bound, showing each step the paper describes: threshold
//! selection via the mean-excess plot, GPD fitting by maximum likelihood,
//! and the profile-likelihood confidence interval for the upper bound.
//!
//! Run: `cargo run --release --example evt_basics`

use optassign_evt::fit::fit_mle;
use optassign_evt::gpd::Gpd;
use optassign_evt::mean_excess::MeanExcessPlot;
use optassign_evt::profile::estimate_upb;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Synthetic "measurements": location 100, bounded GPD tail.
    // True upper bound: 100 + σ/|ξ| = 100 + 1.5/0.3 = 105.
    let truth = Gpd::new(-0.3, 1.5)?;
    let mut rng = optassign_stats::rng::StdRng::seed_from_u64(2012);
    let sample: Vec<f64> = (0..3000).map(|_| 100.0 + truth.sample(&mut rng)).collect();
    let sorted = optassign_stats::descriptive::sorted(&sample);
    println!("true (hidden) optimum: 105.000");
    println!(
        "best of {} observations: {:.3}",
        sample.len(),
        sorted.last().unwrap()
    );

    // Step 2: the mean-excess plot; linearity indicates the GPD regime.
    let plot = MeanExcessPlot::from_sorted(&sorted)?;
    let u = sorted[(sorted.len() as f64 * 0.95) as usize];
    let line = plot.linearity_above(u)?;
    println!(
        "\nmean excess above u = {:.3}: slope {:.3}, R^2 {:.3} (GPD slope theory: ξ/(1-ξ) = {:.3})",
        u,
        line.slope,
        line.r_squared,
        -0.3 / 1.3
    );

    // Step 3: fit the GPD to the exceedances.
    let exceedances: Vec<f64> = sample.iter().filter(|&&x| x > u).map(|x| x - u).collect();
    let fit = fit_mle(&exceedances)?;
    println!(
        "fitted GPD over {} exceedances: shape {:.3} (true -0.300), scale {:.3}",
        exceedances.len(),
        fit.gpd.shape(),
        fit.gpd.scale()
    );

    // Step 4: the upper bound with its Wilks confidence interval.
    let est = estimate_upb(u, &exceedances, 0.95)?;
    println!(
        "\nestimated upper bound: {:.3}  95% CI [{:.3}, {}]",
        est.point,
        est.ci_low,
        est.ci_high
            .map(|h| format!("{h:.3}"))
            .unwrap_or_else(|| "unbounded".into())
    );
    println!(
        "the CI {} the true optimum 105",
        if est.ci_low <= 105.0 && est.ci_high.map(|h| h >= 105.0).unwrap_or(true) {
            "contains"
        } else {
            "misses"
        }
    );
    Ok(())
}
