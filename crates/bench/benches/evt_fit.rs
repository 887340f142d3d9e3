//! Micro-benchmarks of the EVT pipeline: the GPD log-likelihood, GPD
//! fitting, UPB estimation, and the full POT analysis at the paper's
//! sample sizes and at the multi-round campaign's (up to 10 000 samples,
//! 500 exceedances).

use optassign_bench::microbench::{bench, group};
use optassign_evt::fit::{fit_mle, fit_pwm};
use optassign_evt::gpd::Gpd;
use optassign_evt::pot::{PotAnalysis, PotConfig};
use optassign_evt::profile::estimate_upb;

fn exceedances(n: usize) -> Vec<f64> {
    let g = Gpd::new(-0.35, 1.0).unwrap();
    let mut rng = optassign_stats::rng::StdRng::seed_from_u64(1);
    g.sample_n(&mut rng, n)
}

fn sample(n: usize) -> Vec<f64> {
    let g = Gpd::new(-0.35, 1.0).unwrap();
    let mut rng = optassign_stats::rng::StdRng::seed_from_u64(2);
    (0..n).map(|_| 100.0 + g.sample(&mut rng)).collect()
}

fn main() {
    group("gpd_log_likelihood");
    // One Nelder–Mead objective evaluation; a fit makes several hundred.
    let g = Gpd::new(-0.3, 1.1).unwrap();
    for &m in &[50usize, 500] {
        let ys = exceedances(m);
        bench(&format!("log_likelihood/{m}"), || g.log_likelihood(&ys));
    }

    group("gpd_fit");
    // The paper's exceedance counts (5% of 1000/2000/5000 samples) and
    // the campaign's last round (5% of 10 000).
    for &m in &[50usize, 100, 250, 500] {
        let ys = exceedances(m);
        bench(&format!("mle/{m}"), || fit_mle(&ys).unwrap());
        bench(&format!("pwm/{m}"), || fit_pwm(&ys).unwrap());
    }

    group("upb_estimate");
    for &m in &[50usize, 250, 500] {
        let ys = exceedances(m);
        bench(&format!("upb/{m}"), || {
            estimate_upb(100.0, &ys, 0.95).unwrap()
        });
    }

    group("pot_analysis");
    for &n in &[1000usize, 5000, 10_000] {
        let xs = sample(n);
        bench(&format!("pot/{n}"), || {
            PotAnalysis::run(&xs, &PotConfig::default()).unwrap()
        });
    }
}
