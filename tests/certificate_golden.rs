//! Pinned certificates: the bits `estimate_resilient` returns on
//! fixed-seed samples.
//!
//! The resilient estimator's UPB, its Wilks interval and the rung that
//! produced them are the certificate every campaign reports. These
//! goldens pin them bit for bit on two sample families — the IPFwd-L1
//! `AnalyticModel` (the population the multi-round benchmark campaigns
//! draw from) and a planted GPD tail — at the sample sizes a campaign
//! passes through. The mean-excess R² diagnostic is pinned too, since it
//! comes from the same sorted sample the threshold rule reads.
//!
//! Speeding up the GPD fit must leave every value here unchanged. If an
//! intentional estimator change moves them, re-derive the table and say
//! why in the commit message.

use optassign::model::{AnalyticModel, PerformanceModel};
use optassign::sampling::sample_assignments;
use optassign_evt::gpd::Gpd;
use optassign_evt::pot::{PotConfig, ThresholdRule};
use optassign_evt::resilient::{estimate_resilient, ResilientConfig};
use optassign_netapps::Benchmark;
use optassign_sim::MachineConfig;
use optassign_stats::rng::StdRng;

/// One pinned certificate: `(label, upb, ci_low, ci_high, rung,
/// mean_excess_r2)`, floats as IEEE-754 bit patterns.
type Golden = (
    &'static str,
    u64,
    u64,
    Option<u64>,
    &'static str,
    Option<u64>,
);

/// Generated when the GPD likelihood was still a sum of log densities;
/// the closed form must reproduce every bit.
#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("ipfwd-l1/300", 0x41657bc71c648d88, 0x41628a41be5ea86c, None, "threshold-rescan", Some(0x3fbd68f0299806e5)),
    ("gpd/300", 0x4059dcd7af43ac69, 0x40599ddbef116a1a, None, "profile-mle", Some(0x3fc3d8305531b0bd)),
    ("ipfwd-l1/1000", 0x416506638129105b, 0x41626655a7acd986, None, "profile-mle", Some(0x3f9a7bbba8512af2)),
    ("gpd/1000", 0x4059b3874a3aa707, 0x4059aa38e50d2079, Some(0x405a6875de27b802), "profile-mle", Some(0x3fea0a35e930371a)),
    ("ipfwd-l1/5000", 0x4164ec111f3113f9, 0x4162cc638c86bebe, None, "profile-mle", Some(0x3fe99ec15d220348)),
    ("gpd/5000", 0x4059b17ccae10cd5, 0x4059acb7fcd03533, Some(0x4059c2d68911095e), "profile-mle", Some(0x3fef5b5ef11905dc)),
    ("ipfwd-l1/10000", 0x4166a4c311578556, 0x4163ea57d2c292c2, Some(0x418f86c1ab1464ed), "profile-mle", Some(0x3feb4c877dd1b58a)),
    ("gpd/10000", 0x4059bb2b9b4c9618, 0x4059b3b5a54d920d, Some(0x4059cc3fe6503d58), "profile-mle", Some(0x3feedb8df4f4b01d)),
    ("ipfwd-l1/5000/linear", 0x416349c83671913f, 0x416273b9939fb21c, Some(0x4172b426f7b3e6c3), "profile-mle", Some(0x3feb5e103e6f9edd)),
    ("gpd/5000/linear", 0x4059b17ccae10cd5, 0x4059acb7fcd03533, Some(0x4059c2d68911095e), "profile-mle", Some(0x3fef5b5ef11905dc)),
];

fn ipfwd_sample(n: usize) -> Vec<f64> {
    let workload = Benchmark::IpFwdL1.build_workload(8, 5);
    let model = AnalyticModel::new(MachineConfig::ultrasparc_t2(), workload);
    let mut rng = StdRng::seed_from_u64(0xCE27 ^ n as u64);
    sample_assignments(n, model.tasks(), model.topology(), &mut rng)
        .expect("24 tasks fit on 64 contexts")
        .iter()
        .map(|a| model.evaluate(a))
        .collect()
}

fn gpd_sample(n: usize) -> Vec<f64> {
    let g = Gpd::new(-0.35, 1.0).expect("valid GPD");
    let mut rng = StdRng::seed_from_u64(0x6D0 ^ n as u64);
    (0..n).map(|_| 100.0 + g.sample(&mut rng)).collect()
}

/// Every pinned case: a label, its sample and its estimator config.
fn cases() -> Vec<(String, Vec<f64>, ResilientConfig)> {
    let cfg = |threshold| ResilientConfig {
        base: PotConfig {
            threshold,
            ..PotConfig::default()
        },
        seed: 0xE57,
        ..ResilientConfig::default()
    };
    let paper = ThresholdRule::FractionAbove(0.05);
    let linear = ThresholdRule::MostLinearTail { max_fraction: 0.05 };
    let mut out = Vec::new();
    for n in [300usize, 1000, 5000, 10_000] {
        out.push((format!("ipfwd-l1/{n}"), ipfwd_sample(n), cfg(paper)));
        out.push((format!("gpd/{n}"), gpd_sample(n), cfg(paper)));
    }
    out.push((
        "ipfwd-l1/5000/linear".into(),
        ipfwd_sample(5000),
        cfg(linear),
    ));
    out.push(("gpd/5000/linear".into(), gpd_sample(5000), cfg(linear)));
    out
}

/// One golden row, as the table above spells it.
fn render(label: &str, upb: u64, lo: u64, hi: Option<u64>, rung: &str, me: Option<u64>) -> String {
    let opt = |v: Option<u64>| v.map_or("None".into(), |b| format!("Some({b:#018x})"));
    format!(
        "    (\"{label}\", {upb:#018x}, {lo:#018x}, {}, \"{rung}\", {}),",
        opt(hi),
        opt(me)
    )
}

#[test]
fn certificates_match_pinned_bits() {
    let got: Vec<String> = cases()
        .into_iter()
        .map(|(label, sample, cfg)| {
            let r = estimate_resilient(&sample, &cfg).expect("full ladder always estimates");
            render(
                &label,
                r.upb.point.to_bits(),
                r.upb.ci_low.to_bits(),
                r.upb.ci_high.map(f64::to_bits),
                r.method.name(),
                r.diagnostics.map(|d| d.mean_excess_r2.to_bits()),
            )
        })
        .collect();
    let want: Vec<String> = GOLDEN
        .iter()
        .map(|&(label, upb, lo, hi, rung, me)| render(label, upb, lo, hi, rung, me))
        .collect();
    assert_eq!(got, want, "certificates moved; now:\n{}", got.join("\n"));
}
