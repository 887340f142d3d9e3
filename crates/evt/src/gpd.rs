//! The Generalized Pareto Distribution (GPD).
//!
//! The Pickands–Balkema–de Haan theorem (the paper's Theorem 1) states that
//! for a large class of distributions, the conditional excess distribution
//! over a high threshold is well approximated by a GPD
//!
//! ```text
//! G_{ξ,σ}(y) = 1 − (1 + ξ·y/σ)^(−1/ξ)   (ξ ≠ 0)
//!            = 1 − exp(−y/σ)            (ξ = 0)
//! ```
//!
//! For `ξ < 0` the support is bounded: `y ∈ [0, −σ/ξ]`, which is what lets
//! the paper compute a finite Upper Performance Bound `u − σ/ξ`.

use crate::EvtError;
use optassign_stats::rng::Rng;

/// A Generalized Pareto Distribution with shape `ξ` and scale `σ`.
///
/// # Examples
///
/// ```
/// use optassign_evt::Gpd;
///
/// let g = Gpd::new(-0.5, 2.0).unwrap();
/// // Bounded support: upper endpoint −σ/ξ = 4.
/// assert_eq!(g.upper_bound(), Some(4.0));
/// assert!((g.cdf(4.0) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gpd {
    shape: f64,
    scale: f64,
}

impl Gpd {
    /// Creates a GPD with shape `ξ` (`shape`) and scale `σ > 0` (`scale`).
    ///
    /// # Errors
    ///
    /// Returns [`EvtError::Domain`] when `scale <= 0` or either parameter is
    /// non-finite.
    pub fn new(shape: f64, scale: f64) -> Result<Self, EvtError> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(EvtError::Domain("scale must be finite and > 0"));
        }
        if !shape.is_finite() {
            return Err(EvtError::Domain("shape must be finite"));
        }
        Ok(Gpd { shape, scale })
    }

    /// The shape parameter `ξ`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `σ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Upper endpoint of the support: `Some(−σ/ξ)` for `ξ < 0`, `None`
    /// (infinite) otherwise.
    pub fn upper_bound(&self) -> Option<f64> {
        if self.shape < 0.0 {
            Some(-self.scale / self.shape)
        } else {
            None
        }
    }

    /// Cumulative distribution function `G(y)`, clamped to `[0, 1]` outside
    /// the support.
    pub fn cdf(&self, y: f64) -> f64 {
        if y <= 0.0 {
            return 0.0;
        }
        if self.shape == 0.0 {
            return 1.0 - (-y / self.scale).exp();
        }
        let t = 1.0 + self.shape * y / self.scale;
        if t <= 0.0 {
            // Above the upper endpoint when ξ < 0.
            return 1.0;
        }
        1.0 - t.powf(-1.0 / self.shape)
    }

    /// Probability density function `g(y)`; zero outside the support.
    pub fn pdf(&self, y: f64) -> f64 {
        if y < 0.0 {
            return 0.0;
        }
        if self.shape == 0.0 {
            return (-y / self.scale).exp() / self.scale;
        }
        let t = 1.0 + self.shape * y / self.scale;
        if t <= 0.0 {
            return 0.0;
        }
        t.powf(-1.0 / self.shape - 1.0) / self.scale
    }

    /// Quantile function (inverse CDF) at probability `q`.
    ///
    /// # Errors
    ///
    /// Returns [`EvtError::Domain`] when `q` is outside `[0, 1)` (for
    /// `ξ >= 0`, `q = 1` maps to infinity; for `ξ < 0` it is allowed and
    /// returns the upper endpoint).
    pub fn quantile(&self, q: f64) -> Result<f64, EvtError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(EvtError::Domain("quantile level must be in [0, 1]"));
        }
        if q == 1.0 {
            return self
                .upper_bound()
                .ok_or(EvtError::Domain("q = 1 is infinite for shape >= 0"));
        }
        if self.shape == 0.0 {
            return Ok(-self.scale * (1.0 - q).ln());
        }
        Ok(self.scale / self.shape * ((1.0 - q).powf(-self.shape) - 1.0))
    }

    /// Mean of the distribution, finite only for `ξ < 1`.
    pub fn mean(&self) -> Option<f64> {
        if self.shape < 1.0 {
            Some(self.scale / (1.0 - self.shape))
        } else {
            None
        }
    }

    /// Theoretical mean excess function `e(u) = E[Y − u | Y > u]`.
    ///
    /// For the GPD this is **linear** in `u`: `e(u) = (σ + ξu) / (1 − ξ)` —
    /// the property behind the paper's mean-excess-plot threshold selection.
    /// Finite only for `ξ < 1` and `u` inside the support.
    pub fn mean_excess(&self, u: f64) -> Option<f64> {
        if self.shape >= 1.0 || u < 0.0 {
            return None;
        }
        if let Some(ub) = self.upper_bound() {
            if u >= ub {
                return None;
            }
        }
        Some((self.scale + self.shape * u) / (1.0 - self.shape))
    }

    /// Log-likelihood of an iid sample of `m` exceedances under this GPD,
    /// in closed form:
    ///
    /// ```text
    /// ℓ(ξ, σ) = −m·ln σ − (1 + 1/ξ)·Σ ln(1 + ξ·yᵢ/σ)   (ξ ≠ 0)
    ///         = −m·ln σ − Σ yᵢ/σ                      (ξ = 0)
    /// ```
    ///
    /// Each observation costs one `ln_1p` where `ln pdf(y)` costs a `powf`
    /// and a `ln`; this is the maximum-likelihood fit's objective,
    /// evaluated hundreds of times per fit. `ξ·y/σ` is rounded exactly as
    /// [`Gpd::pdf`] rounds it, so both draw the support's edge alike.
    ///
    /// Returns `f64::NEG_INFINITY` when any observation falls outside the
    /// support (`y < 0`, or `1 + ξ·y/σ ≤ 0`: at or beyond the upper
    /// endpoint when `ξ < 0`) — convenient for feeding optimizers
    /// directly. Never returns NaN.
    ///
    /// Two cases differ from summing `ln pdf(y)`, which rounds
    /// `t = 1 + ξ·y/σ` before raising it to a power:
    ///
    /// * near the upper endpoint (or far out in a heavy tail),
    ///   `t^(−1/ξ − 1)` underflows to 0 although `t > 0`, so that sum is
    ///   `−∞`; here the value is finite, as the density is positive;
    /// * for small `|ξ|` the rounding of `t` costs that sum the precision
    ///   of its `Σ yᵢ/σ` term (about 1e-4 relative at `|ξ| = 1e-12`), and
    ///   once every `|ξ·yᵢ/σ| < 2⁻⁵³` the term is gone (`t` is 1); here
    ///   the value tends to the exponential (`ξ = 0`) case as `ξ → 0`,
    ///   and is that case when `1/ξ` overflows.
    ///
    /// # Examples
    ///
    /// ```
    /// use optassign_evt::Gpd;
    ///
    /// let g = Gpd::new(-0.5, 2.0).unwrap();
    /// let ys = [0.5, 1.0, 3.0];
    /// let by_pdf: f64 = ys.iter().map(|&y| g.pdf(y).ln()).sum();
    /// assert!((g.log_likelihood(&ys) - by_pdf).abs() < 1e-12);
    /// // The upper endpoint −σ/ξ = 4 is outside the support.
    /// assert_eq!(g.log_likelihood(&[1.0, 4.0]), f64::NEG_INFINITY);
    /// ```
    pub fn log_likelihood(&self, sample: &[f64]) -> f64 {
        let m = sample.len() as f64;
        let inv_shape = 1.0 / self.shape;
        if inv_shape.is_infinite() {
            // ξ = 0 (or so close that 1/ξ overflows): the exponential.
            let mut sum = 0.0;
            for &y in sample {
                if y.is_nan() || y < 0.0 {
                    return f64::NEG_INFINITY;
                }
                sum += y;
            }
            return -m * self.scale.ln() - sum / self.scale;
        }
        let mut s = 0.0;
        for &y in sample {
            let z = self.shape * y / self.scale;
            // z is NaN only when y is.
            if y.is_nan() || y < 0.0 || z <= -1.0 {
                return f64::NEG_INFINITY;
            }
            s += z.ln_1p();
        }
        // Inside the support every `ln_1p` is finite or, for an infinite
        // y with ξ > 0, +∞ under a positive factor: no 0·∞, no NaN.
        -m * self.scale.ln() - (1.0 + inv_shape) * s
    }

    /// Draws one observation via inverse-transform sampling.
    ///
    /// # Examples
    ///
    /// ```
    /// use optassign_evt::Gpd;
    ///
    /// let g = Gpd::new(-0.3, 1.0).unwrap();
    /// let mut rng = optassign_stats::rng::StdRng::seed_from_u64(1);
    /// let y = g.sample(&mut rng);
    /// assert!(y >= 0.0 && y <= g.upper_bound().unwrap());
    /// ```
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        // q in [0, 1) is always inside the quantile domain, so the error
        // branch is unreachable; NaN would be the honest answer if the
        // invariant ever broke.
        self.quantile(u).unwrap_or(f64::NAN)
    }

    /// Draws `n` observations.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optassign_stats::rng::Rng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Gpd::new(-0.5, 0.0).is_err());
        assert!(Gpd::new(-0.5, -1.0).is_err());
        assert!(Gpd::new(f64::NAN, 1.0).is_err());
        assert!(Gpd::new(0.5, f64::INFINITY).is_err());
    }

    #[test]
    fn exponential_special_case() {
        let g = Gpd::new(0.0, 2.0).unwrap();
        assert_eq!(g.upper_bound(), None);
        for &y in &[0.1, 1.0, 5.0] {
            assert!((g.cdf(y) - (1.0 - (-y / 2.0f64).exp())).abs() < 1e-12);
            assert!((g.pdf(y) - (-y / 2.0f64).exp() / 2.0).abs() < 1e-12);
        }
        assert_eq!(g.mean(), Some(2.0));
    }

    #[test]
    fn bounded_support_for_negative_shape() {
        let g = Gpd::new(-0.25, 1.0).unwrap();
        let ub = g.upper_bound().unwrap();
        assert_eq!(ub, 4.0);
        assert_eq!(g.cdf(ub + 1.0), 1.0);
        assert_eq!(g.pdf(ub + 1.0), 0.0);
        assert_eq!(g.quantile(1.0).unwrap(), ub);
    }

    #[test]
    fn uniform_is_gpd_with_shape_minus_one() {
        // ξ = −1, σ = s gives the Uniform(0, s) distribution.
        let g = Gpd::new(-1.0, 3.0).unwrap();
        for &y in &[0.0, 0.6, 1.5, 2.9] {
            assert!((g.cdf(y) - y / 3.0).abs() < 1e-12, "y={y}");
            assert!((g.pdf(y) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_excess_is_linear() {
        let g = Gpd::new(-0.3, 2.0).unwrap();
        let e0 = g.mean_excess(0.0).unwrap();
        let e1 = g.mean_excess(1.0).unwrap();
        let e2 = g.mean_excess(2.0).unwrap();
        assert!((2.0 * e1 - e0 - e2).abs() < 1e-12, "linearity");
        assert!((e0 - 2.0 / 1.3).abs() < 1e-12);
    }

    /// The log-likelihood as a sum of log densities: the definition the
    /// closed form replaces, kept as its test oracle.
    fn ll_by_pdf(g: &Gpd, ys: &[f64]) -> f64 {
        let mut ll = 0.0;
        for &y in ys {
            let d = g.pdf(y);
            if d <= 0.0 {
                return f64::NEG_INFINITY;
            }
            ll += d.ln();
        }
        ll
    }

    /// `|got − want|` relative to the summands' magnitude `Σ |ln pdf(yᵢ)|`,
    /// the scale a sum's rounding error lives on (the sum itself may
    /// cancel to near zero).
    fn rel_err_vs_oracle(g: &Gpd, ys: &[f64]) -> f64 {
        let want = ll_by_pdf(g, ys);
        let got = g.log_likelihood(ys);
        assert!(
            want.is_finite() && got.is_finite(),
            "{g:?}: {got} vs {want}"
        );
        let scale: f64 = ys.iter().map(|&y| g.pdf(y).ln().abs()).sum();
        (got - want).abs() / scale.max(f64::MIN_POSITIVE)
    }

    #[test]
    fn closed_form_log_likelihood_matches_pdf_sum() {
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(14);
        let mut worst = 0.0f64;
        for case in 0..2000 {
            // Every eighth case is the exponential, ξ = 0.
            let shape = if case % 8 == 0 {
                0.0
            } else {
                rng.gen_range(-1.5f64..1.5)
            };
            let scale = rng.gen_range(0.05f64..20.0);
            let g = Gpd::new(shape, scale).unwrap();
            let m = [1usize, 10, 50, 500][case % 4];
            // Draws from the distribution itself lie inside its support
            // (for ξ < −1 the density at the endpoint is infinite: skip
            // draws that land on it).
            let ys: Vec<f64> = g
                .sample_n(&mut rng, m)
                .into_iter()
                .filter(|&y| g.pdf(y).is_finite() && g.pdf(y) > 0.0)
                .collect();
            if ys.is_empty() {
                continue;
            }
            worst = worst.max(rel_err_vs_oracle(&g, &ys));
        }
        assert!(worst <= 1e-12, "worst relative error {worst:e}");
    }

    #[test]
    fn tiny_shapes_tend_to_the_exponential() {
        // For small ξ, ℓ = −m·ln σ − Σa − ξ·Σ(a − a²/2) + O(ξ²), a = y/σ.
        // The pdf sum rounds t = 1 + ξ·a first: at |ξ| = 1e-12 that costs
        // its Σa term ~1e-4 of its digits, at 1e-300 the whole term. So the
        // reference here is the expansion, not the oracle.
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(16);
        let scale = 2.5;
        let ys = Gpd::new(0.0, scale).unwrap().sample_n(&mut rng, 300);
        let m = ys.len() as f64;
        let sum_a: f64 = ys.iter().map(|&y| y / scale).sum();
        let sum_c: f64 = ys
            .iter()
            .map(|&y| y / scale - (y / scale).powi(2) / 2.0)
            .sum();
        for &shape in &[1e-12, -1e-12, 1e-300, -1e-300] {
            let g = Gpd::new(shape, scale).unwrap();
            let want = -m * f64::ln(scale) - sum_a - shape * sum_c;
            let got = g.log_likelihood(&ys);
            assert!(
                ((got - want) / want).abs() <= 1e-12,
                "ξ={shape}: {got} vs {want}"
            );
        }
        // Where the pdf sum's t rounds to 1 it reads −m·ln σ: Σa short.
        let old = ll_by_pdf(&Gpd::new(1e-300, scale).unwrap(), &ys);
        assert!((old - -m * f64::ln(scale)).abs() <= 1e-9 * old.abs());
    }

    #[test]
    fn overflowing_inverse_shape_is_the_exponential_never_nan() {
        let ys = [0.0, 0.0, 1.0, 3.5, 0.25];
        for &scale in &[0.5, 1.0, 40.0] {
            let exponential = Gpd::new(0.0, scale).unwrap().log_likelihood(&ys);
            // 1/ξ overflows for these (subnormal) shapes.
            for &shape in &[5e-324, -5e-324, 1e-310, -1e-310, -0.0] {
                let g = Gpd::new(shape, scale).unwrap();
                assert!((1.0 / shape).is_infinite());
                assert_eq!(g.log_likelihood(&ys).to_bits(), exponential.to_bits());
            }
            // All-zero exceedances: ln_1p(0) = 0 under any finite factor.
            for &shape in &[1e-300, -1e-300, -1.0, 0.3] {
                let g = Gpd::new(shape, scale).unwrap();
                let ll = g.log_likelihood(&[0.0, 0.0]);
                assert_eq!(ll, -2.0 * f64::ln(scale), "ξ={shape}");
            }
        }
    }

    #[test]
    fn log_likelihood_rejects_out_of_support() {
        let g = Gpd::new(-0.5, 1.0).unwrap();
        // Upper endpoint is 2; 3.0 is outside.
        assert_eq!(g.log_likelihood(&[0.5, 3.0]), f64::NEG_INFINITY);
        assert!(g.log_likelihood(&[0.5, 1.5]).is_finite());
        let inf = f64::NEG_INFINITY;
        for &shape in &[-1.5, -1.0, -0.5, -1e-12, 0.0, 1e-12, 0.5] {
            let g = Gpd::new(shape, 2.0).unwrap();
            assert_eq!(g.log_likelihood(&[0.5, -1e-300]), inf, "ξ={shape}");
            assert_eq!(g.log_likelihood(&[-3.0]), inf, "ξ={shape}");
            assert_eq!(g.log_likelihood(&[0.5, f64::NAN]), inf, "ξ={shape}");
            assert_eq!(g.log_likelihood(&[f64::INFINITY]), inf, "ξ={shape}");
        }
        for &shape in &[-2.0, -1.0, -0.5, -0.01] {
            let g = Gpd::new(shape, 2.0).unwrap();
            let end = g.upper_bound().unwrap();
            assert_eq!(g.log_likelihood(&[0.1, end]), inf, "ξ={shape} at endpoint");
            assert_eq!(g.log_likelihood(&[end * 1.5]), inf, "ξ={shape} beyond");
            let inside = end * (1.0 - 1e-9);
            assert!(g.log_likelihood(&[0.1, inside]).is_finite(), "ξ={shape}");
        }
    }

    #[test]
    fn finite_where_the_pdf_underflows() {
        // ξ = −0.01, σ = 1: endpoint 100. At y = 99.99, t = 1e-4 and
        // pdf = t^99 ≈ 1e-396 underflows to 0, so the pdf sum is −∞; the
        // density is positive and the closed form is finite:
        // ℓ = −(1 − 100)·ln t = 99·ln 1e-4.
        let g = Gpd::new(-0.01, 1.0).unwrap();
        let y = 99.99;
        assert_eq!(ll_by_pdf(&g, &[y]), f64::NEG_INFINITY);
        let got = g.log_likelihood(&[y]);
        let want = 99.0 * f64::ln(1e-4);
        assert!(((got - want) / want).abs() < 1e-9, "{got} vs {want}");
        // The same in a heavy tail: ξ = 2 far out, t^(−1.5) underflows.
        let g = Gpd::new(2.0, 1.0).unwrap();
        let y = 1e220;
        assert_eq!(ll_by_pdf(&g, &[y]), f64::NEG_INFINITY);
        let want = -1.5 * f64::ln(2.0 * y);
        let got = g.log_likelihood(&[y]);
        assert!(((got - want) / want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn sample_respects_support() {
        let g = Gpd::new(-0.4, 1.5).unwrap();
        let ub = g.upper_bound().unwrap();
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let y = g.sample(&mut rng);
            assert!((0.0..=ub).contains(&y));
        }
    }

    #[test]
    fn sample_mean_converges_to_theory() {
        let g = Gpd::new(-0.3, 1.0).unwrap();
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(7);
        let xs = g.sample_n(&mut rng, 20_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - g.mean().unwrap()).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(11);
        for _ in 0..500 {
            let shape = rng.gen_range(-1.5f64..1.5);
            let scale = rng.gen_range(0.1f64..10.0);
            let q = rng.gen_range(0.001f64..0.999);
            let g = Gpd::new(shape, scale).unwrap();
            let y = g.quantile(q).unwrap();
            assert!(
                (g.cdf(y) - q).abs() < 1e-9,
                "shape={shape} scale={scale} q={q}"
            );
        }
    }

    #[test]
    fn cdf_is_monotone() {
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(12);
        for _ in 0..500 {
            let shape = rng.gen_range(-1.5f64..1.5);
            let scale = rng.gen_range(0.1f64..10.0);
            let a = rng.gen_range(0.0f64..20.0);
            let b = rng.gen_range(0.0f64..20.0);
            let g = Gpd::new(shape, scale).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(
                g.cdf(lo) <= g.cdf(hi) + 1e-12,
                "shape={shape} scale={scale} lo={lo} hi={hi}"
            );
        }
    }

    #[test]
    fn pdf_nonnegative() {
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(13);
        for _ in 0..500 {
            let shape = rng.gen_range(-1.5f64..1.5);
            let scale = rng.gen_range(0.1f64..10.0);
            let y = rng.gen_range(-5.0f64..25.0);
            let g = Gpd::new(shape, scale).unwrap();
            assert!(g.pdf(y) >= 0.0, "shape={shape} scale={scale} y={y}");
        }
    }
}
