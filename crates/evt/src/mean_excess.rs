//! Sample mean excess function and plot (paper §3.3.2, Step 2, Figure 6b).
//!
//! For a sorted sample `x₁ ≤ … ≤ xₙ` and a candidate threshold `u`, the
//! sample mean excess function is
//!
//! ```text
//! eₙ(u) = Σ_{i=k}^{n} (xᵢ − u) / (n − k + 1),   k = min{ i | xᵢ > u }
//! ```
//!
//! A GPD with shape `ξ < 1` has a *linear* mean excess function, so the
//! threshold is chosen where the plot becomes roughly linear; a decreasing
//! linear tail indicates `ξ < 0` (a finite upper bound).

use crate::EvtError;
use optassign_stats::linreg;

/// Computes `eₙ(u)` for one threshold over an **ascending-sorted** sample.
///
/// Returns `None` when no observation exceeds `u`.
///
/// # Examples
///
/// ```
/// use optassign_evt::mean_excess::mean_excess_at;
///
/// let sorted = [1.0, 2.0, 3.0, 4.0];
/// // Exceedances over u=2: {3, 4}; mean excess = (1 + 2) / 2.
/// assert_eq!(mean_excess_at(&sorted, 2.0), Some(1.5));
/// assert_eq!(mean_excess_at(&sorted, 4.0), None);
/// ```
pub fn mean_excess_at(sorted: &[f64], u: f64) -> Option<f64> {
    let k = sorted.partition_point(|&x| x <= u);
    if k == sorted.len() {
        return None;
    }
    let tail = &sorted[k..];
    Some(tail.iter().map(|&x| x - u).sum::<f64>() / tail.len() as f64)
}

/// The sample mean excess plot: points `(u, eₙ(u))`.
///
/// This is Figure 6(b) of the paper — the graphical tool used to select the
/// POT threshold and to check whether a GPD can model the tail at all.
#[derive(Debug, Clone, PartialEq)]
pub struct MeanExcessPlot {
    points: Vec<(f64, f64)>,
}

impl MeanExcessPlot {
    /// Builds the plot from an **ascending-sorted** sample, evaluating
    /// `eₙ(u)` at every distinct observation except the maximum (where the
    /// excess set is empty).
    ///
    /// The POT pipeline sorts its sample once and hands the same slice to
    /// the threshold rule and to this plot; sort other samples with
    /// [`optassign_stats::descriptive::sorted`] first.
    ///
    /// # Errors
    ///
    /// Returns [`EvtError::NotEnoughData`] for samples with fewer than two
    /// observations.
    ///
    /// # Examples
    ///
    /// ```
    /// use optassign_evt::mean_excess::MeanExcessPlot;
    ///
    /// let sorted = optassign_stats::descriptive::sorted(&[3.0, 1.0, 2.0, 2.0, 5.0]);
    /// let plot = MeanExcessPlot::from_sorted(&sorted).unwrap();
    /// assert_eq!(plot.points()[0], (1.0, 2.0)); // excesses {1, 1, 2, 4} over u = 1
    /// ```
    pub fn from_sorted(sorted: &[f64]) -> Result<Self, EvtError> {
        if sorted.len() < 2 {
            return Err(EvtError::NotEnoughData {
                what: "mean excess plot",
                needed: 2,
                got: sorted.len(),
            });
        }
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "mean excess plot needs an ascending-sorted sample"
        );
        let n = sorted.len();
        // Suffix sums make the whole plot O(n): for u = x_i, the excess set
        // is x_k.. with k the first index holding a value > u.
        let mut suffix = vec![0.0f64; n + 1];
        for i in (0..n).rev() {
            suffix[i] = suffix[i + 1] + sorted[i];
        }
        let mut points = Vec::with_capacity(n - 1);
        let mut i = 0;
        while i < n - 1 {
            let u = sorted[i];
            // Skip to the last duplicate: eₙ is a function of u.
            let mut k = i + 1;
            while k < n && sorted[k] == u {
                k += 1;
            }
            if k < n {
                let count = (n - k) as f64;
                let e = (suffix[k] - count * u) / count;
                points.push((u, e));
            }
            i = k;
        }
        Ok(MeanExcessPlot { points })
    }

    /// The `(u, eₙ(u))` points, ascending in `u`.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Measures how linear the plot is **above** the given threshold:
    /// returns the least-squares fit over the points with `u >= threshold`.
    ///
    /// A high `r_squared` with a negative slope indicates the exceedances
    /// are GPD-like with `ξ < 0`, i.e. a finite upper performance bound.
    ///
    /// # Errors
    ///
    /// Returns [`EvtError::NotEnoughData`] when fewer than three plot points
    /// lie above the threshold (too few to judge linearity), or a numerical
    /// error when the regression is degenerate.
    pub fn linearity_above(&self, threshold: f64) -> Result<linreg::LinearFit, EvtError> {
        let tail: Vec<(f64, f64)> = self
            .points
            .iter()
            .copied()
            .filter(|&(u, _)| u >= threshold)
            .collect();
        if tail.len() < 3 {
            return Err(EvtError::NotEnoughData {
                what: "mean excess linearity",
                needed: 3,
                got: tail.len(),
            });
        }
        linreg::fit(&tail).map_err(EvtError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpd::Gpd;

    #[test]
    fn mean_excess_at_matches_hand_computation() {
        let sorted = [1.0, 2.0, 3.0, 10.0];
        // u = 0.5: excesses {0.5, 1.5, 2.5, 9.5} mean 3.5
        assert_eq!(mean_excess_at(&sorted, 0.5), Some(3.5));
        // u = 3: only 10 exceeds → 7
        assert_eq!(mean_excess_at(&sorted, 3.0), Some(7.0));
        assert_eq!(mean_excess_at(&sorted, 10.0), None);
    }

    #[test]
    fn plot_needs_two_points() {
        assert!(MeanExcessPlot::from_sorted(&[1.0]).is_err());
        assert!(MeanExcessPlot::from_sorted(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn fast_plot_matches_direct_computation() {
        // The suffix-sum construction must agree with the per-threshold
        // definition on an awkward sample (duplicates, negatives).
        let sample = [3.0, 1.0, 1.0, 2.5, 2.5, 2.5, -1.0, 7.0, 7.0, 0.0];
        let sorted = optassign_stats::descriptive::sorted(&sample);
        let plot = MeanExcessPlot::from_sorted(&sorted).unwrap();
        for &(u, e) in plot.points() {
            let direct = mean_excess_at(&sorted, u).expect("u below max");
            assert!((e - direct).abs() < 1e-12, "u={u}: {e} vs {direct}");
        }
        // One point per distinct value below the maximum.
        let distinct_below_max = {
            let mut v = sorted.clone();
            v.dedup();
            v.len() - 1
        };
        assert_eq!(plot.points().len(), distinct_below_max);
    }

    #[test]
    fn plot_points_are_ascending_and_deduplicated() {
        let p = MeanExcessPlot::from_sorted(&[1.0, 2.0, 2.0, 3.0, 5.0]).unwrap();
        let xs: Vec<f64> = p.points().iter().map(|&(u, _)| u).collect();
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn gpd_sample_has_linear_tail() {
        // Mean excess of a GPD is linear, so a large GPD sample should show
        // high linearity above a moderate threshold.
        let g = Gpd::new(-0.4, 1.0).unwrap();
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(11);
        let sample = optassign_stats::descriptive::sorted(&g.sample_n(&mut rng, 5000));
        let plot = MeanExcessPlot::from_sorted(&sample).unwrap();
        let fit = plot.linearity_above(0.2).unwrap();
        assert!(fit.r_squared > 0.9, "r2 = {}", fit.r_squared);
        // ξ < 0 shows as a decreasing mean excess: slope ≈ ξ/(1−ξ) < 0.
        assert!(fit.slope < 0.0, "slope = {}", fit.slope);
        let theory_slope = -0.4 / 1.4;
        assert!(
            (fit.slope - theory_slope).abs() < 0.12,
            "slope {} vs theory {theory_slope}",
            fit.slope
        );
    }

    #[test]
    fn exponential_sample_has_flat_tail() {
        let g = Gpd::new(0.0, 2.0).unwrap();
        let mut rng = optassign_stats::rng::StdRng::seed_from_u64(5);
        let sample = optassign_stats::descriptive::sorted(&g.sample_n(&mut rng, 5000));
        let plot = MeanExcessPlot::from_sorted(&sample).unwrap();
        let fit = plot.linearity_above(0.5).unwrap();
        // Slope of e(u) for exponential is 0 (up to heavy tail noise).
        assert!(fit.slope.abs() < 0.4, "slope = {}", fit.slope);
    }

    #[test]
    fn linearity_needs_three_tail_points() {
        let p = MeanExcessPlot::from_sorted(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(p.linearity_above(3.5).is_err());
    }
}
