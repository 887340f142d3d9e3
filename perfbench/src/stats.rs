//! Small numeric helpers: percentiles, the sample digest, and peak RSS.

/// Percentile `p` (0–100) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Mean of `values`; 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of `values`; 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// A tail percentile that one noisy stretch of a run cannot move: the
/// median, over consecutive windows of `window` samples (in the order
/// taken), of each window's percentile `p`. A trailing partial window
/// is dropped unless it is the only one.
#[must_use]
pub fn windowed_percentile(values: &[f64], window: usize, p: f64) -> f64 {
    if values.len() < 2 * window {
        return percentile(values, p);
    }
    let per_window: Vec<f64> = values
        .chunks_exact(window)
        .map(|w| percentile(w, p))
        .collect();
    median(&per_window)
}

/// FNV-1a digest of a sequence of measured values, over their IEEE-754
/// bit patterns in order. Equal digests mean bit-identical samples.
#[must_use]
pub fn digest(values: &[f64]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    optassign_store::fnv1a64(&bytes)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        v[150] = 1e9;
        assert_eq!(windowed_percentile(&v, 100, 100.0), 99.0);
        assert_eq!(
            windowed_percentile(&v[..150], 100, 50.0),
            percentile(&v[..150], 50.0)
        );
    }

    #[test]
    fn digest_sees_every_bit() {
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
    }
}
