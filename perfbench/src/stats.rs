//! Summary statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule on sorted samples. A tail
//! percentile is only reported where at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 needs at least 1000 samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first. Capped at p99 so that a
/// metric keeps one meaning across runs whose sample counts differ.
const TAILS: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `samples` (0 for an empty slice).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `samples` (0 for an empty slice).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples strictly beyond it.
pub fn has_enough_beyond(n: usize, p: f64) -> bool {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= MIN_BEYOND
}

/// The highest of the considered tail percentiles with at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| has_enough_beyond(n, p))
}

/// The value at [`tail_percentile`] of `samples`, with the percentile
/// used; `(max, 100)` when there are too few samples for any tail.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    match tail_percentile(samples.len()) {
        Some(p) => (percentile(samples, p), p),
        None => (percentile(samples, 100.0), 100.0),
    }
}

/// Mean of the middle half of `samples`: the sorted samples from the
/// first to the third quartile (0 for an empty slice). Unlike the median
/// it moves smoothly when samples fall into two speed modes in changing
/// proportions, and unlike the mean it ignores a cold first sample.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (lo, hi) = (n / 4, n - n / 4);
    mean(&sorted[lo..hi])
}

/// Geometric mean of positive `values` (0 if any is not positive).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0 || !v.is_finite()) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
