//! Medians and percentiles.
//!
//! Percentiles use nearest rank on the sorted samples.  A percentile is
//! only *supported* when at least [`MIN_BEYOND`] samples lie beyond it,
//! so a tail figure is never one or two outliers.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail latency may be reported at, ascending.
pub const TAIL_LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The `p`-th percentile by nearest rank; 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    sorted(samples)[rank(samples.len(), p) - 1]
}

/// The median: mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's
/// rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile of [`TAIL_LADDER`] that `n` samples support;
/// the median when none is.
pub fn highest_supported(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| supports(n, p))
        .unwrap_or(50.0)
}

/// The tail percentile to report: `wanted` when the sample supports it,
/// else the highest supported one below it.
pub fn tail_percentile(n: usize, wanted: f64) -> f64 {
    if supports(n, wanted) {
        wanted
    } else {
        highest_supported(n).min(wanted)
    }
}

/// Share of `first` by which `second` differs from it, either way.
pub fn difference(first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    (second - first).abs() / first.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 240 samples: 12 lie beyond p95, only 2 beyond p99.
        assert_eq!(samples_beyond(240, 95.0), 12);
        assert!(supports(240, 95.0));
        assert!(!supports(240, 99.0));
        assert_eq!(highest_supported(240), 95.0);
        // 199 samples leave 9 beyond p95: not enough.
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(highest_supported(199), 90.0);
        assert_eq!(highest_supported(200), 95.0);
        // 48 job latencies (4 batches of 12) support p75 only.
        assert_eq!(highest_supported(48), 75.0);
        // Too few for anything but the median.
        assert_eq!(highest_supported(12), 50.0);
        assert_eq!(highest_supported(0), 50.0);
    }

    #[test]
    fn tail_percentile_never_exceeds_the_wanted_one() {
        assert_eq!(tail_percentile(1000, 95.0), 95.0);
        assert_eq!(tail_percentile(120, 95.0), 90.0);
        assert_eq!(tail_percentile(20, 95.0), 50.0);
    }

    #[test]
    fn difference_is_two_sided() {
        assert!((difference(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((difference(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert_eq!(difference(0.0, 5.0), 0.0);
    }
}
