//! Order statistics over latency samples: nanoseconds in a `u32` (4.29 s at
//! most; anything a second late is a failure, not a sample), so a million
//! samples cost 4 MB.

/// The value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// A duration in ns as a sample; saturates at 4.29 s.
pub fn sample(ns: u64) -> u32 {
    ns.min(u64::from(u32::MAX)) as u32
}

/// The highest of p50, p90, p99, p99.9 … that still has at least ten
/// samples beyond it; a percentile resting on fewer is one outlier's say.
pub fn highest_supported_quantile(n: usize) -> f64 {
    let mut q = 0.5;
    let mut one_in = 10usize;
    while n / one_in >= 10 {
        q = 1.0 - 1.0 / one_in as f64;
        one_in *= 10;
    }
    q
}

/// The tail a `*_p99_*` metric reports: p99 when the sample supports it,
/// otherwise the highest percentile that it does. Returns (value, quantile).
pub fn tail(sorted: &[u32]) -> (f64, f64) {
    let q = highest_supported_quantile(sorted.len()).min(0.99);
    (quantile(sorted, q), q)
}

/// The value at quantile `q` of `values` (nearest rank); sorts them.
pub fn quantile_f64(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    if values.is_empty() {
        return 0.0;
    }
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    /// p99 needs 1000 samples (10 beyond it), p99.9 needs 10 000; below 100
    /// only the median stands.
    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_quantile(99), 0.5);
        assert_eq!(highest_supported_quantile(100), 0.9);
        assert_eq!(highest_supported_quantile(999), 0.9);
        assert_eq!(highest_supported_quantile(1_000), 0.99);
        assert_eq!(highest_supported_quantile(9_999), 0.99);
        assert_eq!(highest_supported_quantile(10_000), 0.999);
        let few: Vec<u32> = (1..=500).collect();
        assert_eq!(tail(&few), (450.0, 0.9), "p99 metric falls back to p90");
        let many: Vec<u32> = (1..=20_000).collect();
        assert_eq!(tail(&many).1, 0.99, "and never reports beyond p99");
    }

    #[test]
    fn quartiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=16).rev().map(f64::from).collect();
        assert_eq!(quantile_f64(&mut v, 0.25), 4.0);
        assert_eq!(quantile_f64(&mut v, 0.5), 8.0);
        assert_eq!(quantile_f64(&mut v, 0.75), 12.0);
        assert_eq!(quantile_f64(&mut [], 0.25), 0.0);
    }
}
