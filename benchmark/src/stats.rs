//! Order statistics: percentiles, medians, quartile spread.
//!
//! Percentiles are exact (sorted samples, nearest rank), not histogram
//! estimates. Quartiles follow Python's `statistics.quantiles(v, n=4)`
//! (the exclusive method), because that is what the acceptance driver
//! computes the run-to-run spread with.

/// Sort a sample ascending (NaN-free by construction: every value is a
/// measured duration or a count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `q` of the sample at or below it. 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the two middle values for an
/// even count). 0 for an empty one.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Smallest value; +∞ for an empty sample.
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Largest value; 0 for an empty sample of non-negative values.
pub fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(0.0, f64::max)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// First and third quartile, exclusive method (`statistics.quantiles`
/// with `n=4`): position `p·(len+1)`, linearly interpolated between
/// the neighbouring ranks (extrapolated past the ends, as Python
/// does). Needs at least two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let s = sorted(v.to_vec());
    let at = |p: f64| {
        let pos = p * (s.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    Some((at(0.25), at(0.75)))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the driver bounds. `None` below two values or at median 0.
pub fn spread(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let m = median(v);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 200 samples leave exactly ten beyond the 95th percentile.
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&s, 0.95);
        assert_eq!(s.iter().filter(|&&x| x > p95).count(), 10);
    }

    #[test]
    fn median_of_passes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // One slow pass does not move the median of five.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 10.0]), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]).unwrap(), (0.75, 2.25));
        assert!(quartiles(&[1.0]).is_none());
        let s = spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
