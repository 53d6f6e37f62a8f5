//! Order statistics over timing samples.

/// The median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it — the
/// p99 of a thousand samples. Below 100 samples that point would fall
/// under the p90, so a tenth of the samples stay above it instead: the
/// p90, or the maximum of fewer than ten samples.
pub fn tail(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    assert!(!s.is_empty(), "tail of no samples");
    let n = s.len();
    s[n - 1 - (n / 10).min(10)]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), 990.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), 90.0);
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(tail(&v), 27.0);
        assert_eq!(tail(&[5.0, 9.0, 7.0]), 9.0);
    }
}
