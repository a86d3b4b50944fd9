//! Order statistics over timing samples.

/// Median, quartiles and count of one metric's samples — what every
/// end-to-end metric carries in the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        n: s.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Fold per-call durations into log₂ buckets: bucket `i` counts calls
/// that took `[2^i, 2^(i+1))` ns (bucket 0 also takes 0 ns).
pub fn log2_histogram(durations_ns: &[u64]) -> Vec<u64> {
    let mut buckets = Vec::new();
    for &d in durations_ns {
        let i = (u64::BITS - 1).saturating_sub(d.max(1).leading_zeros()) as usize;
        if buckets.len() <= i {
            buckets.resize(i + 1, 0);
        }
        buckets[i] += 1;
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn log2_buckets_by_magnitude() {
        assert_eq!(log2_histogram(&[0, 1, 2, 3, 4, 1024]).len(), 11);
        assert_eq!(log2_histogram(&[0, 1, 2, 3, 4])[..3], [2, 2, 1]);
    }
}
