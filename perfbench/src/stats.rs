//! Medians, percentiles and process memory.

/// Median of `values` (mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail percentile resting on enough samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Which percentile it is, in `[0, 1]`.
    pub quantile: f64,
    /// How many samples it rests on.
    pub samples: usize,
}

/// The nearest-rank `q` percentile when at least ten samples lie
/// beyond it; otherwise the highest percentile that has ten samples
/// beyond it (the minimum below eleven samples).
pub fn tail(values: &[f64], q: f64) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            quantile: q,
            samples: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let (index, quantile) = if n - rank >= 10 {
        (rank - 1, q)
    } else {
        let index = n.saturating_sub(11);
        (index, (index + 1) as f64 / n as f64)
    };
    Tail {
        value: v[index],
        quantile,
        samples: n,
    }
}

/// Resident-set figures of this process, read from `/proc/self/status`.
pub mod rss {
    fn status_kb(field: &str) -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with(field))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }

    /// Current resident set, in kB.
    pub fn current_kb() -> Option<u64> {
        status_kb("VmRSS:")
    }

    /// Peak resident set since start or the last [`reset_peak`], in kB.
    pub fn peak_kb() -> Option<u64> {
        status_kb("VmHWM:")
    }

    /// Resets the peak to the current resident set.
    ///
    /// # Errors
    ///
    /// Fails where `/proc/self/clear_refs` is not writable.
    pub fn reset_peak() -> std::io::Result<()> {
        std::fs::write("/proc/self/clear_refs", "5")
    }
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
    fn tail_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred, 0.9);
        assert_eq!((t.value, t.quantile, t.samples), (90.0, 0.9, 100));
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&fifty, 0.9);
        assert_eq!(t.value, 40.0);
        assert!((t.quantile - 0.8).abs() < 1e-12);
    }
}
