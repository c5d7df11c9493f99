//! Percentiles and summaries of latency samples.

/// Percentiles a tail figure is chosen from, lowest first.
const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.9];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of sorted samples.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median, interpolated between the two middle samples of an even count.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile of the ladder, up to `cap`, that has at least
/// [`MIN_BEYOND`] samples beyond it, with its value. `None` when not even
/// the median qualifies.
pub fn tail(sorted: &[f64], cap: f64) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .rev()
        .filter(|&&p| p <= cap)
        .find(|&&p| {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted.len().saturating_sub(rank.max(1)) >= MIN_BEYOND
        })
        .map(|&p| (p, nearest_rank(sorted, p)))
}

/// Latency samples of one statement class, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

/// Median and tail of a sample set, with the tail's actual percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Median and the highest percentile up to p99 the sample count
    /// supports. With fewer than [`MIN_BEYOND`] + 1 samples the tail falls
    /// back to the maximum (`tail_pct` 100).
    pub fn summary(&self) -> Option<Summary> {
        if self.0.is_empty() {
            return None;
        }
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        let (tail_pct, tail) = tail(&s, 99.0).unwrap_or((100.0, s[s.len() - 1]));
        Some(Summary {
            n: s.len(),
            p50: median(&s),
            tail_pct,
            tail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond it.
        assert_eq!(tail(&ramp(1000), 99.0), Some((99.0, 990.0)));
        // 999 samples: p99 leaves 9; p98 (rank 980) leaves 19.
        assert_eq!(tail(&ramp(999), 99.0), Some((98.0, 980.0)));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail(&ramp(100), 99.0), Some((90.0, 90.0)));
        // 40 samples: p75 (rank 30) leaves 10.
        assert_eq!(tail(&ramp(40), 99.0), Some((75.0, 30.0)));
        // 20 samples: only the median qualifies; 19 leave too few even there.
        assert_eq!(tail(&ramp(20), 99.0), Some((50.0, 10.0)));
        assert_eq!(tail(&ramp(19), 99.0), None);
        // The cap is honoured even when more samples would allow p99.9.
        assert_eq!(tail(&ramp(100_000), 99.0), Some((99.0, 99_000.0)));
    }

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(nearest_rank(&ramp(10), 50.0), 5.0);
        assert_eq!(nearest_rank(&ramp(10), 100.0), 10.0);
    }

    #[test]
    fn summary_falls_back_to_the_maximum_on_tiny_samples() {
        let mut s = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        let sum = s.summary().unwrap();
        assert_eq!(
            (sum.n, sum.p50, sum.tail_pct, sum.tail),
            (3, 2.0, 100.0, 3.0)
        );
    }
}
