//! Summary statistics shared by every workload: the percentile rule for
//! latency tails, medians of repeated measurements, and the coverage ratios
//! of the traced ledger.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest rank (1-based, ascending) of the highest percentile that leaves
/// at least [`TAIL_MIN_BEYOND`] of `n` samples strictly beyond it. `None`
/// when `n` is too small for any.
pub fn tail_rank(n: usize) -> Option<usize> {
    n.checked_sub(TAIL_MIN_BEYOND).filter(|&r| r > 0)
}

/// Nearest-rank quantile of an ascending slice (`q` in `(0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Median and rule-chosen tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    /// Nearest rank of `tail` (see [`tail_rank`]); `n` (the maximum) when
    /// the sample is too small for the rule.
    pub rank: usize,
    pub tail: f64,
}

impl Tail {
    pub fn of(values: &[f64]) -> Tail {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let rank = tail_rank(v.len()).unwrap_or(v.len());
        Tail {
            n: v.len(),
            p50: quantile_sorted(&v, 0.5),
            rank,
            tail: v[rank - 1],
        }
    }

    /// The percentile the tail stands for.
    pub fn percentile(&self) -> f64 {
        100.0 * self.rank as f64 / self.n as f64
    }

    /// Samples strictly beyond the tail rank.
    pub fn beyond(&self) -> usize {
        self.n - self.rank
    }
}

/// Geometric mean over classes (models) of each class's median.
///
/// A median pooled over models that differ tenfold in cost falls into
/// the gap between the faster and the slower half of the zoo, and one op
/// more or less of either half moves it across that gap. Each model's own
/// median is steady, and the geometric mean weighs every model's relative
/// change alike.
pub fn geomean_of_medians(samples: &[(usize, f64)]) -> f64 {
    let mut by_class: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(c, v) in samples {
        by_class.entry(c).or_default().push(v);
    }
    let logs: Vec<f64> = by_class.values().map(|v| median(v).ln()).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Share of an end-to-end time that a set of separately timed parts
/// accounts for: `sum(parts) / total`.
pub fn coverage(parts: &[f64], total: f64) -> f64 {
    parts.iter().sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(5), None);
        // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        assert_eq!(tail_rank(1000), Some(990));
        // 200 samples: p95 (rank 190) is the highest with 10 beyond.
        assert_eq!(tail_rank(200), Some(190));
        // 2000 samples support p99.5.
        assert_eq!(tail_rank(2000), Some(1990));
        for n in 11..3000 {
            let rank = tail_rank(n).unwrap();
            // Ten beyond, and one rank higher would leave fewer.
            assert_eq!(n - rank, TAIL_MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn tail_reads_the_rank_the_rule_picks() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = Tail::of(&v);
        assert_eq!((t.n, t.p50, t.tail), (200, 100.0, 190.0));
        assert_eq!(t.percentile(), 95.0);
        assert_eq!(t.beyond(), 10);
        let small = Tail::of(&[3.0, 1.0, 2.0]);
        assert_eq!((small.rank, small.tail, small.p50), (3, 3.0, 2.0));
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn geomean_of_per_class_medians() {
        // Class 0 median 2, class 1 median 8: geometric mean 4. The pooled
        // median would be 2 or 8 depending on one sample.
        let s = [(0, 1.0), (0, 2.0), (0, 3.0), (1, 8.0), (1, 7.0), (1, 9.0)];
        assert!((geomean_of_medians(&s) - 4.0).abs() < 1e-12);
        assert!((geomean_of_medians(&[(0, 5.0)]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_arithmetic() {
        assert_eq!(coverage(&[1.0, 2.0, 1.0], 4.0), 1.0);
        assert_eq!(coverage(&[1.0, 1.0], 4.0), 0.5);
        // Parts that miss time leave coverage below 1; parts timed with
        // overlap push it above.
        assert_eq!(coverage(&[0.5, 1.5, 1.0], 5.0), 0.6);
        assert_eq!(coverage(&[3.0, 3.0], 5.0), 1.2);
    }
}
