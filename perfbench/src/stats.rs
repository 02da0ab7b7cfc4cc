//! Order statistics over raw per-request durations.
//!
//! Every latency the benchmark reports is computed here from durations taken
//! on the benchmark's own clock, never from the server's power-of-two
//! histogram buckets.

/// The percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 4] = [0.999, 0.99, 0.95, 0.90];

/// The samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The value at quantile `q` of `sorted` (nearest rank: the smallest sample
/// with at least `q·n` samples at or below it).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the two middle samples for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean of `values` (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest candidate percentile that has at least [`MIN_BEYOND`]
/// samples strictly beyond its rank among `n` samples, or `None` when even
/// the 90th does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= MIN_BEYOND
    })
}

/// A latency summary: median, the reportable tail, and the sample count.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// The median.
    pub p50: f64,
    /// `(percentile, value)` of the highest reportable tail, if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes raw samples (any order); `None` for no samples.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            count: sorted.len(),
            p50: median(&sorted),
            tail: tail_percentile(sorted.len()).map(|q| (q, quantile(&sorted, q))),
        })
    }

    /// A one-line rendering with the tail's label and the sample count.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((q, v)) => format!("{} = {v:.4} {unit}", percentile_label(q)),
            None => format!("no tail (fewer than {} samples beyond p90)", MIN_BEYOND),
        };
        format!(
            "p50 = {:.4} {unit}, {tail}, samples = {}",
            self.p50, self.count
        )
    }
}

/// `p95`, `p99`, `p99.9` for a percentile given as a fraction.
pub fn percentile_label(q: f64) -> String {
    let pct = format!("{:.1}", q * 100.0);
    format!("p{}", pct.trim_end_matches(".0"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(tail_percentile(199), Some(0.90));
        assert_eq!(tail_percentile(200), Some(0.95));
        assert_eq!(tail_percentile(999), Some(0.95));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
    }

    #[test]
    fn summary_reports_count_and_nearest_rank_tail() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.count, 200);
        assert_eq!(s.p50, 100.5);
        // p95 of 1..=200 by nearest rank is the 190th value; 10 lie beyond.
        assert_eq!(s.tail, Some((0.95, 190.0)));
        assert!(s.describe("ms").contains("p95 = 190.0000 ms"));
        assert!(s.describe("ms").contains("samples = 200"));
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn labels_and_medians() {
        assert_eq!(percentile_label(0.95), "p95");
        assert_eq!(percentile_label(0.999), "p99.9");
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }
}
