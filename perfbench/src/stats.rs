//! Sample arithmetic: exact order statistics and the tail rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_SUPPORT`] samples beyond it, together with
//! the sample count, so a p99 is never read off a few hundred samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// Exact nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest candidate percentile with at least [`TAIL_SUPPORT`]
/// samples strictly above its rank, or `None` when even the median lacks
/// them.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().copied().find(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        n >= rank + TAIL_SUPPORT
    })
}

/// Median and tail of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// p99 (reported as 0 when the series cannot support it).
    pub p99: f64,
    /// Highest supported tail percentile (`0.99` = p99), 0 when none.
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = supported_tail(sorted.len()).unwrap_or(0.0);
        let supports_p99 = supported_tail(sorted.len()).is_some_and(|q| q >= 0.99);
        Summary {
            count: sorted.len(),
            p50: quantile_sorted(&sorted, 0.5),
            p99: if supports_p99 {
                quantile_sorted(&sorted, 0.99)
            } else {
                0.0
            },
            tail_q,
            tail: if tail_q > 0.0 {
                quantile_sorted(&sorted, tail_q)
            } else {
                0.0
            },
            max: sorted.last().copied().unwrap_or(0.0),
        }
    }
}

/// Median of a series (any order); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Mean of a series; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Rate over a whole run from per-pass rates of equal work: total work
/// over total time, the harmonic mean of the rates; 0 when empty.
///
/// The host alternates between a fast and a slow phase that each last
/// seconds. A median over passes jumps to whichever phase held most of
/// the run; the pooled rate moves only by the share of time spent in
/// each.
pub fn pooled_rate(rates: &[f64]) -> f64 {
    if rates.is_empty() {
        return 0.0;
    }
    rates.len() as f64 / rates.iter().map(|r| 1.0 / r).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond it.
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.9));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(99), Some(0.5));
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn summary_reports_tail_with_its_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!((s.tail_q, s.tail), (0.99, 990.0));
        assert_eq!(s.max, 1000.0);

        let few: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&few);
        assert_eq!((s.count, s.tail_q, s.tail), (200, 0.9, 180.0));
        assert_eq!(s.p99, 0.0, "200 samples cannot support a p99");
    }

    #[test]
    fn median_of_even_and_odd_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pooled_rate_is_total_work_over_total_time() {
        // 100 records at 100/s (1 s) and 100 at 50/s (2 s): 200 in 3 s.
        assert!((pooled_rate(&[100.0, 50.0]) - 200.0 / 3.0).abs() < 1e-9);
        // Three fast passes and two slow ones read between the phases,
        // where their median would read the fast phase alone.
        let rates = [10.0, 10.0, 10.0, 5.0, 5.0];
        assert_eq!(median(&rates), 10.0);
        assert!((pooled_rate(&rates) - 5.0 / 0.7).abs() < 1e-9);
        assert_eq!(pooled_rate(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
