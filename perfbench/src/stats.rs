//! Order statistics for the latency report.
//!
//! Percentiles use the nearest-rank definition on sorted samples: the
//! `p`-th percentile of `n` samples is the sample of rank `ceil(p·n)`
//! (1-based), and the samples *beyond* it are the `n - rank` larger ones.
//! A percentile is reportable only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure never rests on a handful of points.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p` (0 < p < 1) among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    // Work in integer per-mille so that e.g. 0.9·100 is exactly 90.
    let permille = (p * 1000.0).round() as usize;
    (permille * n).div_ceil(1000).max(1)
}

/// Number of samples beyond percentile `p` of `n` samples.
pub fn beyond(p: f64, n: usize) -> usize {
    n.saturating_sub(rank(p, n))
}

/// The `p`-th percentile of `samples` (any order), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || beyond(p, samples.len()) < MIN_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank(p, s.len()) - 1])
}

/// The highest of `candidates` (ascending percentiles) that is reportable
/// for `n` samples.
pub fn highest_reportable(candidates: &[f64], n: usize) -> Option<f64> {
    candidates.iter().rev().copied().find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    Some(if s.len() % 2 == 1 { s[m] } else { (s[m - 1] + s[m]) / 2.0 })
}

/// Σ over positions of the median, across `rows`, of the value at that
/// position: the total of a repeated script with each step taken at its
/// typical time. A row too short for a position leaves it out there.
pub fn position_median_sum(rows: &[&[f64]]) -> f64 {
    let width = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..width)
        .filter_map(|i| median(&rows.iter().filter_map(|r| r.get(i).copied()).collect::<Vec<_>>()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_medians_shed_one_slow_row() {
        let (a, b, c) = ([1.0, 10.0], [2.0, 12.0], [9.0, 50.0]);
        assert_eq!(position_median_sum(&[&a, &b, &c]), 2.0 + 12.0);
        assert_eq!(position_median_sum(&[&a, &[3.0]]), 2.0 + 10.0);
        assert_eq!(position_median_sum(&[]), 0.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(0.9, 100), 10);
        assert_eq!(beyond(0.9, 99), 9);
        assert_eq!(beyond(0.9, 101), 10);
        assert_eq!(beyond(0.5, 20), 10);
        assert_eq!(beyond(0.5, 19), 9);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s[..99], 0.9), None, "only 9 samples beyond");
        assert_eq!(percentile(&s[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s: Vec<f64> = (1..=200).map(f64::from).collect();
        s.reverse();
        assert_eq!(percentile(&s, 0.9), Some(180.0));
        assert_eq!(percentile(&s, 0.5), Some(100.0));
    }

    #[test]
    fn highest_reportable_percentile_follows_sample_count() {
        let c = [0.5, 0.9, 0.99];
        assert_eq!(highest_reportable(&c, 19), None);
        assert_eq!(highest_reportable(&c, 20), Some(0.5));
        assert_eq!(highest_reportable(&c, 99), Some(0.5));
        assert_eq!(highest_reportable(&c, 100), Some(0.9));
        assert_eq!(highest_reportable(&c, 999), Some(0.9));
        assert_eq!(highest_reportable(&c, 1000), Some(0.99));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
