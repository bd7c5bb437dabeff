//! Order statistics for the benchmark's reported timings.
//!
//! A tail percentile is only meaningful when enough samples lie beyond
//! it: with 20 samples the "p99" is just the maximum. [`percentile`]
//! therefore refuses any percentile with fewer than [`MIN_BEYOND`]
//! samples above it, and every [`Percentile`] carries its sample count so
//! the report can print it next to the value.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile: the value plus the counts that justify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at that rank (nearest-rank method).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples lie beyond the rank (always `>= MIN_BEYOND`).
    pub beyond: usize,
}

/// The `p`-th percentile of `samples` by the nearest-rank method, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it (which
/// includes an empty input). Non-finite samples are a caller bug.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p < 100.0, "percentile rank {p} out of (0, 100)");
    assert!(samples.iter().all(|v| v.is_finite()), "non-finite sample");
    let n = samples.len();
    // Nearest rank: the smallest sample with at least p% of the data at
    // or below it.
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.checked_sub(rank.max(1))?;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank.max(1) - 1],
        samples: n,
        beyond,
    })
}

/// The median of `samples` (mean of the two middle values for an even
/// count), or `None` when empty. Used to fold repeated rounds of one run,
/// where the ten-beyond rule does not apply.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(percentile(&one_to(99), 90.0), None);
        let p = percentile(&one_to(100), 90.0).expect("100 samples suffice");
        assert_eq!(p.value, 90.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.samples, 100);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&one_to(999), 99.0), None);
        let p = percentile(&one_to(1000), 99.0).expect("1000 samples suffice");
        assert_eq!((p.value, p.beyond), (990.0, 10));
    }

    #[test]
    fn median_rank_needs_twenty_samples() {
        assert_eq!(percentile(&one_to(19), 50.0), None);
        let p = percentile(&one_to(20), 50.0).expect("20 samples suffice");
        assert_eq!((p.value, p.beyond), (10.0, 10));
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let mut shuffled = one_to(106);
        shuffled.reverse();
        shuffled.swap(3, 70);
        let p = percentile(&shuffled, 90.0).expect("106 samples");
        // ceil(0.9 * 106) = 96: the 96th smallest, ten beyond it.
        assert_eq!((p.value, p.beyond, p.samples), (96.0, 10, 106));
    }

    #[test]
    fn empty_input_has_no_percentile_or_median() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
    }
}
