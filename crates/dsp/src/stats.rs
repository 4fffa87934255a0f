//! Small statistics helpers.
//!
//! Used by the robust fitting routines (median/MAD), by the solver's
//! diagnostics and by the experiment harness (means, percentiles, empirical
//! CDFs for the paper's Figures 14–16).

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance. Returns `None` for an empty slice.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation. Returns `None` for an empty slice.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Median (average of the two central order statistics for even length).
/// Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// Median computed in place by order-statistic selection
/// (`select_nth_unstable`) — no allocation, O(n) expected time instead of
/// the O(n log n) sort in [`median`]. Returns the same value as [`median`]
/// (selection picks identical order statistics); the slice is left
/// partially reordered. Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics on `NaN` input, like [`median`].
pub fn median_in_place(xs: &mut [f64]) -> Option<f64> {
    band_median(xs, 0, xs.len())
}

/// The median of a multiset of `total` values known only through a value
/// band: `below` of its values lie strictly below the band and `members`
/// holds every value inside it, unordered. When the band covers the
/// median rank(s) this is the value [`median_in_place`] returns on the
/// whole multiset (selection picks the same order statistics, shifted by
/// `below`); otherwise — or for an empty multiset — `None`. A band that
/// holds the whole multiset (`below == 0`, `members.len() == total`)
/// always covers. `members` is left partially reordered.
///
/// # Panics
///
/// Panics on `NaN` among `members`.
pub(crate) fn band_median(members: &mut [f64], below: usize, total: usize) -> Option<f64> {
    if !band_covers(below, members.len(), total) {
        return None;
    }
    let r1 = total / 2;
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in median input");
    let (left, mid, _) = members.select_nth_unstable_by(r1 - below, cmp);
    let mid = *mid;
    Some(if total % 2 == 1 {
        mid
    } else {
        // The lower central order statistic is the maximum of the left
        // partition, which holds its rank `r1 − 1` because the band
        // covers it (`below ≤ r1 − 1` for an even count).
        let lower = left.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lower + mid) / 2.0
    })
}

/// Whether a value band with `below` of a multiset's `total` values
/// strictly below it and `inside` of them in it holds the median rank(s):
/// the middle one for an odd count, the two middle ones for an even count.
/// Never for an empty multiset.
pub(crate) fn band_covers(below: usize, inside: usize, total: usize) -> bool {
    total > 0 && below <= (total - 1) / 2 && total / 2 < below + inside
}

/// Median absolute deviation from the median (raw MAD, not scaled to σ).
/// Returns `None` for an empty slice.
pub fn mad(xs: &[f64]) -> Option<f64> {
    let m = median(xs)?;
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// MAD of `xs` computed without allocating, using `scratch` (cleared and
/// refilled; capacity reused). Identical value to [`mad`].
pub fn mad_with(xs: &[f64], scratch: &mut Vec<f64>) -> Option<f64> {
    scratch.clear();
    scratch.extend_from_slice(xs);
    let m = median_in_place(scratch)?;
    scratch.clear();
    scratch.extend(xs.iter().map(|x| (x - m).abs()));
    median_in_place(scratch)
}

/// Consistency factor that scales a Gaussian sample's MAD to its σ.
pub const MAD_TO_SIGMA: f64 = 1.4826;

/// Linear-interpolated percentile, `p ∈ [0, 100]`.
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(v[lo] * (1.0 - frac) + v[hi] * frac)
}

/// Root mean square. Returns `None` for an empty slice.
pub fn rms(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some((xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt())
    }
}

/// Empirical CDF evaluated at `points.len()` equally spaced fractions: for
/// each sorted sample returns `(value, fraction ≤ value)`. Used to print the
/// paper's CDF figures.
pub fn empirical_cdf(xs: &[f64]) -> Vec<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
    let n = v.len();
    v.into_iter()
        .enumerate()
        .map(|(i, x)| (x, (i + 1) as f64 / n as f64))
        .collect()
}

/// Fraction of samples ≤ `threshold`.
pub fn fraction_below(xs: &[f64], threshold: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&x| x <= threshold).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), Some(2.5));
        assert_eq!(variance(&xs), Some(1.25));
        assert!((std_dev(&xs).unwrap() - 1.25f64.sqrt()).abs() < 1e-15);
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_in_place_matches_sorting_median() {
        let cases: [&[f64]; 6] = [
            &[],
            &[7.5],
            &[3.0, 1.0],
            &[3.0, 1.0, 2.0],
            &[4.0, 1.0, 2.0, 3.0],
            &[0.5, -1.0, 2.25, 2.25, -3.0, 0.5, 9.0],
        ];
        for xs in cases {
            let mut buf = xs.to_vec();
            assert_eq!(median_in_place(&mut buf), median(xs), "input {xs:?}");
        }
        // Pseudo-random larger case.
        let xs: Vec<f64> = (0..101).map(|i| ((i * 7919) % 251) as f64 - 125.0).collect();
        let mut buf = xs.clone();
        assert_eq!(median_in_place(&mut buf), median(&xs));
        let xs: Vec<f64> = (0..100).map(|i| ((i * 104729) % 509) as f64).collect();
        let mut buf = xs.clone();
        assert_eq!(median_in_place(&mut buf), median(&xs));
    }

    #[test]
    fn mad_with_matches_mad() {
        let xs = [1.0, 1.1, 0.9, 1.05, 100.0, -2.0];
        let mut scratch = Vec::new();
        assert_eq!(mad_with(&xs, &mut scratch), mad(&xs));
        assert_eq!(mad_with(&[], &mut scratch), None);
    }

    #[test]
    fn mad_robust_to_outlier() {
        let clean = [1.0, 1.1, 0.9, 1.05, 0.95];
        let dirty = [1.0, 1.1, 0.9, 1.05, 100.0];
        let m_clean = mad(&clean).unwrap();
        let m_dirty = mad(&dirty).unwrap();
        assert!(m_dirty < 0.5, "MAD must shrug off one outlier, got {m_dirty}");
        assert!(m_clean <= m_dirty + 0.2);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(0.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.0));
        assert_eq!(percentile(&xs, 25.0), Some(1.0));
        assert_eq!(percentile(&xs, 12.5), Some(0.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    #[should_panic]
    fn percentile_out_of_range_panics() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn rms_known_value() {
        assert!((rms(&[3.0, 4.0]).unwrap() - (12.5f64).sqrt()).abs() < 1e-15);
        assert_eq!(rms(&[]), None);
    }

    #[test]
    fn cdf_monotone_and_complete() {
        let xs = [3.0, 1.0, 2.0];
        let cdf = empirical_cdf(&xs);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0], (1.0, 1.0 / 3.0));
        assert_eq!(cdf[2], (3.0, 1.0));
        assert!(cdf.windows(2).all(|w| w[1].0 >= w[0].0 && w[1].1 >= w[0].1));
    }

    #[test]
    fn fraction_below_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fraction_below(&xs, 2.5), 0.5);
        assert_eq!(fraction_below(&xs, 0.0), 0.0);
        assert_eq!(fraction_below(&[], 1.0), 0.0);
    }
}
