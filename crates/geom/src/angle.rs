//! Angle wrapping, angular differences and circular statistics.
//!
//! Phase values reported by an RFID reader live on the circle: the reader
//! folds everything into `[0, 2π)` and COTS readers additionally inject
//! spurious π jumps. Intercepts recovered by the disentangler are likewise
//! only observable modulo 2π, and dipole orientations modulo π. Every
//! comparison of such quantities must therefore be *angular*, not linear;
//! this module centralizes those operations.

use std::f64::consts::{PI, TAU};

/// Wraps an angle into `[0, 2π)`.
///
/// The definition is `θ.rem_euclid(τ)`, with a result of exactly `τ`
/// (a tiny negative `θ` whose `θ + τ` rounds up) mapped to `0`. Its `%` is
/// a libm `fmod` call, the most expensive step of a wrap, so for
/// `|θ| < 2τ` — every phase, intercept and residual the pipeline wraps —
/// the remainder is replayed without it, **bit for bit**:
///
/// * `θ ∈ (−τ, τ)`: `fmod(θ, τ) = θ` exactly (fmod is exact and keeps the
///   sign). `rem_euclid` returns `θ` when it is not negative (`−0.0`
///   included, which stays `−0.0`) and otherwise the *floating* add
///   `θ + τ` — the expression the fast path evaluates, so even when that
///   add rounds (tiny `|θ|` → exactly `τ`) both round the same way.
/// * `θ ∈ [τ, 2τ)`: `fmod` returns `θ − τ`, which the fast path computes
///   exactly: `τ ≤ θ ≤ 2τ`, so the subtraction is exact by Sterbenz's
///   lemma, and the result is in `[0, τ)`.
/// * `θ ∈ (−2τ, −τ)`: `fmod` returns `θ + τ`, exact by the same lemma and
///   negative, and `rem_euclid` then adds `τ` in floating point; the fast
///   path shifts by the same exact `τ` first and then makes that add.
///
/// `θ = −τ` takes the `rem_euclid` path: `fmod` gives `−0.0` there, which
/// `rem_euclid` returns, where the shift would give `+0.0`. So does
/// everything else — `|θ| ≥ 2τ`, ±∞ and NaN.
///
/// ```
/// use rfp_geom::angle::wrap_tau;
/// use std::f64::consts::{PI, TAU};
/// assert!((wrap_tau(-PI) - PI).abs() < 1e-12);
/// assert!(wrap_tau(TAU + 0.25) - 0.25 < 1e-12);
/// ```
#[inline]
pub fn wrap_tau(theta: f64) -> f64 {
    let w = if theta > -TAU && theta < TAU {
        if theta < 0.0 {
            theta + TAU
        } else {
            theta
        }
    } else if (TAU..2.0 * TAU).contains(&theta) {
        theta - TAU
    } else if theta < -TAU && theta > -2.0 * TAU {
        (theta + TAU) + TAU
    } else {
        theta.rem_euclid(TAU)
    };
    // rem_euclid can return TAU itself when theta is a tiny negative number.
    if w >= TAU {
        w - TAU
    } else {
        w
    }
}

/// Wraps an angle into `(-π, π]`.
///
/// ```
/// use rfp_geom::angle::wrap_pi;
/// use std::f64::consts::PI;
/// assert!((wrap_pi(3.0 * PI) - PI).abs() < 1e-12);
/// assert!((wrap_pi(-0.1) + 0.1).abs() < 1e-15);
/// ```
#[inline]
pub fn wrap_pi(theta: f64) -> f64 {
    let w = wrap_tau(theta);
    if w > PI {
        w - TAU
    } else {
        w
    }
}

/// Signed angular difference `a - b`, wrapped into `(-π, π]`.
///
/// This is the correct residual for quantities observable modulo 2π (e.g.
/// the line intercepts of the multi-frequency phase model).
#[inline]
pub fn difference(a: f64, b: f64) -> f64 {
    wrap_pi(a - b)
}

/// Absolute angular distance between `a` and `b` on the circle, in `[0, π]`.
#[inline]
pub fn distance(a: f64, b: f64) -> f64 {
    difference(a, b).abs()
}

/// Signed difference between two *dipole* orientations, wrapped into
/// `(-π/2, π/2]`.
///
/// A linear dipole is symmetric under a 180° rotation, so orientations `α`
/// and `α + π` are physically identical. The paper evaluates orientations in
/// 0°–150° for exactly this reason.
///
/// ```
/// use rfp_geom::angle::dipole_difference;
/// let d = dipole_difference(0.1, 0.1 + std::f64::consts::PI);
/// assert!(d.abs() < 1e-12);
/// ```
#[inline]
pub fn dipole_difference(a: f64, b: f64) -> f64 {
    let mut d = (a - b).rem_euclid(PI);
    if d > PI / 2.0 {
        d -= PI;
    }
    d
}

/// Absolute dipole-orientation distance, in `[0, π/2]`.
#[inline]
pub fn dipole_distance(a: f64, b: f64) -> f64 {
    dipole_difference(a, b).abs()
}

/// Circular mean of a set of angles.
///
/// Returns `None` for an empty input or when the resultant vector is
/// numerically zero (e.g. two opposite angles), in which case the mean is
/// undefined.
///
/// ```
/// use rfp_geom::angle::circular_mean;
/// let m = circular_mean([-0.1f64, 0.1]).unwrap();
/// assert!(m.abs() < 1e-12);
/// // Angles straddling the wrap point average correctly:
/// let m = circular_mean([6.2f64, 0.08]).unwrap();
/// assert!(m.abs() < 0.1);
/// ```
pub fn circular_mean<I>(angles: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
{
    let (mut s, mut c, mut n) = (0.0f64, 0.0f64, 0usize);
    for a in angles {
        s += a.sin();
        c += a.cos();
        n += 1;
    }
    if n == 0 {
        return None;
    }
    let r = (s * s + c * c).sqrt() / n as f64;
    if r < 1e-12 {
        None
    } else {
        Some(s.atan2(c))
    }
}

/// Circular standard deviation, `sqrt(-2 ln R)` where `R` is the resultant
/// length. Returns `None` for an empty input.
///
/// Small for tightly clustered angles, grows without bound as the angles
/// spread around the circle.
pub fn circular_std<I>(angles: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
{
    let (mut s, mut c, mut n) = (0.0f64, 0.0f64, 0usize);
    for a in angles {
        s += a.sin();
        c += a.cos();
        n += 1;
    }
    if n == 0 {
        return None;
    }
    let r = ((s * s + c * c).sqrt() / n as f64).min(1.0);
    Some((-2.0 * r.max(1e-300).ln()).sqrt())
}

/// Unwraps a sequence of wrapped phase samples in place, making consecutive
/// differences lie in `(-π, π]`.
///
/// This is the classic 1-D phase unwrapping used after sorting samples by
/// frequency: channel spacing is 500 kHz so the true phase increment between
/// adjacent channels is far below π for any realistic antenna–tag distance.
/// It runs [`Unwrapper`] over the samples.
///
/// ```
/// use rfp_geom::angle::unwrap_in_place;
/// let mut v = vec![6.1, 0.2, 0.6]; // wrapped around 2π
/// unwrap_in_place(&mut v);
/// assert!(v.windows(2).all(|w| (w[1] - w[0]).abs() <= std::f64::consts::PI));
/// assert!((v[1] - (6.1 + 0.2 + 0.4)).abs() < 1e-9 || v[1] > 6.1); // continued past 2π
/// ```
pub fn unwrap_in_place(phases: &mut [f64]) {
    let mut unwrapper = Unwrapper::default();
    for phase in phases {
        *phase = unwrapper.push(*phase);
    }
}

/// Streaming phase unwrapping: feeds wrapped samples one at a time and
/// returns each unwrapped, bit for bit what [`unwrap_in_place`] writes at
/// the same position of the same sequence, without a buffer.
///
/// The first sample passes through; each later one is shifted by the
/// previous sample's offset and then by whole turns until its difference
/// to the previous unwrapped sample lies in `(-π, π]`.
///
/// ```
/// use rfp_geom::angle::Unwrapper;
/// let mut u = Unwrapper::default();
/// let out: Vec<f64> = [6.1, 0.2, 0.6].into_iter().map(|p| u.push(p)).collect();
/// assert!(out.windows(2).all(|w| (w[1] - w[0]).abs() <= std::f64::consts::PI));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Unwrapper {
    /// The previous unwrapped sample and the offset it was shifted by;
    /// `None` before the first sample.
    last: Option<(f64, f64)>,
}

impl Unwrapper {
    /// Unwraps the next sample of the sequence.
    pub fn push(&mut self, phase: f64) -> f64 {
        let Some((prev, offset)) = self.last else {
            self.last = Some((phase, 0.0));
            return phase;
        };
        let mut corrected = phase + offset;
        let d = corrected - prev;
        let jumps = (d / TAU).round();
        corrected -= jumps * TAU;
        // After removing whole turns the difference is within (-π, π].
        let d = corrected - prev;
        if d > PI {
            corrected -= TAU;
        } else if d <= -PI {
            corrected += TAU;
        }
        self.last = Some((corrected, corrected - phase));
        corrected
    }
}

/// Returns an unwrapped copy of `phases` (see [`unwrap_in_place`]).
pub fn unwrapped(phases: &[f64]) -> Vec<f64> {
    let mut v = phases.to_vec();
    unwrap_in_place(&mut v);
    v
}

/// Generalized unwrapping with an arbitrary `period`: adjusts each sample by
/// multiples of `period` so consecutive differences lie in
/// `(-period/2, period/2]`.
///
/// Used with `period = π` to build a continuous phase curve out of values
/// that are only known modulo π (the COTS-reader π-jump ambiguity).
///
/// # Panics
///
/// Panics if `period` is not positive.
pub fn unwrap_in_place_period(phases: &mut [f64], period: f64) {
    assert!(period > 0.0, "period must be positive");
    let half = period / 2.0;
    for i in 1..phases.len() {
        let prev = phases[i - 1];
        let mut v = phases[i];
        let jumps = ((v - prev) / period).round();
        v -= jumps * period;
        let d = v - prev;
        if d > half {
            v -= period;
        } else if d <= -half {
            v += period;
        }
        phases[i] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_tau_range() {
        for theta in [-10.0, -TAU, -PI, -0.1, 0.0, 0.1, PI, TAU, 10.0, 1e6] {
            let w = wrap_tau(theta);
            assert!((0.0..TAU).contains(&w), "theta={theta} w={w}");
            // Same point on the circle.
            assert!(((w - theta) / TAU - ((w - theta) / TAU).round()).abs() < 1e-9);
        }
    }

    /// `wrap_tau` as defined, on `rem_euclid` alone.
    fn wrap_tau_reference(theta: f64) -> f64 {
        let w = theta.rem_euclid(TAU);
        if w >= TAU {
            w - TAU
        } else {
            w
        }
    }

    fn wrap_pi_reference(theta: f64) -> f64 {
        let w = wrap_tau_reference(theta);
        if w > PI {
            w - TAU
        } else {
            w
        }
    }

    /// `x` moved by `k` ulps along the bit patterns of its sign.
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    /// The fast paths of `wrap_tau`, `wrap_pi` and `distance` return the
    /// bits of the `rem_euclid` definition: at ±0.0, subnormals, 64 ulps
    /// either side of ±π, ±3π, ±τ and ±2τ (the edges of every fast
    /// range), far out, at NaN and ±∞, and at random angles in ±20π.
    #[test]
    fn wraps_match_the_rem_euclid_reference_bit_for_bit() {
        let mut inputs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 7.0,
            1e300,
            -1e300,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for edge in [PI, 3.0 * PI, TAU, 2.0 * TAU] {
            for x in [edge, -edge] {
                inputs.extend((-64..=64).map(|k| ulps(x, k)));
            }
        }
        // SplitMix64, for seeded angles without a dependency.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut unit = || (next() >> 11) as f64 / (1u64 << 53) as f64;
        inputs.extend((0..100_000).map(|_| 20.0 * PI * (2.0 * unit() - 1.0)));
        let others = [0.0, -0.0, 1.3, -2.9, 7.5, PI, -TAU];
        for &x in &inputs {
            assert_eq!(wrap_tau(x).to_bits(), wrap_tau_reference(x).to_bits(), "wrap_tau({x:e})");
            assert_eq!(wrap_pi(x).to_bits(), wrap_pi_reference(x).to_bits(), "wrap_pi({x:e})");
            for b in others {
                let reference = wrap_pi_reference(x - b).abs();
                assert_eq!(distance(x, b).to_bits(), reference.to_bits(), "distance({x:e}, {b})");
            }
        }
    }

    #[test]
    fn wrap_pi_range() {
        for theta in [-10.0, -TAU, -PI, -0.1, 0.0, 0.1, PI, TAU, 10.0] {
            let w = wrap_pi(theta);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12, "theta={theta} w={w}");
        }
        assert!((wrap_pi(PI) - PI).abs() < 1e-12, "π maps to +π, not -π");
    }

    #[test]
    fn difference_is_signed_and_wrapped() {
        assert!((difference(0.1, TAU - 0.1) - 0.2).abs() < 1e-12);
        assert!((difference(TAU - 0.1, 0.1) + 0.2).abs() < 1e-12);
        assert_eq!(difference(1.0, 1.0), 0.0);
    }

    #[test]
    fn distance_symmetric() {
        let (a, b) = (0.3, 5.9);
        assert!((distance(a, b) - distance(b, a)).abs() < 1e-15);
        assert!(distance(a, b) <= PI);
    }

    #[test]
    fn dipole_difference_mod_pi() {
        assert!(dipole_difference(0.2, 0.2 + PI).abs() < 1e-12);
        assert!(dipole_difference(0.2, 0.2 - PI).abs() < 1e-12);
        assert!((dipole_difference(0.3, 0.1) - 0.2).abs() < 1e-12);
        // Max distance is π/2.
        assert!((dipole_distance(0.0, PI / 2.0) - PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn circular_mean_basic() {
        assert_eq!(circular_mean(std::iter::empty()), None);
        let m = circular_mean([0.1, 0.2, 0.3]).unwrap();
        assert!((m - 0.2).abs() < 1e-12);
        // Opposite angles: undefined.
        assert_eq!(circular_mean([0.0, PI]), None);
    }

    #[test]
    fn circular_mean_wraps() {
        let m = circular_mean([TAU - 0.2, 0.2]).unwrap();
        assert!(m.abs() < 1e-12);
    }

    #[test]
    fn circular_std_behaviour() {
        assert_eq!(circular_std(std::iter::empty()), None);
        let tight = circular_std([1.0, 1.01, 0.99]).unwrap();
        let loose = circular_std([0.0, 1.5, 3.0, 4.5]).unwrap();
        assert!(tight < 0.05);
        assert!(loose > tight);
    }

    #[test]
    fn unwrap_recovers_line() {
        // A steep linear phase, wrapped; unwrapping must recover it up to a
        // constant 2π multiple.
        let true_phase: Vec<f64> = (0..50).map(|i| 0.4 * i as f64 + 1.0).collect();
        let wrapped: Vec<f64> = true_phase.iter().map(|&p| wrap_tau(p)).collect();
        let un = unwrapped(&wrapped);
        let offset = un[0] - true_phase[0];
        assert!((offset / TAU - (offset / TAU).round()).abs() < 1e-9);
        for (u, t) in un.iter().zip(&true_phase) {
            assert!((u - t - offset).abs() < 1e-9);
        }
    }

    #[test]
    fn unwrap_handles_negative_slope() {
        let true_phase: Vec<f64> = (0..30).map(|i| -0.3 * i as f64).collect();
        let wrapped: Vec<f64> = true_phase.iter().map(|&p| wrap_tau(p)).collect();
        let un = unwrapped(&wrapped);
        for w in un.windows(2) {
            assert!((w[1] - w[0] + 0.3).abs() < 1e-9);
        }
    }

    /// The slice unwrap as it was written before [`Unwrapper`]: one
    /// running offset over the slice.
    fn unwrap_reference(phases: &mut [f64]) {
        let mut offset = 0.0f64;
        for i in 1..phases.len() {
            let raw = phases[i] + offset;
            let prev = phases[i - 1];
            let mut corrected = raw;
            let d = corrected - prev;
            let jumps = (d / TAU).round();
            corrected -= jumps * TAU;
            let d = corrected - prev;
            if d > PI {
                corrected -= TAU;
            } else if d <= -PI {
                corrected += TAU;
            }
            offset = corrected - phases[i];
            phases[i] = corrected;
        }
    }

    /// The streaming unwrap reproduces the slice loop bit for bit: wrapped
    /// lines of every steepness (so each shift and half-turn branch runs),
    /// samples many turns off, exact ±π steps, signed zeros and NaN.
    #[test]
    fn unwrapper_matches_the_slice_loop_bit_for_bit() {
        let mut sequences: Vec<Vec<f64>> = (0..64)
            .map(|k| {
                let slope = -3.1 + 0.1 * k as f64;
                (0..50).map(|i| wrap_tau(slope * i as f64 + 0.3 * k as f64)).collect()
            })
            .collect();
        sequences.push(vec![0.0, 40.0 * TAU + 0.1, -17.0 * TAU, 3.0, -3.0, 1e9, -1e-300]);
        sequences.push(vec![0.0, PI, 0.0, -PI, 2.0 * PI, 0.0]);
        sequences.push(vec![-0.0, -0.0, 0.0, -0.0, TAU, -TAU]);
        sequences.push(vec![1.0, f64::NAN, 2.0, 3.0]);
        sequences.push(vec![f64::NAN, 1.0, 2.0]);
        for seq in sequences {
            let mut expected = seq.clone();
            unwrap_reference(&mut expected);
            let mut u = Unwrapper::default();
            let streamed: Vec<u64> = seq.iter().map(|&p| u.push(p).to_bits()).collect();
            let mut in_place = seq.clone();
            unwrap_in_place(&mut in_place);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(streamed, bits(&expected), "{seq:?}");
            assert_eq!(bits(&in_place), bits(&expected), "{seq:?}");
        }
    }

    #[test]
    fn unwrap_empty_and_single() {
        unwrap_in_place(&mut []);
        let mut one = [1.5];
        unwrap_in_place(&mut one);
        assert_eq!(one, [1.5]);
    }
}
