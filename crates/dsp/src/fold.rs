//! Certified π-vote decisions: one phasor sign test per read.
//!
//! The front end's π majority vote decides, for each read of phase `p`
//! on a channel with axis `a` and unwrapped axis `U`, whether the read
//! backs the unwrapped axis: iff `angle::distance(p, U) <= FRAC_PI_2`.
//! It goes through the read's **fold**, whether it lies on the far side
//! of its own axis: iff `angle::distance(p, a) > FRAC_PI_2`.
//!
//! For a read on the reader's phase grid both come from one sign test.
//! The fold-table entry `[sin p, cos p]` is one load, and the axis's
//! unit vector `[sin a, cos a]` comes from the pass-1 double-angle
//! resultant by the half-angle formula (square roots and a division, no
//! libm), so `dot = sin p·sin a + cos p·cos a ≈ cos(p − a)` and the read
//! folds iff `dot < 0`. The unwrap moves each axis by a whole number
//! `j = round((U − a)/π)` of periods, so `U` and `a` share their fold
//! boundary and the vote is the fold decision flipped when `j` is odd.
//!
//! # The rounding bound
//!
//! With `a` the f64 axis `atan2(S, C)/2` of the resultant `(S, C)`:
//!
//! * the unit vector's direction is within `5e-16` of the exact half-angle
//!   of `(S, C)` (each of `√(S² + C²)`, the cancellation-free half-angle
//!   sum, the norm and the division rounds once) and its length within
//!   `7e-16` of 1; glibc's `atan2` puts `a` within `4.4e-16` of that
//!   half-angle; the table's sine and cosine are libm, within an ulp;
//!   the two products and the sum round three times. So
//!   `|dot − cos(p − a)| ≤ 2.1e-15`;
//! * `angle::distance(p, a)` on `p ∈ [0, τ)` and `a ∈ [−π/2, π/2]`
//!   rounds the difference once, shifts it by at most two `TAU`s (each
//!   within `2.5e-16` of 2π, the add rounding once) and compares against
//!   `FRAC_PI_2`: within `1.9e-15` of the true distance.
//!
//! Near the boundary `|cos(p − a)|` is at most the true distance's gap
//! to π/2, so the two fold decisions agree whenever `|dot| > 4e-15`.
//!
//! For the vote, [`vote_parity`] certifies `j` only when
//! `|fl(U − a)| ≤ 64` and `|fl(U − a) − fl(j·PI)| ≤ 1e-12`, so the true
//! `ε = U − a − jπ` is below `1.02e-12` (the residue, two roundings of
//! values below 64 and `|j| ≤ 21` times `PI`'s error). An unwrap output
//! carries `|ε| < 3e-14` there (each of its three roundings is at most
//! half an ulp of 64), so every real window certifies. Then
//! `cos(p − U)` is within `|ε|` of `(−1)^j · cos(p − a)`, and
//! `angle::distance(p, U)` is within `1.2e-14` of the true distance
//! (`|p − U| < 72`: a rounding of `7.1e-15`, up to twelve `TAU` errors).
//! The parity vote agrees with the exact one whenever `|dot| > 1.04e-12`.
//!
//! [`MARGIN`], `1e-9`, sits about 960× above that bound. A read whose
//! `|dot|` falls inside it, and every read off the grid, takes the exact
//! path: [`exact_vote`], the distance to `U`. A channel whose parity does
//! not certify counts every vote exactly. So every vote, and every output
//! bit with it, is the one the exact distance gives.

use rfp_geom::angle;
use std::f64::consts::{FRAC_PI_2, PI};

/// `|dot|` at or below which a read takes the exact path: about 960×
/// the vote's rounding bound (module docs).
const MARGIN: f64 = 1e-9;

/// Largest `|U − a|` whose parity [`vote_parity`] certifies (ten turns).
const PARITY_SPAN: f64 = 64.0;

/// Largest residue `|(U − a) − j·PI|` [`vote_parity`] accepts.
const PARITY_SLACK: f64 = 1e-12;

/// One channel's fold axis and its unit vector.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FoldAxis {
    /// The axis, in `[−π/2, π/2]` (or the first read's phase when the
    /// resultant vanishes).
    pub(crate) axis: f64,
    /// `[sin a, cos a]`; `[0, 0]` sends every read to the exact path.
    pub(crate) unit: [f64; 2],
}

impl FoldAxis {
    /// The axis of a channel from its double-angle resultant `(sin, cos)`
    /// over `n ≥ 1` reads, with the batch per-slot expressions: half the
    /// resultant's angle, or the first read's phase when the mean
    /// resultant length is below `1e-12`. The unit vector follows the
    /// half-angle formula without cancellation: `∝ [sin, h + cos]` for
    /// `cos ≥ 0` and `∝ ±[h − cos, |sin|]` otherwise, `h = |(sin, cos)|`,
    /// with the sign of `sin`'s sign bit, so a `−0.0` sine gives the
    /// `−π/2` axis `atan2` gives. A vanishing resultant leaves the unit
    /// vector zero: its axis is not the resultant's.
    #[inline]
    pub(crate) fn new(sin: f64, cos: f64, n: usize, first_phase: f64) -> FoldAxis {
        let h = (sin * sin + cos * cos).sqrt();
        if h / (n as f64) < 1e-12 {
            return FoldAxis { axis: 2.0 * first_phase / 2.0, unit: [0.0; 2] };
        }
        let (y, x) = if cos >= 0.0 { (sin, h + cos) } else { ((h - cos).copysign(sin), sin.abs()) };
        let norm = (x * x + y * y).sqrt();
        FoldAxis { axis: sin.atan2(cos) / 2.0, unit: [y / norm, x / norm] }
    }

    /// The sign test's fold decision for a read with grid code `code`,
    /// reading `[sin p, cos p]` from the fold table `table`: `Some(shift)`
    /// when it is certified, `None` when the read is off the grid or inside
    /// the margin and must take the exact path.
    #[inline(always)]
    pub(crate) fn sign_test(&self, code: Option<u16>, table: &[[f64; 2]]) -> Option<bool> {
        let decided = code.and_then(|c| {
            let [sin, cos] = table[c as usize];
            let dot = sin * self.unit[0] + cos * self.unit[1];
            (dot.abs() > MARGIN).then_some(dot < 0.0)
        });
        #[cfg(test)]
        if decided.is_none() {
            tests::EXACT_READS.with(|n| n.set(n.get() + 1));
        }
        decided
    }
}

/// Whether the unwrap moved the axis `axis` to `unwrapped` by an odd
/// number of π periods, when that is certified (module docs); `None`
/// otherwise, and the channel's votes must be counted exactly.
#[inline]
pub(crate) fn vote_parity(axis: f64, unwrapped: f64) -> Option<bool> {
    let off = unwrapped - axis;
    let j = (off / PI).round();
    let resid = off - j * PI;
    if off.abs() <= PARITY_SPAN && resid.abs() <= PARITY_SLACK {
        Some((j as i64) % 2 != 0)
    } else {
        None
    }
}

/// The exact π vote: whether `phase` lies within π/2 of the unwrapped
/// axis.
#[inline]
pub(crate) fn exact_vote(phase: f64, unwrapped: f64) -> bool {
    angle::distance(phase, unwrapped) <= FRAC_PI_2
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::preprocess::{preprocess_reads_with, PreprocessConfig, RawRead};
    use crate::trig::{self, PHASE_CODES, PHASE_LSB_RAD};
    use crate::{FrontEndWorkspace, StreamingWindow};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use rfp_geom::Vec2;
    use std::cell::Cell;

    thread_local! {
        /// Reads the sign test sent to the exact path on this thread.
        pub(super) static EXACT_READS: Cell<usize> = const { Cell::new(0) };
    }

    /// Reads `f` sends to the exact path.
    fn exact_reads(f: impl FnOnce()) -> usize {
        EXACT_READS.with(|n| n.set(0));
        f();
        EXACT_READS.with(Cell::get)
    }

    /// The fold axis the front end derives from a resultant of length
    /// `len` along the doubled angle `2·a`.
    fn fold_along(a: f64, len: f64) -> FoldAxis {
        FoldAxis::new(len * (2.0 * a).sin(), len * (2.0 * a).cos(), 1, 0.0)
    }

    /// `x` moved by `k` ulps.
    fn nudged(x: f64, k: i32) -> f64 {
        (0..k.abs()).fold(x, |x, _| if k > 0 { x.next_up() } else { x.next_down() })
    }

    /// The unwrapped axis the period-π unwrap gives `fold`'s axis when
    /// the previous channel's unwrapped axis sits `j` periods (plus 0.3)
    /// away.
    fn unwrapped(fold: &FoldAxis, j: i32) -> f64 {
        let mut col = [fold.axis + j as f64 * PI + 0.3, angle::wrap_tau(fold.axis)];
        angle::unwrap_in_place_period(&mut col, PI);
        col[1]
    }

    /// Asserts that every code the sign test decides against `fold`
    /// decides as `angle::distance` does, and that the parity vote of
    /// each code in `vote_codes` is the exact vote against the unwrapped
    /// axes up to six turns away. Returns how many codes took the exact
    /// path.
    fn assert_exact(fold: &FoldAxis, vote_codes: &[usize], ctx: &str) -> usize {
        let table = trig::fold_table();
        let mut exact = 0;
        for c in 0..PHASE_CODES {
            let p = c as f64 * PHASE_LSB_RAD;
            match fold.sign_test(Some(c as u16), table) {
                Some(shift) => assert_eq!(
                    shift,
                    angle::distance(p, fold.axis) > FRAC_PI_2,
                    "{ctx}: code {c} against axis {:e}",
                    fold.axis
                ),
                None => exact += 1,
            }
        }
        for j in -12..=12 {
            let u = unwrapped(fold, j);
            let odd = vote_parity(fold.axis, u)
                .unwrap_or_else(|| panic!("{ctx}: parity of {u:e} against {:e}", fold.axis));
            for &c in vote_codes {
                let p = c as f64 * PHASE_LSB_RAD;
                if let Some(shift) = fold.sign_test(Some(c as u16), table) {
                    assert_eq!(shift == odd, exact_vote(p, u), "{ctx}: code {c}, unwrapped {u:e}");
                }
            }
        }
        exact
    }

    /// Pin: on axes a few ulps either side of every code's fold boundary,
    /// on the two axes of a ±0.0 double-angle sine with a negative cosine
    /// and on random axes, every code the sign test decides is decided as
    /// `angle::distance` decides it, and the parity vote is the exact
    /// vote up to six turns away.
    #[test]
    fn sign_test_and_parity_decide_as_the_exact_distances() {
        let all: Vec<usize> = (0..PHASE_CODES).collect();
        // The ±0.0 sines: atan2 gives ±π, so the axes are ±π/2.
        for (sin, a) in [(0.0, FRAC_PI_2), (-0.0, -FRAC_PI_2)] {
            let fold = FoldAxis::new(sin, -3.0, 3, 0.0);
            assert_eq!(fold.axis.to_bits(), a.to_bits());
            assert_eq!(fold.unit[0], a.signum(), "sin of the {a} axis");
            assert_exact(&fold, &all, &format!("sine {sin:?}"));
        }
        let mut rng = StdRng::seed_from_u64(23);
        for i in 0..64 {
            let fold = fold_along(rng.gen_range(-FRAC_PI_2..FRAC_PI_2), rng.gen_range(0.1..40.0));
            assert_exact(&fold, &all, &format!("random axis {i}"));
        }
        let mut exact = 0;
        for c in 0..PHASE_CODES {
            let p = c as f64 * PHASE_LSB_RAD;
            // The codes either side of code c's boundary, and c's antipode.
            let near: Vec<usize> = [0, 1, PHASE_CODES - 1, PHASE_CODES / 2]
                .iter()
                .map(|d| (c + d) % PHASE_CODES)
                .collect();
            for side in [FRAC_PI_2, -FRAC_PI_2] {
                let mut a = p + side;
                while a > FRAC_PI_2 {
                    a -= PI;
                }
                while a < -FRAC_PI_2 {
                    a += PI;
                }
                for k in -3..=3 {
                    let ctx = format!("code {c}, side {side}, {k} ulps");
                    exact += assert_exact(&fold_along(nudged(a, k), 1.0), &near, &ctx);
                }
            }
        }
        assert!(exact > PHASE_CODES, "the boundary sweep reaches the margin ({exact} reads)");
    }

    /// A grid phase of `code`, wrapped onto the grid.
    fn grid_read(channel: usize, code: usize, t: f64) -> RawRead {
        let code = (code % PHASE_CODES) as u16;
        RawRead {
            channel,
            frequency_hz: 902.75e6 + channel as f64 * 0.5e6,
            phase: code as f64 * PHASE_LSB_RAD,
            rssi_dbm: -55.0,
            timestamp_s: t,
            phase_code: Some(code),
        }
    }

    /// A window whose channel 0 holds the grid reads x, x, x, x + π/2
    /// (its last read on the channel's fold boundary), followed by
    /// ordinary channels with π jumps.
    fn boundary_window(x: usize) -> Vec<RawRead> {
        let mut reads: Vec<RawRead> = [x, x, x, x + PHASE_CODES / 4]
            .iter()
            .enumerate()
            .map(|(k, &c)| grid_read(0, c, 0.01 * k as f64))
            .collect();
        for ch in 1..8 {
            for k in 0..4 {
                let code = x + 40 * ch + k + (k % 2) * PHASE_CODES / 2;
                reads.push(grid_read(ch, code, 0.2 * ch as f64 + 0.01 * k as f64));
            }
        }
        reads
    }

    /// Every antenna window of a survey of `tags` static tags in `scene`,
    /// tag `k` placed by `motion(k)` and surveyed at seed `31 + k`.
    pub(crate) fn survey_windows(
        scene: &rfp_sim::Scene,
        tags: u64,
        motion: impl Fn(u64) -> rfp_sim::Motion,
    ) -> Vec<Vec<RawRead>> {
        tag_windows(scene, tags, |k| {
            rfp_sim::SimTag::with_seeded_diversity(k).with_motion(motion(k))
        })
    }

    /// Every antenna window of a survey of tags `tag(0..tags)` in `scene`,
    /// tag `k` surveyed at seed `31 + k`.
    pub(crate) fn tag_windows(
        scene: &rfp_sim::Scene,
        tags: u64,
        tag: impl Fn(u64) -> rfp_sim::SimTag,
    ) -> Vec<Vec<RawRead>> {
        let mut windows = Vec::new();
        for k in 0..tags {
            for reads in scene.survey(&tag(k), 31 + k).per_antenna {
                windows.push(
                    reads
                        .iter()
                        .map(|r| RawRead {
                            channel: r.channel,
                            frequency_hz: r.frequency_hz,
                            phase: r.phase,
                            rssi_dbm: r.rssi_dbm,
                            timestamp_s: r.timestamp_s,
                            phase_code: r.phase_code,
                        })
                        .collect(),
                );
            }
        }
        windows
    }

    /// Every antenna window of a `standard_2d` survey of `side`² static
    /// tags on a grid over the working region.
    pub(crate) fn standard_survey_windows(side: u64) -> Vec<Vec<RawRead>> {
        let scene = rfp_sim::Scene::standard_2d();
        let (lo, hi) = (scene.region().min(), scene.region().max());
        survey_windows(&scene, side * side, |k| {
            let (i, j) = ((k % side) as f64 + 0.5, (k / side) as f64 + 0.5);
            let position = Vec2::new(
                lo.x + (hi.x - lo.x) * i / side as f64,
                lo.y + (hi.y - lo.y) * j / side as f64,
            );
            rfp_sim::Motion::planar_static(position, 0.37 * k as f64)
        })
    }

    /// Reads the batch front end and a streaming window send to the exact
    /// path on `reads`: `(batch, streaming)`.
    fn exact_counts(reads: &[RawRead]) -> (usize, usize) {
        let (mut ws, mut out) = (FrontEndWorkspace::default(), Vec::new());
        let batch = exact_reads(|| {
            preprocess_reads_with(&mut ws, reads, &PreprocessConfig::default(), &mut out).unwrap()
        });
        let mut win = StreamingWindow::new();
        for r in reads {
            win.push(r);
        }
        let streaming = exact_reads(|| {
            win.extract_into(&mut ws, &mut out).unwrap();
        });
        (batch, streaming)
    }

    /// Pin: the sign test decides every read of the `standard_2d` survey
    /// windows, and the boundary window sends its boundary read to the
    /// exact path, in batch and in a streaming window alike.
    #[test]
    fn survey_reads_take_the_sign_test_and_boundary_reads_the_exact_path() {
        let windows = standard_survey_windows(4);
        assert_eq!(windows.len(), 48);
        for (i, reads) in windows.iter().enumerate() {
            assert!(reads.iter().all(|r| r.phase_code.is_some()), "window {i} is on the grid");
            assert_eq!(exact_counts(reads), (0, 0), "window {i}");
        }
        for x in [0, 1, 1023, 1024, 2047, 2048, 3071, 4095] {
            let (batch, streaming) = exact_counts(&boundary_window(x));
            assert!(batch >= 1 && streaming >= 1, "x = {x}: {batch} and {streaming} reads");
        }
    }
}
