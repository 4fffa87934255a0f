//! Trigonometry backends for the pre-processing hot path.
//!
//! Profiling after the SoA rework (PR 5) showed the front end's
//! `preprocess` stage is *trig-bound*: the π-jump correction evaluates a
//! libm `sin`/`cos` pair per raw read in the double-angle pass and again
//! in the fold pass, and those calls dominate the stage. This module
//! breaks that bound without giving up a single bit of accuracy on real
//! reader data, by exploiting the structure of the input:
//!
//! * **Quantized-code tables** ([`TrigProvider::Table`]) — an EPC Gen2 /
//!   LLRP reader reports phase on a 12-bit grid: every reported phase is
//!   exactly `c · 2π/4096` for a code `c ∈ 0..4096` (the LSB is
//!   `2π · 2⁻¹²`, whose mantissa is exact, so the grid points are exact
//!   f64 products). When a [`RawRead`](crate::preprocess::RawRead)
//!   carries its code, every trig value the front end needs —
//!   `sin/cos(p)`, `sin/cos(2·p)` for the double-angle trick and
//!   `sin/cos(p + π)` for the fold pass — is one of `3 × 4096`
//!   precomputed values. The tables are filled by calling libm **on the
//!   exact expressions the scalar code would evaluate**, so the table
//!   path is bit-identical to the libm path *by construction*; the
//!   `table_matches_libm_for_every_code` test proves it exhaustively for
//!   all 4096 codes rather than by sampling. Reads without a code fall
//!   back to libm, so `Table` is always bit-identical to [`Libm`] and is
//!   therefore the default.
//! * **Bounded-error polynomial** ([`TrigProvider::Polynomial`]) — for
//!   continuous (non-quantized) phases, e.g. the ideal simulator, a
//!   Cody–Waite range reduction plus degree-13/14 Taylor kernels give a
//!   fused `sin`+`cos` with max absolute error ≤ [`POLY_MAX_ABS_ERROR`]
//!   over the front end's whole input domain. Unlike libm it is
//!   straight-line branch-light code, so the 4-wide unrolled lane fills
//!   in `preprocess` autovectorize.
//! * **libm** ([`TrigProvider::Libm`]) — the previous behaviour, kept as
//!   the oracle the other two backends are tested against and as the
//!   fallback for codeless reads.
//! * **Phasor recurrence** ([`TrigProvider::Recurrence`]) — for
//!   continuous phases arriving at a fixed sample cadence (the streaming
//!   front end): successive angles within one dwell differ by a small
//!   step, so `sin/cos` advance by one complex rotation
//!   (`z ← z · e^{iδ}`) instead of a fresh table/polynomial evaluation,
//!   with periodic renormalization and re-anchoring bounding the
//!   accumulated error at [`RECURRENCE_MAX_ABS_ERROR`]. See
//!   [`PhasorRecurrence`].
//!
//! [`Libm`]: TrigProvider::Libm

use std::f64::consts::{PI, TAU};
use std::sync::OnceLock;

/// Number of points on the reader's phase grid (12-bit LLRP `PhaseAngle`).
pub const PHASE_CODES: usize = 4096;

/// Phase quantization step of the reader grid, radians.
///
/// Mirrors `rfp_phys::constants::IMPINJ_PHASE_LSB_RAD` (rfp-dsp does not
/// depend on rfp-phys; a cross-crate test in rfp-sim pins the two
/// constants bit-equal). `TAU / 4096` divides by a power of two, so the
/// LSB — and every grid point `c · LSB` — is computed exactly.
pub const PHASE_LSB_RAD: f64 = TAU / PHASE_CODES as f64;

/// Documented maximum absolute error of [`poly_sin_cos`] against libm
/// over the front end's input domain (|x| ≤ 16, which covers doubled
/// angles in `[0, 4π)` and π-shifted folds in `[0, 3π)` with margin).
///
/// The actual error is ~2e-14 (Taylor truncation ≈ (π/4)¹⁵/15! for sin,
/// ≈ (π/4)¹⁶/16! for cos, plus ~6e-15 of range-reduction rounding); the
/// bound is deliberately loose and pinned by the `trig_provider`
/// property suite.
pub const POLY_MAX_ABS_ERROR: f64 = 1e-12;

/// Which trigonometry backend the pre-processing front end uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrigProvider {
    /// Quantized-code tables for reads that carry a phase code, libm for
    /// the rest. Bit-identical to [`TrigProvider::Libm`] on every input,
    /// and the fastest backend on real (quantized) reader data — hence
    /// the default.
    #[default]
    Table,
    /// Bounded-error polynomial `sin`/`cos` (max abs error
    /// ≤ [`POLY_MAX_ABS_ERROR`]) for continuous synthetic phases.
    Polynomial,
    /// Plain libm `sin`/`cos` — the oracle and historical behaviour.
    Libm,
    /// Phasor recurrence for continuous phases at a fixed sample cadence
    /// (streaming): one complex rotation per read instead of a fresh
    /// evaluation, max abs error ≤ [`RECURRENCE_MAX_ABS_ERROR`].
    Recurrence,
}

/// Index of a backend's hit counter in the per-call
/// `[table, poly, libm, recurrence]` tallies kept by the workspace (and
/// exported as `frontend.trig_*` observability counters).
pub(crate) mod hit {
    pub const TABLE: usize = 0;
    pub const POLY: usize = 1;
    pub const LIBM: usize = 2;
    pub const RECURRENCE: usize = 3;
}

/// The three table families, one entry per phase code `c`:
/// `sin/cos(p)`, `sin/cos(2·p)` and `sin/cos(p + π)` for `p = c · LSB`.
struct PhaseTables {
    sin: [f64; PHASE_CODES],
    cos: [f64; PHASE_CODES],
    dbl_sin: [f64; PHASE_CODES],
    dbl_cos: [f64; PHASE_CODES],
    shift_sin: [f64; PHASE_CODES],
    shift_cos: [f64; PHASE_CODES],
}

static TABLES: OnceLock<PhaseTables> = OnceLock::new();

/// The shared tables, built once on first use (inline in the static — no
/// heap allocation, ~196 KiB total).
fn tables() -> &'static PhaseTables {
    TABLES.get_or_init(|| {
        let mut t = PhaseTables {
            sin: [0.0; PHASE_CODES],
            cos: [0.0; PHASE_CODES],
            dbl_sin: [0.0; PHASE_CODES],
            dbl_cos: [0.0; PHASE_CODES],
            shift_sin: [0.0; PHASE_CODES],
            shift_cos: [0.0; PHASE_CODES],
        };
        for c in 0..PHASE_CODES {
            // Each entry evaluates libm on the *same expression* the
            // scalar fallback computes from a grid phase, so equality is
            // bitwise by construction. Note `2.0 * p` and `p + PI` leave
            // the grid (doubling is exact; the π shift rounds once) —
            // exactly as they do in the scalar code.
            let p = c as f64 * PHASE_LSB_RAD;
            t.sin[c] = p.sin();
            t.cos[c] = p.cos();
            t.dbl_sin[c] = (2.0 * p).sin();
            t.dbl_cos[c] = (2.0 * p).cos();
            t.shift_sin[c] = (p + PI).sin();
            t.shift_cos[c] = (p + PI).cos();
        }
        t
    })
}

/// Forces table construction now (e.g. before arming an allocation
/// counter or starting a benchmark timer). Idempotent and cheap after
/// the first call.
pub fn warm_tables() {
    let _ = tables();
}

/// The phase code whose grid point is **bitwise equal** to `phase`, if
/// any: `Some(c)` iff `phase == c · `[`PHASE_LSB_RAD`] exactly as f64,
/// with `c ∈ 0..4096`.
///
/// This is the safe way to attach codes at ingest: it never guesses. A
/// phase produced by the reader model's quantizer (round to the grid,
/// then wrap into `[0, 2π)`) always round-trips; an arbitrary continuous
/// phase almost never does and gets `None`, routing those reads to the
/// libm/polynomial paths.
#[inline]
pub fn code_for_phase(phase: f64) -> Option<u16> {
    let c = (phase / PHASE_LSB_RAD).round();
    if (0.0..PHASE_CODES as f64).contains(&c) && (c * PHASE_LSB_RAD).to_bits() == phase.to_bits()
    {
        Some(c as u16)
    } else {
        None
    }
}

/// Table lookup of `(sin, cos)` of the grid phase for `code`, bit-equal
/// to `((c·LSB).sin(), (c·LSB).cos())`. Codes are taken modulo 4096.
#[inline]
pub fn table_sin_cos(code: u16) -> (f64, f64) {
    let t = tables();
    let i = code as usize % PHASE_CODES;
    (t.sin[i], t.cos[i])
}

/// Table lookup of `(sin, cos)` of the **doubled** grid phase for
/// `code`, bit-equal to `((2.0·(c·LSB)).sin(), (2.0·(c·LSB)).cos())` —
/// the double-angle accumulation of the π-jump correction. Indexed by
/// the *original* code: `2·p` leaves the grid (e.g. `2·(c·LSB)` is not
/// the grid point of code `2c mod 4096` once the doubled angle exceeds
/// 2π and the scalar code does *not* re-wrap), so a dedicated table is
/// required for bit-identity.
#[inline]
pub fn table_double_sin_cos(code: u16) -> (f64, f64) {
    let t = tables();
    let i = code as usize % PHASE_CODES;
    (t.dbl_sin[i], t.dbl_cos[i])
}

/// Table lookup of `(sin, cos)` of the **π-shifted** grid phase for
/// `code`, bit-equal to `(((c·LSB)+π).sin(), ((c·LSB)+π).cos())` — the
/// fold-pass value for a read folded onto the opposite cluster. The
/// shift is a plain f64 add of `π` (itself off-grid), matching the
/// scalar `folded = p + PI` expression exactly.
#[inline]
pub fn table_shift_sin_cos(code: u16) -> (f64, f64) {
    let t = tables();
    let i = code as usize % PHASE_CODES;
    (t.shift_sin[i], t.shift_cos[i])
}

// Cody–Waite two-part split of π/2: PIO2_HI is π/2 rounded to f64,
// PIO2_LO the residual, so `x − k·PIO2_HI − k·PIO2_LO` recovers the
// reduced argument to well under an ulp of the working precision for the
// small quotients (|k| ≤ 11) this domain produces.
const PIO2_HI: f64 = std::f64::consts::FRAC_PI_2;
const PIO2_LO: f64 = 6.123_233_995_736_766e-17;

// Taylor coefficients on the reduced interval |r| ≤ π/4.
const S3: f64 = -1.0 / 6.0;
const S5: f64 = 1.0 / 120.0;
const S7: f64 = -1.0 / 5040.0;
const S9: f64 = 1.0 / 362_880.0;
const S11: f64 = -1.0 / 39_916_800.0;
const S13: f64 = 1.0 / 6_227_020_800.0;
const C2: f64 = -0.5;
const C4: f64 = 1.0 / 24.0;
const C6: f64 = -1.0 / 720.0;
const C8: f64 = 1.0 / 40_320.0;
const C10: f64 = -1.0 / 3_628_800.0;
const C12: f64 = 1.0 / 479_001_600.0;
const C14: f64 = -1.0 / 87_178_291_200.0;

/// `sin` and `cos` of `r` for `|r| ≤ π/4`, by Horner-evaluated Taylor
/// polynomials (degree 13 / 14).
#[inline(always)]
fn kernel_sin_cos(r: f64) -> (f64, f64) {
    let r2 = r * r;
    let s = r * (1.0
        + r2 * (S3 + r2 * (S5 + r2 * (S7 + r2 * (S9 + r2 * (S11 + r2 * S13))))));
    let c = 1.0
        + r2 * (C2 + r2 * (C4 + r2 * (C6 + r2 * (C8 + r2 * (C10 + r2 * (C12 + r2 * C14))))));
    (s, c)
}

/// Fused polynomial `(sin x, cos x)` with max absolute error
/// ≤ [`POLY_MAX_ABS_ERROR`] against libm for `|x| ≤ 16` (the front end
/// feeds it phases in `[0, 2π)`, doubled angles in `[0, 4π)` and
/// π-shifted folds in `[0, 3π)`).
///
/// Range reduction uses `k = ⌊x·2/π + ½⌋` (a vectorizable floor instead
/// of libm's round-half-away — any `k` with `|x − k·π/2| ≤ π/4 + ε` is
/// valid) and the two-part Cody–Waite π/2 split; the kernel then picks
/// the quadrant by `k mod 4`.
#[inline(always)]
pub fn poly_sin_cos(x: f64) -> (f64, f64) {
    let k = (x * std::f64::consts::FRAC_2_PI + 0.5).floor();
    let r = (x - k * PIO2_HI) - k * PIO2_LO;
    let (s, c) = kernel_sin_cos(r);
    match (k as i64).rem_euclid(4) {
        0 => (s, c),
        1 => (c, -s),
        2 => (-s, -c),
        _ => (-c, s),
    }
}

/// Documented maximum absolute error of a [`PhasorRecurrence`] stream
/// against libm, any input sequence.
///
/// Budget: each small-step rotation adds one degree-9/10 kernel
/// truncation (≤ 3e-18 at the [`RECURRENCE_MAX_STEP_RAD`] cap) plus a few
/// rounding ulps (~5e-16); renormalization every
/// [`RECURRENCE_RENORM_PERIOD`] steps pins the amplitude, and a full
/// re-anchor through [`poly_sin_cos`] every [`RECURRENCE_ANCHOR_PERIOD`]
/// rotations caps the phase random walk at ≈ 4096 · 5e-16 ≈ 2e-12
/// worst-case, plus the polynomial anchor's own ≤ 1e-12. The bound is
/// deliberately loose and pinned by the recurrence drift tests.
pub const RECURRENCE_MAX_ABS_ERROR: f64 = 1e-11;

/// Largest angle step a [`PhasorRecurrence`] advances by rotation; larger
/// jumps (channel hops, π folds) re-anchor through [`poly_sin_cos`].
pub const RECURRENCE_MAX_STEP_RAD: f64 = 0.125;

/// A [`PhasorRecurrence`] renormalizes its phasor (`z ← z/|z|`) every
/// this many rotations, keeping the amplitude at 1 to within a few ulps.
pub const RECURRENCE_RENORM_PERIOD: u32 = 64;

/// A [`PhasorRecurrence`] re-anchors through [`poly_sin_cos`] after this
/// many consecutive rotations, bounding the accumulated phase error.
pub const RECURRENCE_ANCHOR_PERIOD: u32 = 4096;

// Degree-9 sin / degree-10 cos Taylor kernels on |δ| ≤ RECURRENCE_MAX_STEP_RAD:
// truncation ≤ δ¹¹/11! ≈ 3e-18 (sin), ≤ δ¹²/12! ≈ 3e-20 (cos).
#[inline(always)]
fn small_step_sin_cos(d: f64) -> (f64, f64) {
    let d2 = d * d;
    let s = d * (1.0 + d2 * (S3 + d2 * (S5 + d2 * (S7 + d2 * S9))));
    let c = 1.0 + d2 * (C2 + d2 * (C4 + d2 * (C6 + d2 * (C8 + d2 * C10))));
    (s, c)
}

/// Streaming `sin`/`cos` generator by complex rotation
/// ([`TrigProvider::Recurrence`]).
///
/// Holds the phasor `z = cos θ + i·sin θ` of the last angle served. For
/// the next angle, if the step `δ = θ' − θ` is within
/// [`RECURRENCE_MAX_STEP_RAD`], the phasor advances by one complex
/// rotation `z ← z · (cos δ + i·sin δ)` with the rotator from a short
/// Taylor kernel — two multiplies and an add per component instead of a
/// full range-reduced evaluation. Rotations compound rounding error, so
/// the phasor is renormalized every [`RECURRENCE_RENORM_PERIOD`] steps
/// and fully re-anchored through [`poly_sin_cos`] every
/// [`RECURRENCE_ANCHOR_PERIOD`] rotations — or immediately whenever the
/// step is too large (a channel hop or π fold). Total error against libm
/// stays ≤ [`RECURRENCE_MAX_ABS_ERROR`] on any input sequence.
///
/// Unlike the other backends this one is *stateful*: the value served
/// for an angle depends on the angles served before it (within the error
/// bound). Batch and streaming evaluations of the same window therefore
/// agree to the bound, not bitwise.
#[derive(Debug, Clone, Default)]
pub struct PhasorRecurrence {
    /// Last angle served (`valid` gates staleness).
    angle: f64,
    sin: f64,
    cos: f64,
    /// Rotations since the last full re-anchor.
    rotations: u32,
    valid: bool,
}

impl PhasorRecurrence {
    /// A fresh generator; the first [`advance`](Self::advance) re-anchors.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the held phasor; the next advance re-anchors.
    pub fn reset(&mut self) {
        self.valid = false;
        self.rotations = 0;
    }

    /// `(sin, cos)` of `angle`, by rotation from the previous angle when
    /// the step allows, re-anchoring through [`poly_sin_cos`] otherwise.
    #[inline]
    pub fn advance(&mut self, angle: f64) -> (f64, f64) {
        if self.valid {
            let delta = angle - self.angle;
            if delta.abs() <= RECURRENCE_MAX_STEP_RAD
                && self.rotations < RECURRENCE_ANCHOR_PERIOD
            {
                let (ds, dc) = small_step_sin_cos(delta);
                let mut s = self.sin * dc + self.cos * ds;
                let mut c = self.cos * dc - self.sin * ds;
                self.rotations += 1;
                if self.rotations.is_multiple_of(RECURRENCE_RENORM_PERIOD) {
                    let inv = 1.0 / (s * s + c * c).sqrt();
                    s *= inv;
                    c *= inv;
                }
                self.sin = s;
                self.cos = c;
                self.angle = angle;
                return (s, c);
            }
        }
        let (s, c) = poly_sin_cos(angle);
        self.sin = s;
        self.cos = c;
        self.angle = angle;
        self.rotations = 0;
        self.valid = true;
        (s, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exhaustive bit-identity proof for the base table: all 4096
    /// codes, table `sin`/`cos` == libm `sin`/`cos`, bit for bit.
    #[test]
    fn table_matches_libm_for_every_code() {
        for c in 0..PHASE_CODES as u16 {
            let p = c as f64 * PHASE_LSB_RAD;
            let (ts, tc) = table_sin_cos(c);
            assert_eq!(
                ts.to_bits(),
                p.sin().to_bits(),
                "sin table diverges from libm at phase code {c} (phase {p:e}): \
                 table {ts:e} vs libm {:e}",
                p.sin()
            );
            assert_eq!(
                tc.to_bits(),
                p.cos().to_bits(),
                "cos table diverges from libm at phase code {c} (phase {p:e}): \
                 table {tc:e} vs libm {:e}",
                p.cos()
            );
        }
    }

    /// Exhaustive bit-identity for the double-angle table: every code's
    /// entry equals libm on the doubled grid phase `2.0 · (c·LSB)` — the
    /// exact expression the scalar accumulation evaluates.
    #[test]
    fn double_angle_table_matches_libm_for_every_code() {
        for c in 0..PHASE_CODES as u16 {
            let d = 2.0 * (c as f64 * PHASE_LSB_RAD);
            let (ts, tc) = table_double_sin_cos(c);
            assert_eq!(
                ts.to_bits(),
                d.sin().to_bits(),
                "double-angle sin table diverges from libm at phase code {c} \
                 (doubled angle {d:e}): table {ts:e} vs libm {:e}",
                d.sin()
            );
            assert_eq!(
                tc.to_bits(),
                d.cos().to_bits(),
                "double-angle cos table diverges from libm at phase code {c} \
                 (doubled angle {d:e}): table {tc:e} vs libm {:e}",
                d.cos()
            );
        }
    }

    /// Exhaustive bit-identity for the π-shift (fold) table: every
    /// code's entry equals libm on `(c·LSB) + π`.
    #[test]
    fn shift_table_matches_libm_for_every_code() {
        for c in 0..PHASE_CODES as u16 {
            let f = c as f64 * PHASE_LSB_RAD + PI;
            let (ts, tc) = table_shift_sin_cos(c);
            assert_eq!(
                ts.to_bits(),
                f.sin().to_bits(),
                "π-shift sin table diverges from libm at phase code {c} \
                 (shifted phase {f:e}): table {ts:e} vs libm {:e}",
                f.sin()
            );
            assert_eq!(
                tc.to_bits(),
                f.cos().to_bits(),
                "π-shift cos table diverges from libm at phase code {c} \
                 (shifted phase {f:e}): table {tc:e} vs libm {:e}",
                f.cos()
            );
        }
    }

    #[test]
    fn code_round_trips_every_grid_phase() {
        for c in 0..PHASE_CODES as u16 {
            let p = c as f64 * PHASE_LSB_RAD;
            assert_eq!(code_for_phase(p), Some(c), "grid phase of code {c}");
        }
    }

    #[test]
    fn code_rejects_off_grid_and_out_of_range_phases() {
        assert_eq!(code_for_phase(1.0), None);
        assert_eq!(code_for_phase(PHASE_LSB_RAD * 0.5), None);
        assert_eq!(code_for_phase(-PHASE_LSB_RAD), None);
        assert_eq!(code_for_phase(TAU), None, "code 4096 is out of range");
        assert_eq!(code_for_phase(f64::NAN), None);
        // Nearest-grid-point but not exactly on it: the next float after
        // a grid phase must not be claimed.
        let near = (7.0 * PHASE_LSB_RAD).next_up();
        assert_eq!(code_for_phase(near), None);
    }

    #[test]
    fn lsb_is_exact_power_of_two_scaling_of_tau() {
        // TAU/4096 only shifts the exponent, so scaling back up is exact.
        assert_eq!(PHASE_LSB_RAD * PHASE_CODES as f64, TAU);
    }

    #[test]
    fn poly_error_spot_checks() {
        // The property suite sweeps the domain; keep a few deterministic
        // anchors (quadrant boundaries, where reduction is touchiest) in
        // the unit tests.
        for &x in &[
            0.0,
            1e-9,
            std::f64::consts::FRAC_PI_4,
            std::f64::consts::FRAC_PI_2,
            PI,
            TAU,
            2.0 * TAU,
            -1.25,
            12.566,
            15.999,
        ] {
            let (s, c) = poly_sin_cos(x);
            assert!(
                (s - x.sin()).abs() <= POLY_MAX_ABS_ERROR,
                "poly sin({x}) = {s}, libm {}",
                x.sin()
            );
            assert!(
                (c - x.cos()).abs() <= POLY_MAX_ABS_ERROR,
                "poly cos({x}) = {c}, libm {}",
                x.cos()
            );
        }
    }

    #[test]
    fn warm_tables_is_idempotent() {
        warm_tables();
        warm_tables();
        let (s, _) = table_sin_cos(1024);
        assert_eq!(s.to_bits(), (1024.0 * PHASE_LSB_RAD).sin().to_bits());
    }

    /// A long smooth stream — tiny cadence steps, no re-anchor except the
    /// periodic one — must stay within the documented recurrence bound
    /// against libm even after tens of thousands of rotations.
    #[test]
    fn recurrence_tracks_libm_over_long_smooth_streams() {
        let mut rec = PhasorRecurrence::new();
        let mut worst = 0.0f64;
        let mut angle = 0.37;
        for i in 0..50_000 {
            // Drift + jitter, always below the rotation step cap.
            angle += 0.003 + 0.002 * ((i % 17) as f64 - 8.0) / 8.0;
            let wrapped = angle % TAU;
            let (s, c) = rec.advance(wrapped.abs());
            let x = wrapped.abs();
            worst = worst.max((s - x.sin()).abs()).max((c - x.cos()).abs());
        }
        assert!(
            worst <= RECURRENCE_MAX_ABS_ERROR,
            "recurrence drift {worst:e} exceeds bound {RECURRENCE_MAX_ABS_ERROR:e}"
        );
    }

    /// Dwell-like streams — near-constant phase within a dwell, big hops
    /// between dwells — exercise the re-anchor path on every hop.
    #[test]
    fn recurrence_handles_channel_hops_and_folds() {
        let mut rec = PhasorRecurrence::new();
        let mut worst = 0.0f64;
        for dwell in 0..500 {
            let base = (dwell as f64 * 2.13) % TAU;
            for k in 0..8 {
                // Within-dwell jitter plus alternating π folds (always a
                // re-anchor: π exceeds the step cap).
                let x = base + 0.01 * k as f64 + if k % 2 == 1 { PI } else { 0.0 };
                let (s, c) = rec.advance(x);
                worst = worst.max((s - x.sin()).abs()).max((c - x.cos()).abs());
            }
        }
        assert!(
            worst <= RECURRENCE_MAX_ABS_ERROR,
            "recurrence hop error {worst:e} exceeds bound {RECURRENCE_MAX_ABS_ERROR:e}"
        );
    }

    /// `reset` forgets the held phasor, so the next angle re-anchors and
    /// the generator never serves a stale rotation after a stream break.
    #[test]
    fn recurrence_reset_reanchors() {
        let mut rec = PhasorRecurrence::new();
        rec.advance(1.0);
        rec.reset();
        let (s, c) = rec.advance(1.05);
        let (ps, pc) = poly_sin_cos(1.05);
        assert_eq!(s.to_bits(), ps.to_bits(), "post-reset advance must be a fresh anchor");
        assert_eq!(c.to_bits(), pc.to_bits());
    }
}
