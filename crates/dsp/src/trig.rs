//! Phase-code trigonometry tables for the pre-processing hot path.
//!
//! Profiling after the SoA rework showed the front end's `preprocess`
//! stage is *trig-bound*: the π-jump correction evaluates a libm
//! `sin`/`cos` pair per raw read, and those calls dominate the stage.
//! This module breaks that bound without giving up a single bit of
//! accuracy on real reader data, by exploiting the structure of the
//! input.
//!
//! An EPC Gen2 / LLRP reader reports phase on a 12-bit grid: every
//! reported phase is exactly `c · 2π/4096` for a code `c ∈ 0..4096` (the
//! LSB is `2π · 2⁻¹²`, whose mantissa is exact, so the grid points are
//! exact f64 products). When a [`RawRead`](crate::preprocess::RawRead)
//! carries its code, every trig value the front end needs —
//! `sin/cos(2·p)` for the double-angle trick and `sin/cos(p)`, the π
//! vote's sign-test operand — is one of `2 × 4096` precomputed
//! `[sin, cos]` pairs, held in two interleaved tables indexed by code.
//! The tables are filled by calling libm **on the exact expressions the
//! front end would otherwise evaluate**, so a table lookup is
//! bit-identical to libm *by construction*; the
//! `table_matches_libm_for_every_code` test proves it exhaustively for
//! all 4096 codes rather than by sampling. Reads without a code, or whose
//! code does not reproduce their phase, call libm, so the front end is
//! bit-identical to libm on every input.

use std::f64::consts::TAU;
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

/// Index of a source's hit counter in the per-call `[table, libm]`
/// tallies kept by the front end (and exported as `frontend.trig_*`
/// observability counters).
pub(crate) mod hit {
    pub const TABLE: usize = 0;
    pub const LIBM: usize = 1;
}

/// The phase-code tables, one interleaved `[sin, cos]` pair per entry,
/// for the grid phase `p = c · LSB` of code `c`:
///
/// * `double[c]` — the doubled angle `2·p` (the π-jump accumulation);
/// * `fold[c]` — `p` itself (the π vote's sign test).
struct PhaseTables {
    double: [[f64; 2]; PHASE_CODES],
    fold: [[f64; 2]; PHASE_CODES],
}

static TABLES: OnceLock<PhaseTables> = OnceLock::new();

/// The shared tables, built once on first use (inline in the static — no
/// heap allocation, 128 KiB total).
fn tables() -> &'static PhaseTables {
    TABLES.get_or_init(|| {
        let mut t = PhaseTables {
            double: [[0.0; 2]; PHASE_CODES],
            fold: [[0.0; 2]; PHASE_CODES],
        };
        for c in 0..PHASE_CODES {
            // Each entry evaluates libm on the *same expression* the
            // scalar fallback computes from a grid phase, so equality is
            // bitwise by construction. Note `2.0 * p` leaves the grid
            // (doubling is exact) — exactly as it does in the scalar code.
            let p = c as f64 * PHASE_LSB_RAD;
            t.double[c] = [(2.0 * p).sin(), (2.0 * p).cos()];
            t.fold[c] = [p.sin(), p.cos()];
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
/// phase almost never does and gets `None`, routing those reads to libm.
///
/// The candidate code comes from a multiply by `4096/τ`, not a division:
/// on a grid phase the product is within `4096 · 2⁻⁵²` of its code and
/// rounds to it, and any other phase fails the bitwise check whatever
/// code it rounds to.
#[inline]
pub fn code_for_phase(phase: f64) -> Option<u16> {
    const CODES_PER_RAD: f64 = PHASE_CODES as f64 / TAU;
    let c = (phase * CODES_PER_RAD).round();
    if (0.0..PHASE_CODES as f64).contains(&c) && (c * PHASE_LSB_RAD).to_bits() == phase.to_bits()
    {
        Some(c as u16)
    } else {
        None
    }
}

/// The double-angle table as a slice of `[sin, cos]` pairs indexed by
/// code, for hot loops that hoist the table out of the per-read work.
#[inline]
pub(crate) fn double_table() -> &'static [[f64; 2]] {
    &tables().double
}

/// The fold table as a slice of `[sin, cos]` pairs indexed by code, for
/// hot loops that hoist the table out of the per-read work.
#[inline]
pub(crate) fn fold_table() -> &'static [[f64; 2]] {
    &tables().fold
}

/// The accumulator phasor `[sin 2p, cos 2p]` of a read of phase `p` (the
/// double-angle trick maps both antipodal π-jump clusters onto one):
/// `table`'s entry for the read's grid `code`, libm on `2.0 * p`
/// otherwise. The table is [`double_table`], passed in so hot loops hoist
/// it. Every entry is libm on the same expression, so both sources give
/// the same bits. Tallies the source in `hits`.
#[inline(always)]
pub(crate) fn acc_phasor(
    phase: f64,
    code: Option<u16>,
    table: &[[f64; 2]],
    hits: &mut [u64; 2],
) -> [f64; 2] {
    match code {
        Some(code) => {
            hits[hit::TABLE] += 1;
            table[code as usize]
        }
        None => {
            hits[hit::LIBM] += 1;
            let x = 2.0 * phase;
            [x.sin(), x.cos()]
        }
    }
}

/// Table lookup of `(sin, cos)` of the grid phase for `code`, bit-equal
/// to `((c·LSB).sin(), (c·LSB).cos())`. Codes are taken modulo 4096.
#[inline]
pub fn table_sin_cos(code: u16) -> (f64, f64) {
    let [sin, cos] = fold_table()[code as usize % PHASE_CODES];
    (sin, cos)
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
    let [sin, cos] = double_table()[code as usize % PHASE_CODES];
    (sin, cos)
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
    fn warm_tables_is_idempotent() {
        warm_tables();
        warm_tables();
        let (s, _) = table_sin_cos(1024);
        assert_eq!(s.to_bits(), (1024.0 * PHASE_LSB_RAD).sin().to_bits());
    }
}
