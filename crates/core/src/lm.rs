//! Dimension-generic Levenberg–Marquardt core (DESIGN.md §6).
//!
//! The 2-D solver fits 5 parameters and the 3-D solver fits 7, but the LM
//! machinery between them — fused residual+Jacobian evaluation, normal
//! equations, Cholesky, the λ damping/retry policy — is byte-for-byte the
//! same algorithm. [`LmCore`] is that algorithm, const-generic over the
//! parameter count `P`, with the problem physics abstracted behind
//! [`ResidualModel`]. The one solver facade of [`crate::solver`] drives
//! it for both dimensions, and a new P-parameter sensing head gets the
//! whole refinement stack by implementing one trait method. A model
//! without a closed-form Jacobian (BackPos's hyperbolas) refines through
//! [`LmCore::refine_numeric`] instead: central differences, with pivoted
//! Gaussian elimination for the damped step.
//!
//! Compared with the dynamic `LmWorkspace` cores frozen in the dev-only
//! `rfp-oracle` crate (the oracle the facades are tested against), the
//! const-generic core keeps the parameter vector, the `P×P` normal
//! equations, the factorization scratch and the step/trial buffers in
//! fixed-size arrays: no bounds checks in the `P`-indexed kernels, no
//! `clear`/`resize` churn per refinement, and loop trip counts the
//! compiler can fully unroll. Every floating-point operation runs in the
//! same order as the dynamic cores, so results are **bit-identical**.
//!
//! # Lane accounting
//!
//! The residual models evaluate antenna rows in explicit 4-wide lanes
//! (each lane computes one independent row; rows are written in antenna
//! order, so the reduction order — and therefore every bit of the result —
//! matches a plain row loop). The normal-equation assembly (`JᵀJ`/`Jᵀr`)
//! runs the same discipline: 4 residual rows per pass, one independent
//! accumulator per matrix entry, lane products reduced in row order — so
//! the blocked assembly is bit-identical to the scalar `m×P` loop. The
//! core counts full 4-row blocks and leftover scalar rows per evaluation
//! into [`LaneStats`]; the solvers surface the tallies through the
//! `solver.lane_*` observability counters.
//!
//! # Damped steps
//!
//! Each LM iteration solves the damped normal equations
//! `(JᵀJ + λ·diag(JᵀJ))δ = −Jᵀr`, and the λ retry policy may re-solve the
//! same system at several λ before a step is accepted. Every attempt
//! copies, damps and Cholesky-factors the `P×P` system afresh (the
//! numeric path uses pivoted Gaussian elimination instead) — exactly the
//! frozen cores' operations, in their order.

use crate::solver::SolveStats;

/// Lane-utilization counters of the 4-wide hot paths, accumulated
/// monotonically (snapshot and diff with [`LaneStats::since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Full 4-seed blocks evaluated by the coarse seed ranking.
    pub seed_blocks: u64,
    /// Full 4-row blocks evaluated by residual/Jacobian passes.
    pub row_blocks: u64,
    /// Rows (or seeds) processed outside a full 4-wide block — the loop
    /// remainders of residual passes and of the coarse seed ranking.
    pub scalar_rows: u64,
}

impl LaneStats {
    /// The tallies accumulated since `earlier` was snapshotted.
    #[must_use]
    pub fn since(self, earlier: LaneStats) -> LaneStats {
        LaneStats {
            seed_blocks: self.seed_blocks - earlier.seed_blocks,
            row_blocks: self.row_blocks - earlier.row_blocks,
            scalar_rows: self.scalar_rows - earlier.scalar_rows,
        }
    }

    /// Element-wise sum of two tallies (for aggregating a workspace's
    /// cores into one snapshot).
    #[must_use]
    pub fn merged(self, other: LaneStats) -> LaneStats {
        LaneStats {
            seed_blocks: self.seed_blocks + other.seed_blocks,
            row_blocks: self.row_blocks + other.row_blocks,
            scalar_rows: self.scalar_rows + other.scalar_rows,
        }
    }
}

/// Work counters of the λ-retry step machinery, accumulated monotonically
/// (snapshot and diff with [`StepStats::since`]). These feed the
/// `solver.lambda_retries` / `solver.chol_failures` observability
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Damped-step attempts beyond the first of each iteration — every λ
    /// escalation, whether from a factorization failure or a rejected
    /// (cost-increasing) trial step.
    pub lambda_retries: u64,
    /// Damped systems that could not be solved (Cholesky pivot failure
    /// or singular elimination) — each one escalates λ ×10 and retries.
    pub chol_failures: u64,
}

impl StepStats {
    /// The counts accumulated since `earlier` was snapshotted.
    #[must_use]
    pub fn since(self, earlier: StepStats) -> StepStats {
        StepStats {
            lambda_retries: self.lambda_retries - earlier.lambda_retries,
            chol_failures: self.chol_failures - earlier.chol_failures,
        }
    }

    /// Element-wise sum of two tallies.
    #[must_use]
    pub fn merged(self, other: StepStats) -> StepStats {
        StepStats {
            lambda_retries: self.lambda_retries + other.lambda_retries,
            chol_failures: self.chol_failures + other.chol_failures,
        }
    }
}

/// A `P`-parameter nonlinear least-squares model: the problem physics the
/// dimension-generic [`LmCore`] refines against.
///
/// Implementations own (borrow) their observations and configuration; the
/// core owns the numerics. The solvers implement this for the 2-D joint
/// (`P = 5`), 2-D slope-only (`P = 3`), 3-D joint (`P = 7`) and 3-D
/// slope-only (`P = 4`) problems; a new sensing head needs exactly this
/// one method to inherit the refinement stack.
pub trait ResidualModel<const P: usize> {
    /// Fills `r` with the residuals at `p` and, when `jac` is given, the
    /// row-major `m × P` Jacobian `∂r/∂p` in the same fused pass.
    ///
    /// Must fully overwrite both buffers (`clear` + fill). When `jac` is
    /// `None` only the residuals are needed (trial-point evaluations and
    /// the numeric path's difference sweeps).
    fn eval(&self, p: &[f64; P], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>);
}

/// The dimension-generic LM engine: scratch buffers plus the analytic and
/// numeric refinement loops, const-generic over the parameter count.
///
/// The residual and Jacobian buffers grow to the model's row count on the
/// first refinement and are reused afterwards; everything `P`-sized lives
/// inline in the struct. A sized core performs **zero** heap allocations
/// per refinement — the property the counting-allocator suite pins.
#[derive(Debug, Clone)]
pub struct LmCore<const P: usize> {
    r: Vec<f64>,
    r_plus: Vec<f64>,
    r_minus: Vec<f64>,
    /// Row-major `m × P` Jacobian.
    jac: Vec<f64>,
    /// Normal matrix `JᵀJ` and its damped factorization scratch.
    jtj: [[f64; P]; P],
    chol: [[f64; P]; P],
    /// Gradient, step and trial-point buffers.
    jtr: [f64; P],
    delta: [f64; P],
    candidate: [f64; P],
    stats: SolveStats,
    lanes: LaneStats,
    steps: StepStats,
}

impl<const P: usize> Default for LmCore<P> {
    fn default() -> Self {
        LmCore {
            r: Vec::new(),
            r_plus: Vec::new(),
            r_minus: Vec::new(),
            jac: Vec::new(),
            jtj: [[0.0; P]; P],
            chol: [[0.0; P]; P],
            jtr: [0.0; P],
            delta: [0.0; P],
            candidate: [0.0; P],
            stats: SolveStats::default(),
            lanes: LaneStats::default(),
            steps: StepStats::default(),
        }
    }
}

impl<const P: usize> LmCore<P> {
    /// Snapshot of the work counters accumulated by every refinement run
    /// against this core (diff with
    /// [`SolveStats::since`](crate::solver::SolveStats::since)).
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Snapshot of the lane-utilization counters (diff with
    /// [`LaneStats::since`]).
    pub fn lane_stats(&self) -> LaneStats {
        self.lanes
    }

    /// Snapshot of the λ-retry step counters (diff with
    /// [`StepStats::since`]).
    pub fn step_stats(&self) -> StepStats {
        self.steps
    }

    /// Charges one pass over `rows` residual rows to the lane tallies:
    /// full 4-row blocks plus the scalar remainder.
    fn charge_lanes(&mut self, rows: usize) {
        self.lanes.row_blocks += (rows / 4) as u64;
        self.lanes.scalar_rows += (rows % 4) as u64;
    }

    /// Assembles the normal equations `JᵀJ` / `Jᵀr` from the current
    /// residual and Jacobian buffers. The `m` residual rows are consumed
    /// 4 per pass; every `JᵀJ`/`Jᵀr` entry keeps its own independent
    /// accumulator and the four lane products are reduced in row order,
    /// so each partial sum — and therefore every bit of the result —
    /// matches the scalar loop. The refinements charge assembly rows to
    /// the lane tallies like model-evaluation rows.
    #[allow(clippy::needless_range_loop)] // index loops mirror the frozen core verbatim
    fn assemble_normal_equations(&mut self, m: usize) {
        self.jtj = [[0.0; P]; P];
        self.jtr = [0.0; P];
        let mut i = 0usize;
        while i + 4 <= m {
            let j0 = &self.jac[i * P..(i + 1) * P];
            let j1 = &self.jac[(i + 1) * P..(i + 2) * P];
            let j2 = &self.jac[(i + 2) * P..(i + 3) * P];
            let j3 = &self.jac[(i + 3) * P..(i + 4) * P];
            let (y0, y1, y2, y3) = (self.r[i], self.r[i + 1], self.r[i + 2], self.r[i + 3]);
            for a in 0..P {
                let mut g = self.jtr[a];
                g += j0[a] * y0;
                g += j1[a] * y1;
                g += j2[a] * y2;
                g += j3[a] * y3;
                self.jtr[a] = g;
                for b in a..P {
                    let mut s = self.jtj[a][b];
                    s += j0[a] * j0[b];
                    s += j1[a] * j1[b];
                    s += j2[a] * j2[b];
                    s += j3[a] * j3[b];
                    self.jtj[a][b] = s;
                }
            }
            i += 4;
        }
        for i in i..m {
            let row = &self.jac[i * P..(i + 1) * P];
            let ri = self.r[i];
            for a in 0..P {
                self.jtr[a] += row[a] * ri;
                for b in a..P {
                    self.jtj[a][b] += row[a] * row[b];
                }
            }
        }
        for a in 0..P {
            for b in 0..a {
                self.jtj[a][b] = self.jtj[b][a];
            }
        }
    }

    /// The λ damping/retry policy shared by the analytic and numeric
    /// refinement paths — the **single** home of the retry block: up to 8
    /// damped-step attempts, λ ×10 on a factorization failure, λ ×4 on a
    /// rejected (cost-increasing) trial, λ/3 (floored at 1e-12) on an
    /// accepted step. Identical floating-point behaviour to the frozen
    /// dynamic cores.
    #[allow(clippy::too_many_arguments)]
    fn lambda_retry<M: ResidualModel<P>>(
        &mut self,
        model: &M,
        m: usize,
        backend: StepBackend,
        p: &mut [f64; P],
        cost: &mut f64,
        lambda: &mut f64,
        tolerance: f64,
    ) -> RetryOutcome {
        for attempt in 0..8 {
            if attempt > 0 {
                self.steps.lambda_retries += 1;
            }
            let solved = match backend {
                StepBackend::Cholesky => damped_step_cholesky(
                    &self.jtj,
                    &self.jtr,
                    *lambda,
                    &mut self.chol,
                    &mut self.delta,
                ),
                StepBackend::Gauss => damped_step_gauss(
                    &self.jtj,
                    &self.jtr,
                    *lambda,
                    &mut self.chol,
                    &mut self.delta,
                ),
            };
            if !solved {
                self.steps.chol_failures += 1;
                *lambda *= 10.0;
                continue;
            }
            for (a, pa) in p.iter().enumerate() {
                self.candidate[a] = pa + self.delta[a];
            }
            model.eval(&self.candidate, &mut self.r_plus, None);
            self.stats.residual_evals += 1;
            self.charge_lanes(m);
            let new_cost: f64 = self.r_plus.iter().map(|v| v * v).sum();
            if new_cost < *cost {
                let rel_drop = (*cost - new_cost) / (*cost).max(1e-300);
                *p = self.candidate;
                std::mem::swap(&mut self.r, &mut self.r_plus);
                *cost = new_cost;
                *lambda = (*lambda / 3.0).max(1e-12);
                if rel_drop < tolerance {
                    return RetryOutcome::Converged;
                }
                return RetryOutcome::Improved;
            }
            *lambda *= 4.0;
        }
        RetryOutcome::Exhausted
    }

    /// Levenberg–Marquardt with the model's fused analytic
    /// residual+Jacobian — the hot path. The damping/retry policy and
    /// every floating-point operation match the frozen dynamic core
    /// `rfp_oracle::solver::levenberg_marquardt_analytic_with` exactly, so
    /// results are bit-identical to it.
    pub fn refine<M: ResidualModel<P>>(
        &mut self,
        model: &M,
        mut p: [f64; P],
        max_iterations: usize,
        tolerance: f64,
    ) -> ([f64; P], f64) {
        model.eval(&p, &mut self.r, Some(&mut self.jac));
        self.stats.residual_evals += 1;
        self.stats.jacobian_evals += 1;
        let mut cost: f64 = self.r.iter().map(|v| v * v).sum();
        let m = self.r.len();
        self.charge_lanes(m);
        debug_assert_eq!(self.jac.len(), m * P);

        let mut lambda = 1e-3;
        // The Jacobian from the initial fused evaluation is current; after
        // an accepted step it goes stale and the next iteration re-fuses.
        let mut jac_fresh = true;

        for _ in 0..max_iterations {
            self.stats.iterations += 1;
            if !jac_fresh {
                model.eval(&p, &mut self.r, Some(&mut self.jac));
                self.stats.residual_evals += 1;
                self.stats.jacobian_evals += 1;
                self.charge_lanes(m);
            }
            // Assemble the normal equations once; the λ retries below
            // reuse them and only re-damp the diagonal.
            self.assemble_normal_equations(m);
            self.charge_lanes(m);

            match self.lambda_retry(
                model,
                m,
                StepBackend::Cholesky,
                &mut p,
                &mut cost,
                &mut lambda,
                tolerance,
            ) {
                RetryOutcome::Converged => return (p, cost),
                RetryOutcome::Improved => jac_fresh = false,
                RetryOutcome::Exhausted => break,
            }
        }
        (p, cost)
    }

    /// Levenberg–Marquardt with a central-difference Jacobian and
    /// per-parameter step scales, for models without a closed-form
    /// Jacobian (BackPos). The policy and operation order match the frozen
    /// dynamic core `rfp_oracle::solver::levenberg_marquardt_with` exactly
    /// (bit-identical results); only residual evaluations (`jac: None`)
    /// are requested from the model.
    #[allow(clippy::needless_range_loop)] // index loops mirror the frozen core verbatim
    pub fn refine_numeric<M: ResidualModel<P>>(
        &mut self,
        model: &M,
        mut p: [f64; P],
        steps: &[f64; P],
        max_iterations: usize,
        tolerance: f64,
    ) -> ([f64; P], f64) {
        model.eval(&p, &mut self.r, None);
        self.stats.residual_evals += 1;
        let mut cost: f64 = self.r.iter().map(|v| v * v).sum();
        let m = self.r.len();
        self.charge_lanes(m);

        let mut lambda = 1e-3;
        self.jac.clear();
        self.jac.resize(m * P, 0.0);

        for _ in 0..max_iterations {
            self.stats.iterations += 1;
            // Numeric Jacobian (central differences, per-parameter steps).
            for j in 0..P {
                let h = steps[j];
                let saved = p[j];
                p[j] = saved + h;
                model.eval(&p, &mut self.r_plus, None);
                p[j] = saved - h;
                model.eval(&p, &mut self.r_minus, None);
                p[j] = saved;
                for i in 0..m {
                    self.jac[i * P + j] = (self.r_plus[i] - self.r_minus[i]) / (2.0 * h);
                }
            }
            self.stats.residual_evals += 2 * P as u64;
            self.stats.jacobian_evals += 1;
            self.charge_lanes(2 * P * m);
            // Normal equations — same accumulation order as the dynamic
            // numeric core (bit-identical results).
            self.assemble_normal_equations(m);
            self.charge_lanes(m);

            // Damped solve with retry on cost increase; the difference
            // Jacobian is less trustworthy than the analytic one, so this
            // path keeps pivoted Gaussian elimination as its backend.
            match self.lambda_retry(
                model,
                m,
                StepBackend::Gauss,
                &mut p,
                &mut cost,
                &mut lambda,
                tolerance,
            ) {
                RetryOutcome::Converged => return (p, cost),
                RetryOutcome::Improved => {}
                RetryOutcome::Exhausted => break,
            }
        }
        (p, cost)
    }

    /// The Gauss–Newton covariance `(JᵀJ)⁻¹` of `model` at `p`: the fused
    /// analytic Jacobian evaluated again at `p`, the normal equations
    /// assembled and Cholesky-factored as a refinement iteration does, and
    /// column *k* obtained by back-substituting the *k*-th unit vector.
    /// `None` when `JᵀJ` is not numerically positive definite or a
    /// diagonal entry comes out negative or non-finite. Charges no work,
    /// lane or step counter: it is a read-out of the solution, not part of
    /// the search.
    pub(crate) fn covariance<M: ResidualModel<P>>(
        &mut self,
        model: &M,
        p: &[f64; P],
    ) -> Option<[[f64; P]; P]> {
        model.eval(p, &mut self.r, Some(&mut self.jac));
        self.assemble_normal_equations(self.r.len());
        self.chol = self.jtj;
        if !cholesky_factor(&mut self.chol) {
            return None;
        }
        let mut cov = [[0.0; P]; P];
        for k in 0..P {
            let mut e = [0.0; P];
            e[k] = 1.0;
            cholesky_solve(&self.chol, &mut e);
            if !(e[k].is_finite() && e[k] >= 0.0) {
                return None;
            }
            for (row, v) in cov.iter_mut().zip(e) {
                row[k] = v;
            }
        }
        Some(cov)
    }
}

/// The damped-step backend of [`LmCore::lambda_retry`]: Cholesky on the
/// analytic path, pivoted elimination on the numeric path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepBackend {
    Cholesky,
    Gauss,
}

/// What one pass of the λ retry loop did to the running iterate.
enum RetryOutcome {
    /// A step was accepted and the relative cost drop fell under the
    /// tolerance — refinement is done.
    Converged,
    /// A step was accepted; the Jacobian is now stale.
    Improved,
    /// All 8 attempts failed to decrease the cost.
    Exhausted,
}

/// One damped normal-equation step
/// `(JᵀJ + λ·diag(JᵀJ)₊)δ = −Jᵀr` by copy + damp + Cholesky — the
/// analytic path's backend (exactly the frozen dynamic cores' operations,
/// in their order). `scratch` receives the damped factor; `delta` the
/// step. Returns `false` when the damped matrix is not numerically SPD —
/// the caller escalates λ and retries.
fn damped_step_cholesky<const P: usize>(
    jtj: &[[f64; P]; P],
    jtr: &[f64; P],
    lambda: f64,
    scratch: &mut [[f64; P]; P],
    delta: &mut [f64; P],
) -> bool {
    *scratch = *jtj;
    for d in 0..P {
        scratch[d][d] += lambda * jtj[d][d].max(1e-12);
    }
    if !cholesky_factor(scratch) {
        return false;
    }
    for a in 0..P {
        delta[a] = -jtr[a];
    }
    cholesky_solve(scratch, delta);
    true
}

/// The numeric path's damped step: copy + damp + pivoted Gaussian
/// elimination (same operations and order as the frozen numeric core).
fn damped_step_gauss<const P: usize>(
    jtj: &[[f64; P]; P],
    jtr: &[f64; P],
    lambda: f64,
    scratch: &mut [[f64; P]; P],
    delta: &mut [f64; P],
) -> bool {
    *scratch = *jtj;
    for d in 0..P {
        scratch[d][d] += lambda * jtj[d][d].max(1e-12);
    }
    for a in 0..P {
        delta[a] = -jtr[a];
    }
    gauss_solve(scratch, delta)
}

/// In-place Cholesky factorization `A = LLᵀ`; on success the lower
/// triangle holds `L`. Same expressions (and failure guard) as the
/// frozen dynamic core's routine, over fixed-size storage — bit-identical
/// factors.
#[allow(clippy::needless_range_loop)] // index loops mirror the frozen core verbatim
fn cholesky_factor<const P: usize>(a: &mut [[f64; P]; P]) -> bool {
    for i in 0..P {
        for j in 0..=i {
            let mut s = a[i][j];
            for k in 0..j {
                s -= a[i][k] * a[j][k];
            }
            if i == j {
                if !s.is_finite() || s < 1e-300 {
                    return false;
                }
                a[i][i] = s.sqrt();
            } else {
                a[i][j] = s / a[j][j];
            }
        }
    }
    true
}

/// Solves `LLᵀ x = b` in place against a [`cholesky_factor`] factor.
fn cholesky_solve<const P: usize>(l: &[[f64; P]; P], b: &mut [f64; P]) {
    for i in 0..P {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i][k] * b[k];
        }
        b[i] = s / l[i][i];
    }
    for i in (0..P).rev() {
        let mut s = b[i];
        for k in (i + 1)..P {
            s -= l[k][i] * b[k];
        }
        b[i] = s / l[i][i];
    }
}

/// In-place Gaussian elimination with partial pivoting; pivot selection,
/// elimination order and back-substitution match the dynamic
/// `solve_linear_in_place` exactly (the numeric core stays a bit-exact
/// oracle). Returns `false` when singular.
#[allow(clippy::needless_range_loop)] // index loops mirror the frozen core verbatim
fn gauss_solve<const P: usize>(a: &mut [[f64; P]; P], b: &mut [f64; P]) -> bool {
    for col in 0..P {
        let mut pivot = col;
        for row in (col + 1)..P {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-300 {
            return false;
        }
        if pivot != col {
            a.swap(col, pivot);
            b.swap(col, pivot);
        }
        for row in (col + 1)..P {
            let factor = a[row][col] / a[col][col];
            for k in col..P {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    for col in (0..P).rev() {
        let mut s = b[col];
        for k in (col + 1)..P {
            s -= a[col][k] * b[k];
        }
        b[col] = s / a[col][col];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_size_cholesky_round_trip() {
        let a = [[4.0, 2.0, 0.6], [2.0, 5.0, 1.0], [0.6, 1.0, 3.0]];
        let b = [1.0, -2.0, 0.5];
        let mut l = a;
        assert!(cholesky_factor(&mut l));
        let mut x = b;
        cholesky_solve(&l, &mut x);
        for i in 0..3 {
            let ax: f64 = (0..3).map(|j| a[i][j] * x[j]).sum();
            assert!((ax - b[i]).abs() < 1e-12, "row {i}: {ax} vs {}", b[i]);
        }
        let mut indef = [[1.0, 2.0], [2.0, 1.0]];
        assert!(!cholesky_factor(&mut indef));
    }

    #[test]
    fn fixed_size_gauss_pivots_and_rejects_singular() {
        let a0 = [[0.0, 2.0, 1.0], [1.0, 1.0, 0.5], [3.0, 0.1, 2.0]];
        let b0 = [1.0, 2.0, 3.0];
        let mut a = a0;
        let mut x = b0;
        assert!(gauss_solve(&mut a, &mut x));
        for i in 0..3 {
            let ax: f64 = (0..3).map(|j| a0[i][j] * x[j]).sum();
            assert!((ax - b0[i]).abs() < 1e-10, "row {i}: {ax} vs {}", b0[i]);
        }
        let mut sing = [[1.0, 2.0], [2.0, 4.0]];
        let mut b = [1.0, 2.0];
        assert!(!gauss_solve(&mut sing, &mut b));
    }
}
