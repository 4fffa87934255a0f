//! The one Levenberg–Marquardt loop every refinement runs on (DESIGN.md §6).
//!
//! [`LmCore`] is a damped Gauss–Newton loop over an analytic Jacobian,
//! const-generic over the parameter count `P`; the problem physics sits
//! behind [`ResidualModel`], one fused residual+Jacobian method. The
//! solver facade of [`crate::solver`] drives it for the 2-D joint and
//! slope-only fits (`P = 5`, `3`) and the 3-D ones (`7`, `4`), and the
//! BackPos baseline of `rfp-baselines` for its pair hyperbolas (`P = 2`).
//! There is no finite-difference path: every residual here is a range or
//! phase model with a closed-form gradient (that of a distance is a unit
//! vector), and the central-difference LM lives on only in the dev-only
//! `rfp-oracle` crate, as the oracle of the analytic Jacobians.
//!
//! Compared with the dynamic `LmWorkspace` core frozen in `rfp-oracle`
//! (`levenberg_marquardt_analytic_with`, the oracle the facades are
//! tested against), the const-generic core keeps the parameter vector,
//! the `P×P` normal equations, the factorization scratch and the
//! step/trial buffers in fixed-size arrays: no bounds checks in the
//! `P`-indexed kernels, no `clear`/`resize` churn per refinement, and
//! loop trip counts the compiler can fully unroll. Every floating-point
//! operation that reaches a result runs in the same order as the dynamic
//! core, so results are **bit-identical**; the core only skips the
//! repeated evaluations below.
//!
//! # Row lanes
//!
//! The residual models evaluate antenna rows in explicit 4-wide lanes
//! (each lane computes one independent row; rows are written in antenna
//! order, so the reduction order — and therefore every bit of the result —
//! matches a plain row loop). The normal-equation assembly (`JᵀJ`/`Jᵀr`)
//! runs the same discipline: 4 residual rows per pass, one independent
//! accumulator per matrix entry, lane products reduced in row order — so
//! the blocked assembly is bit-identical to the scalar `m×P` loop.
//!
//! # Damped steps
//!
//! Each iteration assembles `JᵀJ`/`Jᵀr` once and solves the damped normal
//! equations `(JᵀJ + λ·diag(JᵀJ))δ = −Jᵀr` by Cholesky, in up to 8
//! attempts: λ ×10 when the damped system is not numerically positive
//! definite, λ ×4 when the trial step raises the cost, and λ/3 (floored
//! at 1e-12) once a step is accepted. Every attempt copies, damps and
//! factors the `P×P` system afresh — exactly the frozen core's
//! operations, in its order.
//!
//! # One evaluation per point
//!
//! The frozen core evaluates an accepted trial point twice: residuals
//! only as the trial, then fused with its Jacobian at the top of the next
//! iteration. Here every trial is evaluated fused, its Jacobian written
//! straight into the Jacobian buffer, which the attempts no longer read
//! once `JᵀJ`/`Jᵀr` are assembled; an accepted trial's evaluation is the
//! next iteration's. A damped step that rounds away entirely (every
//! `p[a] + δ[a]` bitwise `p[a]`), or onto the very trial point the
//! previous attempt rejected (near convergence two λ retries can round to
//! the same bits), is rejected without an evaluation: the model is a
//! pure function, so the trial would reproduce a cost that already
//! failed to lower the current one. The visited points, costs and λ
//! schedule are the frozen core's, so estimates keep their bits; only
//! the work counters differ. `residual_evals` counts evaluations, each of
//! them fused, so `jacobian_evals` equals it, while `iterations` and
//! `lambda_retries` count exactly what the frozen core counts.

use crate::solver::SolveStats;

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
    /// Damped systems that could not be solved (Cholesky pivot failure)
    /// — each one escalates λ ×10 and retries.
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
/// slope-only (`P = 4`) problems, and BackPos for its pair hyperbolas
/// (`P = 2`); a new sensing head needs exactly this one method to inherit
/// the refinement stack.
pub trait ResidualModel<const P: usize> {
    /// Fills `r` with the residuals at `p` and, when `jac` is given, the
    /// row-major `m × P` Jacobian `∂r/∂p` in the same fused pass.
    ///
    /// Must fully overwrite both buffers (`clear` + fill), and must be a
    /// pure function of `p`: [`LmCore::refine`] evaluates a point once,
    /// always with the Jacobian, and rejects without an evaluation a
    /// trial point bitwise equal to the current one or to the trial it
    /// just rejected. `None` serves callers that need the residuals
    /// alone; they must be the same residuals.
    fn eval(&self, p: &[f64; P], r: &mut Vec<f64>, jac: Option<&mut Vec<f64>>);
}

/// The dimension-generic LM engine: scratch buffers plus the refinement
/// loop, const-generic over the parameter count.
///
/// The residual and Jacobian buffers grow to the model's row count on the
/// first refinement and are reused afterwards; everything `P`-sized lives
/// inline or on the stack. A sized core performs **zero** heap allocations
/// per refinement — the property the counting-allocator suite pins.
#[derive(Debug, Clone)]
pub struct LmCore<const P: usize> {
    r: Vec<f64>,
    r_plus: Vec<f64>,
    /// Row-major `m × P` Jacobian.
    jac: Vec<f64>,
    /// Normal matrix `JᵀJ` and its damped factorization scratch.
    jtj: [[f64; P]; P],
    chol: [[f64; P]; P],
    /// Gradient `Jᵀr`.
    jtr: [f64; P],
    stats: SolveStats,
    steps: StepStats,
}

impl<const P: usize> Default for LmCore<P> {
    fn default() -> Self {
        LmCore {
            r: Vec::new(),
            r_plus: Vec::new(),
            jac: Vec::new(),
            jtj: [[0.0; P]; P],
            chol: [[0.0; P]; P],
            jtr: [0.0; P],
            stats: SolveStats::default(),
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

    /// Snapshot of the λ-retry step counters (diff with
    /// [`StepStats::since`]).
    pub fn step_stats(&self) -> StepStats {
        self.steps
    }

    /// Assembles the normal equations `JᵀJ` / `Jᵀr` from the current
    /// residual and Jacobian buffers. The `m` residual rows are consumed
    /// 4 per pass; every `JᵀJ`/`Jᵀr` entry keeps its own independent
    /// accumulator and the four lane products are reduced in row order,
    /// so each partial sum — and therefore every bit of the result —
    /// matches the scalar loop.
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

    /// Levenberg–Marquardt with the model's fused analytic
    /// residual+Jacobian. The damping/retry policy and every
    /// floating-point operation match the frozen dynamic core
    /// `rfp_oracle::solver::levenberg_marquardt_analytic_with` exactly, so
    /// results are bit-identical to it. Each point it visits is evaluated
    /// once, residuals and Jacobian fused (module docs, *One evaluation
    /// per point*).
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
        debug_assert_eq!(self.jac.len(), m * P);

        let mut lambda = 1e-3;

        'iterate: for _ in 0..max_iterations {
            self.stats.iterations += 1;
            // `r` and `jac` hold the evaluation at `p`: the initial one or
            // the accepted trial's. Assemble the normal equations once;
            // the λ retries below reuse them and only re-damp the
            // diagonal.
            self.assemble_normal_equations(m);

            // The point evaluated last: `p`, until an attempt below
            // rejects a trial.
            let mut last = p;
            for attempt in 0..8 {
                if attempt > 0 {
                    self.steps.lambda_retries += 1;
                }
                // Copy, damp and factor `JᵀJ + λ·diag(JᵀJ)₊`; a system that
                // is not numerically SPD escalates λ.
                self.chol = self.jtj;
                for d in 0..P {
                    self.chol[d][d] += lambda * self.jtj[d][d].max(1e-12);
                }
                if !cholesky_factor(&mut self.chol) {
                    self.steps.chol_failures += 1;
                    lambda *= 10.0;
                    continue;
                }
                let mut delta = self.jtr.map(|g| -g);
                cholesky_solve(&self.chol, &mut delta);
                let candidate: [f64; P] = std::array::from_fn(|a| p[a] + delta[a]);
                // A step that rounds away, or onto the trial the previous
                // attempt rejected, would reproduce a cost already found
                // too high: reject it unevaluated.
                if same_bits(&candidate, &p) || same_bits(&candidate, &last) {
                    lambda *= 4.0;
                    continue;
                }
                model.eval(&candidate, &mut self.r_plus, Some(&mut self.jac));
                self.stats.residual_evals += 1;
                self.stats.jacobian_evals += 1;
                let new_cost: f64 = self.r_plus.iter().map(|v| v * v).sum();
                if new_cost < cost {
                    let rel_drop = (cost - new_cost) / cost.max(1e-300);
                    p = candidate;
                    std::mem::swap(&mut self.r, &mut self.r_plus);
                    cost = new_cost;
                    lambda = (lambda / 3.0).max(1e-12);
                    if rel_drop < tolerance {
                        return (p, cost);
                    }
                    continue 'iterate;
                }
                last = candidate;
                lambda *= 4.0;
            }
            // No attempt lowered the cost.
            break;
        }
        (p, cost)
    }

    /// The Gauss–Newton covariance `(JᵀJ)⁻¹` of `model` at `p`: the fused
    /// analytic Jacobian evaluated again at `p`, the normal equations
    /// assembled and Cholesky-factored as a refinement iteration does, and
    /// column *k* obtained by back-substituting the *k*-th unit vector.
    /// `None` when `JᵀJ` is not numerically positive definite or a
    /// diagonal entry comes out negative or non-finite. Charges no work
    /// or step counter: it is a read-out of the solution, not part of the
    /// search.
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

/// Whether two points are equal bit for bit.
fn same_bits<const P: usize>(a: &[f64; P], b: &[f64; P]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
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
}
