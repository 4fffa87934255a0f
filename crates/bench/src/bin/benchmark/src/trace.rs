//! Outside-in layer trace.
//!
//! A traced run re-drives each request through the public calls the
//! entry point makes internally — `extract_observation_into` per antenna,
//! `detector::assess`, the seeded warm solve on a benchmark-owned
//! workspace, `MaterialFeatures::extract` and `identify` — and times each
//! call from outside. A sibling pass times the three DSP stages inside
//! extraction (`preprocess_reads_with`, `raw_fit`, `robust_line_fit_with`)
//! on the same windows. Every `*.us` metric is mean reference-core
//! microseconds per tag estimate (per advance on the stream), so the layer
//! rows add up to the untraced per-tag time up to `unattributed_us`.

use crate::pace;
use crate::run::Run;
use rfp_core::detector::{assess, DetectorConfig, MobilityVerdict};
use rfp_core::lm::StepStats;
use rfp_core::model::{extract_observation_into, AntennaObservation, ExtractConfig, ExtractError};
use rfp_core::solver::{PruneStats, SolveStats, SolverWorkspace};
use rfp_core::solver3d::Solver3DWorkspace;
use rfp_dsp::preprocess::{preprocess_reads_with, ChannelObservation, RawRead};
use rfp_dsp::robust::robust_line_fit_with;
use rfp_dsp::workspace::FrontEndWorkspace;
use rfp_geom::AntennaPose;
use rfp_obs::JsonValue;
use std::hint::black_box;
use std::time::Instant;

/// Adds the reference-core time of `f` to `total` and counts one span.
pub fn timed<R>(total: &mut f64, spans: &mut u64, f: impl FnOnce() -> R) -> R {
    let scale = pace::scale();
    let t0 = Instant::now();
    let out = f();
    *total += t0.elapsed().as_secs_f64() * scale;
    *spans += 1;
    out
}

/// Cost of one empty span, in reference-core seconds.
pub fn span_cost() -> f64 {
    const N: u32 = 100_000;
    let (mut total, mut spans) = (0.0, 0);
    let scale = pace::scale();
    let t0 = Instant::now();
    for _ in 0..N {
        timed(&mut total, &mut spans, || black_box(()));
    }
    t0.elapsed().as_secs_f64() * scale / f64::from(N)
}

/// Per-layer totals of a traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    /// Tag estimates traced (advances, on the stream).
    pub tags: u64,
    /// Timed calls whose times the layer rows sum.
    pub spans: u64,
    pub windows: u64,
    pub reads: u64,
    pub extract_failures: u64,
    pub extract_s: f64,
    pub preprocess_s: f64,
    pub linfit_s: f64,
    pub robust_s: f64,
    pub robust_fits: u64,
    pub inlier_frac_sum: f64,
    pub assessed: u64,
    pub moving: u64,
    pub multipath: u64,
    pub detector_s: f64,
    pub solver_s: f64,
    pub iterations: u64,
    pub residual_evals: u64,
    pub seeds_total: u64,
    pub seeds_refined: u64,
    pub warm_hits: u64,
    pub warm_misses: u64,
    pub lambda_retries: u64,
    pub features_s: f64,
    pub identify_s: f64,
    pub identified: u64,
    pub material_correct: u64,
    pub push_s: f64,
    pub advance_s: f64,
    pub updates: u64,
    pub downdates: u64,
    pub rebuilds: u64,
    pub fallbacks: u64,
    /// Advances × antennas: the base of the refit-fallback ratio.
    pub antenna_windows: u64,
}

impl Layers {
    /// Tallies one detector verdict.
    pub fn verdict(&mut self, verdict: &MobilityVerdict) {
        self.assessed += 1;
        match verdict {
            MobilityVerdict::Moving { .. } => self.moving += 1,
            MobilityVerdict::MultipathSuppressed { .. } => self.multipath += 1,
            MobilityVerdict::Clean => {}
        }
    }

    /// The per-layer metrics, given the untraced seconds per tag estimate
    /// measured in the same run.
    pub fn metrics(&self, untraced_per_tag_s: f64, span_cost_s: f64) -> Vec<(&'static str, f64)> {
        let tags = self.tags.max(1) as f64;
        let us = |s: f64| s * 1e6 / tags;
        let per_tag = |c: u64| c as f64 / tags;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let layered = self.extract_s
            + self.detector_s
            + self.solver_s
            + self.features_s
            + self.identify_s
            + self.push_s
            + self.advance_s;
        let inlier_frac = if self.robust_fits == 0 {
            0.0
        } else {
            self.inlier_frac_sum / self.robust_fits as f64
        };
        vec![
            ("dsp.preprocess.us", us(self.preprocess_s)),
            ("dsp.linfit.us", us(self.linfit_s)),
            ("dsp.robust.us", us(self.robust_s)),
            ("dsp.robust.inlier_frac", inlier_frac),
            (
                "dsp.preprocess.reads_per_window",
                ratio(self.reads, self.windows),
            ),
            ("model.extract.us", us(self.extract_s)),
            (
                "model.extract.self_us",
                us(self.extract_s - self.preprocess_s - self.linfit_s - self.robust_s),
            ),
            (
                "model.extract.fail_ratio",
                ratio(self.extract_failures, self.windows),
            ),
            ("detector.us", us(self.detector_s)),
            ("detector.moving_ratio", ratio(self.moving, self.assessed)),
            (
                "detector.multipath_ratio",
                ratio(self.multipath, self.assessed),
            ),
            ("solver.us", us(self.solver_s)),
            ("solver.iterations", per_tag(self.iterations)),
            ("solver.residual_evals", per_tag(self.residual_evals)),
            ("solver.seeds_refined", per_tag(self.seeds_refined)),
            (
                "solver.seed_refine_ratio",
                ratio(self.seeds_refined, self.seeds_total),
            ),
            (
                "solver.warm_hit_ratio",
                ratio(self.warm_hits, self.warm_hits + self.warm_misses),
            ),
            ("solver.lambda_retries", per_tag(self.lambda_retries)),
            ("material.features_us", us(self.features_s)),
            ("material.identify_us", us(self.identify_s)),
            (
                "material.acc",
                ratio(self.material_correct, self.identified),
            ),
            ("streaming.push_us", us(self.push_s)),
            ("streaming.advance_us", us(self.advance_s)),
            ("streaming.updates", per_tag(self.updates)),
            ("streaming.downdates", per_tag(self.downdates)),
            (
                "streaming.refit_fallback_ratio",
                ratio(self.fallbacks, self.antenna_windows),
            ),
            ("streaming.rebuilds", per_tag(self.rebuilds)),
            ("unattributed_us", untraced_per_tag_s * 1e6 - us(layered)),
            (
                "trace_overhead_ratio",
                self.spans as f64 / tags * span_cost_s / untraced_per_tag_s,
            ),
        ]
    }
}

/// The solver workspaces' work counters.
pub trait Counters {
    fn counters(&self) -> (SolveStats, PruneStats, StepStats);
}

impl Counters for SolverWorkspace {
    fn counters(&self) -> (SolveStats, PruneStats, StepStats) {
        (self.stats(), self.prune_stats(), self.step_stats())
    }
}

impl Counters for Solver3DWorkspace {
    fn counters(&self) -> (SolveStats, PruneStats, StepStats) {
        (self.stats(), self.prune_stats(), self.step_stats())
    }
}

/// Benchmark-owned scratch of the layered path plus its totals.
#[derive(Default)]
pub struct Tracer {
    pub layers: Layers,
    /// Usable observations of the current request, in antenna order.
    pub observations: Vec<AntennaObservation>,
    pool: Vec<AntennaObservation>,
    front: FrontEndWorkspace,
    sibling: FrontEndWorkspace,
    channels: Vec<ChannelObservation>,
}

impl Tracer {
    /// Extracts every antenna's observation as the pipelines do, keeping
    /// the usable ones; returns the first extraction error.
    pub fn extract(
        &mut self,
        poses: &[AntennaPose],
        reads_per_antenna: &[Vec<RawRead>],
        config: &ExtractConfig,
    ) -> Option<ExtractError> {
        self.pool.append(&mut self.observations);
        let mut first_error = None;
        for (pose, reads) in poses.iter().zip(reads_per_antenna) {
            let mut slot = self
                .pool
                .pop()
                .unwrap_or_else(|| AntennaObservation::from_line(*pose, 0.0, 0.0));
            let layers = &mut self.layers;
            let front = &mut self.front;
            let result = timed(&mut layers.extract_s, &mut layers.spans, || {
                extract_observation_into(*pose, reads, config, front, &mut slot)
            });
            layers.windows += 1;
            layers.reads += reads.len() as u64;
            match result {
                Ok(()) => self.observations.push(slot),
                Err(e) => {
                    layers.extract_failures += 1;
                    self.pool.push(slot);
                    first_error.get_or_insert(e);
                }
            }
            self.time_dsp(reads, config);
        }
        first_error
    }

    /// The sibling pass: extraction's three DSP stages, timed one by one
    /// on the same window.
    fn time_dsp(&mut self, reads: &[RawRead], config: &ExtractConfig) {
        let layers = &mut self.layers;
        let scale = pace::scale();
        let t0 = Instant::now();
        let pre = preprocess_reads_with(
            &mut self.sibling,
            reads,
            &config.preprocess,
            &mut self.channels,
        );
        let t1 = Instant::now();
        layers.preprocess_s += (t1 - t0).as_secs_f64() * scale;
        if pre.is_err() || self.channels.len() < 5 {
            return;
        }
        let raw = black_box(self.sibling.raw_fit());
        let t2 = Instant::now();
        layers.linfit_s += (t2 - t1).as_secs_f64() * scale;
        if raw.is_err() || !config.suppress_multipath {
            return;
        }
        let n = self.channels.len();
        let (xs, ys, fit_ws) = self.sibling.fit_columns();
        let robust = black_box(robust_line_fit_with(fit_ws, xs, ys, &config.robust));
        layers.robust_s += t2.elapsed().as_secs_f64() * scale;
        if let Ok(summary) = robust {
            layers.robust_fits += 1;
            layers.inlier_frac_sum += summary.inlier_fraction(n);
        }
    }

    /// `detector::assess` on the current observations.
    pub fn assess(&mut self, config: &DetectorConfig) -> MobilityVerdict {
        let observations = &self.observations;
        let layers = &mut self.layers;
        let verdict = timed(&mut layers.detector_s, &mut layers.spans, || {
            assess(observations, config)
        });
        layers.verdict(&verdict);
        verdict
    }

    /// Runs one solve on the current observations against `workspace`,
    /// timing it and tallying the workspace's counters.
    pub fn solve<W: Counters, R>(
        &mut self,
        workspace: &mut W,
        solve: impl FnOnce(&[AntennaObservation], &mut W) -> R,
    ) -> R {
        let (s0, p0, k0) = workspace.counters();
        let observations = &self.observations;
        let layers = &mut self.layers;
        let out = timed(&mut layers.solver_s, &mut layers.spans, || {
            solve(observations, workspace)
        });
        let (s1, p1, k1) = workspace.counters();
        let (s, p, k) = (s1.since(s0), p1.since(p0), k1.since(k0));
        layers.iterations += s.iterations;
        layers.residual_evals += s.residual_evals;
        layers.seeds_total += p.seeds_total;
        layers.seeds_refined += p.seeds_refined;
        layers.warm_hits += p.warm_start_hits;
        layers.warm_misses += p.warm_start_misses;
        layers.lambda_retries += k.lambda_retries;
        out
    }

    /// Sets the per-layer metrics of `run`, given the untraced seconds per
    /// tag estimate measured in the same run, and records as a violation
    /// any layered estimate that differed from the entry point's.
    pub fn report(&self, run: &mut Run, untraced_per_tag_s: f64, mismatches: u64) {
        if mismatches > 0 {
            run.violations.push(format!(
                "layered path differs from the entry point on {mismatches} of {} tag estimates",
                self.layers.tags
            ));
        }
        run.diagnostics
            .push(("traced_tags", JsonValue::Num(self.layers.tags as f64)));
        run.metrics = self.layers.metrics(untraced_per_tag_s, span_cost());
    }
}
