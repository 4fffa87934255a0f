//! Soft-margin SVM trained with simplified SMO.
//!
//! The paper's middle classifier (83.5 %, Fig. 13). Binary machines are
//! trained with John Platt's simplified Sequential Minimal Optimization and
//! combined one-vs-one with majority voting for the 8-class material task.
//! Both a linear and an RBF kernel are provided; the paper notes SVM
//! performance "varies with different kernel functions", which the
//! classifier-comparison bench reproduces by sweeping both.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_ml::dataset::Dataset;
use rfp_ml::Classifier;

/// SVM kernel functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Inner product `x·y`.
    Linear,
    /// Gaussian RBF `exp(−γ ‖x−y‖²)`.
    Rbf {
        /// Kernel width γ.
        gamma: f64,
    },
}

impl Kernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Kernel::Linear => a.iter().zip(b).map(|(x, y)| x * y).sum(),
            Kernel::Rbf { gamma } => {
                let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
        }
    }
}

/// Hyper-parameters for SVM training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmConfig {
    /// Soft-margin penalty C.
    pub c: f64,
    /// Kernel.
    pub kernel: Kernel,
    /// KKT violation tolerance.
    pub tolerance: f64,
    /// Number of full passes without a change before declaring convergence.
    pub max_passes: usize,
    /// Hard cap on optimization sweeps (guards worst-case inputs).
    pub max_iterations: usize,
    /// RNG seed for the SMO partner choice.
    pub seed: u64,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            c: 1.0,
            kernel: Kernel::Rbf { gamma: 0.05 },
            tolerance: 1e-3,
            max_passes: 5,
            max_iterations: 200,
            seed: 0x5eed,
        }
    }
}

/// A binary soft-margin SVM (labels internally ±1).
#[derive(Debug, Clone)]
struct BinarySvm {
    support_vectors: Vec<Vec<f64>>,
    coefficients: Vec<f64>, // αᵢ yᵢ for each support vector
    bias: f64,
    kernel: Kernel,
}

impl BinarySvm {
    /// Trains on `features` with ±1 `targets` using simplified SMO.
    fn fit(features: &[Vec<f64>], targets: &[f64], config: &SvmConfig) -> Self {
        let n = features.len();
        debug_assert!(n >= 2);
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Precompute the kernel matrix (n is small in this workspace).
        let mut k = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in i..n {
                let v = config.kernel.eval(&features[i], &features[j]);
                k[i][j] = v;
                k[j][i] = v;
            }
        }

        let mut alpha = vec![0.0f64; n];
        let mut bias = 0.0f64;
        let f = |alpha: &[f64], bias: f64, k: &[Vec<f64>], idx: usize| -> f64 {
            let mut s = bias;
            for i in 0..n {
                if alpha[i] > 0.0 {
                    s += alpha[i] * targets[i] * k[i][idx];
                }
            }
            s
        };

        let mut passes = 0usize;
        let mut iterations = 0usize;
        while passes < config.max_passes && iterations < config.max_iterations {
            iterations += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let e_i = f(&alpha, bias, &k, i) - targets[i];
                let r = targets[i] * e_i;
                if (r < -config.tolerance && alpha[i] < config.c)
                    || (r > config.tolerance && alpha[i] > 0.0)
                {
                    let mut j = rng.gen_range(0..n - 1);
                    if j >= i {
                        j += 1;
                    }
                    let e_j = f(&alpha, bias, &k, j) - targets[j];
                    let (a_i_old, a_j_old) = (alpha[i], alpha[j]);
                    let (lo, hi) = if (targets[i] - targets[j]).abs() > 1e-12 {
                        (
                            (alpha[j] - alpha[i]).max(0.0),
                            (config.c + alpha[j] - alpha[i]).min(config.c),
                        )
                    } else {
                        (
                            (alpha[i] + alpha[j] - config.c).max(0.0),
                            (alpha[i] + alpha[j]).min(config.c),
                        )
                    };
                    if hi - lo < 1e-12 {
                        continue;
                    }
                    let eta = 2.0 * k[i][j] - k[i][i] - k[j][j];
                    if eta >= 0.0 {
                        continue;
                    }
                    let mut a_j = a_j_old - targets[j] * (e_i - e_j) / eta;
                    a_j = a_j.clamp(lo, hi);
                    if (a_j - a_j_old).abs() < 1e-7 {
                        continue;
                    }
                    let a_i = a_i_old + targets[i] * targets[j] * (a_j_old - a_j);
                    alpha[i] = a_i;
                    alpha[j] = a_j;
                    let b1 = bias
                        - e_i
                        - targets[i] * (a_i - a_i_old) * k[i][i]
                        - targets[j] * (a_j - a_j_old) * k[i][j];
                    let b2 = bias
                        - e_j
                        - targets[i] * (a_i - a_i_old) * k[i][j]
                        - targets[j] * (a_j - a_j_old) * k[j][j];
                    bias = if a_i > 0.0 && a_i < config.c {
                        b1
                    } else if a_j > 0.0 && a_j < config.c {
                        b2
                    } else {
                        (b1 + b2) / 2.0
                    };
                    changed += 1;
                }
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        // Keep only the support vectors.
        let mut support_vectors = Vec::new();
        let mut coefficients = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-9 {
                support_vectors.push(features[i].clone());
                coefficients.push(alpha[i] * targets[i]);
            }
        }
        BinarySvm { support_vectors, coefficients, bias, kernel: config.kernel }
    }

    /// Decision value `f(x)`; positive → class +1.
    fn decision(&self, x: &[f64]) -> f64 {
        let mut s = self.bias;
        for (sv, c) in self.support_vectors.iter().zip(&self.coefficients) {
            s += c * self.kernel.eval(sv, x);
        }
        s
    }
}

/// One-vs-one multiclass SVM.
///
/// # Example
///
/// ```
/// use rfp_bench::svm::{Kernel, SvmClassifier, SvmConfig};
/// use rfp_ml::{Classifier, Dataset};
/// let mut ds = Dataset::new(2);
/// for i in 0..10 {
///     ds.push(vec![i as f64 / 10.0], 0);
///     ds.push(vec![2.0 + i as f64 / 10.0], 1);
/// }
/// let cfg = SvmConfig { kernel: Kernel::Linear, ..Default::default() };
/// let svm = SvmClassifier::fit(&ds, &cfg);
/// assert_eq!(svm.predict(&[0.2]), 0);
/// assert_eq!(svm.predict(&[2.7]), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SvmClassifier {
    machines: Vec<(usize, usize, BinarySvm)>,
    n_classes: usize,
    n_features: usize,
}

impl SvmClassifier {
    /// Trains `n·(n−1)/2` pairwise machines.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or has fewer than two distinct classes
    /// with at least one sample each.
    pub fn fit(train: &Dataset, config: &SvmConfig) -> Self {
        assert!(!train.is_empty(), "empty training set");
        let n_classes = train.n_classes();
        let counts = train.class_counts();
        let present: Vec<usize> =
            (0..n_classes).filter(|&c| counts[c] > 0).collect();
        assert!(present.len() >= 2, "need at least two classes with samples");

        let mut machines = Vec::new();
        for (ai, &a) in present.iter().enumerate() {
            for &b in &present[ai + 1..] {
                let mut feats = Vec::new();
                let mut targs = Vec::new();
                for i in 0..train.len() {
                    let (f, l) = train.sample(i);
                    if l == a {
                        feats.push(f.to_vec());
                        targs.push(1.0);
                    } else if l == b {
                        feats.push(f.to_vec());
                        targs.push(-1.0);
                    }
                }
                machines.push((a, b, BinarySvm::fit(&feats, &targs, config)));
            }
        }
        SvmClassifier {
            machines,
            n_classes,
            n_features: train.feature_dim().expect("nonempty"),
        }
    }

    /// Number of pairwise machines trained.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }
}

impl Classifier for SvmClassifier {
    fn predict(&self, features: &[f64]) -> usize {
        assert_eq!(features.len(), self.n_features, "feature dimension mismatch");
        let mut votes = vec![0usize; self.n_classes];
        let mut margins = vec![0.0f64; self.n_classes];
        for (a, b, m) in &self.machines {
            let d = m.decision(features);
            if d >= 0.0 {
                votes[*a] += 1;
                margins[*a] += d;
            } else {
                votes[*b] += 1;
                margins[*b] -= d;
            }
        }
        // Majority vote; ties break by accumulated margin.
        (0..self.n_classes)
            .max_by(|&x, &y| {
                votes[x]
                    .cmp(&votes[y])
                    .then(margins[x].partial_cmp(&margins[y]).expect("finite"))
            })
            .expect("at least one class")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn blobs(centres: &[(f64, f64)], n: usize, spread: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(centres.len());
        for (c, &(cx, cy)) in centres.iter().enumerate() {
            for _ in 0..n {
                ds.push(
                    vec![
                        cx + rng.gen_range(-spread..spread),
                        cy + rng.gen_range(-spread..spread),
                    ],
                    c,
                );
            }
        }
        ds
    }

    #[test]
    fn linear_kernel_separates_blobs() {
        let ds = blobs(&[(0.0, 0.0), (4.0, 4.0)], 30, 0.8, 1);
        let cfg = SvmConfig { kernel: Kernel::Linear, ..Default::default() };
        let svm = SvmClassifier::fit(&ds, &cfg);
        assert_eq!(svm.predict(&[0.0, 0.0]), 0);
        assert_eq!(svm.predict(&[4.0, 4.0]), 1);
        assert_eq!(svm.machine_count(), 1);
    }

    #[test]
    fn rbf_kernel_handles_nonlinear_boundary() {
        // Class 0 inside a ring of class 1: linearly inseparable.
        let mut rng = StdRng::seed_from_u64(2);
        let mut ds = Dataset::new(2);
        for _ in 0..60 {
            let a = rng.gen_range(0.0..std::f64::consts::TAU);
            let r_in = rng.gen_range(0.0..0.8);
            ds.push(vec![r_in * a.cos(), r_in * a.sin()], 0);
            let r_out = rng.gen_range(2.0..2.6);
            ds.push(vec![r_out * a.cos(), r_out * a.sin()], 1);
        }
        let cfg = SvmConfig { kernel: Kernel::Rbf { gamma: 1.0 }, ..Default::default() };
        let svm = SvmClassifier::fit(&ds, &cfg);
        assert_eq!(svm.predict(&[0.0, 0.0]), 0);
        assert_eq!(svm.predict(&[2.3, 0.0]), 1);
        assert_eq!(svm.predict(&[0.0, -2.2]), 1);
    }

    #[test]
    fn multiclass_one_vs_one_votes() {
        let ds = blobs(&[(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)], 25, 0.7, 3);
        let svm = SvmClassifier::fit(&ds, &Default::default());
        assert_eq!(svm.machine_count(), 3);
        assert_eq!(svm.predict(&[0.0, 0.0]), 0);
        assert_eq!(svm.predict(&[5.0, 0.0]), 1);
        assert_eq!(svm.predict(&[0.0, 5.0]), 2);
    }

    #[test]
    fn generalizes_to_test_split() {
        let ds = blobs(&[(0.0, 0.0), (3.5, 3.5)], 60, 1.0, 4);
        let (train, test) = ds.stratified_split(0.5, 9);
        let svm = SvmClassifier::fit(&train, &Default::default());
        let preds = svm.predict_batch(test.features());
        let acc = crate::metrics::accuracy(test.labels(), &preds);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = blobs(&[(0.0, 0.0), (3.0, 3.0)], 20, 0.5, 5);
        let a = SvmClassifier::fit(&ds, &Default::default());
        let b = SvmClassifier::fit(&ds, &Default::default());
        let q = vec![vec![1.5, 1.5], vec![0.1, 0.4], vec![2.9, 2.6]];
        assert_eq!(a.predict_batch(&q), b.predict_batch(&q));
    }

    #[test]
    fn kernel_values() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let r = Kernel::Rbf { gamma: 0.5 }.eval(&[0.0], &[2.0]);
        assert!((r - (-2.0f64).exp()).abs() < 1e-12);
        assert_eq!(Kernel::Rbf { gamma: 0.5 }.eval(&[1.0], &[1.0]), 1.0);
    }

    #[test]
    #[should_panic]
    fn single_class_panics() {
        let mut ds = Dataset::new(2);
        ds.push(vec![0.0], 0);
        ds.push(vec![1.0], 0);
        let _ = SvmClassifier::fit(&ds, &Default::default());
    }
}
