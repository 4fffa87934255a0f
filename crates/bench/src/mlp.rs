//! A small multi-layer perceptron — the paper's §VII future-work extension
//! ("apply more powerful deep-learning methods to improve the performance of
//! material identification").
//!
//! One hidden layer with tanh activations, a softmax output and mini-batch
//! SGD with cross-entropy loss. Deliberately modest: the point of the
//! extension bench is to check whether a learned nonlinearity buys anything
//! over the paper's decision tree on the disentangled features, not to
//! build a deep-learning framework.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfp_ml::dataset::Dataset;
use rfp_ml::Classifier;

/// Hyper-parameters for [`MlpClassifier::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlpConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Number of epochs over the training set.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed for weight initialization and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig { hidden: 32, epochs: 200, learning_rate: 0.05, batch_size: 16, seed: 7 }
    }
}

/// A fitted one-hidden-layer MLP.
///
/// # Example
///
/// ```
/// use rfp_bench::mlp::{MlpClassifier, MlpConfig};
/// use rfp_ml::{Classifier, Dataset};
/// let mut ds = Dataset::new(2);
/// for i in 0..40 {
///     let x = i as f64 / 20.0 - 1.0;
///     ds.push(vec![x], usize::from(x > 0.0));
/// }
/// let mlp = MlpClassifier::fit(&ds, &MlpConfig { epochs: 300, ..Default::default() });
/// assert_eq!(mlp.predict(&[-0.8]), 0);
/// assert_eq!(mlp.predict(&[0.8]), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MlpClassifier {
    w1: Vec<Vec<f64>>, // hidden × input
    b1: Vec<f64>,
    w2: Vec<Vec<f64>>, // classes × hidden
    b2: Vec<f64>,
}

impl MlpClassifier {
    /// Trains the network with mini-batch SGD.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or the config has a zero-sized layer,
    /// batch or epoch count.
    pub fn fit(train: &Dataset, config: &MlpConfig) -> Self {
        assert!(!train.is_empty(), "empty training set");
        assert!(config.hidden > 0 && config.batch_size > 0 && config.epochs > 0);
        let d = train.feature_dim().expect("nonempty");
        let c = train.n_classes();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let scale1 = (1.0 / d as f64).sqrt();
        let scale2 = (1.0 / config.hidden as f64).sqrt();
        let mut w1 = vec![vec![0.0; d]; config.hidden];
        let mut w2 = vec![vec![0.0; config.hidden]; c];
        for row in &mut w1 {
            for v in row.iter_mut() {
                *v = rng.gen_range(-scale1..scale1);
            }
        }
        for row in &mut w2 {
            for v in row.iter_mut() {
                *v = rng.gen_range(-scale2..scale2);
            }
        }
        let mut net = MlpClassifier { w1, b1: vec![0.0; config.hidden], w2, b2: vec![0.0; c] };

        let n = train.len();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..config.epochs {
            // Fisher–Yates shuffle.
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for batch in order.chunks(config.batch_size) {
                net.sgd_step(train, batch, config.learning_rate);
            }
        }
        net
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let hidden: Vec<f64> = self
            .w1
            .iter()
            .zip(&self.b1)
            .map(|(w, b)| (w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b).tanh())
            .collect();
        let logits: Vec<f64> = self
            .w2
            .iter()
            .zip(&self.b2)
            .map(|(w, b)| w.iter().zip(&hidden).map(|(wi, hi)| wi * hi).sum::<f64>() + b)
            .collect();
        (hidden, softmax(&logits))
    }

    fn sgd_step(&mut self, train: &Dataset, batch: &[usize], lr: f64) {
        let scale = lr / batch.len() as f64;
        for &idx in batch {
            let (x, label) = train.sample(idx);
            let (hidden, probs) = self.forward(x);
            // dL/dlogit = p − onehot
            let dlogit: Vec<f64> = probs
                .iter()
                .enumerate()
                .map(|(k, p)| p - if k == label { 1.0 } else { 0.0 })
                .collect();
            // Hidden gradient before activation derivative.
            let mut dhidden = vec![0.0f64; hidden.len()];
            for (k, dk) in dlogit.iter().enumerate() {
                for (j, h) in hidden.iter().enumerate() {
                    dhidden[j] += dk * self.w2[k][j];
                    self.w2[k][j] -= scale * dk * h;
                }
                self.b2[k] -= scale * dk;
            }
            for (j, dh) in dhidden.iter().enumerate() {
                let grad = dh * (1.0 - hidden[j] * hidden[j]); // tanh'
                for (i, xi) in x.iter().enumerate() {
                    self.w1[j][i] -= scale * grad * xi;
                }
                self.b1[j] -= scale * grad;
            }
        }
    }

    /// Class probabilities for one feature vector.
    pub fn predict_proba(&self, features: &[f64]) -> Vec<f64> {
        assert_eq!(features.len(), self.w1[0].len(), "feature dimension mismatch");
        self.forward(features).1
    }
}

fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

impl Classifier for MlpClassifier {
    fn predict(&self, features: &[f64]) -> usize {
        let p = self.predict_proba(features);
        p.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
            .map(|(i, _)| i)
            .expect("at least one class")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 999.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&v| v.is_finite() && v >= 0.0));
        assert!(p[0] > p[2]);
    }

    #[test]
    fn learns_linear_boundary() {
        let mut ds = Dataset::new(2);
        for i in 0..60 {
            let x = i as f64 / 30.0 - 1.0;
            ds.push(vec![x, -x], usize::from(x > 0.0));
        }
        let mlp = MlpClassifier::fit(&ds, &Default::default());
        assert_eq!(mlp.predict(&[-0.7, 0.7]), 0);
        assert_eq!(mlp.predict(&[0.7, -0.7]), 1);
    }

    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ds = Dataset::new(2);
        for _ in 0..200 {
            let x = rng.gen_range(-1.0..1.0f64);
            let y = rng.gen_range(-1.0..1.0f64);
            ds.push(vec![x, y], usize::from((x > 0.0) != (y > 0.0)));
        }
        let cfg = MlpConfig { hidden: 16, epochs: 400, learning_rate: 0.1, ..Default::default() };
        let mlp = MlpClassifier::fit(&ds, &cfg);
        assert_eq!(mlp.predict(&[0.6, 0.6]), 0);
        assert_eq!(mlp.predict(&[-0.6, -0.6]), 0);
        assert_eq!(mlp.predict(&[0.6, -0.6]), 1);
        assert_eq!(mlp.predict(&[-0.6, 0.6]), 1);
    }

    #[test]
    fn probabilities_valid() {
        let mut ds = Dataset::new(3);
        for i in 0..30 {
            ds.push(vec![i as f64], i % 3);
        }
        let mlp = MlpClassifier::fit(&ds, &MlpConfig { epochs: 10, ..Default::default() });
        let p = mlp.predict_proba(&[5.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut ds = Dataset::new(2);
        for i in 0..20 {
            ds.push(vec![i as f64 / 10.0], usize::from(i >= 10));
        }
        let cfg = MlpConfig { epochs: 50, ..Default::default() };
        let a = MlpClassifier::fit(&ds, &cfg);
        let b = MlpClassifier::fit(&ds, &cfg);
        assert_eq!(a.predict_proba(&[0.4]), b.predict_proba(&[0.4]));
    }

    #[test]
    #[should_panic]
    fn empty_training_panics() {
        let _ = MlpClassifier::fit(&Dataset::new(1), &Default::default());
    }
}
