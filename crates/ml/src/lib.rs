//! The classifier RF-Prism deploys, from scratch.
//!
//! The paper identifies the material of a tagged target from the
//! disentangled feature vector `F = (k_t, b_t, θ_material(f₁..f₅₀))` with
//! a decision tree (§V-B), which wins its Fig. 13 comparison at 87.9 %.
//! No maintained pure-Rust crate suits this workspace, so the pieces
//! `rfp_core::MaterialIdentifier` needs are implemented here:
//!
//! * [`dataset`] — feature matrices with labels, seeded train/test splits
//!   and k-fold cross-validation;
//! * [`scaler`] — per-feature standardization of the mixed-magnitude
//!   RF-Prism features;
//! * [`tree`] — CART decision tree with Gini impurity.
//!
//! The classifiers RF-Prism is only compared with (Fig. 13's KNN and SVM,
//! the random forest and MLP extensions), model selection and the
//! evaluation metrics live in the `rfp-bench` harness; the DTW engine of
//! the Tagtag baseline lives in `rfp-baselines`.
//!
//! # Example
//!
//! ```
//! use rfp_ml::dataset::Dataset;
//! use rfp_ml::tree::DecisionTree;
//! use rfp_ml::Classifier;
//!
//! let mut ds = Dataset::new(2);
//! for i in 0..20 {
//!     let x = i as f64 / 10.0;
//!     ds.push(vec![x, 1.0 - x], usize::from(x >= 1.0));
//! }
//! let tree = DecisionTree::fit(&ds, &Default::default());
//! assert_eq!(tree.predict(&[0.1, 0.9]), 0);
//! assert_eq!(tree.predict(&[1.9, -0.9]), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod scaler;
pub mod tree;

pub use dataset::Dataset;

/// A trained multi-class classifier mapping a feature vector to a class
/// index.
///
/// The decision tree implements it here, and the compared classifiers of
/// the bench harness and the Tagtag baseline do too, so evaluation code
/// (e.g. the Fig. 13 classifier comparison) can be generic.
pub trait Classifier {
    /// Predicts the class index for one feature vector.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `features` has a different length than
    /// the training data.
    fn predict(&self, features: &[f64]) -> usize;

    /// Predicts a batch of feature vectors.
    fn predict_batch(&self, features: &[Vec<f64>]) -> Vec<usize> {
        features.iter().map(|f| self.predict(f)).collect()
    }
}
