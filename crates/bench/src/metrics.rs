//! Classification metrics: accuracy and confusion matrices.
//!
//! The paper reports overall accuracy (Figs. 10, 12, 13, 17–20) and a
//! row-normalized 8×8 confusion matrix (Fig. 11); both are produced here.

use std::fmt;

/// Overall accuracy of `predicted` against `truth`.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn accuracy(truth: &[usize], predicted: &[usize]) -> f64 {
    assert_eq!(truth.len(), predicted.len(), "length mismatch");
    assert!(!truth.is_empty(), "no samples");
    let hits = truth.iter().zip(predicted).filter(|(t, p)| t == p).count();
    hits as f64 / truth.len() as f64
}

/// A confusion matrix over `n` classes; `counts[t][p]` is the number of
/// samples of true class `t` predicted as class `p`.
///
/// # Example
///
/// ```
/// use rfp_bench::metrics::ConfusionMatrix;
/// let cm = ConfusionMatrix::from_predictions(2, &[0, 0, 1, 1], &[0, 1, 1, 1]);
/// assert_eq!(cm.count(0, 1), 1);
/// assert_eq!(cm.class_accuracy(1), Some(1.0));
/// assert!((cm.accuracy() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    n: usize,
    counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// An empty matrix over `n` classes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one class");
        ConfusionMatrix { n, counts: vec![vec![0; n]; n] }
    }

    /// Builds a matrix from parallel truth/prediction slices.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or out-of-range labels.
    pub fn from_predictions(n: usize, truth: &[usize], predicted: &[usize]) -> Self {
        assert_eq!(truth.len(), predicted.len(), "length mismatch");
        let mut cm = ConfusionMatrix::new(n);
        for (&t, &p) in truth.iter().zip(predicted) {
            cm.record(t, p);
        }
        cm
    }

    /// Records one (truth, prediction) pair.
    ///
    /// # Panics
    ///
    /// Panics if either label is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(truth < self.n && predicted < self.n, "label out of range");
        self.counts[truth][predicted] += 1;
    }

    /// Merges another matrix into this one.
    ///
    /// # Panics
    ///
    /// Panics if the class counts differ.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(self.n, other.n, "class count mismatch");
        for t in 0..self.n {
            for p in 0..self.n {
                self.counts[t][p] += other.counts[t][p];
            }
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n
    }

    /// Raw count for (truth, predicted).
    pub fn count(&self, truth: usize, predicted: usize) -> usize {
        self.counts[truth][predicted]
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> usize {
        self.counts.iter().map(|r| r.iter().sum::<usize>()).sum()
    }

    /// Overall accuracy; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: usize = (0..self.n).map(|i| self.counts[i][i]).sum();
        diag as f64 / total as f64
    }

    /// Recall of class `t` (diagonal over row sum), `None` when the class
    /// has no samples.
    pub fn class_accuracy(&self, t: usize) -> Option<f64> {
        let row: usize = self.counts[t].iter().sum();
        if row == 0 {
            None
        } else {
            Some(self.counts[t][t] as f64 / row as f64)
        }
    }

    /// Row-normalized matrix (each row sums to 1; empty rows stay zero) —
    /// the presentation of the paper's Fig. 11.
    pub fn normalized(&self) -> Vec<Vec<f64>> {
        self.counts
            .iter()
            .map(|row| {
                let s: usize = row.iter().sum();
                if s == 0 {
                    vec![0.0; self.n]
                } else {
                    row.iter().map(|&c| c as f64 / s as f64).collect()
                }
            })
            .collect()
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let norm = self.normalized();
        for row in &norm {
            for v in row {
                write!(f, "{v:5.2} ")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 2]), 1.0);
        assert_eq!(accuracy(&[0, 1], &[1, 1]), 0.5);
    }

    #[test]
    #[should_panic]
    fn accuracy_empty_panics() {
        let _ = accuracy(&[], &[]);
    }

    #[test]
    fn confusion_counts_and_accuracy() {
        let cm = ConfusionMatrix::from_predictions(3, &[0, 0, 1, 2, 2], &[0, 1, 1, 2, 0]);
        assert_eq!(cm.total(), 5);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.count(2, 0), 1);
        assert!((cm.accuracy() - 3.0 / 5.0).abs() < 1e-12);
        assert_eq!(cm.class_accuracy(1), Some(1.0));
        assert_eq!(cm.class_accuracy(0), Some(0.5));
    }

    #[test]
    fn normalized_rows_sum_to_one() {
        let cm = ConfusionMatrix::from_predictions(2, &[0, 0, 0, 1], &[0, 0, 1, 1]);
        let n = cm.normalized();
        for row in &n {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        assert!((n[0][0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_class_row_is_zero() {
        let mut cm = ConfusionMatrix::new(3);
        cm.record(0, 0);
        assert_eq!(cm.class_accuracy(2), None);
        assert_eq!(cm.normalized()[2], vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn merge_adds_counts() {
        let a = ConfusionMatrix::from_predictions(2, &[0, 1], &[0, 1]);
        let mut b = ConfusionMatrix::from_predictions(2, &[0, 1], &[1, 1]);
        b.merge(&a);
        assert_eq!(b.total(), 4);
        assert_eq!(b.count(0, 0), 1);
        assert_eq!(b.count(0, 1), 1);
    }

    #[test]
    fn display_nonempty() {
        let cm = ConfusionMatrix::from_predictions(2, &[0, 1], &[0, 1]);
        assert!(!format!("{cm}").is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_record_panics() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(2, 0);
    }
}
