//! Dynamic Time Warping and the 1-NN DTW classifier.
//!
//! The Tagtag baseline (paper §VI-B) matches a query tag's phase-vs-channel
//! curve against labelled template curves with DTW and takes the label of
//! the closest template. DTW tolerates the small per-channel shifts that a
//! residual distance error leaves in the curve — which is exactly why
//! Tagtag survives *some* distance variation but degrades when the RSS
//! normalization is badly off (paper Fig. 18).

use rfp_ml::Classifier;

/// DTW distance between two series with an optional Sakoe–Chiba window.
///
/// With `window = None` the full alignment matrix is evaluated; with
/// `Some(w)` the warping path is constrained to `|i − j| ≤ w` (after the
/// standard length-difference adjustment), which is both faster and a
/// better metric for near-aligned series.
///
/// Returns `f64::INFINITY` if either series is empty.
///
/// # Example
///
/// ```
/// use rfp_baselines::dtw::dtw_distance;
/// let a = [0.0, 1.0, 2.0, 3.0];
/// assert_eq!(dtw_distance(&a, &a, None), 0.0);
/// // A shifted copy is closer under DTW than under lockstep distance:
/// let b = [0.0, 0.0, 1.0, 2.0];
/// assert!(dtw_distance(&a, &b, None) < 3.0);
/// ```
pub fn dtw_distance(a: &[f64], b: &[f64], window: Option<usize>) -> f64 {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return f64::INFINITY;
    }
    let w = match window {
        // Window must at least bridge the length difference.
        Some(w) => w.max(n.abs_diff(m)),
        None => n.max(m),
    };
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut curr = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        curr.fill(f64::INFINITY);
        let j_lo = 1.max(i.saturating_sub(w));
        let j_hi = m.min(i + w);
        for j in j_lo..=j_hi {
            let cost = (a[i - 1] - b[j - 1]).abs();
            let best = prev[j].min(curr[j - 1]).min(prev[j - 1]);
            curr[j] = cost + best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// A 1-nearest-neighbour classifier under DTW distance over stored
/// template series.
///
/// # Example
///
/// ```
/// use rfp_baselines::dtw::DtwNearestNeighbor;
/// use rfp_ml::Classifier;
/// let mut nn = DtwNearestNeighbor::new(2, Some(3));
/// nn.add_template(vec![0.0, 0.0, 0.0], 0);
/// nn.add_template(vec![0.0, 1.0, 2.0], 1);
/// assert_eq!(nn.predict(&[0.1, -0.1, 0.05]), 0);
/// assert_eq!(nn.predict(&[0.2, 1.1, 1.9]), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DtwNearestNeighbor {
    templates: Vec<(Vec<f64>, usize)>,
    n_classes: usize,
    window: Option<usize>,
}

impl DtwNearestNeighbor {
    /// Creates an empty classifier over `n_classes` with the given warping
    /// window.
    ///
    /// # Panics
    ///
    /// Panics if `n_classes == 0`.
    pub fn new(n_classes: usize, window: Option<usize>) -> Self {
        assert!(n_classes > 0);
        DtwNearestNeighbor { templates: Vec::new(), n_classes, window }
    }

    /// Adds one labelled template series.
    ///
    /// # Panics
    ///
    /// Panics if `label >= n_classes` or the series is empty.
    pub fn add_template(&mut self, series: Vec<f64>, label: usize) {
        assert!(label < self.n_classes, "label out of range");
        assert!(!series.is_empty(), "empty template series");
        self.templates.push((series, label));
    }

    /// Number of stored templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// DTW distance from `series` to the nearest template of each class
    /// (`f64::INFINITY` for classes with no templates). Useful for
    /// confidence inspection.
    pub fn class_distances(&self, series: &[f64]) -> Vec<f64> {
        let mut dist = vec![f64::INFINITY; self.n_classes];
        for (t, l) in &self.templates {
            let d = dtw_distance(series, t, self.window);
            if d < dist[*l] {
                dist[*l] = d;
            }
        }
        dist
    }
}

impl Classifier for DtwNearestNeighbor {
    /// # Panics
    ///
    /// Panics if no templates have been added.
    fn predict(&self, features: &[f64]) -> usize {
        assert!(!self.templates.is_empty(), "no templates");
        self.templates
            .iter()
            .map(|(t, l)| (dtw_distance(features, t, self.window), *l))
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"))
            .map(|(_, l)| l)
            .expect("nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_distance_zero() {
        let s = [1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw_distance(&s, &s, None), 0.0);
        assert_eq!(dtw_distance(&s, &s, Some(1)), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = [0.0, 1.0, 0.5];
        let b = [0.2, 0.9, 0.1, 0.3];
        assert!((dtw_distance(&a, &b, None) - dtw_distance(&b, &a, None)).abs() < 1e-12);
    }

    #[test]
    fn empty_series_infinite() {
        assert_eq!(dtw_distance(&[], &[1.0], None), f64::INFINITY);
        assert_eq!(dtw_distance(&[1.0], &[], None), f64::INFINITY);
    }

    #[test]
    fn warping_beats_lockstep_on_shifted_series() {
        let a: Vec<f64> = (0..20).map(|i| ((i as f64) * 0.5).sin()).collect();
        // b is a delayed by 2 samples.
        let b: Vec<f64> = (0..20)
            .map(|i| (((i as f64) - 2.0).max(0.0) * 0.5).sin())
            .collect();
        let lockstep: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        let dtw = dtw_distance(&a, &b, None);
        assert!(dtw < lockstep, "dtw {dtw} lockstep {lockstep}");
    }

    #[test]
    fn window_constrains_warping() {
        let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| i as f64 + 5.0).collect();
        // Tight window forces near-lockstep alignment → larger distance.
        let tight = dtw_distance(&a, &b, Some(0));
        let loose = dtw_distance(&a, &b, None);
        assert!(tight >= loose);
    }

    #[test]
    fn different_lengths_supported() {
        let a = [0.0, 1.0, 2.0, 3.0, 4.0];
        let b = [0.0, 2.0, 4.0];
        let d = dtw_distance(&a, &b, Some(1));
        assert!(d.is_finite());
    }

    #[test]
    fn nearest_neighbour_classifies() {
        let mut nn = DtwNearestNeighbor::new(2, None);
        for k in 0..5 {
            let flat: Vec<f64> = (0..10).map(|_| 0.1 * k as f64).collect();
            let ramp: Vec<f64> = (0..10).map(|i| 0.3 * i as f64 + 0.1 * k as f64).collect();
            nn.add_template(flat, 0);
            nn.add_template(ramp, 1);
        }
        assert_eq!(nn.template_count(), 10);
        assert_eq!(nn.predict(&[0.2; 10]), 0);
        let q: Vec<f64> = (0..10).map(|i| 0.28 * i as f64).collect();
        assert_eq!(nn.predict(&q), 1);
        let d = nn.class_distances(&[0.2; 10]);
        assert!(d[0] < d[1]);
    }

    #[test]
    #[should_panic]
    fn predict_without_templates_panics() {
        let nn = DtwNearestNeighbor::new(1, None);
        let _ = nn.predict(&[1.0]);
    }
}
