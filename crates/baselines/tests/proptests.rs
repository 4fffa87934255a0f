//! Property-based tests for the DTW engine of the Tagtag baseline.

use proptest::prelude::*;
use rfp_baselines::dtw::dtw_distance;

proptest! {
    #[test]
    fn dtw_triangle_like_properties(
        a in proptest::collection::vec(-5.0f64..5.0, 1..20),
        b in proptest::collection::vec(-5.0f64..5.0, 1..20),
    ) {
        let dab = dtw_distance(&a, &b, None);
        let dba = dtw_distance(&b, &a, None);
        prop_assert!((dab - dba).abs() < 1e-9, "symmetry");
        prop_assert!(dab >= 0.0);
        prop_assert!(dtw_distance(&a, &a, None) < 1e-12, "identity");
        // Lockstep distance upper-bounds DTW for equal lengths.
        if a.len() == b.len() {
            let lockstep: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            prop_assert!(dab <= lockstep + 1e-9);
        }
    }
}
