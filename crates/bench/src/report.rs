//! Console reporting with explicit paper-reference columns.

/// Prints the standard experiment header.
pub fn header(figure: &str, title: &str) {
    println!();
    println!("================================================================");
    println!("{figure}: {title}");
    println!("================================================================");
}

/// Prints one paper-vs-measured row. `paper` is the value reported in the
/// paper (already formatted, e.g. `"7.61 cm"`), `measured` ours.
pub fn row(label: &str, paper: &str, measured: &str) {
    println!("{label:<28} paper: {paper:>12}   measured: {measured:>12}");
}

/// Prints a sub-section divider.
pub fn section(name: &str) {
    println!("---- {name} ----");
}

/// Formats a centimetre value.
pub fn cm(v: f64) -> String {
    format!("{v:.2} cm")
}

/// Formats a degree value.
pub fn deg(v: f64) -> String {
    format!("{v:.2}°")
}

/// Formats a percentage (input in 0..1).
pub fn pct(v: f64) -> String {
    format!("{:.1} %", v * 100.0)
}

/// Prints selected points of an empirical CDF.
pub fn cdf_summary(name: &str, errors_cm: &[f64]) {
    use rfp_dsp::stats;
    let mean = stats::mean(errors_cm).unwrap_or(f64::NAN);
    let std = stats::std_dev(errors_cm).unwrap_or(f64::NAN);
    println!(
        "  {name:<12} mean {mean:6.2} cm  std {std:5.2}  p50 {:6.2}  p90 {:6.2}  max {:6.2}",
        stats::percentile(errors_cm, 50.0).unwrap_or(f64::NAN),
        stats::percentile(errors_cm, 90.0).unwrap_or(f64::NAN),
        stats::percentile(errors_cm, 100.0).unwrap_or(f64::NAN),
    );
}

/// Prints a row-normalized confusion matrix with material labels.
pub fn confusion_matrix(cm: &crate::metrics::ConfusionMatrix) {
    use rfp_phys::Material;
    print!("{:>10}", "");
    for m in Material::CLASSES {
        print!("{:>9}", m.label());
    }
    println!();
    let norm = cm.normalized();
    for (i, m) in Material::CLASSES.iter().enumerate() {
        print!("{:>10}", m.label());
        for v in &norm[i] {
            print!("{v:>9.2}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatters() {
        assert_eq!(cm(7.613), "7.61 cm");
        assert_eq!(deg(9.834), "9.83°");
        assert_eq!(pct(0.879), "87.9 %");
    }
}
