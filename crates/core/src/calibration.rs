//! Device-diversity calibration (paper §V-B).
//!
//! `k_t`/`b_t` are not determined by the target material alone — the
//! reader-tag hardware pair contributes its own phase response (imperfect
//! manufacturing, chip modulator offset). The paper removes it with a
//! **one-time** pre-deployment calibration: each bare tag is placed at a
//! known position with known orientation, the phase is collected across all
//! channels, and the known `θ_prop` and `θ_orient` are subtracted; what
//! remains is the tag's own `θ_device0(f)`, stored in a database keyed by
//! tag id. Unlike the environment-dependent calibrations of prior systems,
//! this is needed once per tag, ever — and only when RF-Prism is used for
//! material identification.

use crate::model::AntennaObservation;
use rfp_dsp::linfit;
use rfp_geom::{angle, Vec2};
use rfp_phys::polarization::{orientation_phase, planar_dipole};
use rfp_phys::propagation;
use std::collections::BTreeMap;

/// The calibrated free-space device response `θ_device0` of one tag.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceCalibration {
    /// Per-channel `(channel, frequency_hz, θ_device0 mod 2π)`.
    samples: Vec<(usize, f64, f64)>,
    /// Slope of the free-space device line `k_t0`, rad/Hz.
    kt0: f64,
    /// Intercept of the free-space device line `b_t0`, radians in `[0, 2π)`.
    bt0: f64,
}

impl DeviceCalibration {
    /// Derives a calibration from observations of the **bare** tag at a
    /// known planar position and orientation.
    ///
    /// Every antenna contributes an independent estimate of the device
    /// curve; they are circularly averaged per channel.
    ///
    /// # Panics
    ///
    /// Panics if `observations` is empty.
    pub fn from_observations(
        observations: &[AntennaObservation],
        known_position: Vec2,
        known_alpha: f64,
    ) -> Self {
        assert!(!observations.is_empty(), "need at least one antenna observation");
        let w = planar_dipole(known_alpha);

        // Collect per-channel device-phase estimates across antennas.
        let mut per_channel: BTreeMap<usize, (f64, Vec<f64>)> = BTreeMap::new();
        let mut kt0s = Vec::new();
        let mut bt0s = Vec::new();
        for obs in observations {
            let d = obs.pose.position().distance(known_position.with_z(0.0));
            let theta_orient = orientation_phase(&obs.pose, w);
            let k_prop = propagation::slope_from_distance(d);

            // Per-channel device phase (arbitrary common 2π offset).
            let mut xs = Vec::with_capacity(obs.channels.len());
            let mut ys = Vec::with_capacity(obs.channels.len());
            for c in &obs.channels {
                let device = c.phase - k_prop * c.frequency_hz - theta_orient;
                per_channel
                    .entry(c.channel)
                    .or_insert_with(|| (c.frequency_hz, Vec::new()))
                    .1
                    .push(angle::wrap_tau(device));
                xs.push(c.frequency_hz);
                ys.push(device);
            }
            // Device line of this antenna (offset cancels in the slope; the
            // intercept is kept modulo 2π).
            if let Ok((slope, intercept)) = linfit::ols_line(&xs, &ys) {
                kt0s.push(slope);
                bt0s.push(intercept);
            }
        }

        let samples: Vec<(usize, f64, f64)> = per_channel
            .into_iter()
            .map(|(ch, (f, vals))| {
                let mean = angle::circular_mean(vals.iter().copied()).unwrap_or(vals[0]);
                (ch, f, angle::wrap_tau(mean))
            })
            .collect();
        let kt0 = kt0s.iter().sum::<f64>() / kt0s.len().max(1) as f64;
        let bt0 = angle::circular_mean(bt0s.iter().copied()).unwrap_or(0.0);
        DeviceCalibration { samples, kt0, bt0: angle::wrap_tau(bt0) }
    }

    /// Free-space device slope `k_t0`, rad/Hz.
    pub fn kt0(&self) -> f64 {
        self.kt0
    }

    /// Free-space device intercept `b_t0`, radians in `[0, 2π)`.
    pub fn bt0(&self) -> f64 {
        self.bt0
    }

    /// Number of calibrated channels.
    pub fn channel_count(&self) -> usize {
        self.samples.len()
    }

    /// Calibrated `θ_device0` (mod 2π) for a channel index, if present.
    pub fn device_phase(&self, channel: usize) -> Option<f64> {
        self.samples
            .iter()
            .find(|(ch, _, _)| *ch == channel)
            .map(|&(_, _, v)| v)
    }

    /// Iterates `(channel, frequency_hz, θ_device0)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        self.samples.iter().copied()
    }
}

/// A persistent store of per-tag calibrations, keyed by tag id — the
/// paper's calibration "database".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationDb {
    entries: BTreeMap<u64, DeviceCalibration>,
}

/// Errors from [`CalibrationDb::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbParseError {
    /// A line did not match the expected `key value...` shape.
    Malformed {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for DbParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbParseError::Malformed { line } => write!(f, "malformed record at line {line}"),
            DbParseError::BadNumber { line } => write!(f, "bad number at line {line}"),
        }
    }
}

impl std::error::Error for DbParseError {}

impl CalibrationDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (or replaces) the calibration for `tag_id`.
    pub fn insert(&mut self, tag_id: u64, calibration: DeviceCalibration) {
        self.entries.insert(tag_id, calibration);
    }

    /// Looks up a tag's calibration.
    pub fn get(&self, tag_id: u64) -> Option<&DeviceCalibration> {
        self.entries.get(&tag_id)
    }

    /// Number of calibrated tags.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to a simple line-oriented text format (one `tag` block
    /// per entry) suitable for a flat file.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (id, cal) in &self.entries {
            out.push_str(&format!(
                "tag {id} {:e} {:e} {}\n",
                cal.kt0,
                cal.bt0,
                cal.samples.len()
            ));
            for &(ch, f, v) in &cal.samples {
                out.push_str(&format!("{ch} {f:e} {v:e}\n"));
            }
        }
        out
    }

    /// Parses the format produced by [`CalibrationDb::to_text`].
    ///
    /// # Errors
    ///
    /// [`DbParseError`] on any structural or numeric problem.
    pub fn from_text(text: &str) -> Result<Self, DbParseError> {
        // `"NaN".parse()` succeeds: a field holding a non-finite number is
        // as bad as one holding no number.
        let finite = |v: &str| v.parse::<f64>().ok().filter(|x| x.is_finite());
        let mut db = CalibrationDb::new();
        let mut lines = text.lines().enumerate();
        while let Some((ln, line)) = lines.next() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            if parts.next() != Some("tag") {
                return Err(DbParseError::Malformed { line: ln + 1 });
            }
            let bad = DbParseError::BadNumber { line: ln + 1 };
            let id: u64 = parts.next().and_then(|v| v.parse().ok()).ok_or(bad.clone())?;
            let kt0 = parts.next().and_then(finite).ok_or(bad.clone())?;
            let bt0 = parts.next().and_then(finite).ok_or(bad.clone())?;
            let n: usize = parts.next().and_then(|v| v.parse().ok()).ok_or(bad)?;
            // The count is unchecked: the list grows as its lines arrive,
            // so a count beyond the file is a truncation, not an allocation.
            let mut samples = Vec::new();
            for _ in 0..n {
                let (sln, sline) = lines.next().ok_or(DbParseError::Malformed { line: ln + 1 })?;
                let mut p = sline.split_whitespace();
                let bad = DbParseError::BadNumber { line: sln + 1 };
                let ch: usize = p.next().and_then(|v| v.parse().ok()).ok_or(bad.clone())?;
                let f = p.next().and_then(finite).ok_or(bad.clone())?;
                let v = p.next().and_then(finite).ok_or(bad)?;
                samples.push((ch, f, v));
            }
            db.insert(id, DeviceCalibration { samples, kt0, bt0 });
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{extract_observation, ExtractConfig};
    use rfp_sim::{Motion, NoiseModel, ReaderConfig, Scene, SimTag};

    fn calibrate_tag(seed: u64) -> (DeviceCalibration, rfp_sim::SimTag, Scene) {
        let scene = Scene::standard_2d()
            .with_noise(NoiseModel::clean())
            .with_reader(ReaderConfig::ideal());
        let pos = Vec2::new(0.5, 1.0);
        let alpha = 0.0;
        let tag = SimTag::with_seeded_diversity(seed)
            .with_motion(Motion::planar_static(pos, alpha));
        let survey = scene.survey(&tag, 100 + seed);
        let obs: Vec<AntennaObservation> = scene
            .antenna_poses()
            .iter()
            .zip(&survey.per_antenna)
            .map(|(&p, r)| extract_observation(p, r, &ExtractConfig::paper()).unwrap())
            .collect();
        (DeviceCalibration::from_observations(&obs, pos, alpha), tag, scene)
    }

    #[test]
    fn recovers_true_device_line() {
        let (cal, tag, scene) = calibrate_tag(1);
        let truth = tag.electrical().linearized(&scene.reader().plan);
        assert!((cal.kt0() - truth.kt).abs() < 1e-10, "kt0 {} vs {}", cal.kt0(), truth.kt);
        assert!(
            angle::distance(cal.bt0(), angle::wrap_tau(truth.bt)) < 0.05,
            "bt0 {} vs {}",
            cal.bt0(),
            truth.bt
        );
        assert_eq!(cal.channel_count(), 50);
    }

    #[test]
    fn per_channel_values_match_device_phase() {
        let (cal, tag, _) = calibrate_tag(2);
        for (_, f, v) in cal.iter() {
            let truth = angle::wrap_tau(tag.electrical().device_phase(f));
            assert!(angle::distance(v, truth) < 1e-6, "f {f}: {v} vs {truth}");
        }
        assert!(cal.device_phase(0).is_some());
        assert!(cal.device_phase(999).is_none());
    }

    #[test]
    fn db_round_trips_through_text() {
        let (cal, _, _) = calibrate_tag(3);
        let mut db = CalibrationDb::new();
        db.insert(3, cal.clone());
        let (cal2, _, _) = calibrate_tag(4);
        db.insert(4, cal2);
        let text = db.to_text();
        let parsed = CalibrationDb::from_text(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        let a = parsed.get(3).unwrap();
        assert!((a.kt0() - cal.kt0()).abs() < 1e-18);
        assert_eq!(a.channel_count(), cal.channel_count());
        for ((c1, f1, v1), (c2, f2, v2)) in a.iter().zip(cal.iter()) {
            assert_eq!(c1, c2);
            assert!((f1 - f2).abs() < 1.0);
            assert!((v1 - v2).abs() < 1e-12);
        }
    }

    #[test]
    fn db_parse_errors() {
        assert!(matches!(
            CalibrationDb::from_text("nonsense 1 2 3"),
            Err(DbParseError::Malformed { line: 1 })
        ));
        assert!(matches!(
            CalibrationDb::from_text("tag abc 1 2 0"),
            Err(DbParseError::BadNumber { line: 1 })
        ));
        // Truncated sample list, also when the count could not be allocated.
        assert!(CalibrationDb::from_text("tag 1 1e-8 0.5 2\n0 9e8 1.0\n").is_err());
        assert!(matches!(
            CalibrationDb::from_text("tag 1 0 0 100000000000000\n0 9e8 1.0\n"),
            Err(DbParseError::Malformed { line: 1 })
        ));
        // Non-finite numbers, in the header and in a sample.
        for (bad, line) in [
            ("tag 1 NaN inf 1\n0 9e8 1.0\n", 1),
            ("tag 1 1e-8 -inf 1\n0 9e8 1.0\n", 1),
            ("tag 1 1e-8 0.5 1\n0 NaN 1.0\n", 2),
            ("tag 1 1e-8 0.5 1\n0 9e8 inf\n", 2),
        ] {
            assert_eq!(
                CalibrationDb::from_text(bad).unwrap_err(),
                DbParseError::BadNumber { line },
                "{bad:?} must be rejected"
            );
        }
        // Empty text is an empty db.
        assert!(CalibrationDb::from_text("").unwrap().is_empty());
    }
}
