//! The survey-log format: record a round, replay it later.
//!
//! ```text
//! # rf-prism survey log v1
//! plan <start_hz> <spacing_hz> <count>
//! antenna <index> <px> <py> <pz> <bx> <by> <bz> <roll>
//! tag <id> [<truth_x> <truth_y> <alpha_rad> <material_label>]
//! read <tag_id> <antenna> <channel> <freq_hz> <phase> <rssi_dbm> <t_s>
//! ```
//!
//! Everything after `#` on a line is a comment. Lines may appear in any
//! order except that `read` lines must follow the `antenna` lines they
//! reference.
//!
//! Every header is validated before anything is built from it: the plan
//! needs a finite, positive start and spacing and 1 to 65,536 channels
//! (LLRP channel indices are 16-bit); an antenna needs an integer index,
//! coordinates within ±1,000 km, a finite roll and a non-zero boresight;
//! a tag's truth needs the same bounded position and a finite angle; the
//! antennas must be numbered `0..n` with `n ≥ 3`, as 2-D sensing needs;
//! and a read must name a channel of the plan, at that channel's
//! frequency within half a channel spacing. A hostile log is a
//! [`LogError`], never a panic or an allocation sized by an unchecked
//! index.

use rfp_dsp::preprocess::{RawRead, MAX_CHANNELS};
use rfp_geom::{AntennaPose, Vec2, Vec3};
use rfp_phys::{FrequencyPlan, Material};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Largest antenna or tag-truth coordinate magnitude accepted, metres. A
/// reader's antennas sit metres apart; the bound keeps every squared
/// distance the solver and the report form finite.
const MAX_COORD_M: f64 = 1e6;

/// Optional ground truth recorded alongside a tag (simulation only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagTruth {
    /// True planar position.
    pub position: Vec2,
    /// True orientation, radians.
    pub alpha: f64,
    /// True attached material.
    pub material: Material,
}

/// One tag's reads, grouped per antenna.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TagRecord {
    /// `reads[antenna_index]` in time order.
    pub per_antenna: Vec<Vec<RawRead>>,
    /// Ground truth, when recorded.
    pub truth: Option<TagTruth>,
}

/// A parsed (or to-be-written) survey log.
#[derive(Debug, Clone, PartialEq)]
pub struct SurveyLog {
    /// The channel plan of the round.
    pub plan: FrequencyPlan,
    /// Antenna poses, by index.
    pub poses: Vec<AntennaPose>,
    /// Per-tag records, keyed by tag id.
    pub tags: BTreeMap<u64, TagRecord>,
}

/// Parse errors with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// Unknown directive.
    UnknownDirective {
        /// Line number.
        line: usize,
    },
    /// Wrong field count or a number failed to parse.
    Malformed {
        /// Line number.
        line: usize,
    },
    /// A `read` referenced an antenna that was never declared.
    UnknownAntenna {
        /// Line number.
        line: usize,
    },
    /// No `plan` line was found.
    MissingPlan,
    /// No `antenna` lines were found, or their indices skip a number.
    MissingAntennas,
    /// Fewer antennas than the three 2-D sensing needs.
    TooFewAntennas {
        /// Antennas declared.
        found: usize,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::UnknownDirective { line } => write!(f, "unknown directive at line {line}"),
            LogError::Malformed { line } => write!(f, "malformed record at line {line}"),
            LogError::UnknownAntenna { line } => {
                write!(f, "read references undeclared antenna at line {line}")
            }
            LogError::MissingPlan => write!(f, "log has no `plan` line"),
            LogError::MissingAntennas => {
                write!(f, "log has no `antenna` lines, or their indices are not 0..n")
            }
            LogError::TooFewAntennas { found } => {
                write!(f, "log declares {found} antennas; sensing needs at least 3")
            }
        }
    }
}

impl std::error::Error for LogError {}

impl SurveyLog {
    /// An empty log for the given deployment.
    pub fn new(plan: FrequencyPlan, poses: Vec<AntennaPose>) -> Self {
        SurveyLog { plan, poses, tags: BTreeMap::new() }
    }

    /// Adds one tag's survey (reads grouped per antenna) with optional
    /// ground truth.
    ///
    /// # Panics
    ///
    /// Panics if the antenna grouping does not match the declared poses.
    pub fn add_tag(&mut self, id: u64, per_antenna: Vec<Vec<RawRead>>, truth: Option<TagTruth>) {
        assert_eq!(per_antenna.len(), self.poses.len(), "one read group per antenna");
        self.tags.insert(id, TagRecord { per_antenna, truth });
    }

    /// Serializes to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# rf-prism survey log v1\n");
        let _ = writeln!(
            out,
            "plan {:e} {:e} {}",
            self.plan.start_hz(),
            self.plan.spacing_hz(),
            self.plan.channel_count()
        );
        for (i, pose) in self.poses.iter().enumerate() {
            let p = pose.position();
            let b = pose.boresight();
            let _ = writeln!(
                out,
                "antenna {i} {:e} {:e} {:e} {:e} {:e} {:e} {:e}",
                p.x,
                p.y,
                p.z,
                b.x,
                b.y,
                b.z,
                pose.roll()
            );
        }
        for (id, record) in &self.tags {
            match record.truth {
                Some(t) => {
                    let _ = writeln!(
                        out,
                        "tag {id} {:e} {:e} {:e} {}",
                        t.position.x,
                        t.position.y,
                        t.alpha,
                        t.material.label()
                    );
                }
                None => {
                    let _ = writeln!(out, "tag {id}");
                }
            }
            for (ai, reads) in record.per_antenna.iter().enumerate() {
                for r in reads {
                    let _ = writeln!(
                        out,
                        "read {id} {ai} {} {:e} {:e} {:e} {:e}",
                        r.channel, r.frequency_hz, r.phase, r.rssi_dbm, r.timestamp_s
                    );
                }
            }
        }
        out
    }

    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// Any [`LogError`] on structural problems.
    pub fn from_text(text: &str) -> Result<Self, LogError> {
        let mut plan: Option<FrequencyPlan> = None;
        let mut poses: BTreeMap<usize, AntennaPose> = BTreeMap::new();
        let mut tags: BTreeMap<u64, TagRecord> = BTreeMap::new();
        // (line, tag, antenna, read), grouped once the antenna set is known
        // to be valid, so no allocation is sized by an unchecked index.
        let mut reads: Vec<(usize, u64, usize, RawRead)> = Vec::new();
        // `"NaN".parse()` succeeds: a field holding a non-finite number is
        // as malformed as one holding no number.
        let finite = |v: &str| v.parse::<f64>().ok().filter(|x| x.is_finite());

        for (ln0, raw_line) in text.lines().enumerate() {
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let ln = ln0 + 1;
            let mut parts = line.split_whitespace();
            let malformed = LogError::Malformed { line: ln };
            match parts.next() {
                Some("plan") => {
                    let nums: Vec<f64> = parts.by_ref().take(2).filter_map(finite).collect();
                    let count: usize =
                        parts.next().and_then(|v| v.parse().ok()).ok_or(malformed.clone())?;
                    if nums.len() != 2
                        || nums.iter().any(|&x| x <= 0.0)
                        || !(1..=MAX_CHANNELS).contains(&count)
                    {
                        return Err(malformed);
                    }
                    plan = Some(FrequencyPlan::new(nums[0], nums[1], count));
                }
                Some("antenna") => {
                    let index: usize =
                        parts.next().and_then(|v| v.parse().ok()).ok_or(malformed.clone())?;
                    let nums: Vec<f64> = parts.by_ref().take(7).filter_map(finite).collect();
                    if nums.len() != 7 || nums[..3].iter().any(|x| x.abs() > MAX_COORD_M) {
                        return Err(malformed);
                    }
                    // A zero, underflowing or overflowing boresight has no
                    // unit direction.
                    let boresight = Vec3::new(nums[3], nums[4], nums[5]);
                    if boresight.norm() == 0.0
                        || (boresight.normalized().norm() - 1.0).abs() >= 1e-6
                    {
                        return Err(malformed);
                    }
                    let pose = AntennaPose::with_boresight(
                        Vec3::new(nums[0], nums[1], nums[2]),
                        boresight.normalized(),
                        nums[6],
                    );
                    poses.insert(index, pose);
                }
                Some("tag") => {
                    let id: u64 =
                        parts.next().and_then(|v| v.parse().ok()).ok_or(malformed.clone())?;
                    let rest: Vec<&str> = parts.collect();
                    let truth = if rest.is_empty() {
                        None
                    } else if rest.len() == 4 {
                        let nums: Vec<f64> = rest[..3].iter().copied().filter_map(finite).collect();
                        if nums.len() != 3 || nums[..2].iter().any(|x| x.abs() > MAX_COORD_M) {
                            return Err(malformed);
                        }
                        let material = Material::CLASSES
                            .iter()
                            .copied()
                            .find(|m| m.label() == rest[3])
                            .ok_or(malformed.clone())?;
                        let position = Vec2::new(nums[0], nums[1]);
                        Some(TagTruth { position, alpha: nums[2], material })
                    } else {
                        return Err(malformed);
                    };
                    tags.entry(id).or_default().truth = truth;
                }
                Some("read") => {
                    let id: u64 =
                        parts.next().and_then(|v| v.parse().ok()).ok_or(malformed.clone())?;
                    let ai: usize =
                        parts.next().and_then(|v| v.parse().ok()).ok_or(malformed.clone())?;
                    if !poses.contains_key(&ai) {
                        return Err(LogError::UnknownAntenna { line: ln });
                    }
                    let channel: usize =
                        parts.next().and_then(|v| v.parse().ok()).ok_or(malformed.clone())?;
                    let nums: Vec<f64> = parts.by_ref().take(4).filter_map(finite).collect();
                    if nums.len() != 4 {
                        return Err(malformed);
                    }
                    tags.entry(id).or_default();
                    reads.push((
                        ln,
                        id,
                        ai,
                        RawRead {
                            channel,
                            frequency_hz: nums[0],
                            phase: nums[1],
                            rssi_dbm: nums[2],
                            timestamp_s: nums[3],
                            // The text format stores phases with exact f64
                            // round-trip ({:e}), so quantized phases land
                            // back on the grid and recover their code.
                            phase_code: rfp_dsp::trig::code_for_phase(nums[1]),
                        },
                    ));
                }
                Some(_) => return Err(LogError::UnknownDirective { line: ln }),
                None => {}
            }
        }

        let plan = plan.ok_or(LogError::MissingPlan)?;
        if poses.is_empty() || poses.keys().enumerate().any(|(i, &k)| i != k) {
            return Err(LogError::MissingAntennas);
        }
        if poses.len() < 3 {
            return Err(LogError::TooFewAntennas { found: poses.len() });
        }
        let poses: Vec<AntennaPose> = poses.into_values().collect();
        for record in tags.values_mut() {
            record.per_antenna = vec![Vec::new(); poses.len()];
        }
        for (line, id, ai, read) in reads {
            // The front end keeps each channel's first frequency, so a read
            // off its channel's centre would shift the whole channel.
            if read.channel >= plan.channel_count()
                || (read.frequency_hz - plan.frequency_hz(read.channel)).abs()
                    > plan.spacing_hz() / 2.0
            {
                return Err(LogError::Malformed { line });
            }
            tags.get_mut(&id).expect("entry made at parse").per_antenna[ai].push(read);
        }
        Ok(SurveyLog { plan, poses, tags })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfp_sim::{Motion, Scene, SimTag};

    fn sample_log() -> SurveyLog {
        let scene = Scene::standard_2d();
        let mut log = SurveyLog::new(scene.reader().plan, scene.antenna_poses());
        for (i, &(x, y)) in [(0.2, 1.1), (0.9, 1.8)].iter().enumerate() {
            let tag = SimTag::with_seeded_diversity(i as u64 + 1)
                .attached_to(Material::Glass)
                .with_motion(Motion::planar_static(Vec2::new(x, y), 0.4));
            let survey = scene.survey(&tag, 10 + i as u64);
            log.add_tag(
                tag.id(),
                survey.per_antenna,
                Some(TagTruth {
                    position: Vec2::new(x, y),
                    alpha: 0.4,
                    material: Material::Glass,
                }),
            );
        }
        log
    }

    #[test]
    fn round_trips_exactly() {
        let log = sample_log();
        let text = log.to_text();
        let parsed = SurveyLog::from_text(&text).expect("own format");
        assert_eq!(parsed.plan, log.plan);
        assert_eq!(parsed.tags.len(), log.tags.len());
        for ((ia, ra), (ib, rb)) in parsed.tags.iter().zip(&log.tags) {
            assert_eq!(ia, ib);
            assert_eq!(ra.truth, rb.truth);
            assert_eq!(ra.per_antenna, rb.per_antenna);
        }
        // Poses round-trip through position/boresight/roll.
        for (a, b) in parsed.poses.iter().zip(&log.poses) {
            assert!(a.position().distance(b.position()) < 1e-12);
            assert!(a.boresight().distance(b.boresight()) < 1e-12);
            assert!(a.u().distance(b.u()) < 1e-9);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let log = sample_log();
        let mut text = String::from("# leading comment\n\n");
        text.push_str(&log.to_text());
        text.push_str("\n# trailing\n");
        assert!(SurveyLog::from_text(&text).is_ok());
    }

    /// Three valid antenna lines, for logs whose other lines are under test.
    const ANTENNAS: &str = "antenna 0 0 0 0 0 1 0 0\nantenna 1 1 0 0 0 1 0 0\n\
                            antenna 2 2 0 0 0 1 0 0\n";

    #[test]
    fn error_cases() {
        assert_eq!(SurveyLog::from_text("").unwrap_err(), LogError::MissingPlan);
        assert_eq!(
            SurveyLog::from_text("plan 902.75e6 0.5e6 50\n").unwrap_err(),
            LogError::MissingAntennas
        );
        assert!(matches!(
            SurveyLog::from_text("bogus 1 2 3\n").unwrap_err(),
            LogError::UnknownDirective { line: 1 }
        ));
        assert!(matches!(
            SurveyLog::from_text("plan 9e8 5e5 50\nantenna 0 0 0 0 0 1 0 0\nread 1 7 0 9e8 1 -50 0\n")
                .unwrap_err(),
            LogError::UnknownAntenna { line: 3 }
        ));
        assert!(matches!(
            SurveyLog::from_text("plan 9e8\n").unwrap_err(),
            LogError::Malformed { line: 1 }
        ));
        for bad in ["9e8 NaN -50 0", "inf 1 -50 0", "9e8 1 -inf 0", "9e8 1 -50 nan"] {
            let text = format!("plan 9e8 5e5 50\nantenna 0 0 0 0 0 1 0 0\nread 1 0 0 {bad}\n");
            assert!(
                matches!(SurveyLog::from_text(&text).unwrap_err(), LogError::Malformed { line: 3 }),
                "read `{bad}` must be rejected"
            );
        }
        // Plan lines: finite positive start and spacing, 1..=65536 channels.
        for bad in [
            "NaN 5e5 50",
            "9e8 inf 50",
            "-9e8 5e5 50",
            "9e8 0 50",
            "9e8 5e5 0",
            "9e8 5e5 5.5e1",
            "9e8 5e5 65537",
        ] {
            let text = format!("plan {bad}\n{ANTENNAS}");
            assert_eq!(
                SurveyLog::from_text(&text).unwrap_err(),
                LogError::Malformed { line: 1 },
                "plan `{bad}` must be rejected"
            );
        }
        // Antenna lines: integer index, bounded finite coordinates, finite
        // roll, non-zero boresight.
        for bad in [
            "-1 0 0 0 0 1 0 0",
            "1.5 0 0 0 0 1 0 0",
            "3 NaN 0 0 0 1 0 0",
            "3 0 0 1e200 0 1 0 0",
            "3 0 0 0 0 0 0 0",
            "3 0 0 0 1e-320 0 0 0",
            "3 0 0 0 1e300 1e300 1e300 0",
            "3 0 0 0 0 1 0 inf",
        ] {
            let text = format!("plan 9e8 5e5 50\n{ANTENNAS}antenna {bad}\n");
            assert_eq!(
                SurveyLog::from_text(&text).unwrap_err(),
                LogError::Malformed { line: 5 },
                "antenna `{bad}` must be rejected"
            );
        }
        // Tag truth lines: bounded finite position, finite angle.
        for bad in ["NaN inf NaN wood", "0 1 NaN wood", "0 -inf 0 wood", "1e200 1 0 wood"] {
            let text = format!("plan 9e8 5e5 50\n{ANTENNAS}tag 1 {bad}\n");
            assert_eq!(
                SurveyLog::from_text(&text).unwrap_err(),
                LogError::Malformed { line: 5 },
                "tag `{bad}` must be rejected"
            );
        }
        // Fewer than three antennas, and a gap in the antenna indices.
        let two = "plan 9e8 5e5 50\nantenna 0 0 0 0 0 1 0 0\nantenna 1 1 0 0 0 1 0 0\n";
        assert_eq!(SurveyLog::from_text(two).unwrap_err(), LogError::TooFewAntennas { found: 2 });
        let gap = format!(
            "plan 9e8 5e5 50\n{ANTENNAS}antenna 100000000000 0 0 0 0 1 0 0\n\
             read 1 100000000000 0 9e8 1 -50 0\n"
        );
        assert_eq!(SurveyLog::from_text(&gap).unwrap_err(), LogError::MissingAntennas);
        // A read's channel must be one of the plan's, and its frequency
        // within half a spacing of that channel's centre (channel 3 of this
        // plan is centred on 901.5 MHz).
        for read in [
            "50 9e8",
            "100000000000 9e8",
            "3 9.02e8",
            "3 9.0175001e8",
            "3 9e8",
            "3 1e300",
        ] {
            let text = format!("plan 9e8 5e5 50\n{ANTENNAS}read 1 0 {read} 1 -50 0\n");
            assert_eq!(
                SurveyLog::from_text(&text).unwrap_err(),
                LogError::Malformed { line: 5 },
                "channel and frequency `{read}` must be rejected"
            );
        }
    }

    #[test]
    fn read_frequency_within_half_a_spacing_is_accepted() {
        // Channel 3 of this plan is centred on 901.5 MHz.
        for freq in ["9.015e8", "9.01749e8", "9.01251e8"] {
            let text = format!("plan 9e8 5e5 50\n{ANTENNAS}read 1 0 3 {freq} 1 -50 0\n");
            assert!(SurveyLog::from_text(&text).is_ok(), "frequency {freq} is on channel 3");
        }
    }

    #[test]
    fn tag_without_truth() {
        let text = format!("plan 902.75e6 5e5 50\n{ANTENNAS}tag 9\n");
        let log = SurveyLog::from_text(&text).unwrap();
        assert!(log.tags[&9].truth.is_none());
        assert_eq!(log.tags[&9].per_antenna.len(), 3);
    }
}
