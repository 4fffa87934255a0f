//! A streaming session senses from exactly what the batch front end
//! extracts: a tag creeping at 0.5 cm/s through `standard_2d`, advanced
//! once per reader dwell over two window spans, yields on every advance
//! per-antenna observations bit-identical to `extract_observation_into`
//! on the reads that antenna's window retains — slope, intercept, inlier
//! mask and mean RSSI — including the advances whose inlier mask differs
//! from the previous advance's. A window too thin to fit fails an advance
//! with the error `sense` gives on the same reads.

use rfp_core::model::{extract_observation_into, AntennaObservation, ExtractError};
use rfp_core::{RfPrism, RfPrismConfig, SenseError};
use rfp_dsp::preprocess::RawRead;
use rfp_dsp::workspace::FrontEndWorkspace;
use rfp_geom::Vec2;
use rfp_sim::{Motion, Scene, SimTag};

/// Advances per hop round: one per reader dwell.
const ADVANCES_PER_ROUND: usize = 50;

#[test]
fn creeping_tag_advances_match_batch_extract() {
    let scene = Scene::standard_2d();
    let round_s = scene.reader().round_duration_s();
    let (span, rounds) = (2.0 * round_s, 4);
    let start = Vec2::new(0.3, 1.2);
    let velocity = Vec2::new(0.004, 0.003);
    let tag = SimTag::with_seeded_diversity(21);
    // Each antenna's reads on one stream clock, the tag moving on across
    // rounds.
    let mut reads = vec![Vec::new(); scene.antennas().len()];
    for round in 0..rounds {
        let t0 = round as f64 * round_s;
        let motion = Motion::planar_linear(start + velocity * t0, velocity, 0.7);
        let survey = scene.survey(&tag.with_motion(motion), 40 + round as u64);
        for (all, got) in reads.iter_mut().zip(survey.per_antenna) {
            all.extend(got.into_iter().map(|r| RawRead { timestamp_s: r.timestamp_s + t0, ..r }));
        }
    }
    // Solve windows the detector calls moving too, so that every advance
    // hands back its observations.
    let prism = RfPrism::new(scene.antenna_poses(), scene.reader().plan)
        .with_region(scene.region())
        .with_config(RfPrismConfig { reject_moving: false, ..RfPrismConfig::paper() });
    let extract = prism.config().extract;

    let mut session = prism.sense_streaming(span);
    let mut pushed = vec![0usize; reads.len()];
    let mut ws = FrontEndWorkspace::default();
    let mut masks: Vec<Option<Vec<bool>>> = vec![None; reads.len()];
    let (mut compared, mut mask_changes) = (0usize, 0usize);
    let dwell_s = round_s / ADVANCES_PER_ROUND as f64;
    for k in 1..=rounds * ADVANCES_PER_ROUND {
        let now = k as f64 * dwell_s;
        for (antenna, all) in reads.iter().enumerate() {
            while pushed[antenna] < all.len() && all[pushed[antenna]].timestamp_s < now {
                session.push(antenna, &all[pushed[antenna]]);
                pushed[antenna] += 1;
            }
        }
        let Ok(result) = session.advance(now) else {
            // Only the first round, whose windows hold too few channels.
            assert!(now <= round_s, "advance at {now} s failed");
            continue;
        };
        assert_eq!(result.observations.len(), reads.len(), "advance at {now} s");
        for (antenna, streamed) in result.observations.iter().enumerate() {
            let retained: Vec<RawRead> = reads[antenna][..pushed[antenna]]
                .iter()
                .filter(|r| r.timestamp_s >= now - span)
                .copied()
                .collect();
            let mut batch = AntennaObservation::from_line(streamed.pose, 0.0, 0.0);
            extract_observation_into(streamed.pose, &retained, &extract, &mut ws, &mut batch)
                .expect("batch extract");
            let ctx = format!("advance at {now} s, antenna {antenna}");
            assert_eq!(streamed.slope.to_bits(), batch.slope.to_bits(), "{ctx}");
            assert_eq!(streamed.intercept.to_bits(), batch.intercept.to_bits(), "{ctx}");
            assert_eq!(streamed.channel_inliers, batch.channel_inliers, "{ctx}");
            assert_eq!(streamed.mean_rssi_dbm.to_bits(), batch.mean_rssi_dbm.to_bits(), "{ctx}");
            let previous = masks[antenna].replace(batch.channel_inliers.clone());
            mask_changes += previous.is_some_and(|m| {
                m.len() == batch.channel_inliers.len() && m != batch.channel_inliers
            }) as usize;
            compared += 1;
        }
        session.recycle(result);
    }
    // Every advance after the first round, over 1.5 spans and more.
    assert!(compared >= 3 * 3 * ADVANCES_PER_ROUND, "compared {compared} observations");
    assert!(mask_changes > 0, "no advance changed its inlier mask");
}

/// A window that keeps fewer than 5 channels fails as batch extraction
/// fails it: when one antenna of a `standard_2d` survey keeps only 1, 2, 3
/// or 4 channels, a fresh session's advance over the survey returns the
/// `SenseError` that `sense` returns on the same reads, naming the thin
/// antenna's channel count.
#[test]
fn thin_window_fails_an_advance_as_sense_fails() {
    let scene = Scene::standard_2d();
    let prism =
        RfPrism::new(scene.antenna_poses(), scene.reader().plan).with_region(scene.region());
    let tag = SimTag::with_seeded_diversity(3)
        .with_motion(Motion::planar_static(Vec2::new(0.4, 1.4), 0.5));
    for kept in 1..=4 {
        let mut reads = scene.survey(&tag, 60 + kept as u64).per_antenna;
        let mut channels = Vec::new();
        reads[0].retain(|r| {
            if channels.len() < kept && !channels.contains(&r.channel) {
                channels.push(r.channel);
            }
            channels.contains(&r.channel)
        });
        assert_eq!(channels.len(), kept);
        let batch = prism.sense(&reads).expect_err("a thin antenna leaves two usable");
        assert_eq!(
            batch,
            SenseError::TooFewObservations {
                usable: 2,
                first_error: Some(ExtractError::TooFewChannels { available: kept }),
            },
            "{kept} channels"
        );

        let mut session = prism.sense_streaming(scene.reader().round_duration_s());
        for (antenna, group) in reads.iter().enumerate() {
            group.iter().for_each(|r| session.push(antenna, r));
        }
        let now = reads.iter().flatten().map(|r| r.timestamp_s).fold(0.0, f64::max);
        assert_eq!(session.retained_reads(), reads.iter().map(Vec::len).sum::<usize>());
        let streamed = session.advance(now).expect_err("the same window fails");
        assert_eq!(streamed, batch, "{kept} channels");
    }
}
