//! What every workload shares: run size, the closed loop, set-up timing,
//! accuracy tallies and the record a run returns.

use crate::stats::{self, Sample};
use crate::{mem, pace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rfp_core::{Sense3DError, SenseError};
use rfp_obs::JsonValue;
use std::time::Instant;

/// How much one run generates and measures. The full benchmark and the
/// unit-test miniatures differ only in this.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Tags in the scene (sessions, on the stream).
    pub tags: usize,
    /// Pre-generated hop rounds per tag.
    pub rounds: usize,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Fewest set-up builds whose median is `setup_s`.
    pub setup_builds: usize,
    /// Seconds of set-up builds to reach, within 100,000 builds: a set-up
    /// of microseconds then still gives a steady median.
    pub setup_seconds: f64,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Run {
    /// Tag estimates attempted while measuring.
    pub attempted: u64,
    /// Of those, estimates that failed: an error other than an explicit
    /// rejection of the window (see [`rejected_2d`]).
    pub failed: u64,
    /// Metric name and value; units come from the metric table.
    pub metrics: Vec<(&'static str, f64)>,
    /// Correctness violations; any one makes the run incorrect.
    pub violations: Vec<String>,
    /// Values printed next to the result that carry no bound.
    pub diagnostics: Vec<(&'static str, JsonValue)>,
}

/// Seed of every workload's deployment: which tags exist and where they
/// sit. A deployment is fixed like its antennas and its room, so the run
/// seed draws what changes between hop rounds — every read's noise,
/// π jumps, drops and hop order. Accuracy is then a property of the
/// estimator rather than of one seed's luck with the layout.
pub const LAYOUT: u64 = 0x5EED_1A70;

/// SplitMix64 of `seed` and `salt`: decorrelated per-purpose seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` points of the unit cube `[0, 1)^D`, one in each of `n` distinct
/// cells of a regular grid, at a random place in its cell: tags spread
/// evenly over the working region, as accuracy depends on where they sit.
pub fn stratified<const D: usize>(rng: &mut StdRng, n: usize) -> Vec<[f64; D]> {
    let k = (1..)
        .find(|k: &usize| k.pow(D as u32) >= n)
        .expect("a grid fits");
    let mut cells: Vec<usize> = (0..k.pow(D as u32)).collect();
    cells.shuffle(rng);
    cells[..n]
        .iter()
        .map(|&cell| {
            let mut point = [0.0; D];
            for (d, x) in point.iter_mut().enumerate() {
                let index = cell / k.pow(d as u32) % k;
                *x = (index as f64 + rng.gen_range(0.0..1.0)) / k as f64;
            }
            point
        })
        .collect()
}

/// Runs `request(i)` back to back until `seconds` have passed and the
/// first pass of `first_pass` requests is done, appending to `samples`.
/// Each request returns the wall-clock seconds it spent in the call and
/// the tag estimates it attempted. Returns the heap peak (see [`mem`]) at
/// the end of the first pass.
pub fn closed_loop(
    seconds: f64,
    first_pass: usize,
    samples: &mut Vec<Sample>,
    mut request: impl FnMut(usize) -> (f64, u32),
) -> usize {
    let t0 = Instant::now();
    let mut heap_peak = 0;
    let mut i = 0;
    while i < first_pass || t0.elapsed().as_secs_f64() < seconds {
        let (wall, ops) = request(i);
        samples.push(Sample {
            secs: wall * pace::scale(),
            wall,
            ops,
        });
        i += 1;
        if i == first_pass {
            heap_peak = mem::peak();
        }
    }
    heap_peak
}

/// Whether a 2-D sensing error is an explicit rejection of the window —
/// the detector's verdict or too few usable antennas — which lowers
/// `yield_ratio`, rather than a failure.
pub fn rejected_2d(error: &SenseError) -> bool {
    matches!(
        error,
        SenseError::TagMoving { .. } | SenseError::TooFewObservations { .. }
    )
}

/// [`rejected_2d`] for the 3-D pipeline.
pub fn rejected_3d(error: &Sense3DError) -> bool {
    matches!(
        error,
        Sense3DError::TagMoving { .. } | Sense3DError::TooFewObservations { .. }
    )
}

/// Most set-up builds of one run.
const MAX_BUILDS: usize = 100_000;

/// Accuracy of a fixed, seed-determined set of estimates.
#[derive(Debug, Default)]
pub struct Accuracy {
    pub attempted: u64,
    pub sensed: u64,
    pub pos_err_cm: Vec<f64>,
    pub orient_err_deg: Vec<f64>,
    pub identified: u64,
    pub material_correct: u64,
}

impl Accuracy {
    fn with_capacity(estimates: usize) -> Self {
        Accuracy {
            pos_err_cm: Vec::with_capacity(estimates),
            orient_err_deg: Vec::with_capacity(estimates),
            ..Accuracy::default()
        }
    }

    pub fn sensed(&mut self, pos_err_cm: f64, orient_err_deg: f64) {
        self.attempted += 1;
        self.sensed += 1;
        self.pos_err_cm.push(pos_err_cm);
        self.orient_err_deg.push(orient_err_deg);
    }

    pub fn rejected(&mut self) {
        self.attempted += 1;
    }

    pub fn material(&mut self, correct: bool) {
        self.identified += 1;
        self.material_correct += u64::from(correct);
    }

    pub fn yield_ratio(&self) -> f64 {
        self.sensed as f64 / self.attempted.max(1) as f64
    }

    pub fn material_acc(&self) -> f64 {
        self.material_correct as f64 / self.identified.max(1) as f64
    }

    fn err(values: &[f64], q: f64) -> f64 {
        if values.is_empty() {
            return f64::NAN;
        }
        stats::quantile(&stats::sorted(values), q)
    }

    pub fn pos_err_p50_cm(&self) -> f64 {
        Self::err(&self.pos_err_cm, 0.5)
    }

    /// Checks the estimates against the workload's sanity floors.
    pub fn check(&self, floors: &Floors, violations: &mut Vec<String>) {
        let mut floor = |ok: bool, what: String| {
            if !ok {
                violations.push(what);
            }
        };
        let pos = self.pos_err_p50_cm();
        floor(
            pos < floors.pos_err_p50_cm,
            format!("pos_err_p50_cm {pos} ≥ {}", floors.pos_err_p50_cm),
        );
        let orient = Self::err(&self.orient_err_deg, 0.5);
        floor(
            orient < floors.orient_err_p50_deg,
            format!(
                "orient_err_p50_deg {orient} ≥ {}",
                floors.orient_err_p50_deg
            ),
        );
        let y = self.yield_ratio();
        floor(
            y > floors.min_yield,
            format!("yield_ratio {y} ≤ {}", floors.min_yield),
        );
        if let Some(min_acc) = floors.material_acc {
            let acc = self.material_acc();
            floor(acc > min_acc, format!("material_acc {acc} ≤ {min_acc}"));
        }
    }
}

/// Sanity floors every run of a workload must clear.
#[derive(Debug, Clone, Copy)]
pub struct Floors {
    pub pos_err_p50_cm: f64,
    pub orient_err_p50_deg: f64,
    pub min_yield: f64,
    pub material_acc: Option<f64>,
}

/// An untraced closed loop: its set-up builds, its requests, the accuracy
/// of its first pass, its failed estimates and the heap it held.
#[derive(Debug, Default)]
pub struct Measured {
    pub samples: Vec<Sample>,
    pub accuracy: Accuracy,
    pub failed: u64,
    /// Reference-core seconds of each set-up build.
    setup_times: Vec<f64>,
    /// Live heap when the record started, bytes.
    heap_base: usize,
    /// Heap peak at the end of the first pass, bytes.
    pub heap_peak: usize,
}

impl Measured {
    /// A record with room for a first pass of `requests` requests and
    /// `estimates` tag estimates, and for every set-up build. Call it once
    /// the inputs are generated: it restarts the heap peak, after
    /// reserving, so that the heap metric leaves out the benchmark's own
    /// buffers.
    pub fn start(requests: usize, estimates: usize) -> Self {
        pace::init();
        let mut measured = Measured {
            samples: Vec::with_capacity(requests),
            accuracy: Accuracy::with_capacity(estimates),
            setup_times: Vec::with_capacity(MAX_BUILDS),
            ..Measured::default()
        };
        measured.heap_base = mem::restart();
        measured
    }

    /// Builds the installation as often as `size` asks and returns the
    /// last build; earlier builds are dropped outside the timer.
    pub fn set_up<T>(&mut self, size: &Size, mut build: impl FnMut() -> T) -> T {
        let mut total = 0.0;
        let mut last = None;
        while self.setup_times.len() < size.setup_builds.max(1)
            || (total < size.setup_seconds && self.setup_times.len() < MAX_BUILDS)
        {
            drop(last.take());
            let t0 = Instant::now();
            let installation = build();
            let secs = t0.elapsed().as_secs_f64() * pace::scale();
            self.setup_times.push(secs);
            total += secs;
            last = Some(installation);
        }
        last.expect("at least one build")
    }

    /// The run record so far: attempts, failures and the correctness
    /// floors.
    pub fn run(&self, floors: &Floors) -> Run {
        let mut run = Run {
            attempted: self.samples.iter().map(|s| u64::from(s.ops)).sum(),
            failed: self.failed,
            ..Run::default()
        };
        self.accuracy.check(floors, &mut run.violations);
        run
    }

    /// Seconds per tag estimate.
    pub fn secs_per_op(&self) -> f64 {
        let ops: u64 = self.samples.iter().map(|s| u64::from(s.ops)).sum();
        self.samples.iter().map(|s| s.secs).sum::<f64>() / ops.max(1) as f64
    }

    /// Request latencies, reference-core µs.
    pub fn latencies_us(&self) -> Latencies {
        Latencies {
            reference: self.samples.iter().map(|s| s.secs * 1e6).collect(),
            wall: self.samples.iter().map(|s| s.wall * 1e6).collect(),
        }
    }

    /// Sets the end-to-end metrics of `run`: throughput from these
    /// requests, latency from `latencies`.
    pub fn end_to_end(&self, run: &mut Run, latencies: &Latencies) {
        let accuracy = &self.accuracy;
        let lat = &latencies.reference;
        run.metrics = vec![
            ("setup_s", stats::median(&self.setup_times)),
            ("ops_per_s", stats::chunked_rate(&self.samples)),
            ("lat_p50_us", stats::chunked_quantile(lat, 0.5)),
            ("lat_p90_us", stats::chunked_quantile(lat, 0.9)),
            ("yield_ratio", accuracy.yield_ratio()),
            ("pos_err_p50_cm", accuracy.pos_err_p50_cm()),
            ("pos_err_p90_cm", Accuracy::err(&accuracy.pos_err_cm, 0.9)),
            (
                "orient_err_p50_deg",
                Accuracy::err(&accuracy.orient_err_deg, 0.5),
            ),
            (
                "heap_peak_mb",
                self.heap_peak.saturating_sub(self.heap_base) as f64 / 1e6,
            ),
        ];
        // The p99 carries no bound: scheduler stalls of a shared machine
        // move it more than the code does, most of all in the open loop.
        let n = lat.len();
        let tail = stats::tail_quantile(n).map_or(JsonValue::Null, JsonValue::Num);
        let (ops, wall_s) = self
            .samples
            .iter()
            .fold((0u64, 0.0), |(o, s), x| (o + u64::from(x.ops), s + x.wall));
        run.diagnostics.extend([
            ("setup_builds", JsonValue::Num(self.setup_times.len() as f64)),
            ("latency_samples", JsonValue::Num(n as f64)),
            ("tail_quantile", tail),
            (
                "lat_p99_us",
                JsonValue::Num(stats::chunked_quantile(lat, 0.99)),
            ),
            ("p99_chunks", JsonValue::Num(stats::chunks(n, 0.99) as f64)),
            // Unscaled wall-clock figures, so that a gain in
            // reference-core time can be checked against the wall clock.
            ("wall.ops_per_s", JsonValue::Num(ops as f64 / wall_s)),
            (
                "wall.lat_p50_us",
                JsonValue::Num(stats::raw_quantile(&latencies.wall, 0.5)),
            ),
            ("vm_hwm_mb", JsonValue::Num(vm_hwm_mb())),
        ]);
    }
}

/// Request latencies in reference-core and in wall-clock µs.
pub struct Latencies {
    pub reference: Vec<f64>,
    pub wall: Vec<f64>,
}

/// Peak resident set size of this process (`VmHWM`), inputs and the
/// benchmark's buffers included, MB.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
