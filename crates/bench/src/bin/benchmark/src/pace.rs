//! Reference-core time.
//!
//! On a shared machine the neighbours' load moves the speed of this
//! benchmark's core by ±20 % from one minute to the next, mostly through
//! the caches and execution units its hardware thread shares with theirs:
//! more than the code changes the benchmark must resolve. So every timing
//! is given in reference-core time. About every [`INTERVAL_S`], outside
//! any timed span, the benchmark times a fixed probe kernel and scales the
//! times it measures until the next probe by the probe's reference time
//! over its measured time. The probe is the benchmark's own code, so no
//! change to the program under test moves it.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Seconds between probes.
const INTERVAL_S: f64 = 0.01;
/// Probe runs per measurement. The first re-warms the buffer the workload
/// evicted, and an interrupt can only slow a run, so the fastest counts.
const RUNS: usize = 5;
/// Passes of one probe run, each feeding every chain once.
const PASSES: usize = 3072;
/// Independent multiply-add chains of the probe.
const CHAINS: usize = 4;
/// The probe's buffer, in `f64`s: 2 MiB, which its loads touch a third of.
const BUFFER: usize = 1 << 18;
/// Step of the probe's loads through its buffer, in `f64`s.
const STRIDE: usize = 4099;
/// Time of one probe run on the reference core: about its uncontended
/// time on the 2-vCPU Xeon of the recorded baseline, so that there
/// reference-core time reads close to wall time on a quiet machine.
const REFERENCE_S: f64 = 9e-6;

/// Floating-point multiply-add chains fed by strided loads from a buffer
/// that stays in L2: the mix of FP latency and cache traffic of the
/// workloads' numeric kernels, whose speed moves with the neighbours'
/// load as theirs does. A chain of dependent integer multiplies, which
/// leaves the shared units idle, tracks them far less closely.
fn probe(buffer: &[f64]) -> f64 {
    let mut acc = [0.0f64; CHAINS];
    let mut j = black_box(0usize);
    for _ in 0..PASSES {
        for (k, a) in acc.iter_mut().enumerate() {
            *a = *a * 0.999 + buffer[(j + 8 * k) % BUFFER];
        }
        j = j.wrapping_add(STRIDE);
    }
    acc.iter().sum()
}

struct Pace {
    buffer: Vec<f64>,
    scale: f64,
    measured: Option<Instant>,
    scales: Vec<f64>,
}

impl Pace {
    fn measure(&mut self) {
        let fastest = (0..RUNS)
            .map(|_| {
                let t0 = Instant::now();
                black_box(probe(black_box(&self.buffer)));
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        self.scale = REFERENCE_S / fastest;
        self.scales.push(self.scale);
        self.measured = Some(Instant::now());
    }
}

/// Probes whose scales fit before the record of them grows: over ten
/// minutes of probing.
const RECORDED: usize = 1 << 16;

thread_local! {
    static PACE: RefCell<Pace> = RefCell::new(Pace {
        buffer: (0..BUFFER).map(|i| (i % 97) as f64 * 0.01).collect(),
        scale: 1.0,
        measured: None,
        scales: Vec::with_capacity(RECORDED),
    });
}

/// Allocates the probe's buffers, so that a heap peak restarted after
/// this call leaves them out (see [`crate::mem`]).
pub fn init() {
    PACE.with(|_| {});
}

/// Reference-core seconds per wall-clock second now. Probes first when the
/// last probe is [`INTERVAL_S`] old, which takes about 50 µs: call it
/// outside timed spans.
pub fn scale() -> f64 {
    PACE.with_borrow_mut(|pace| {
        if pace
            .measured
            .is_none_or(|t| t.elapsed().as_secs_f64() >= INTERVAL_S)
        {
            pace.measure();
        }
        pace.scale
    })
}

/// Median scale over this thread's probes so far, and their count.
pub fn summary() -> (f64, usize) {
    PACE.with_borrow(|pace| (crate::stats::median(&pace.scales), pace.scales.len()))
}
