//! Order statistics behind every reported timing.
//!
//! A run's samples are split into at most [`MAX_CHUNKS`] consecutive
//! chunks, and a timing metric is the median over chunks of that chunk's
//! statistic. A stall on a shared machine then spoils one chunk instead of
//! the whole run. A chunk for the `q` quantile holds at least ten samples
//! beyond it (100 for p90, 1000 for p99); a throughput chunk holds at
//! least [`MIN_RATE_CHUNK`] requests.

/// Fewest requests a throughput chunk may hold.
pub const MIN_RATE_CHUNK: usize = 100;
/// Most chunks a run is split into.
pub const MAX_CHUNKS: usize = 10;

/// Nearest-rank `q` quantile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`, the mean of the middle two for an even count;
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q` quantile of all `samples` at once, no chunking; NaN without
/// samples.
pub fn raw_quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    quantile(&sorted(samples), q)
}

/// Samples that lie strictly beyond the nearest-rank `q` quantile of `n`.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// The highest of p50, p90, p99 and p99.9 that has at least ten of `n`
/// samples beyond it, or `None` below twenty samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| beyond(n, q) >= 10)
}

/// Fewest samples a chunk for the `q` quantile may hold: ten beyond it.
fn min_chunk(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}

/// The chunks `n` samples are split into for the `q` quantile.
pub fn chunks(n: usize, q: f64) -> usize {
    (n / min_chunk(q)).clamp(1, MAX_CHUNKS)
}

/// Median over consecutive chunks of at least `min_chunk` samples of
/// `stat` of each chunk; NaN without samples.
fn chunked<T>(samples: &[T], min_chunk: usize, stat: impl Fn(&[T]) -> f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let k = (samples.len() / min_chunk.max(1)).clamp(1, MAX_CHUNKS);
    let n = samples.len();
    median(
        &(0..k)
            .map(|c| stat(&samples[c * n / k..(c + 1) * n / k]))
            .collect::<Vec<_>>(),
    )
}

/// Median over chunks of each chunk's `q` quantile; `samples` are in
/// arrival order.
pub fn chunked_quantile(samples: &[f64], q: f64) -> f64 {
    chunked(samples, min_chunk(q), |part| quantile(&sorted(part), q))
}

/// One closed-loop request: time spent in the call, and the tag
/// estimates it produced.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Reference-core seconds spent in the request (see [`crate::pace`]),
    /// set by the loop that records it.
    pub secs: f64,
    /// Wall-clock seconds spent in the request.
    pub wall: f64,
    /// Tag estimates attempted by the request.
    pub ops: u32,
}

/// Median over chunks of each chunk's tag estimates per second of time
/// spent in requests.
pub fn chunked_rate(samples: &[Sample]) -> f64 {
    chunked(samples, MIN_RATE_CHUNK, |part| {
        let ops: u64 = part.iter().map(|s| u64::from(s.ops)).sum();
        ops as f64 / part.iter().map(|s| s.secs).sum::<f64>()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        for n in [20, 57, 100, 640, 1000, 4321, 10_000, 123_456] {
            let q = tail_quantile(n).expect("enough samples");
            assert!(beyond(n, q) >= 10, "n {n} q {q}");
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn one_bad_chunk_does_not_move_the_median() {
        let mut v = vec![10.0; 10_000];
        for x in &mut v[..1000] {
            *x = 1e6;
        }
        assert_eq!(chunks(v.len(), 0.99), MAX_CHUNKS);
        assert_eq!(chunks(999, 0.99), 1);
        assert_eq!(chunks(999, 0.9), 9);
        assert_eq!(chunked_quantile(&v, 0.99), 10.0);
        let samples: Vec<Sample> = v
            .iter()
            .map(|&s| Sample {
                secs: s,
                wall: s,
                ops: 2,
            })
            .collect();
        assert_eq!(chunked_rate(&samples), 0.2);
    }
}
