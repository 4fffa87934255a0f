//! Parallel batched sensing.
//!
//! Dense deployments read hundreds of tags per hop round, and every tag's
//! disentangling solve is independent of every other's — an embarrassingly
//! parallel workload. [`RfPrism::sense_batch`] fans the per-tag solves
//! across a scoped worker pool (`std::thread::scope`, no dependencies, no
//! unsafe) and returns one result per input, in input order.
//!
//! Three kinds of state are involved, with different lifetimes:
//!
//! * **Per scene** — antenna poses, the frequency plan and the multi-start
//!   solver seeds ([`SolveSeeds`]), including the precomputed per-seed
//!   per-antenna geometry tables (grid-point distances, α-seed trig — see
//!   [`SolveSeeds::for_scene`]). The prism owns them, built once when its
//!   region is set, and workers borrow the prism
//!   (`&RfPrism`) — nothing is rebuilt or cloned per batch. A
//!   [`BatchCache`] is a shared handle to the same seeds.
//! * **Per worker** — the full sensing scratch ([`SenseWorkspace`]: DSP
//!   front-end columns, the solver facade's [`LmCore`](crate::LmCore)
//!   engines and scratch, recycled observation pools), reused across
//!   every solve a worker performs. Reuse only avoids reallocation; it
//!   never changes results.
//! * **Per tag** — the raw reads in and the [`SensingResult`] out.
//!
//! Work is claimed in chunks from a shared atomic cursor, so the
//! *assignment* of tags to workers is scheduling-dependent — but each
//! tag's solve reads only shared immutable state plus its own inputs, so
//! every output is **bit-identical** to the sequential [`RfPrism::sense`]
//! result for the same reads, at any worker count (the equivalence test
//! suite in `tests/batch_equivalence.rs` pins this down to
//! `f64::to_bits`).
//!
//! The front end's quantized-code trig tables live in a process-wide
//! inline static (`OnceLock`): the first worker to need them publishes
//! them once, with no heap traffic and no per-worker copy, and batches
//! over coded reads stay bit-identical to sequential runs over the same
//! reads with their codes stripped (also pinned in
//! `tests/batch_equivalence.rs`).

use crate::obs;
use crate::pipeline::{RfPrism, SenseError, SenseWorkspace, SensingResult};
use crate::pipeline3d::{RfPrism3D, Sense3DError, Sense3DWorkspace, Sensing3DResult};
use crate::solver::{SolveSeeds, WarmStart};
use crate::solver3d::Solve3DSeeds;
use rfp_dsp::preprocess::RawRead;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Raw reads for one tag: `reads[i]` is antenna *i*'s reads, exactly as
/// [`RfPrism::sense`] takes them.
pub type TagReads = Vec<Vec<RawRead>>;

/// A shared handle to an [`RfPrism`]'s solver seeds, for
/// [`RfPrism::sense_reusing`] and [`RfPrism::sense_batch_warm`]: taking
/// one costs a reference-count increment, and it keeps the seeds of the
/// scene the prism had when it was taken.
#[derive(Debug, Clone)]
pub struct BatchCache {
    pub(crate) seeds: Arc<SolveSeeds>,
}

/// A shared handle to an [`RfPrism3D`]'s solver seeds (see
/// [`BatchCache`]).
#[derive(Debug, Clone)]
pub struct BatchCache3D {
    pub(crate) seeds: Arc<Solve3DSeeds>,
}

impl RfPrism {
    /// A shared handle to this pipeline's solver seeds.
    pub fn batch_cache(&self) -> BatchCache {
        BatchCache { seeds: Arc::clone(&self.seeds) }
    }

    /// Senses many tags' hop rounds in parallel: `tags[t]` holds tag *t*'s
    /// per-antenna reads, and the returned vector holds tag *t*'s result at
    /// index *t* — exactly what [`RfPrism::sense`] would return for the
    /// same reads, bit-for-bit, at any `jobs`.
    ///
    /// `jobs` is the worker-thread count; `0` means one worker per
    /// available CPU, `1` runs inline on the calling thread. More workers
    /// than tags are never spawned.
    pub fn sense_batch<T>(
        &self,
        tags: &[T],
        jobs: usize,
    ) -> Vec<Result<SensingResult, SenseError>>
    where
        T: AsRef<[Vec<RawRead>]> + Sync,
    {
        fan_out("sense_batch", tags, jobs, SenseWorkspace::default, |reads, workspace| {
            self.sense_with(reads.as_ref(), &self.seeds, workspace, None)
        })
    }

    /// [`RfPrism::sense_batch`] against the seeds of `cache`, with one
    /// optional warm-start prior per tag (`warms[t]` seeds tag *t*; see
    /// [`RfPrism::sense_warm`]). Input order is preserved and every output
    /// is bit-identical at any `jobs`, because each tag's solve depends
    /// only on its own reads and its own prior.
    ///
    /// # Panics
    ///
    /// Panics if `tags.len() != warms.len()`.
    pub fn sense_batch_warm<T>(
        &self,
        cache: &BatchCache,
        tags: &[T],
        warms: &[Option<WarmStart>],
        jobs: usize,
    ) -> Vec<Result<SensingResult, SenseError>>
    where
        T: AsRef<[Vec<RawRead>]> + Sync,
    {
        assert_eq!(
            tags.len(),
            warms.len(),
            "sense_batch_warm needs one (possibly None) warm start per tag"
        );
        let items: Vec<(&T, Option<&WarmStart>)> =
            tags.iter().zip(warms.iter().map(Option::as_ref)).collect();
        fan_out("sense_batch", &items, jobs, SenseWorkspace::default, |(reads, warm), workspace| {
            self.sense_with(reads.as_ref(), &cache.seeds, workspace, *warm)
        })
    }
}

impl RfPrism3D {
    /// A shared handle to this pipeline's solver seeds.
    pub fn batch_cache(&self) -> BatchCache3D {
        BatchCache3D { seeds: Arc::clone(&self.seeds) }
    }

    /// Senses many tags in parallel in 3-D; same contract as
    /// [`RfPrism::sense_batch`] (input order preserved, results
    /// bit-identical to sequential [`RfPrism3D::sense`] at any `jobs`).
    pub fn sense_batch<T>(
        &self,
        tags: &[T],
        jobs: usize,
    ) -> Vec<Result<Sensing3DResult, Sense3DError>>
    where
        T: AsRef<[Vec<RawRead>]> + Sync,
    {
        fan_out("sense_batch_3d", tags, jobs, Sense3DWorkspace::default, |reads, workspace| {
            self.sense_with(reads.as_ref(), &self.seeds, workspace, None)
        })
    }
}

/// Resolves a `jobs` request to an actual worker count: `0` means one per
/// available CPU, and more workers than items are never used.
pub fn effective_jobs(jobs: usize, items: usize) -> usize {
    let requested = if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    };
    requested.min(items).max(1)
}

/// The worker pool of every batch entry point (and of the CLI's telemetry
/// replay): runs `work` over `items` on `jobs` scoped threads (`0` = one
/// per CPU, see [`effective_jobs`]) under span `span`, giving each worker
/// one `new_state()` value it reuses across all the items it claims.
/// Returns results in input order.
///
/// Work is claimed in contiguous chunks from a shared atomic cursor
/// (dynamic scheduling — solves vary in cost, so purely static chunking
/// would leave workers idle, while per-item claiming maximizes contention
/// on the counter and interleaves the workers' cache footprints). The
/// chunk size targets ~4 claims per worker so the tail stays balanced.
/// Each worker returns its `(index, result)` pairs through its join
/// handle, and the caller's thread joins the workers in worker order and
/// puts every result at its index. With `jobs <= 1` everything runs
/// inline on the calling thread, with no spawn. Chunking only changes
/// *which worker* computes an item, never the result — each item depends
/// only on shared immutable state and its own input.
pub fn fan_out<I, R, S, N, F>(
    span: &'static str,
    items: &[I],
    jobs: usize,
    new_state: N,
    work: F,
) -> Vec<R>
where
    I: Sync,
    R: Send,
    N: Fn() -> S + Sync,
    F: Fn(&I, &mut S) -> R + Sync,
{
    let _batch_span = obs::span(span);
    let jobs = effective_jobs(jobs, items.len());
    obs::counter_add(obs::id::BATCH_TAGS, items.len() as u64);
    obs::gauge_set(obs::id::BATCH_WORKERS, jobs as f64);
    if jobs <= 1 {
        let mut state = new_state();
        return items.iter().map(|item| work(item, &mut state)).collect();
    }

    // Snapshot the coordinator's observing state before spawning: worker
    // threads have no recorder of their own, so each gets a fresh one
    // (over the same metric table) only when the coordinator is recording.
    let observing = obs::active();
    let chunk = (items.len() / (jobs * 4)).max(1);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                let (next, new_state, work) = (&next, &new_state, &work);
                scope.spawn(move || {
                    obs::WorkerObs::new(observing).run(|| {
                        let mut state = new_state();
                        let mut solved = Vec::new();
                        loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= items.len() {
                                return solved;
                            }
                            let end = (start + chunk).min(items.len());
                            for (i, item) in items[start..end].iter().enumerate() {
                                solved.push((start + i, work(item, &mut state)));
                            }
                        }
                    })
                })
            })
            .collect();
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        // Join the workers in worker-index order and merge what each
        // recorded into the coordinator's recorder: a fixed merge order
        // plus commutative counter addition makes every count-type metric
        // identical to a sequential run, at any worker count. (Timings stay
        // wall-clock.)
        for worker in workers {
            let (solved, worker_obs) =
                worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in solved {
                debug_assert!(out[i].is_none(), "item {i} solved twice");
                out[i] = Some(result);
            }
            worker_obs.absorb_into_current();
        }
        out.into_iter()
            .map(|r| r.expect("every item solved exactly once"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_resolution() {
        assert_eq!(effective_jobs(4, 100), 4);
        assert_eq!(effective_jobs(8, 3), 3);
        assert_eq!(effective_jobs(1, 0), 1);
        assert!(effective_jobs(0, 100) >= 1);
    }

    #[test]
    fn fan_out_preserves_order_and_state_reuse() {
        let items: Vec<usize> = (0..97).collect();
        for jobs in [1, 2, 3, 8] {
            let out = fan_out(
                "test",
                &items,
                jobs,
                Vec::<usize>::new,
                |&i, seen: &mut Vec<usize>| {
                    seen.push(i);
                    i * i
                },
            );
            assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_empty_input() {
        let out = fan_out("test", &[] as &[usize], 8, || (), |&i, _| i);
        assert!(out.is_empty());
    }
}
