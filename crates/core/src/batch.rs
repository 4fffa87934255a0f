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
//!   [`SolveSeeds::for_scene`]). Built once, shared *read-only* by all
//!   workers; this is the [`BatchCache`]. The pipeline itself (`&RfPrism`)
//!   is part of this tier — workers borrow it, nothing is cloned.
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
use crate::solver3d::{Solve3DSeeds, WarmStart3D};
use rfp_dsp::preprocess::RawRead;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Raw reads for one tag: `reads[i]` is antenna *i*'s reads, exactly as
/// [`RfPrism::sense`] takes them.
pub type TagReads = Vec<Vec<RawRead>>;

/// Multi-round raw reads for one tag, as [`RfPrism::sense_rounds`] takes
/// them: `rounds[r][i]` is antenna *i*'s reads during round *r*.
pub type TagRounds = Vec<Vec<Vec<RawRead>>>;

/// Per-scene precomputation for batched 2-D sensing: the multi-start
/// solver seeds with their per-antenna geometry tables, built once from
/// the pipeline's `(region, solver config, poses)` and shared read-only
/// by every worker. Reusable across any number of
/// [`RfPrism::sense_batch_with`] calls as long as the pipeline's region
/// and configuration are unchanged.
#[derive(Debug, Clone)]
pub struct BatchCache {
    seeds: SolveSeeds,
}

impl BatchCache {
    pub(crate) fn seeds(&self) -> &SolveSeeds {
        &self.seeds
    }
}

/// Per-scene precomputation for batched 3-D sensing (see [`BatchCache`]).
#[derive(Debug, Clone)]
pub struct BatchCache3D {
    seeds: Solve3DSeeds,
}

impl BatchCache3D {
    pub(crate) fn seeds(&self) -> &Solve3DSeeds {
        &self.seeds
    }
}

impl RfPrism {
    /// Builds the per-scene cache for [`RfPrism::sense_batch_with`].
    pub fn batch_cache(&self) -> BatchCache {
        BatchCache { seeds: self.solve_seeds() }
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
        self.sense_batch_with(&self.batch_cache(), tags, jobs)
    }

    /// [`RfPrism::sense_batch`] against a prebuilt [`BatchCache`] — use
    /// when sensing repeatedly against the same scene to skip rebuilding
    /// the seed grid each call.
    pub fn sense_batch_with<T>(
        &self,
        cache: &BatchCache,
        tags: &[T],
        jobs: usize,
    ) -> Vec<Result<SensingResult, SenseError>>
    where
        T: AsRef<[Vec<RawRead>]> + Sync,
    {
        let _batch_span = obs::span("sense_batch");
        obs::counter_add(obs::id::BATCH_TAGS, tags.len() as u64);
        obs::gauge_set(obs::id::BATCH_WORKERS, effective_jobs(jobs, tags.len()) as f64);
        fan_out(tags, jobs, SenseWorkspace::default, |reads, workspace| {
            self.sense_with(reads.as_ref(), &cache.seeds, workspace, None)
        })
    }

    /// [`RfPrism::sense_batch_with`] with one optional warm-start prior
    /// per tag (`warms[t]` seeds tag *t*; see [`RfPrism::sense_warm`]).
    /// Input order is preserved and every output is bit-identical at any
    /// `jobs`, because each tag's solve depends only on its own reads and
    /// its own prior.
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
        let _batch_span = obs::span("sense_batch");
        obs::counter_add(obs::id::BATCH_TAGS, tags.len() as u64);
        obs::gauge_set(obs::id::BATCH_WORKERS, effective_jobs(jobs, tags.len()) as f64);
        let items: Vec<(&T, Option<&WarmStart>)> =
            tags.iter().zip(warms.iter().map(Option::as_ref)).collect();
        fan_out(&items, jobs, SenseWorkspace::default, |(reads, warm), workspace| {
            self.sense_with(reads.as_ref(), &cache.seeds, workspace, *warm)
        })
    }

    /// Senses many tags from multiple hop rounds each, in parallel:
    /// `tags[t]` holds tag *t*'s rounds, and index *t* of the result is
    /// exactly what [`RfPrism::sense_rounds`] would return for them,
    /// bit-for-bit, at any `jobs` (same semantics as
    /// [`RfPrism::sense_batch`]).
    pub fn sense_rounds_batch<T>(
        &self,
        tags: &[T],
        jobs: usize,
    ) -> Vec<Result<SensingResult, SenseError>>
    where
        T: AsRef<[Vec<Vec<RawRead>>]> + Sync,
    {
        let cache = self.batch_cache();
        let _batch_span = obs::span("sense_rounds_batch");
        obs::counter_add(obs::id::BATCH_TAGS, tags.len() as u64);
        obs::gauge_set(obs::id::BATCH_WORKERS, effective_jobs(jobs, tags.len()) as f64);
        fan_out(tags, jobs, SenseWorkspace::default, |rounds, workspace| {
            self.sense_rounds_with(rounds.as_ref(), &cache.seeds, workspace, None)
        })
    }

    /// [`RfPrism::sense_rounds_batch`] with one optional warm-start prior
    /// per tag (see [`RfPrism::sense_batch_warm`] for the contract).
    ///
    /// # Panics
    ///
    /// Panics if `tags.len() != warms.len()`.
    pub fn sense_rounds_batch_warm<T>(
        &self,
        cache: &BatchCache,
        tags: &[T],
        warms: &[Option<WarmStart>],
        jobs: usize,
    ) -> Vec<Result<SensingResult, SenseError>>
    where
        T: AsRef<[Vec<Vec<RawRead>>]> + Sync,
    {
        assert_eq!(
            tags.len(),
            warms.len(),
            "sense_rounds_batch_warm needs one (possibly None) warm start per tag"
        );
        let _batch_span = obs::span("sense_rounds_batch");
        obs::counter_add(obs::id::BATCH_TAGS, tags.len() as u64);
        obs::gauge_set(obs::id::BATCH_WORKERS, effective_jobs(jobs, tags.len()) as f64);
        let items: Vec<(&T, Option<&WarmStart>)> =
            tags.iter().zip(warms.iter().map(Option::as_ref)).collect();
        fan_out(&items, jobs, SenseWorkspace::default, |(rounds, warm), workspace| {
            self.sense_rounds_with(rounds.as_ref(), &cache.seeds, workspace, *warm)
        })
    }
}

impl RfPrism3D {
    /// Builds the per-scene cache for [`RfPrism3D::sense_batch_with`].
    pub fn batch_cache(&self) -> BatchCache3D {
        BatchCache3D { seeds: self.solve_seeds() }
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
        self.sense_batch_with(&self.batch_cache(), tags, jobs)
    }

    /// [`RfPrism3D::sense_batch`] against a prebuilt [`BatchCache3D`].
    pub fn sense_batch_with<T>(
        &self,
        cache: &BatchCache3D,
        tags: &[T],
        jobs: usize,
    ) -> Vec<Result<Sensing3DResult, Sense3DError>>
    where
        T: AsRef<[Vec<RawRead>]> + Sync,
    {
        let _batch_span = obs::span("sense_batch_3d");
        obs::counter_add(obs::id::BATCH_TAGS, tags.len() as u64);
        obs::gauge_set(obs::id::BATCH_WORKERS, effective_jobs(jobs, tags.len()) as f64);
        fan_out(tags, jobs, Sense3DWorkspace::default, |reads, workspace| {
            self.sense_with(reads.as_ref(), &cache.seeds, workspace, None)
        })
    }

    /// [`RfPrism3D::sense_batch_with`] with one optional warm-start prior
    /// per tag (see [`RfPrism::sense_batch_warm`] for the contract).
    ///
    /// # Panics
    ///
    /// Panics if `tags.len() != warms.len()`.
    pub fn sense_batch_warm<T>(
        &self,
        cache: &BatchCache3D,
        tags: &[T],
        warms: &[Option<WarmStart3D>],
        jobs: usize,
    ) -> Vec<Result<Sensing3DResult, Sense3DError>>
    where
        T: AsRef<[Vec<RawRead>]> + Sync,
    {
        assert_eq!(
            tags.len(),
            warms.len(),
            "sense_batch_warm needs one (possibly None) warm start per tag"
        );
        let _batch_span = obs::span("sense_batch_3d");
        obs::counter_add(obs::id::BATCH_TAGS, tags.len() as u64);
        obs::gauge_set(obs::id::BATCH_WORKERS, effective_jobs(jobs, tags.len()) as f64);
        let items: Vec<(&T, Option<&WarmStart3D>)> =
            tags.iter().zip(warms.iter().map(Option::as_ref)).collect();
        fan_out(&items, jobs, Sense3DWorkspace::default, |(reads, warm), workspace| {
            self.sense_with(reads.as_ref(), &cache.seeds, workspace, *warm)
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

/// The worker pool: runs `work` over `items` on `jobs` scoped threads,
/// giving each worker one `new_state()` value it reuses across all the
/// items it claims. Returns results in input order.
///
/// Work is claimed in contiguous chunks from a shared atomic cursor
/// (dynamic scheduling — solves vary in cost, so purely static chunking
/// would leave workers idle, while per-item claiming maximizes contention
/// on the counter and interleaves the workers' cache footprints). The
/// chunk size targets ~4 claims per worker so the tail stays balanced.
/// `(index, result)` pairs flow back over an mpsc channel; the caller's
/// thread reassembles them in order. With `jobs <= 1` everything runs
/// inline on the calling thread — no spawn, no channel. Chunking only
/// changes *which worker* computes an item, never the result — each item
/// depends only on shared immutable state and its own input.
fn fan_out<I, R, S, N, F>(items: &[I], jobs: usize, new_state: N, work: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    N: Fn() -> S + Sync,
    F: Fn(&I, &mut S) -> R + Sync,
{
    let jobs = effective_jobs(jobs, items.len());
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
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let (obs_tx, obs_rx) = mpsc::channel::<(usize, obs::WorkerObs)>();
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let tx = tx.clone();
            let obs_tx = obs_tx.clone();
            let (next, new_state, work) = (&next, &new_state, &work);
            scope.spawn(move || {
                let ((), worker_obs) = obs::WorkerObs::new(observing).run(|| {
                    let mut state = new_state();
                    'claim: loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= items.len() {
                            break;
                        }
                        let end = (start + chunk).min(items.len());
                        for (i, item) in items[start..end].iter().enumerate() {
                            let result = work(item, &mut state);
                            if tx.send((start + i, result)).is_err() {
                                break 'claim;
                            }
                        }
                    }
                });
                let _ = obs_tx.send((w, worker_obs));
            });
        }
        drop(tx);
        drop(obs_tx);
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        for (i, result) in rx {
            debug_assert!(out[i].is_none(), "item {i} solved twice");
            out[i] = Some(result);
        }
        // Merge what the workers recorded into the coordinator's recorder
        // in worker-index order: a fixed merge order plus commutative
        // counter addition makes every count-type metric identical to a
        // sequential run, at any worker count. (Timings stay wall-clock.)
        let mut workers: Vec<(usize, obs::WorkerObs)> = obs_rx.iter().collect();
        workers.sort_by_key(|&(w, _)| w);
        for (_, worker_obs) in &workers {
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
        let out = fan_out(&[] as &[usize], 8, || (), |&i, _| i);
        assert!(out.is_empty());
    }
}
