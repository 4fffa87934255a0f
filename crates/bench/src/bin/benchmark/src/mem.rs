//! Heap the program under test holds.
//!
//! A counting global allocator keeps the live heap bytes and their peak.
//! A workload restarts the peak once its inputs are generated and its own
//! buffers for the first pass are reserved, and reads it when set-up and
//! the first pass over the inputs are done. `heap_peak_mb` is then the
//! most heap the installation and its requests held on top of the
//! inputs, without the benchmark's buffers, whose size depends on how many
//! requests a run fits in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

/// The system allocator, counted.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments and
// only adds bookkeeping on atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Restarts the peak at the live heap now, and returns the live heap.
pub fn restart() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The highest live heap since the last [`restart`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_covers_what_is_held() {
        // Other tests allocate, free and restart on their own threads
        // meanwhile, so only what this test holds is certain. The zeroed
        // buffer is never touched, so it takes address space, not memory.
        restart();
        let held = vec![0u8; 1 << 28];
        std::hint::black_box(&held);
        assert!(peak() >= 1 << 28);
        let mut grown = Vec::<u8>::with_capacity(16);
        grown.reserve_exact(1 << 29);
        std::hint::black_box(&grown);
        assert!(peak() >= (1 << 28) + (1 << 29));
    }
}
