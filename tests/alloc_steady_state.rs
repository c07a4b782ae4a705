//! Steady-state allocation bound: once an engine is warm, stepping it
//! round by round must not grow the heap — the round buffers and the
//! trigger entry list recycle instead of reallocating per round, and
//! Trigger folds in place without scratch vectors, so what a round still
//! allocates stays under a fixed count of calls.
//!
//! The counter is process-wide, so this binary holds **exactly one**
//! `#[test]`: a sibling test's allocations would land in the measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use cgraph::algos::PageRank;
use cgraph::core::{Engine, EngineConfig};
use cgraph::graph::generate::Dataset;
use cgraph::graph::snapshot::SnapshotStore;
use cgraph_bench::{out_of_core_hierarchy, partitions_for, Scale};

/// Counting wrapper around the system allocator: allocation calls and
/// net live bytes.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Net live-byte growth allowed across the measured rounds.
const BOUND: i64 = 64 * 1024;
/// Allocation calls allowed across the measured rounds: under 10 %
/// above the 781 the one-scan Push measures, so a per-Push buffer that
/// grows again fails here.
const CALLS_BOUND: u64 = 850;

#[test]
fn steady_state_rounds_do_not_grow_the_heap() {
    let ps = partitions_for(Dataset::TwitterSim, Scale { shrink: 7 });
    let hierarchy = out_of_core_hierarchy(&ps);
    let mut engine = Engine::new(
        Arc::new(SnapshotStore::with_shards(ps, 4)),
        EngineConfig {
            workers: 2,
            wavefront: 4,
            prefetch_depth: 2,
            hierarchy,
            ..EngineConfig::default()
        },
    );
    // Four identical long-running jobs: every round is a multi-slot wave
    // and no job finishes (and frees) mid-measurement.
    for _ in 0..4 {
        engine.submit_at(PageRank::default(), 0);
    }
    // Warmup sizes the round buffers and faults in the cache working
    // set.
    for _ in 0..3 {
        assert!(engine.step_round(), "PageRank outlasts the warm-up");
    }
    let live0 = LIVE_BYTES.load(Ordering::Relaxed);
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..8 {
        assert!(engine.step_round(), "PageRank outlasts the measured rounds");
    }
    let growth = LIVE_BYTES.load(Ordering::Relaxed) - live0;
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls0;
    println!("net live bytes {growth:+}, {calls} allocation calls");
    assert!(
        growth <= BOUND,
        "steady-state rounds must not grow the heap: {growth} bytes over 8 rounds \
         and {calls} allocation calls (bound {BOUND})"
    );
    assert!(
        calls <= CALLS_BOUND,
        "steady-state rounds allocate too often: {calls} allocation calls over 8 rounds \
         (bound {CALLS_BOUND})"
    );
}
