//! The wavefront/shard/prefetch sweep, machine-readable.
//!
//! Runs the paper's four-job mix through the CGraph engine over the
//! `{wavefront} × {shards} × {prefetch_depth} × {io_workers}` grid on
//! an out-of-core hierarchy (disk-bound loads — the regime the
//! prefetch pipeline targets), prints the table, and writes
//! `BENCH_wavefront.json` so CI can track the perf trajectory point by
//! point.  `io_workers > 0` rows run the pipeline's fetch stage on I/O
//! worker threads behind bounded channels; results are bit-identical to
//! the `io_workers = 0` (inline fetch) rows, only the wall clock moves.
//!
//! Two extra checks ride along:
//!
//! - **Tracing-overhead gate** — a live `Observer` must change no
//!   result and cost ≤5% wall at `k=4 s=4 d=2 io=2`.  Enforced at
//!   default scale and above on hosts with ≥4 cores; recorded-and-
//!   skipped (JSON `gates` row set) elsewhere.
//! - **Steady-state allocation smoke** — a counting global allocator
//!   steps an engine round by round, with the fetch stage inline and
//!   threaded, and asserts the net live-byte growth across post-warmup
//!   rounds stays within a small bound: the round buffers, fetch
//!   payloads, and chunk queue all recycle instead of reallocating per
//!   round.
//!
//! Accepts the standard `--full` / `--tiny` scale flags; `--out PATH`
//! overrides the JSON location.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use cgraph_algos::PageRank;
use cgraph_bench::{
    out_of_core_hierarchy, paper_mix, partitions_for, print_table, run_wavefront_observed,
    run_wavefront_placed, wavefront_sweep, wavefront_sweep_json, Scale, WallGate,
};
use cgraph_core::{Engine, EngineConfig, Observer};
use cgraph_graph::generate::Dataset;
use cgraph_graph::snapshot::{ShardPlacement, SnapshotStore};
use cgraph_memsim::HierarchyConfig;

/// Counting wrapper around the system allocator: allocation calls and
/// net live bytes, cheap enough to leave on for the whole run.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Steps an engine with `io_workers` fetch threads round by round and
/// asserts the post-warmup rounds hold net live-byte growth within
/// `bound` bytes: the per-round fetch/completion payloads, reorder
/// slots, and chunk queue recycle rather than reallocate.
fn steady_state_alloc_smoke(
    store: &Arc<SnapshotStore>,
    h: HierarchyConfig,
    io_workers: usize,
    bound: i64,
) {
    let mut engine = Engine::new(
        Arc::clone(store),
        EngineConfig {
            workers: 2,
            wavefront: 4,
            shards: 4,
            prefetch_depth: 2,
            io_workers,
            hierarchy: h,
            ..EngineConfig::default()
        },
    );
    // Four identical long-running jobs: every round is a multi-slot
    // wave and no job finishes (and frees) mid-measurement.
    for _ in 0..4 {
        engine.submit_at(PageRank::default(), 0);
    }
    // Warmup spawns the worker crew, sizes the round buffers, and
    // faults in the cache working set.
    let mut warm = 0;
    while warm < 3 && engine.step_round() {
        warm += 1;
    }
    let live0 = LIVE_BYTES.load(Ordering::Relaxed);
    let calls0 = ALLOC_CALLS.load(Ordering::Relaxed);
    let mut measured = 0;
    while measured < 8 && engine.step_round() {
        measured += 1;
    }
    let growth = LIVE_BYTES.load(Ordering::Relaxed) - live0;
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls0;
    println!(
        "\nsteady-state allocation smoke (io={io_workers}): {measured} rounds after \
         warmup, net live bytes {growth:+}, {calls} allocation calls"
    );
    if measured >= 2 {
        assert!(
            growth <= bound,
            "steady-state rounds must not grow the heap: {growth} bytes over \
             {measured} rounds (bound {bound})"
        );
    }
}

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_wavefront.json")
        .to_string();

    let ds = Dataset::TwitterSim;
    let ps = partitions_for(ds, scale);
    let h = out_of_core_hierarchy(&ps);
    // Lanes are driven per grid point via `EngineConfig::shards` (the
    // engine takes the finer of config and store sharding, and both
    // place round-robin), so a single-shard store keeps the `shards = 1`
    // rows honest one-lane baselines.
    let store = Arc::new(SnapshotStore::new(ps));

    let grid = [
        (1, 1, 0, 0),
        (2, 1, 0, 0),
        (4, 1, 0, 0),
        (2, 4, 0, 0),
        (4, 4, 0, 0),
        (2, 4, 1, 0),
        (4, 4, 1, 0),
        (2, 4, 2, 0),
        (4, 4, 2, 0),
        // Threaded-fetch rows: same modeled costs and loads as their
        // io=0 twins, I/O threads on the wall clock.
        (4, 4, 0, 4),
        (4, 4, 2, 2),
        (4, 4, 2, 4),
    ];
    let points = wavefront_sweep(&store, 2, h, &paper_mix(), &grid);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!(
                    "k={} s={} d={} io={}",
                    p.wavefront, p.shards, p.prefetch_depth, p.io_workers
                ),
                format!("{:.3}", p.modeled_ms),
                format!("{:.1}", p.wall_ms),
                format!("{:.2}", p.wall_vs_modeled()),
                p.loads.to_string(),
            ]
        })
        .collect();
    print_table(
        "wavefront sweep (out-of-core, four-job mix)",
        &["config", "modeled ms", "wall ms", "wall/model", "loads"],
        &rows,
    );

    // The fetch thread count is transparent to everything but the wall
    // clock: each io>0 row must reproduce its io=0 twin exactly.
    for p in points.iter().filter(|p| p.io_workers > 0) {
        let twin = points
            .iter()
            .find(|q| {
                q.io_workers == 0
                    && (q.wavefront, q.shards, q.prefetch_depth)
                        == (p.wavefront, p.shards, p.prefetch_depth)
            })
            .expect("every io>0 row has an io=0 twin");
        assert_eq!(p.loads, twin.loads, "io={} changed loads", p.io_workers);
        assert_eq!(
            p.modeled_ms.to_bits(),
            twin.modeled_ms.to_bits(),
            "io={} changed the modeled time",
            p.io_workers
        );
    }

    // The modeled-lane placement knob: the k=4 s=4 d=2 point again with
    // hash-placed lanes.  Placement is transparent to results and loads;
    // only the lane interleaving (and so the modeled overlap) may move.
    let hashed = run_wavefront_placed(&store, 2, h, 4, 4, 2, 0, ShardPlacement::Hash, &paper_mix());
    assert!(hashed.completed, "hash-placed sweep point must converge");
    println!(
        "\nhash-placed lanes at k=4 s=4 d=2: modeled {:.3} ms over {} loads",
        hashed.modeled_seconds * 1e3,
        hashed.loads
    );

    let baseline = points
        .iter()
        .find(|p| p.wavefront == 4 && p.shards == 4 && p.prefetch_depth == 0 && p.io_workers == 0)
        .expect("grid holds the k=4 s=4 d=0 baseline");
    let prefetched = points
        .iter()
        .find(|p| p.wavefront == 4 && p.shards == 4 && p.prefetch_depth == 2 && p.io_workers == 0)
        .expect("grid holds the k=4 s=4 d=2 point");
    let reduction = 1.0 - prefetched.modeled_ms / baseline.modeled_ms;
    println!(
        "\nprefetch win at k=4 s=4: d=2 models {:.3} ms vs d=0 {:.3} ms ({:.1}% reduction)",
        prefetched.modeled_ms,
        baseline.modeled_ms,
        reduction * 100.0
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // --- tracing-overhead gate: a live Observer must be results-neutral
    // and cost <=5% wall at k=4 s=4 d=2 with a threaded fetch stage ---
    let best_observed = |observer: fn() -> Option<Arc<Observer>>| {
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            let report = run_wavefront_observed(
                &store,
                4,
                h,
                4,
                4,
                2,
                2,
                ShardPlacement::RoundRobin,
                &paper_mix(),
                observer(),
            );
            best = best.min(start.elapsed().as_secs_f64());
            assert!(report.completed, "tracing gate run must converge");
            last = Some(report);
        }
        (best, last.expect("three reps ran"))
    };
    let (plain_wall, plain_report) = best_observed(|| None);
    let (traced_wall, traced_report) = best_observed(|| Some(Observer::enabled()));
    assert_eq!(
        plain_report.loads, traced_report.loads,
        "tracing must not change loads"
    );
    assert_eq!(
        plain_report.metrics, traced_report.metrics,
        "tracing must not change metrics"
    );
    assert_eq!(
        plain_report.modeled_seconds.to_bits(),
        traced_report.modeled_seconds.to_bits(),
        "tracing must not perturb modeled time"
    );
    let ratio = plain_wall / traced_wall.max(1e-9);
    println!(
        "\ntracing overhead at k=4 s=4 d=2 io=2: untraced {:.1} ms vs traced {:.1} ms \
         (ratio {ratio:.3}, results identical)",
        plain_wall * 1e3,
        traced_wall * 1e3
    );
    let trace_gate = WallGate::resolve("tracing-overhead", 0.95, ratio, cores, scale.shrink <= 5);
    if trace_gate.enforced() {
        assert!(
            ratio >= 0.95,
            "tracing must cost <=5% wall overhead at default scale, got ratio {ratio:.3}"
        );
    } else {
        println!(
            "(tracing gate {}: {cores} core(s), shrink {})",
            trace_gate.status, scale.shrink
        );
    }

    for io_workers in [0, 2] {
        steady_state_alloc_smoke(&store, h, io_workers, 64 * 1024);
    }

    let json = wavefront_sweep_json(ds.name(), scale.shrink, &points, &[trace_gate]);
    std::fs::write(&out_path, json).expect("write BENCH_wavefront.json");
    println!("wrote {out_path}");
}
