//! Standing jobs: a registered query re-emits once per snapshot
//! version, resuming each emission from the previous one's converged
//! result at O(Δ) instead of recomputing from scratch (`core::incr`).
//!
//! ```sh
//! cargo run --release --example standing_jobs
//! ```

use std::sync::Arc;

use cgraph::algos::{Bfs, Wcc};
use cgraph::core::{Engine, EngineConfig, ServeConfig, ServeLoop, Standing};
use cgraph::graph::snapshot::{GraphDelta, SnapshotStore};
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, Edge, Partitioner};

fn main() {
    // Base graph at timestamp 0, then three addition-only updates: the
    // monotone-safe stream shape where every resume takes the seeded
    // O(Δ) path (a removal anywhere in a range would fall back to a
    // from-scratch bind for that emission — still bit-identical).
    let edges = generate::rmat(11, 8, generate::RmatParams::default(), 7);
    let n = edges.num_vertices();
    let parts = VertexCutPartitioner::new(24).partition(&edges);
    let mut store = SnapshotStore::new(parts);
    for (i, ts) in [10u64, 20, 30].into_iter().enumerate() {
        let adds: Vec<Edge> = (0..16)
            .map(|j| {
                let k = (i * 16 + j) as u32;
                Edge::unit(
                    k.wrapping_mul(2246822519) % n,
                    k.wrapping_mul(2654435761) % n,
                )
            })
            .collect();
        let touched = store.apply(ts, &GraphDelta::adding(adds)).unwrap();
        println!("snapshot @{ts}: re-versioned {touched} of 24 partitions");
    }
    let store = Arc::new(store);

    // Register two standing programs; serving emits each once per
    // version (base + three deltas = four emissions apiece), resuming
    // from its own previous converged result.
    let mut sl = ServeLoop::new(
        Engine::new(Arc::clone(&store), EngineConfig::default()),
        ServeConfig { time_scale: 1e2, ..ServeConfig::default() },
    );
    sl.add_standing(Standing::new("standing-bfs", Bfs::new(0)).boxed());
    sl.add_standing(Standing::new("standing-wcc", Wcc).boxed());
    let report = sl.serve();
    assert!(report.completed, "standing serve drains");

    for idx in 0..sl.standing_count() {
        let runner = sl.standing(idx);
        println!(
            "{}: {} emissions, {} resumed seeded (O(Δ))",
            runner.name(),
            runner.emitted(),
            runner.seeded(),
        );
    }

    // Every emission is a first-class served job with a latency row —
    // and each one's results are bit-identical to a from-scratch bind
    // at its version (pinned exhaustively in tests/incremental.rs).
    for row in &report.jobs {
        println!(
            "  job {:>2} {:<13} arrival {:>5.1}s latency {:>6.3}s [{}]",
            row.job,
            row.name,
            row.arrival,
            row.latency(),
            row.outcome.name(),
        );
    }

    let last = sl.engine().num_jobs() as u32 - 1;
    let labels = sl.engine().results::<Wcc>(last).unwrap();
    let mut roots: Vec<u32> = labels.to_vec();
    roots.sort_unstable();
    roots.dedup();
    println!(
        "head wcc emission: {} components over {n} vertices",
        roots.len()
    );
}
