//! Multi-tenant analytics platform: sixteen concurrent jobs — four
//! rotations of the paper's mix — sharing one graph.  Demonstrates job
//! batching (more jobs than workers) and the spared data accesses that
//! grow with concurrency (the paper's Fig. 19 effect).
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```

use cgraph::algos::{Bfs, PageRank, Sssp, Wcc};
use cgraph::baselines::BaselinePreset;
use cgraph::core::{Engine, EngineConfig, JobEngine};
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, PartitionSet, Partitioner};
use cgraph::memsim::HierarchyConfig;

fn submit_rotations<E: JobEngine>(engine: &mut E, rotations: u32) {
    for r in 0..rotations {
        engine.submit_program(PageRank::default());
        engine.submit_program(Sssp::new(r));
        engine.submit_program(Wcc);
        engine.submit_program(Bfs::new(r + 1));
    }
}

fn total_bytes(parts: &PartitionSet) -> u64 {
    parts.partitions().iter().map(|p| p.structure_bytes()).sum()
}

fn main() {
    let edges = generate::rmat(12, 8, generate::RmatParams::default(), 55);
    let parts = VertexCutPartitioner::new(40).partition(&edges);
    let h = HierarchyConfig {
        cache_bytes: total_bytes(&parts) / 8,
        memory_bytes: total_bytes(&parts) * 4,
    };

    // Sequential baseline: the denominator for "spared accesses".
    let mut seq = BaselinePreset::Sequential.build_static(parts.clone(), 4, h);
    submit_rotations(&mut seq, 4);
    seq.run();
    let seq_bytes = seq.metrics().bytes_mem_to_cache + seq.metrics().bytes_disk_to_mem;

    println!(
        "{:>5} {:>14} {:>15} {:>16}",
        "jobs", "modeled time", "LLC miss rate", "spared accesses"
    );
    for rotations in [1u32, 2, 4] {
        let mut engine = Engine::from_partitions(
            parts.clone(),
            EngineConfig { hierarchy: h, ..EngineConfig::default() },
        );
        submit_rotations(&mut engine, rotations);
        let report = engine.run();
        // Scale the sequential volume to the same number of jobs.
        let seq_share = seq_bytes as f64 * rotations as f64 / 4.0;
        let mine = (report.metrics.bytes_mem_to_cache + report.metrics.bytes_disk_to_mem) as f64;
        println!(
            "{:>5} {:>11.2} ms {:>14.1}% {:>15.1}%",
            rotations * 4,
            report.modeled_seconds * 1e3,
            report.metrics.cache_miss_rate() * 100.0,
            (1.0 - mine / seq_share) * 100.0,
        );
    }

    println!(
        "\nwith 16 jobs and 4 workers the engine processes jobs in batches of 4,\n\
         keeping each loaded structure partition pinned while private tables rotate;\n\
         more concurrency -> more sharing -> more spared accesses."
    );
}
