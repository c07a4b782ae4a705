//! Wall-clock Criterion benchmarks of the engine zoo on the paper's
//! four-job mix (the real-time companion to the modeled Fig. 9).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cgraph_bench::{
    hierarchy_for, out_of_core_hierarchy, paper_mix, partitions_for, run_engine, run_wavefront,
    run_wavefront_cfg, EngineKind, Scale,
};
use cgraph_graph::generate::Dataset;
use cgraph_graph::snapshot::SnapshotStore;

fn bench_four_job_mix(c: &mut Criterion) {
    let scale = Scale { shrink: 7 };
    let mut group = c.benchmark_group("four_job_mix");
    group.sample_size(10);
    for ds in [Dataset::TwitterSim, Dataset::Uk2007Sim] {
        let ps = partitions_for(ds, scale);
        let h = hierarchy_for(ds, &ps);
        let store = Arc::new(SnapshotStore::new(ps));
        for kind in EngineKind::COMPARISON {
            group.bench_with_input(
                BenchmarkId::new(kind.name(), ds.name()),
                &kind,
                |b, &kind| {
                    b.iter(|| run_engine(kind, &store, 2, h, &paper_mix()));
                },
            );
        }
    }
    group.finish();
}

fn bench_scheduler_ablation(c: &mut Criterion) {
    let scale = Scale { shrink: 7 };
    let ds = Dataset::FriendsterSim;
    let ps = partitions_for(ds, scale);
    let h = hierarchy_for(ds, &ps);
    let store = Arc::new(SnapshotStore::new(ps));
    let mut group = c.benchmark_group("scheduler_ablation");
    group.sample_size(10);
    for kind in [EngineKind::CGraph, EngineKind::CGraphWithout] {
        group.bench_function(kind.name(), |b| {
            b.iter(|| run_engine(kind, &store, 2, h, &paper_mix()));
        });
    }
    group.finish();
}

/// Wavefront-width sweep: the same four-job mix through the CGraph
/// engine at k ∈ {1, 2, 4} planned slots per round.  Wall-clock is
/// benched; the pipeline-modeled seconds (the paper-style figure, where
/// slot i+1's Load overlaps slot i's Trigger) are printed alongside so
/// the perf trajectory captures the pipelining win.
fn bench_wavefront_sweep(c: &mut Criterion) {
    let scale = Scale { shrink: 7 };
    let ds = Dataset::TwitterSim;
    let ps = partitions_for(ds, scale);
    let h = hierarchy_for(ds, &ps);
    let store = Arc::new(SnapshotStore::new(ps));
    let mut group = c.benchmark_group("wavefront_sweep");
    group.sample_size(10);
    for width in [1usize, 2, 4] {
        let report = run_wavefront(&store, 2, h, width, &paper_mix());
        println!(
            "wavefront_sweep/k={width}: modeled {:.3} ms over {} loads",
            report.modeled_seconds * 1e3,
            report.loads
        );
        group.bench_with_input(BenchmarkId::new("k", width), &width, |b, &width| {
            b.iter(|| run_wavefront(&store, 2, h, width, &paper_mix()));
        });
    }
    group.finish();
}

/// Shard/prefetch sweep: k = 4 waves on an out-of-core hierarchy
/// (disk-bound loads) across `{store shards} × {prefetch_depth}` — the
/// three-stage pipeline's win over the fused two-stage Load.
fn bench_prefetch_sweep(c: &mut Criterion) {
    let scale = Scale { shrink: 7 };
    let ds = Dataset::TwitterSim;
    let ps = partitions_for(ds, scale);
    let h = out_of_core_hierarchy(&ps);
    let mut group = c.benchmark_group("prefetch_sweep");
    group.sample_size(10);
    for (shards, depth) in [(1usize, 0usize), (4, 0), (4, 1), (4, 2)] {
        let store = Arc::new(SnapshotStore::with_shards(ps.clone(), shards));
        let report = run_wavefront_cfg(&store, 2, h, 4, depth, &paper_mix());
        println!(
            "prefetch_sweep/s={shards}_d={depth}: modeled {:.3} ms over {} loads",
            report.modeled_seconds * 1e3,
            report.loads
        );
        group.bench_with_input(
            BenchmarkId::new("s_d", format!("{shards}_{depth}")),
            &depth,
            |b, &depth| {
                b.iter(|| run_wavefront_cfg(&store, 2, h, 4, depth, &paper_mix()));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_four_job_mix,
    bench_scheduler_ablation,
    bench_wavefront_sweep,
    bench_prefetch_sweep
);
criterion_main!(benches);
