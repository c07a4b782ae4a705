//! Evolving-graph correctness: jobs bound to different snapshots compute
//! results for *their* graph, unchanged partitions stay shared, and the
//! Seraph / Seraph-VT / CGraph disk-traffic ordering of Fig. 16 holds.

use std::sync::Arc;

use cgraph::algos::{reference, Bfs, Sssp, Wcc};
use cgraph::baselines::BaselinePreset;
use cgraph::core::{Engine, EngineConfig, TypedJob};
use cgraph::graph::snapshot::{GraphDelta, SnapshotStore};
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, Csr, Edge, PartitionSet, Partitioner};
use cgraph::memsim::HierarchyConfig;
use cgraph_bench::ingest_stream_spread;

fn evolving_store(seed: u64) -> Arc<SnapshotStore> {
    evolving_store_with(seed, false)
}

/// `clustered` confines addition sources to vertices 0..3, so most
/// partitions keep their version across the delta whatever graph the
/// seeded generator produced — the sharing regime the Seraph-VT
/// comparison needs.  The default scattered delta re-versions partitions
/// across the whole graph.
fn evolving_store_with(seed: u64, clustered: bool) -> Arc<SnapshotStore> {
    let el = generate::rmat(9, 4, generate::RmatParams::default(), seed);
    let n = el.num_vertices();
    let ps = VertexCutPartitioner::new(12).partition(&el);
    let mut store = SnapshotStore::new(ps);
    let adds: Vec<Edge> = (0..30)
        .map(|i| {
            let src = if clustered { i % 3 } else { i * 11 % n };
            Edge::weighted(src, (i * 17 + 3) % n, 1.0)
        })
        .collect();
    store.apply(10, &GraphDelta::adding(adds)).unwrap();
    let removals: Vec<(u32, u32)> = store
        .base()
        .partition(0)
        .edges_global()
        .iter()
        .take(4)
        .map(|e| (e.src, e.dst))
        .collect();
    store.apply(20, &GraphDelta::removing(removals)).unwrap();
    Arc::new(store)
}

#[test]
fn jobs_bound_to_their_snapshot_match_reference() {
    let store = evolving_store(7);
    let mut engine = Engine::new(Arc::clone(&store), EngineConfig::default());
    let j_base = engine.submit_at(Bfs::new(0), 0);
    let j_mid = engine.submit_at(Bfs::new(0), 10);
    let j_new = engine.submit_at(Bfs::new(0), 25);
    let w_mid = engine.submit_at(Wcc, 15);
    assert!(engine.run().completed);

    for (job, ts) in [(j_base, 0), (j_mid, 10), (j_new, 25)] {
        let edges = store.view_at(ts).edges_global();
        let expect = reference::bfs(&Csr::from_edges(&edges), 0);
        assert_eq!(
            engine.results::<Bfs>(job).unwrap(),
            expect,
            "BFS against snapshot @{ts}"
        );
    }
    let edges_mid = store.view_at(15).edges_global();
    assert_eq!(
        engine.results::<Wcc>(w_mid).unwrap(),
        reference::wcc(&edges_mid),
        "WCC against snapshot @10"
    );
}

#[test]
fn small_deltas_keep_most_partitions_shared() {
    // A clustered delta (few source vertices) touches few partitions:
    // additions land in the master partitions of their sources.
    let el = generate::rmat(9, 4, generate::RmatParams::default(), 8);
    let n = el.num_vertices();
    let ps = VertexCutPartitioner::new(12).partition(&el);
    let mut store = SnapshotStore::new(ps);
    let adds: Vec<Edge> = (0..10)
        .map(|i| Edge::unit(i % 3, (i * 37 + 5) % n))
        .collect();
    store.apply(10, &GraphDelta::adding(adds)).unwrap();
    let store = Arc::new(store);
    let shared = store.base_view().shared_fraction(&store.latest());
    assert!(
        shared >= 0.5,
        "a clustered delta should leave most partitions shared, got {shared}"
    );
    assert!(shared < 1.0, "deltas must re-version something");
}

#[test]
fn scattered_deltas_reduce_sharing_more_than_clustered() {
    let el = generate::rmat(9, 4, generate::RmatParams::default(), 8);
    let n = el.num_vertices();
    let shared_after = |adds: Vec<Edge>| {
        let ps = VertexCutPartitioner::new(12).partition(&el);
        let mut store = SnapshotStore::new(ps);
        store.apply(10, &GraphDelta::adding(adds)).unwrap();
        let store = Arc::new(store);
        store.base_view().shared_fraction(&store.latest())
    };
    let clustered = shared_after(
        (0..24)
            .map(|i| Edge::unit(i % 2, (i * 37 + 5) % n))
            .collect(),
    );
    let scattered = shared_after(
        (0..24)
            .map(|i| Edge::unit(i * 97 % n, (i * 37 + 5) % n))
            .collect(),
    );
    assert!(
        clustered > scattered,
        "clustered {clustered} should share more than scattered {scattered}"
    );
}

#[test]
fn concurrent_jobs_on_different_snapshots_share_cache() {
    // Two jobs on adjacent snapshots vs two jobs on wildly different data:
    // the former must move fewer structure bytes.
    let store = evolving_store(9);
    let total_structure: u64 = (0..store.base().num_partitions() as u32)
        .map(|p| store.base().partition(p).structure_bytes())
        .sum();
    let h = HierarchyConfig { cache_bytes: total_structure / 6, memory_bytes: total_structure * 4 };

    let mut shared_engine = Engine::new(
        Arc::clone(&store),
        EngineConfig { hierarchy: h, ..EngineConfig::default() },
    );
    shared_engine.submit_at(Bfs::new(0), 10);
    shared_engine.submit_at(Bfs::new(0), 25);
    let r_shared = shared_engine.run();

    // Same two jobs through plain Seraph (full per-snapshot copies).
    let mut seraph = BaselinePreset::Seraph.build(Arc::clone(&store), 4, h);
    seraph.submit_at(Bfs::new(0), 10);
    seraph.submit_at(Bfs::new(0), 25);
    let r_seraph = seraph.run();

    assert!(
        r_shared.metrics.bytes_mem_to_cache < r_seraph.metrics.bytes_mem_to_cache,
        "CGraph {} bytes vs Seraph {} bytes",
        r_shared.metrics.bytes_mem_to_cache,
        r_seraph.metrics.bytes_mem_to_cache
    );
}

#[test]
fn seraph_vt_beats_plain_seraph_on_snapshots() {
    // Clustered deltas leave partitions version-shared across snapshots
    // — the property VT's incremental versions exploit; a scattered
    // delta can re-version everything and degenerate VT to plain Seraph.
    let store = evolving_store_with(10, true);
    let total_structure: u64 = (0..store.base().num_partitions() as u32)
        .map(|p| store.base().partition(p).structure_bytes())
        .sum();
    // Tight memory so copy duplication costs disk I/O.
    let h = HierarchyConfig {
        cache_bytes: total_structure / 8,
        memory_bytes: total_structure + total_structure / 4,
    };
    let run = |preset: BaselinePreset| {
        let mut e = preset.build(Arc::clone(&store), 4, h);
        e.submit_at(Bfs::new(0), 0);
        e.submit_at(Bfs::new(0), 10);
        e.submit_at(Bfs::new(0), 20);
        e.run().metrics
    };
    let seraph = run(BaselinePreset::Seraph);
    let vt = run(BaselinePreset::SeraphVt);
    assert!(
        vt.bytes_disk_to_mem <= seraph.bytes_disk_to_mem,
        "VT {} vs Seraph {}",
        vt.bytes_disk_to_mem,
        seraph.bytes_disk_to_mem
    );
    assert!(
        vt.bytes_mem_to_cache < seraph.bytes_mem_to_cache,
        "VT cache volume {} vs Seraph {}",
        vt.bytes_mem_to_cache,
        seraph.bytes_mem_to_cache
    );
}

#[test]
fn bigger_deltas_reduce_sharing_and_raise_cost() {
    // The Fig. 16 trend: more change between snapshots -> less sharing ->
    // more data movement for the same job mix.
    let el = generate::rmat(9, 4, generate::RmatParams::default(), 21);
    let n = el.num_vertices();
    let run_with_changes = |count: u32| {
        let ps = VertexCutPartitioner::new(12).partition(&el);
        let mut store = SnapshotStore::new(ps);
        let adds: Vec<Edge> = (0..count)
            .map(|i| Edge::unit(i * 13 % n, (i * 29 + 1) % n))
            .collect();
        store.apply(10, &GraphDelta::adding(adds)).unwrap();
        let store = Arc::new(store);
        let total: u64 = (0..12u32)
            .map(|p| store.base().partition(p).structure_bytes())
            .sum();
        let h = HierarchyConfig { cache_bytes: total / 6, memory_bytes: total * 4 };
        let mut e = Engine::new(
            store,
            EngineConfig { hierarchy: h, ..EngineConfig::default() },
        );
        e.submit_at(Bfs::new(0), 0);
        e.submit_at(Bfs::new(0), 10);
        e.run().metrics.bytes_mem_to_cache
    };
    let small = run_with_changes(2);
    let large = run_with_changes(200);
    assert!(
        large > small,
        "large delta {large} should cost more than {small}"
    );
}

/// Jobs bound to one view route Push through one shared replica plan,
/// however their binds interleave with jobs on other views.
#[test]
fn jobs_on_one_view_share_one_replica_plan() {
    let store = evolving_store(7);
    let first = TypedJob::new(0, Bfs::new(0), store.latest());
    let other = TypedJob::new(1, Wcc, store.view_at(10));
    let second = TypedJob::new(2, Wcc, store.latest());
    assert!(Arc::ptr_eq(first.replica_plan(), second.replica_plan()));
    assert!(!Arc::ptr_eq(first.replica_plan(), other.replica_plan()));
    assert!(Arc::ptr_eq(
        other.replica_plan(),
        &store.view_at(15).replica_plan()
    ));
}

/// A long stream of versions, each bound once: the store keeps only the
/// newest plan alive, and no plan keeps the store alive — once a
/// version's engine is gone the store `Arc` is exclusive again, which is
/// what lets a driver `apply` the next delta in place.
#[test]
fn replica_plans_neither_pile_up_nor_pin_the_store() {
    let el = generate::rmat(8, 4, generate::RmatParams::default(), 5);
    let n = el.num_vertices();
    let mut store = Arc::new(SnapshotStore::new(
        VertexCutPartitioner::new(6).partition(&el),
    ));
    let mut plans = Vec::new();
    for version in 1..=200u32 {
        let delta = GraphDelta::adding([Edge::unit(version % n, (version * 7 + 1) % n)]);
        Arc::get_mut(&mut store)
            .expect("the previous version's engine is gone, so nothing else holds the store")
            .apply(version as u64, &delta)
            .unwrap();
        let mut engine = Engine::new(Arc::clone(&store), EngineConfig::default());
        let job = engine.submit(Bfs::new(0));
        assert!(engine.run().completed);
        assert!(engine.results::<Bfs>(job).is_some());
        plans.push(Arc::downgrade(&store.latest().replica_plan()));
    }
    let alive = plans.iter().filter(|plan| plan.strong_count() > 0).count();
    assert_eq!(alive, 1, "only the newest version's plan is still held");
    assert!(
        plans.last().unwrap().strong_count() == 1,
        "and only by the store"
    );
}

/// A removal takes the first matching edge in layout order (see
/// `GraphDelta::removals`), so which weighted copy of a duplicated
/// `(src, dst)` pair it drops depends on the partitions.  On the
/// executor-stress store (R-MAT 9 × 4, seed 2024, whose duplicated pairs
/// carry different weights, then 24 deltas that each remove the previous
/// delta's pairs) the greedy cut and a source-sorted layout must hold
/// the same pair multiset at every version, and each version's SSSP must
/// equal the reference over that view's own edges.
#[test]
fn removals_keep_pair_multisets_across_layouts() {
    let el = generate::rmat(9, 4, generate::RmatParams::default(), 2024);
    let n = el.num_vertices();
    let mut sorted = el.edges().to_vec();
    sorted.sort_by_key(|e| (e.src, e.dst));
    let chunks = sorted
        .chunks(sorted.len().div_ceil(16))
        .map(<[Edge]>::to_vec)
        .collect();
    let deltas = ingest_stream_spread(n, 24, 48, 4);
    let build = |ps: PartitionSet| {
        let mut store = SnapshotStore::with_shards(ps, 4);
        for (i, delta) in deltas.iter().enumerate() {
            store.apply((i as u64 + 1) * 10, delta).unwrap();
        }
        Arc::new(store)
    };
    let stores = [
        build(VertexCutPartitioner::new(16).partition(&el)),
        build(PartitionSet::assemble(chunks, n)),
    ];
    let stamps: Vec<u64> = (0..=24).map(|i| i * 10).collect();
    let pairs = |store: &Arc<SnapshotStore>, ts: u64| {
        let mut pairs: Vec<(u32, u32)> = store
            .view_at(ts)
            .edges_global()
            .edges()
            .iter()
            .map(|e| (e.src, e.dst))
            .collect();
        pairs.sort_unstable();
        pairs
    };
    for &ts in &stamps {
        assert_eq!(
            pairs(&stores[0], ts),
            pairs(&stores[1], ts),
            "pair multisets differ at ts {ts}"
        );
    }
    for store in &stores {
        let mut engine = Engine::new(Arc::clone(store), EngineConfig::default());
        let jobs: Vec<_> = stamps
            .iter()
            .map(|&ts| engine.submit_at(Sssp::new(1), ts))
            .collect();
        assert!(engine.run().completed);
        for (job, &ts) in jobs.into_iter().zip(&stamps) {
            let expect = reference::sssp(&Csr::from_edges(&store.view_at(ts).edges_global()), 1);
            assert_eq!(
                engine.results::<Sssp>(job).unwrap(),
                expect,
                "SSSP at ts {ts}"
            );
        }
    }
}
