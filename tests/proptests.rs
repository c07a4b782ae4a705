//! Property-based tests over the substrate and the engine.

use proptest::prelude::*;

use cgraph::algos::{reference, Bfs, Wcc};
use cgraph::core::{Engine, EngineConfig};
use cgraph::graph::snapshot::{
    CompactionPolicy, FootprintProfile, GraphDelta, ShardCapacity, ShardPlacement,
    ShardedSnapshotStore, SnapshotStore,
};
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{Csr, Edge, EdgeList, GraphView, Partitioner};
use cgraph::memsim::{CacheObject, LruCache};

/// Arbitrary small edge lists over up to 24 vertices.
fn arb_edges() -> impl Strategy<Value = EdgeList> {
    proptest::collection::vec((0u32..24, 0u32..24), 1..120).prop_map(|pairs| {
        let edges: Vec<Edge> = pairs
            .into_iter()
            .filter(|(s, d)| s != d)
            .map(|(s, d)| Edge::unit(s, d))
            .collect();
        let mut el = EdgeList::from_edges(edges, 24);
        el.sort_and_dedup();
        el
    })
}

/// One generated mutation round: edges to add, indices picking removals.
type Round = (Vec<(u32, u32)>, Vec<usize>);

/// Resolves `(adds, picks)` rounds against a live multiset so removals
/// always name live edges; returns the deltas with timestamps 10, 20, ….
fn resolve_stream(el: &EdgeList, rounds: &[Round]) -> Vec<(u64, GraphDelta)> {
    let mut live: Vec<(u32, u32)> = el.edges().iter().map(|e| (e.src, e.dst)).collect();
    let mut deltas = Vec::new();
    for (i, (adds, picks)) in rounds.iter().enumerate() {
        let additions: Vec<Edge> = adds
            .iter()
            .filter(|(s, d)| s != d)
            .map(|&(s, d)| Edge::unit(s, d))
            .collect();
        let mut removals = Vec::new();
        for &pick in picks {
            if live.is_empty() {
                break;
            }
            removals.push(live.remove(pick % live.len()));
        }
        live.extend(additions.iter().map(|e| (e.src, e.dst)));
        deltas.push(((i as u64 + 1) * 10, GraphDelta { additions, removals }));
    }
    deltas
}

/// Pins a view's replica plan to its replica table: every master slot
/// routes to exactly `replicas_of(v)` minus the master's own partition,
/// each at the local index `local_of` finds, and mirror slots route
/// nowhere.
fn assert_plan_matches_replica_table(view: &GraphView) {
    let plan = view.replica_plan();
    let mut slots = 0;
    for pid in 0..view.num_partitions() as u32 {
        for (li, &v) in view.partition(pid).vertex_ids().iter().enumerate() {
            let want: Vec<(u32, u32)> = if view.master_of(v) == pid {
                let mirrors = view.replicas_of(v).iter().filter(|&&q| q != pid);
                mirrors
                    .map(|&q| (q, view.partition(q).local_of(v).expect("replica listed")))
                    .collect()
            } else {
                Vec::new()
            };
            assert_eq!(
                plan.mirrors(pid, li as u32),
                want.as_slice(),
                "ts {} partition {pid} vertex {v}",
                view.timestamp()
            );
            slots += want.len();
        }
    }
    assert_eq!(plan.num_mirror_slots(), slots, "ts {}", view.timestamp());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partitioning never loses or duplicates edges, masters are unique,
    /// and every replica knows its master.
    #[test]
    fn partition_invariants(el in arb_edges(), parts in 1usize..6) {
        let ps = VertexCutPartitioner::new(parts).partition(&el);
        prop_assert_eq!(ps.num_edges(), el.len() as u64);
        let total: usize = ps.partitions().iter().map(|p| p.num_edges()).sum();
        prop_assert_eq!(total as u64, ps.num_edges());
        for v in 0..el.num_vertices() {
            let masters = ps
                .partitions()
                .iter()
                .filter_map(|p| p.local_of(v).map(|l| p.meta()[l as usize]))
                .filter(|m| m.is_master)
                .count();
            let replicas = ps.replicas_of(v).len();
            if replicas == 0 {
                prop_assert_eq!(masters, 0);
            } else {
                prop_assert_eq!(masters, 1);
                for &pid in ps.replicas_of(v) {
                    let p = ps.partition(pid);
                    let l = p.local_of(v).unwrap();
                    prop_assert_eq!(p.meta()[l as usize].master_partition, ps.master_of(v));
                }
            }
        }
    }

    /// The engine's BFS equals the textbook BFS on arbitrary graphs and
    /// partition counts.
    #[test]
    fn engine_bfs_matches_reference(el in arb_edges(), parts in 1usize..5, src in 0u32..24) {
        let ps = VertexCutPartitioner::new(parts).partition(&el);
        let mut engine = Engine::from_partitions(ps, EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let job = engine.submit(Bfs::new(src));
        prop_assert!(engine.run().completed);
        let got = engine.results::<Bfs>(job).unwrap();
        let expect = reference::bfs(&Csr::from_edges(&el), src);
        prop_assert_eq!(got, expect);
    }

    /// WCC equals union-find labels on arbitrary graphs.
    #[test]
    fn engine_wcc_matches_union_find(el in arb_edges(), parts in 1usize..5) {
        let ps = VertexCutPartitioner::new(parts).partition(&el);
        let mut engine = Engine::from_partitions(ps, EngineConfig::default());
        let job = engine.submit(Wcc);
        prop_assert!(engine.run().completed);
        prop_assert_eq!(engine.results::<Wcc>(job).unwrap(), reference::wcc(&el));
    }

    /// The LRU tier never exceeds capacity (absent pins), never evicts the
    /// most recently used entry, and tracks bytes exactly.
    #[test]
    fn lru_invariants(ops in proptest::collection::vec((0u32..12, 1u64..40), 1..200)) {
        let mut cache = LruCache::new(100);
        for (pid, bytes) in ops {
            let obj = CacheObject::Structure { pid, version: 0 };
            cache.insert(obj, bytes);
            prop_assert!(cache.used() <= 100, "over capacity: {}", cache.used());
            if bytes <= 100 {
                prop_assert!(cache.contains(&obj), "MRU entry evicted");
            }
        }
        let before = cache.used();
        let resident: Vec<CacheObject> = (0..12)
            .map(|pid| CacheObject::Structure { pid, version: 0 })
            .filter(|o| cache.contains(o))
            .collect();
        for obj in resident {
            cache.remove(&obj);
        }
        prop_assert_eq!(cache.used(), 0, "byte accounting leaked from {}", before);
    }

    /// Applying a delta and materializing the snapshot equals editing the
    /// edge list directly (as multisets of weighted edges).
    #[test]
    fn snapshot_apply_matches_direct_edit(
        el in arb_edges(),
        adds in proptest::collection::vec((0u32..24, 0u32..24), 0..12),
    ) {
        let ps = VertexCutPartitioner::new(3).partition(&el);
        let mut store = SnapshotStore::new(ps);
        let additions: Vec<Edge> = adds
            .into_iter()
            .filter(|(s, d)| s != d)
            .map(|(s, d)| Edge::unit(s, d))
            .collect();
        store.apply(1, &GraphDelta::adding(additions.clone())).unwrap();
        let store = std::sync::Arc::new(store);
        let mut got: Vec<(u32, u32)> = store
            .latest()
            .edges_global()
            .edges()
            .iter()
            .map(|e| (e.src, e.dst))
            .collect();
        got.sort_unstable();
        let mut expect: Vec<(u32, u32)> = el
            .edges()
            .iter()
            .chain(additions.iter())
            .map(|e| (e.src, e.dst))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Degrees reported by a snapshot view equal degrees recomputed from
    /// its materialized edges.
    #[test]
    fn snapshot_degrees_consistent(
        el in arb_edges(),
        adds in proptest::collection::vec((0u32..24, 0u32..24), 1..10),
    ) {
        let ps = VertexCutPartitioner::new(3).partition(&el);
        let mut store = SnapshotStore::new(ps);
        let additions: Vec<Edge> = adds
            .into_iter()
            .filter(|(s, d)| s != d)
            .map(|(s, d)| Edge::unit(s, d))
            .collect();
        store.apply(1, &GraphDelta::adding(additions)).unwrap();
        let store = std::sync::Arc::new(store);
        let view = store.latest();
        let flat = view.edges_global();
        let out = flat.out_degrees();
        let inn = flat.in_degrees();
        for v in 0..24u32 {
            prop_assert_eq!(
                view.degree_of(v),
                (out[v as usize], inn[v as usize]),
                "vertex {}", v
            );
        }
    }

    /// Layering and checkpoint compaction are pure representation: a
    /// random delta stream observed through {compaction off, every_k in
    /// {1, 4}, post-hoc compact(), sharded chains} yields bit-identical
    /// historical views everywhere (edges, versions, masters, replicas,
    /// degrees), and every view's edges and degrees also match a naive
    /// host-side reference multiset.
    #[test]
    fn layered_compaction_is_transparent(
        el in arb_edges(),
        stream in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..24, 0u32..24), 0..10),
                proptest::collection::vec(0usize..64, 0..6),
            ),
            1..5,
        ),
    ) {
        // Resolve the stream against a host-side multiset so removals
        // always name live edges — this multiset is the naive reference.
        let mut live: Vec<(u32, u32)> = el.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut deltas: Vec<GraphDelta> = Vec::new();
        let mut expected: Vec<(u64, Vec<(u32, u32)>)> = Vec::new();
        for (i, (adds, picks)) in stream.iter().enumerate() {
            let additions: Vec<Edge> = adds
                .iter()
                .filter(|(s, d)| s != d)
                .map(|&(s, d)| Edge::unit(s, d))
                .collect();
            let mut removals: Vec<(u32, u32)> = Vec::new();
            for &pick in picks {
                if live.is_empty() {
                    break;
                }
                removals.push(live.remove(pick % live.len()));
            }
            live.extend(additions.iter().map(|e| (e.src, e.dst)));
            let mut snap = live.clone();
            snap.sort_unstable();
            expected.push(((i as u64 + 1) * 10, snap));
            deltas.push(GraphDelta { additions, removals });
        }

        let build = |policy: CompactionPolicy, shards: usize, post_hoc: bool,
                     placement: ShardPlacement| {
            let ps = VertexCutPartitioner::new(4).partition(&el);
            let mut s = ShardedSnapshotStore::with_placement(ps, shards, placement)
                .with_compaction(policy);
            for (d, (ts, _)) in deltas.iter().zip(&expected) {
                s.apply(*ts, d).unwrap();
            }
            if post_hoc {
                s.compact().unwrap();
            }
            std::sync::Arc::new(s)
        };
        let mut profile = FootprintProfile::new();
        profile.record([0u32, 2]);
        profile.record([1u32, 3]);
        let rr = ShardPlacement::RoundRobin;
        let reference = build(CompactionPolicy::Off, 1, false, rr.clone());
        let variants = [
            build(CompactionPolicy::EveryK(1), 1, false, rr.clone()),
            build(CompactionPolicy::EveryK(4), 1, false, rr.clone()),
            build(CompactionPolicy::Off, 1, true, rr.clone()),
            build(CompactionPolicy::EveryK(1), 3, false, rr.clone()),
            build(CompactionPolicy::Off, 3, true, rr),
            build(CompactionPolicy::EveryK(2), 3, false, ShardPlacement::Hash),
            build(
                CompactionPolicy::EveryK(2),
                2,
                true,
                ShardPlacement::locality(&profile, 4, 2),
            ),
        ];
        let mut base_sorted: Vec<(u32, u32)> =
            el.edges().iter().map(|e| (e.src, e.dst)).collect();
        base_sorted.sort_unstable();
        let mut checks: Vec<(u64, &Vec<(u32, u32)>)> = vec![(0, &base_sorted)];
        checks.extend(expected.iter().map(|(ts, snap)| (*ts, snap)));
        for &(ts, want) in &checks {
            let a = reference.view_at(ts);
            // Naive reference: materialized edges and recomputed degrees.
            let mut got: Vec<(u32, u32)> =
                a.edges_global().edges().iter().map(|e| (e.src, e.dst)).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, want, "ts {}", ts);
            for v in 0..24u32 {
                let out = want.iter().filter(|&&(s, _)| s == v).count() as u32;
                let inn = want.iter().filter(|&&(_, d)| d == v).count() as u32;
                prop_assert_eq!(a.degree_of(v), (out, inn), "ts {} v {}", ts, v);
            }
            // Cross-layout identity: every compaction/sharding variant
            // observes exactly what the uncompacted chain observes.
            for bs in &variants {
                let b = bs.view_at(ts);
                prop_assert_eq!(a.timestamp(), b.timestamp());
                for pid in 0..4u32 {
                    prop_assert_eq!(
                        a.version_of(pid), b.version_of(pid),
                        "ts {} pid {}", ts, pid
                    );
                    prop_assert_eq!(
                        a.partition(pid).edges_global(),
                        b.partition(pid).edges_global(),
                        "ts {} pid {}", ts, pid
                    );
                }
                for v in 0..24u32 {
                    prop_assert_eq!(a.master_of(v), b.master_of(v), "ts {} v {}", ts, v);
                    prop_assert_eq!(a.replicas_of(v), b.replicas_of(v), "ts {} v {}", ts, v);
                    prop_assert_eq!(a.degree_of(v), b.degree_of(v), "ts {} v {}", ts, v);
                }
            }
        }
    }

    /// Placement and capacity are pure mechanism: a random delta stream
    /// observed through {round-robin, hash,
    /// locality-over-random-footprints} × {unlimited, tight capacity}
    /// yields bit-identical historical views
    /// everywhere (edges, versions, masters, replicas, degrees), and
    /// spill signals only ever fire on capacity-limited stores.
    #[test]
    fn placement_is_transparent(
        el in arb_edges(),
        stream in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..24, 0u32..24), 0..10),
                proptest::collection::vec(0usize..64, 0..6),
            ),
            1..5,
        ),
        footprints in proptest::collection::vec(
            proptest::collection::vec(0u32..4, 1..4),
            0..6,
        ),
    ) {
        // Resolve the stream against a host-side multiset so removals
        // always name live edges.
        let mut live: Vec<(u32, u32)> = el.edges().iter().map(|e| (e.src, e.dst)).collect();
        let mut deltas: Vec<(u64, GraphDelta)> = Vec::new();
        for (i, (adds, picks)) in stream.iter().enumerate() {
            let additions: Vec<Edge> = adds
                .iter()
                .filter(|(s, d)| s != d)
                .map(|&(s, d)| Edge::unit(s, d))
                .collect();
            let mut removals: Vec<(u32, u32)> = Vec::new();
            for &pick in picks {
                if live.is_empty() {
                    break;
                }
                removals.push(live.remove(pick % live.len()));
            }
            live.extend(additions.iter().map(|e| (e.src, e.dst)));
            deltas.push(((i as u64 + 1) * 10, GraphDelta { additions, removals }));
        }

        let mut profile = FootprintProfile::new();
        for fp in &footprints {
            profile.record(fp.iter().copied());
        }
        let build = |placement: ShardPlacement, cap: ShardCapacity| {
            let ps = VertexCutPartitioner::new(4).partition(&el);
            let mut s = ShardedSnapshotStore::with_placement(ps, 2, placement)
                .with_compaction(CompactionPolicy::EveryK(2))
                .with_capacity(cap);
            for (ts, d) in &deltas {
                s.apply(*ts, d).unwrap();
            }
            std::sync::Arc::new(s)
        };
        let unlimited = ShardCapacity::UNLIMITED;
        let tight = ShardCapacity::bytes(512);
        let locality = ShardPlacement::locality(&profile, 4, 2);
        let reference = build(ShardPlacement::RoundRobin, unlimited);
        let variants = [
            build(ShardPlacement::RoundRobin, tight),
            build(ShardPlacement::Hash, unlimited),
            build(ShardPlacement::Hash, tight),
            build(locality.clone(), unlimited),
            build(locality, tight),
        ];
        let timestamps: Vec<u64> = std::iter::once(0)
            .chain(deltas.iter().map(|(ts, _)| *ts))
            .chain(std::iter::once(999))
            .collect();
        prop_assert!(!reference.has_spills(), "unlimited capacity never spills");
        for &ts in &timestamps {
            let a = reference.view_at(ts);
            for (vi, bs) in variants.iter().enumerate() {
                let b = bs.view_at(ts);
                prop_assert_eq!(a.timestamp(), b.timestamp());
                for pid in 0..4u32 {
                    prop_assert_eq!(
                        a.version_of(pid), b.version_of(pid),
                        "variant {} ts {} pid {}", vi, ts, pid
                    );
                    prop_assert_eq!(
                        a.partition(pid).edges_global(),
                        b.partition(pid).edges_global(),
                        "variant {} ts {} pid {}", vi, ts, pid
                    );
                    prop_assert!(
                        !a.partition_spilled(pid),
                        "unlimited reference must never report spills"
                    );
                    if !bs.capacity().is_limited() {
                        prop_assert!(!b.partition_spilled(pid));
                    }
                }
                for v in 0..24u32 {
                    prop_assert_eq!(a.master_of(v), b.master_of(v), "ts {} v {}", ts, v);
                    prop_assert_eq!(a.replicas_of(v), b.replicas_of(v), "ts {} v {}", ts, v);
                    prop_assert_eq!(a.degree_of(v), b.degree_of(v), "ts {} v {}", ts, v);
                }
            }
        }
    }

    /// A view's replica plan is its replica table, however the view is
    /// resolved: base, latest, historical, behind a checkpoint,
    /// compacted after the fact, through spilled records, and on a store
    /// recovered from its log.
    #[test]
    fn replica_plan_matches_replica_table(
        el in arb_edges(),
        stream in proptest::collection::vec(
            (
                proptest::collection::vec((0u32..24, 0u32..24), 0..10),
                proptest::collection::vec(0usize..64, 0..6),
            ),
            1..5,
        ),
    ) {
        let deltas = resolve_stream(&el, &stream);
        let build = |policy: CompactionPolicy, shards: usize, cap: ShardCapacity| {
            let ps = VertexCutPartitioner::new(4).partition(&el);
            ShardedSnapshotStore::with_shards(ps, shards)
                .with_compaction(policy)
                .with_capacity(cap)
        };
        let fill = |mut s: ShardedSnapshotStore| {
            for (ts, d) in &deltas {
                s.apply(*ts, d).unwrap();
            }
            s
        };
        let unlimited = ShardCapacity::UNLIMITED;
        let tight = ShardCapacity::bytes(512);
        let mut compacted = fill(build(CompactionPolicy::Off, 3, unlimited));
        compacted.compact().unwrap();
        static DIR_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cgraph-plan-prop-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        drop(fill(build(CompactionPolicy::EveryK(2), 2, tight).persist_to(&dir).unwrap()));
        let stores = [
            fill(build(CompactionPolicy::Off, 1, unlimited)),
            fill(build(CompactionPolicy::EveryK(2), 3, unlimited)),
            compacted,
            fill(build(CompactionPolicy::EveryK(2), 2, tight)),
            ShardedSnapshotStore::open(&dir).unwrap(),
        ];
        for store in stores.map(std::sync::Arc::new) {
            for ts in std::iter::once(0).chain(deltas.iter().map(|(ts, _)| *ts)) {
                assert_plan_matches_replica_table(&store.view_at(ts));
            }
            assert_plan_matches_replica_table(&store.latest());
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
