//! The multi-node store differential stress suite: concurrent per-shard
//! apply is bit-identical to serial apply under thread contention at
//! every shard count, and capacity eviction only ever spills
//! checkpoint-covered records (and its re-fetches are charged on the
//! owning shard's lane) without changing anything a view observes.
//!
//! CI runs this binary on the default parallel test harness, under
//! `cargo test -q -- --test-threads=1`, and pinned to one CPU with
//! `taskset -c 0` (where every apply runs on the calling thread alone),
//! so ordering-dependent flakiness in the concurrent-apply path shows
//! up as a diff between the runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cgraph::algos::Bfs;
use cgraph::baselines::{StreamConfig, StreamEngine};
use cgraph::core::{Engine, EngineConfig};
use cgraph::graph::snapshot::{CompactionPolicy, GraphDelta, ShardCapacity, ShardedSnapshotStore};
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, PartitionSet, Partitioner, VersionId, VertexId};
use cgraph_bench::ingest_stream_spread;

const VERTICES: u32 = 4096;
const PARTITIONS: usize = 32;
const DELTAS: usize = 200;

fn base() -> PartitionSet {
    VertexCutPartitioner::new(PARTITIONS).partition(&generate::cycle(VERTICES))
}

fn stream() -> Vec<GraphDelta> {
    ingest_stream_spread(VERTICES, DELTAS, 32, 8)
}

/// Everything a view can observe at one timestamp, flattened for
/// differential comparison.
#[derive(PartialEq, Debug)]
struct ViewDigest {
    ts: u64,
    versions: Vec<VersionId>,
    edges: Vec<(VertexId, VertexId)>,
    masters: Vec<u32>,
    degrees: Vec<(u32, u32)>,
}

fn digest(store: &Arc<ShardedSnapshotStore>, ts: u64) -> ViewDigest {
    let v = store.view_at(ts);
    let mut edges: Vec<(VertexId, VertexId)> = v
        .edges_global()
        .edges()
        .iter()
        .map(|e| (e.src, e.dst))
        .collect();
    edges.sort_unstable();
    ViewDigest {
        ts,
        versions: (0..PARTITIONS as u32).map(|p| v.version_of(p)).collect(),
        edges,
        masters: (0..VERTICES).step_by(37).map(|x| v.master_of(x)).collect(),
        degrees: (0..VERTICES).step_by(37).map(|x| v.degree_of(x)).collect(),
    }
}

fn digests(store: &Arc<ShardedSnapshotStore>) -> Vec<ViewDigest> {
    [0u64, 490, 990, 1490, 2000]
        .into_iter()
        .map(|ts| digest(store, ts))
        .collect()
}

fn apply_all(mut store: ShardedSnapshotStore, stream: &[GraphDelta]) -> Arc<ShardedSnapshotStore> {
    for (i, d) in stream.iter().enumerate() {
        store.apply((i as u64 + 1) * 10, d).expect("stream applies");
    }
    Arc::new(store)
}

/// N writer threads, each driving its own store through the same
/// 200-delta stream under a different shard count, all racing at once: every final chain must be
/// bit-identical to the single-threaded reference, view by historical
/// view.
#[test]
fn concurrent_apply_stress_matches_serial() {
    let ps = base();
    let stream = stream();
    let reference = digests(&apply_all(
        ShardedSnapshotStore::with_shards(ps.clone(), 4),
        &stream,
    ));

    // Two identical 4-shard writers race each other on the same input.
    let shard_counts = [1usize, 4, 4, 8, 3];
    let results: Vec<(usize, Vec<ViewDigest>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shard_counts
            .into_iter()
            .map(|shards| {
                let ps = ps.clone();
                let stream = &stream;
                scope.spawn(move || {
                    let store = apply_all(ShardedSnapshotStore::with_shards(ps, shards), stream);
                    (shards, digests(&store))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer"))
            .collect()
    });
    for (shards, got) in results {
        assert_eq!(got, reference, "shards={shards} diverged from serial apply");
    }
}

/// Writers interleaving applies on ONE shared store (a ticket per delta
/// keeps the global timestamp order) must produce exactly the serial
/// chain — and must not deadlock under lock contention.
#[test]
fn interleaved_writers_on_shared_store_stay_serializable() {
    let ps = base();
    let stream = stream();
    let reference = digests(&apply_all(
        ShardedSnapshotStore::with_shards(ps.clone(), 4),
        &stream,
    ));

    const WRITERS: usize = 4;
    let store = Mutex::new(Some(ShardedSnapshotStore::with_shards(ps, 4)));
    let turn = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let store = &store;
            let turn = &turn;
            let stream = &stream;
            scope.spawn(move || {
                // Writer `w` owns deltas w, w + WRITERS, w + 2·WRITERS, …
                for (i, d) in stream.iter().enumerate().skip(w).step_by(WRITERS) {
                    while turn.load(Ordering::Acquire) != i {
                        std::thread::yield_now();
                    }
                    let mut guard = store.lock().expect("store lock");
                    let s = guard.as_mut().expect("store present");
                    s.apply((i as u64 + 1) * 10, d).expect("stream applies");
                    drop(guard);
                    turn.store(i + 1, Ordering::Release);
                }
            });
        }
    });
    let shared = Arc::new(store.into_inner().expect("lock").expect("store"));
    assert_eq!(
        digests(&shared),
        reference,
        "interleaved writers diverged from serial apply"
    );
}

/// Deltas big enough that `apply` fans out, checked against a host-side
/// edge multiset.  The base is R-MAT scale 13 (8192 vertices × 16 =
/// 131072 edges) over 32 equal-edge partitions, ~4096 edges each.  Each
/// delta adds 64 edges from 8 spread sources and removes the previous
/// delta's, so it re-versions up to 8 partitions, and every delta is
/// asserted to rebuild at least 2 × 8192 edges: its apply width is
/// `min(host CPUs, affected partitions, rebuild edges / 8192)` ≥ 2 on
/// any host with two CPUs, so this test runs the helper threads there
/// (and the calling thread alone under `taskset -c 0`).  Every sampled
/// view, latest and historical, must equal the multiset and its degrees.
#[test]
fn wide_deltas_fan_out_and_match_a_host_multiset() {
    const N: u32 = 1 << 13;
    const SAMPLE_EVERY: usize = 6;
    let el = generate::rmat(13, 16, generate::RmatParams::default(), 7);
    let mut store =
        ShardedSnapshotStore::with_shards(VertexCutPartitioner::new(PARTITIONS).partition(&el), 4);
    let stream = ingest_stream_spread(N, 24, 64, 8);
    let mut live: Vec<(VertexId, VertexId)> = el.edges().iter().map(|e| (e.src, e.dst)).collect();
    let mut expected = vec![(0u64, live.clone())];
    for (i, d) in stream.iter().enumerate() {
        let ts = (i as u64 + 1) * 10;
        store.apply(ts, d).expect("stream applies");
        for &(s, t) in &d.removals {
            let at = live.iter().position(|&e| e == (s, t)).expect("live edge");
            live.swap_remove(at);
        }
        live.extend(d.additions.iter().map(|e| (e.src, e.dst)));
        if (i + 1) % SAMPLE_EVERY == 0 {
            expected.push((ts, live.clone()));
        }
    }
    let store = Arc::new(store);
    for (i, d) in stream.iter().enumerate() {
        let (pre, post) = (
            store.view_at(i as u64 * 10),
            store.view_at((i as u64 + 1) * 10),
        );
        let rebuilt: usize = (0..PARTITIONS as u32)
            .filter(|&p| pre.version_of(p) != post.version_of(p))
            .map(|p| pre.partition(p).num_edges())
            .sum::<usize>()
            + d.additions.len();
        assert!(
            rebuilt >= 2 * 8192,
            "delta {i} rebuilds only {rebuilt} edges"
        );
    }
    for (ts, mut edges) in expected {
        let view = store.view_at(ts);
        let mut got: Vec<(VertexId, VertexId)> = view
            .edges_global()
            .edges()
            .iter()
            .map(|e| (e.src, e.dst))
            .collect();
        got.sort_unstable();
        edges.sort_unstable();
        assert_eq!(got, edges, "ts {ts}: edge multiset");
        let mut degrees = vec![(0u32, 0u32); N as usize];
        for &(s, t) in &edges {
            degrees[s as usize].0 += 1;
            degrees[t as usize].1 += 1;
        }
        for v in 0..N {
            assert_eq!(view.degree_of(v), degrees[v as usize], "ts {ts} v {v}");
        }
    }
}

/// Capacity eviction invariants under a long stream: every spilled
/// record sits strictly below its shard's newest checkpoint (so no
/// historical walk can dangle — it always terminates on resident
/// state), the post-install resident bytes respect the budget whenever
/// anything evictable remains, and the capped store stays bit-identical
/// to the uncapped one.
#[test]
fn capacity_eviction_invariants() {
    let ps = base();
    let stream = stream();
    let uncapped = apply_all(
        ShardedSnapshotStore::with_shards(ps.clone(), 4)
            .with_compaction(CompactionPolicy::EveryK(8)),
        &stream,
    );
    let cap = (0..4)
        .map(|s| uncapped.shard_resident_bytes(s))
        .max()
        .unwrap()
        * 6
        / 10;
    let capped = apply_all(
        ShardedSnapshotStore::with_shards(ps, 4)
            .with_compaction(CompactionPolicy::EveryK(8))
            .with_capacity(ShardCapacity::bytes(cap)),
        &stream,
    );
    assert!(capped.has_spills(), "a 40% cut must force spills");
    for s in 0..4 {
        let shard = capped.shard(s);
        let spilled = shard.spilled_indices();
        if spilled.is_empty() {
            continue;
        }
        let horizon = shard
            .newest_checkpoint()
            .expect("spills require a checkpoint");
        for i in &spilled {
            assert!(
                *i < horizon,
                "shard {s}: spilled record {i} not covered by checkpoint {horizon}"
            );
        }
        // Budget: under cap, or nothing evictable remains (the refusal
        // case — the resident floor is the head plus checkpoint-shared
        // payloads, which spilling could never free).
        let resident = capped.shard_resident_bytes(s);
        assert!(
            resident <= cap || !capped.shard_has_evictable(s),
            "shard {s}: resident {resident} over cap {cap} with evictable records left"
        );
    }
    assert!(
        capped.override_bytes() < uncapped.override_bytes(),
        "spilling must shrink the resident override accounting"
    );
    assert_eq!(
        digests(&capped),
        digests(&uncapped),
        "capacity is cost, never semantics"
    );
}

/// Eviction + re-fetch round-trips are charged on the correct shard
/// lane: with deltas confined to one shard's partitions, only that
/// shard spills, and a historic-bound job's spill re-fetches land on
/// exactly that lane — in both the CGraph engine and the streaming
/// baseline.
#[test]
fn spill_refetches_charge_the_owning_lane() {
    let ps = VertexCutPartitioner::new(8).partition(&generate::cycle(256));
    // Partitions are contiguous 32-vertex ranges; round-robin over 2
    // shards puts even pids on shard 0.  Edges among partition 0's
    // vertices keep every delta (and so every spill) on shard 0.
    let mut store =
        ShardedSnapshotStore::with_shards(ps, 2).with_compaction(CompactionPolicy::EveryK(4));
    for i in 1..=40u64 {
        let v = (i % 30) as u32;
        store
            .apply(
                i,
                &GraphDelta::adding([cgraph::graph::Edge::unit(v, (v + 2) % 31)]),
            )
            .unwrap();
    }
    let cap = store.shard_resident_bytes(0) / 2;
    let mut store = store.with_capacity(ShardCapacity::bytes(cap));
    // Keep evolving so enforcement runs through apply too.
    for i in 41..=48u64 {
        let v = (i % 30) as u32;
        store
            .apply(
                i,
                &GraphDelta::adding([cgraph::graph::Edge::unit(v, (v + 5) % 31)]),
            )
            .unwrap();
    }
    assert!(store.shard(0).num_spilled() > 0, "shard 0 must spill");
    assert_eq!(store.shard(1).num_spilled(), 0, "shard 1 never changes");
    let store = Arc::new(store);

    // A job bound to an early snapshot walks the spilled history.
    let mut engine = Engine::new(Arc::clone(&store), EngineConfig::default());
    engine.submit_at(Bfs::new(0), 1);
    assert!(engine.run().completed);
    let lanes = engine.spill_fetch_bytes();
    assert!(
        lanes.first().copied().unwrap_or(0) > 0,
        "historic reads must be priced as spill re-fetches: {lanes:?}"
    );
    assert!(
        lanes.iter().skip(1).all(|&b| b == 0),
        "spill charges must stay on the owning lane: {lanes:?}"
    );

    let mut baseline = StreamEngine::new(Arc::clone(&store), StreamConfig::default());
    baseline.submit_at(Bfs::new(0), 1);
    assert!(baseline.run().completed);
    let lanes = baseline.spill_fetch_bytes();
    assert!(
        lanes.first().copied().unwrap_or(0) > 0,
        "baseline prices spills too"
    );
    assert!(
        lanes.iter().skip(1).all(|&b| b == 0),
        "baseline lane attribution: {lanes:?}"
    );

    // A latest-bound job never touches spilled state: the current index
    // is always resident.
    let mut fresh = Engine::new(Arc::clone(&store), EngineConfig::default());
    fresh.submit(Bfs::new(0));
    assert!(fresh.run().completed);
    assert!(
        fresh.spill_fetch_bytes().iter().all(|&b| b == 0),
        "latest views resolve from the resident current index"
    );
}
