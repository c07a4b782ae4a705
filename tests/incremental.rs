//! Differential suite for incremental recomputation (`core::incr`).
//!
//! The core property: for every monotone program and every snapshot
//! version of a random delta stream, a job **resumed** from the
//! previous version's converged result is bit-identical to a job run
//! **from scratch** against the same view — across {shards × capacity
//! × modeled workers} store/executor configurations.
//! Addition-only ranges must take the seeded path; any removal in the
//! range must take the from-scratch fallback (and still match).
//!
//! CI runs this binary under `timeout 60` on the default parallel
//! harness and under `--test-threads=1`.

use std::sync::Arc;

use proptest::prelude::*;

use cgraph::algos::{Bfs, Reachability, Sssp, Sswp, Wcc};
use cgraph::core::{Arrival, Standing};
use cgraph::core::{Engine, EngineConfig, IncrementalProgram, ServeConfig, ServeLoop};
use cgraph::graph::snapshot::{GraphDelta, ShardCapacity, SnapshotStore};
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{Edge, EdgeList, Partitioner};

const N: u32 = 24;
const PARTS: usize = 4;

fn config() -> EngineConfig {
    EngineConfig { workers: 2, wavefront: 2, ..EngineConfig::default() }
}

/// A small deterministic base graph: a ring with a few chords.
fn base_edges() -> EdgeList {
    let mut edges: Vec<Edge> = (0..N).map(|v| Edge::unit(v, (v + 1) % N)).collect();
    edges.push(Edge::unit(0, 12));
    edges.push(Edge::unit(5, 17));
    let mut el = EdgeList::from_edges(edges, N);
    el.sort_and_dedup();
    el
}

fn store_from(el: &EdgeList, deltas: &[GraphDelta]) -> Arc<SnapshotStore> {
    let ps = VertexCutPartitioner::new(PARTS).partition(el);
    let mut store = SnapshotStore::new(ps);
    for (i, d) in deltas.iter().enumerate() {
        store.apply((i as u64 + 1) * 10, d).expect("delta applies");
    }
    Arc::new(store)
}

/// From-scratch run of `program` bound at `ts` on a fresh engine.
fn scratch<P: IncrementalProgram + Clone>(
    store: &Arc<SnapshotStore>,
    program: P,
    ts: u64,
) -> Vec<P::Value> {
    let mut e = Engine::new(Arc::clone(store), config());
    let id = e.submit_at(program, ts);
    assert!(e.run().completed, "scratch run drains");
    e.results::<P>(id).expect("scratch results")
}

/// Resumed run on a fresh engine; returns the results and whether the
/// seeded path was taken.
fn resumed<P: IncrementalProgram + Clone>(
    store: &Arc<SnapshotStore>,
    program: P,
    ts: u64,
    prior_ts: u64,
    prior: &[P::Value],
) -> (Vec<P::Value>, bool) {
    let mut e = Engine::new(Arc::clone(store), config());
    let rs = e.submit_resumed_at(program, ts, prior_ts, prior);
    assert!(e.run().completed, "resumed run drains");
    (e.results::<P>(rs.job).expect("resumed results"), rs.seeded)
}

/// Chains a program across every version: scratch at each ts must equal
/// resume-from-previous at each ts.  Returns how many submissions took
/// the seeded path.
fn chain_and_check<P: IncrementalProgram + Clone>(
    store: &Arc<SnapshotStore>,
    program: P,
    versions: &[u64],
) -> usize {
    let mut seeded_count = 0;
    let mut prior: Option<(u64, Vec<P::Value>)> = None;
    for &ts in versions {
        let want = scratch(store, program.clone(), ts);
        if let Some((prior_ts, values)) = &prior {
            let (got, seeded) = resumed(store, program.clone(), ts, *prior_ts, values);
            assert_eq!(got, want, "{} resumed@{ts} != scratch", program.name());
            seeded_count += usize::from(seeded);
        }
        prior = Some((ts, want));
    }
    seeded_count
}

// ---- deterministic coverage ----

#[test]
fn addition_only_stream_resumes_seeded_and_bit_identical() {
    let el = base_edges();
    let deltas = vec![
        GraphDelta::adding([Edge::unit(2, 20)]),
        GraphDelta::adding([Edge::unit(20, 3), Edge::unit(7, 15)]),
        GraphDelta::adding([Edge::unit(15, 0)]),
    ];
    let store = store_from(&el, &deltas);
    let versions = [0u64, 10, 20, 30];
    // Every resume over an addition-only range must take the seeded path.
    assert_eq!(chain_and_check(&store, Bfs::new(0), &versions), 3);
    assert_eq!(chain_and_check(&store, Sssp::new(0), &versions), 3);
    assert_eq!(chain_and_check(&store, Sswp::new(0), &versions), 3);
    assert_eq!(chain_and_check(&store, Wcc, &versions), 3);
    assert_eq!(chain_and_check(&store, Reachability::new(0), &versions), 3);
}

#[test]
fn removal_in_range_falls_back_to_scratch_and_still_matches() {
    let el = base_edges();
    let deltas = vec![
        GraphDelta::adding([Edge::unit(2, 20)]),
        GraphDelta { additions: vec![Edge::unit(9, 1)], removals: vec![(0, 1)] },
        GraphDelta::adding([Edge::unit(20, 3)]),
    ];
    let store = store_from(&el, &deltas);

    // Range (10, 20) carries the removal: fallback, results still match.
    let prior = scratch(&store, Bfs::new(0), 10);
    let want = scratch(&store, Bfs::new(0), 20);
    let (got, seeded) = resumed(&store, Bfs::new(0), 20, 10, &prior);
    assert!(!seeded, "a removal in the range must force the fallback");
    assert_eq!(got, want);

    // Range (20, 30) is addition-only again: seeded, and still exact.
    let prior = scratch(&store, Bfs::new(0), 20);
    let want = scratch(&store, Bfs::new(0), 30);
    let (got, seeded) = resumed(&store, Bfs::new(0), 30, 20, &prior);
    assert!(seeded, "an addition-only range resumes seeded");
    assert_eq!(got, want);
}

#[test]
fn backwards_and_mismatched_priors_fall_back() {
    let el = base_edges();
    let deltas = vec![GraphDelta::adding([Edge::unit(2, 20)])];
    let store = store_from(&el, &deltas);

    // Prior bound *after* the target: fallback.
    let prior = scratch(&store, Bfs::new(0), 10);
    let (got, seeded) = resumed(&store, Bfs::new(0), 0, 10, &prior);
    assert!(!seeded, "a backwards range must force the fallback");
    assert_eq!(got, scratch(&store, Bfs::new(0), 0));

    // Prior of the wrong length: fallback, never a panic.
    let (got, seeded) = resumed(&store, Bfs::new(0), 10, 0, &prior[..3]);
    assert!(!seeded, "a mismatched prior must force the fallback");
    assert_eq!(got, scratch(&store, Bfs::new(0), 10));
}

#[test]
fn equal_binds_resume_to_an_instantly_converged_job() {
    let el = base_edges();
    let deltas = vec![GraphDelta::adding([Edge::unit(2, 20)])];
    let store = store_from(&el, &deltas);
    let prior = scratch(&store, Bfs::new(0), 10);
    // Same bind on both sides: the delta range is empty, the frontier is
    // empty, and the seeded job must converge without any rounds.
    let mut e = Engine::new(Arc::clone(&store), config());
    let rs = e.submit_resumed_at(Bfs::new(0), 10, 10, &prior);
    assert!(rs.seeded, "an empty range is trivially monotone-safe");
    assert!(e.job_done(rs.job), "empty frontier converges at submit");
    assert_eq!(e.results::<Bfs>(rs.job).unwrap(), prior);
}

#[test]
fn resumed_small_delta_does_less_work_than_scratch() {
    // A long path plus one appended edge: the resumed run only touches
    // the new edge's neighborhood while scratch re-propagates from the
    // source across the whole path.
    let m = 512u32;
    let edges: Vec<Edge> = (0..m - 1).map(|v| Edge::unit(v, v + 1)).collect();
    let el = EdgeList::from_edges(edges, m);
    let ps = VertexCutPartitioner::new(8).partition(&el);
    let mut store = SnapshotStore::new(ps);
    store
        .apply(10, &GraphDelta::adding([Edge::unit(m - 2, 0)]))
        .unwrap();
    let store = Arc::new(store);

    let prior = scratch(&store, Bfs::new(0), 0);

    let mut fresh = Engine::new(Arc::clone(&store), config());
    let scratch_job = fresh.submit_at(Bfs::new(0), 10);
    let scratch_report = fresh.run();
    assert!(scratch_report.completed);

    let mut warm = Engine::new(Arc::clone(&store), config());
    let rs = warm.submit_resumed_at(Bfs::new(0), 10, 0, &prior);
    assert!(rs.seeded);
    let resumed_report = warm.run();
    assert!(resumed_report.completed);

    assert!(
        resumed_report.loads * 4 <= scratch_report.loads.max(1),
        "resume must shortcut propagation: {} vs {} loads",
        resumed_report.loads,
        scratch_report.loads
    );
    assert_eq!(
        warm.results::<Bfs>(rs.job).unwrap(),
        fresh.results::<Bfs>(scratch_job).unwrap(),
    );
}

// ---- randomized differential across store/executor configs ----

/// One generated mutation round: edges to add, indices picking removals.
type Round = (Vec<(u32, u32)>, Vec<usize>);

fn arb_edges() -> impl Strategy<Value = EdgeList> {
    proptest::collection::vec((0u32..N, 0u32..N), 1..60).prop_map(|pairs| {
        let edges: Vec<Edge> = pairs
            .into_iter()
            .filter(|(s, d)| s != d)
            .map(|(s, d)| Edge::unit(s, d))
            .collect();
        let mut el = EdgeList::from_edges(edges, N);
        el.sort_and_dedup();
        el
    })
}

fn arb_rounds() -> impl Strategy<Value = Vec<Round>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0u32..N, 0u32..N), 0..6),
            proptest::collection::vec(0usize..64, 0..3),
        ),
        1..5,
    )
}

/// Resolves `(adds, picks)` rounds against a live multiset so removals
/// always name live edges; returns the delta stream.
fn resolve_stream(el: &EdgeList, rounds: &[Round]) -> Vec<GraphDelta> {
    let mut live: Vec<(u32, u32)> = el.edges().iter().map(|e| (e.src, e.dst)).collect();
    let mut deltas = Vec::new();
    for (adds, picks) in rounds {
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
        deltas.push(GraphDelta { additions, removals });
    }
    deltas
}

/// Builds the store under one {shards, capacity} layout and runs the
/// chained differential for every program at `workers` modeled
/// workers.
fn differential_layout(
    el: &EdgeList,
    deltas: &[GraphDelta],
    shards: usize,
    cap: ShardCapacity,
    workers: usize,
) {
    use cgraph::graph::snapshot::ShardedSnapshotStore;
    let ps = VertexCutPartitioner::new(PARTS).partition(el);
    let mut store = ShardedSnapshotStore::with_shards(ps, shards).with_capacity(cap);
    for (i, d) in deltas.iter().enumerate() {
        store.apply((i as u64 + 1) * 10, d).expect("delta applies");
    }
    let store = Arc::new(store);
    let versions: Vec<u64> = (0..=deltas.len() as u64).map(|i| i * 10).collect();
    let cfg = EngineConfig { workers, ..EngineConfig::default() };

    macro_rules! chain {
        ($program:expr, $ty:ty) => {{
            let mut prior: Option<(u64, Vec<<$ty as cgraph::core::VertexProgram>::Value>)> = None;
            for &ts in &versions {
                let mut e = Engine::new(Arc::clone(&store), cfg.clone());
                let id = e.submit_at($program, ts);
                assert!(e.run().completed);
                let want = e.results::<$ty>(id).unwrap();
                if let Some((prior_ts, values)) = &prior {
                    let mut e = Engine::new(Arc::clone(&store), cfg.clone());
                    let rs = e.submit_resumed_at($program, ts, *prior_ts, values);
                    assert!(e.run().completed);
                    let got = e.results::<$ty>(rs.job).unwrap();
                    assert_eq!(
                        got,
                        want,
                        "{} resumed@{ts} diverged (shards {shards}, workers {workers})",
                        stringify!($ty)
                    );
                }
                prior = Some((ts, want));
            }
        }};
    }
    chain!(Bfs::new(0), Bfs);
    chain!(Sssp::new(1), Sssp);
    chain!(Sswp::new(0), Sswp);
    chain!(Wcc, Wcc);
    chain!(Reachability::new(1), Reachability);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole differential: incremental == from-scratch
    /// bit-for-bit on random delta streams (including removals, which
    /// exercise the fallback), across store and executor shapes.
    #[test]
    fn incremental_matches_scratch_across_configs(
        el in arb_edges(),
        rounds in arb_rounds(),
        layout in 0usize..3,
    ) {
        let deltas = resolve_stream(&el, &rounds);
        let (shards, cap, workers) = match layout {
            0 => (1, ShardCapacity::UNLIMITED, 1),
            1 => (2, ShardCapacity::UNLIMITED, 2),
            _ => (3, ShardCapacity::bytes(1), 4),
        };
        differential_layout(&el, &deltas, shards, cap, workers);
    }
}

// ---- standing jobs through the serve loop ----

/// A standing BFS re-emits once per store version; every emission's
/// result must equal the from-scratch run at that version's timestamp.
#[test]
fn standing_job_emits_scratch_identical_results_per_version() {
    let el = base_edges();
    let deltas = vec![
        GraphDelta::adding([Edge::unit(2, 20)]),
        GraphDelta::adding([Edge::unit(20, 3)]),
        GraphDelta::adding([Edge::unit(7, 15)]),
    ];
    let store = store_from(&el, &deltas);

    let mut sl = ServeLoop::new(
        Engine::new(Arc::clone(&store), config()),
        ServeConfig { time_scale: 1e4, ..ServeConfig::default() },
    );
    sl.add_standing(Standing::new("standing-bfs", Bfs::new(0)).boxed());
    let report = sl.serve();
    assert!(report.completed, "standing serve drains");

    // One emission per version: the base view plus every applied delta.
    let engine = sl.engine();
    assert_eq!(
        engine.num_jobs(),
        deltas.len() + 1,
        "one emission per version"
    );
    let runner = sl.standing(0);
    assert_eq!(runner.emitted(), deltas.len() as u64 + 1);
    assert_eq!(
        runner.seeded(),
        deltas.len() as u64,
        "every post-base emission of an addition-only stream resumes seeded"
    );
    for (i, &ts) in [0u64, 10, 20, 30].iter().enumerate() {
        let got = engine.results::<Bfs>(i as u32).unwrap();
        assert_eq!(got, scratch(&store, Bfs::new(0), ts), "emission@{ts}");
    }

    // Report rows carry the standing name.
    assert_eq!(
        report
            .jobs
            .iter()
            .filter(|j| j.name == "standing-bfs")
            .count(),
        deltas.len() + 1
    );
}

/// Standing emissions interleave with ordinary offered arrivals without
/// disturbing either: the arrival computes the same result it computes
/// alone, and the standing job still emits once per version.
#[test]
fn standing_jobs_coexist_with_offered_arrivals() {
    let el = base_edges();
    let deltas = vec![GraphDelta::adding([Edge::unit(2, 20)])];
    let store = store_from(&el, &deltas);

    let mut sl = ServeLoop::new(
        Engine::new(Arc::clone(&store), config()),
        ServeConfig { admission_window: 2.0, time_scale: 1e4, ..ServeConfig::default() },
    );
    sl.add_standing(Standing::new("standing-wcc", Wcc).boxed());
    sl.offer(Arrival::new(5.0, "bfs", |e: &mut Engine, ts| {
        e.submit_at(Bfs::new(0), ts)
    }));
    let report = sl.serve();
    assert!(report.completed);
    assert_eq!(sl.standing(0).emitted(), 2, "base + one delta version");

    let engine = sl.engine();
    let bfs_job = (0..engine.num_jobs() as u32)
        .find(|&j| engine.results::<Bfs>(j).is_some())
        .expect("offered BFS ran");
    assert_eq!(
        engine.results::<Bfs>(bfs_job).unwrap(),
        scratch(&store, Bfs::new(0), 5)
    );
    let wcc_last = (0..engine.num_jobs() as u32)
        .rfind(|&j| engine.results::<Wcc>(j).is_some())
        .unwrap();
    assert_eq!(
        engine.results::<Wcc>(wcc_last).unwrap(),
        scratch(&store, Wcc, 10)
    );
}
