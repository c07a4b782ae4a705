//! Kill-and-recover suite for the durable snapshot store.
//!
//! The core property: for a random delta stream, a random kill point
//! (each segment file independently truncated to any byte between its
//! last-synced prefix and its final length), and any {shards ×
//! compaction × capacity} configuration, recovery yields a store whose
//! every historical and latest view is bit-identical to an in-memory
//! survivor that applied the same prefix — and continuing the stream
//! after recovery converges on the survivor's final state exactly.
//! Mid-log corruption (a flipped bit in the committed prefix) must
//! surface as a typed `StoreError`, never a panic.
//!
//! Spill flags are deliberately NOT part of the compared digest: a
//! crash can lose spill frames appended after the last commit, so the
//! recovered store may legitimately differ in *where* payloads reside —
//! never in what any view observes.
//!
//! CI runs this binary under `timeout 60` on the default parallel
//! harness and under `--test-threads=1`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use cgraph::graph::fault;
use cgraph::graph::snapshot::{CompactionPolicy, GraphDelta, ShardCapacity, ShardedSnapshotStore};
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{Edge, EdgeList, Partitioner, StoreError};

const N: u32 = 24;
const PARTS: usize = 4;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh private directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cgraph-durability-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base(edges: &EdgeList) -> cgraph::graph::PartitionSet {
    VertexCutPartitioner::new(PARTS).partition(edges)
}

/// Everything a view can observe, flattened: partition versions and
/// edge sets, masters, replica lists, and degrees for the whole vertex
/// universe.
#[derive(Debug, PartialEq)]
struct Digest {
    ts: u64,
    versions: Vec<u32>,
    edges: Vec<Vec<(u32, u32)>>,
    masters: Vec<u32>,
    replicas: Vec<Vec<u32>>,
    degrees: Vec<(u32, u32)>,
}

fn digest(store: &Arc<ShardedSnapshotStore>, ts: u64) -> Digest {
    let v = store.view_at(ts);
    Digest {
        ts: v.timestamp(),
        versions: (0..PARTS as u32).map(|p| v.version_of(p)).collect(),
        edges: (0..PARTS as u32)
            .map(|p| {
                let mut e: Vec<(u32, u32)> = v
                    .partition(p)
                    .edges_global()
                    .iter()
                    .map(|e| (e.src, e.dst))
                    .collect();
                e.sort_unstable();
                e
            })
            .collect(),
        masters: (0..N).map(|x| v.master_of(x)).collect(),
        replicas: (0..N).map(|x| v.replicas_of(x).to_vec()).collect(),
        degrees: (0..N).map(|x| v.degree_of(x)).collect(),
    }
}

/// Digests at the base, every applied timestamp, and the latest view.
fn all_views(store: &Arc<ShardedSnapshotStore>, upto_ts: u64) -> Vec<Digest> {
    (0..=upto_ts / 10).map(|i| digest(store, i * 10)).collect()
}

/// One generated mutation round: edges to add, indices picking removals.
type Round = (Vec<(u32, u32)>, Vec<usize>);

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

fn arb_edges() -> impl Strategy<Value = EdgeList> {
    proptest::collection::vec((0u32..N, 0u32..N), 1..80).prop_map(|pairs| {
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
            proptest::collection::vec((0u32..N, 0u32..N), 0..8),
            proptest::collection::vec(0usize..64, 0..5),
        ),
        1..7,
    )
}

/// The segment files of a store directory, in a fixed order.
fn segment_files(dir: &Path, shards: usize) -> Vec<PathBuf> {
    let mut files = vec![dir.join("store.seg")];
    for s in 0..shards {
        files.push(dir.join(format!("shard-{s}.seg")));
    }
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole property (see the module docs).  `kill_fracs` picks
    /// each segment's independent truncation point between the length
    /// it had after `kept` applies and its final length — a strictly
    /// harsher adversary than the real fsync ordering allows.
    #[test]
    fn kill_and_recover_is_bit_identical(
        el in arb_edges(),
        rounds in arb_rounds(),
        shards in (0usize..2).prop_map(|i| [1usize, 3][i]),
        every_k in 0usize..4,
        tight in (0u32..2).prop_map(|b| b == 1),
        kept_frac in 0.0f64..1.0,
        kill_fracs in proptest::collection::vec(0.0f64..1.0, 4..5),
        corrupt_at in (0u64..1_000_000, 0u8..8),
    ) {
        let deltas = resolve_stream(&el, &rounds);
        let n = deltas.len();
        let kept = ((n as f64) * kept_frac) as usize;
        let compaction = match every_k {
            0 => CompactionPolicy::Off,
            k => CompactionPolicy::EveryK(k),
        };
        let capacity = if tight {
            ShardCapacity::bytes(600)
        } else {
            ShardCapacity::UNLIMITED
        };
        let dir = temp_dir("prop");

        // The in-memory survivor and the durable store apply the same
        // stream in lockstep.
        let mut survivor = ShardedSnapshotStore::with_shards(base(&el), shards)
            .with_compaction(compaction)
            .with_capacity(capacity);
        let mut durable = ShardedSnapshotStore::with_shards(base(&el), shards)
            .with_compaction(compaction)
            .with_capacity(capacity)
            .persist_to(&dir)
            .unwrap();
        let shards_n = durable.num_shards();
        let files = segment_files(&dir, shards_n);

        for (i, d) in deltas[..kept].iter().enumerate() {
            survivor.apply((i as u64 + 1) * 10, d).unwrap();
            durable.apply((i as u64 + 1) * 10, d).unwrap();
        }
        // Every byte up to here is fsync'd; record the safe prefix.
        let synced: Vec<u64> = files.iter().map(|f| fault::file_len(f).unwrap()).collect();
        for (i, d) in deltas[kept..].iter().enumerate() {
            let ts = ((kept + i) as u64 + 1) * 10;
            survivor.apply(ts, d).unwrap();
            durable.apply(ts, d).unwrap();
        }
        let survivor = Arc::new(survivor);

        // Kill: drop the store and truncate each segment independently
        // to a random point at or after its synced prefix.
        drop(durable);
        for ((f, &lo), frac) in files.iter().zip(&synced).zip(&kill_fracs) {
            let hi = fault::file_len(f).unwrap();
            let cut = lo + (((hi - lo) as f64) * frac) as u64;
            fault::truncate_at(f, cut).unwrap();
        }

        // Recover: at least the `kept` fully-synced applies survive,
        // and every surviving view is bit-identical to the survivor.
        let recovered = ShardedSnapshotStore::open(&dir).unwrap();
        let m = recovered.num_snapshots();
        prop_assert!(m >= kept, "recovered {m} < synced {kept}");
        prop_assert!(m <= n);
        {
            let r = Arc::new(recovered);
            let upto = r.latest_timestamp();
            prop_assert_eq!(all_views(&r, upto), all_views(&survivor, upto));

            // Continue the stream on the recovered store: the final
            // state must converge on the survivor's, exactly.
            let mut r = Arc::try_unwrap(r).ok().unwrap();
            for (i, d) in deltas[m..].iter().enumerate() {
                r.apply(((m + i) as u64 + 1) * 10, d).unwrap();
            }
            let r = Arc::new(r);
            prop_assert_eq!(
                all_views(&r, (n as u64) * 10),
                all_views(&survivor, (n as u64) * 10)
            );
        }

        // Mid-log corruption: flip one bit anywhere in the (intact)
        // store segment — open must refuse with a typed error, and must
        // not panic.
        let (off, bit) = corrupt_at;
        let store_seg = &files[0];
        let len = fault::file_len(store_seg).unwrap();
        fault::flip_bit(store_seg, off % len, bit & 7).unwrap();
        prop_assert!(ShardedSnapshotStore::open(&dir).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A store with no applies round-trips: recovery yields the base.
#[test]
fn empty_store_round_trips() {
    let el = cgraph::graph::generate::cycle(N);
    let dir = temp_dir("empty");
    let s = ShardedSnapshotStore::new(base(&el))
        .persist_to(&dir)
        .unwrap();
    assert!(s.is_durable());
    assert_eq!(s.wal_dir(), Some(dir.as_path()));
    drop(s);
    let r = Arc::new(ShardedSnapshotStore::open(&dir).unwrap());
    assert_eq!(r.num_snapshots(), 0);
    let mem = Arc::new(ShardedSnapshotStore::new(base(&el)));
    assert_eq!(digest(&r, 0), digest(&mem, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// Opening a directory that does not exist is a typed I/O error.
#[test]
fn open_missing_directory_is_io_error() {
    let dir = temp_dir("missing");
    match ShardedSnapshotStore::open(&dir) {
        Err(StoreError::Io(_)) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
}

/// recover() on an in-memory store is refused, not a panic.
#[test]
fn recover_requires_durability() {
    let el = cgraph::graph::generate::cycle(N);
    let s = ShardedSnapshotStore::new(base(&el));
    assert!(matches!(s.recover(), Err(StoreError::Io(_))));
}

/// A store segment holding only a torn tail (the first commit frame
/// was cut mid-write) recovers to the base state.
#[test]
fn torn_tail_only_recovers_to_base() {
    let el = cgraph::graph::generate::cycle(N);
    let dir = temp_dir("torn-only");
    let mut s = ShardedSnapshotStore::new(base(&el))
        .persist_to(&dir)
        .unwrap();
    s.apply(10, &GraphDelta::adding([Edge::unit(0, 5)]))
        .unwrap();
    drop(s);
    // Cut the store segment 3 bytes into its first frame header: the
    // commit is gone, so the shard records must be discarded too.
    let store_seg = dir.join("store.seg");
    fault::truncate_at(&store_seg, 8 + 3).unwrap();
    let r = Arc::new(ShardedSnapshotStore::open(&dir).unwrap());
    assert_eq!(r.num_snapshots(), 0);
    let mem = Arc::new(ShardedSnapshotStore::new(base(&el)));
    assert_eq!(digest(&r, 10), digest(&mem, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery → new applies → second recovery: idempotent, and the
/// second recovery sees the post-recovery applies.
#[test]
fn recover_apply_recover_is_idempotent() {
    let el = cgraph::graph::generate::cycle(N);
    let dir = temp_dir("idem");
    let mut mem = ShardedSnapshotStore::with_shards(base(&el), 3);
    let mut s = ShardedSnapshotStore::with_shards(base(&el), 3)
        .persist_to(&dir)
        .unwrap();
    for i in 1..=4u64 {
        let d = GraphDelta::adding([Edge::unit(
            (i % N as u64) as u32,
            ((i + 7) % N as u64) as u32,
        )]);
        s.apply(i * 10, &d).unwrap();
        mem.apply(i * 10, &d).unwrap();
    }
    let mut s = s.recover().unwrap();
    assert_eq!(s.num_snapshots(), 4);
    let d = GraphDelta::removing([(1, 2)]);
    s.apply(50, &d).unwrap();
    mem.apply(50, &d).unwrap();
    let s = Arc::new(s.recover().unwrap());
    assert_eq!(s.num_snapshots(), 5);
    let mem = Arc::new(mem);
    assert_eq!(all_views(&s, 50), all_views(&mem, 50));
    std::fs::remove_dir_all(&dir).ok();
}

/// A tightly-capped durable store spills for real — resident payload
/// copies are dropped — and both reads-through-spill and recovery
/// rehydrate the same bytes the survivor holds.
#[test]
fn spilled_store_recovers_and_rehydrates() {
    let el = cgraph::graph::generate::cycle(N);
    let dir = temp_dir("spill");
    let mut mem = ShardedSnapshotStore::new(base(&el))
        .with_compaction(CompactionPolicy::EveryK(2))
        .with_capacity(ShardCapacity::bytes(600));
    let mut s = ShardedSnapshotStore::new(base(&el))
        .with_compaction(CompactionPolicy::EveryK(2))
        .with_capacity(ShardCapacity::bytes(600))
        .persist_to(&dir)
        .unwrap();
    for i in 1..=10u64 {
        let d = GraphDelta::adding([Edge::unit(
            (i % N as u64) as u32,
            ((i + 5) % N as u64) as u32,
        )]);
        s.apply(i * 10, &d).unwrap();
        mem.apply(i * 10, &d).unwrap();
    }
    assert!(s.has_spills(), "tight capacity must have spilled");
    let s = Arc::new(s);
    let mem = Arc::new(mem);
    // Reads through spilled records do real I/O on the durable store;
    // they must still observe exactly what the in-memory survivor does.
    assert_eq!(all_views(&s, 100), all_views(&mem, 100));
    let r = Arc::new(Arc::try_unwrap(s).ok().unwrap().recover().unwrap());
    assert!(r.has_spills(), "spill flags survive recovery");
    assert_eq!(all_views(&r, 100), all_views(&mem, 100));
    std::fs::remove_dir_all(&dir).ok();
}

/// persist_to snapshots the store configuration into the manifest:
/// recovery restores shard count, compaction, and capacity.
#[test]
fn manifest_restores_configuration() {
    let el = cgraph::graph::generate::cycle(N);
    let dir = temp_dir("manifest");
    let s = ShardedSnapshotStore::with_shards(base(&el), 3)
        .with_compaction(CompactionPolicy::EveryK(5))
        .with_capacity(ShardCapacity::bytes(1 << 20))
        .persist_to(&dir)
        .unwrap();
    drop(s);
    let r = ShardedSnapshotStore::open(&dir).unwrap();
    assert_eq!(r.num_shards(), 3);
    assert_eq!(r.compaction(), CompactionPolicy::EveryK(5));
    assert_eq!(r.capacity(), ShardCapacity::bytes(1 << 20));
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory written in the previous on-disk format (version 1, whose
/// manifest carried a placement tag) opens as a typed version mismatch,
/// never as corruption and never as a silently misread store.
#[test]
fn previous_format_directory_fails_typed() {
    let el = cgraph::graph::generate::cycle(N);
    let dir = temp_dir("old-format");
    let mut s = ShardedSnapshotStore::with_shards(base(&el), 2)
        .persist_to(&dir)
        .unwrap();
    s.apply(10, &GraphDelta::adding([Edge::unit(0, 5)]))
        .unwrap();
    let shards = s.num_shards();
    drop(s);
    let mut files = segment_files(&dir, shards);
    files.push(dir.join("MANIFEST"));
    files.push(dir.join("base.seg"));
    for f in &files {
        let mut bytes = std::fs::read(f).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(f, bytes).unwrap();
    }
    let opened = ShardedSnapshotStore::open(&dir).map(|_| ());
    assert_eq!(
        opened,
        Err(StoreError::VersionMismatch { found: 1, supported: 2 })
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---- serve-journal identity across restarts (ISSUE 10 satellites) ----

/// Regression (ISSUE 10 satellite): journal sequence numbers are
/// assigned by **offer order** — before the journal-replay check and
/// before the shed check — so a killed-and-resumed `ServeLoop` with a
/// *different* `max_backlog` still skips exactly the journaled
/// completions and never misaligns the seq→offer mapping.  Shed offers
/// consume their sequence number without journaling, which is what
/// keeps the identity stable when the backlog bound changes between
/// incarnations.
#[test]
fn journal_seq_survives_a_different_max_backlog() {
    use cgraph::algos::Bfs;
    use cgraph::core::{Arrival, Engine, EngineConfig, ServeConfig, ServeLoop};

    let el = cgraph::graph::generate::cycle(N);
    let store = Arc::new(ShardedSnapshotStore::new(base(&el)));
    let dir = temp_dir("seq-backlog");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.seg");

    const OFFERS: usize = 12;
    let ats: Vec<f64> = (0..OFFERS).map(|i| i as f64 * 0.001).collect();
    let arrivals = |ats: &[f64]| -> Vec<Arrival> {
        ats.iter()
            .map(|&at| {
                Arrival::new(at, "bfs", move |e: &mut Engine, ts| {
                    e.submit_at(Bfs::new(0), ts)
                })
            })
            .collect()
    };
    let cfg = |max_backlog| ServeConfig { admission_window: 0.0, time_scale: 1.0, max_backlog };

    // Incarnation 1, backlog 4: the whole trace is offered up front, so
    // offers 4..12 are shed under backlog pressure (they still consume
    // seqs 4..12); offers 0..4 are admitted, complete, and journal.
    let engine = Engine::new(Arc::clone(&store), EngineConfig::default());
    let mut sl = ServeLoop::with_journal(engine, cfg(4), &path).unwrap();
    sl.offer_all(arrivals(&ats));
    assert_eq!(sl.rejected(), (OFFERS - 4) as u64, "backlog sheds the tail");
    let first = sl.serve();
    assert!(first.completed);
    assert!(sl.journal_error().is_none());
    assert_eq!(sl.engine().num_jobs(), 4);
    drop(sl);

    // Incarnation 2, backlog 8: journaled seqs 0..4 replay (the journal
    // check precedes the shed check, so a tiny backlog could never shed
    // them), and the previously shed seqs 4..12 now all fit.
    let engine = Engine::new(Arc::clone(&store), EngineConfig::default());
    let mut sl = ServeLoop::with_journal(engine, cfg(8), &path).unwrap();
    sl.offer_all(arrivals(&ats));
    assert_eq!(sl.resumed(), 4, "exactly the journaled completions skip");
    assert_eq!(sl.rejected(), 0, "the wider backlog admits the rest");
    let second = sl.serve();
    assert!(second.completed);
    assert_eq!(
        second.jobs.len(),
        OFFERS,
        "whole trace covered exactly once"
    );
    assert_eq!(
        sl.engine().num_jobs(),
        OFFERS - 4,
        "no journaled job re-runs"
    );
    // Seq→offer alignment: every replayed lifecycle carries the arrival
    // stamp of *its own* offer index, not a shifted neighbor's.
    for replayed in &second.jobs[..4] {
        assert_eq!(
            replayed.arrival, ats[replayed.job as usize],
            "seq {} must map to its original offer",
            replayed.job
        );
    }
    drop(sl);

    // Incarnation 3, backlog 2 (smaller than either): everything is
    // journaled now, so the whole trace replays — the backlog bound
    // never touches journal-skipped offers.
    let engine = Engine::new(Arc::clone(&store), EngineConfig::default());
    let mut sl = ServeLoop::with_journal(engine, cfg(2), &path).unwrap();
    sl.offer_all(arrivals(&ats));
    assert_eq!(sl.resumed(), OFFERS as u64);
    assert_eq!(sl.rejected(), 0);
    let third = sl.serve();
    assert_eq!(third.jobs.len(), OFFERS);
    assert_eq!(sl.engine().num_jobs(), 0, "pure replay runs no engine work");
    for (replayed, &at) in third.jobs.iter().zip(&ats) {
        assert_eq!(replayed.arrival, at);
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A standing job survives kill-and-recover: a valve-truncated serve
/// journals its finished emissions; a restarted loop (same runner, same
/// journal) replays them verbatim, invalidates the prior it never saw,
/// recomputes the first live emission from scratch, and resumes
/// incrementally from there — every live emission bit-identical to a
/// from-scratch run at its version.
#[test]
fn standing_job_survives_kill_and_recover() {
    use cgraph::algos::Bfs;
    use cgraph::core::{Engine, EngineConfig, ServeConfig, ServeLoop, Standing};

    let el = cgraph::graph::generate::cycle(N);
    let deltas = [
        GraphDelta::adding([Edge::unit(0, 12)]),
        GraphDelta::adding([Edge::unit(3, 17), Edge::unit(8, 1)]),
        GraphDelta::adding([Edge::unit(17, 4)]),
    ];
    let build_store = || {
        let mut s = ShardedSnapshotStore::new(base(&el));
        for (i, d) in deltas.iter().enumerate() {
            s.apply((i as u64 + 1) * 10, d).unwrap();
        }
        Arc::new(s)
    };
    let store = build_store();
    let versions = [0u64, 10, 20, 30];
    let scratch = |ts: u64| -> Vec<u32> {
        let mut e = Engine::new(Arc::clone(&store), EngineConfig::default());
        let id = e.submit_at(Bfs::new(0), ts);
        assert!(e.run().completed);
        e.results::<Bfs>(id).unwrap()
    };
    let cfg = ServeConfig { time_scale: 1e4, ..ServeConfig::default() };
    let dir = temp_dir("standing");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.seg");

    // Reference: all four emissions uninterrupted, to size the valve.
    let full_loads = {
        let engine = Engine::new(Arc::clone(&store), EngineConfig::default());
        let mut sl = ServeLoop::new(engine, cfg);
        sl.add_standing(Standing::new("standing-bfs", Bfs::new(0)).boxed());
        let report = sl.serve();
        assert!(report.completed);
        report.loads
    };

    // Incarnation 1: the load valve kills the loop mid-emissions.
    let engine = Engine::new(
        Arc::clone(&store),
        EngineConfig { max_loads: full_loads / 2, ..EngineConfig::default() },
    );
    let mut sl = ServeLoop::with_journal(engine, cfg, &path).unwrap();
    sl.add_standing(Standing::new("standing-bfs", Bfs::new(0)).boxed());
    let first = sl.serve();
    assert!(!first.completed, "the valve must truncate this serve");
    assert!(sl.journal_error().is_none());
    drop(sl);

    // Incarnation 2: fresh engine, same journal, same standing runner.
    let engine = Engine::new(Arc::clone(&store), EngineConfig::default());
    let mut sl = ServeLoop::with_journal(engine, cfg, &path).unwrap();
    sl.add_standing(Standing::new("standing-bfs", Bfs::new(0)).boxed());
    let second = sl.serve();
    assert!(second.completed, "restart must finish the emissions");
    let resumed = sl.resumed() as usize;
    assert!(
        resumed > 0 && resumed < versions.len(),
        "valve must land mid-emissions (resumed {resumed} of {})",
        versions.len()
    );
    assert_eq!(
        second.jobs.len(),
        versions.len(),
        "combined report covers every version exactly once"
    );
    let live = versions.len() - resumed;
    assert_eq!(
        sl.engine().num_jobs(),
        live,
        "no journaled emission re-runs"
    );
    let runner = sl.standing(0);
    assert_eq!(runner.emitted(), live as u64);
    assert_eq!(
        runner.seeded(),
        live as u64 - 1,
        "the first live emission recomputes from scratch (invalidated \
         prior); every later one resumes seeded"
    );
    // Replayed emissions bind their own version timestamps, in order.
    for (replayed, &ts) in second.jobs.iter().zip(&versions) {
        assert_eq!(replayed.arrival, ts as f64, "emission seq alignment");
    }
    // Every live emission is bit-identical to from-scratch at its
    // version — the incremental path never leaks stale prior state
    // across the crash.
    for (i, &ts) in versions[resumed..].iter().enumerate() {
        assert_eq!(
            sl.engine().results::<Bfs>(i as u32).unwrap(),
            scratch(ts),
            "live emission@{ts}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
