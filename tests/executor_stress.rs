//! Executor stress: the round pipeline — fetch, plan-order install and
//! one trigger pass, all on the calling thread — must keep producing
//! the golden table's bits, one engine at a time and with every golden
//! configuration racing the others on one shared store.  The table holds digests recorded while
//! such engines still ran on a separate fork-join executor, so it
//! catches a change that moves every configuration together; a round
//! that never returns shows up as a hang, caught by CI's per-binary
//! timeout.
//!
//! The first mix uses integer-valued programs only (BFS, SSSP, WCC,
//! reachability): their accumulators are exact min/or folds, so results,
//! traffic counters, *and* the modeled-seconds bit pattern must all
//! match exactly.  The second mix (PageRank, Katz) folds f64 sums, so
//! its rows also pin the fold order that `TypedJob::push_and_advance`
//! documents: a change of that order moves their result bits.  CI runs
//! this binary with default threading, with `--test-threads=1`, and
//! pinned to one CPU.

use std::sync::Arc;

use cgraph::algos::{Bfs, Katz, PageRank, Reachability, Sssp, Wcc};
use cgraph::core::{
    Engine, EngineConfig, ExecError, FaultConfig, FaultPlane, VertexInfo, VertexProgram,
};
use cgraph::graph::snapshot::SnapshotStore;
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, Partitioner, VertexId, Weight};
use cgraph::memsim::{HierarchyConfig, Metrics};
use cgraph_bench::ingest_stream_spread;

const SHARDS: usize = 4;

/// One shared evolving store: a 4-shard chain with enough deltas that
/// jobs arriving at different timestamps bind to different snapshot
/// versions, so waves mix partition versions and spread across lanes.
fn shared_store() -> Arc<SnapshotStore> {
    let el = generate::rmat(9, 4, generate::RmatParams::default(), 2024);
    let n = el.num_vertices();
    let ps = VertexCutPartitioner::new(16).partition(&el);
    let mut store = SnapshotStore::with_shards(ps, SHARDS);
    for (i, delta) in ingest_stream_spread(n, 24, 48, 4).iter().enumerate() {
        store
            .apply((i as u64 + 1) * 10, delta)
            .expect("evolving delta applies");
    }
    Arc::new(store)
}

/// Everything one run can observe, flattened for exact comparison.
#[derive(PartialEq, Debug)]
struct RunDigest {
    bfs: Vec<u32>,
    /// SSSP distances are f32 min-folds: exactly commutative, so even
    /// these compare bit-for-bit across executors.
    sssp: Vec<f32>,
    wcc: Vec<u32>,
    reach: Vec<bool>,
    late_bfs: Vec<u32>,
    loads: u64,
    metrics: Metrics,
    /// Bit pattern of the modeled pipeline seconds: charging and float
    /// accumulation follow plan order at every thread count, so even
    /// the float result is bit-identical.
    modeled_bits: u64,
}

/// Tight enough that loads actually rotate through the cache.
fn tight_hierarchy(store: &Arc<SnapshotStore>) -> HierarchyConfig {
    let view = store.base_view();
    let total: u64 = (0..view.num_partitions() as u32)
        .map(|pid| view.partition(pid).structure_bytes())
        .sum();
    HierarchyConfig { cache_bytes: (total / 4).max(1), memory_bytes: total * 4 }
}

/// An engine over `store` under `config`, with two trigger workers and
/// the tight hierarchy.
fn engine(store: &Arc<SnapshotStore>, config: EngineConfig) -> Engine {
    let hierarchy = tight_hierarchy(store);
    Engine::new(
        Arc::clone(store),
        EngineConfig { workers: 2, hierarchy, ..config },
    )
}

/// Runs the five-job integer mix under `config` with the jobs arriving
/// at `arrivals`.
fn run_mix(store: &Arc<SnapshotStore>, config: EngineConfig, arrivals: [u64; 5]) -> RunDigest {
    let mut engine = engine(store, config);
    let bfs = engine.submit_at(Bfs::new(0), arrivals[0]);
    let sssp = engine.submit_at(Sssp::new(1), arrivals[1]);
    let wcc = engine.submit_at(Wcc, arrivals[2]);
    let reach = engine.submit_at(Reachability::new(0), arrivals[3]);
    let late_bfs = engine.submit_at(Bfs::new(3), arrivals[4]);
    let report = engine.run();
    assert!(report.completed, "stress run must converge");
    RunDigest {
        bfs: engine.results::<Bfs>(bfs).unwrap(),
        sssp: engine.results::<Sssp>(sssp).unwrap(),
        wcc: engine.results::<Wcc>(wcc).unwrap(),
        reach: engine.results::<Reachability>(reach).unwrap(),
        late_bfs: engine.results::<Bfs>(late_bfs).unwrap(),
        loads: report.loads,
        metrics: report.metrics,
        modeled_bits: report.modeled_seconds.to_bits(),
    }
}

/// A run boiled down to integers that fit in the source: one FNV-1a
/// hash per result vector (`N` jobs), the load count, every `Metrics`
/// field in declaration order, and the modeled-seconds bit pattern.
#[derive(PartialEq, Debug)]
struct Golden<const N: usize = 5> {
    results: [u64; N],
    loads: u64,
    metrics: [u64; 8],
    modeled_bits: u64,
}

fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.flat_map(u32::to_le_bytes) {
        hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn metric_words(m: &Metrics) -> [u64; 8] {
    [
        m.cache_accesses,
        m.cache_misses,
        m.memory_misses,
        m.bytes_mem_to_cache,
        m.bytes_disk_to_mem,
        m.edge_ops,
        m.vertex_ops,
        m.sync_ops,
    ]
}

fn golden_of(d: &RunDigest) -> Golden {
    Golden {
        results: [
            fnv1a(d.bfs.iter().copied()),
            fnv1a(d.sssp.iter().map(|x| x.to_bits())),
            fnv1a(d.wcc.iter().copied()),
            fnv1a(d.reach.iter().map(|&b| b as u32)),
            fnv1a(d.late_bfs.iter().copied()),
        ],
        loads: d.loads,
        metrics: metric_words(&d.metrics),
        modeled_bits: d.modeled_bits,
    }
}

/// Runs the float-sum mix under `config`: PageRank arriving with the
/// integer mix's first job and Katz with its third.
fn run_sum_mix(store: &Arc<SnapshotStore>, config: EngineConfig, arrivals: [u64; 5]) -> Golden<2> {
    let mut engine = engine(store, config);
    let pagerank = engine.submit_at(PageRank::default(), arrivals[0]);
    let katz = engine.submit_at(Katz::default(), arrivals[2]);
    let report = engine.run();
    assert!(report.completed, "sum mix must converge");
    let hash = |xs: Vec<f64>| {
        fnv1a(
            xs.into_iter()
                .map(f64::to_bits)
                .flat_map(|b| [b as u32, (b >> 32) as u32]),
        )
    };
    Golden {
        results: [
            hash(engine.results::<PageRank>(pagerank).unwrap()),
            hash(engine.results::<Katz>(katz).unwrap()),
        ],
        loads: report.loads,
        metrics: metric_words(&report.metrics),
        modeled_bits: report.modeled_seconds.to_bits(),
    }
}

/// The golden table's configurations, in row order: `{wavefront 1, 4} ×
/// {prefetch_depth 0, 2, 4}` with the spread arrivals, then one width-1
/// run whose five jobs all bind the newest snapshot, so every slot
/// carries more jobs than the two workers and installs in three batches.
fn golden_configs(store: &Arc<SnapshotStore>) -> Vec<(EngineConfig, [u64; 5])> {
    let mut configs = Vec::new();
    for wavefront in [1usize, 4] {
        for prefetch_depth in [0usize, 2, 4] {
            let config = EngineConfig { wavefront, prefetch_depth, ..EngineConfig::default() };
            configs.push((config, [0, 50, 120, 180, 240]));
        }
    }
    configs.push((EngineConfig::default(), [store.latest_timestamp(); 5]));
    configs
}

fn golden_runs(store: &Arc<SnapshotStore>) -> Vec<Golden> {
    golden_configs(store)
        .into_iter()
        .map(|(config, arrivals)| golden_of(&run_mix(store, config, arrivals)))
        .collect()
}

/// Result hashes of the spread-arrival mix: a fixpoint, so every
/// configuration lands on it.
const SPREAD_RESULTS: [u64; 5] = [
    13175581431524541843,
    7835485012455485276,
    15961700649430548660,
    7141341811878823892,
    8814264780652614313,
];

/// Width 1: the prefetch window has nothing to overlap, so all three
/// depth rows are this one digest.
const WIDTH_1: Golden = Golden {
    results: SPREAD_RESULTS,
    loads: 311,
    metrics: [1476, 996, 112, 1859346, 200328, 18508, 10512, 25770],
    modeled_bits: 4560344681071098644,
};

/// Width 4: depth moves only the modeled makespan.
const fn width_4(modeled_bits: u64) -> Golden {
    Golden {
        results: SPREAD_RESULTS,
        loads: 216,
        metrics: [1476, 955, 112, 1484288, 200328, 18508, 10512, 25770],
        modeled_bits,
    }
}

const MULTI_BATCH: Golden = Golden {
    results: [
        7300855051655278977,
        9130679413312691554,
        8045951541236446660,
        13428295591774781924,
        8814264780652614313,
    ],
    loads: 108,
    metrics: [1474, 841, 96, 989376, 125396, 18604, 10635, 25768],
    modeled_bits: 4558453073535118154,
};

/// Recorded at `io_workers = 0` on the last commit that ran such
/// engines on a separate fork-join executor; the one pipeline must keep
/// reproducing them.  The values depend on the `third_party/rand` stream
/// behind `shared_store`: after an RNG swap, re-record from the table
/// the failure message prints.
const GOLDEN: &[Golden] = &[
    WIDTH_1,
    WIDTH_1,
    WIDTH_1,
    width_4(4559705348280968797),
    width_4(4558528925624412044),
    width_4(4558274897356447397),
    MULTI_BATCH,
];

/// The sum mix's rows, in [`golden_configs`] order.  Recorded when Push
/// became one scan through the replica plan, which fixed the order
/// mirror contributions fold into their master (the master's own first,
/// then ascending partition); the record-and-sort Push before it left
/// ties between mirrors of one vertex to `sort_unstable`.
const SUM_GOLDEN: &[Golden<2>] = &[
    SUM_WIDTH_1,
    SUM_WIDTH_1,
    SUM_WIDTH_1,
    sum_width_4(4564715968659588849),
    sum_width_4(4564066325984196203),
    sum_width_4(4564043101533407403),
    SUM_MULTI_BATCH,
];

/// PageRank and Katz hashes of the spread-arrival sum mix.
const SUM_SPREAD_RESULTS: [u64; 2] = [2971589583336015639, 1627830194423266498];

const SUM_WIDTH_1: Golden<2> = Golden {
    results: SUM_SPREAD_RESULTS,
    loads: 814,
    metrics: [3502, 3430, 52, 7525200, 137808, 74427, 48885, 94176],
    modeled_bits: 4565674304684334170,
};

const fn sum_width_4(modeled_bits: u64) -> Golden<2> {
    Golden {
        results: SUM_SPREAD_RESULTS,
        loads: 814,
        metrics: [3502, 3431, 52, 7527360, 137808, 74427, 48885, 94176],
        modeled_bits,
    }
}

const SUM_MULTI_BATCH: Golden<2> = Golden {
    results: [16831008202655943876, 4119845827316181667],
    loads: 655,
    metrics: [3195, 3051, 48, 6635360, 120816, 73505, 48449, 91119],
    modeled_bits: 4565085535342047564,
};

#[test]
fn golden_digests_hold_at_inline_fetch() {
    let rows = golden_runs(&shared_store());
    let table: Vec<String> = rows.iter().map(|row| format!("    {row:?},")).collect();
    assert!(
        rows == GOLDEN,
        "executor digests moved; the full new table is:\n{}",
        table.join("\n")
    );
}

#[test]
fn sum_golden_digests_hold_at_inline_fetch() {
    let store = shared_store();
    let rows: Vec<Golden<2>> = golden_configs(&store)
        .into_iter()
        .map(|(config, arrivals)| run_sum_mix(&store, config, arrivals))
        .collect();
    let table: Vec<String> = rows.iter().map(|row| format!("    {row:?},")).collect();
    assert!(
        rows == SUM_GOLDEN,
        "sum-mix digests moved; the full new table is:\n{}",
        table.join("\n")
    );
}

#[test]
fn racing_engines_on_one_shared_store_stay_deterministic() {
    // Every golden configuration of both mixes races all the others on
    // the same Arc'd store, each engine on its own OS thread; each must
    // still land on its own golden row.
    let store = shared_store();
    std::thread::scope(|scope| {
        let mut ints = Vec::new();
        let mut sums = Vec::new();
        for (config, arrivals) in golden_configs(&store) {
            let (store, int_config) = (&store, config.clone());
            ints.push(scope.spawn(move || golden_of(&run_mix(store, int_config, arrivals))));
            sums.push(scope.spawn(move || run_sum_mix(store, config, arrivals)));
        }
        for (row, (handle, want)) in ints.into_iter().zip(GOLDEN).enumerate() {
            let got = handle.join().expect("racing engine run panicked");
            assert_eq!(&got, want, "racing engine on golden row {row} diverged");
        }
        for (row, (handle, want)) in sums.into_iter().zip(SUM_GOLDEN).enumerate() {
            let got = handle.join().expect("racing engine run panicked");
            assert_eq!(&got, want, "racing engine on sum row {row} diverged");
        }
    });
}

#[test]
fn injected_worker_panic_surfaces_typed_without_hanging() {
    // The fault plane's worker-death drill: a panic injected into the
    // trigger stage at a fixed partition must travel the same path as
    // crashing user code — a typed `ExecError::WorkerPanic` parked on the
    // engine, run not completed, no hang (CI's per-binary timeout is the
    // deadlock detector).  The first, a middle and the last of the 16
    // partitions: every one is processed by the mix, so the drill always
    // fires.
    let store = shared_store();
    for pid in [0, 7, 15] {
        let plane =
            FaultPlane::new(FaultConfig { panic_chunk: Some(pid), ..FaultConfig::default() });
        let mut engine = Engine::new(
            Arc::clone(&store),
            EngineConfig {
                workers: 2,
                wavefront: 4,
                hierarchy: tight_hierarchy(&store),
                faults: Some(plane),
                ..EngineConfig::default()
            },
        );
        engine.submit_at(Bfs::new(0), 0);
        engine.submit_at(Sssp::new(1), 50);
        let report = engine.run();
        assert!(
            !report.completed,
            "partition {pid}: a dead worker must not report completion"
        );
        assert_eq!(
            engine.exec_error(),
            Some(ExecError::WorkerPanic(
                "process_chunk panicked in a trigger worker"
            )),
            "partition {pid}: the injected panic must surface as the typed executor fault"
        );
        // The engine parked the fault: further stepping refuses instead
        // of re-panicking over the half-processed round.
        assert!(
            !engine.step_round(),
            "partition {pid}: faulted engine must refuse rounds"
        );
    }
}

/// BFS whose scatter panics at one vertex: crashing user code, raised
/// while the job's trigger pass holds its state lock.
struct PanicsAt {
    bfs: Bfs,
    vertex: VertexId,
}

impl VertexProgram for PanicsAt {
    type Value = u32;

    fn init(&self, info: &VertexInfo) -> (u32, u32) {
        self.bfs.init(info)
    }

    fn identity(&self) -> u32 {
        self.bfs.identity()
    }

    fn acc(&self, a: u32, b: u32) -> u32 {
        self.bfs.acc(a, b)
    }

    fn is_active(&self, value: &u32, delta: &u32) -> bool {
        self.bfs.is_active(value, delta)
    }

    fn compute(&self, info: &VertexInfo, value: u32, delta: u32) -> (u32, Option<u32>) {
        self.bfs.compute(info, value, delta)
    }

    fn edge_contrib(&self, basis: u32, w: Weight, info: &VertexInfo) -> u32 {
        assert_ne!(info.vid, self.vertex, "user code panicked");
        self.bfs.edge_contrib(basis, w, info)
    }
}

#[test]
fn user_code_panic_leaves_the_engine_readable() {
    // A panic inside a vertex program unwinds out of the job's locked
    // trigger pass, so that job's state lock is poisoned.  The engine
    // parks the typed fault, and every read of the job still answers.
    let ps = VertexCutPartitioner::new(4).partition(&generate::cycle(64));
    let mut engine = Engine::from_partitions(ps, EngineConfig::default());
    let job = engine.submit(PanicsAt { bfs: Bfs::new(0), vertex: 33 });
    assert!(!engine.run().completed, "a panicked job must not complete");
    assert!(
        engine.exec_error().is_some(),
        "the panic parks a typed fault"
    );
    assert!(!engine.job_done(job));
    let levels = engine
        .results::<PanicsAt>(job)
        .expect("results still answer");
    assert_eq!((levels.len(), levels[0]), (64, 0));
    assert!(
        engine.job_metrics(job).vertex_ops > 0,
        "metrics still answer"
    );
}
