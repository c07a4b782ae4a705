//! The system under test, behind one adapter.
//!
//! Every call the benchmark makes into the repo's crates goes through
//! this file; the rest of the benchmark sees only the types re-exported
//! here and the functions below.  The public surface this file uses is
//! the *benchmark-pinned* surface listed in `benchmark/README.md`: a
//! later change to the repo must keep it compiling, because a change
//! that claims a gain may not edit the benchmark.

use std::path::Path;
use std::sync::{Arc, Mutex};

use cgraph_algos::{reference, Bfs, PageRank, Reachability, Sssp, Sswp, Wcc};
use cgraph_core::obs::parse_json;
use cgraph_core::serve::JournalEntry;
use cgraph_core::{
    Arrival, EngineConfig, JobOutcome, PriorityScheduler, Scheduler, ServeConfig, ServeJournal,
    SlotInfo, TypedJob,
};
use cgraph_graph::vertex_cut::VertexCutPartitioner;
use cgraph_graph::{generate, CompactionPolicy, Csr, Edge, Partitioner};

pub use cgraph_core::obs::JsonValue;
pub use cgraph_core::{Engine, JobId, JobRuntime, Observer, ServeLoop};
pub use cgraph_graph::{EdgeList, GraphDelta, GraphView, PartitionSet, SnapshotStore};
pub use cgraph_memsim::HierarchyConfig;

use crate::gen::{DeltaSpec, JobSpec};

/// The benchmark's PageRank: default damping, and an epsilon ten times
/// tighter than the program's default so that the converged ranks lie
/// within the oracle's 1e-3 relative tolerance of the fixpoint.
fn pagerank() -> PageRank {
    PageRank::new(PageRank::default().damping, 1e-4)
}

/// Trigger-stage worker threads of every engine the benchmark builds.
pub const WORKERS: usize = 2;
/// Wavefront width of every engine the benchmark builds.
pub const WAVEFRONT: usize = 4;
/// Prefetch window depth of every engine the benchmark builds.
pub const PREFETCH_DEPTH: usize = 2;
/// The store's checkpoint cadence, stated rather than inherited.
pub const CHECKPOINT_EVERY: usize = 16;
/// How a durable store flushes, for the run header.
pub const FLUSH_POLICY: &str = "fdatasync of every dirty segment on each apply (store default)";

// ---- graph and store construction -----------------------------------

/// The seeded R-MAT base graph (`2^scale` vertices, `edge_factor`
/// edges per vertex, Graph500 quadrant probabilities).
pub fn build_graph(scale: u32, edge_factor: u32, seed: u64) -> EdgeList {
    generate::rmat(scale, edge_factor, generate::RmatParams::default(), seed)
}

/// `(src, dst, weight)` of every edge, in list order.
pub fn edge_triples(edges: &EdgeList) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
    edges.edges().iter().map(|e| (e.src, e.dst, e.weight))
}

/// Vertices in the edge list's universe.
pub fn num_vertices(edges: &EdgeList) -> u32 {
    edges.num_vertices()
}

/// Out-degree of every vertex.
pub fn out_degrees(edges: &EdgeList) -> Vec<u32> {
    edges.out_degrees()
}

/// Equal-edge vertex-cut partitioning.
pub fn partition(edges: &EdgeList, parts: usize) -> PartitionSet {
    VertexCutPartitioner::new(parts).partition(edges)
}

/// Bytes of structure data the memory simulator charges for the set.
pub fn structure_bytes(ps: &PartitionSet) -> u64 {
    ps.partitions().iter().map(|p| p.structure_bytes()).sum()
}

/// Average replicas per covered vertex.
pub fn replication_factor(ps: &PartitionSet) -> f64 {
    ps.replication_factor()
}

/// The out-of-core regime every workload runs in: simulated memory
/// holds 70 % and the simulated cache 10 % of the structure bytes.
pub fn out_of_core(structure_bytes: u64) -> HierarchyConfig {
    HierarchyConfig {
        cache_bytes: (structure_bytes / 10).max(4096),
        memory_bytes: (structure_bytes * 7 / 10).max(8192),
    }
}

/// A sharded in-memory snapshot store over the base partitions.
pub fn new_store(ps: PartitionSet, shards: usize) -> SnapshotStore {
    SnapshotStore::with_shards(ps, shards)
        .with_compaction(CompactionPolicy::EveryK(CHECKPOINT_EVERY))
}

/// Converts a generated delta into the store's input (unit-weight
/// additions), outside any timed region.
pub fn prepare_delta(spec: &DeltaSpec) -> GraphDelta {
    GraphDelta {
        additions: spec.adds.iter().map(|&(s, d)| Edge::unit(s, d)).collect(),
        removals: spec.removes.clone(),
    }
}

/// `SnapshotStore::apply`; returns the partitions re-versioned.
pub fn apply(store: &mut SnapshotStore, ts: u64, delta: &GraphDelta) -> Result<usize, String> {
    store.apply(ts, delta).map_err(|e| e.to_string())
}

/// `SnapshotStore::persist_to`: attaches the write-ahead log in `dir`.
pub fn persist_to(store: SnapshotStore, dir: &Path) -> Result<SnapshotStore, String> {
    store.persist_to(dir).map_err(|e| e.to_string())
}

/// `SnapshotStore::open`: recovery by log replay.
pub fn open_store(dir: &Path) -> Result<SnapshotStore, String> {
    SnapshotStore::open(dir).map_err(|e| e.to_string())
}

/// `SnapshotStore::view_at`.
pub fn view_at(store: &Arc<SnapshotStore>, ts: u64) -> GraphView {
    store.view_at(ts)
}

/// `SnapshotStore::latest`.
pub fn latest(store: &Arc<SnapshotStore>) -> GraphView {
    store.latest()
}

/// `GraphView::edges_global`: the whole graph a view observes.
pub fn edges_of(view: &GraphView) -> EdgeList {
    view.edges_global()
}

/// `SnapshotStore::delta_summary`: `(touched vertices, removals)`.
pub fn delta_summary(store: &SnapshotStore, from_ts: u64, to_ts: u64) -> Option<(usize, u64)> {
    store
        .delta_summary(from_ts, to_ts)
        .map(|s| (s.touched.len(), s.removals))
}

/// Exact counts a store exposes.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreCounts {
    /// Checkpoints materialized along the chains.
    pub checkpoints: u64,
    /// Bytes of accumulated override state.
    pub override_bytes: u64,
}

/// Reads [`StoreCounts`].
pub fn store_counts(store: &SnapshotStore) -> StoreCounts {
    StoreCounts {
        checkpoints: store.num_checkpoints() as u64,
        override_bytes: store.override_bytes(),
    }
}

// ---- engine ---------------------------------------------------------

/// What varies between the engines the benchmark builds; everything
/// else is `EngineConfig::default()`.
#[derive(Clone, Default)]
pub struct EngineOpts {
    /// Simulated hierarchy.
    pub hierarchy: Option<HierarchyConfig>,
    /// Dedicated I/O threads (0 = fork-join rounds).
    pub io_workers: usize,
    /// In-program tracing, for the traced repetition only.
    pub observer: Option<Arc<Observer>>,
}

/// A fresh engine over `store`.
pub fn engine(store: &Arc<SnapshotStore>, opts: &EngineOpts) -> Engine {
    let mut config = EngineConfig {
        workers: WORKERS,
        wavefront: WAVEFRONT,
        prefetch_depth: PREFETCH_DEPTH,
        io_workers: opts.io_workers,
        observer: opts.observer.clone(),
        ..Default::default()
    };
    if let Some(h) = opts.hierarchy {
        config.hierarchy = h;
    }
    Engine::new(Arc::clone(store), config)
}

/// `Engine::submit_at` for the program `spec` names.
pub fn submit(engine: &mut Engine, spec: JobSpec, ts: u64) -> JobId {
    match spec {
        JobSpec::PageRank => engine.submit_at(pagerank(), ts),
        JobSpec::Sssp(s) => engine.submit_at(Sssp::new(s), ts),
        JobSpec::Bfs(s) => engine.submit_at(Bfs::new(s), ts),
        JobSpec::Wcc => engine.submit_at(Wcc, ts),
        JobSpec::Sswp(s) => engine.submit_at(Sswp::new(s), ts),
        JobSpec::Reach(s) => engine.submit_at(Reachability::new(s), ts),
    }
}

/// `Engine::submit_resumed_at`: resumes `spec` from a result converged
/// at `prior_ts`.  Returns the job and whether it took the seeded path.
/// PageRank is not monotone and cannot resume.
pub fn submit_resumed(
    engine: &mut Engine,
    spec: JobSpec,
    ts: u64,
    prior_ts: u64,
    prior: &Values,
) -> Option<(JobId, bool)> {
    let r = match (spec, prior) {
        (JobSpec::Sssp(s), Values::F32(p)) => {
            engine.submit_resumed_at(Sssp::new(s), ts, prior_ts, p)
        }
        (JobSpec::Bfs(s), Values::U32(p)) => engine.submit_resumed_at(Bfs::new(s), ts, prior_ts, p),
        (JobSpec::Wcc, Values::U32(p)) => engine.submit_resumed_at(Wcc, ts, prior_ts, p),
        (JobSpec::Sswp(s), Values::F32(p)) => {
            engine.submit_resumed_at(Sswp::new(s), ts, prior_ts, p)
        }
        (JobSpec::Reach(s), Values::Bool(p)) => {
            engine.submit_resumed_at(Reachability::new(s), ts, prior_ts, p)
        }
        _ => return None,
    };
    Some((r.job, r.seeded))
}

/// `Engine::step_round`.
pub fn step_round(engine: &mut Engine) -> bool {
    engine.step_round()
}

/// `Engine::job_done`.
pub fn job_done(engine: &Engine, job: JobId) -> bool {
    engine.job_done(job)
}

/// A job's result vector, one value per vertex.
#[derive(Clone, Debug, PartialEq)]
pub enum Values {
    /// PageRank ranks.
    F64(Vec<f64>),
    /// SSSP distances, SSWP widths.
    F32(Vec<f32>),
    /// BFS hops, WCC labels.
    U32(Vec<u32>),
    /// Reachability flags.
    Bool(Vec<bool>),
}

/// `Engine::results` for the program `spec` names.
pub fn results(engine: &Engine, spec: JobSpec, job: JobId) -> Option<Values> {
    match spec {
        JobSpec::PageRank => engine.results::<PageRank>(job).map(Values::F64),
        JobSpec::Sssp(_) => engine.results::<Sssp>(job).map(Values::F32),
        JobSpec::Bfs(_) => engine.results::<Bfs>(job).map(Values::U32),
        JobSpec::Wcc => engine.results::<Wcc>(job).map(Values::U32),
        JobSpec::Sswp(_) => engine.results::<Sswp>(job).map(Values::F32),
        JobSpec::Reach(_) => engine.results::<Reachability>(job).map(Values::Bool),
    }
}

/// Exact counters of everything an engine has run so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecCounters {
    /// Partition loads.
    pub loads: u64,
    /// Edge-scale compute operations.
    pub edge_ops: u64,
    /// Synchronization records handled in Push.
    pub sync_ops: u64,
    /// Simulated cache accesses and misses.
    pub cache_accesses: u64,
    /// Simulated cache misses.
    pub cache_misses: u64,
    /// Simulated bytes disk → memory.
    pub bytes_disk_to_mem: u64,
    /// Simulated bytes memory → cache.
    pub bytes_mem_to_cache: u64,
    /// Pipeline-modeled seconds of every round executed.
    pub modeled_s: f64,
}

impl ExecCounters {
    /// Component-wise sum.
    pub fn add(&mut self, o: &ExecCounters) {
        self.loads += o.loads;
        self.edge_ops += o.edge_ops;
        self.sync_ops += o.sync_ops;
        self.cache_accesses += o.cache_accesses;
        self.cache_misses += o.cache_misses;
        self.bytes_disk_to_mem += o.bytes_disk_to_mem;
        self.bytes_mem_to_cache += o.bytes_mem_to_cache;
        self.modeled_s += o.modeled_s;
    }
}

/// Reads [`ExecCounters`].
pub fn exec_counters(engine: &Engine) -> ExecCounters {
    let m = engine.metrics();
    ExecCounters {
        loads: engine.total_loads(),
        edge_ops: m.edge_ops,
        sync_ops: m.sync_ops,
        cache_accesses: m.cache_accesses,
        cache_misses: m.cache_misses,
        bytes_disk_to_mem: m.bytes_disk_to_mem,
        bytes_mem_to_cache: m.bytes_mem_to_cache,
        modeled_s: engine.pipeline_seconds(),
    }
}

// ---- hand-driven job runtime ------------------------------------------

/// `TypedJob::new` behind the object-safe runtime (job init).
pub fn typed_job(spec: JobSpec, view: GraphView) -> Box<dyn JobRuntime> {
    match spec {
        JobSpec::PageRank => Box::new(TypedJob::new(0, pagerank(), view)),
        JobSpec::Sssp(s) => Box::new(TypedJob::new(0, Sssp::new(s), view)),
        JobSpec::Bfs(s) => Box::new(TypedJob::new(0, Bfs::new(s), view)),
        JobSpec::Wcc => Box::new(TypedJob::new(0, Wcc, view)),
        JobSpec::Sswp(s) => Box::new(TypedJob::new(0, Sswp::new(s), view)),
        JobSpec::Reach(s) => Box::new(TypedJob::new(0, Reachability::new(s), view)),
    }
}

/// Whether the hand-driven job has converged.
pub fn job_converged(job: &dyn JobRuntime) -> bool {
    job.is_converged()
}

/// Active, unprocessed partitions of the current iteration.
pub fn job_pending(job: &dyn JobRuntime) -> Vec<u32> {
    job.pending()
}

/// Trigger: `process_chunk` over the whole partition, then
/// `mark_processed`.  Returns the edge operations performed.
pub fn job_trigger(job: &dyn JobRuntime, pid: u32) -> u64 {
    let stats = job.process_chunk(pid, 0, 1);
    job.mark_processed(pid);
    stats.edge_ops
}

/// Push: `push_and_advance`.  Returns the sync records handled.
pub fn job_push(job: &dyn JobRuntime) -> u64 {
    job.push_and_advance().sync_records
}

// ---- oracle -----------------------------------------------------------

/// `algos::reference` over one graph.
pub struct Oracle {
    edges: EdgeList,
    csr: Csr,
}

impl Oracle {
    /// Indexes the graph once for any number of solves.
    pub fn new(edges: EdgeList) -> Self {
        let csr = Csr::from_edges(&edges);
        Oracle { edges, csr }
    }

    /// The reference result for `spec`.
    pub fn solve(&self, spec: JobSpec) -> Values {
        match spec {
            JobSpec::PageRank => Values::F64(reference::pagerank(
                &self.csr,
                pagerank().damping,
                1e-9,
                10_000,
            )),
            JobSpec::Sssp(s) => Values::F32(reference::sssp(&self.csr, s)),
            JobSpec::Bfs(s) => Values::U32(reference::bfs(&self.csr, s)),
            JobSpec::Wcc => Values::U32(reference::wcc(&self.edges)),
            JobSpec::Sswp(s) => Values::F32(reference::sswp(&self.csr, s)),
            JobSpec::Reach(s) => Values::Bool(
                reference::bfs(&self.csr, s)
                    .into_iter()
                    .map(|d| d != u32::MAX)
                    .collect(),
            ),
        }
    }
}

// ---- serving ----------------------------------------------------------

/// A serve loop over `engine`: admission window in virtual seconds,
/// `time_scale` virtual seconds per modeled second, optionally
/// journaling completions to `journal`.
pub fn serve_loop(
    engine: Engine,
    admission_window: f64,
    time_scale: f64,
    journal: Option<&Path>,
) -> Result<ServeLoop, String> {
    let config = ServeConfig { admission_window, time_scale, ..Default::default() };
    match journal {
        Some(path) => ServeLoop::with_journal(engine, config, path).map_err(|e| e.to_string()),
        None => Ok(ServeLoop::new(engine, config)),
    }
}

/// Job ids the serve loop assigned, by arrival index.
pub type AssignedIds = Arc<Mutex<Vec<Option<JobId>>>>;

/// `ServeLoop::offer_all` with one arrival due at virtual second `at`.
/// The arrival records the job id it is admitted under in `ids[idx]`.
pub fn offer(serve: &mut ServeLoop, idx: usize, at: f64, spec: JobSpec, ids: &AssignedIds) {
    let ids = Arc::clone(ids);
    let arrival = Arrival::new(at, spec.name(), move |e: &mut Engine, ts| {
        let id = submit(e, spec, ts);
        ids.lock().expect("id table lock")[idx] = Some(id);
        id
    });
    serve.offer_all(std::iter::once(arrival));
}

/// What one `ServeLoop::serve` call reported.
#[derive(Clone, Debug, Default)]
pub struct Served {
    /// Virtual-time latency of every job that completed, seconds.
    pub virt_latencies_s: Vec<f64>,
    /// Jobs that completed.
    pub completed: u64,
    /// Jobs quarantined by fault admission.
    pub quarantined: u64,
    /// Offers shed at the admission door.
    pub rejected: u64,
    /// Jobs cut short.
    pub truncated: u64,
    /// Admission waves released.
    pub waves: u64,
    /// Partition loads performed.
    pub loads: u64,
}

/// `ServeLoop::serve`.
pub fn serve(serve: &mut ServeLoop) -> Served {
    let report = serve.serve();
    let mut out = Served {
        rejected: report.rejected,
        waves: report.waves,
        loads: report.loads,
        ..Default::default()
    };
    for job in &report.jobs {
        match job.outcome {
            JobOutcome::Completed => {
                out.completed += 1;
                out.virt_latencies_s.push(job.latency());
            }
            JobOutcome::Quarantined => out.quarantined += 1,
            _ => out.truncated += 1,
        }
    }
    out
}

/// The engine inside a serve loop.
pub fn serve_engine(serve: &ServeLoop) -> &Engine {
    serve.engine()
}

/// A completion journal on its own, for timing `record` and `sync`.
pub struct Journal(ServeJournal);

/// `ServeJournal::open`.
pub fn journal_open(path: &Path) -> Result<Journal, String> {
    ServeJournal::open(path)
        .map(Journal)
        .map_err(|e| e.to_string())
}

/// `ServeJournal::record`.
pub fn journal_record(journal: &mut Journal, seq: u64) -> Result<(), String> {
    let t = seq as f64;
    journal
        .0
        .record(
            seq,
            JournalEntry { arrival: t, admitted: t, completed: t + 1.0 },
        )
        .map_err(|e| e.to_string())
}

/// `ServeJournal::sync`.
pub fn journal_sync(journal: &mut Journal) -> Result<(), String> {
    journal.0.sync().map_err(|e| e.to_string())
}

// ---- scheduler --------------------------------------------------------

/// A `PriorityScheduler` with `slots` synthetic pending slots.
pub struct PlanBench {
    scheduler: PriorityScheduler,
    slots: Vec<SlotInfo>,
}

/// Builds the scheduler micro-benchmark input: `slots` slots over
/// `shards` lanes with job counts, degrees and change magnitudes spread
/// by a fixed arithmetic pattern.
pub fn plan_bench(slots: usize, shards: usize) -> PlanBench {
    let slots = (0..slots)
        .map(|i| SlotInfo {
            pid: i as u32,
            version: (i % 3) as u32,
            shard: i % shards.max(1),
            num_jobs: 1 + (i * 7) % 12,
            avg_degree: 1.0 + ((i * 13) % 97) as f64,
            avg_change: ((i * 31) % 101) as f64 / 101.0,
        })
        .collect();
    PlanBench { scheduler: PriorityScheduler::new(0.5), slots }
}

/// `PriorityScheduler::plan` at the benchmark's wavefront width.
pub fn plan(bench: &mut PlanBench) -> Vec<usize> {
    bench.scheduler.plan(&bench.slots, WAVEFRONT)
}

// ---- in-program tracing -------------------------------------------------

/// An enabled observer whose per-thread rings hold `events` events.
pub fn observer(events: usize) -> Arc<Observer> {
    Observer::with_ring_capacity(events)
}

/// Attaches the observer's store bridge to `store`.
pub fn observe_store(store: &mut SnapshotStore, obs: &Arc<Observer>) {
    store.set_observer(obs.store_observer());
}

/// One event read back from `Observer::dump()`.
#[derive(Clone, Debug)]
pub struct ObsEvent {
    /// `EventKind::name()`.
    pub kind: &'static str,
    /// Recording thread's name.
    pub thread: String,
    /// Nanoseconds since the observer was created.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Engine round, or for store events the snapshot timestamp.
    pub round: u32,
}

/// `Observer::dump()`: every recorded event plus the dropped count.
pub fn dump(obs: &Observer) -> (Vec<ObsEvent>, u64) {
    let d = obs.dump();
    let events = d
        .events
        .iter()
        .map(|e| ObsEvent {
            kind: e.kind.name(),
            thread: d
                .threads
                .get(e.thread as usize)
                .cloned()
                .unwrap_or_default(),
            start_ns: e.start_ns,
            dur_ns: e.dur_ns,
            round: e.round,
        })
        .collect();
    (events, d.dropped_events)
}

/// Nanoseconds since the observer was created (to align its events
/// with the harness span log).
pub fn observer_now_ns(obs: &Observer) -> u64 {
    obs.now_ns()
}

// ---- json ---------------------------------------------------------------

/// Parses a JSON document with the repo's own parser.
pub fn json(text: &str) -> Result<JsonValue, String> {
    parse_json(text)
}
