//! Shared experiment harness for the figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§4).  This library holds the common machinery:
//! dataset construction, simulated-hierarchy sizing, the engine zoo, the
//! four-job benchmark mix (PageRank, SSSP, SCC, BFS), and table printing.
//!
//! All binaries accept `--full` (paper-scale graphs, slower) and `--tiny`
//! (smoke-test scale); the default is a quick scale that preserves every
//! qualitative trend.

use std::sync::Arc;

use cgraph_algos::{trace_arrivals, Bfs, PageRank, SccDriver, Sssp};
use cgraph_baselines::{BaselinePreset, FifoServe, StreamConfig, StreamEngine};
use cgraph_core::{
    Engine, EngineConfig, FaultConfig, FaultPlane, FaultStats, JobEngine, JobId, JobOutcome,
    Observer, SchedulerKind, ServeConfig, ServeLoop, ServeReport,
};
use cgraph_graph::generate::Dataset;
use cgraph_graph::snapshot::{CompactionPolicy, GraphDelta, SnapshotStore};
use cgraph_graph::vertex_cut::VertexCutPartitioner;
use cgraph_graph::{
    generate, Edge, EdgeList, PartitionSet, Partitioner, ShardCapacity, ShardPlacement,
    ShardedSnapshotStore,
};
use cgraph_memsim::{HierarchyConfig, JobMetrics, Metrics};
use cgraph_trace::JobSpan;

pub use cgraph_algos::BenchmarkJob;

/// Experiment scale parsed from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Subtracted from each dataset's R-MAT scale exponent.
    pub shrink: u32,
}

impl Scale {
    /// Parses `--full` / `--tiny` from `std::env::args`.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        let shrink = if args.iter().any(|a| a == "--full") {
            2
        } else if args.iter().any(|a| a == "--tiny") {
            7
        } else {
            5
        };
        Scale { shrink }
    }
}

/// Builds a dataset's partitioned form at the given scale.
pub fn partitions_for(ds: Dataset, scale: Scale) -> PartitionSet {
    let el = ds.generate(scale.shrink);
    partition_edges(&el)
}

/// Partitions an edge list with the harness's standard sizing.
pub fn partition_edges(el: &EdgeList) -> PartitionSet {
    let np = (el.len() / 8192).clamp(16, 192);
    VertexCutPartitioner::new(np).partition(el)
}

/// Total structure bytes of a partition set.
pub fn structure_bytes(ps: &PartitionSet) -> u64 {
    ps.partitions().iter().map(|p| p.structure_bytes()).sum()
}

/// Simulated hierarchy sized like the paper's testbed relative to each
/// dataset: the LLC holds a few partitions; the three smaller graphs fit in
/// memory, uk-union and hyperlink14 exceed it (out-of-core regime).
pub fn hierarchy_for(ds: Dataset, ps: &PartitionSet) -> HierarchyConfig {
    let total = structure_bytes(ps);
    let memory_bytes = match ds {
        Dataset::TwitterSim | Dataset::FriendsterSim | Dataset::Uk2007Sim => total * 3,
        Dataset::UkUnionSim => total * 95 / 100,
        Dataset::Hyperlink14Sim => total * 85 / 100,
    };
    HierarchyConfig { cache_bytes: (total / 10).max(4096), memory_bytes }
}

/// Simulated hierarchy that keeps the dataset out-of-core: memory holds
/// ~70% of the structure bytes, so partition loads keep reaching disk —
/// the bandwidth regime (0.5 GB/s disk vs 20 GB/s memory) where the
/// sharded prefetch pipeline pays.
pub fn out_of_core_hierarchy(ps: &PartitionSet) -> HierarchyConfig {
    let total = structure_bytes(ps);
    HierarchyConfig {
        cache_bytes: (total / 10).max(4096),
        memory_bytes: (total * 7 / 10).max(8192),
    }
}

/// The engines compared across the figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// CGraph with the priority scheduler (the full system).
    CGraph,
    /// CGraph with fixed-order loading (the Fig. 8 ablation).
    CGraphWithout,
    /// One of the baseline systems.
    Baseline(BaselinePreset),
}

impl EngineKind {
    /// The four systems of the overall-comparison figures (9-15).
    pub const COMPARISON: [EngineKind; 4] = [
        EngineKind::Baseline(BaselinePreset::Clip),
        EngineKind::Baseline(BaselinePreset::Nxgraph),
        EngineKind::Baseline(BaselinePreset::Seraph),
        EngineKind::CGraph,
    ];

    /// The three systems of the evolving-graph figures (16-19).
    pub const EVOLVING: [EngineKind; 3] = [
        EngineKind::Baseline(BaselinePreset::SeraphVt),
        EngineKind::Baseline(BaselinePreset::Seraph),
        EngineKind::CGraph,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::CGraph => "CGraph",
            EngineKind::CGraphWithout => "CGraph-without",
            EngineKind::Baseline(p) => p.name(),
        }
    }
}

/// Outcome of one engine run over a job mix.
#[derive(Clone, Debug)]
pub struct MixOutcome {
    /// Engine display name.
    pub engine: &'static str,
    /// Modeled makespan in seconds.
    pub seconds: f64,
    /// Counter deltas for this run.
    pub metrics: Metrics,
    /// Modeled CPU utilization.
    pub utilization: f64,
    /// Per-job reports (SCC phases aggregated into one entry).
    pub jobs: Vec<JobReport>,
}

/// One job's attributed outcome.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Job name.
    pub name: &'static str,
    /// Modeled per-job seconds (amortized access + own compute).
    pub seconds: f64,
    /// Fraction of the job's time spent on data access.
    pub access_ratio: f64,
    /// Raw attributed metrics.
    pub metrics: JobMetrics,
}

/// Submits a benchmark mix on any engine: non-SCC jobs first (each with
/// its arrival timestamp), then each SCC driver runs its phases —
/// concurrently with everything else.  Returns the tracked job ids per
/// mix entry; a final `run_jobs` drains whatever remains.
pub fn submit_mix<E: JobEngine>(
    engine: &mut E,
    mix: &[(BenchmarkJob, u64)],
) -> Vec<(&'static str, Vec<JobId>)> {
    let mut tracked: Vec<(&'static str, Vec<JobId>)> = Vec::new();
    let mut scc_requests: Vec<u64> = Vec::new();
    for (i, &(job, ts)) in mix.iter().enumerate() {
        let src = (i as u32).wrapping_mul(17) % 64;
        match job {
            BenchmarkJob::PageRank => {
                let id = engine.submit_program_at(PageRank::default(), ts);
                tracked.push(("PageRank", vec![id]));
            }
            BenchmarkJob::Sssp => {
                let id = engine.submit_program_at(Sssp::new(src), ts);
                tracked.push(("SSSP", vec![id]));
            }
            BenchmarkJob::Bfs => {
                let id = engine.submit_program_at(Bfs::new(src), ts);
                tracked.push(("BFS", vec![id]));
            }
            BenchmarkJob::Scc => scc_requests.push(ts),
        }
    }
    for ts in scc_requests {
        let edges = engine.snapshot_store().view_at(ts).edges_global();
        let mut driver = SccDriver::new(&edges);
        driver.run_at(engine, ts);
        tracked.push(("SCC", driver.phase_jobs().to_vec()));
    }
    tracked
}

/// Drives a benchmark mix on any engine (see [`submit_mix`]) and gathers
/// per-job attributed reports.
pub fn run_mix<E: JobEngine>(engine: &mut E, mix: &[(BenchmarkJob, u64)]) -> MixOutcome {
    let before = engine.global_metrics();
    let tracked = submit_mix(engine, mix);
    engine.run_jobs();

    let metrics = engine.global_metrics().since(&before);
    let cost = engine.cost();
    let workers = engine.workers();
    // Concurrent jobs contend for the shared data-access channel; jobs run
    // sequentially have it to themselves (the paper's Fig. 2 comparison).
    let sharers = if engine.is_concurrent() {
        mix.len().max(1)
    } else {
        1
    };
    let jobs = tracked
        .into_iter()
        .map(|(name, ids)| {
            let mut agg = JobMetrics::default();
            for id in ids {
                agg.add(&engine.job_metrics_of(id));
            }
            JobReport {
                name,
                seconds: cost.job_seconds(&agg, workers, sharers),
                access_ratio: cost.job_access_ratio(&agg, workers, sharers),
                metrics: agg,
            }
        })
        .collect();
    MixOutcome {
        engine: "",
        seconds: cost.total_seconds(&metrics, workers),
        metrics,
        utilization: cost.utilization(&metrics, workers),
        jobs,
    }
}

/// Builds an engine of `kind` and runs `mix` over `store`.
pub fn run_engine(
    kind: EngineKind,
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    mix: &[(BenchmarkJob, u64)],
) -> MixOutcome {
    let mut out = match kind {
        EngineKind::CGraph => {
            let mut e = Engine::new(
                Arc::clone(store),
                EngineConfig { workers, hierarchy, ..EngineConfig::default() },
            );
            run_mix(&mut e, mix)
        }
        EngineKind::CGraphWithout => {
            let mut e = Engine::new(
                Arc::clone(store),
                EngineConfig {
                    workers,
                    hierarchy,
                    scheduler: SchedulerKind::FixedOrder,
                    ..EngineConfig::default()
                },
            );
            run_mix(&mut e, mix)
        }
        EngineKind::Baseline(preset) => {
            let mut e = preset.build(Arc::clone(store), workers, hierarchy);
            run_mix(&mut e, mix)
        }
    };
    out.engine = kind.name();
    out
}

/// Runs `mix` on a CGraph engine planning `width` slots per wavefront
/// round and returns the run's report.  At `width > 1` the report's
/// `modeled_seconds` uses the pipeline model (slot `i+1`'s Load
/// overlapping slot `i`'s Trigger); at `width == 1` it is the classic
/// linear figure — the pair is the k-sweep comparison of the
/// `engine_comparison` bench.
pub fn run_wavefront(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    width: usize,
    mix: &[(BenchmarkJob, u64)],
) -> cgraph_core::RunReport {
    run_wavefront_cfg(store, workers, hierarchy, width, 1, 0, mix)
}

/// [`run_wavefront`] with the full pipeline configuration: `shards`
/// stage-one I/O lanes and a `depth`-slot prefetch window.  At
/// `shards = 1, depth = 0` this is exactly [`run_wavefront`].
pub fn run_wavefront_cfg(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    width: usize,
    shards: usize,
    depth: usize,
    mix: &[(BenchmarkJob, u64)],
) -> cgraph_core::RunReport {
    run_wavefront_placed(
        store,
        workers,
        hierarchy,
        width,
        shards,
        depth,
        0,
        ShardPlacement::RoundRobin,
        mix,
    )
}

/// [`run_wavefront_cfg`] with an explicit modeled-lane placement (the
/// `EngineConfig::placement` knob; a physically sharded store keeps
/// dictating its own) and an I/O-worker count (`io_workers > 0` runs
/// the fetch stage on I/O threads behind bounded channels; `0` runs it
/// inline on the main thread — bit-identical either way).
#[allow(clippy::too_many_arguments)]
pub fn run_wavefront_placed(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    width: usize,
    shards: usize,
    depth: usize,
    io_workers: usize,
    placement: ShardPlacement,
    mix: &[(BenchmarkJob, u64)],
) -> cgraph_core::RunReport {
    run_wavefront_observed(
        store, workers, hierarchy, width, shards, depth, io_workers, placement, mix, None,
    )
}

/// [`run_wavefront_placed`] under an explicit observer (`Some` = tracing
/// and metrics live) — the traced half of the tracing-overhead gate.
/// `None` is exactly [`run_wavefront_placed`]: the engine resolves it to
/// the disabled observer.
#[allow(clippy::too_many_arguments)]
pub fn run_wavefront_observed(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    width: usize,
    shards: usize,
    depth: usize,
    io_workers: usize,
    placement: ShardPlacement,
    mix: &[(BenchmarkJob, u64)],
    observer: Option<Arc<Observer>>,
) -> cgraph_core::RunReport {
    let mut engine = Engine::new(
        Arc::clone(store),
        EngineConfig {
            workers,
            hierarchy,
            wavefront: width,
            shards,
            placement,
            prefetch_depth: depth,
            io_workers,
            observer,
            ..EngineConfig::default()
        },
    );
    submit_mix(&mut engine, mix);
    let mut report = engine.run_jobs();
    // SCC drivers inside `submit_mix` run engine phases of their own, so
    // aggregate the whole engine lifetime rather than just the final
    // drain: every load, every counter, and the accumulated modeled time.
    report.loads = engine.total_loads();
    report.metrics = *engine.metrics();
    report.modeled_seconds = if width <= 1 {
        engine.modeled_seconds()
    } else {
        engine.pipeline_seconds()
    };
    report
}

/// One measured point of the wavefront/shard/prefetch sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Planned slots per round.
    pub wavefront: usize,
    /// Stage-one I/O lanes (snapshot-store shards).
    pub shards: usize,
    /// Prefetch window depth in wave slots.
    pub prefetch_depth: usize,
    /// Compute worker threads of the run.
    pub workers: usize,
    /// Fetch-stage I/O worker threads (0 = inline fetch).
    pub io_workers: usize,
    /// Pipeline-modeled milliseconds.
    pub modeled_ms: f64,
    /// Wall-clock milliseconds of the run.
    pub wall_ms: f64,
    /// Partition loads performed.
    pub loads: u64,
}

impl SweepPoint {
    /// Wall time over modeled time: how much real overhead (or real
    /// overlap, below 1) the executor adds on top of the cost model.
    pub fn wall_vs_modeled(&self) -> f64 {
        if self.modeled_ms == 0.0 {
            0.0
        } else {
            self.wall_ms / self.modeled_ms
        }
    }
}

/// Runs the four-job mix once per
/// `(wavefront, shards, prefetch_depth, io_workers)` grid point and
/// returns the measured sweep.
pub fn wavefront_sweep(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    mix: &[(BenchmarkJob, u64)],
    grid: &[(usize, usize, usize, usize)],
) -> Vec<SweepPoint> {
    grid.iter()
        .map(|&(wavefront, shards, prefetch_depth, io_workers)| {
            let start = std::time::Instant::now();
            let report = run_wavefront_placed(
                store,
                workers,
                hierarchy,
                wavefront,
                shards,
                prefetch_depth,
                io_workers,
                ShardPlacement::RoundRobin,
                mix,
            );
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(report.completed, "sweep point must converge");
            SweepPoint {
                wavefront,
                shards,
                prefetch_depth,
                workers,
                io_workers,
                modeled_ms: report.modeled_seconds * 1e3,
                wall_ms,
                loads: report.loads,
            }
        })
        .collect()
}

/// Outcome of one wall-clock gate: the measured ratio plus whether the
/// threshold was enforced or the gate was recorded-and-skipped (and
/// why).  Serialized into the bench JSON so CI trend tooling can tell
/// a passing gate from one the host hardware could not express.
#[derive(Clone, Debug)]
pub struct WallGate {
    /// Gate label, e.g. `tracing-overhead`.
    pub name: String,
    /// Required wall-clock speedup.
    pub threshold: f64,
    /// Measured wall-clock speedup.
    pub measured: f64,
    /// `enforced`, `skipped-cores`, or `skipped-scale`.
    pub status: String,
}

impl WallGate {
    /// Resolves a gate's status from the host and run scale: enforced
    /// only where `cores` can express the parallelism and the run is at
    /// gate scale; otherwise recorded-and-skipped with the reason.
    pub fn resolve(
        name: &str,
        threshold: f64,
        measured: f64,
        cores: usize,
        at_scale: bool,
    ) -> Self {
        let status = if cores < 4 {
            "skipped-cores"
        } else if !at_scale {
            "skipped-scale"
        } else {
            "enforced"
        };
        WallGate { name: name.to_string(), threshold, measured, status: status.to_string() }
    }

    /// Whether the threshold is live on this host/scale.
    pub fn enforced(&self) -> bool {
        self.status == "enforced"
    }
}

/// The shared `"gates": [...]` JSON fragment (two-space indent level).
fn gates_json(gates: &[WallGate]) -> String {
    let mut s = String::from("  \"gates\": [\n");
    for (i, g) in gates.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"gate\": \"{}\", \"threshold\": {:.2}, \"measured\": {:.3}, \
             \"status\": \"{}\"}}{}\n",
            g.name,
            g.threshold,
            g.measured,
            g.status,
            if i + 1 < gates.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]");
    s
}

/// Serializes a sweep as the machine-readable `BENCH_wavefront.json`
/// tracked by CI (hand-rolled writer: the workspace is offline and
/// carries no serde).  Wall-clock figures only mean something relative
/// to the host, so every row carries the worker split and its
/// wall-vs-modeled ratio, and the envelope records the cores and the
/// wall-gate outcomes.
pub fn wavefront_sweep_json(
    dataset: &str,
    scale_shrink: u32,
    points: &[SweepPoint],
    gates: &[WallGate],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"dataset\": \"{dataset}\",\n"));
    s.push_str(&format!("  \"scale_shrink\": {scale_shrink},\n"));
    s.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"wavefront\": {}, \"shards\": {}, \"prefetch_depth\": {}, \
             \"workers\": {}, \"io_workers\": {}, \"modeled_ms\": {:.6}, \
             \"wall_ms\": {:.3}, \"wall_vs_modeled\": {:.4}, \"loads\": {}}}{}\n",
            p.wavefront,
            p.shards,
            p.prefetch_depth,
            p.workers,
            p.io_workers,
            p.modeled_ms,
            p.wall_ms,
            p.wall_vs_modeled(),
            p.loads,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&gates_json(gates));
    s.push_str("\n}\n");
    s
}

/// Serves a generated trace through the CGraph [`ServeLoop`]:
/// arrivals rescaled by `seconds_per_hour`, admitted under `window`
/// (virtual seconds), executed at wavefront `width`.  Sources rotate
/// over 64 vertices like [`submit_mix`].
pub fn serve_trace(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    trace: &[JobSpan],
    seconds_per_hour: f64,
    window: f64,
    width: usize,
) -> ServeReport {
    serve_trace_observed(
        store,
        workers,
        hierarchy,
        trace,
        seconds_per_hour,
        window,
        width,
        None,
    )
}

/// [`serve_trace`] under an explicit observer (`Some` = tracing and
/// metrics live, covering the executor *and* the serve loop) — the
/// traced half of the serving tracing-overhead gate.
#[allow(clippy::too_many_arguments)]
pub fn serve_trace_observed(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    trace: &[JobSpan],
    seconds_per_hour: f64,
    window: f64,
    width: usize,
    observer: Option<Arc<Observer>>,
) -> ServeReport {
    let engine = Engine::new(
        Arc::clone(store),
        EngineConfig { workers, hierarchy, wavefront: width, observer, ..EngineConfig::default() },
    );
    let mut serve = ServeLoop::new(
        engine,
        ServeConfig { admission_window: window, time_scale: 1.0, ..ServeConfig::default() },
    );
    serve.offer_all(trace_arrivals(trace, seconds_per_hour, 64));
    serve.serve()
}

/// Serves the same trace through the FIFO streaming baseline
/// ([`FifoServe`] over a [`StreamEngine`]) — the serving layer's
/// comparison denominator.
pub fn serve_trace_stream(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    trace: &[JobSpan],
    seconds_per_hour: f64,
) -> ServeReport {
    let engine = StreamEngine::new(
        Arc::clone(store),
        StreamConfig { workers, hierarchy, ..StreamConfig::default() },
    );
    let mut serve = FifoServe::new(engine, 1.0);
    serve.offer_all(trace_arrivals(trace, seconds_per_hour, 64));
    serve.serve()
}

/// Serves the trace through the CGraph [`ServeLoop`] under a seeded
/// fault plane with load shedding and brownout armed — the degraded
/// half of the `bench_chaos` differential.  Pass
/// [`FaultConfig::default()`] (all rates zero) for the clean half: the
/// engine strips a disabled plane at construction, so the clean run is
/// bit-identical to [`serve_trace`].  `max_backlog = 0` disables
/// shedding.  Returns the report plus the plane's final fault stats.
#[allow(clippy::too_many_arguments)]
pub fn serve_trace_chaos(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    trace: &[JobSpan],
    seconds_per_hour: f64,
    window: f64,
    width: usize,
    faults: FaultConfig,
    max_backlog: usize,
) -> (ServeReport, FaultStats) {
    let plane = FaultPlane::new(faults);
    let engine = Engine::new(
        Arc::clone(store),
        EngineConfig {
            workers,
            hierarchy,
            wavefront: width,
            faults: Some(Arc::clone(&plane)),
            ..EngineConfig::default()
        },
    );
    let mut serve = ServeLoop::new(
        engine,
        ServeConfig {
            admission_window: window,
            time_scale: 1.0,
            max_backlog,
            brownout_backlog: if max_backlog > 0 { max_backlog / 2 } else { 0 },
            ..ServeConfig::default()
        },
    );
    serve.offer_all(trace_arrivals(trace, seconds_per_hour, 64));
    let report = serve.serve();
    (report, plane.stats())
}

/// One half (clean or faulted) of the chaos differential.
#[derive(Clone, Debug)]
pub struct ChaosPoint {
    /// Row label (`"clean"` / `"faulted"`).
    pub label: &'static str,
    /// Jobs the trace offered.
    pub offered: usize,
    /// Jobs that ran to convergence.
    pub completed: usize,
    /// Jobs quarantined after retry/reroute exhaustion.
    pub quarantined: u64,
    /// Offers shed at admission.
    pub rejected: u64,
    /// Fetch retries burned.
    pub retries: u64,
    /// Fetches rerouted by open breakers.
    pub rerouted: u64,
    /// Breaker trips.
    pub breaker_trips: u64,
    /// Jobs per virtual second of makespan.
    pub throughput: f64,
    /// Mean end-to-end latency over completed jobs (virtual seconds).
    pub mean_latency: f64,
    /// Partition loads performed.
    pub loads: u64,
    /// Wall-clock milliseconds of the serve run.
    pub wall_ms: f64,
}

impl ChaosPoint {
    /// Distills a serve report plus fault stats into one chaos row.
    pub fn from_report(
        label: &'static str,
        offered: usize,
        report: &ServeReport,
        stats: &FaultStats,
        wall_ms: f64,
    ) -> ChaosPoint {
        let rows = report.per_job();
        let done: Vec<_> = rows
            .iter()
            .filter(|r| r.outcome == JobOutcome::Completed)
            .collect();
        let mean_latency = if done.is_empty() {
            0.0
        } else {
            done.iter().map(|r| r.latency).sum::<f64>() / done.len() as f64
        };
        ChaosPoint {
            label,
            offered,
            completed: done.len(),
            quarantined: report.quarantined,
            rejected: report.rejected,
            retries: report.retries,
            rerouted: stats.rerouted,
            breaker_trips: stats.breaker_trips,
            throughput: report.throughput(),
            mean_latency,
            loads: report.loads,
            wall_ms,
        }
    }

    /// Fraction of offered jobs that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }

    /// Every offered job must be accounted for exactly once:
    /// completed, quarantined, or shed.  A shortfall is a lost job.
    pub fn lost_jobs(&self) -> i64 {
        self.offered as i64 - self.completed as i64 - self.quarantined as i64 - self.rejected as i64
    }
}

/// Serializes the chaos differential as the machine-readable
/// `BENCH_chaos.json` tracked by CI (hand-rolled like
/// [`serve_sweep_json`]: the workspace is offline, no serde).
pub fn chaos_json(
    dataset: &str,
    scale_shrink: u32,
    fault_seed: u64,
    fetch_rate: f64,
    points: &[ChaosPoint],
    gates: &[WallGate],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"dataset\": \"{dataset}\",\n"));
    s.push_str(&format!("  \"scale_shrink\": {scale_shrink},\n"));
    s.push_str(&format!("  \"fault_seed\": {fault_seed},\n"));
    s.push_str(&format!("  \"fetch_rate\": {fetch_rate:.6},\n"));
    s.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"label\": \"{}\", \"offered\": {}, \"completed\": {}, \
             \"quarantined\": {}, \"rejected\": {}, \"retries\": {}, \
             \"rerouted\": {}, \"breaker_trips\": {}, \
             \"completion_rate\": {:.6}, \"lost_jobs\": {}, \
             \"throughput\": {:.6}, \"mean_latency\": {:.6}, \
             \"loads\": {}, \"wall_ms\": {:.3}}}{}\n",
            p.label,
            p.offered,
            p.completed,
            p.quarantined,
            p.rejected,
            p.retries,
            p.rerouted,
            p.breaker_trips,
            p.completion_rate(),
            p.lost_jobs(),
            p.throughput,
            p.mean_latency,
            p.loads,
            p.wall_ms,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&gates_json(gates));
    s.push_str("\n}\n");
    s
}

/// One measured point of the serving sweep.
#[derive(Clone, Copy, Debug)]
pub struct ServePoint {
    /// Admission window in virtual seconds.
    pub admission_window: f64,
    /// Wavefront width the engine executed with.
    pub wavefront: usize,
    /// Jobs served.
    pub jobs: usize,
    /// Jobs per virtual second of makespan.
    pub throughput: f64,
    /// Mean end-to-end latency (virtual seconds).
    pub mean_latency: f64,
    /// Mean admission-queue wait (virtual seconds).
    pub mean_wait: f64,
    /// 99th-percentile end-to-end latency.
    pub p99_latency: f64,
    /// Partition loads performed.
    pub loads: u64,
    /// Fraction of the same-wavefront FIFO (window 0) run's loads spared.
    pub spared_vs_fifo: f64,
    /// Offers shed at admission (always 0 without a backlog bound).
    pub rejected: u64,
    /// Jobs quarantined by the fault plane (always 0 without faults).
    pub quarantined: u64,
    /// Fetch retries burned by the fault plane (always 0 without faults).
    pub retries: u64,
    /// Wall-clock milliseconds of the serve run.
    pub wall_ms: f64,
}

/// Serves the trace once per `(admission_window, wavefront)` grid point
/// and returns the measured sweep.  Every wavefront's `window = 0` row
/// is the FIFO denominator for that wavefront's `spared_vs_fifo`
/// figures (0.0 when the grid carries no such row).
pub fn serve_sweep(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    trace: &[JobSpan],
    seconds_per_hour: f64,
    grid: &[(f64, usize)],
) -> Vec<ServePoint> {
    let reports: Vec<(f64, usize, ServeReport, f64)> = grid
        .iter()
        .map(|&(window, width)| {
            let start = std::time::Instant::now();
            let report = serve_trace(
                store,
                workers,
                hierarchy,
                trace,
                seconds_per_hour,
                window,
                width,
            );
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(report.completed, "sweep point must serve to convergence");
            (window, width, report, wall_ms)
        })
        .collect();
    reports
        .iter()
        .map(|&(window, width, ref report, wall_ms)| {
            let fifo_loads = reports
                .iter()
                .find(|&&(w, k, ..)| w == 0.0 && k == width)
                .map(|(_, _, r, _)| r.loads);
            let spared_vs_fifo = match fifo_loads {
                Some(f) if f > 0 => 1.0 - report.loads as f64 / f as f64,
                _ => 0.0,
            };
            // Per-job figures come off the report's `per_job()` rows —
            // wait/latency pre-derived, no re-deriving from raw stamps.
            let rows = report.per_job();
            let mean_of = |f: fn(&cgraph_core::JobRow) -> f64| {
                if rows.is_empty() {
                    0.0
                } else {
                    rows.iter().map(f).sum::<f64>() / rows.len() as f64
                }
            };
            ServePoint {
                admission_window: window,
                wavefront: width,
                jobs: rows.len(),
                throughput: report.throughput(),
                mean_latency: mean_of(|r| r.latency),
                mean_wait: mean_of(|r| r.wait),
                p99_latency: report.latency_percentile(99.0),
                loads: report.loads,
                spared_vs_fifo,
                rejected: report.rejected,
                quarantined: report.quarantined,
                retries: report.retries,
                wall_ms,
            }
        })
        .collect()
}

/// Serializes a serving sweep as the machine-readable
/// `BENCH_serve.json` tracked by CI (hand-rolled like
/// [`wavefront_sweep_json`]: the workspace is offline, no serde).
/// `gates` carries the wall-gate rows (e.g. the tracing-overhead gate).
pub fn serve_sweep_json(
    dataset: &str,
    scale_shrink: u32,
    points: &[ServePoint],
    gates: &[WallGate],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"dataset\": \"{dataset}\",\n"));
    s.push_str(&format!("  \"scale_shrink\": {scale_shrink},\n"));
    s.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"admission_window\": {:.6}, \"wavefront\": {}, \"jobs\": {}, \
             \"throughput\": {:.6}, \"mean_latency\": {:.6}, \"mean_wait\": {:.6}, \
             \"p99_latency\": {:.6}, \
             \"loads\": {}, \"spared_vs_fifo\": {:.6}, \
             \"rejected\": {}, \"quarantined\": {}, \"retries\": {}, \
             \"wall_ms\": {:.3}}}{}\n",
            p.admission_window,
            p.wavefront,
            p.jobs,
            p.throughput,
            p.mean_latency,
            p.mean_wait,
            p.p99_latency,
            p.loads,
            p.spared_vs_fifo,
            p.rejected,
            p.quarantined,
            p.retries,
            p.wall_ms,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&gates_json(gates));
    s.push_str("\n}\n");
    s
}

/// The paper's standard four-job mix at timestamp 0.
pub fn paper_mix() -> Vec<(BenchmarkJob, u64)> {
    BenchmarkJob::ALL.iter().map(|&j| (j, 0)).collect()
}

/// `n` jobs rotating through the paper's mix, all at timestamp 0.
pub fn rotating_mix(n: usize) -> Vec<(BenchmarkJob, u64)> {
    (0..n).map(|i| (BenchmarkJob::ALL[i % 4], 0)).collect()
}

/// Builds an evolving store: `snapshots` deltas on top of the dataset, each
/// changing `change_ratio` of the edges (half additions, half removals).
pub fn evolving_store(
    ds: Dataset,
    scale: Scale,
    snapshots: usize,
    change_ratio: f64,
) -> Arc<SnapshotStore> {
    let el = ds.generate(scale.shrink);
    let n = el.num_vertices();
    let ps = partition_edges(&el);
    let mut store = SnapshotStore::new(ps);
    // Track the live edge multiset host-side so removals always exist.
    let mut current: Vec<Edge> = el.edges().to_vec();
    let per_snapshot = ((el.len() as f64 * change_ratio).round() as usize).max(1);
    for s in 0..snapshots {
        let mut additions = Vec::new();
        let mut removals: Vec<(u32, u32)> = Vec::new();
        for i in 0..per_snapshot {
            let k = (s * per_snapshot + i) as u32;
            if i % 2 == 0 {
                let mut src = k.wrapping_mul(2654435761) % n;
                let dst = (k.wrapping_mul(97).wrapping_add(13)) % n;
                if src == dst {
                    src = (src + 1) % n;
                }
                additions.push(Edge::unit(src, dst));
            } else if !current.is_empty() {
                let e = current[(k as usize).wrapping_mul(31) % current.len()];
                removals.push((e.src, e.dst));
            }
        }
        removals.sort_unstable();
        removals.dedup();
        for &(src, dst) in &removals {
            if let Some(pos) = current.iter().position(|e| e.src == src && e.dst == dst) {
                current.swap_remove(pos);
            }
        }
        current.extend_from_slice(&additions);
        let delta = GraphDelta { additions, removals };
        store
            .apply((s as u64 + 1) * 10, &delta)
            .expect("evolving delta applies");
    }
    Arc::new(store)
}

/// A deterministic ingest stream for the O(Δ) snapshot-chain benchmarks.
///
/// Each delta adds `per_delta` edges from two fixed, well-separated
/// source vertices — so few partitions rebuild, and (because every delta
/// also removes the previous delta's edges) those partitions never grow
/// — to destinations scattered over the whole vertex range, so the
/// accumulated vertex-override state grows with every delta.  The
/// pre-layering cumulative layout recloned all of that state per apply;
/// the layered chain writes only the delta.
pub fn ingest_stream(n: u32, deltas: usize, per_delta: usize) -> Vec<GraphDelta> {
    ingest_stream_spread(n, deltas, per_delta, 2)
}

/// [`ingest_stream`] with `sources` evenly spread source vertices: each
/// delta's additions fan out from `sources` fixed points, so every
/// delta rebuilds ~`sources` partitions across several shards — the
/// stream shape the concurrent-apply benchmark fans out over.
pub fn ingest_stream_spread(
    n: u32,
    deltas: usize,
    per_delta: usize,
    sources: u32,
) -> Vec<GraphDelta> {
    let sources = sources.clamp(1, n);
    let edge = |i: usize, j: usize| -> Edge {
        let k = (i * per_delta + j) as u32;
        let src = (k % sources) * (n / sources);
        let mut dst = k.wrapping_mul(2654435761) % n;
        if dst == src {
            dst = (dst + 1) % n;
        }
        Edge::unit(src, dst)
    };
    (0..deltas)
        .map(|i| {
            let additions: Vec<Edge> = (0..per_delta).map(|j| edge(i, j)).collect();
            let removals: Vec<(u32, u32)> = if i == 0 {
                Vec::new()
            } else {
                (0..per_delta)
                    .map(|j| {
                        let e = edge(i - 1, j);
                        (e.src, e.dst)
                    })
                    .collect()
            };
            GraphDelta { additions, removals }
        })
        .collect()
}

/// An **additions-only** delta stream for the incremental-resume
/// benchmark: every delta adds `per_delta` edges and removes nothing,
/// so each inter-version range is monotone-safe and a resumed job may
/// take the seeded O(Δ) path ([`ingest_stream`] removes the previous
/// delta's edges and would force the from-scratch fallback on every
/// version).  Sources and destinations are scattered over the whole
/// vertex range so deltas touch different partitions each version.
pub fn growth_stream(n: u32, deltas: usize, per_delta: usize) -> Vec<GraphDelta> {
    let edge = |i: usize, j: usize| -> Edge {
        let k = (i * per_delta + j) as u32;
        let src = k.wrapping_mul(2246822519) % n;
        let mut dst = k.wrapping_mul(2654435761) % n;
        if dst == src {
            dst = (dst + 1) % n;
        }
        Edge::unit(src, dst)
    };
    (0..deltas)
        .map(|i| GraphDelta {
            additions: (0..per_delta).map(|j| edge(i, j)).collect(),
            removals: Vec::new(),
        })
        .collect()
}

/// One sampled version of the incremental-resume benchmark: the same
/// snapshot bound from scratch and resumed from the previous version's
/// converged result.
#[derive(Clone, Debug)]
pub struct IncrementalPoint {
    /// Snapshot timestamp this version bound.
    pub version: u64,
    /// From-scratch wall time for this version, ms.
    pub scratch_ms: f64,
    /// Resumed wall time for this version, ms.
    pub resumed_ms: f64,
    /// Partition loads the from-scratch run performed.
    pub scratch_loads: u64,
    /// Partition loads the resumed run performed.
    pub resumed_loads: u64,
}

/// Whole-stream totals of the incremental-resume benchmark.
#[derive(Clone, Debug)]
pub struct IncrementalSummary {
    /// Vertices in the base graph.
    pub vertices: u32,
    /// Deltas in the stream (versions beyond the base snapshot).
    pub deltas: usize,
    /// Edges added per delta.
    pub per_delta: usize,
    /// Program driven over the stream.
    pub program: String,
    /// Resubmissions that took the seeded O(Δ) path.
    pub seeded: usize,
    /// Total from-scratch wall across every version, ms.
    pub scratch_wall_ms: f64,
    /// Total chained-resume wall across every version, ms.
    pub resumed_wall_ms: f64,
    /// Total from-scratch partition loads.
    pub scratch_loads: u64,
    /// Total chained-resume partition loads.
    pub resumed_loads: u64,
}

impl IncrementalSummary {
    /// From-scratch wall over chained-resume wall (the gated figure).
    pub fn speedup(&self) -> f64 {
        if self.resumed_wall_ms <= 0.0 {
            return 0.0;
        }
        self.scratch_wall_ms / self.resumed_wall_ms
    }
}

/// Serializes the incremental-resume run as `BENCH_incremental.json`
/// (hand-rolled like [`wavefront_sweep_json`]: the workspace is
/// offline, no serde).
pub fn incremental_json(
    dataset: &str,
    scale_shrink: u32,
    summary: &IncrementalSummary,
    points: &[IncrementalPoint],
    gates: &[WallGate],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"dataset\": \"{dataset}\",\n"));
    s.push_str(&format!("  \"scale_shrink\": {scale_shrink},\n"));
    s.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    s.push_str(&format!("  \"vertices\": {},\n", summary.vertices));
    s.push_str(&format!("  \"deltas\": {},\n", summary.deltas));
    s.push_str(&format!("  \"per_delta\": {},\n", summary.per_delta));
    s.push_str(&format!("  \"program\": \"{}\",\n", summary.program));
    s.push_str(&format!("  \"seeded\": {},\n", summary.seeded));
    s.push_str(&format!(
        "  \"scratch_wall_ms\": {:.3},\n",
        summary.scratch_wall_ms
    ));
    s.push_str(&format!(
        "  \"resumed_wall_ms\": {:.3},\n",
        summary.resumed_wall_ms
    ));
    s.push_str(&format!(
        "  \"scratch_loads\": {},\n",
        summary.scratch_loads
    ));
    s.push_str(&format!(
        "  \"resumed_loads\": {},\n",
        summary.resumed_loads
    ));
    s.push_str(&format!("  \"speedup\": {:.3},\n", summary.speedup()));
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"version\": {}, \"scratch_ms\": {:.3}, \"resumed_ms\": {:.3}, \
             \"scratch_loads\": {}, \"resumed_loads\": {}}}{}\n",
            p.version,
            p.scratch_ms,
            p.resumed_ms,
            p.scratch_loads,
            p.resumed_loads,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&gates_json(gates));
    s.push_str("\n}\n");
    s
}

/// One sampled point of an ingest run: state after `chain_len` deltas.
#[derive(Clone, Debug)]
pub struct IngestPoint {
    /// Deltas applied so far.
    pub chain_len: usize,
    /// Cumulative apply wall time up to this chain length, µs.
    pub cum_apply_us: f64,
    /// Resident bytes held by the delta chains beyond the base graph.
    pub override_bytes: u64,
    /// Mean latest-view partition+version lookup cost, ns (must stay
    /// flat in chain length: the current-state index answers in O(1)).
    pub latest_lookup_ns: f64,
}

/// One compaction policy's full pass over an ingest stream.
#[derive(Clone, Debug)]
pub struct IngestRun {
    /// Human-readable policy label.
    pub policy: String,
    /// Samples at each requested chain length.
    pub points: Vec<IngestPoint>,
    /// Per-apply wall time, µs, for every delta in order.
    pub apply_us: Vec<f64>,
}

impl IngestRun {
    /// Total ingest wall time, µs.
    pub fn total_us(&self) -> f64 {
        self.apply_us.iter().sum()
    }

    /// Mean per-apply wall time over `range`, µs.
    pub fn mean_us(&self, range: std::ops::Range<usize>) -> f64 {
        let s = &self.apply_us[range];
        s.iter().sum::<f64>() / s.len() as f64
    }
}

/// Applies `stream` to a fresh store under `policy`, sampling cost,
/// resident bytes, and latest-view lookup time at each chain length in
/// `marks`.
pub fn ingest_run(
    policy_label: &str,
    policy: CompactionPolicy,
    base: &PartitionSet,
    stream: &[GraphDelta],
    marks: &[usize],
) -> IngestRun {
    ingest_run_on(
        policy_label,
        SnapshotStore::new(base.clone()).with_compaction(policy),
        stream,
        marks,
    )
}

/// [`ingest_run`] over a caller-configured store — the hook the
/// sharded / concurrent-apply / capacity-limited rows use.
pub fn ingest_run_on(
    policy_label: &str,
    mut store: ShardedSnapshotStore,
    stream: &[GraphDelta],
    marks: &[usize],
) -> IngestRun {
    let np = store.base().num_partitions() as u32;
    let mut apply_us = Vec::with_capacity(stream.len());
    let mut points = Vec::new();
    for (i, d) in stream.iter().enumerate() {
        let start = std::time::Instant::now();
        store
            .apply((i as u64 + 1) * 10, d)
            .expect("ingest delta applies");
        apply_us.push(start.elapsed().as_secs_f64() * 1e6);
        if marks.contains(&(i + 1)) {
            let override_bytes = store.override_bytes();
            // Probe the latest view (GraphView needs the Arc spelling;
            // nothing else holds a reference, so unwrap round-trips).
            let arc = Arc::new(store);
            let view = arc.latest();
            let rounds = 64usize;
            let start = std::time::Instant::now();
            let mut acc = 0u64;
            for _ in 0..rounds {
                for pid in 0..np {
                    acc += view.version_of(pid) as u64;
                    acc += view.partition(pid).num_edges() as u64;
                }
            }
            let latest_lookup_ns =
                start.elapsed().as_secs_f64() * 1e9 / (rounds as f64 * np as f64);
            std::hint::black_box(acc);
            drop(view);
            store = Arc::try_unwrap(arc).expect("probe view dropped");
            points.push(IngestPoint {
                chain_len: i + 1,
                cum_apply_us: apply_us.iter().sum(),
                override_bytes,
                latest_lookup_ns,
            });
        }
    }
    IngestRun { policy: policy_label.to_string(), points, apply_us }
}

/// Serializes ingest runs as the machine-readable `BENCH_ingest.json`
/// tracked by CI (hand-rolled writer: the workspace is offline and
/// carries no serde).
pub fn ingest_sweep_json(
    dataset: &str,
    vertices: u32,
    per_delta: usize,
    runs: &[IngestRun],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"dataset\": \"{dataset}\",\n"));
    s.push_str(&format!("  \"vertices\": {vertices},\n"));
    s.push_str(&format!("  \"edges_per_delta\": {per_delta},\n"));
    s.push_str("  \"runs\": [\n");
    for (r, run) in runs.iter().enumerate() {
        let n = run.apply_us.len();
        s.push_str(&format!(
            "    {{\"policy\": \"{}\", \"total_apply_us\": {:.1}, \
             \"mean_first50_us\": {:.2}, \"mean_last50_us\": {:.2}, \"points\": [\n",
            run.policy,
            run.total_us(),
            run.mean_us(0..50.min(n)),
            run.mean_us(n.saturating_sub(50)..n),
        ));
        for (i, p) in run.points.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"chain_len\": {}, \"cum_apply_us\": {:.1}, \
                 \"override_bytes\": {}, \"latest_lookup_ns\": {:.1}}}{}\n",
                p.chain_len,
                p.cum_apply_us,
                p.override_bytes,
                p.latest_lookup_ns,
                if i + 1 < run.points.len() { "," } else { "" }
            ));
        }
        s.push_str(&format!(
            "    ]}}{}\n",
            if r + 1 < runs.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

// ---- multi-node store sweeps (placement / capacity / concurrent apply) ----

/// A graph of `communities` disjoint R-MAT communities laid out over
/// consecutive vertex ranges: community `c` occupies
/// `[c * 2^scale, (c+1) * 2^scale)` and no edge crosses communities.
/// Partitioned in order, each partition's edges belong to (almost
/// always exactly) one community — the clustered-footprint workload the
/// locality placer exists for: a frontier job started inside one
/// community only ever touches that community's partitions.
pub fn community_graph(communities: usize, scale: u32, edge_factor: u32, seed: u64) -> EdgeList {
    let block = 1u32 << scale;
    let n = block * communities as u32;
    let mut edges: Vec<Edge> = Vec::new();
    for c in 0..communities as u32 {
        let el = generate::rmat(
            scale,
            edge_factor,
            generate::RmatParams::default(),
            seed.wrapping_add(c as u64),
        );
        edges.extend(el.edges().iter().map(|e| Edge {
            src: e.src + c * block,
            dst: e.dst + c * block,
            ..*e
        }));
    }
    EdgeList::from_edges(edges, n)
}

/// Submits one BFS and one SSSP per community, sourced at each
/// community's base vertex — `2 * communities` jobs whose partition
/// footprints are disjoint community blocks.
pub fn submit_community_jobs<E: JobEngine>(engine: &mut E, communities: usize, block: u32) {
    for c in 0..communities as u32 {
        engine.submit_program(Bfs::new(c * block));
        engine.submit_program(Sssp::new(c * block + 1));
    }
}

/// One measured point of the placement sweep.
#[derive(Clone, Debug)]
pub struct PlacementPoint {
    /// Placement label (`round_robin`, `hash`, `locality`).
    pub placement: String,
    /// Partition loads performed.
    pub loads: u64,
    /// Total disk bytes fetched across all shard lanes.
    pub total_fetch_bytes: u64,
    /// Disk bytes jobs pulled from outside their home shards.
    pub cross_shard_fetch_bytes: u64,
    /// Pipeline-modeled milliseconds.
    pub modeled_ms: f64,
    /// Wall-clock milliseconds of the run.
    pub wall_ms: f64,
    /// Compute worker threads of the run.
    pub workers: usize,
}

impl PlacementPoint {
    /// Cross-shard share of all fetched bytes (0 when nothing fetched).
    pub fn cross_fraction(&self) -> f64 {
        if self.total_fetch_bytes == 0 {
            0.0
        } else {
            self.cross_shard_fetch_bytes as f64 / self.total_fetch_bytes as f64
        }
    }

    /// Wall time over modeled time (0 when nothing was modeled).
    pub fn wall_vs_modeled(&self) -> f64 {
        if self.modeled_ms == 0.0 {
            0.0
        } else {
            self.wall_ms / self.modeled_ms
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_placed_community(
    ps: &PartitionSet,
    shards: usize,
    placement: ShardPlacement,
    label: &str,
    workers: usize,
    hierarchy: HierarchyConfig,
    communities: usize,
    block: u32,
) -> (PlacementPoint, Engine) {
    let store = Arc::new(ShardedSnapshotStore::with_placement(
        ps.clone(),
        shards,
        placement,
    ));
    let mut engine = Engine::new(
        store,
        EngineConfig {
            workers,
            hierarchy,
            wavefront: 4,
            prefetch_depth: 2,
            ..EngineConfig::default()
        },
    );
    let start = std::time::Instant::now();
    submit_community_jobs(&mut engine, communities, block);
    let report = engine.run();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(report.completed, "placement sweep point must converge");
    let point = PlacementPoint {
        placement: label.to_string(),
        loads: report.loads,
        total_fetch_bytes: engine.shard_fetch_bytes().iter().sum(),
        cross_shard_fetch_bytes: engine.cross_shard_fetch_bytes(),
        modeled_ms: report.modeled_seconds * 1e3,
        wall_ms,
        workers,
    };
    (point, engine)
}

/// Runs the community mix over `{round_robin, hash, locality}` stores
/// of `shards` shards on an out-of-core hierarchy — the bench_wavefront
/// regime, swept over placements.  The locality table is profiled from
/// the round-robin run's observed job footprints
/// ([`Engine::footprint_profile`]), exactly how a deployment would feed
/// the placer.  Returns the three points in that order.
pub fn placement_sweep(
    ps: &PartitionSet,
    shards: usize,
    workers: usize,
    hierarchy: HierarchyConfig,
    communities: usize,
    block: u32,
) -> Vec<PlacementPoint> {
    let (rr, profiled) = run_placed_community(
        ps,
        shards,
        ShardPlacement::RoundRobin,
        "round_robin",
        workers,
        hierarchy,
        communities,
        block,
    );
    let profile = profiled.footprint_profile();
    let locality = ShardPlacement::locality(&profile, ps.num_partitions(), shards);
    let (hash, _) = run_placed_community(
        ps,
        shards,
        ShardPlacement::Hash,
        "hash",
        workers,
        hierarchy,
        communities,
        block,
    );
    let (local, _) = run_placed_community(
        ps,
        shards,
        locality,
        "locality",
        workers,
        hierarchy,
        communities,
        block,
    );
    vec![rr, hash, local]
}

/// One measured point of the concurrent-apply sweep.
#[derive(Clone, Debug)]
pub struct ApplyPoint {
    /// Worker threads `apply` fanned out on.
    pub apply_workers: usize,
    /// Shards of the store.
    pub shards: usize,
    /// Total wall time of the whole stream, µs.
    pub total_apply_us: f64,
    /// Resident override bytes after the stream (must be identical at
    /// every worker count — concurrency never changes the result).
    pub override_bytes: u64,
}

/// Applies `stream` once per worker count in `workers_list` over a
/// fresh `shards`-shard store and measures the wall time.  Asserts the
/// bit-identity invariant: every run ends with identical resident
/// bytes and identical latest-view partition versions.
pub fn apply_sweep(
    base: &PartitionSet,
    stream: &[GraphDelta],
    shards: usize,
    workers_list: &[usize],
) -> Vec<ApplyPoint> {
    let mut points: Vec<ApplyPoint> = Vec::new();
    let mut reference: Option<Vec<cgraph_graph::VersionId>> = None;
    for &w in workers_list {
        let mut store =
            ShardedSnapshotStore::with_shards(base.clone(), shards).with_apply_workers(w);
        let start = std::time::Instant::now();
        for (i, d) in stream.iter().enumerate() {
            store.apply((i as u64 + 1) * 10, d).expect("stream applies");
        }
        let total_apply_us = start.elapsed().as_secs_f64() * 1e6;
        let override_bytes = store.override_bytes();
        let store = Arc::new(store);
        let view = store.latest();
        let versions: Vec<cgraph_graph::VersionId> = (0..base.num_partitions() as u32)
            .map(|pid| view.version_of(pid))
            .collect();
        match &reference {
            None => reference = Some(versions),
            Some(r) => assert_eq!(r, &versions, "apply_workers={w} diverged"),
        }
        points.push(ApplyPoint { apply_workers: w, shards, total_apply_us, override_bytes });
    }
    let bytes: Vec<u64> = points.iter().map(|p| p.override_bytes).collect();
    assert!(
        bytes.windows(2).all(|w| w[0] == w[1]),
        "override bytes must not depend on apply workers: {bytes:?}"
    );
    points
}

/// One measured point of the capacity sweep.
#[derive(Clone, Debug)]
pub struct CapacityPoint {
    /// Capacity label (`unlimited`, `tight`).
    pub label: String,
    /// The per-shard budget (`u64::MAX` = unlimited).
    pub max_resident_bytes: u64,
    /// Resident override bytes after the stream.
    pub override_bytes: u64,
    /// Largest per-shard resident chain.
    pub max_shard_resident: u64,
    /// Records whose payloads were spilled.
    pub spilled_records: usize,
    /// Spill re-fetch bytes charged by a historic-view engine pass.
    pub spill_refetch_bytes: u64,
}

/// Ingests `stream` under each capacity, then prices one
/// historic-bound BFS (arriving at the first snapshot) through the
/// engine so spilled records get re-fetched on their owning lanes.
pub fn capacity_sweep(
    base: &PartitionSet,
    stream: &[GraphDelta],
    shards: usize,
    caps: &[(&str, ShardCapacity)],
) -> Vec<CapacityPoint> {
    caps.iter()
        .map(|&(label, cap)| {
            let mut store = ShardedSnapshotStore::with_shards(base.clone(), shards)
                .with_compaction(CompactionPolicy::EveryK(8))
                .with_capacity(cap);
            for (i, d) in stream.iter().enumerate() {
                store.apply((i as u64 + 1) * 10, d).expect("stream applies");
            }
            let override_bytes = store.override_bytes();
            let max_shard_resident = (0..store.num_shards())
                .map(|s| store.shard_resident_bytes(s))
                .max()
                .unwrap_or(0);
            let spilled_records = (0..store.num_shards())
                .map(|s| store.shard(s).num_spilled())
                .sum();
            let store = Arc::new(store);
            let mut engine = Engine::new(Arc::clone(&store), EngineConfig::default());
            engine.submit_program_at(Bfs::new(0), 10);
            assert!(engine.run().completed);
            CapacityPoint {
                label: label.to_string(),
                max_resident_bytes: cap.max_resident_bytes,
                override_bytes,
                max_shard_resident,
                spilled_records,
                spill_refetch_bytes: engine.spill_fetch_bytes().iter().sum(),
            }
        })
        .collect()
}

/// Serializes the store sweeps as the machine-readable
/// `BENCH_store.json` tracked by CI (hand-rolled like its siblings:
/// the workspace is offline, no serde).
pub fn store_sweep_json(
    dataset: &str,
    scale_shrink: u32,
    placement: &[PlacementPoint],
    capacity: &[CapacityPoint],
    apply: &[ApplyPoint],
    gates: &[WallGate],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"dataset\": \"{dataset}\",\n"));
    s.push_str(&format!("  \"scale_shrink\": {scale_shrink},\n"));
    // Apply speedups are wall-clock: they only express themselves on
    // machines with real parallelism, so the row set records the cores.
    s.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    s.push_str("  \"placement\": [\n");
    for (i, p) in placement.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"placement\": \"{}\", \"loads\": {}, \"total_fetch_bytes\": {}, \
             \"cross_shard_fetch_bytes\": {}, \"cross_fraction\": {:.6}, \
             \"modeled_ms\": {:.6}, \"wall_ms\": {:.3}, \"wall_vs_modeled\": {:.4}, \
             \"workers\": {}}}{}\n",
            p.placement,
            p.loads,
            p.total_fetch_bytes,
            p.cross_shard_fetch_bytes,
            p.cross_fraction(),
            p.modeled_ms,
            p.wall_ms,
            p.wall_vs_modeled(),
            p.workers,
            if i + 1 < placement.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"capacity\": [\n");
    for (i, p) in capacity.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"label\": \"{}\", \"max_resident_bytes\": {}, \"override_bytes\": {}, \
             \"max_shard_resident\": {}, \"spilled_records\": {}, \
             \"spill_refetch_bytes\": {}}}{}\n",
            p.label,
            // `null` = unlimited: a numeric sentinel would read as a
            // zero-byte budget to trend tooling.
            if p.max_resident_bytes == u64::MAX {
                "null".to_string()
            } else {
                p.max_resident_bytes.to_string()
            },
            p.override_bytes,
            p.max_shard_resident,
            p.spilled_records,
            p.spill_refetch_bytes,
            if i + 1 < capacity.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"apply\": [\n");
    for (i, p) in apply.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"apply_workers\": {}, \"shards\": {}, \"total_apply_us\": {:.1}, \
             \"override_bytes\": {}}}{}\n",
            p.apply_workers,
            p.shards,
            p.total_apply_us,
            p.override_bytes,
            if i + 1 < apply.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&gates_json(gates));
    s.push_str("\n}\n");
    s
}

/// Prints an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:<w$}", c, w = widths[i]));
            } else {
                s.push_str(&format!("  {:>w$}", c, w = widths[i]));
            }
        }
        s
    };
    println!(
        "{}",
        line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Formats a ratio as `x.xx`.
pub fn fmt_ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats seconds as milliseconds.
pub fn fmt_ms(x: f64) -> String {
    format!("{:.2} ms", x * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_quick() {
        // from_args reads real argv; just check the constructor logic via
        // the documented default used when no flag is present.
        let s = Scale { shrink: 5 };
        let ps = partitions_for(Dataset::TwitterSim, s);
        assert!(ps.num_edges() > 0);
        assert!(ps.num_partitions() >= 16);
    }

    #[test]
    fn paper_mix_is_four_jobs() {
        let mix = paper_mix();
        assert_eq!(mix.len(), 4);
        assert_eq!(rotating_mix(8).len(), 8);
    }

    #[test]
    fn run_mix_produces_reports_for_all_engines() {
        let s = Scale { shrink: 7 };
        let ps = partitions_for(Dataset::TwitterSim, s);
        let h = hierarchy_for(Dataset::TwitterSim, &ps);
        let store = Arc::new(SnapshotStore::new(ps));
        for kind in [
            EngineKind::CGraph,
            EngineKind::CGraphWithout,
            EngineKind::Baseline(BaselinePreset::Seraph),
        ] {
            let out = run_engine(kind, &store, 2, h, &paper_mix());
            assert_eq!(out.jobs.len(), 4, "{}", kind.name());
            assert!(out.seconds > 0.0);
            for j in &out.jobs {
                assert!((0.0..=1.0).contains(&j.access_ratio), "{}", j.name);
            }
        }
    }

    #[test]
    fn sweep_measures_and_serializes() {
        let s = Scale { shrink: 7 };
        let ps = partitions_for(Dataset::TwitterSim, s);
        let h = out_of_core_hierarchy(&ps);
        assert!(
            h.memory_bytes < structure_bytes(&ps),
            "must stay out-of-core"
        );
        let store = Arc::new(SnapshotStore::new(ps));
        let grid = [(1, 1, 0, 0), (4, 4, 2, 0), (4, 4, 2, 2)];
        let points = wavefront_sweep(&store, 2, h, &paper_mix(), &grid);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.modeled_ms > 0.0 && p.loads > 0);
        }
        // The threaded-fetch row is transparent to everything but the
        // wall clock.
        assert_eq!(points[2].loads, points[1].loads);
        assert_eq!(
            points[2].modeled_ms.to_bits(),
            points[1].modeled_ms.to_bits()
        );
        let gate = WallGate::resolve("tracing-overhead", 1.5, 2.0, 2, true);
        assert_eq!(gate.status, "skipped-cores");
        assert!(!gate.enforced());
        assert!(WallGate::resolve("g", 1.5, 2.0, 8, true).enforced());
        assert_eq!(
            WallGate::resolve("g", 1.5, 2.0, 8, false).status,
            "skipped-scale"
        );
        let json = wavefront_sweep_json("twitter-sim", s.shrink, &points, &[gate]);
        assert!(json.contains("\"points\": ["));
        assert!(json.contains("\"prefetch_depth\": 2"));
        assert!(json.contains("\"io_workers\": 2"));
        assert!(json.contains("\"cores\": "));
        assert!(json.contains("\"gate\": \"tracing-overhead\""));
        assert!(json.contains("\"status\": \"skipped-cores\""));
        assert_eq!(json.matches("wavefront").count(), 3);
        assert!(!json.contains("},\n  ]"), "no trailing comma");
    }

    #[test]
    fn evolving_store_builds_snapshots() {
        let store = evolving_store(Dataset::TwitterSim, Scale { shrink: 7 }, 3, 0.001);
        assert_eq!(store.num_snapshots(), 3);
        let base = store.base_view();
        let latest = store.latest();
        assert!(base.shared_fraction(&latest) < 1.0);
    }
}
