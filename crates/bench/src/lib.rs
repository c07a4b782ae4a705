//! Figure/table harness and shared workload generators.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§4).  This library holds what they share —
//! dataset construction, simulated-hierarchy sizing, the engine zoo, the
//! four-job benchmark mix (PageRank, SSSP, SCC, BFS), table printing —
//! and the workload generators the integration suites under `tests/`
//! reuse (wavefront runs, evolving stores, ingest streams).  Wall-clock
//! measurement lives in `benchmark/`; behaviour is asserted under
//! `tests/`.
//!
//! All binaries accept `--full` (paper-scale graphs, slower) or `--tiny`
//! (smoke-test scale); the default is a quick scale that preserves every
//! qualitative trend.

use std::sync::Arc;

use cgraph_algos::{Bfs, PageRank, SccDriver, Sssp};
use cgraph_baselines::BaselinePreset;
use cgraph_core::{Engine, EngineConfig, JobEngine, JobId, SchedulerKind};
use cgraph_graph::generate::Dataset;
use cgraph_graph::snapshot::{CompactionPolicy, GraphDelta, SnapshotStore};
use cgraph_graph::vertex_cut::VertexCutPartitioner;
use cgraph_graph::{Edge, EdgeList, PartitionSet, Partitioner};
use cgraph_memsim::{HierarchyConfig, JobMetrics, Metrics};

pub use cgraph_algos::BenchmarkJob;

/// Experiment scale parsed from the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Subtracted from each dataset's R-MAT scale exponent.
    pub shrink: u32,
}

impl Scale {
    /// Parses the arguments after the program name: nothing (the quick
    /// default), `--full`, or `--tiny`.  Anything else — an unknown flag,
    /// a repeated or contradictory one — is an error, so a typo never
    /// silently runs some other scale for minutes.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Scale, String> {
        let mut scale = None;
        for arg in args {
            let shrink = match arg.as_ref() {
                "--full" => 2,
                "--tiny" => 7,
                other => return Err(format!("unknown argument `{other}`")),
            };
            if scale.replace(Scale { shrink }).is_some() {
                return Err("more than one scale flag".to_string());
            }
        }
        Ok(scale.unwrap_or(Scale { shrink: 5 }))
    }

    /// [`Scale::parse`] over `std::env::args`; on an error prints the
    /// usage line to stderr and exits with status 2.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Scale::parse(&args).unwrap_or_else(|err| {
            eprintln!("{err}; usage: [--full | --tiny]");
            std::process::exit(2)
        })
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
/// linear figure — the pair is the k-sweep comparison
/// `tests/wavefront.rs` asserts.
pub fn run_wavefront(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    width: usize,
    mix: &[(BenchmarkJob, u64)],
) -> cgraph_core::RunReport {
    run_wavefront_cfg(store, workers, hierarchy, width, 0, mix)
}

/// [`run_wavefront`] with a `depth`-slot prefetch window over the
/// store's shards as stage-one I/O lanes (build the store
/// `with_shards` to get lanes).  At `depth = 0` this is exactly
/// [`run_wavefront`].
pub fn run_wavefront_cfg(
    store: &Arc<SnapshotStore>,
    workers: usize,
    hierarchy: HierarchyConfig,
    width: usize,
    depth: usize,
    mix: &[(BenchmarkJob, u64)],
) -> cgraph_core::RunReport {
    let mut engine = Engine::new(
        Arc::clone(store),
        EngineConfig {
            workers,
            hierarchy,
            wavefront: width,
            prefetch_depth: depth,
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

/// A deterministic ingest stream for the O(Δ) snapshot-chain tests.
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
/// stream shape a concurrent `apply` fans out over.
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

/// One sampled point of an ingest run: state after `chain_len` deltas.
#[derive(Clone, Debug)]
pub struct IngestPoint {
    /// Deltas applied so far.
    pub chain_len: usize,
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
    let mut store = SnapshotStore::new(base.clone()).with_compaction(policy);
    let np = base.num_partitions() as u32;
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
            points.push(IngestPoint { chain_len: i + 1, override_bytes, latest_lookup_ns });
        }
    }
    IngestRun { policy: policy_label.to_string(), points, apply_us }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_quick() {
        let s = Scale::parse::<&str>(&[]).expect("no flag is the quick default");
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
    fn scale_parse_accepts_one_flag_and_rejects_the_rest() {
        assert_eq!(Scale::parse::<&str>(&[]), Ok(Scale { shrink: 5 }));
        assert_eq!(Scale::parse(&["--full"]), Ok(Scale { shrink: 2 }));
        assert_eq!(Scale::parse(&["--tiny"]), Ok(Scale { shrink: 7 }));
        for bad in [
            &["--tinny"][..],
            &["--out", "x"],
            &["--tiny", "--out"],
            &["--full", "--tiny"],
            &["--tiny", "--tiny"],
            &[""],
        ] {
            assert!(Scale::parse(bad).is_err(), "{bad:?} must be rejected");
        }
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
