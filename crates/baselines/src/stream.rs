//! The generic per-job streaming executor behind every baseline.

use std::sync::Arc;

use cgraph_core::exec::ChargeLedger;
use cgraph_core::job::{JobId, JobRuntime, TypedJob};
use cgraph_core::program::VertexProgram;
use cgraph_core::{RunReport, SyncStrategy};
use cgraph_graph::snapshot::SnapshotStore;
use cgraph_graph::{PartitionId, PartitionSet, VersionId};
use cgraph_memsim::{CacheObject, CostModel, HierarchyConfig, JobMetrics};

/// How many copies of the structure data exist across jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StructureSharing {
    /// Each job owns private copies (CLIP, Nxgraph): no residency is ever
    /// shared, in cache or memory.
    PerJob,
    /// One copy serves all jobs (Seraph): residency is shared, but each
    /// job still *accesses* it along its own order at its own time.
    SharedMemory,
}

/// How jobs take turns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interleave {
    /// Jobs run one after another to convergence (the paper's
    /// "sequential way", Fig. 2 denominator).
    Sequential,
    /// Jobs alternate partition-by-partition (concurrent execution with
    /// uncoordinated access orders — the interference regime of Fig. 2).
    RoundRobin,
}

/// Configuration of a [`StreamEngine`].
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Modeled trigger-stage cores: the compute divisor (no thread is
    /// started).
    pub workers: usize,
    /// Simulated tier capacities.
    pub hierarchy: HierarchyConfig,
    /// Cost model for modeled time.
    pub cost: CostModel,
    /// Structure-copy discipline.
    pub sharing: StructureSharing,
    /// `true` = incremental snapshot versions (Seraph-VT / CGraph style);
    /// `false` = every snapshot is a full new copy (plain Seraph).
    pub incremental_versions: bool,
    /// CLIP-style data re-entry rounds per loaded partition (0 = off).
    pub reentry: u64,
    /// Job turn-taking.
    pub interleave: Interleave,
    /// Safety valve on partition loads.
    pub max_loads: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            workers: 4,
            hierarchy: HierarchyConfig::default(),
            cost: CostModel::default(),
            sharing: StructureSharing::SharedMemory,
            incremental_versions: true,
            reentry: 0,
            interleave: Interleave::RoundRobin,
            max_loads: u64::MAX,
        }
    }
}

struct JobEntry {
    runtime: Box<dyn JobRuntime>,
    done: bool,
    /// Rotation offset: this job starts each iteration's sweep here,
    /// modeling "different jobs traverse along different graph paths".
    offset: PartitionId,
}

/// A per-job streaming engine: loads partitions for one job at a time.
pub struct StreamEngine {
    config: StreamConfig,
    store: Arc<SnapshotStore>,
    /// Shared charging/attribution layer (same one the CGraph engine
    /// uses), so the engines differ only in *when and for whom* they
    /// request data — never in how work is accounted.
    ledger: ChargeLedger,
    jobs: Vec<JobEntry>,
    loads: u64,
}

impl StreamEngine {
    /// Creates an engine over a snapshot store.
    pub fn new(store: Arc<SnapshotStore>, config: StreamConfig) -> Self {
        StreamEngine {
            config,
            store,
            ledger: ChargeLedger::new(config.hierarchy),
            jobs: Vec::new(),
            loads: 0,
        }
    }

    /// Convenience constructor for a static graph.
    pub fn from_partitions(parts: PartitionSet, config: StreamConfig) -> Self {
        StreamEngine::new(Arc::new(SnapshotStore::new(parts)), config)
    }

    /// Submits a job bound to the newest snapshot.
    pub fn submit<P: VertexProgram>(&mut self, program: P) -> JobId {
        let ts = self.store.latest_timestamp();
        self.submit_at(program, ts)
    }

    /// Submits a job arriving at `ts` (binds the newest snapshot ≤ `ts`).
    pub fn submit_at<P: VertexProgram>(&mut self, program: P, ts: u64) -> JobId {
        let id = self.jobs.len() as JobId;
        let view = self.store.view_at(ts);
        let np = view.num_partitions() as PartitionId;
        let runtime = TypedJob::new(id, program, view);
        let done = runtime.is_converged();
        // Stagger starting points so concurrent jobs traverse "along
        // different graph paths" like real uncoordinated engines.
        let offset = if np == 0 {
            0
        } else {
            id.wrapping_mul(np / 4 + 1) % np
        };
        self.jobs
            .push(JobEntry { runtime: Box::new(runtime), done, offset });
        self.ledger.register_job();
        id
    }

    /// The version component of a structure cache key for job `j`'s view
    /// of `pid`: incremental versions share unchanged partitions across
    /// snapshots; full-copy mode never shares across snapshots.
    fn effective_version(&self, j: usize, pid: PartitionId) -> VersionId {
        let view = self.jobs[j].runtime.view();
        if self.config.incremental_versions {
            view.version_of(pid)
        } else {
            // Fold the snapshot timestamp in so two snapshots never alias.
            (view.timestamp() as VersionId).wrapping_mul(0x9E37_79B9)
        }
    }

    fn structure_key(&self, j: usize, pid: PartitionId) -> CacheObject {
        let version = self.effective_version(j, pid);
        match self.config.sharing {
            StructureSharing::PerJob => CacheObject::JobStructure { job: j as u32, pid, version },
            StructureSharing::SharedMemory => CacheObject::Structure { pid, version },
        }
    }

    /// The job's next pending partition in *its own* rotated order.
    fn next_partition(&self, j: usize) -> Option<PartitionId> {
        let pending = self.jobs[j].runtime.pending();
        if pending.is_empty() {
            return None;
        }
        let off = self.jobs[j].offset;
        pending
            .iter()
            .copied()
            .find(|&p| p >= off)
            .or_else(|| pending.first().copied())
    }

    /// Loads and processes one partition for one job; pushes if the job's
    /// iteration completed.  Returns `false` if the job had nothing to do.
    fn step_job(&mut self, j: usize) -> bool {
        if self.jobs[j].done {
            return false;
        }
        if self.jobs[j].runtime.is_converged() {
            self.finish_job(j);
            return false;
        }
        let Some(pid) = self.next_partition(j) else {
            return false;
        };

        // Load structure + private table through the shared ledger,
        // reading through the sharded store API: the partition resolves
        // across shard chains transparently and any disk fetch is
        // attributed to the owning shard's I/O lane, so baseline traffic
        // is directly comparable with the CGraph engine's per-lane
        // figures.
        let lane = self.store.shard_of(pid);
        let skey = self.structure_key(j, pid);
        let sbytes = self.jobs[j].runtime.view().partition(pid).structure_bytes();
        let outcome = self.ledger.charge_access_on(lane, j, skey, sbytes);
        // Capacity-spilled snapshot state: when the fetch actually
        // reaches disk and this view resolves the partition through a
        // record the store evicted, the load pays one re-fetch from
        // (modeled) spill storage on the owning lane — the same pricing
        // the CGraph engine applies; cache-resident structures never pay.
        if outcome.bytes_from_disk > 0 && self.jobs[j].runtime.view().partition_spilled(pid) {
            self.ledger.charge_spill_fetch(lane, j, sbytes);
        }
        let tbytes = self.jobs[j].runtime.private_table_bytes(pid);
        self.ledger.charge_access_on(
            lane,
            j,
            CacheObject::PrivateTable { job: j as u32, pid },
            tbytes,
        );

        // Trigger: this job over the whole partition, in place.
        let mut s = self.jobs[j].runtime.process_chunk(pid, 0, 1);
        self.jobs[j].runtime.mark_processed(pid);

        // CLIP-style re-entry while the partition is still resident.
        if self.config.reentry > 0 {
            s += self.jobs[j]
                .runtime
                .reenter_partition(pid, self.config.reentry);
        }

        self.ledger.charge_compute(j, s);

        if self.jobs[j].runtime.iteration_complete() {
            let stats = self.jobs[j].runtime.push_and_advance();
            // Baselines always batch their push records per partition
            // (one private-table touch each), i.e. BatchedSorted charging.
            let runtime = &*self.jobs[j].runtime;
            self.ledger
                .charge_push(j, runtime, &stats, SyncStrategy::BatchedSorted);
            self.ledger.bump_iterations(j);
            if stats.converged {
                self.finish_job(j);
            }
        }
        self.loads += 1;
        true
    }

    fn finish_job(&mut self, j: usize) {
        if !self.jobs[j].done {
            self.jobs[j].done = true;
            self.ledger.evict_job(j as u32);
        }
    }

    /// Runs all submitted jobs to convergence.
    pub fn run(&mut self) -> RunReport {
        let start_metrics = *self.ledger.metrics();
        let start_loads = self.loads;
        let mut completed = true;
        'outer: loop {
            let mut progressed = false;
            match self.config.interleave {
                Interleave::Sequential => {
                    for j in 0..self.jobs.len() {
                        while !self.jobs[j].done {
                            if self.loads - start_loads >= self.config.max_loads {
                                completed = false;
                                break 'outer;
                            }
                            if !self.step_job(j) {
                                break;
                            }
                            progressed = true;
                        }
                    }
                }
                Interleave::RoundRobin => {
                    for j in 0..self.jobs.len() {
                        if self.loads - start_loads >= self.config.max_loads {
                            completed = false;
                            break 'outer;
                        }
                        progressed |= self.step_job(j);
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        let metrics = self.ledger.metrics().since(&start_metrics);
        RunReport {
            loads: self.loads - start_loads,
            metrics,
            modeled_seconds: self
                .config
                .cost
                .total_seconds(&metrics, self.config.workers),
            completed,
        }
    }

    /// Typed results (same contract as [`cgraph_core::Engine::results`]).
    pub fn results<P: VertexProgram>(&self, job: JobId) -> Option<Vec<P::Value>> {
        let entry = self.jobs.get(job as usize)?;
        entry
            .runtime
            .as_any()
            .downcast_ref::<TypedJob<P>>()
            .map(|t| t.extract())
    }

    /// Global counters.
    pub fn metrics(&self) -> &cgraph_memsim::Metrics {
        self.ledger.metrics()
    }

    /// Per-job attributed metrics.
    pub fn job_metrics(&self, job: JobId) -> JobMetrics {
        self.ledger.job_metrics(job as usize)
    }

    /// Disk bytes fetched through each snapshot-store shard's I/O lane.
    pub fn shard_fetch_bytes(&self) -> &[u64] {
        self.ledger.shard_fetch_bytes()
    }

    /// Spill-storage re-fetch bytes per lane (capacity-eviction
    /// round-trips, a subset of the lane fetch figures).
    pub fn spill_fetch_bytes(&self) -> &[u64] {
        self.ledger.spill_fetch_bytes()
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The snapshot store.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// Number of submitted jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Modeled makespan so far.
    pub fn modeled_seconds(&self) -> f64 {
        self.config
            .cost
            .total_seconds(self.ledger.metrics(), self.config.workers)
    }

    /// Modeled CPU utilization so far.
    pub fn utilization(&self) -> f64 {
        self.config
            .cost
            .utilization(self.ledger.metrics(), self.config.workers)
    }
}

impl cgraph_core::JobEngine for StreamEngine {
    fn submit_program<P: VertexProgram>(&mut self, program: P) -> JobId {
        self.submit(program)
    }

    fn submit_program_at<P: VertexProgram>(&mut self, program: P, ts: u64) -> JobId {
        self.submit_at(program, ts)
    }

    fn run_jobs(&mut self) -> RunReport {
        self.run()
    }

    fn typed_results<P: VertexProgram>(&self, job: JobId) -> Option<Vec<P::Value>> {
        self.results::<P>(job)
    }

    fn job_metrics_of(&self, job: JobId) -> JobMetrics {
        self.job_metrics(job)
    }

    fn global_metrics(&self) -> cgraph_memsim::Metrics {
        *self.metrics()
    }

    fn cost(&self) -> CostModel {
        self.config.cost
    }

    fn workers(&self) -> usize {
        self.config.workers
    }

    fn is_concurrent(&self) -> bool {
        self.config.interleave == Interleave::RoundRobin
    }

    fn snapshot_store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgraph_graph::vertex_cut::VertexCutPartitioner;
    use cgraph_graph::{generate, Partitioner};

    // A tiny local BFS program to avoid a dev-dependency cycle with
    // cgraph-algos (which already dev-depends on this crate's presets).
    struct Bfs;
    impl VertexProgram for Bfs {
        type Value = u32;
        fn init(&self, info: &cgraph_core::VertexInfo) -> (u32, u32) {
            if info.vid == 0 {
                (u32::MAX, 0)
            } else {
                (u32::MAX, u32::MAX)
            }
        }
        fn identity(&self) -> u32 {
            u32::MAX
        }
        fn acc(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn is_active(&self, v: &u32, d: &u32) -> bool {
            d < v
        }
        fn compute(&self, _i: &cgraph_core::VertexInfo, v: u32, d: u32) -> (u32, Option<u32>) {
            if d < v {
                (d, Some(d))
            } else {
                (v, None)
            }
        }
        fn edge_contrib(&self, b: u32, _w: f32, _i: &cgraph_core::VertexInfo) -> u32 {
            b.saturating_add(1)
        }
    }

    fn engine(cfg: StreamConfig) -> StreamEngine {
        let el = generate::cycle(32);
        let ps = VertexCutPartitioner::new(8).partition(&el);
        StreamEngine::from_partitions(ps, cfg)
    }

    #[test]
    fn sequential_converges_correctly() {
        let mut e =
            engine(StreamConfig { interleave: Interleave::Sequential, ..StreamConfig::default() });
        let j = e.submit(Bfs);
        assert!(e.run().completed);
        let d = e.results::<Bfs>(j).unwrap();
        assert_eq!(d[5], 5);
        assert_eq!(d[31], 31);
    }

    #[test]
    fn round_robin_converges_correctly() {
        let mut e = engine(StreamConfig::default());
        let a = e.submit(Bfs);
        let b = e.submit(Bfs);
        assert!(e.run().completed);
        assert_eq!(e.results::<Bfs>(a).unwrap(), e.results::<Bfs>(b).unwrap());
    }

    #[test]
    fn reentry_reduces_loads() {
        let mut plain = engine(StreamConfig::default());
        let j = plain.submit(Bfs);
        let r_plain = plain.run();
        let mut clip = engine(StreamConfig { reentry: 64, ..StreamConfig::default() });
        let j2 = clip.submit(Bfs);
        let r_clip = clip.run();
        assert_eq!(
            plain.results::<Bfs>(j).unwrap(),
            clip.results::<Bfs>(j2).unwrap()
        );
        assert!(
            r_clip.loads < r_plain.loads,
            "re-entry {} vs plain {}",
            r_clip.loads,
            r_plain.loads
        );
    }

    #[test]
    fn per_job_sharing_doubles_disk_traffic() {
        let mk = |sharing| {
            let mut e = engine(StreamConfig { sharing, ..StreamConfig::default() });
            e.submit(Bfs);
            e.submit(Bfs);
            e.run().metrics
        };
        let shared = mk(StructureSharing::SharedMemory);
        let private = mk(StructureSharing::PerJob);
        assert!(
            private.bytes_disk_to_mem > shared.bytes_disk_to_mem,
            "private {} vs shared {}",
            private.bytes_disk_to_mem,
            shared.bytes_disk_to_mem
        );
    }

    #[test]
    fn max_loads_stops_early() {
        let mut e = engine(StreamConfig { max_loads: 3, ..StreamConfig::default() });
        e.submit(Bfs);
        let r = e.run();
        assert!(!r.completed);
        assert!(r.loads <= 3);
    }

    /// The sharded store is transparent to a streaming baseline: same
    /// results and identical global counters at any shard count (only
    /// the per-lane attribution of disk fetches differs).
    #[test]
    fn sharded_store_reads_transparently() {
        let run = |shards: usize| {
            let el = generate::cycle(32);
            let ps = VertexCutPartitioner::new(8).partition(&el);
            let store = std::sync::Arc::new(SnapshotStore::with_shards(ps, shards));
            let mut e = StreamEngine::new(store, StreamConfig::default());
            let j = e.submit(Bfs);
            let report = e.run();
            assert!(report.completed);
            (
                e.results::<Bfs>(j).unwrap(),
                report.metrics,
                e.shard_fetch_bytes().to_vec(),
            )
        };
        let (res1, m1, lanes1) = run(1);
        let (res4, m4, lanes4) = run(4);
        assert_eq!(res1, res4);
        assert_eq!(m1, m4, "global counters must not depend on sharding");
        assert_eq!(lanes1.iter().sum::<u64>(), lanes4.iter().sum::<u64>());
        assert!(lanes1.len() <= 1, "one lane when unsharded");
        assert!(
            lanes4.iter().filter(|&&b| b > 0).count() > 1,
            "disk fetches must spread across shard lanes: {lanes4:?}"
        );
    }

    #[test]
    fn job_offsets_differ() {
        let mut e = engine(StreamConfig::default());
        e.submit(Bfs);
        e.submit(Bfs);
        e.submit(Bfs);
        // Offsets rotate; at least one job must not start at partition 0.
        assert!(e.jobs.iter().any(|j| j.offset != 0));
    }
}
