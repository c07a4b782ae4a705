//! Unified charging of simulated-hierarchy traffic and compute.
//!
//! Every engine must do the same bookkeeping when it touches data: route
//! the access through the [`MemoryHierarchy`], attribute the (amortized)
//! traffic to the requesting job, and fold compute/sync operations into
//! both the global counters and the job's attributed metrics.  That code
//! was duplicated — with drift risk — between `Engine::load_and_trigger`,
//! `Engine::charge_push` and the baseline `StreamEngine`; it now lives
//! here once.

use cgraph_memsim::{
    AccessOutcome, CacheObject, HierarchyConfig, JobMetrics, MemoryHierarchy, Metrics,
};

use crate::engine::SyncStrategy;
use crate::job::{JobRuntime, ProcessStats, PushStats};

/// Owns the simulated hierarchy plus the per-job attributed metrics, and
/// exposes the only mutation paths engines use to charge work to them.
pub struct ChargeLedger {
    hierarchy: MemoryHierarchy,
    job_metrics: Vec<JobMetrics>,
    /// Disk → memory bytes charged through each shard's stage-one I/O
    /// lane (grown on demand; empty while no lane saw disk traffic).
    shard_fetch_bytes: Vec<u64>,
    /// Disk bytes re-fetched from (modeled) spill storage per lane — the
    /// capacity-eviction round-trips, a subset of `shard_fetch_bytes`.
    spill_fetch_bytes: Vec<u64>,
    /// Disk bytes re-fetched because the fault plane retried or rerouted
    /// a fetch — injected-failure round-trips, a subset of
    /// `shard_fetch_bytes` (disjoint from `spill_fetch_bytes`).
    retry_fetch_bytes: Vec<u64>,
}

/// Grows `lanes` as needed and adds `bytes` to lane `lane`.
fn bump_lane(lanes: &mut Vec<u64>, lane: usize, bytes: u64) {
    if lanes.len() <= lane {
        lanes.resize(lane + 1, 0);
    }
    lanes[lane] += bytes;
}

impl ChargeLedger {
    /// Creates a ledger over a fresh hierarchy with the given capacities.
    pub fn new(config: HierarchyConfig) -> Self {
        ChargeLedger {
            hierarchy: MemoryHierarchy::new(config),
            job_metrics: Vec::new(),
            shard_fetch_bytes: Vec::new(),
            spill_fetch_bytes: Vec::new(),
            retry_fetch_bytes: Vec::new(),
        }
    }

    /// Adds an attribution slot for a newly submitted job.
    pub fn register_job(&mut self) {
        self.job_metrics.push(JobMetrics::default());
    }

    /// Accesses `obj` (`bytes` big) on behalf of `job`: the transfer is
    /// simulated and, on a miss, the traffic is attributed to the job.
    pub fn charge_access(&mut self, job: usize, obj: CacheObject, bytes: u64) -> AccessOutcome {
        let outcome = self.hierarchy.access(obj, bytes);
        let jm = &mut self.job_metrics[job];
        jm.attributed_accesses += 1.0;
        if !outcome.cache_hit {
            jm.attributed_misses += 1.0;
            jm.attributed_bytes += bytes as f64;
        }
        outcome
    }

    /// [`charge_access`](Self::charge_access) through shard lane `shard`:
    /// any disk→memory traffic the access causes is additionally
    /// attributed to that stage-one I/O lane, giving the prefetch
    /// pipeline its per-shard fetch-utilization figure.
    pub fn charge_access_on(
        &mut self,
        shard: usize,
        job: usize,
        obj: CacheObject,
        bytes: u64,
    ) -> AccessOutcome {
        let outcome = self.charge_access(job, obj, bytes);
        if outcome.bytes_from_disk > 0 {
            bump_lane(&mut self.shard_fetch_bytes, shard, outcome.bytes_from_disk);
        }
        outcome
    }

    /// Charges a re-fetch of capacity-spilled snapshot state: `bytes`
    /// pulled back from (modeled) spill storage over shard lane `shard`
    /// on behalf of `job`.  Spill round-trips are disk traffic — they
    /// enter the global disk counter (and therefore the modeled fetch
    /// time), the job's attributed bytes, and the lane's fetch figure —
    /// and are additionally tracked in
    /// [`spill_fetch_bytes`](Self::spill_fetch_bytes) so eviction
    /// pricing stays separately observable.
    pub fn charge_spill_fetch(&mut self, shard: usize, job: usize, bytes: u64) {
        self.charge_refetch(shard, job, bytes);
        bump_lane(&mut self.spill_fetch_bytes, shard, bytes);
    }

    /// Charges the disk traffic of one fault-plane retry or breaker
    /// reroute: `bytes` re-read over shard lane `shard` on behalf of
    /// `job`.  Priced exactly like a spill re-fetch (disk counter, job
    /// attribution, lane figure) but tracked in
    /// [`retry_fetch_bytes`](Self::retry_fetch_bytes) so injected-failure
    /// pricing stays separately observable from eviction pricing.
    pub fn charge_retry_fetch(&mut self, shard: usize, job: usize, bytes: u64) {
        self.charge_refetch(shard, job, bytes);
        bump_lane(&mut self.retry_fetch_bytes, shard, bytes);
    }

    /// The pricing spill and retry re-fetches share: `bytes` of disk
    /// traffic on the global counter, the job's attribution, and shard
    /// lane `shard`.
    fn charge_refetch(&mut self, shard: usize, job: usize, bytes: u64) {
        self.hierarchy.metrics_mut().bytes_disk_to_mem += bytes;
        if let Some(jm) = self.job_metrics.get_mut(job) {
            jm.attributed_bytes += bytes as f64;
        }
        bump_lane(&mut self.shard_fetch_bytes, shard, bytes);
    }

    /// Disk bytes fetched per shard lane (index = shard id).  Shorter
    /// than the shard count when the tail lanes never saw disk traffic.
    pub fn shard_fetch_bytes(&self) -> &[u64] {
        &self.shard_fetch_bytes
    }

    /// Spill-storage re-fetch bytes per shard lane (a subset of
    /// [`shard_fetch_bytes`](Self::shard_fetch_bytes)).
    pub fn spill_fetch_bytes(&self) -> &[u64] {
        &self.spill_fetch_bytes
    }

    /// Fault-retry / breaker-reroute re-fetch bytes per shard lane (a
    /// subset of [`shard_fetch_bytes`](Self::shard_fetch_bytes)).
    pub fn retry_fetch_bytes(&self) -> &[u64] {
        &self.retry_fetch_bytes
    }

    /// Folds one Trigger pass's compute counts into the job's and the
    /// global counters.
    pub fn charge_compute(&mut self, job: usize, stats: ProcessStats) {
        let jm = &mut self.job_metrics[job];
        jm.vertex_ops += stats.vertex_ops;
        jm.edge_ops += stats.edge_ops;
        let m = self.hierarchy.metrics_mut();
        m.vertex_ops += stats.vertex_ops;
        m.edge_ops += stats.edge_ops;
    }

    /// Charges one Push stage: sync records plus one private-table access
    /// per touched partition (or one per record under
    /// [`SyncStrategy::Immediate`] — the paper's D4 ablation).
    pub fn charge_push(
        &mut self,
        job: usize,
        runtime: &dyn JobRuntime,
        stats: &PushStats,
        sync: SyncStrategy,
    ) {
        self.hierarchy.metrics_mut().sync_ops += stats.sync_records;
        self.job_metrics[job].sync_ops += stats.sync_records;
        let touched = stats
            .touched_master_parts
            .iter()
            .chain(stats.touched_mirror_parts.iter());
        for &(pid, records) in touched {
            let tbytes = runtime.private_table_bytes(pid);
            let times = match sync {
                SyncStrategy::BatchedSorted => 1,
                SyncStrategy::Immediate => records.max(1),
            };
            for _ in 0..times {
                self.charge_access(
                    job,
                    CacheObject::PrivateTable { job: job as u32, pid },
                    tbytes,
                );
            }
        }
    }

    /// Counts one completed iteration (Push stage) for the job.
    pub fn bump_iterations(&mut self, job: usize) {
        self.job_metrics[job].iterations += 1;
    }

    /// Pins `obj` in the cache tier for the duration of a slot.
    pub fn pin(&mut self, obj: &CacheObject) {
        self.hierarchy.pin(obj);
    }

    /// Releases one pin of `obj`.
    pub fn unpin(&mut self, obj: &CacheObject) {
        self.hierarchy.unpin(obj);
    }

    /// Drops a finished job's state from every simulated tier.
    pub fn evict_job(&mut self, job: u32) {
        self.hierarchy.evict_job(job);
    }

    /// Accumulated global counters.
    pub fn metrics(&self) -> &Metrics {
        self.hierarchy.metrics()
    }

    /// A job's attributed metrics (default if out of range).
    pub fn job_metrics(&self, job: usize) -> JobMetrics {
        self.job_metrics.get(job).copied().unwrap_or_default()
    }

    /// The underlying hierarchy (read-only, for inspection in tests).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> ChargeLedger {
        let mut l = ChargeLedger::new(HierarchyConfig { cache_bytes: 100, memory_bytes: 1000 });
        l.register_job();
        l.register_job();
        l
    }

    #[test]
    fn miss_attributes_bytes_hit_does_not() {
        let mut l = ledger();
        let obj = CacheObject::Structure { pid: 0, version: 0 };
        let first = l.charge_access(0, obj, 40);
        assert!(!first.cache_hit);
        let second = l.charge_access(1, obj, 40);
        assert!(second.cache_hit);
        assert_eq!(l.job_metrics(0).attributed_bytes, 40.0);
        assert_eq!(l.job_metrics(1).attributed_bytes, 0.0);
        assert_eq!(l.job_metrics(1).attributed_accesses, 1.0);
        assert_eq!(l.metrics().cache_accesses, 2);
        assert_eq!(l.metrics().cache_misses, 1);
    }

    #[test]
    fn compute_charges_job_and_global() {
        let mut l = ledger();
        l.charge_compute(1, ProcessStats { vertex_ops: 3, edge_ops: 7 });
        assert_eq!(l.job_metrics(1).vertex_ops, 3);
        assert_eq!(l.job_metrics(1).edge_ops, 7);
        assert_eq!(l.metrics().vertex_ops, 3);
        assert_eq!(l.metrics().edge_ops, 7);
        assert_eq!(l.job_metrics(0).vertex_ops, 0);
    }

    #[test]
    fn evict_job_clears_only_that_job() {
        let mut l = ledger();
        l.charge_access(0, CacheObject::PrivateTable { job: 0, pid: 1 }, 10);
        l.charge_access(1, CacheObject::PrivateTable { job: 1, pid: 1 }, 10);
        l.evict_job(0);
        let h = l.hierarchy();
        assert!(!h.in_cache(&CacheObject::PrivateTable { job: 0, pid: 1 }));
        assert!(h.in_cache(&CacheObject::PrivateTable { job: 1, pid: 1 }));
    }

    #[test]
    fn out_of_range_job_metrics_default() {
        let l = ledger();
        assert_eq!(l.job_metrics(99), JobMetrics::default());
    }

    #[test]
    fn spill_fetches_price_disk_and_stay_lane_attributed() {
        let mut l = ledger();
        let obj = CacheObject::Structure { pid: 0, version: 0 };
        l.charge_access_on(1, 0, obj, 40);
        let disk_before = l.metrics().bytes_disk_to_mem;
        l.charge_spill_fetch(1, 0, 25);
        // Spill re-fetches are disk traffic on the lane, attributed to
        // the job, and separately visible as spill bytes.
        assert_eq!(l.metrics().bytes_disk_to_mem, disk_before + 25);
        assert_eq!(l.shard_fetch_bytes()[1], 40 + 25);
        assert_eq!(l.spill_fetch_bytes(), &[0, 25]);
        assert_eq!(l.job_metrics(0).attributed_bytes, 65.0);
        // Cache counters untouched: a spill round-trip is not an access.
        assert_eq!(l.metrics().cache_accesses, 1);
    }

    #[test]
    fn shard_lanes_attribute_only_disk_traffic() {
        let mut l = ledger();
        let a = CacheObject::Structure { pid: 0, version: 0 };
        let b = CacheObject::Structure { pid: 1, version: 0 };
        // Cold: both go to disk, on different lanes.
        l.charge_access_on(0, 0, a, 40);
        l.charge_access_on(2, 0, b, 30);
        assert_eq!(l.shard_fetch_bytes(), &[40, 0, 30]);
        // Warm re-access on lane 2: cache hit, no disk, lane unchanged.
        l.charge_access_on(2, 1, a, 40);
        assert_eq!(l.shard_fetch_bytes(), &[40, 0, 30]);
        // Global metrics agree with the plain charging path.
        assert_eq!(l.metrics().bytes_disk_to_mem, 70);
    }
}
