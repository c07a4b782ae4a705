//! Incremental maintenance of the pending-slot map.
//!
//! The original engine re-derived the full `(partition, version) → jobs`
//! map from every job's pending set at the top of every round — O(jobs ×
//! partitions) work per partition load — and then resolved the
//! scheduler's pick with an O(n) ordered-map walk.  The planner instead
//! applies the semi-naive delta idea: the slot map changes only when a
//! job's pending set changes, which happens at exactly three points
//! (submit, a partition getting processed, a Push recomputing the active
//! set), so those events patch the map in place and a round costs only
//! O(slots) to describe to the scheduler.

use std::collections::BTreeMap;

use cgraph_graph::{PartitionId, VersionId};

use crate::job::JobRuntime;
use crate::scheduler::SlotInfo;

/// A loadable slot: one partition at one snapshot version.
pub type SlotKey = (PartitionId, VersionId);

/// Incrementally maintained map of pending slots to interested jobs.
///
/// Invariants mirrored from the legacy full rescan: slots are ordered by
/// `(partition, version)`, each slot's job list is ascending, and a slot
/// exists iff at least one live job has the partition pending.
#[derive(Default)]
pub struct SlotPlanner {
    slots: BTreeMap<SlotKey, Vec<usize>>,
    /// Per job: the slot keys it is currently registered under.
    job_slots: Vec<Vec<SlotKey>>,
    /// Sorted slot keys, rebuilt lazily after mutations, giving the
    /// scheduler's indices O(1) resolution (plus one map lookup).
    index: Vec<SlotKey>,
    index_dirty: bool,
}

impl SlotPlanner {
    /// An empty planner.
    pub fn new() -> Self {
        SlotPlanner::default()
    }

    /// Registers a newly submitted job.  `active` is false for jobs that
    /// converged at submission (they never contribute slots).
    pub fn track_job(&mut self, job: usize, runtime: &dyn JobRuntime, active: bool) {
        debug_assert_eq!(job, self.job_slots.len(), "jobs must be tracked in order");
        self.job_slots.push(Vec::new());
        if active {
            self.add_job_slots(job, runtime.pending_slots());
        }
    }

    /// Re-derives one job's slots after its pending set changed wholesale
    /// (a Push recomputed the active set).  A converged job simply ends
    /// up registered nowhere.
    pub fn refresh_job(&mut self, job: usize, runtime: &dyn JobRuntime) {
        self.remove_job_slots(job);
        self.add_job_slots(job, runtime.pending_slots());
    }

    /// Removes every registration of a finished job.
    pub fn retire_job(&mut self, job: usize) {
        self.remove_job_slots(job);
    }

    /// Records that `job` processed the partition of `key` this
    /// iteration: the job leaves that slot; the slot disappears when its
    /// last job leaves.
    pub fn note_processed(&mut self, job: usize, key: SlotKey) {
        if let Some(pos) = self.job_slots[job].iter().position(|&k| k == key) {
            self.job_slots[job].swap_remove(pos);
        }
        if let Some(jobs) = self.slots.get_mut(&key) {
            if let Ok(pos) = jobs.binary_search(&job) {
                jobs.remove(pos);
            }
            if jobs.is_empty() {
                self.slots.remove(&key);
            }
            self.index_dirty = true;
        }
    }

    /// Whether no slot is pending.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of pending slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// The slot at `idx` in `(partition, version)` order: its key and its
    /// interested jobs (ascending).  Indices come from the scheduler's
    /// plan over [`infos`](Self::infos).
    pub fn slot(&mut self, idx: usize) -> (SlotKey, &[usize]) {
        self.rebuild_index();
        let key = self.index[idx];
        (key, self.slots.get(&key).expect("indexed slot exists"))
    }

    /// Describes every pending slot to the scheduler, in key order —
    /// the same `SlotInfo` the legacy full rescan produced.  Each slot
    /// carries its partition's shard (its stage-one I/O lane) so the
    /// scheduler can interleave shards when priorities tie.
    pub fn infos(&mut self, runtimes: &[&dyn JobRuntime]) -> Vec<SlotInfo> {
        self.rebuild_index();
        self.slots
            .iter()
            .map(|(&(pid, version), jobs)| {
                let view = runtimes[jobs[0]].view();
                let part = view.partition(pid);
                let avg_change = jobs
                    .iter()
                    .map(|&j| runtimes[j].partition_change(pid))
                    .sum::<f64>()
                    / jobs.len() as f64;
                SlotInfo {
                    pid,
                    version,
                    shard: view.shard_of(pid),
                    num_jobs: jobs.len(),
                    avg_degree: part.avg_degree(),
                    avg_change,
                }
            })
            .collect()
    }

    fn add_job_slots(&mut self, job: usize, keys: Vec<SlotKey>) {
        for key in keys {
            let jobs = self.slots.entry(key).or_default();
            if let Err(pos) = jobs.binary_search(&job) {
                jobs.insert(pos, job);
            }
            self.job_slots[job].push(key);
        }
        self.index_dirty = true;
    }

    fn remove_job_slots(&mut self, job: usize) {
        let keys = std::mem::take(&mut self.job_slots[job]);
        for key in keys {
            if let Some(jobs) = self.slots.get_mut(&key) {
                if let Ok(pos) = jobs.binary_search(&job) {
                    jobs.remove(pos);
                }
                if jobs.is_empty() {
                    self.slots.remove(&key);
                }
            }
        }
        self.index_dirty = true;
    }

    fn rebuild_index(&mut self) {
        if self.index_dirty {
            self.index.clear();
            self.index.extend(self.slots.keys().copied());
            self.index_dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TypedJob;
    use crate::program::{VertexInfo, VertexProgram};
    use cgraph_graph::snapshot::SnapshotStore;
    use cgraph_graph::vertex_cut::VertexCutPartitioner;
    use cgraph_graph::{generate, Partitioner, Weight};
    use std::sync::Arc;

    struct Bfs;
    impl VertexProgram for Bfs {
        type Value = u32;
        fn init(&self, info: &VertexInfo) -> (u32, u32) {
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
        fn is_active(&self, value: &u32, delta: &u32) -> bool {
            delta < value
        }
        fn compute(&self, _i: &VertexInfo, value: u32, delta: u32) -> (u32, Option<u32>) {
            if delta < value {
                (delta, Some(delta))
            } else {
                (value, None)
            }
        }
        fn edge_contrib(&self, basis: u32, _w: Weight, _i: &VertexInfo) -> u32 {
            basis.saturating_add(1)
        }
    }

    fn job(n: u32, parts: usize) -> TypedJob<Bfs> {
        let el = generate::cycle(n);
        let ps = VertexCutPartitioner::new(parts).partition(&el);
        let store = Arc::new(SnapshotStore::with_shards(ps, 2));
        TypedJob::new(0, Bfs, store.base_view())
    }

    /// The planner's slot map must always equal a from-scratch rescan.
    fn assert_matches_rescan(planner: &mut SlotPlanner, runtimes: &[&dyn JobRuntime]) {
        let mut expect: BTreeMap<SlotKey, Vec<usize>> = BTreeMap::new();
        for (j, rt) in runtimes.iter().enumerate() {
            for key in rt.pending_slots() {
                expect.entry(key).or_default().push(j);
            }
        }
        assert_eq!(
            planner.slots, expect,
            "incremental map diverged from rescan"
        );
        planner.rebuild_index();
        let keys: Vec<SlotKey> = expect.keys().copied().collect();
        assert_eq!(planner.index, keys);
    }

    #[test]
    fn tracks_note_processed_and_refresh_incrementally() {
        let a = job(24, 4);
        let b = job(24, 4);
        let runtimes: Vec<&dyn JobRuntime> = vec![&a, &b];
        let mut p = SlotPlanner::new();
        p.track_job(0, runtimes[0], true);
        p.track_job(1, runtimes[1], true);
        assert_matches_rescan(&mut p, &runtimes);

        // Drive one full iteration of job a through the planner.
        for key in a.pending_slots() {
            a.process_chunk(key.0, 0, 1);
            a.mark_processed(key.0);
            p.note_processed(0, key);
            assert_matches_rescan(&mut p, &runtimes);
        }
        a.push_and_advance();
        p.refresh_job(0, runtimes[0]);
        assert_matches_rescan(&mut p, &runtimes);
        assert!(!p.is_empty(), "job b still pending");
    }

    #[test]
    fn retire_removes_all_registrations() {
        let a = job(16, 3);
        let runtimes: Vec<&dyn JobRuntime> = vec![&a];
        let mut p = SlotPlanner::new();
        p.track_job(0, runtimes[0], true);
        assert!(!p.is_empty());
        p.retire_job(0);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn infos_match_slot_order_and_job_counts() {
        let a = job(24, 4);
        let b = job(24, 4);
        let runtimes: Vec<&dyn JobRuntime> = vec![&a, &b];
        let mut p = SlotPlanner::new();
        p.track_job(0, runtimes[0], true);
        p.track_job(1, runtimes[1], true);
        let infos = p.infos(&runtimes);
        assert_eq!(infos.len(), p.len());
        for (i, info) in infos.iter().enumerate() {
            let (key, jobs) = p.slot(i);
            assert_eq!((info.pid, info.version), key);
            // Identical jobs on identical views: both pend everywhere,
            // listed ascending.
            assert_eq!(jobs, &[0, 1]);
            assert_eq!(info.num_jobs, jobs.len());
            assert_eq!(info.shard, info.pid as usize % 2, "round-robin lane");
        }
    }

    #[test]
    fn inactive_job_contributes_nothing() {
        let a = job(8, 2);
        let mut p = SlotPlanner::new();
        p.track_job(0, &a, false);
        assert!(p.is_empty());
        // Refresh after a (hypothetical) convergence keeps it empty.
        p.retire_job(0);
        assert!(p.is_empty());
    }
}
