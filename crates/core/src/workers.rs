//! Trigger-stage chunk planning, plus a one-shot scoped drain.
//!
//! For each loaded partition an engine builds one chunk-task per (job,
//! chunk) pair.  Straggler splitting (paper §3.2.3, Fig. 6) falls out of
//! the task list: the job with the most unprocessed vertices contributes
//! more chunks, so free cores naturally assist it.
//!
//! [`crate::Engine`] hands the planned chunks to its persistent trigger
//! workers ([`crate::exec::crew`]); [`run_chunk_tasks`] is the
//! self-contained drain for engines without a crew — the streaming
//! baseline the tests compare against.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use cgraph_graph::PartitionId;

use crate::job::{JobRuntime, ProcessStats};

/// One unit of trigger work: chunk `chunk` of `nchunks` of partition `pid`
/// for the job at `job_slot` (an index into the batch's job list).
#[derive(Clone, Copy, Debug)]
pub struct ChunkTask {
    /// Index into the job slice handed to [`run_chunk_tasks`].
    pub job_slot: usize,
    /// Partition to process.
    pub pid: PartitionId,
    /// Chunk index.
    pub chunk: usize,
    /// Total chunks this job's partition was split into.
    pub nchunks: usize,
}

/// Executes the tasks on up to `workers` threads and returns per-job-slot
/// accumulated compute statistics.
pub fn run_chunk_tasks(
    workers: usize,
    jobs: &[&dyn JobRuntime],
    tasks: &[ChunkTask],
) -> Vec<ProcessStats> {
    let mut totals = vec![ProcessStats::default(); jobs.len()];
    if tasks.is_empty() {
        return totals;
    }
    let threads = workers.max(1).min(tasks.len());
    if threads == 1 {
        for t in tasks {
            let s = jobs[t.job_slot].process_chunk(t.pid, t.chunk, t.nchunks);
            totals[t.job_slot].vertex_ops += s.vertex_ops;
            totals[t.job_slot].edge_ops += s.edge_ops;
        }
        return totals;
    }

    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, ProcessStats)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local: Vec<(usize, ProcessStats)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks.len() {
                        break;
                    }
                    let t = tasks[i];
                    let s = jobs[t.job_slot].process_chunk(t.pid, t.chunk, t.nchunks);
                    local.push((t.job_slot, s));
                }
                collected.lock().extend(local);
            });
        }
    });
    for (slot, s) in collected.into_inner() {
        totals[slot].vertex_ops += s.vertex_ops;
        totals[slot].edge_ops += s.edge_ops;
    }
    totals
}

/// Builds the chunk-task list for one batch of jobs processing `pid`.
///
/// Every job gets one chunk; when `straggler_split` is on and cores remain
/// (`budget > jobs`), the job with the most unprocessed vertices is divided
/// into the leftover chunks.
pub fn plan_chunks(
    pid: PartitionId,
    unprocessed: &[u64],
    budget: usize,
    straggler_split: bool,
) -> Vec<ChunkTask> {
    let mut tasks = Vec::new();
    plan_chunks_into(pid, unprocessed, budget, straggler_split, &mut tasks);
    tasks
}

/// [`plan_chunks`] into a caller-owned buffer (cleared first), so hot
/// loops can recycle the task vector across batches and rounds.
pub fn plan_chunks_into(
    pid: PartitionId,
    unprocessed: &[u64],
    budget: usize,
    straggler_split: bool,
    tasks: &mut Vec<ChunkTask>,
) {
    tasks.clear();
    let njobs = unprocessed.len();
    if njobs == 0 {
        return;
    }
    let mut straggler = usize::MAX;
    let mut extra = 0;
    if straggler_split && budget > njobs {
        straggler = unprocessed
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(i, _)| i)
            .expect("non-empty batch");
        extra = budget - njobs;
    }
    for slot in 0..njobs {
        let n = if slot == straggler { 1 + extra } else { 1 };
        for chunk in 0..n {
            tasks.push(ChunkTask { job_slot: slot, pid, chunk, nchunks: n });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_without_split_gives_one_chunk_each() {
        let tasks = plan_chunks(0, &[10, 20, 5], 8, false);
        assert_eq!(tasks.len(), 3);
        assert!(tasks.iter().all(|t| t.nchunks == 1));
    }

    #[test]
    fn plan_with_split_boosts_straggler() {
        let tasks = plan_chunks(0, &[10, 100, 5], 6, true);
        // Job 1 is the straggler: 1 + (6 - 3) = 4 chunks.
        let straggler_chunks = tasks.iter().filter(|t| t.job_slot == 1).count();
        assert_eq!(straggler_chunks, 4);
        assert_eq!(tasks.len(), 6);
    }

    #[test]
    fn plan_with_no_spare_budget_is_plain() {
        let tasks = plan_chunks(0, &[10, 100], 2, true);
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().all(|t| t.nchunks == 1));
    }

    #[test]
    fn chunk_indices_cover_range() {
        let tasks = plan_chunks(3, &[50], 4, true);
        let mut chunks: Vec<usize> = tasks.iter().map(|t| t.chunk).collect();
        chunks.sort_unstable();
        assert_eq!(chunks, vec![0, 1, 2, 3]);
        assert!(tasks.iter().all(|t| t.pid == 3 && t.nchunks == 4));
    }
}
