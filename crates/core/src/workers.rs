//! The Trigger stage: chunk planning plus the one drain every engine runs
//! its chunk tasks through.
//!
//! For each loaded partition an engine builds one chunk task per (job,
//! chunk) pair.  Straggler splitting (paper §3.2.3, Fig. 6) falls out of
//! the task list: the job with the most unprocessed vertices contributes
//! more chunks, so the modeled free cores assist it.
//!
//! [`TriggerDrain::run`] executes one task list — a round of
//! [`crate::Engine`], or one load of the streaming baseline — on the
//! calling thread, in task order.  It starts no thread: paired against
//! the same drain fanned out over host-sized scoped helpers on a 2-CPU
//! host, the helpers won no benchmark workload, including the one whose
//! rounds mostly took them.  `EngineConfig::workers` is the *modeled*
//! core count: it divides the compute cost, batches installs and budgets
//! chunks, and never sizes a thread.
//!
//! Chunk stats fold into per-entry `u64` totals; engines convert them to
//! `f64` afterwards, in entry order.
//!
//! # Failure
//!
//! A panic inside `process_chunk` (user code, or the fault plane's
//! injected drill) must not unwind through the engine: the drain catches
//! it and returns [`ExecError::WorkerPanic`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cgraph_graph::PartitionId;

use crate::fault::FaultPlane;
use crate::job::{JobRuntime, ProcessStats};
use crate::obs::{EventKind, Observer, Recorder};

/// An executor failure: a trigger chunk panicked (user code).  Surfaced
/// by [`crate::Engine::exec_error`], never a panic on the calling thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A trigger chunk panicked; the label says where.
    WorkerPanic(&'static str),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::WorkerPanic(what) => write!(f, "executor worker panicked: {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The label of every trigger-chunk panic.
const CHUNK_PANIC: &str = "process_chunk panicked in a trigger worker";

/// One unit of trigger work: chunk `chunk` of `nchunks` of partition
/// `pid` for job `job`, whose stats fold into entry `entry` of a drain's
/// totals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkTask {
    /// Index into the drain's per-entry totals.
    pub entry: usize,
    /// The job, as the drain's lookup resolves it.
    pub job: usize,
    /// Partition to process.
    pub pid: PartitionId,
    /// Chunk index.
    pub chunk: usize,
    /// Total chunks this job's partition was split into.
    pub nchunks: usize,
}

/// Appends the chunk tasks of one batch of jobs processing `pid`:
/// `jobs[i]`, with `unprocessed[i]` unprocessed vertices, folds into
/// entry `first_entry + i`.
///
/// Every job gets one chunk; when cores remain (`budget > jobs`), the
/// job with the most unprocessed vertices is divided into the leftover
/// chunks.
pub fn plan_chunks(
    pid: PartitionId,
    jobs: &[usize],
    unprocessed: &[u64],
    first_entry: usize,
    budget: usize,
    tasks: &mut Vec<ChunkTask>,
) {
    debug_assert_eq!(jobs.len(), unprocessed.len());
    let straggler = unprocessed
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i);
    let extra = budget.saturating_sub(jobs.len());
    for (slot, &job) in jobs.iter().enumerate() {
        let nchunks = if Some(slot) == straggler {
            1 + extra
        } else {
            1
        };
        for chunk in 0..nchunks {
            tasks.push(ChunkTask { entry: first_entry + slot, job, pid, chunk, nchunks });
        }
    }
}

/// One engine's trigger drain: the fault drill it honours and the
/// `cgraph-trigger` ring its chunk spans go to.
pub struct TriggerDrain {
    rec: Recorder,
    faults: Option<Arc<FaultPlane>>,
}

impl TriggerDrain {
    /// A drain recording chunk spans into `obs`, panicking on the chunk
    /// `faults` (if any) schedules a panic for.
    pub fn new(obs: &Observer, faults: Option<Arc<FaultPlane>>) -> Self {
        TriggerDrain { rec: obs.recorder("cgraph-trigger"), faults }
    }

    /// Runs every task once, in order, adding its stats into
    /// `totals[task.entry]`.  `job` resolves a task's job; `round` stamps
    /// the chunk spans.
    pub fn run<'j>(
        &self,
        tasks: &[ChunkTask],
        round: u32,
        job: impl Fn(usize) -> &'j dyn JobRuntime,
        totals: &mut [ProcessStats],
    ) -> Result<(), ExecError> {
        let faults = self.faults.as_deref();
        catch_unwind(AssertUnwindSafe(|| {
            for task in tasks {
                // The injected worker-death drill panics exactly where
                // crashing user code would.
                assert!(
                    !faults.is_some_and(|plane| plane.should_panic_chunk(task.pid, task.chunk)),
                    "injected fault-plane chunk panic"
                );
                let runtime = job(task.job);
                let t0 = self.rec.start();
                totals[task.entry] += runtime.process_chunk(task.pid, task.chunk, task.nchunks);
                self.rec.complete(
                    EventKind::TriggerChunk,
                    runtime.id(),
                    task.pid,
                    round,
                    t0,
                    task.chunk as u64,
                );
            }
        }))
        .map_err(|_| ExecError::WorkerPanic(CHUNK_PANIC))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, PushStats};
    use cgraph_graph::GraphView;

    /// One batch of jobs `0..n`, entries `0..n`.
    fn plan(pid: PartitionId, unprocessed: &[u64], budget: usize) -> Vec<ChunkTask> {
        let jobs: Vec<usize> = (0..unprocessed.len()).collect();
        let mut tasks = Vec::new();
        plan_chunks(pid, &jobs, unprocessed, 0, budget, &mut tasks);
        tasks
    }

    #[test]
    fn plan_without_split_gives_one_chunk_each() {
        // A budget below the batch still gives every job its one chunk.
        let tasks = plan(0, &[10, 20, 5], 1);
        assert_eq!(tasks.len(), 3);
        assert!(tasks.iter().all(|t| t.nchunks == 1));
    }

    #[test]
    fn plan_with_split_boosts_straggler() {
        let tasks = plan(0, &[10, 100, 5], 6);
        // Job 1 is the straggler: 1 + (6 - 3) = 4 chunks.
        let straggler_chunks = tasks.iter().filter(|t| t.job == 1).count();
        assert_eq!(straggler_chunks, 4);
        assert_eq!(tasks.len(), 6);
    }

    #[test]
    fn plan_with_no_spare_budget_is_plain() {
        let tasks = plan(0, &[10, 100], 2);
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().all(|t| t.nchunks == 1));
    }

    #[test]
    fn chunk_indices_cover_range() {
        let tasks = plan(3, &[50], 4);
        let mut chunks: Vec<usize> = tasks.iter().map(|t| t.chunk).collect();
        chunks.sort_unstable();
        assert_eq!(chunks, vec![0, 1, 2, 3]);
        assert!(tasks.iter().all(|t| t.pid == 3 && t.nchunks == 4));
    }

    /// A runtime whose chunks each count one vertex and two edges, or
    /// panic at chunk `panic_at` — only the methods the drain touches are
    /// live.
    struct FaultyRuntime {
        panic_at: Option<usize>,
    }

    impl JobRuntime for FaultyRuntime {
        fn id(&self) -> JobId {
            0
        }
        fn name(&self) -> String {
            "faulty".into()
        }
        fn view(&self) -> &GraphView {
            unreachable!("drain tests never resolve the view")
        }
        fn iteration(&self) -> u64 {
            0
        }
        fn pending(&self) -> Vec<PartitionId> {
            Vec::new()
        }
        fn is_pending(&self, _pid: PartitionId) -> bool {
            false
        }
        fn unprocessed_vertices(&self, _pid: PartitionId) -> u64 {
            0
        }
        fn private_table_bytes(&self, _pid: PartitionId) -> u64 {
            0
        }
        fn process_chunk(&self, _pid: PartitionId, chunk: usize, _nchunks: usize) -> ProcessStats {
            assert_ne!(self.panic_at, Some(chunk), "injected chunk fault");
            ProcessStats { vertex_ops: 1, edge_ops: 2 }
        }
        fn mark_processed(&self, _pid: PartitionId) {}
        fn reenter_partition(&self, _pid: PartitionId, _max_rounds: u64) -> ProcessStats {
            ProcessStats::default()
        }
        fn iteration_complete(&self) -> bool {
            true
        }
        fn push_and_advance(&self) -> PushStats {
            PushStats::default()
        }
        fn is_converged(&self) -> bool {
            true
        }
        fn partition_change(&self, _pid: PartitionId) -> f64 {
            0.0
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    /// Drains twelve chunks over three entries, panicking at `panic_at`.
    fn drain(panic_at: Option<usize>) -> Result<Vec<ProcessStats>, ExecError> {
        let runtime = FaultyRuntime { panic_at };
        let tasks: Vec<ChunkTask> = (0..12)
            .map(|chunk| ChunkTask { entry: chunk % 3, job: 0, pid: 0, chunk, nchunks: 12 })
            .collect();
        let mut totals = vec![ProcessStats::default(); 3];
        TriggerDrain::new(&Observer::disabled(), None).run(&tasks, 0, |_| &runtime, &mut totals)?;
        Ok(totals)
    }

    #[test]
    fn clean_chunks_fold_into_per_entry_totals() {
        let want = ProcessStats { vertex_ops: 4, edge_ops: 8 };
        assert_eq!(drain(None).unwrap(), vec![want; 3]);
    }

    #[test]
    fn panicking_chunk_fails_the_drain() {
        for chunk in [0, 5, 11] {
            let err = drain(Some(chunk)).unwrap_err();
            assert_eq!(err, ExecError::WorkerPanic(CHUNK_PANIC), "chunk {chunk}");
        }
    }

    #[test]
    fn injected_chunk_panic_parks_the_engine() {
        use crate::fault::FaultConfig;
        use crate::job::tests::Bfs;
        use crate::{Engine, EngineConfig};
        use cgraph_graph::vertex_cut::VertexCutPartitioner;
        use cgraph_graph::{generate, Partitioner};

        // A BFS over a cycle processes every partition, so the drill on
        // partition 0's chunk 0 fires.
        let ps = VertexCutPartitioner::new(4).partition(&generate::cycle(64));
        let faults =
            FaultPlane::new(FaultConfig { panic_chunk: Some((0, 0)), ..FaultConfig::default() });
        let config = EngineConfig { faults: Some(faults), ..EngineConfig::default() };
        let mut engine = Engine::from_partitions(ps, config);
        engine.submit(Bfs { source: 0 });
        assert!(!engine.run().completed);
        assert_eq!(
            engine.exec_error(),
            Some(ExecError::WorkerPanic(CHUNK_PANIC))
        );
        assert!(!engine.step_round(), "a faulted engine refuses rounds");
    }
}
