//! The Trigger stage: the one drain every engine runs its trigger entries
//! through.
//!
//! An entry is one `(job, partition)` pair: for each loaded partition an
//! engine makes one entry per interested job, and the drain runs that
//! job's `process_chunk(pid, 0, 1)` — one in-place pass over the whole
//! partition.  [`TriggerDrain::run`] executes one entry list — a round of
//! [`crate::Engine`], or one load of the streaming baseline — on the
//! calling thread, in entry order, and starts no thread.  Paired against
//! the same drain fanned out over host-sized scoped helpers on a 2-CPU
//! host, the helpers won no benchmark workload; helpers that come back
//! would split the list by entry.  `EngineConfig::workers` is the
//! *modeled* core count: it divides the compute cost and batches
//! installs, and never sizes a thread.  Modeled compute is `compute /
//! workers`, perfect balance across the modeled cores, so the paper's
//! straggler assistance (§3.2.3) needs no chunk split to be priced.
//!
//! Entry stats fold into per-entry `u64` totals; engines convert them to
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

/// One engine's trigger drain: the fault drill it honours and the
/// `cgraph-trigger` ring its spans go to.
pub struct TriggerDrain {
    rec: Recorder,
    faults: Option<Arc<FaultPlane>>,
}

impl TriggerDrain {
    /// A drain recording one span per entry into `obs`, panicking on the
    /// partition `faults` (if any) schedules a panic for.
    pub fn new(obs: &Observer, faults: Option<Arc<FaultPlane>>) -> Self {
        TriggerDrain { rec: obs.recorder("cgraph-trigger"), faults }
    }

    /// Runs every `(job, partition)` entry once, in order: the job
    /// processes the whole partition and the stats add into the entry's
    /// slot of `totals`, which is aligned with `entries`.  `round` stamps
    /// the spans.
    pub fn run<'j>(
        &self,
        entries: impl IntoIterator<Item = (&'j dyn JobRuntime, PartitionId)>,
        round: u32,
        totals: &mut [ProcessStats],
    ) -> Result<(), ExecError> {
        let faults = self.faults.as_deref();
        catch_unwind(AssertUnwindSafe(|| {
            for ((runtime, pid), total) in entries.into_iter().zip(totals) {
                // The injected worker-death drill panics exactly where
                // crashing user code would.
                assert!(
                    !faults.is_some_and(|plane| plane.should_panic_chunk(pid)),
                    "injected fault-plane chunk panic"
                );
                let t0 = self.rec.start();
                *total += runtime.process_chunk(pid, 0, 1);
                self.rec
                    .complete(EventKind::TriggerChunk, runtime.id(), pid, round, t0, 0);
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

    /// A runtime whose pass over partition `pid` counts `pid + 1`
    /// vertices and twice as many edges, or panics at partition
    /// `panic_at` — only the methods the drain touches are live.
    struct FaultyRuntime {
        panic_at: Option<PartitionId>,
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
        fn private_table_bytes(&self, _pid: PartitionId) -> u64 {
            0
        }
        fn process_chunk(&self, pid: PartitionId, _chunk: usize, _nchunks: usize) -> ProcessStats {
            assert_ne!(self.panic_at, Some(pid), "injected partition fault");
            let n = pid as u64 + 1;
            ProcessStats { vertex_ops: n, edge_ops: 2 * n }
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

    /// Drains twelve entries, partitions `0..12`, into totals that start
    /// at one vertex op each, panicking at partition `panic_at`.
    fn drain(panic_at: Option<PartitionId>) -> Result<Vec<ProcessStats>, ExecError> {
        let runtime = FaultyRuntime { panic_at };
        let entries = (0..12).map(|pid| (&runtime as &dyn JobRuntime, pid));
        let mut totals = vec![ProcessStats { vertex_ops: 1, edge_ops: 0 }; 12];
        TriggerDrain::new(&Observer::disabled(), None).run(entries, 0, &mut totals)?;
        Ok(totals)
    }

    #[test]
    fn clean_chunks_fold_into_per_entry_totals() {
        let want: Vec<ProcessStats> = (1..=12)
            .map(|n| ProcessStats { vertex_ops: n + 1, edge_ops: 2 * n })
            .collect();
        assert_eq!(drain(None).unwrap(), want);
    }

    #[test]
    fn panicking_chunk_fails_the_drain() {
        // The first, a middle and the last entry.
        for pid in [0, 5, 11] {
            let err = drain(Some(pid)).unwrap_err();
            assert_eq!(err, ExecError::WorkerPanic(CHUNK_PANIC), "entry {pid}");
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
        // partition 0 fires.
        let ps = VertexCutPartitioner::new(4).partition(&generate::cycle(64));
        let faults =
            FaultPlane::new(FaultConfig { panic_chunk: Some(0), ..FaultConfig::default() });
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
