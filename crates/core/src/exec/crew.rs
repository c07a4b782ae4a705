//! The long-lived trigger pool: the compute workers that drain each
//! round's chunk tasks, living as long as the engine.
//!
//! ```text
//!   main: install stage ── plan-order ledger charging
//!          │ chunk tasks (shared queue, capacity reused across rounds)
//!          ▼
//!   trigger workers 0..w ── process_chunk, commutative stat merge
//! ```
//!
//! Ordering guarantee (why determinism survives the concurrency): chunk
//! results fold into per-entry `u64` counters under one mutex; integer
//! addition is commutative, so the totals are independent of completion
//! order.  The conversion to `f64` stage seconds happens afterwards on
//! the main thread in entry order, so the float-accumulation order is
//! the plan's.
//!
//! The chunk queue is unbounded-but-recycled, so enqueuing never blocks
//! the main thread; it waits only in [`ExecCrew::finish_round`], on a
//! condvar signalled when the round's last chunk settles or one fails.
//!
//! # Worker failure
//!
//! A worker panic (user code inside `process_chunk`) must not hang or
//! abort the engine, so every blocking edge is failure-aware:
//!
//! * Trigger workers run each chunk under an unwind guard: if
//!   `process_chunk` panics, the guard settles the chunk's outstanding
//!   count, records the failure label, and wakes the round condvar, so
//!   [`ExecCrew::finish_round`] returns [`ExecError::WorkerPanic`]
//!   instead of waiting forever on a completion that will never come.
//! * Every mutex acquisition recovers from poisoning
//!   (`PoisonError::into_inner`): the guarded state — `u64` counters, a
//!   task deque, flags — is valid at every intermediate step, so a
//!   panicking peer cannot cascade panics into other workers or the
//!   main thread.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use cgraph_graph::PartitionId;

use crate::fault::FaultPlane;
use crate::job::{JobRuntime, ProcessStats};
use crate::obs::{EventKind, Observer, Recorder, NONE};

/// An executor failure: a trigger worker died (panicked user code) or
/// the OS refused a thread.  Surfaced by [`crate::Engine::exec_error`]
/// after the engine shuts the crew down gracefully; never a panic or a
/// hang on the main thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A worker thread panicked; the label says where.
    WorkerPanic(&'static str),
    /// The OS refused to start a worker thread; the label says which
    /// kind.  The engine never ran the round that needed it.
    Spawn(&'static str),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::WorkerPanic(what) => write!(f, "executor worker panicked: {what}"),
            ExecError::Spawn(what) => write!(f, "executor could not start {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Locks a mutex, recovering the guard from a poisoned peer: all crew
/// state behind mutexes is valid at every intermediate step, so a
/// panicking worker must not cascade its panic into healthy threads.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One trigger-stage work unit routed to the compute workers.
struct ChunkMsg {
    /// Pooled entry index (round-local `(slot, job)` pair).
    entry: usize,
    pid: PartitionId,
    chunk: usize,
    nchunks: usize,
    runtime: Arc<dyn JobRuntime>,
}

/// The shared chunk-task queue: a mutex-guarded deque (capacity kept
/// across rounds) plus a close flag for shutdown.
struct ChunkQueue {
    state: Mutex<ChunkQueueState>,
    ready: Condvar,
}

struct ChunkQueueState {
    tasks: VecDeque<ChunkMsg>,
    closed: bool,
}

impl ChunkQueue {
    fn new() -> Self {
        ChunkQueue {
            state: Mutex::new(ChunkQueueState { tasks: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    fn pop(&self) -> Option<ChunkMsg> {
        let mut st = lock_recover(&self.state);
        loop {
            if let Some(msg) = st.tasks.pop_front() {
                return Some(msg);
            }
            if st.closed {
                return None;
            }
            st = self
                .ready
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// Per-round accumulation state shared with the compute workers: one
/// `ProcessStats` cell per pooled entry plus the outstanding-task count
/// the main thread waits on.  Folding is `u64` addition under a mutex —
/// commutative, so totals are independent of completion order.
struct RoundState {
    inner: Mutex<RoundInner>,
    done: Condvar,
}

struct RoundInner {
    totals: Vec<ProcessStats>,
    remaining: usize,
    /// Set by a compute worker's unwind guard when `process_chunk`
    /// panicked; the round then fails typed instead of hanging.
    failed: Option<&'static str>,
}

impl RoundState {
    fn record(&self, entry: usize, stats: ProcessStats) {
        let mut inner = lock_recover(&self.inner);
        inner.totals[entry].vertex_ops += stats.vertex_ops;
        inner.totals[entry].edge_ops += stats.edge_ops;
        inner.remaining -= 1;
        if inner.remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Settles a chunk whose worker panicked: the outstanding count
    /// still goes down (so the waiter's arithmetic stays coherent) and
    /// the failure label wakes [`ExecCrew::finish_round`] immediately —
    /// other chunks may still be queued behind a dead worker pool, so
    /// waiting for `remaining == 0` could block forever.
    fn fail(&self, what: &'static str) {
        let mut inner = lock_recover(&self.inner);
        inner.remaining = inner.remaining.saturating_sub(1);
        inner.failed.get_or_insert(what);
        self.done.notify_all();
    }
}

/// Unwind guard armed around `process_chunk`: disarmed (forgotten) on
/// normal return, it marks the round failed if the chunk panics.
struct ChunkPanicGuard<'a> {
    round: &'a RoundState,
}

impl Drop for ChunkPanicGuard<'_> {
    fn drop(&mut self) {
        self.round
            .fail("process_chunk panicked in a trigger worker");
    }
}

/// The engine's long-lived trigger pool.  Spawned lazily on the first
/// round; dropped (queue closed, threads joined) with the engine.
pub(crate) struct ExecCrew {
    chunks: Arc<ChunkQueue>,
    round: Arc<RoundState>,
    handles: Vec<JoinHandle<()>>,
    /// Chunk tasks enqueued but not yet drained this round.
    outstanding: usize,
}

impl ExecCrew {
    /// Spawns `compute` trigger workers (at least one).  Each worker
    /// receives its own [`Recorder`] from `obs` (permanently off on a
    /// disabled observer), created here on the spawning thread and moved
    /// into the worker — recorders are single-writer by construction.
    /// `faults` (the engine's fault plane, if any) arms the injected
    /// worker-death drill: a trigger worker panics on the plane's
    /// configured `(partition, chunk)` exactly as crashing user code
    /// would, exercising the typed-failure path end to end.
    ///
    /// This is the only place executor threads start.  When the OS
    /// refuses one, the workers already running are shut down and joined
    /// (the partial crew drops) and the refusal comes back typed.
    pub(crate) fn spawn(
        compute: usize,
        obs: &Observer,
        faults: Option<Arc<FaultPlane>>,
    ) -> Result<Self, ExecError> {
        let mut crew = ExecCrew {
            chunks: Arc::new(ChunkQueue::new()),
            round: Arc::new(RoundState {
                inner: Mutex::new(RoundInner { totals: Vec::new(), remaining: 0, failed: None }),
                done: Condvar::new(),
            }),
            handles: Vec::with_capacity(compute.max(1)),
            outstanding: 0,
        };
        for w in 0..compute.max(1) {
            let queue = Arc::clone(&crew.chunks);
            let state = Arc::clone(&crew.round);
            let rec = obs.recorder(&format!("cgraph-trigger-{w}"));
            let plane = faults.clone();
            let handle = std::thread::Builder::new()
                .name(format!("cgraph-trigger-{w}"))
                .spawn(move || compute_loop(queue, state, rec, plane))
                .map_err(|_| ExecError::Spawn("a trigger worker"))?;
            crew.handles.push(handle);
        }
        Ok(crew)
    }

    /// Chunk tasks enqueued and not yet drained this round (observability
    /// only — the round's trigger-queue depth at its high-water mark
    /// when read just before [`Self::finish_round`]).
    pub(crate) fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Resets the per-round accumulation state for `entries` pooled
    /// `(slot, job)` pairs.  Must only be called between rounds (no
    /// chunk in flight).
    pub(crate) fn begin_round(&mut self, entries: usize) {
        debug_assert_eq!(self.outstanding, 0, "round started with chunks in flight");
        let mut inner = lock_recover(&self.round.inner);
        debug_assert_eq!(inner.remaining, 0);
        inner.totals.clear();
        inner.totals.resize(entries, ProcessStats::default());
        inner.failed = None;
    }

    /// Queues one chunk task for the compute workers.
    pub(crate) fn push_chunk(
        &mut self,
        entry: usize,
        pid: PartitionId,
        chunk: usize,
        nchunks: usize,
        runtime: Arc<dyn JobRuntime>,
    ) {
        {
            let mut inner = lock_recover(&self.round.inner);
            inner.remaining += 1;
        }
        let mut st = lock_recover(&self.chunks.state);
        st.tasks
            .push_back(ChunkMsg { entry, pid, chunk, nchunks, runtime });
        drop(st);
        self.chunks.ready.notify_one();
        self.outstanding += 1;
    }

    /// Blocks until every queued chunk has been processed, then copies
    /// the per-entry totals into `out` (cleared first) in entry order.
    /// A chunk whose worker panicked fails the round with
    /// [`ExecError::WorkerPanic`] as soon as the unwind guard reports it
    /// — the remaining queue may sit behind a dead worker pool, so
    /// waiting it out could hang forever.  After an error the crew must
    /// be dropped (its bookkeeping no longer matches the queue).
    pub(crate) fn finish_round(&mut self, out: &mut Vec<ProcessStats>) -> Result<(), ExecError> {
        let mut inner = lock_recover(&self.round.inner);
        while inner.remaining > 0 && inner.failed.is_none() {
            inner = self
                .round
                .done
                .wait(inner)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        if let Some(what) = inner.failed {
            return Err(ExecError::WorkerPanic(what));
        }
        out.clear();
        out.extend_from_slice(&inner.totals);
        self.outstanding = 0;
        Ok(())
    }
}

impl Drop for ExecCrew {
    fn drop(&mut self) {
        // Closing the chunk queue wakes every idle worker; each drains
        // what is left and exits.
        self.chunks.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn compute_loop(
    queue: Arc<ChunkQueue>,
    round: Arc<RoundState>,
    rec: Recorder,
    faults: Option<Arc<FaultPlane>>,
) {
    while let Some(msg) = queue.pop() {
        // Armed across the user-code call: a panic inside
        // `process_chunk` unwinds through the guard, which settles the
        // chunk and marks the round failed before the thread dies.
        let guard = ChunkPanicGuard { round: &round };
        if let Some(plane) = &faults {
            // The injected worker-death drill panics behind the armed
            // guard, so it travels the same path as crashing user code.
            assert!(
                !plane.should_panic_chunk(msg.pid, msg.chunk),
                "injected fault-plane chunk panic"
            );
        }
        let t0 = rec.start();
        let stats = msg.runtime.process_chunk(msg.pid, msg.chunk, msg.nchunks);
        std::mem::forget(guard);
        if rec.on() {
            rec.complete(
                EventKind::TriggerChunk,
                msg.runtime.id(),
                msg.pid,
                NONE,
                t0,
                msg.chunk as u64,
            );
        }
        round.record(msg.entry, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, PushStats};
    use cgraph_graph::GraphView;

    fn spawn(compute: usize) -> ExecCrew {
        ExecCrew::spawn(compute, &Observer::disabled(), None)
            .expect("the test host can start a handful of threads")
    }

    #[test]
    fn idle_crew_shuts_down() {
        let crew = spawn(2);
        assert_eq!(crew.handles.len(), 2);
        drop(crew);
    }

    #[test]
    fn crew_clamps_degenerate_parameters() {
        // A zero-width trigger pool is clamped to one worker.
        let crew = spawn(0);
        assert_eq!(crew.handles.len(), 1);
    }

    #[test]
    fn engine_that_never_runs_a_round_owns_no_thread() {
        use crate::program::{VertexInfo, VertexProgram};
        use cgraph_graph::vertex_cut::VertexCutPartitioner;
        use cgraph_graph::{generate, Partitioner, Weight};

        /// Converged at submission: nothing is ever pending.
        struct Idle;
        impl VertexProgram for Idle {
            type Value = u32;
            fn init(&self, _: &VertexInfo) -> (u32, u32) {
                (0, 0)
            }
            fn identity(&self) -> u32 {
                0
            }
            fn acc(&self, a: u32, b: u32) -> u32 {
                a.max(b)
            }
            fn is_active(&self, _: &u32, _: &u32) -> bool {
                false
            }
            fn compute(&self, _: &VertexInfo, v: u32, _: u32) -> (u32, Option<u32>) {
                (v, None)
            }
            fn edge_contrib(&self, b: u32, _: Weight, _: &VertexInfo) -> u32 {
                b
            }
        }

        let ps = VertexCutPartitioner::new(2).partition(&generate::cycle(8));
        let mut engine = crate::Engine::from_partitions(ps, crate::EngineConfig::default());
        engine.submit(Idle);
        assert!(engine.crew.is_none(), "submission must not start threads");
        assert!(engine.run().completed);
        assert!(
            engine.crew.is_none(),
            "a run of zero rounds must not either"
        );
    }

    /// A runtime whose chunks panic on demand — only the methods the
    /// crew's trigger path touches are live.
    struct FaultyRuntime {
        panic_on: usize,
    }

    impl JobRuntime for FaultyRuntime {
        fn id(&self) -> JobId {
            0
        }
        fn name(&self) -> String {
            "faulty".into()
        }
        fn view(&self) -> &GraphView {
            unreachable!("crew tests never resolve the view")
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
            assert_ne!(chunk, self.panic_on, "injected chunk fault");
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

    #[test]
    fn panicking_chunk_fails_the_round_instead_of_hanging() {
        // Two compute workers, four chunks, one of which panics: the
        // round must come back with a typed error (not wedge on the
        // condvar, not abort the test process) and the crew must still
        // drop cleanly afterwards.
        let mut crew = spawn(2);
        crew.begin_round(1);
        let runtime: Arc<dyn JobRuntime> = Arc::new(FaultyRuntime { panic_on: 2 });
        for chunk in 0..4 {
            crew.push_chunk(0, 0, chunk, 4, Arc::clone(&runtime));
        }
        let mut out = Vec::new();
        let err = crew.finish_round(&mut out).unwrap_err();
        assert_eq!(
            err,
            ExecError::WorkerPanic("process_chunk panicked in a trigger worker")
        );
        drop(crew);
    }

    #[test]
    fn clean_chunks_still_fold_after_guard_refactor() {
        let mut crew = spawn(2);
        crew.begin_round(2);
        let runtime: Arc<dyn JobRuntime> = Arc::new(FaultyRuntime { panic_on: usize::MAX });
        for chunk in 0..3 {
            crew.push_chunk(chunk % 2, 0, chunk, 3, Arc::clone(&runtime));
        }
        let mut out = Vec::new();
        crew.finish_round(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], ProcessStats { vertex_ops: 2, edge_ops: 4 });
        assert_eq!(out[1], ProcessStats { vertex_ops: 1, edge_ops: 2 });
    }
}
