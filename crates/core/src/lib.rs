//! The CGraph LTP (Load–Trigger–Push) execution engine.
//!
//! This crate is the paper's primary contribution: an execution model that
//! lets many **C**oncurrent iterative **G**raph **P**rocessing jobs share
//! the graph-structure data — and the *accesses* to it — by exploiting the
//! spatial and temporal correlations between their data accesses.
//!
//! * [`VertexProgram`] — the three-function user API
//!   (`IsNotConvergent` / `Compute` / `Acc`, paper §3.4) expressed as a
//!   typed delta-accumulator program.
//! * [`TypedJob`] / [`JobRuntime`] — one running job: private state tables
//!   decoupled from the shared structure (§3.1), Trigger (Alg. 1) and the
//!   batched sorted Push (Alg. 2).
//! * [`Engine`] — the executor (Alg. 3): loads a scheduler-planned
//!   wavefront of structure partitions once per round through the
//!   simulated memory hierarchy, triggers every interested job (one
//!   in-place pass per job and partition, once per round on the
//!   calling thread), then runs each finishing job's Push.
//! * [`exec`] — the layered execution core the engine composes: the
//!   incrementally maintained slot planner, the unified charge ledger,
//!   and the pipelined wavefront round executor.
//! * [`scheduler`] — the correlations-aware priority scheduler
//!   (`Pri(P) = N(P) + θ·D(P)·C(P)`, Eq. 1) and the fixed-order ablation,
//!   extended to plan multi-slot wavefronts that spread exact priority
//!   ties across store shards.
//! * [`serve`] — the online serving layer: an admission-controlled
//!   arrival stream released as version-keyed waves, interleaved with
//!   execution round by round through [`Engine::step_round`].
//! * [`incr`] — incremental recomputation: monotone programs resume
//!   from a prior converged result at O(Δ) cost, and [`Standing`] jobs
//!   re-emit one result per store version through the serve loop.
//! * [`obs`] — zero-cost-when-disabled tracing and metrics: per-thread
//!   lock-free event rings, a counter/gauge/histogram registry, and
//!   Chrome-trace / JSONL / Prometheus exporters.
//! * [`fault`] — the seeded, deterministic fault plane: typed
//!   transient/permanent faults and modeled latency spikes injected at
//!   every I/O boundary from a reproducible schedule, with retries,
//!   per-lane circuit breakers, and quarantine instead of engine abort.
//!
//! Concrete algorithms (PageRank, SSSP, BFS, WCC, SCC, …) live in
//! `cgraph-algos`; baseline engines that drive the *same* job runtimes with
//! per-job access patterns live in `cgraph-baselines`.

pub mod api;
pub mod engine;
pub mod exec;
pub mod fault;
pub mod incr;
pub mod job;
pub mod obs;
pub mod program;
pub mod scheduler;
pub mod serve;
pub mod state;

pub use api::JobEngine;
pub use engine::{Engine, EngineConfig, RunReport, SchedulerKind, SyncStrategy};
pub use exec::{ChargeLedger, ExecError, SlotPlanner};
pub use fault::{
    BreakerConfig, FaultBoundary, FaultConfig, FaultError, FaultKind, FaultPlane, FaultStats,
    FetchAdmission,
};
pub use incr::{IncrementalProgram, ResumeSubmit, Standing, StandingRunner};
pub use job::{JobId, JobRuntime, ProcessStats, PushStats, TypedJob};
pub use obs::{Observer, Recorder, Registry, TraceDump};
pub use program::{EdgeDirection, VertexInfo, VertexProgram};
pub use scheduler::{OrderScheduler, PriorityScheduler, Scheduler, SlotInfo};
pub use serve::{
    AdmissionController, Arrival, JobLatency, JobOutcome, ServeConfig, ServeJournal, ServeLoop,
    ServeReport,
};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, ignoring poison: a holder that panicked (a vertex
/// program's user code, caught by the round as an
/// [`ExecError`]) leaves state the engine still reads.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
