//! The CGraph executor (paper Alg. 3): Load — Trigger — Push.
//!
//! The engine itself is thin: job lifecycle and the public API live
//! here, while the mechanics are layered in [`crate::exec`] — the
//! incrementally maintained [`SlotPlanner`], the unified
//! [`ChargeLedger`], and the pipelined wavefront round executor.

use std::sync::Arc;

use cgraph_graph::snapshot::SnapshotStore;
use cgraph_graph::PartitionSet;
use cgraph_memsim::{CostModel, HierarchyConfig, JobMetrics, Metrics};

use crate::exec::ledger::JobTiming;
use crate::exec::wavefront::RoundBuffers;
use crate::exec::{ChargeLedger, ExecError, SlotPlanner};
use crate::fault::{FaultError, FaultPlane};
use crate::incr::{IncrementalProgram, ResumeSubmit};
use crate::job::{JobId, JobRuntime, TypedJob};
use crate::obs::event::{EventKind, NONE};
use crate::obs::{Observer, Recorder};
use crate::program::VertexProgram;
use crate::scheduler::{OrderScheduler, PriorityScheduler, Scheduler};

/// How Push charges vertex-state synchronization to the memory hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncStrategy {
    /// The paper's batched sorted push (Alg. 2): records are sorted by
    /// destination partition, so each private-table partition is loaded
    /// once per push.
    BatchedSorted,
    /// The naive alternative: every record individually touches its
    /// destination partition (the ablation for design decision D4).
    Immediate,
}

/// Which scheduler drives partition loading.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedulerKind {
    /// The paper's `Pri(P) = N(P) + θ·D(P)·C(P)` (Eq. 1); `theta` is the
    /// fraction of the admissible θ range.
    Priority {
        /// Fraction of the admissible θ range, in `[0, 1)`.
        theta: f64,
    },
    /// Fixed partition-id order: the `CGraph-without` ablation (Fig. 8).
    FixedOrder,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The paper's per-core Trigger workers, as modeled: the divisor of
    /// modeled compute time and the install batch size when more jobs
    /// share a partition than workers.  It never sizes a thread: the
    /// trigger pass runs on the calling thread
    /// ([`crate::exec::wavefront`]).
    pub workers: usize,
    /// Simulated cache/memory capacities.
    pub hierarchy: HierarchyConfig,
    /// Push charging strategy.
    pub sync: SyncStrategy,
    /// Partition-loading scheduler.
    pub scheduler: SchedulerKind,
    /// Wavefront width: how many slots the scheduler plans per round.
    ///
    /// At 1 (the default) the engine reproduces the classic single-slot
    /// schedule exactly.  Wider waves keep several structure partitions
    /// pinned at once and pipeline one slot's Load behind another's
    /// Trigger, which the modeled time accounts for (see
    /// [`crate::exec::wavefront`]).  Algorithm results are identical at
    /// any width; only the access schedule and modeled makespan change.
    pub wavefront: usize,
    /// Prefetch window depth: how many wave slots ahead
    /// [`crate::exec::pipeline_makespan`] models a slot's disk fetch
    /// issuing on its shard's lane while earlier slots install and
    /// compute.  The lanes are the store's shards
    /// ([`SnapshotStore::shard_of`]).  At 0 (the default) Load stays the
    /// fused two-stage model.  Depth only prices the overlap: it never
    /// changes what runs, algorithm results or traffic counters.
    pub prefetch_depth: usize,
    /// Safety valve: abort `run` after this many partition loads (a
    /// round never splits, so a wide wavefront may finish the round it
    /// started when the valve trips).
    pub max_loads: u64,
    /// Inert: nothing reads it.  The fetch stage always runs inline on
    /// the main thread; the field survives only because the repo
    /// benchmark's engine builder still assigns it, and goes when that
    /// builder stops (ROADMAP item 11c).
    pub io_workers: usize,
    /// Tracing/metrics observer threaded through the executor
    /// ([`crate::obs`]).  `None` (the default) resolves to
    /// [`Observer::disabled`], so every instrumentation site reduces to
    /// one branch on a permanently-off recorder.  Observation is
    /// strictly read-only — it samples the wall clock and appends to
    /// private rings, never feeding back into scheduling, charging, or
    /// results — so enabling it changes no modeled figure and no
    /// algorithm output (pinned by `tests/observability.rs`).
    pub observer: Option<Arc<Observer>>,
    /// Seeded fault plane threaded through every I/O boundary
    /// ([`crate::fault`]).  `None` (the default) — or an explicit
    /// [`FaultPlane::disabled`] — reduces every injection site to one
    /// branch, keeping results bit-identical to a fault-free engine
    /// (pinned by `tests/chaos.rs`).  When set and enabled, every
    /// planned slot fetch is admitted through the plane before its
    /// round executes: transient faults retry under the plane's
    /// [`RetryPolicy`](crate::fault::RetryPolicy) (retries priced into
    /// the ledger as disk re-reads, modeled backoff folded into
    /// pipeline time), exhausted budgets *quarantine* the slot's jobs
    /// — typed [`FaultError`], [`Engine::job_fault`] — instead of
    /// aborting the engine, and per-lane circuit breakers reroute
    /// fetch storms to always-succeeding disk re-fetch pricing.
    pub faults: Option<Arc<FaultPlane>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 4,
            hierarchy: HierarchyConfig::default(),
            sync: SyncStrategy::BatchedSorted,
            scheduler: SchedulerKind::Priority { theta: 0.5 },
            wavefront: 1,
            prefetch_depth: 0,
            max_loads: u64::MAX,
            io_workers: 0,
            observer: None,
            faults: None,
        }
    }
}

/// Summary of one [`Engine::run`] call.
#[derive(Clone, Copy, Debug)]
pub struct RunReport {
    /// Partition loads performed.
    pub loads: u64,
    /// Counter deltas accumulated during this run.
    pub metrics: Metrics,
    /// Modeled makespan of this run under the engine's cost model.
    ///
    /// At wavefront width 1 this is the linear model
    /// (`access + compute/workers`, exactly as the classic engine
    /// reported); at wider widths it is the per-round pipeline model,
    /// which overlaps Load and Trigger and is therefore at most the
    /// linear figure for the same traffic.
    pub modeled_seconds: f64,
    /// `false` if the run stopped at `max_loads` before all jobs converged.
    pub completed: bool,
}

pub(crate) struct JobEntry {
    /// Every mutation goes through `&self` interior mutability, so the
    /// round triggers entries through a shared borrow.
    pub(crate) runtime: Box<dyn JobRuntime>,
    pub(crate) done: bool,
    /// Set when fault admission exhausted a fetch's retry budget while
    /// this job was interested in the slot: the job was retired without
    /// converging (`done` stays false) and carries its typed error.
    pub(crate) quarantined: Option<FaultError>,
}

/// The concurrent iterative graph-processing engine.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use cgraph_core::{Engine, EngineConfig};
/// use cgraph_graph::snapshot::SnapshotStore;
/// use cgraph_graph::vertex_cut::VertexCutPartitioner;
/// use cgraph_graph::{generate, Partitioner};
///
/// let edges = generate::cycle(64);
/// let parts = VertexCutPartitioner::new(4).partition(&edges);
/// let mut engine = Engine::new(
///     Arc::new(SnapshotStore::new(parts)),
///     EngineConfig::default(),
/// );
/// // Programs live in `cgraph-algos`; see that crate for submissions.
/// let report = engine.run();
/// assert!(report.completed);
/// ```
pub struct Engine {
    pub(crate) config: EngineConfig,
    /// The cost model modeled time is priced with.
    pub(crate) cost: CostModel,
    pub(crate) store: Arc<SnapshotStore>,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) jobs: Vec<JobEntry>,
    pub(crate) ledger: ChargeLedger,
    pub(crate) planner: SlotPlanner,
    pub(crate) round: RoundBuffers,
    pub(crate) loads: u64,
    pub(crate) pipeline_seconds: f64,
    /// Set when a trigger chunk panicked (user code): the engine refuses
    /// further rounds.  See [`Engine::exec_error`].
    pub(crate) fault: Option<ExecError>,
    /// The seeded fault plane, when the config carried one
    /// ([`crate::fault`]); `None` keeps admission a single branch.
    pub(crate) faults: Option<Arc<FaultPlane>>,
    /// Jobs quarantined by fault admission so far.
    pub(crate) quarantines: u64,
    /// The resolved observer (the config's, or the shared disabled one).
    pub(crate) obs: Arc<Observer>,
    /// Calling-thread event recorder: install and push spans, fault
    /// instants.  Permanently off unless the config carried an enabled
    /// observer.
    pub(crate) rec: Recorder,
    /// The trigger stage's recorder: one `trigger_chunk` span per entry,
    /// on a ring of its own (`cgraph-trigger`).
    pub(crate) trigger_rec: Recorder,
    /// Rounds executed so far — the round stamp on trace events.
    pub(crate) round_no: u32,
}

impl Engine {
    /// Creates an engine over a snapshot store.
    pub fn new(store: Arc<SnapshotStore>, config: EngineConfig) -> Self {
        let scheduler: Box<dyn Scheduler> = match config.scheduler {
            SchedulerKind::Priority { theta } => Box::new(PriorityScheduler::new(theta)),
            SchedulerKind::FixedOrder => Box::new(OrderScheduler),
        };
        let ledger = ChargeLedger::new(config.hierarchy);
        let obs = config.observer.clone().unwrap_or_else(Observer::disabled);
        let rec = obs.recorder("main");
        let trigger_rec = obs.recorder("cgraph-trigger");
        // A disabled plane is the same as no plane: drop it here so the
        // per-round admission check stays a single `None` branch.
        let faults = config.faults.clone().filter(|plane| plane.is_enabled());
        Engine {
            config,
            cost: CostModel::default(),
            store,
            scheduler,
            jobs: Vec::new(),
            ledger,
            planner: SlotPlanner::new(),
            round: RoundBuffers::default(),
            loads: 0,
            pipeline_seconds: 0.0,
            fault: None,
            faults,
            quarantines: 0,
            obs,
            rec,
            trigger_rec,
            round_no: 0,
        }
    }

    /// Convenience constructor for a static (single-snapshot) graph.
    pub fn from_partitions(parts: PartitionSet, config: EngineConfig) -> Self {
        Engine::new(Arc::new(SnapshotStore::new(parts)), config)
    }

    /// Submits a job bound to the newest snapshot. Returns its id.
    pub fn submit<P: VertexProgram>(&mut self, program: P) -> JobId {
        let ts = self.store.latest_timestamp();
        self.submit_at(program, ts)
    }

    /// Submits a job arriving at time `ts`: it binds to the newest snapshot
    /// whose timestamp does not exceed `ts` (paper §3.2.1, Fig. 5).
    pub fn submit_at<P: VertexProgram>(&mut self, program: P, ts: u64) -> JobId {
        let id = self.jobs.len() as JobId;
        let view = self.store.view_at(ts);
        let runtime = TypedJob::new(id, program, view).observed(&self.obs);
        let done = runtime.is_converged();
        self.jobs
            .push(JobEntry { runtime: Box::new(runtime), done, quarantined: None });
        self.ledger.register_job();
        let runtime = &*self.jobs[id as usize].runtime;
        self.planner.track_job(id as usize, runtime, !done);
        id
    }

    /// Submits a job bound to the newest snapshot, seeding it from a
    /// prior converged result when the delta range allows (see
    /// [`submit_resumed_at`](Self::submit_resumed_at)).
    pub fn submit_resumed<P: IncrementalProgram>(
        &mut self,
        program: P,
        prior_ts: u64,
        prior: &[P::Value],
    ) -> ResumeSubmit {
        let ts = self.store.latest_timestamp();
        self.submit_resumed_at(program, ts, prior_ts, prior)
    }

    /// Submits a job arriving at time `ts` that may resume from a prior
    /// result converged against the snapshot bound at `prior_ts`.
    ///
    /// The store's [`delta_summary`](SnapshotStore::delta_summary)
    /// between the two binds decides the path: an addition-only range
    /// seeds the job via [`TypedJob::resume_from`] with the frontier set
    /// to the vertices the deltas touched; a range with removals (which
    /// can shrink monotone values), a backwards range, or a prior whose
    /// vertex count no longer matches falls back to the ordinary
    /// from-scratch [`submit_at`](Self::submit_at).  Either path yields
    /// bit-identical results; only the cost differs.
    pub fn submit_resumed_at<P: IncrementalProgram>(
        &mut self,
        program: P,
        ts: u64,
        prior_ts: u64,
        prior: &[P::Value],
    ) -> ResumeSubmit {
        let summary = self.store.delta_summary(prior_ts, ts);
        let seedable = match &summary {
            Some(s) => s.monotone_safe(),
            None => false,
        };
        if !seedable {
            return ResumeSubmit { job: self.submit_at(program, ts), seeded: false };
        }
        let id = self.jobs.len() as JobId;
        let view = self.store.view_at(ts);
        if prior.len() != view.num_vertices() as usize {
            return ResumeSubmit { job: self.submit_at(program, ts), seeded: false };
        }
        let summary = summary.expect("seedable implies Some");
        let runtime =
            TypedJob::resume_from(id, program, view, prior, &summary.touched).observed(&self.obs);
        let done = runtime.is_converged();
        self.jobs
            .push(JobEntry { runtime: Box::new(runtime), done, quarantined: None });
        self.ledger.register_job();
        let runtime = &*self.jobs[id as usize].runtime;
        self.planner.track_job(id as usize, runtime, !done);
        ResumeSubmit { job: id, seeded: true }
    }

    /// Retires jobs that converged outside a Push of their own (kept
    /// from the classic loop head: no hierarchy eviction).
    fn retire_converged(&mut self) {
        for j in 0..self.jobs.len() {
            if !self.jobs[j].done && self.jobs[j].runtime.is_converged() {
                self.jobs[j].done = true;
                self.planner.retire_job(j);
            }
        }
    }

    /// Executes exactly one scheduling round — the loop body of
    /// [`run`](Self::run): retire already-converged jobs, plan a
    /// wavefront over the pending slots, Load–Trigger–Push it, and
    /// advance the load and pipeline-time counters.  Returns `false`
    /// (executing nothing) when no slot is pending.
    ///
    /// This is the serving layer's entry point: a driver can interleave
    /// `submit_at` calls between rounds — newly admitted jobs join the
    /// slot planner immediately and are scheduled from the next round
    /// on, matching the paper's runtime registration of new jobs.
    pub fn step_round(&mut self) -> bool {
        if self.fault.is_some() || !self.prepare_round() {
            return false;
        }
        self.exec_planned_round();
        true
    }

    /// The executor's parked failure, if a trigger chunk panicked (user
    /// code inside `process_chunk`).  Every later
    /// [`step_round`](Self::step_round) /
    /// [`run`](Self::run) refuses to execute instead of re-panicking
    /// over a half-processed round.
    pub fn exec_error(&self) -> Option<ExecError> {
        self.fault
    }

    /// Retires converged jobs and reports whether any slot is pending —
    /// the round-boundary state `run`'s valve checks consult.
    fn prepare_round(&mut self) -> bool {
        self.retire_converged();
        !self.planner.is_empty()
    }

    /// Plans and executes one round over the (non-empty) pending slots.
    fn exec_planned_round(&mut self) {
        let width = self.config.wavefront.max(1);
        let picks = {
            let runtimes: Vec<&dyn JobRuntime> =
                self.jobs.iter().map(|entry| &*entry.runtime).collect();
            let infos = self.planner.infos(&runtimes);
            self.scheduler.plan(&infos, width)
        };
        // Fault admission: every planned slot fetch passes through the
        // plane on the main thread, before the round dispatches.
        if !self.admit_fetches(&picks) {
            // A fetch exhausted its budget: its jobs were quarantined
            // (mutating the planner, so this round's plan is stale) and
            // the round is skipped.  The round counter still advances so
            // fault draws keyed on it stay unique.
            self.round_no = self.round_no.wrapping_add(1);
            return;
        }
        let round_seconds = self.exec_round(&picks);
        self.pipeline_seconds += round_seconds;
        self.loads += picks.len() as u64;
        self.round_no = self.round_no.wrapping_add(1);
    }

    /// Runs the planned slots' fetches through the fault plane.  Returns
    /// `true` when the round may execute; `false` when at least one slot
    /// drew an unrecoverable fault and its interested jobs were
    /// quarantined.  Retries and breaker reroutes are priced into the
    /// ledger as disk re-fetches and their modeled backoff/timeout delay
    /// folded into pipeline time.
    fn admit_fetches(&mut self, picks: &[usize]) -> bool {
        let Some(plane) = self.faults.clone() else {
            return true;
        };
        let round = self.round_no;
        // Pass 1: read every planned slot *before* any retirement —
        // quarantining dirties the planner's slot index, which would
        // skew later reads of this round's (already stale) indices.
        let mut quarantine: Vec<(Vec<usize>, FaultError)> = Vec::new();
        let mut injected_delay = 0.0;
        let trips_before = if self.rec.on() {
            plane.stats().breaker_trips
        } else {
            0
        };
        for &idx in picks {
            let ((pid, version), jobs) = self.planner.slot(idx);
            let jobs = jobs.to_vec();
            let lane = self.store.shard_of(pid);
            match plane.admit_fetch(lane, pid as u64, version as u64, round as u64) {
                Ok(adm) => {
                    injected_delay += adm.delay_seconds;
                    let round_trips = adm.retries as u64 + adm.rerouted as u64;
                    if round_trips > 0 {
                        // Each retry (and a breaker reroute) re-reads the
                        // slot's structure from disk; charge the slot's
                        // first interested job, like the planner's own
                        // representative-job convention.
                        let job = jobs[0];
                        let bytes = self.jobs[job]
                            .runtime
                            .view()
                            .partition(pid)
                            .structure_bytes();
                        self.ledger.charge_retry_fetch(
                            lane,
                            job,
                            bytes.saturating_mul(round_trips),
                        );
                        if self.rec.on() {
                            self.rec.instant(
                                EventKind::FaultRetry,
                                job as u32,
                                lane as u32,
                                round,
                                round_trips,
                            );
                            let r = self.obs.registry();
                            r.counter("fault_retries").add(adm.retries as u64);
                            if adm.rerouted {
                                r.counter("fault_reroutes").inc();
                            }
                        }
                    }
                }
                Err(err) => quarantine.push((jobs, err)),
            }
        }
        if self.rec.on() {
            let tripped = plane.stats().breaker_trips - trips_before;
            for _ in 0..tripped {
                self.rec
                    .instant(EventKind::BreakerTrip, NONE, NONE, round, 0);
            }
            if tripped > 0 {
                self.obs.registry().counter("breaker_trips").add(tripped);
            }
        }
        self.pipeline_seconds += injected_delay;
        if quarantine.is_empty() {
            return true;
        }
        // Pass 2: quarantine every job interested in a failed slot —
        // retired from the planner and ledger like a finished job, but
        // `done` stays false and the typed error is kept.
        for (jobs, err) in quarantine {
            for j in jobs {
                if self.jobs[j].done || self.jobs[j].quarantined.is_some() {
                    continue;
                }
                self.jobs[j].quarantined = Some(err);
                self.quarantines += 1;
                self.ledger.evict_job(j as u32);
                self.planner.retire_job(j);
                if self.rec.on() {
                    self.rec
                        .instant(EventKind::FaultQuarantine, j as u32, NONE, round, 0);
                    self.obs.registry().counter("fault_quarantines").inc();
                }
            }
        }
        false
    }

    /// Runs all submitted jobs to convergence (Alg. 3): `while
    /// step_round() {}` plus the `max_loads` valve checked between
    /// rounds, exactly as the classic loop did.
    ///
    /// Jobs submitted after a `run` returns are picked up by the next call,
    /// matching the paper's runtime registration of new jobs.
    pub fn run(&mut self) -> RunReport {
        let start_metrics = *self.ledger.metrics();
        let start_loads = self.loads;
        let start_pipeline = self.pipeline_seconds;
        let width = self.config.wavefront.max(1);
        let mut completed = true;
        while self.fault.is_none() && self.prepare_round() {
            if self.loads - start_loads >= self.config.max_loads {
                completed = false;
                break;
            }
            self.exec_planned_round();
        }
        // An executor fault mid-run is a truncation, not a completion.
        completed &= self.fault.is_none();
        let metrics = self.ledger.metrics().since(&start_metrics);
        // Width 1 keeps the classic linear figure bit-for-bit; wider
        // waves report the pipeline model their schedule actually earns.
        let modeled_seconds = if width <= 1 {
            self.cost.total_seconds(&metrics, self.config.workers)
        } else {
            self.pipeline_seconds - start_pipeline
        };
        RunReport { loads: self.loads - start_loads, metrics, modeled_seconds, completed }
    }

    /// Marks a job finished: evicts its simulated state and deregisters
    /// it from the slot planner.  Idempotent.
    pub(crate) fn finish_job(&mut self, j: usize) {
        if !self.jobs[j].done {
            self.jobs[j].done = true;
            self.ledger.evict_job(j as u32);
            self.planner.retire_job(j);
        }
    }

    /// Typed results of a finished (or running) job; `None` if `job` is
    /// unknown or was submitted with a different program type.
    pub fn results<P: VertexProgram>(&self, job: JobId) -> Option<Vec<P::Value>> {
        let entry = self.jobs.get(job as usize)?;
        entry
            .runtime
            .as_any()
            .downcast_ref::<TypedJob<P>>()
            .map(|t| t.extract())
    }

    /// Whether the job has converged.
    pub fn job_done(&self, job: JobId) -> bool {
        self.jobs.get(job as usize).map(|e| e.done).unwrap_or(false)
    }

    /// The typed fault that quarantined the job, if fault admission
    /// retired it before convergence (`None` for healthy or unknown
    /// jobs).  Quarantined jobs are never [`job_done`](Self::job_done).
    pub fn job_fault(&self, job: JobId) -> Option<FaultError> {
        self.jobs.get(job as usize).and_then(|e| e.quarantined)
    }

    /// Jobs quarantined by fault admission so far.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantines
    }

    /// The engine's fault plane, when one was configured and enabled.
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.faults.as_ref()
    }

    /// Iterations the job ran (counted as Push stages).
    pub fn job_iterations(&self, job: JobId) -> u64 {
        self.ledger.job_metrics(job as usize).iterations
    }

    /// Per-job attributed metrics.
    pub fn job_metrics(&self, job: JobId) -> JobMetrics {
        self.ledger.job_metrics(job as usize)
    }

    /// Records a served job's arrival and admission times (virtual
    /// seconds) in the ledger — called by the serving layer at the
    /// moment it releases the job from its admission queue.
    pub fn record_admission(&mut self, job: JobId, arrival: f64, admitted: f64) {
        self.ledger
            .record_admission(job as usize, arrival, admitted);
    }

    /// Records a served job's convergence time (virtual seconds).
    /// Idempotent: only the first completion sticks.
    pub fn record_completion(&mut self, job: JobId, at: f64) {
        self.ledger.record_completion(job as usize, at);
    }

    /// The job's serve-layer timing, if it was admitted through one.
    pub fn job_timing(&self, job: JobId) -> Option<JobTiming> {
        self.ledger.job_timing(job as usize)
    }

    /// Number of submitted jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Accumulated global counters.
    pub fn metrics(&self) -> &Metrics {
        self.ledger.metrics()
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The resolved observer: the config's, or the shared disabled one.
    pub fn observer(&self) -> &Arc<Observer> {
        &self.obs
    }

    /// The underlying snapshot store.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// Total partition loads since construction.
    pub fn total_loads(&self) -> u64 {
        self.loads
    }

    /// Pipeline-modeled seconds accumulated over every round executed so
    /// far (Load of slot *i+1* overlapped with Trigger of slot *i*
    /// within each round).  At wavefront width 1 this equals the linear
    /// model of the same rounds, so the two figures are comparable
    /// across widths.
    pub fn pipeline_seconds(&self) -> f64 {
        self.pipeline_seconds
    }

    /// Disk bytes fetched through each shard's stage-one I/O lane so far
    /// (index = shard; may be shorter than the shard count when tail
    /// lanes never saw disk traffic).
    pub fn shard_fetch_bytes(&self) -> &[u64] {
        self.ledger.shard_fetch_bytes()
    }

    /// Spill-storage re-fetch bytes per lane — the priced round-trips of
    /// capacity-evicted snapshot records (a subset of
    /// [`shard_fetch_bytes`](Self::shard_fetch_bytes)).
    pub fn spill_fetch_bytes(&self) -> &[u64] {
        self.ledger.spill_fetch_bytes()
    }

    /// Fault-retry / breaker-reroute re-fetch bytes per lane — the
    /// priced round-trips fault admission injected (a subset of
    /// [`shard_fetch_bytes`](Self::shard_fetch_bytes)).
    pub fn retry_fetch_bytes(&self) -> &[u64] {
        self.ledger.retry_fetch_bytes()
    }

    /// Modeled makespan of everything run so far (linear model over the
    /// accumulated counters; per-run pipeline figures are in each run's
    /// [`RunReport`]).
    pub fn modeled_seconds(&self) -> f64 {
        self.cost
            .total_seconds(self.ledger.metrics(), self.config.workers)
    }

    /// Modeled CPU utilization of everything run so far (Fig. 15).
    pub fn utilization(&self) -> f64 {
        self.cost
            .utilization(self.ledger.metrics(), self.config.workers)
    }
}
