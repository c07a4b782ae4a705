//! The pipelined Load–Trigger–Push round executor.
//!
//! One round executes a scheduler-planned *wavefront* of slots through
//! one staged pipeline on the calling thread:
//!
//! 1. **Install** — the slot's structure partition and private tables
//!    are charged through the [`ChargeLedger`](super::ChargeLedger)
//!    (structures stay pinned for the whole round) and one trigger entry
//!    per interested job joins the round's entry list.
//! 2. **Trigger** — once every slot is installed, the round's entries
//!    run once, in install order: one in-place
//!    [`process_chunk(pid, 0, 1)`](crate::JobRuntime::process_chunk)
//!    pass of the job over the whole partition per entry.
//! 3. **Push** — each job whose iteration completed synchronizes
//!    replicas and advances, and the slot planner is patched
//!    incrementally.
//!
//! # Configurations, not paths
//!
//! Every stage runs on the calling thread at every configuration, and
//! the trigger pass starts no thread.  Paired against the same pass
//! fanned out over host-sized scoped helpers on a 2-CPU host, the
//! helpers won no benchmark workload; helpers that come back would split
//! the round's entry list by entry.  `EngineConfig::workers` is the
//! *modeled* core count: it divides the compute cost and batches
//! installs, and never sizes a thread.  Modeled compute is `compute /
//! workers`, perfect balance across the modeled cores, so the paper's
//! straggler assistance (§3.2.3) needs no chunk split to be priced.
//!
//! A width-1 wave is a wave of one slot, and `prefetch_depth` changes
//! how a round is priced (below), never what runs.  Everything is the
//! same code.
//!
//! # Failure
//!
//! A panic inside `process_chunk` (user code, or the fault plane's
//! injected drill) must not unwind through the engine: the round catches
//! it and parks [`ExecError::WorkerPanic`] on the engine, which refuses
//! further rounds.
//!
//! # Why the results are deterministic
//!
//! Every step runs in a fixed order:
//!
//! * Ledger charging — the only mutation that decides modeled times and
//!   traffic counters — happens in plan order.
//! * Entries run in install order, and each folds its contributions
//!   into the job's accumulators in vertex order, out-edges before
//!   in-edges.
//! * Entry statistics accumulate as exact `u64` additions; the `f64`
//!   stage-time conversion happens afterwards in entry order, so the
//!   float accumulation order is fixed by the plan.
//!
//! # Modeled time
//!
//! A round is priced by the two-machine flow shop
//! ([`flowshop_makespan`]): slot *i+1*'s fused Load overlapping slot
//! *i*'s Trigger.  On a multi-slot wave with `prefetch_depth > 0`, Load
//! splits into disk-fetch (per-shard lanes, issued up to `depth` slots
//! early) and memory-install (shared channel), and the round is priced
//! by the three-stage
//! [`pipeline_makespan`].  A width-1
//! wave has nothing to prefetch behind and always takes the two-stage
//! price.  No thread count changes a modeled figure.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cgraph_memsim::{CacheObject, Metrics};

use crate::engine::Engine;
use crate::exec::planner::SlotKey;
use crate::exec::prefetch::pipeline_makespan;
use crate::job::ProcessStats;
use crate::obs::{EventKind, NONE};

/// An executor failure: a trigger chunk panicked (user code).  Surfaced
/// by [`Engine::exec_error`], never a panic on the calling thread.
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

/// Makespan of a fixed-sequence two-stage pipeline: stage-one times
/// `loads` (serialized, e.g. the shared memory channel) feed stage-two
/// times `triggers` (a distinct resource, e.g. the worker cores), with
/// item `i+1`'s first stage overlapping item `i`'s second stage.
///
/// `C = max_j (Σ_{i≤j} load_i + Σ_{i≥j} trigger_i)` — for a single item
/// this is `load + trigger`, i.e. no overlap, matching the linear model.
pub fn flowshop_makespan(loads: &[f64], triggers: &[f64]) -> f64 {
    debug_assert_eq!(loads.len(), triggers.len());
    let mut best = 0.0f64;
    let mut prefix = 0.0f64;
    let mut suffix: f64 = triggers.iter().sum();
    for (load, trigger) in loads.iter().zip(triggers) {
        prefix += load;
        best = best.max(prefix + suffix);
        suffix -= trigger;
    }
    best
}

/// Reusable per-round scratch: the wave description, the stage-time
/// vectors, and the trigger entries.  Kept on the [`Engine`] across rounds
/// so the hot loop stops recloning job lists and rebuilding batch
/// vectors every round — after the first round at a given wave shape, a
/// round allocates nothing here.
#[derive(Default)]
pub(crate) struct RoundBuffers {
    /// Planned slots as `(key, start, end)` ranges into `jobs`.
    slots: Vec<(SlotKey, usize, usize)>,
    /// Every planned slot's interested jobs, flattened.
    jobs: Vec<usize>,
    /// Per-slot fused Load seconds (two-stage model).
    load: Vec<f64>,
    /// Per-slot disk-fetch seconds (three-stage model).
    fetch: Vec<f64>,
    /// Per-slot memory-install seconds (three-stage model).
    install: Vec<f64>,
    /// Per-slot Trigger seconds.
    trigger: Vec<f64>,
    /// Per-slot stage-one I/O lane.
    lanes: Vec<usize>,
    /// Deduplicated jobs due a Push check this round.
    push_jobs: Vec<usize>,
    /// The round's trigger entries as `(slot, job)`, in install order.
    origins: Vec<(usize, usize)>,
    /// Per-entry trigger statistics, aligned with `origins`.
    stats: Vec<ProcessStats>,
}

impl RoundBuffers {
    fn begin(&mut self, nslots: usize) {
        self.slots.clear();
        self.jobs.clear();
        self.load.clear();
        self.fetch.clear();
        self.install.clear();
        self.trigger.clear();
        self.trigger.resize(nslots, 0.0);
        self.lanes.clear();
        self.push_jobs.clear();
        self.origins.clear();
        self.stats.clear();
    }
}

impl Engine {
    /// Executes one round over the planned slots (indices into the slot
    /// planner's ordered view) and returns the round's modeled seconds
    /// under the pipeline cost model.
    pub(crate) fn exec_round(&mut self, picks: &[usize]) -> f64 {
        let workers = self.config.workers;
        let cost = self.cost;
        // The prefetch window only prices multi-slot waves: a single
        // slot has nothing to overlap, so it keeps the two-stage price
        // even when `prefetch_depth > 0`.
        let prefetching = picks.len() > 1 && self.config.prefetch_depth > 0;

        let mut round = std::mem::take(&mut self.round);
        round.begin(picks.len());
        for &idx in picks {
            let (key, jobs) = self.planner.slot(idx);
            let start = round.jobs.len();
            round.jobs.extend_from_slice(jobs);
            round.slots.push((key, start, round.jobs.len()));
        }

        match self.pump_round(&mut round, prefetching) {
            Ok(()) => {
                // Trigger merge: charge compute in entry order, which
                // fixes the float accumulation order of `round.trigger`.
                for (stats, &(si, j)) in round.stats.iter().zip(&round.origins) {
                    self.ledger.charge_compute(j, *stats);
                    let as_metrics = Metrics {
                        vertex_ops: stats.vertex_ops,
                        edge_ops: stats.edge_ops,
                        ..Metrics::default()
                    };
                    round.trigger[si] += cost.compute_seconds(&as_metrics) / workers.max(1) as f64;
                }
                self.finish_round(round, prefetching)
            }
            Err(fault) => {
                // The typed error parks on the engine, which refuses
                // further rounds (the round's partial ledger state is
                // unreachable behind the fault).
                self.round = round;
                self.fault = Some(fault);
                0.0
            }
        }
    }

    /// The failable half of a round: the plan-order install loop and the
    /// trigger pass, each `(job, partition)` entry processed once, in
    /// install order, its stats added into the entry's slot of
    /// `round.stats`.  A panicked entry surfaces here as a typed
    /// [`ExecError`].
    fn pump_round(&mut self, round: &mut RoundBuffers, prefetching: bool) -> Result<(), ExecError> {
        for si in 0..round.slots.len() {
            let ((pid, _), start, end) = round.slots[si];
            let install_t0 = self.rec.start();
            self.install_slot(si, round, prefetching);
            if self.rec.on() {
                self.rec.complete(
                    EventKind::Install,
                    NONE,
                    pid,
                    self.round_no,
                    install_t0,
                    (end - start) as u64,
                );
                self.obs
                    .registry()
                    .histogram("install_us")
                    .record(self.obs.now_ns().saturating_sub(install_t0) / 1000);
            }
        }
        if self.rec.on() {
            self.obs
                .registry()
                .histogram("round_entries")
                .record(round.origins.len() as u64);
        }
        round
            .stats
            .resize(round.origins.len(), ProcessStats::default());
        let faults = self.faults.as_deref();
        catch_unwind(AssertUnwindSafe(|| {
            for (&(si, j), total) in round.origins.iter().zip(&mut round.stats) {
                let ((pid, _), _, _) = round.slots[si];
                // The injected worker-death drill panics exactly where
                // crashing user code would.
                assert!(
                    !faults.is_some_and(|plane| plane.should_panic_chunk(pid)),
                    "injected fault-plane chunk panic"
                );
                let runtime = &*self.jobs[j].runtime;
                let t0 = self.trigger_rec.start();
                *total += runtime.process_chunk(pid, 0, 1);
                self.trigger_rec.complete(
                    EventKind::TriggerChunk,
                    runtime.id(),
                    pid,
                    self.round_no,
                    t0,
                    0,
                );
            }
        }))
        .map_err(|_| ExecError::WorkerPanic(CHUNK_PANIC))
    }

    /// Installs one slot: the slot's ledger charge loop plus its trigger
    /// entries, appended to the round's entry list.
    fn install_slot(&mut self, si: usize, round: &mut RoundBuffers, prefetching: bool) {
        let workers = self.config.workers;
        let batch_size = workers.max(1);
        let cost = self.cost;
        let ((pid, version), start, end) = round.slots[si];
        let before = *self.ledger.metrics();
        let structure = CacheObject::Structure { pid, version };
        let part = self.jobs[round.jobs[start]].runtime.view().partition(pid);
        let sbytes = part.structure_bytes();
        let lane = self.store.shard_of(pid);
        round.lanes.push(lane);
        let spills_possible = self.store.has_spills();
        let mut pinned = false;
        let mut off = start;
        // More jobs than workers share the slot in batches of `workers`:
        // the structure stays pinned while private tables rotate.
        while off < end {
            let batch_end = (off + batch_size).min(end);
            // Each job in the batch touches the structure partition;
            // after the first touch it is pinned resident for the whole
            // round (§3.2.3).
            for &j in &round.jobs[off..batch_end] {
                let outcome = self.ledger.charge_access_on(lane, j, structure, sbytes);
                // Capacity-spilled snapshot state: when the fetch
                // actually reaches disk *and* this job's view resolves
                // the partition through a spilled record, the load pays
                // one extra re-fetch from (modeled) spill storage on the
                // owning lane — inside the Load interval, so the
                // pipeline's fetch stage prices it.  Cache-resident
                // structures never pay.
                if spills_possible
                    && outcome.bytes_from_disk > 0
                    && self.jobs[j].runtime.view().partition_spilled(pid)
                {
                    self.ledger.charge_spill_fetch(lane, j, sbytes);
                }
                if !pinned {
                    self.ledger.pin(&structure);
                    pinned = true;
                }
            }
            for &j in &round.jobs[off..batch_end] {
                let tbytes = self.jobs[j].runtime.private_table_bytes(pid);
                self.ledger.charge_access_on(
                    lane,
                    j,
                    CacheObject::PrivateTable { job: j as u32, pid },
                    tbytes,
                );
            }
            for &j in &round.jobs[off..batch_end] {
                round.origins.push((si, j));
            }
            off = batch_end;
        }
        // Trigger compute is charged after the trigger pass, so this
        // interval is pure data access: the slot's Load leg — fused for
        // the two-stage model, split disk/memory for the three-stage one.
        let delta = self.ledger.metrics().since(&before);
        if prefetching {
            let stages = cost.stage_seconds(&delta, workers);
            round.fetch.push(stages.fetch);
            round.install.push(stages.install);
        } else {
            round.load.push(cost.access_seconds(&delta));
        }
    }

    /// The round tail: mark the wave processed, run Push for every
    /// finished iteration, and price the round.
    fn finish_round(&mut self, mut round: RoundBuffers, prefetching: bool) -> f64 {
        let workers = self.config.workers;
        let cost = self.cost;
        for &((pid, version), start, end) in &round.slots {
            for &j in &round.jobs[start..end] {
                self.jobs[j].runtime.mark_processed(pid);
                self.planner.note_processed(j, (pid, version));
            }
            self.ledger.unpin(&CacheObject::Structure { pid, version });
        }
        // Slot keys are distinct, so one unpin per slot must release the
        // whole wave's pinned footprint (pins are reference-counted).
        debug_assert_eq!(
            self.ledger.hierarchy().pinned_bytes(),
            0,
            "wavefront round leaked structure pins"
        );

        // --- Push for every job that finished its iteration ---
        let push_t0 = self.rec.start();
        let push_before = *self.ledger.metrics();
        round.push_jobs.extend_from_slice(&round.jobs);
        round.push_jobs.sort_unstable();
        round.push_jobs.dedup();
        for idx in 0..round.push_jobs.len() {
            let j = round.push_jobs[idx];
            let skip = {
                let entry = &self.jobs[j];
                entry.done || entry.runtime.is_converged() || !entry.runtime.iteration_complete()
            };
            if skip {
                if self.jobs[j].runtime.is_converged() {
                    self.finish_job(j);
                }
                continue;
            }
            let stats = self.jobs[j].runtime.push_and_advance();
            let runtime = &*self.jobs[j].runtime;
            self.ledger
                .charge_push(j, runtime, &stats, self.config.sync);
            self.ledger.bump_iterations(j);
            if stats.converged {
                self.finish_job(j);
            } else {
                let runtime = &*self.jobs[j].runtime;
                self.planner.refresh_job(j, runtime);
            }
        }
        let push_delta = self.ledger.metrics().since(&push_before);
        let push_access = cost.access_seconds(&push_delta);
        let push_compute = cost.compute_seconds(&push_delta) / workers.max(1) as f64;
        if self.rec.on() {
            self.rec.complete(
                EventKind::Push,
                NONE,
                NONE,
                self.round_no,
                push_t0,
                round.push_jobs.len() as u64,
            );
            let r = self.obs.registry();
            r.counter("rounds").inc();
            r.histogram("wave_width").record(round.slots.len() as u64);
            r.histogram("push_us")
                .record(self.obs.now_ns().saturating_sub(push_t0) / 1000);
        }

        let wave = if prefetching {
            pipeline_makespan(
                &round.fetch,
                &round.install,
                &round.trigger,
                &round.lanes,
                self.config.prefetch_depth,
            )
        } else {
            flowshop_makespan(&round.load, &round.trigger)
        };
        self.round = round;
        wave + push_access + push_compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_item_flowshop_is_linear() {
        assert_eq!(flowshop_makespan(&[3.0], &[2.0]), 5.0);
    }

    #[test]
    fn empty_flowshop_is_zero() {
        assert_eq!(flowshop_makespan(&[], &[]), 0.0);
    }

    #[test]
    fn pipeline_overlaps_but_never_beats_bottleneck() {
        let loads = [2.0, 2.0, 2.0];
        let triggers = [1.0, 1.0, 1.0];
        let c = flowshop_makespan(&loads, &triggers);
        // Sequential would be 9; the pipeline hides trigger time behind
        // loads except the last: 2+2+2+1 = 7.
        assert!((c - 7.0).abs() < 1e-12, "got {c}");
        // Lower bounds: each stage's total plus the other's minimum.
        assert!(c >= 6.0 + 1.0);
    }

    #[test]
    fn trigger_bound_pipeline() {
        let c = flowshop_makespan(&[1.0, 1.0], &[5.0, 5.0]);
        // First load, then triggers dominate: 1 + 5 + 5 = 11.
        assert!((c - 11.0).abs() < 1e-12, "got {c}");
    }

    #[test]
    fn flowshop_at_most_linear_sum() {
        let loads = [0.5, 1.5, 0.25, 2.0];
        let triggers = [1.0, 0.5, 3.0, 0.1];
        let linear: f64 = loads.iter().sum::<f64>() + triggers.iter().sum::<f64>();
        let c = flowshop_makespan(&loads, &triggers);
        assert!(c <= linear + 1e-12);
        assert!(c >= loads.iter().sum::<f64>());
        assert!(c >= triggers.iter().sum::<f64>());
    }
}
