//! The online serving layer: admission-controlled arrival streams.
//!
//! The engine below this module is batch-oriented — `submit*()` then
//! [`run`](crate::Engine::run) to convergence — but the paper's whole
//! premise (§3.2.1, Fig. 5) is *concurrent jobs arriving over time*
//! sharing snapshot partitions.  This module turns the engine into an
//! arrival-driven system:
//!
//! * [`Arrival`] — one job arriving at a virtual time, carrying its
//!   deferred submission (a closure over any
//!   [`JobEngine`](crate::JobEngine), so concrete vertex programs stay out of core).
//! * [`AdmissionController`] — holds arrivals in a bounded deferral
//!   window and releases them as **waves keyed by bound snapshot
//!   version**: when an arrival's deferral expires, every queued
//!   arrival binding the same snapshot rides along, so the
//!   [`SlotPlanner`](crate::SlotPlanner) sees maximal `N(P)` overlap
//!   from the first round.  `admission_window = 0` degenerates to FIFO
//!   admission (each arrival released as soon as the clock reaches it).
//! * [`ServeLoop`] — interleaves admission with execution round by
//!   round through [`Engine::step_round`](crate::Engine::step_round),
//!   advancing virtual time by each round's modeled makespan and
//!   stamping each served job's arrival, admission and completion in
//!   its own served-job table (the engine keeps no serving state).
//! * [`ServeReport`] — throughput, mean/p50/p99 latency, loads, and the
//!   spared-loads comparison against a FIFO run.
//!
//! Admission delays *execution*, never *binding*: a job observes the
//! newest snapshot at its arrival time regardless of how long it queues,
//! so results are identical at any window — only latency and sharing
//! change.  The FIFO streaming baseline lives in
//! `cgraph_baselines::FifoServe`; the trace→program adapter in
//! `cgraph_algos::arrivals`.

pub mod admission;
pub mod journal;
pub mod report;
pub mod serve_loop;

pub use admission::{AdmissionController, Arrival};
pub use journal::{JournalEntry, ServeJournal};
pub use report::{JobLatency, JobOutcome, ServeReport};
pub use serve_loop::{ServeConfig, ServeLoop};
