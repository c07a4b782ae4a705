//! The layered execution core behind [`crate::Engine`].
//!
//! The original engine was a single ~460-line module mixing four
//! concerns; they now live in three composable layers that every engine
//! in the workspace (and every future scaling feature — async loading,
//! sharded stores, multi-tenant batching) builds on:
//!
//! * [`SlotPlanner`] — maintains the pending `(partition, version)` slot
//!   map **incrementally**: delta updates on `note_processed` /
//!   `refresh_job` instead of rescanning every job's pending set each
//!   round, and an indexed slot vector so the scheduler's choice resolves
//!   in O(log n) instead of an O(n) ordered-map walk.
//! * [`ChargeLedger`] — the single place where simulated-hierarchy
//!   traffic and compute are charged and attributed to jobs; unifies the
//!   charging code previously duplicated between the CGraph engine's
//!   Load/Push paths and the baseline streaming engine.
//! * [`wavefront`] — the one Load–Trigger–Push round executor: a wave
//!   of up to `k` scheduler-planned slots installs slot by slot in plan
//!   order on the calling thread, then runs trigger → push, and
//!   the round's modeled time overlaps slot *i+1*'s Load with slot *i*'s
//!   Trigger (two-stage flow-shop makespan).  `k = 1` is a wave of one
//!   slot, not a separate path.
//! * [`prefetch`] — the asynchronous-prefetch model of stage one:
//!   [`pipeline_makespan`] prices wave slots' disk fetches on the
//!   store's per-shard I/O lanes (each slot on its partition's shard),
//!   issued up to `prefetch_depth` slots early, as a three-stage
//!   pipeline (disk-fetch → memory-install → trigger).  At depth 0 it
//!   degenerates to the two-stage model above.
//!
//! The trigger stage runs each round's `(job, partition)` entries inside
//! [`wavefront`] on the calling thread, one in-place pass per entry,
//! before the round's Push; the engine starts no thread of its own.

pub mod ledger;
pub mod planner;
pub mod prefetch;
pub mod wavefront;

pub use ledger::{ChargeLedger, JobTiming};
pub use planner::{SlotKey, SlotPlanner};
pub use prefetch::pipeline_makespan;
pub use wavefront::{flowshop_makespan, ExecError};
