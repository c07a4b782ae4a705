//! Synthetic CGP-job workload traces (paper Fig. 1 stand-in).
//!
//! The paper motivates CGraph with a week-long trace from a large Chinese
//! social network: up to 20+ concurrent iterative jobs over the same graph
//! (Fig. 1(a)), with more than 75 % of active partitions shared by several
//! jobs at any time (Fig. 1(b)).  That trace is proprietary, so this crate
//! synthesizes one with the same structure: diurnal Poisson arrivals with a
//! weekday/weekend profile, per-job durations, and per-job active-partition
//! sets whose overlap is measured exactly as in the paper.

pub mod shared;
pub mod workload;

pub use shared::{sample_shared_ratios, shared_ratio};
pub use workload::{active_jobs_per_hour, generate_trace, JobKind, JobSpan, TraceConfig};
