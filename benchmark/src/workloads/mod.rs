//! The five workloads, plus the layer read-outs more than one shares.

pub mod batch;
pub mod ingest;
pub mod serve;
pub mod standing;

use std::sync::Arc;
use std::time::Instant;

use crate::harness::{event_seconds, p50_us, pct_us, RunCtx, RunResult};
use crate::metrics::Values;
use crate::spans::SpanLog;
use crate::stats;
use crate::sut::{self, ExecCounters, ObsEvent, SnapshotStore};

/// Runs the workload called `name`.
pub fn run(name: &str, ctx: &RunCtx) -> Option<RunResult> {
    let mut out = match name {
        "batch_shared" => batch::run(ctx, batch::Mode::Shared),
        "batch_solo" => batch::run(ctx, batch::Mode::Solo),
        "serve_stream" => serve::run(ctx),
        "ingest_durable" => ingest::run(ctx),
        "standing_fresh" => standing::run(ctx),
        _ => return None,
    };
    if ctx.trace {
        let share = out.failed as f64 / out.attempted.max(1) as f64;
        out.layer.set("run.failed_share", share);
    }
    Some(out)
}

/// What every traced run reports, whatever the workload.
pub struct Traced {
    /// Seconds the set-up spent partitioning.
    pub partition_s: f64,
    /// Replication factor of the partitioning.
    pub replication: f64,
    /// Program events the traced pass recorded.
    pub events: usize,
    /// Events the program's rings dropped.
    pub dropped: u64,
    /// Traced wall time over the untraced wall time of the same work.
    pub overhead: f64,
    /// Operations in the traced window.
    pub ops: usize,
    /// The percentile `op_tail_ms` was read at.
    pub tail: f64,
}

/// Records [`Traced`].
pub fn record_traced(layer: &mut Values, t: &Traced) {
    layer.set("partition.build_s", t.partition_s);
    layer.set("partition.replication_factor", t.replication);
    layer.set("obs.trace_overhead", t.overhead);
    layer.set("obs.events", t.events as f64);
    layer.set("obs.dropped_events", t.dropped as f64);
    layer.set("run.ops", t.ops as f64);
    layer.set("run.tail_percentile", t.tail);
}

/// The store layer's read-out after a traced pass of `applies`
/// applies at timestamps 1, 2, …: counts, apply latencies, and the
/// cost of binding a view and summarizing a delta at every version.
pub fn record_store(
    layer: &mut Values,
    store: &Arc<SnapshotStore>,
    apply_s: &[f64],
    log: &SpanLog,
) {
    let applies = apply_s.len() as u64;
    let mut bind_s = Vec::with_capacity(apply_s.len());
    let mut summary_s = Vec::with_capacity(apply_s.len());
    for ts in 1..=applies {
        let t = Instant::now();
        std::hint::black_box(sut::view_at(store, ts));
        bind_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(sut::delta_summary(store, ts - 1, ts));
        summary_s.push(t.elapsed().as_secs_f64());
    }
    let counts = sut::store_counts(store);
    layer.set("store.applies", applies as f64);
    layer.set("store.apply_s", log.total_s(SPAN_APPLY));
    layer.set("store.override_bytes", counts.override_bytes as f64);
    layer.set("store.checkpoints", counts.checkpoints as f64);
    layer.set("store.apply_p50_us", p50_us(apply_s));
    layer.set("store.apply_p99_us", pct_us(apply_s, 99.0));
    layer.set("store.view_bind_p50_us", p50_us(&bind_s));
    layer.set("store.delta_summary_p50_us", p50_us(&summary_s));
}

/// Harness span around `Engine::step_round`.
pub const SPAN_ROUND: &str = "exec.step_round";
/// Harness span around `Engine::submit_at` / `submit_resumed_at`.
pub const SPAN_SUBMIT: &str = "exec.submit";
/// Harness span around `SnapshotStore::apply`.
pub const SPAN_APPLY: &str = "store.apply";

/// The three end-to-end latency figures every workload reports, from
/// per-operation latencies in seconds.  Returns the percentile the
/// tail was read at.
pub fn record_latency(e2e: &mut Values, lat_s: &[f64], wanted_tail: f64) -> f64 {
    let tail = stats::tail_percentile(lat_s.len(), wanted_tail);
    e2e.set("op_p50_ms", stats::percentile(lat_s, 50.0) * 1e3);
    e2e.set("op_tail_ms", stats::percentile(lat_s, tail) * 1e3);
    tail
}

/// Operations per second as the median over cycles of `cycle`
/// operations each, from per-operation seconds.  A cycle's rate is
/// untouched by a stall in another cycle, so the median is steadier than
/// operations over the loop's wall time.
pub fn cycle_rate(op_s: &[f64], cycle: usize) -> f64 {
    let rates: Vec<f64> = op_s
        .chunks(cycle.max(1))
        .map(|c| c.len() as f64 / c.iter().sum::<f64>())
        .collect();
    stats::median(&rates)
}

/// The exec and memsim layers' read-out for one traced repetition:
/// counts from the engine, times from the harness spans around
/// `submit` and `step_round` (children of the span called `drive`) and
/// from the program's own install and push events.
pub fn record_exec(
    layer: &mut Values,
    log: &SpanLog,
    drive: &str,
    events: &[ObsEvent],
    counters: &ExecCounters,
    rounds: u64,
) {
    let round_s = log.durations_s(SPAN_ROUND);
    layer.set("exec.rounds", rounds as f64);
    layer.set("exec.loads", counters.loads as f64);
    layer.set("exec.edge_ops", counters.edge_ops as f64);
    layer.set("exec.sync_ops", counters.sync_ops as f64);
    layer.set("exec.round_busy_s", log.total_s(SPAN_ROUND));
    layer.set("exec.round_p50_us", p50_us(&round_s));
    layer.set("exec.round_p99_us", pct_us(&round_s, 99.0));
    layer.set("exec.submit_p50_us", p50_us(&log.durations_s(SPAN_SUBMIT)));
    // Window time outside step_round: submission plus harness
    // bookkeeping, i.e. the drive span minus the round spans.
    layer.set("exec.idle_s", log.total_s(drive) - log.total_s(SPAN_ROUND));
    layer.set("run.harness_self_s", log.self_s(drive));
    layer.set("exec.span.install_s", event_seconds(events, "install"));
    layer.set("exec.span.push_s", event_seconds(events, "push"));
    let miss_rate = if counters.cache_accesses == 0 {
        0.0
    } else {
        counters.cache_misses as f64 / counters.cache_accesses as f64
    };
    layer.set("memsim.cache_miss_rate", miss_rate);
    layer.set(
        "memsim.bytes_disk_to_mem",
        counters.bytes_disk_to_mem as f64,
    );
    layer.set(
        "memsim.bytes_mem_to_cache",
        counters.bytes_mem_to_cache as f64,
    );
    layer.set("memsim.modeled_s", counters.modeled_s);
}

/// Median microseconds of `PriorityScheduler::plan` over 192 synthetic
/// slots at the benchmark's wavefront width.
pub fn sched_plan_p50_us() -> f64 {
    let mut bench = sut::plan_bench(192, 4);
    let mut samples = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t = Instant::now();
        let picks = sut::plan(&mut bench);
        samples.push(t.elapsed().as_secs_f64());
        std::hint::black_box(picks);
    }
    p50_us(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_rate_ignores_one_stalled_cycle() {
        // Three cycles of four 10 ms operations; the middle one stalls.
        let mut op_s = vec![0.010; 12];
        assert!((cycle_rate(&op_s, 4) - 100.0).abs() < 1e-9);
        op_s[5] = 0.500;
        assert!((cycle_rate(&op_s, 4) - 100.0).abs() < 1e-9);
        // A short last cycle counts at its own rate.
        assert!((cycle_rate(&[0.010; 6], 4) - 100.0).abs() < 1e-9);
    }
}
