//! Online serving: a diurnal arrival stream through the admission-
//! controlled serve loop.
//!
//! Generates a multi-tenant job trace (`cgraph::trace`), compresses it
//! onto the serving clock, and serves it three ways: FIFO admission
//! (window 0), version-keyed wave batching at two windows, and the
//! streaming-baseline FIFO denominator.  Wider admission windows trade
//! queue latency for aligned starts — jobs admitted in one wave share
//! every partition load from round one, which is where the spared-loads
//! column comes from.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use std::sync::Arc;

use cgraph::algos::trace_arrivals;
use cgraph::baselines::{FifoServe, StreamConfig, StreamEngine};
use cgraph::core::{Engine, EngineConfig, ServeConfig, ServeLoop, ServeReport};
use cgraph::graph::snapshot::SnapshotStore;
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, Partitioner};
use cgraph::trace::{generate_trace, TraceConfig};

/// Virtual seconds per trace hour: the week-scale trace compressed onto
/// the millisecond-scale modeled execution clock.
const SECONDS_PER_HOUR: f64 = 0.02;

fn row(label: &str, r: &ServeReport) -> String {
    format!(
        "{label:>14} {:>5} {:>8.1} {:>12.2} {:>12.2} {:>11.2} {:>11.2} {:>6} {:>7} {:>7}",
        r.jobs.len(),
        r.throughput(),
        r.mean_wait() * 1e3,
        r.mean_latency() * 1e3,
        r.latency_percentile(99.0) * 1e3,
        r.makespan * 1e3,
        r.waves,
        r.rounds,
        r.loads,
    )
}

fn main() {
    let edges = generate::rmat(11, 8, generate::RmatParams::default(), 55);
    let parts = VertexCutPartitioner::new(24).partition(&edges);
    let store = Arc::new(SnapshotStore::new(parts));

    let trace = generate_trace(&TraceConfig {
        hours: 6,
        base_rate: 2.0,
        peak_rate: 6.0,
        mean_duration: 1.0,
        seed: 7,
    });
    println!(
        "{} jobs over {} trace hours ({} virtual ms)\n",
        trace.len(),
        6,
        6.0 * SECONDS_PER_HOUR * 1e3
    );
    println!(
        "{:>14} {:>5} {:>8} {:>12} {:>12} {:>11} {:>11} {:>6} {:>7} {:>7}",
        "admission",
        "jobs",
        "jobs/s",
        "mean wait ms",
        "mean lat ms",
        "p99 lat ms",
        "makespan ms",
        "waves",
        "rounds",
        "loads"
    );

    let mut fifo_loads = 0;
    let mut widest: Option<ServeReport> = None;
    for window in [0.0, 0.01, 0.05] {
        let engine = Engine::new(Arc::clone(&store), EngineConfig::default());
        let mut serve = ServeLoop::new(
            engine,
            ServeConfig { admission_window: window, time_scale: 1.0, ..ServeConfig::default() },
        );
        serve.offer_all(trace_arrivals(&trace, SECONDS_PER_HOUR, 64));
        let report = serve.serve();
        let label = if window == 0.0 {
            fifo_loads = report.loads;
            "FIFO (w=0)".to_string()
        } else {
            format!(
                "w={:.0}ms (-{:.0}%)",
                window * 1e3,
                (1.0 - report.loads as f64 / fifo_loads as f64) * 100.0
            )
        };
        println!("{}", row(&label, &report));
        widest = Some(report);
    }

    let stream = StreamEngine::new(Arc::clone(&store), StreamConfig::default());
    let mut baseline = FifoServe::new(stream, 1.0);
    baseline.offer_all(trace_arrivals(&trace, SECONDS_PER_HOUR, 64));
    println!("{}", row("stream-fifo", &baseline.serve()));

    // The per-job view behind the aggregates: the widest window's five
    // longest waits, straight from `ServeReport::jobs`.
    let widest = widest.expect("the window loop served at least once");
    let mut jobs = widest.jobs.clone();
    jobs.sort_by(|a, b| b.wait().partial_cmp(&a.wait()).expect("finite waits"));
    println!(
        "\nlongest queue waits at w={:.0}ms ({}):",
        widest.admission_window * 1e3,
        if widest.completed {
            "completed"
        } else {
            "truncated"
        },
    );
    for j in jobs.iter().take(5) {
        println!(
            "  job {:>3} {:>9}  arrived {:>6.2} ms  waited {:>5.2} ms  latency {:>6.2} ms",
            j.job,
            j.name,
            j.arrival * 1e3,
            j.wait() * 1e3,
            j.latency() * 1e3,
        );
    }

    println!(
        "\njobs admitted in one wave start aligned and share every partition\n\
         load from round one; a wider window coalesces more arrivals per wave\n\
         (fewer loads) at the cost of queue wait (higher latency)."
    );
}
