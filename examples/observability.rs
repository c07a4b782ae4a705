//! Observability: a fully traced serve run, exported three ways.
//!
//! Runs the diurnal arrival stream from the `serving` example with a
//! live [`Observer`](cgraph::core::Observer) attached to both layers —
//! the engine/serve loop (via `EngineConfig::observer`) and the
//! snapshot store (via the `StoreObserver` bridge) — then exports:
//!
//! * `trace.json` — Chrome `trace_event` JSON; load it in
//!   `about://tracing` or <https://ui.perfetto.dev> to see the
//!   install/trigger/push spans per thread,
//! * `trace.jsonl` — the same events one-per-line for grep/jq,
//! * `metrics.json` — the one-call registry snapshot (counters,
//!   gauges, per-stage histograms with p50/p90/p99),
//!
//! and prints the Prometheus text page plus a short digest.  The
//! observer is strictly read-only: rerun with `Observer::disabled()`
//! (or no observer at all) and every result bit is identical.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use std::sync::Arc;

use cgraph::algos::trace_arrivals;
use cgraph::core::{Engine, EngineConfig, Observer, ServeConfig, ServeLoop};
use cgraph::graph::snapshot::SnapshotStore;
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, Partitioner};
use cgraph::trace::{generate_trace, TraceConfig};

/// Virtual seconds per trace hour (same clock as the `serving` example).
const SECONDS_PER_HOUR: f64 = 0.02;

fn main() {
    let obs = Observer::enabled();

    let edges = generate::rmat(11, 8, generate::RmatParams::default(), 55);
    let parts = VertexCutPartitioner::new(24).partition(&edges);
    let store = Arc::new(SnapshotStore::new(parts).with_observer(obs.store_observer()));

    let trace = generate_trace(&TraceConfig {
        hours: 6,
        base_rate: 2.0,
        peak_rate: 6.0,
        mean_duration: 1.0,
        seed: 7,
    });

    let engine = Engine::new(
        Arc::clone(&store),
        EngineConfig {
            workers: 2,
            wavefront: 4,
            observer: Some(Arc::clone(&obs)),
            ..EngineConfig::default()
        },
    );
    let mut serve = ServeLoop::new(
        engine,
        ServeConfig { admission_window: 0.01, time_scale: 1.0, ..ServeConfig::default() },
    );
    serve.offer_all(trace_arrivals(&trace, SECONDS_PER_HOUR, 64));
    let report = serve.serve();
    println!(
        "served {} jobs in {} rounds / {} waves ({} partition loads)",
        report.jobs.len(),
        report.rounds,
        report.waves,
        report.loads,
    );

    // Drain every per-thread ring into one timestamp-sorted dump and
    // export it both ways.
    let dump = obs.dump();
    std::fs::write("trace.json", dump.chrome_json()).expect("write trace.json");
    std::fs::write("trace.jsonl", dump.jsonl()).expect("write trace.jsonl");
    std::fs::write("metrics.json", obs.registry().metrics_json()).expect("write metrics.json");
    println!(
        "captured {} events across {} threads ({} dropped to ring overflow)",
        dump.events.len(),
        dump.threads.len(),
        obs.dropped_events(),
    );
    println!(
        "wrote trace.json + trace.jsonl (load trace.json in about://tracing \
         or ui.perfetto.dev) and metrics.json\n"
    );

    println!("--- prometheus text page ---");
    print!("{}", obs.registry().prometheus_text());

    let hist = |name: &str| obs.registry().histogram(name);
    let waits = hist("serve_queue_wait_us");
    let installs = hist("install_us");
    println!("\n--- digest ---");
    println!(
        "queue wait: {} samples, p50 {} us, p99 {} us, max {} us",
        waits.count(),
        waits.quantile(0.5),
        waits.quantile(0.99),
        waits.max(),
    );
    println!(
        "slot install: {} samples, p50 {} us, p99 {} us",
        installs.count(),
        installs.quantile(0.5),
        installs.quantile(0.99),
    );
}
