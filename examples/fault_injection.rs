//! Fault injection: serving a diurnal trace through a seeded chaos
//! schedule with retries, circuit breakers, and shedding.
//!
//! Builds one snapshot store and serves the same arrival trace three
//! times: clean, under a moderate transient-fault schedule (retries and
//! breakers absorb everything), and under a hostile schedule with a
//! starved retry budget (jobs quarantine and admission sheds — but the
//! serve still drains and every surviving result is bit-identical to
//! the clean run).  The whole schedule is a pure
//! hash of `(seed, boundary, coordinates, attempt)`: re-running this
//! example reproduces every fault, retry, and trip exactly.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use std::sync::Arc;

use cgraph::algos::trace_arrivals;
use cgraph::core::{
    Engine, EngineConfig, FaultConfig, FaultPlane, JobOutcome, ServeConfig, ServeLoop, ServeReport,
};
use cgraph::graph::snapshot::SnapshotStore;
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, Partitioner};
use cgraph::trace::{generate_trace, TraceConfig};

/// Virtual seconds per trace hour (the serving-clock compression).
const SECONDS_PER_HOUR: f64 = 0.02;

/// The reproducible chaos seed: change it, get a different — equally
/// deterministic — storm.
const SEED: u64 = 0xBAD5EED;

fn serve_under(
    store: &Arc<SnapshotStore>,
    trace: &[cgraph::trace::JobSpan],
    faults: FaultConfig,
) -> (ServeReport, Arc<FaultPlane>) {
    let plane = FaultPlane::new(faults);
    let engine = Engine::new(
        Arc::clone(store),
        EngineConfig {
            workers: 2,
            wavefront: 4,
            faults: Some(Arc::clone(&plane)),
            ..EngineConfig::default()
        },
    );
    let mut serve = ServeLoop::new(
        engine,
        ServeConfig {
            admission_window: 0.01,
            time_scale: 1.0,
            // Bounded backlog: offers over this shed instead of queueing.
            max_backlog: 24,
        },
    );
    serve.offer_all(trace_arrivals(trace, SECONDS_PER_HOUR, 64));
    let report = serve.serve();
    (report, plane)
}

fn row(label: &str, r: &ServeReport, plane: &FaultPlane) -> String {
    let s = plane.stats();
    let done = r
        .jobs
        .iter()
        .filter(|j| j.outcome == JobOutcome::Completed)
        .count();
    format!(
        "{label:>9} {:>5} {:>5} {:>5} {:>5} {:>8} {:>9} {:>6} {:>10.2} {:>10.2}",
        r.jobs.len(),
        done,
        r.quarantined,
        r.rejected,
        r.retries,
        s.rerouted,
        s.breaker_trips,
        r.mean_latency() * 1e3,
        r.latency_percentile(99.0) * 1e3,
    )
}

fn main() {
    let edges = generate::rmat(10, 8, generate::RmatParams::default(), 55);
    let parts = VertexCutPartitioner::new(16).partition(&edges);
    let store = Arc::new(SnapshotStore::new(parts));

    let trace = generate_trace(&TraceConfig {
        hours: 6,
        base_rate: 2.0,
        peak_rate: 6.0,
        mean_duration: 1.0,
        seed: 7,
    });
    println!("{} jobs, chaos seed {SEED:#x}\n", trace.len());
    println!(
        "{:>9} {:>5} {:>5} {:>5} {:>5} {:>8} {:>9} {:>6} {:>10} {:>10}",
        "run", "jobs", "done", "quar", "shed", "retries", "rerouted", "trips", "lat ms", "p99 ms",
    );

    // Clean control: an all-zero config makes an inert plane the engine
    // strips at construction — the true no-faults figure.
    let (clean, clean_plane) = serve_under(&store, &trace, FaultConfig::default());
    println!("{}", row("clean", &clean, &clean_plane));

    // Moderate chaos: 8% transient fetch faults plus latency spikes.
    // Four retry attempts with exponential backoff absorb essentially
    // everything; consecutive-fault lanes trip their breaker and reroute
    // at disk-re-fetch pricing until the half-open probe recovers.
    let moderate = FaultConfig {
        seed: SEED,
        fetch_rate: 0.08,
        spike_rate: 0.08,
        spike_seconds: 2e-3,
        ..FaultConfig::default()
    };
    let (faulted, faulted_plane) = serve_under(&store, &trace, moderate);
    println!("{}", row("moderate", &faulted, &faulted_plane));

    // Hostile chaos: a third of fetches fail, some permanently, and the
    // retry budget is starved — quarantines and shedding kick in, and
    // the loop still drains.
    let hostile = FaultConfig {
        seed: SEED,
        fetch_rate: 0.35,
        permanent_rate: 0.05,
        spike_rate: 0.2,
        spike_seconds: 5e-3,
        max_attempts: 2,
        ..FaultConfig::default()
    };
    let (degraded, degraded_plane) = serve_under(&store, &trace, hostile);
    println!("{}", row("hostile", &degraded, &degraded_plane));

    // The degradation contract: offers are never lost, only completed,
    // quarantined, or shed.
    for (label, r) in [
        ("clean", &clean),
        ("moderate", &faulted),
        ("hostile", &degraded),
    ] {
        let done = r
            .jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::Completed)
            .count() as u64;
        assert_eq!(
            done + r.quarantined + r.rejected,
            trace.len() as u64,
            "{label}: every offer must be accounted for"
        );
    }
    let s = degraded_plane.stats();
    println!(
        "\nhostile schedule: {} faults injected, {} retries, {} exhausted, \
         {} spikes, {:.1} ms modeled delay",
        s.injected,
        s.retries,
        s.exhausted,
        s.spikes,
        s.delay_micros as f64 / 1e3,
    );
    println!(
        "degradation: {} quarantined (typed), {} shed at admission, and the serve \
         still drained",
        degraded.quarantined, degraded.rejected,
    );
    println!("\nre-run it: same seed, same storm, bit for bit.");
}
