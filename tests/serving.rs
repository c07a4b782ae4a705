//! The online serving layer: determinism, latency invariants, FIFO
//! degeneration, engines agreeing under mid-run arrivals, and the
//! pinned version-keyed-admission win over FIFO.

use std::sync::Arc;

use cgraph::algos::{trace_arrivals, Bfs, PageRank, Sssp, Wcc};
use cgraph::baselines::{FifoServe, StreamConfig, StreamEngine};
use cgraph::core::{
    Engine, EngineConfig, JobEngine, JobLatency, JobOutcome, ServeConfig, ServeLoop, ServeReport,
};
use cgraph::graph::snapshot::{GraphDelta, SnapshotStore};
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, Edge, Partitioner, ShardCapacity};
use cgraph::trace::{generate_trace, JobSpan, TraceConfig};

/// Virtual seconds per trace hour for the test streams.
const SPH: f64 = 0.02;

/// PageRank accumulates deltas with `+=`, so a different access order
/// legitimately reorders float additions; everything else in the mix is
/// a min/max accumulator and must agree exactly.
fn assert_ranks_close(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (v, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-9 * x.abs().max(1.0),
            "{what}: v{v}: {x} vs {y}"
        );
    }
}

fn store() -> Arc<SnapshotStore> {
    let el = generate::rmat(9, 6, generate::RmatParams::default(), 77);
    Arc::new(SnapshotStore::new(
        VertexCutPartitioner::new(12).partition(&el),
    ))
}

fn trace() -> Vec<JobSpan> {
    generate_trace(&TraceConfig {
        hours: 3,
        base_rate: 2.0,
        peak_rate: 6.0,
        mean_duration: 1.0,
        seed: 0xBEEF,
    })
}

fn serve(store: &Arc<SnapshotStore>, trace: &[JobSpan], window: f64) -> (ServeReport, Engine) {
    let engine = Engine::new(Arc::clone(store), EngineConfig::default());
    let mut sl = ServeLoop::new(
        engine,
        ServeConfig { admission_window: window, time_scale: 1.0, ..ServeConfig::default() },
    );
    sl.offer_all(trace_arrivals(trace, SPH, 64));
    let report = sl.serve();
    (report, sl.into_engine())
}

/// Same trace + seed ⇒ bit-identical serve reports (latencies, loads,
/// waves — everything).
#[test]
fn serving_is_deterministic() {
    let st = store();
    let tr = trace();
    for window in [0.0, 0.02] {
        let (a, _) = serve(&st, &tr, window);
        let (b, _) = serve(&st, &tr, window);
        assert_eq!(a, b, "serve must be fully deterministic at window {window}");
    }
}

/// Every served job obeys the latency ordering: arrival ≤ admission ≤
/// completion, so waits and latencies are non-negative.
#[test]
fn latency_invariants_hold() {
    let st = store();
    let tr = trace();
    for window in [0.0, 0.01, 0.05] {
        let (report, _) = serve(&st, &tr, window);
        assert!(report.completed);
        assert_eq!(report.jobs.len(), tr.len(), "every arrival is served");
        for j in &report.jobs {
            assert!(j.wait() >= 0.0, "{}: wait {}", j.name, j.wait());
            assert!(
                j.completed >= j.admitted,
                "{}: completed {} before admission {}",
                j.name,
                j.completed,
                j.admitted
            );
            assert!(j.latency() >= 0.0);
        }
        // Waves only fire forced: every admission instant must carry at
        // least one job whose deferral had expired (the rest ride).
        let mut instants: Vec<f64> = report.jobs.iter().map(|j| j.admitted).collect();
        instants.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        instants.dedup();
        for t in instants {
            assert!(
                report
                    .jobs
                    .iter()
                    .any(|j| j.admitted == t && j.arrival + window <= t),
                "wave at {t} fired with no expired deferral (window {window})"
            );
        }
        assert!(report.makespan > 0.0);
        assert!(report.throughput() > 0.0);
        assert!(report.latency_percentile(99.0) >= report.latency_percentile(50.0));
    }
}

/// `admission_window = 0` degenerates to FIFO: a hand-rolled
/// submit-on-arrival driver over `step_round` produces the identical
/// load count and identical results.
#[test]
fn window_zero_degenerates_to_fifo() {
    let st = store();
    let tr = trace();
    let (report, served_engine) = serve(&st, &tr, 0.0);

    // Hand-rolled FIFO: admit everything due, run one round, repeat.
    let mut engine = Engine::new(Arc::clone(&st), EngineConfig::default());
    let mut arrivals = trace_arrivals::<Engine>(&tr, SPH, 64);
    arrivals.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite"));
    let mut pending = arrivals.into_iter().peekable();
    let mut clock = 0.0f64;
    loop {
        while pending.peek().is_some_and(|a| a.at <= clock) {
            let a = pending.next().expect("peeked");
            let ts = a.bind_timestamp();
            a.submit(&mut engine, ts);
        }
        let before = engine.pipeline_seconds();
        if engine.step_round() {
            clock += engine.pipeline_seconds() - before;
            continue;
        }
        match pending.peek() {
            Some(a) => clock = clock.max(a.at),
            None => break,
        }
    }
    assert_eq!(report.loads, engine.total_loads(), "FIFO load-for-load");
    for j in 0..tr.len() as u32 {
        assert_eq!(
            served_engine.job_iterations(j),
            engine.job_iterations(j),
            "job {j} iteration count"
        );
    }
}

/// Jobs arriving mid-run produce identical algorithm results at every
/// admission window and on the streaming FIFO baseline — admission
/// changes latency and sharing, never results (binding is by arrival).
#[test]
fn engines_agree_under_mid_run_arrivals() {
    let st = store();
    // A fixed four-kind burst with staggered arrivals keeps the typed
    // result extraction simple: trace order is PageRank, SSSP, WCC, BFS.
    let tr: Vec<JobSpan> = (0..8)
        .map(|i| JobSpan {
            submit_hour: i as f64 * 0.2,
            end_hour: i as f64 * 0.2 + 1.0,
            kind: cgraph::trace::JobKind::ROTATION[i % 4],
        })
        .collect();
    let (_, fifo) = serve(&st, &tr, 0.0);
    let (_, windowed) = serve(&st, &tr, 0.05);
    let mut stream = FifoServe::new(
        StreamEngine::new(Arc::clone(&st), StreamConfig::default()),
        1.0,
    );
    stream.offer_all(trace_arrivals(&tr, SPH, 64));
    stream.serve();
    let stream = stream.into_engine();

    for base in [0u32, 4] {
        let pr = fifo.results::<PageRank>(base).unwrap();
        assert_ranks_close(
            &pr,
            &windowed.results::<PageRank>(base).unwrap(),
            "windowed",
        );
        assert_ranks_close(&pr, &stream.results::<PageRank>(base).unwrap(), "stream");
        let ss = fifo.results::<Sssp>(base + 1).unwrap();
        assert_eq!(ss, windowed.results::<Sssp>(base + 1).unwrap());
        assert_eq!(ss, stream.results::<Sssp>(base + 1).unwrap());
        let wc = fifo.results::<Wcc>(base + 2).unwrap();
        assert_eq!(wc, windowed.results::<Wcc>(base + 2).unwrap());
        assert_eq!(wc, stream.results::<Wcc>(base + 2).unwrap());
        let bf = fifo.results::<Bfs>(base + 3).unwrap();
        assert_eq!(bf, windowed.results::<Bfs>(base + 3).unwrap());
        assert_eq!(bf, stream.results::<Bfs>(base + 3).unwrap());
    }
}

/// Binding is by *arrival*, not admission: on an evolving store, a job
/// arriving after a snapshot observes it even when a wide window delays
/// its execution, and a job arriving before never does.
#[test]
fn deferred_jobs_keep_their_arrival_snapshot() {
    let el = generate::cycle(32);
    let mut st = SnapshotStore::new(VertexCutPartitioner::new(8).partition(&el));
    // Snapshot at virtual-second 1 (bind key 1): shortcut edge 0→16.
    st.apply(1, &GraphDelta::adding([Edge::unit(0, 16)]))
        .unwrap();
    let st = Arc::new(st);
    // Two BFS jobs from vertex 0: one arrives before the snapshot, one
    // after; both defer in a wide window.
    let tr = [
        JobSpan { submit_hour: 0.0, end_hour: 1.0, kind: cgraph::trace::JobKind::Bfs },
        JobSpan { submit_hour: 2.0, end_hour: 3.0, kind: cgraph::trace::JobKind::Bfs },
    ];
    // 1 trace hour = 1 virtual second here so arrivals land at ts 0 and 2.
    let (report, engine) = {
        let e = Engine::new(Arc::clone(&st), EngineConfig::default());
        let mut sl = ServeLoop::new(
            e,
            ServeConfig { admission_window: 10.0, time_scale: 1.0, ..ServeConfig::default() },
        );
        sl.offer_all(trace_arrivals(&tr, 1.0, 1));
        let r = sl.serve();
        (r, sl.into_engine())
    };
    assert_eq!(report.jobs.len(), 2);
    let before = engine.results::<Bfs>(0).unwrap();
    let after = engine.results::<Bfs>(1).unwrap();
    assert_eq!(before[16], 16, "pre-snapshot job never sees the shortcut");
    assert_eq!(after[16], 1, "post-snapshot job binds the new snapshot");
}

/// The acceptance pin: on a `generate_trace` workload, version-keyed
/// admission with a nonzero window beats FIFO admission (window 0) by
/// at least 10% in spared partition loads.
#[test]
fn windowed_admission_spares_at_least_10_percent_of_loads() {
    let st = store();
    let tr = trace();
    let (fifo, _) = serve(&st, &tr, 0.0);
    let (windowed, _) = serve(&st, &tr, 0.02);
    assert_eq!(fifo.jobs.len(), windowed.jobs.len());
    let spared = windowed.spared_loads_vs(&fifo);
    assert!(
        spared >= 0.10,
        "windowed admission must spare ≥10% of FIFO's loads: {} vs {} ({:.1}%)",
        windowed.loads,
        fifo.loads,
        spared * 100.0
    );
    // The tradeoff is real: batching defers execution, so waits grow.
    assert!(windowed.mean_wait() >= fifo.mean_wait());
}

/// The engine's `max_loads` valve applies while serving too: serving
/// stops between rounds once the budget is spent, reports
/// `completed = false`, and keeps unadmitted arrivals queued.
#[test]
fn serve_honors_max_loads_valve() {
    let st = store();
    let tr = trace();
    let engine = Engine::new(
        Arc::clone(&st),
        EngineConfig { max_loads: 20, ..EngineConfig::default() },
    );
    let mut sl = ServeLoop::new(
        engine,
        ServeConfig { admission_window: 0.0, time_scale: 1.0, ..ServeConfig::default() },
    );
    sl.offer_all(trace_arrivals(&tr, SPH, 64));
    let report = sl.serve();
    assert!(!report.completed, "valve must truncate this stream");
    assert!(report.loads >= 20, "valve trips only after the budget");
    assert!(
        report.loads < 100,
        "a tripped valve must stop promptly: {} loads",
        report.loads
    );
    for j in &report.jobs {
        assert!(j.completed.is_finite(), "truncated jobs still resolve");
    }
}

/// The CGraph serving layer also spares loads against the streaming
/// FIFO baseline, which shares cache residency but never loads.
#[test]
fn serving_beats_stream_fifo_denominator() {
    let st = store();
    let tr = trace();
    let (windowed, _) = serve(&st, &tr, 0.02);
    let mut stream = FifoServe::new(
        StreamEngine::new(Arc::clone(&st), StreamConfig::default()),
        1.0,
    );
    stream.offer_all(trace_arrivals(&tr, SPH, 64));
    let baseline = stream.serve();
    assert_eq!(baseline.jobs.len(), windowed.jobs.len());
    assert!(
        windowed.spared_loads_vs(&baseline) > 0.10,
        "CGraph serving {} loads vs stream FIFO {}",
        windowed.loads,
        baseline.loads
    );
}

/// Capacity is transparent to execution on an evolving store with jobs
/// bound to old and new snapshots: a capacity-tight store serves
/// bit-identical results on the same schedule as an unlimited one,
/// while pricing its spill re-fetches — so only the disk traffic
/// counter moves, by exactly the spill bytes.
#[test]
fn capacity_serves_identically() {
    let el = generate::rmat(9, 6, generate::RmatParams::default(), 77);
    let ps = VertexCutPartitioner::new(12).partition(&el);
    let evolve = |st: &mut SnapshotStore| {
        for i in 1..=10u64 {
            let k = i as u32;
            // Repeatedly re-override the same few partitions (vertices
            // 0..96 span ~2 of the 12) so pre-checkpoint records hold
            // *stale* versions — the only state capacity can spill:
            // payloads a checkpoint still shares never leave residency.
            let (s, d) = (
                k.wrapping_mul(7) % 96,
                k.wrapping_mul(13).wrapping_add(1) % 96,
            );
            st.apply(
                i,
                &GraphDelta::adding([Edge::unit(s, if d == s { d + 1 } else { d })]),
            )
            .unwrap();
        }
    };
    let run = |capacity: ShardCapacity| {
        let mut st = SnapshotStore::with_shards(ps.clone(), 4)
            .with_compaction(cgraph::graph::CompactionPolicy::EveryK(3))
            .with_capacity(capacity);
        evolve(&mut st);
        let mut e = Engine::new(
            Arc::new(st),
            EngineConfig { wavefront: 2, prefetch_depth: 1, ..EngineConfig::default() },
        );
        // One job bound mid-stream (its historical walks reach spilled
        // pre-checkpoint records; the very first record often stays
        // resident — its payload may still anchor the newest
        // checkpoint), one on the latest.
        let old = e.submit_at(Bfs::new(0), 5);
        let new = e.submit_program(Bfs::new(3));
        let report = e.run();
        assert!(report.completed);
        (
            (
                e.results::<Bfs>(old).unwrap(),
                e.results::<Bfs>(new).unwrap(),
            ),
            report.metrics,
            report.loads,
            e.spill_fetch_bytes().iter().sum::<u64>(),
        )
    };
    let (res_free, m_free, loads_free, spill_free) = run(ShardCapacity::UNLIMITED);
    assert_eq!(spill_free, 0, "unlimited capacity never spills");
    // Tight capacity: same results and schedule, but historic reads of
    // spilled records now carry a priced re-fetch.
    let (res, m, loads, spill) = run(ShardCapacity::bytes(4096));
    assert_eq!(res_free, res, "capacity is cost, never results");
    assert_eq!(loads_free, loads);
    assert!(spill > 0, "tight capacity must price spill re-fetches");
    assert_eq!(
        m.bytes_disk_to_mem,
        m_free.bytes_disk_to_mem + spill,
        "spill re-fetches are exactly the extra disk traffic"
    );
}

/// A killed serving loop resumes mid-trace through its completion
/// journal: re-offering the same trace skips every job a previous
/// incarnation genuinely finished (zero re-runs, zero double-charged
/// engine work), replays a torn journal tail safely, and the combined
/// report covers the whole trace exactly once.
#[test]
fn killed_serve_loop_resumes_without_rerunning_finished_jobs() {
    use cgraph::graph::fault;

    let st = store();
    let tr = trace();
    let dir = std::env::temp_dir().join(format!("cgraph-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.seg");
    let cfg = ServeConfig { admission_window: 0.0, time_scale: 1.0, ..ServeConfig::default() };

    // Reference: one uninterrupted serve, no journal.
    let (full, _) = serve(&st, &tr, 0.0);

    // A journal over a fresh file must not perturb serving at all.
    {
        let probe = dir.join("probe.seg");
        let engine = Engine::new(Arc::clone(&st), EngineConfig::default());
        let mut sl = ServeLoop::with_journal(engine, cfg, &probe).unwrap();
        sl.offer_all(trace_arrivals(&tr, SPH, 64));
        let report = sl.serve();
        assert!(sl.journal_error().is_none());
        assert_eq!(sl.resumed(), 0);
        assert_eq!(report, full, "journaling must be invisible to the schedule");
    }

    // Incarnation 1: the load valve kills the loop mid-trace.
    let engine = Engine::new(
        Arc::clone(&st),
        EngineConfig { max_loads: full.loads / 2, ..EngineConfig::default() },
    );
    let mut sl = ServeLoop::with_journal(engine, cfg, &path).unwrap();
    sl.offer_all(trace_arrivals(&tr, SPH, 64));
    let first = sl.serve();
    assert!(!first.completed, "the valve must truncate this serve");
    assert!(sl.journal_error().is_none());
    drop(sl);

    // The kill may land mid-append: chop into the journal's last frame.
    // The torn tail must be truncated away on reopen — that one job
    // simply re-runs (it was never acknowledged durable).
    let len = fault::file_len(&path).unwrap();
    fault::truncate_at(&path, len - 3).unwrap();

    // Incarnation 2: fresh engine, same journal, same trace re-offered.
    let engine = Engine::new(Arc::clone(&st), EngineConfig::default());
    let mut sl = ServeLoop::with_journal(engine, cfg, &path).unwrap();
    sl.offer_all(trace_arrivals(&tr, SPH, 64));
    let resumed = sl.resumed() as usize;
    assert!(
        resumed > 0 && resumed < tr.len(),
        "valve must land mid-trace (resumed {resumed} of {})",
        tr.len()
    );
    let second = sl.serve();
    assert!(second.completed, "restart must finish the trace");
    assert!(sl.journal_error().is_none());
    assert_eq!(
        second.jobs.len(),
        tr.len(),
        "combined report covers the whole trace exactly once"
    );
    assert_eq!(
        resumed + sl.engine().num_jobs(),
        tr.len(),
        "no journaled job may be resubmitted (double-charged) after restart"
    );

    // Every resumed lifecycle is reported verbatim from incarnation 1.
    for replayed in &second.jobs[..resumed] {
        assert!(
            first.jobs.iter().any(|j| {
                j.name == replayed.name
                    && j.arrival == replayed.arrival
                    && j.admitted == replayed.admitted
                    && j.completed == replayed.completed
            }),
            "resumed job {replayed:?} must match a first-incarnation completion"
        );
    }

    // Serving again over the finished journal is a pure replay: nothing
    // admitted, nothing executed.
    let engine = Engine::new(Arc::clone(&st), EngineConfig::default());
    let mut sl = ServeLoop::with_journal(engine, cfg, &path).unwrap();
    sl.offer_all(trace_arrivals(&tr, SPH, 64));
    assert_eq!(sl.resumed() as usize, tr.len(), "whole trace journaled");
    let third = sl.serve();
    assert_eq!(third.jobs.len(), tr.len());
    assert_eq!(sl.engine().num_jobs(), 0, "pure replay runs no engine work");
    assert_eq!(third.loads, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression (ISSUE 10 satellite): latency statistics must be computed
/// over **completed** rows only.  A quarantined or truncated job's
/// `completed` field is the quarantine/stop clock — treating it as a
/// real completion silently skews means and percentiles (here the
/// quarantined row's stamp would dominate every percentile).
#[test]
fn latency_stats_exclude_quarantined_and_truncated_rows() {
    let row = |job, latency: f64, outcome| JobLatency {
        job,
        name: "row",
        arrival: 0.0,
        admitted: latency / 2.0,
        completed: latency,
        outcome,
    };
    let jobs = vec![
        row(0, 1.0, JobOutcome::Completed),
        row(1, 2.0, JobOutcome::Completed),
        row(2, 3.0, JobOutcome::Completed),
        row(3, 1000.0, JobOutcome::Quarantined),
        row(4, 500.0, JobOutcome::Truncated),
    ];
    let report = ServeReport::new("test", 0.0, jobs, 1, 1, 0, 0.0, false);

    assert_eq!(report.mean_latency(), 2.0, "mean over completed rows only");
    assert_eq!(report.mean_wait(), 1.0, "wait over completed rows only");
    assert_eq!(report.latency_percentile(50.0), 2.0);
    assert_eq!(
        report.latency_percentile(99.0),
        3.0,
        "p99 must not see the quarantine stamp"
    );

    // No completed rows at all: every statistic is 0, never a stale
    // stamp and never a divide-by-zero.
    let report = ServeReport::new(
        "test",
        0.0,
        vec![row(0, 7.0, JobOutcome::Quarantined)],
        1,
        1,
        0,
        0.0,
        false,
    );
    assert_eq!(report.mean_latency(), 0.0);
    assert_eq!(report.mean_wait(), 0.0);
    assert_eq!(report.latency_percentile(99.0), 0.0);
}
