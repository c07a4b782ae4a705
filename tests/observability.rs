//! Observability differential + schema suite.
//!
//! Five guarantees, per the `core::obs` contract:
//!
//! 1. **Read-only tracing** — running the executor-stress configs and a
//!    serve loop with a live [`Observer`] changes no result bit, no
//!    traffic counter, and no modeled-seconds bit versus the disabled
//!    (and absent) observer.
//! 2. **Trace order** — the same traced runs obey the round pipeline's
//!    ordering rules ([`trace_order_violation`]): no install and no
//!    trigger chunk of a round runs into that round's Push, no chunk
//!    starts before its round's installs are done, and no job triggers
//!    one partition twice in a round.
//! 3. **Histogram honesty** — log-bucketed quantiles stay within the
//!    documented `[oracle, oracle * (1 + 1/16)]` envelope of the exact
//!    nearest-rank quantile, under proptest.
//! 4. **Bounded rings** — overflow drops the *oldest* events, keeps the
//!    newest, and reports the loss through `dropped_events()` and the
//!    trace export rather than silently.
//! 5. **Export schemas** — Chrome `trace_event` JSON, JSONL, and the
//!    metrics snapshot all round-trip through the strict JSON parser
//!    with the fields dashboards and `about://tracing` rely on.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use cgraph::algos::{trace_arrivals, Bfs, Reachability, Sssp, Wcc};
use cgraph::core::obs::{parse_json, Event, EventKind, Histogram, JsonValue, NONE};
use cgraph::core::{Engine, EngineConfig, Observer, ServeConfig, ServeLoop, ServeReport};
use cgraph::graph::snapshot::SnapshotStore;
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, Partitioner};
use cgraph::memsim::{HierarchyConfig, Metrics};
use cgraph::trace::{generate_trace, TraceConfig};
use cgraph_bench::ingest_stream_spread;

/// The executor-stress store: a 4-shard evolving chain so waves mix
/// snapshot versions and spread across I/O lanes.
fn shared_store() -> Arc<SnapshotStore> {
    let el = generate::rmat(9, 4, generate::RmatParams::default(), 2024);
    let n = el.num_vertices();
    let ps = VertexCutPartitioner::new(16).partition(&el);
    let mut store = SnapshotStore::with_shards(ps, 4);
    for (i, delta) in ingest_stream_spread(n, 24, 48, 4).iter().enumerate() {
        store
            .apply((i as u64 + 1) * 10, delta)
            .expect("evolving delta applies");
    }
    Arc::new(store)
}

fn tight_hierarchy(store: &Arc<SnapshotStore>) -> HierarchyConfig {
    let view = store.base_view();
    let total: u64 = (0..view.num_partitions() as u32)
        .map(|pid| view.partition(pid).structure_bytes())
        .sum();
    HierarchyConfig { cache_bytes: (total / 4).max(1), memory_bytes: total * 4 }
}

/// Everything a run can observe, flattened for exact comparison (same
/// digest as `tests/executor_stress.rs`).
#[derive(PartialEq, Debug)]
struct RunDigest {
    bfs: Vec<u32>,
    sssp: Vec<f32>,
    wcc: Vec<u32>,
    reach: Vec<bool>,
    loads: u64,
    metrics: Metrics,
    modeled_bits: u64,
}

fn run_cfg(
    store: &Arc<SnapshotStore>,
    workers: usize,
    depth: usize,
    observer: Option<Arc<Observer>>,
) -> RunDigest {
    let mut engine = Engine::new(
        Arc::clone(store),
        EngineConfig {
            workers,
            wavefront: 4,
            prefetch_depth: depth,
            hierarchy: tight_hierarchy(store),
            observer,
            ..EngineConfig::default()
        },
    );
    let bfs = engine.submit_at(Bfs::new(0), 0);
    let sssp = engine.submit_at(Sssp::new(1), 50);
    let wcc = engine.submit_at(Wcc, 120);
    let reach = engine.submit_at(Reachability::new(0), 180);
    let report = engine.run();
    assert!(report.completed, "stress run must converge");
    RunDigest {
        bfs: engine.results::<Bfs>(bfs).unwrap(),
        sssp: engine.results::<Sssp>(sssp).unwrap(),
        wcc: engine.results::<Wcc>(wcc).unwrap(),
        reach: engine.results::<Reachability>(reach).unwrap(),
        loads: report.loads,
        metrics: report.metrics,
        modeled_bits: report.modeled_seconds.to_bits(),
    }
}

/// The trace-order oracle for the round pipeline.  Each rule matches
/// an event, opens a context, and forbids a follow-up inside it:
///
/// 1. an `install` of round *r* opens "round *r* is installing": that
///    round's `push` may not start until the install has ended;
/// 2. a `trigger_chunk` opens "a chunk is running": the first `push`
///    starting after the chunk may not start until it has ended.  This
///    rule works on timestamps alone, across rounds, so it stays
///    meaningful if Push or the drain ever moves off the calling thread;
/// 3. a `trigger_chunk` of round *r* belongs to that round's drain: it
///    may not start before round *r*'s last `install` has ended, and
///    must end before round *r*'s `push` starts;
/// 4. a `trigger_chunk` of round *r* for job *j* over partition *p*
///    opens "*j* has processed *p* in round *r*": no second
///    `trigger_chunk` of the same round, job and partition may follow.
///
/// A round with no `push` (one that failed before its tail) closes
/// nothing.  Returns the first violation, naming its rule.
fn trace_order_violation(events: &[Event]) -> Option<String> {
    let end = |e: &Event| e.start_ns + e.dur_ns;
    let mut push_start_of = HashMap::new();
    let mut install_end_of = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Push => {
                push_start_of.insert(e.round, e.start_ns);
            }
            EventKind::Install => {
                let last = install_end_of.entry(e.round).or_insert(0);
                *last = end(e).max(*last);
            }
            _ => {}
        }
    }
    let mut push_starts: Vec<u64> = push_start_of.values().copied().collect();
    push_starts.sort_unstable();
    let mut triggered = HashSet::new();
    for e in events {
        let push_start = push_start_of.get(&e.round).copied();
        match e.kind {
            EventKind::Install if push_start.is_some_and(|p| end(e) > p) => {
                return Some(format!("rule 1: install {e:?} overlaps its push"));
            }
            EventKind::TriggerChunk => {
                let next = push_starts.partition_point(|&start| start <= e.start_ns);
                if let Some(&push_start) = push_starts.get(next).filter(|&&p| end(e) > p) {
                    return Some(format!(
                        "rule 2: chunk {e:?} runs past a push at {push_start}"
                    ));
                }
                if install_end_of
                    .get(&e.round)
                    .is_some_and(|&installed| e.start_ns < installed)
                {
                    return Some(format!(
                        "rule 3: chunk {e:?} starts before its round installed"
                    ));
                }
                if push_start.is_some_and(|p| end(e) > p) {
                    return Some(format!("rule 3: chunk {e:?} runs into its round's push"));
                }
                if !triggered.insert((e.round, e.job, e.shard)) {
                    return Some(format!(
                        "rule 4: chunk {e:?} triggers its job's partition twice in a round"
                    ));
                }
            }
            _ => {}
        }
    }
    None
}

/// Checks [`trace_order_violation`] on a drained dump that lost nothing.
fn assert_trace_order(dump: &cgraph::core::TraceDump, what: &str) {
    assert_eq!(
        dump.dropped_events, 0,
        "{what}: the oracle needs every event"
    );
    if let Some(violation) = trace_order_violation(&dump.events) {
        panic!("{what}: {violation}");
    }
}

#[test]
fn trace_order_rules_each_reject_a_hand_built_bad_trace() {
    let event = |kind, round, start_ns, dur_ns| Event {
        kind,
        thread: 0,
        job: NONE,
        shard: NONE,
        round,
        start_ns,
        dur_ns,
        value: 0,
    };
    let good = vec![
        event(EventKind::Install, 0, 100, 50),
        event(EventKind::TriggerChunk, 0, 160, 30),
        event(EventKind::Push, 0, 200, 10),
        event(EventKind::Install, 1, 220, 10),
        event(EventKind::TriggerChunk, 1, 232, 5),
        event(EventKind::Push, 1, 240, 10),
    ];
    assert_eq!(trace_order_violation(&good), None);

    // Rule 1: round 1's install is still running when its push starts.
    let mut bad = good.clone();
    bad[3].dur_ns = 30;
    let violation = trace_order_violation(&bad).expect("rule 1 must fire");
    assert!(violation.starts_with("rule 1"), "{violation}");

    // Rule 2: a chunk started before round 0's push and outlives it.
    let mut bad = good.clone();
    bad[1].dur_ns = 90;
    let violation = trace_order_violation(&bad).expect("rule 2 must fire");
    assert!(violation.starts_with("rule 2"), "{violation}");

    // Rule 3: round 1's chunk starts while its install is still running,
    // though it ends well before any push.
    let mut bad = good.clone();
    bad[4].start_ns = 225;
    let violation = trace_order_violation(&bad).expect("rule 3 must fire");
    assert!(violation.starts_with("rule 3"), "{violation}");

    // Rule 4: round 1 triggers the same job's partition a second time,
    // inside the round's drain window.
    let mut bad = good;
    bad.insert(5, event(EventKind::TriggerChunk, 1, 237, 2));
    let violation = trace_order_violation(&bad).expect("rule 4 must fire");
    assert!(violation.starts_with("rule 4"), "{violation}");
}

#[test]
fn tracing_changes_no_bit_on_executor_stress_configs() {
    let store = shared_store();
    for depth in [0usize, 2, 4] {
        for workers in [2usize, 4] {
            let plain = run_cfg(&store, workers, depth, None);
            let disabled = run_cfg(&store, workers, depth, Some(Observer::disabled()));
            let traced_obs = Observer::enabled();
            let traced = run_cfg(&store, workers, depth, Some(Arc::clone(&traced_obs)));
            let what = format!("workers={workers} depth={depth}");
            assert_eq!(plain, disabled, "{what}: disabled observer diverged");
            assert_eq!(plain, traced, "{what}: live observer diverged");
            // The traced run must actually have traced: spans in the
            // rings, metrics in the registry.
            let dump = traced_obs.dump();
            assert!(!dump.events.is_empty(), "{what}: no events captured");
            assert!(dump.events.iter().any(|e| e.kind == EventKind::Install));
            assert!(traced_obs.registry().counter("rounds").get() > 0);
            // Per-chunk spans come from the trigger ring and nowhere else.
            let chunk_threads: Vec<&str> = dump
                .events
                .iter()
                .filter(|e| e.kind == EventKind::TriggerChunk)
                .map(|e| dump.threads[e.thread as usize].as_str())
                .collect();
            assert!(!chunk_threads.is_empty(), "{what}: no per-chunk spans");
            assert!(
                chunk_threads.iter().all(|&name| name == "cgraph-trigger"),
                "{what}: a chunk span from outside the trigger ring"
            );
            assert_trace_order(&dump, &what);
        }
    }
}

/// The replica-plan counters sit where the decisions are: one build for
/// the first job bound to a view, one hit for each job that shares it,
/// and Push reports its mirror fan-out — none of it without an observer.
#[test]
fn twelve_jobs_on_one_view_build_one_replica_plan() {
    let counters = |observer: Option<Arc<Observer>>| {
        let config = EngineConfig { observer, ..EngineConfig::default() };
        let mut engine = Engine::new(shared_store(), config);
        for src in 0..12 {
            engine.submit(Bfs::new(src));
        }
        assert!(engine.run().completed);
        let sync_ops = engine.metrics().sync_ops;
        let get = |name: &str| engine.observer().registry().counter(name).get();
        (
            get("replica_plan_builds"),
            get("replica_plan_hits"),
            get("push_mirror_records"),
            sync_ops,
        )
    };
    let (builds, hits, mirror_records, sync_ops) = counters(Some(Observer::enabled()));
    assert_eq!((builds, hits), (1, 11));
    assert!(mirror_records > 0, "BFS from 12 sources crosses partitions");
    assert!(
        mirror_records < sync_ops,
        "mirror records are part of sync_ops"
    );
    assert_eq!(counters(None), (0, 0, 0, sync_ops));
    assert_eq!(counters(Some(Observer::disabled())), (0, 0, 0, sync_ops));
}

fn serve_report(store: &Arc<SnapshotStore>, observer: Option<Arc<Observer>>) -> ServeReport {
    let trace = generate_trace(&TraceConfig {
        hours: 4,
        base_rate: 2.0,
        peak_rate: 6.0,
        mean_duration: 1.0,
        seed: 99,
    });
    let engine = Engine::new(
        Arc::clone(store),
        EngineConfig {
            workers: 2,
            wavefront: 4,
            hierarchy: tight_hierarchy(store),
            observer,
            ..EngineConfig::default()
        },
    );
    let mut serve = ServeLoop::new(
        engine,
        ServeConfig { admission_window: 0.01, time_scale: 1.0, ..ServeConfig::default() },
    );
    serve.offer_all(trace_arrivals(&trace, 0.02, 64));
    serve.serve()
}

#[test]
fn tracing_changes_no_bit_on_the_serve_loop() {
    let store = shared_store();
    let plain = serve_report(&store, None);
    // The trigger ring records every chunk span of the run: the default
    // ring must keep them all for the oracle below to see every event.
    let obs = Observer::enabled();
    let traced = serve_report(&store, Some(Arc::clone(&obs)));
    // ServeReport is PartialEq over every field, including each job's
    // f64 arrival/admitted/completed stamps.
    assert_eq!(plain, traced, "live observer changed the serve outcome");
    assert_eq!(plain.jobs, traced.jobs);
    // And the serve-layer signals were really recorded.
    assert!(obs.registry().counter("serve_arrivals").get() > 0);
    assert!(obs.registry().histogram("serve_queue_wait_us").count() > 0);
    let dump = obs.dump();
    assert!(dump
        .events
        .iter()
        .any(|e| e.kind == EventKind::AdmitRelease));
    assert_trace_order(&dump, "serve loop");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Log-bucketed quantiles vs the exact sorted-sample oracle: for
    /// any sample set and any q, the estimate brackets the nearest-rank
    /// value within the documented 1/16 relative error.
    #[test]
    fn histogram_quantiles_bracket_the_oracle(
        raw in proptest::collection::vec((0u64..(1u64 << 40), 0u32..40), 1..300),
        qs in proptest::collection::vec(0.0f64..1.0, 1..8),
    ) {
        // Right-shifting by a per-sample amount mixes magnitudes from
        // the exact unit buckets up through wide log buckets.
        let samples: Vec<u64> = raw.iter().map(|&(v, s)| v >> s).collect();
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        for q in qs.iter().copied().chain([1.0]) {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let oracle = sorted[rank - 1];
            let est = h.quantile(q);
            prop_assert!(est >= oracle, "q={}: est {} below oracle {}", q, est, oracle);
            prop_assert!(
                est as f64 <= oracle as f64 * (1.0 + 1.0 / 16.0),
                "q={}: est {} above the 1/16 envelope of oracle {}",
                q, est, oracle
            );
        }
    }
}

#[test]
fn ring_overflow_drops_oldest_and_reports_the_loss() {
    // Capacity rounds up to a power of two (min 8): ask for 8, push 20.
    let obs = Observer::with_ring_capacity(8);
    let rec = obs.recorder("burst");
    for i in 0..20u64 {
        rec.instant(EventKind::Push, NONE, NONE, 0, i);
    }
    assert_eq!(obs.dropped_events(), 12);
    let dump = obs.dump();
    assert_eq!(dump.dropped_events, 12);
    assert_eq!(dump.events.len(), 8);
    // The oldest 12 are gone; the newest 8 survive in recording order.
    let values: Vec<u64> = dump.events.iter().map(|e| e.value).collect();
    assert_eq!(values, (12..20).collect::<Vec<u64>>());
    // The loss is visible in the Chrome export too.
    let v = parse_json(&dump.chrome_json()).expect("chrome trace parses");
    assert_eq!(
        v.get("otherData")
            .unwrap()
            .get("dropped_events")
            .unwrap()
            .as_f64(),
        Some(12.0)
    );
}

/// A small traced engine run whose dump exercises every export path.
fn traced_dump() -> (Arc<Observer>, cgraph::core::TraceDump) {
    let store = shared_store();
    let obs = Observer::enabled();
    run_cfg(&store, 2, 2, Some(Arc::clone(&obs)));
    let dump = obs.dump();
    (obs, dump)
}

#[test]
fn chrome_trace_json_round_trips_the_schema() {
    let (obs, dump) = traced_dump();
    assert!(!dump.events.is_empty());
    let v = parse_json(&dump.chrome_json()).expect("chrome trace is valid JSON");
    assert_eq!(v.get("displayTimeUnit").unwrap().as_str(), Some("ns"));
    let events = v.get("traceEvents").unwrap().as_array().unwrap();
    // One thread_name metadata record per registered thread, then one
    // record per span.
    assert_eq!(events.len(), dump.threads.len() + dump.events.len());
    let mut metadata = 0;
    for ev in events {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        assert!(ev.get("name").unwrap().as_str().is_some());
        assert!(ev.get("pid").unwrap().as_f64().is_some());
        let tid = ev.get("tid").unwrap().as_f64().unwrap() as usize;
        assert!(
            tid < dump.threads.len(),
            "tid {tid} has no thread_name record"
        );
        match ph {
            "M" => {
                metadata += 1;
                let name = ev
                    .get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap();
                assert_eq!(name, dump.threads[tid]);
            }
            "X" => {
                assert!(ev.get("ts").unwrap().as_f64().unwrap() >= 0.0);
                assert!(ev.get("dur").unwrap().as_f64().unwrap() >= 0.0);
                assert!(ev
                    .get("args")
                    .unwrap()
                    .get("value")
                    .unwrap()
                    .as_f64()
                    .is_some());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(metadata, dump.threads.len());

    // JSONL: every line parses and names a known thread and event kind.
    for line in dump.jsonl().lines() {
        let ev = parse_json(line).expect("jsonl line parses");
        let thread = ev.get("thread").unwrap().as_str().unwrap();
        assert!(dump.threads.iter().any(|t| t == thread));
        assert!(ev.get("kind").unwrap().as_str().is_some());
        assert!(ev.get("start_ns").unwrap().as_f64().is_some());
    }

    // Metrics snapshot: the three sections, with full quantile rows on
    // every histogram.
    let m = parse_json(&obs.registry().metrics_json()).expect("metrics snapshot parses");
    let sections: Vec<&str> = m
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(sections, vec!["counters", "gauges", "histograms"]);
    let hists = m.get("histograms").unwrap().as_object().unwrap();
    assert!(!hists.is_empty());
    for (name, h) in hists {
        for field in ["count", "sum", "max", "mean", "p50", "p90", "p99"] {
            assert!(
                matches!(h.get(field), Some(JsonValue::Num(_))),
                "histogram {name} missing numeric {field}"
            );
        }
    }

    // Prometheus page: every line is a comment or `name value` /
    // `name{quantile="q"} value`.
    let page = obs.registry().prometheus_text();
    assert!(page.contains("# TYPE rounds counter"));
    assert!(page.contains("install_us{quantile=\"0.99\"}"));
    for line in page.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample in {line:?}"
        );
    }
}
