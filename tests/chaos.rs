//! Chaos differential suite for the seeded fault plane.
//!
//! The core property: for a *random* fault schedule (any seed, any
//! transient/spike/permanent rates) and any {shards × trigger workers ×
//! journal} configuration, every job that completes
//! under injection produces results **bit-identical** to the fault-free
//! run — faults may delay, reroute, or quarantine work, but never
//! corrupt it.  Jobs that do not complete are *quarantined* with a
//! typed [`FaultError`], never hung and never panicked (CI's
//! per-binary `timeout 60` is the hang detector).  The same seed
//! replays the same chaos bit-for-bit, retries and all, and an inert
//! plane is indistinguishable from no plane at all.
//!
//! The mix is integer-valued programs only (BFS, SSSP, WCC,
//! reachability): exact min/or accumulators, so surviving results must
//! match exactly — no tolerance.  CI runs this binary with default
//! threading and with `--test-threads=1`.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use cgraph::algos::{trace_arrivals, Bfs, Reachability, Sssp, Wcc};
use cgraph::core::{
    Engine, EngineConfig, FaultBoundary, FaultConfig, FaultPlane, FaultStats, RetryPolicy,
    ServeConfig, ServeLoop,
};
use cgraph::graph::snapshot::{ShardedSnapshotStore, SnapshotStore};
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, Partitioner};
use cgraph::memsim::HierarchyConfig;
use cgraph::trace::{generate_trace, JobSpan, TraceConfig};
use cgraph_bench::ingest_stream_spread;

/// One shared evolving store per shard count: a sharded chain with
/// enough deltas that jobs arriving at different timestamps bind
/// different snapshot versions, spreading fetches across lanes (the
/// breaker granularity).
fn store_with_shards(shards: usize) -> Arc<SnapshotStore> {
    let el = generate::rmat(8, 4, generate::RmatParams::default(), 2026);
    let n = el.num_vertices();
    let ps = VertexCutPartitioner::new(12).partition(&el);
    let mut store = SnapshotStore::with_shards(ps, shards);
    for (i, delta) in ingest_stream_spread(n, 12, 32, 4).iter().enumerate() {
        store
            .apply((i as u64 + 1) * 10, delta)
            .expect("evolving delta applies");
    }
    Arc::new(store)
}

/// The shard counts the differential sweeps; index is the proptest dim.
const SHARD_CHOICES: [usize; 3] = [1, 2, 4];

fn shared_store(idx: usize) -> &'static Arc<SnapshotStore> {
    static STORES: OnceLock<Vec<Arc<SnapshotStore>>> = OnceLock::new();
    &STORES.get_or_init(|| {
        SHARD_CHOICES
            .iter()
            .map(|&s| store_with_shards(s))
            .collect()
    })[idx]
}

/// Tight enough that loads rotate through the cache (spill pricing and
/// reroute pricing both matter).
fn tight_hierarchy(store: &Arc<SnapshotStore>) -> HierarchyConfig {
    let view = store.base_view();
    let total: u64 = (0..view.num_partitions() as u32)
        .map(|pid| view.partition(pid).structure_bytes())
        .sum();
    HierarchyConfig { cache_bytes: (total / 4).max(1), memory_bytes: total * 4 }
}

/// Per-job outcome of one chaos run: either the exact results or the
/// typed quarantine.
#[derive(Debug, PartialEq)]
enum Outcome {
    Bfs(Vec<u32>),
    Sssp(Vec<f32>),
    Wcc(Vec<u32>),
    Reach(Vec<bool>),
    Quarantined(FaultBoundary),
}

/// Runs the four-job mix on `store` with `workers` trigger threads under
/// `faults`, returning one outcome per job.  `faults: None` is the clean
/// control.
fn run_mix(
    store: &Arc<SnapshotStore>,
    workers: usize,
    faults: Option<Arc<FaultPlane>>,
) -> Vec<Outcome> {
    let mut engine = Engine::new(
        Arc::clone(store),
        EngineConfig {
            workers,
            wavefront: 4,
            hierarchy: tight_hierarchy(store),
            faults,
            ..EngineConfig::default()
        },
    );
    let bfs = engine.submit_at(Bfs::new(0), 0);
    let sssp = engine.submit_at(Sssp::new(1), 40);
    let wcc = engine.submit_at(Wcc, 80);
    let reach = engine.submit_at(Reachability::new(0), 110);
    let report = engine.run();
    assert!(
        report.completed,
        "a chaos run must drain (quarantine, never hang)"
    );
    let outcome = |job, ok: fn(&Engine, u32) -> Outcome| match engine.job_fault(job) {
        Some(err) => {
            assert!(
                err.attempts >= 1,
                "a quarantine burned at least one attempt"
            );
            Outcome::Quarantined(err.boundary)
        }
        None => {
            assert!(engine.job_done(job), "drained job is done or quarantined");
            ok(&engine, job)
        }
    };
    vec![
        outcome(bfs, |e, j| Outcome::Bfs(e.results::<Bfs>(j).unwrap())),
        outcome(sssp, |e, j| Outcome::Sssp(e.results::<Sssp>(j).unwrap())),
        outcome(wcc, |e, j| Outcome::Wcc(e.results::<Wcc>(j).unwrap())),
        outcome(reach, |e, j| {
            Outcome::Reach(e.results::<Reachability>(j).unwrap())
        }),
    ]
}

/// The fault-free baseline per shard choice, computed once.
fn baseline(idx: usize) -> &'static Vec<Outcome> {
    static BASE: OnceLock<Vec<Vec<Outcome>>> = OnceLock::new();
    &BASE.get_or_init(|| {
        (0..SHARD_CHOICES.len())
            .map(|i| run_mix(shared_store(i), 2, None))
            .collect()
    })[idx]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any fault schedule, any trigger-pool size: completed jobs match
    /// the fault-free run (at two workers) bit-for-bit, because the
    /// compared results are fixpoints; everything else is typed
    /// quarantine.
    #[test]
    fn completed_jobs_match_fault_free_bit_for_bit(
        seed in 0u64..u64::MAX,
        fetch_rate in 0.0f64..0.25,
        spike_rate in 0.0f64..0.25,
        permanent_rate in 0.0f64..0.05,
        shard_idx in 0usize..SHARD_CHOICES.len(),
        workers in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
    ) {
        let store = shared_store(shard_idx);
        let plane = FaultPlane::new(FaultConfig {
            seed,
            fetch_rate,
            spike_rate,
            permanent_rate,
            spike_seconds: 1e-3,
            ..FaultConfig::default()
        });
        let chaos = run_mix(store, workers, Some(Arc::clone(&plane)));
        let clean = baseline(shard_idx);
        for (got, want) in chaos.iter().zip(clean) {
            match got {
                Outcome::Quarantined(boundary) => {
                    // Fetch admission is the only fallible boundary.
                    prop_assert_eq!(*boundary, FaultBoundary::ShardFetch);
                }
                survived => prop_assert_eq!(survived, want,
                    "surviving job diverged from the fault-free run"),
            }
        }
    }

    /// The schedule is the seed: the same chaos replays bit-for-bit —
    /// outcomes, retry counts, trips, modeled delay, everything.
    #[test]
    fn same_seed_replays_identically(
        seed in 0u64..u64::MAX,
        fetch_rate in 0.0f64..0.4,
        workers in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
    ) {
        let store = shared_store(1);
        let cfg = FaultConfig {
            seed,
            fetch_rate,
            spike_rate: fetch_rate / 2.0,
            spike_seconds: 1e-3,
            ..FaultConfig::default()
        };
        let run = || {
            let plane = FaultPlane::new(cfg);
            let out = run_mix(store, workers, Some(Arc::clone(&plane)));
            (out, plane.stats())
        };
        let (a, a_stats): (Vec<Outcome>, FaultStats) = run();
        let (b, b_stats) = run();
        prop_assert_eq!(a, b, "same seed must replay the same outcomes");
        prop_assert_eq!(a_stats, b_stats, "same seed must replay the same damage");
    }
}

/// A near-certain transient rate with a one-attempt retry budget:
/// everything quarantines fast, typed, and the run still drains —
/// the no-hang half of the degradation contract.
#[test]
fn aggressive_faults_quarantine_typed_without_hang() {
    let store = shared_store(2);
    let plane = FaultPlane::new(FaultConfig {
        seed: 7,
        fetch_rate: 0.98,
        retry: RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
        // Breakers off: every fetch draws, nothing reroutes to safety.
        breaker: cgraph::core::BreakerConfig { trip_after: 0, ..Default::default() },
        ..FaultConfig::default()
    });
    let outcomes = run_mix(store, 2, Some(Arc::clone(&plane)));
    let quarantined = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Quarantined(_)))
        .count();
    assert!(
        quarantined > 0,
        "a 98% fault rate with one attempt must quarantine something"
    );
    let stats = plane.stats();
    assert!(stats.exhausted > 0, "exhaustions must be counted");
    assert_eq!(
        stats.breaker_trips, 0,
        "trip_after = 0 must disable the breakers"
    );
}

/// An inert plane — `disabled()` on the engine *and* attached to the
/// store as an injector — is bit-identical to no plane at all: results,
/// loads, metrics, modeled-seconds bits.
#[test]
fn disabled_plane_is_bit_identical_to_no_plane() {
    let store = shared_store(1);
    let digest = |faults: Option<Arc<FaultPlane>>| {
        let mut engine = Engine::new(
            Arc::clone(store),
            EngineConfig {
                workers: 2,
                wavefront: 4,
                hierarchy: tight_hierarchy(store),
                faults,
                ..EngineConfig::default()
            },
        );
        let bfs = engine.submit_at(Bfs::new(0), 0);
        let wcc = engine.submit_at(Wcc, 80);
        let report = engine.run();
        assert!(report.completed);
        (
            engine.results::<Bfs>(bfs).unwrap(),
            engine.results::<Wcc>(wcc).unwrap(),
            report.loads,
            report.metrics,
            report.modeled_seconds.to_bits(),
        )
    };
    let plane = FaultPlane::disabled();
    assert_eq!(digest(Some(plane)), digest(None));
    // An all-zero config through `new` is equally inert.
    let zero = FaultPlane::new(FaultConfig::default());
    assert!(
        !zero.is_enabled(),
        "an undrawable config makes an inert plane"
    );
    assert_eq!(digest(Some(zero)), digest(None));
}

/// Store-side faults are fail-open: a durable store wired to a plane
/// with a high store rate keeps every view bit-identical — the plane
/// only *counts* the would-be faults (the WAL/rehydrate boundaries
/// absorb them).
#[test]
fn store_faults_are_fail_open_and_counted() {
    let el = generate::rmat(7, 4, generate::RmatParams::default(), 99);
    let n = el.num_vertices();
    let build = |faults: Option<Arc<FaultPlane>>| {
        let dir = std::env::temp_dir().join(format!(
            "cgraph-chaos-store-{}-{}",
            std::process::id(),
            faults.is_some()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ps = VertexCutPartitioner::new(8).partition(&el);
        let mut store = ShardedSnapshotStore::with_shards(ps, 2)
            .persist_to(&dir)
            .expect("store persists");
        if let Some(plane) = faults {
            store.set_faults(plane);
        }
        for (i, delta) in ingest_stream_spread(n, 8, 16, 2).iter().enumerate() {
            store
                .apply((i as u64 + 1) * 10, delta)
                .expect("store faults never fail an apply");
        }
        let store = Arc::new(store);
        let view = store.view_at(u64::MAX);
        let edges: Vec<Vec<(u32, u32)>> = (0..view.num_partitions() as u32)
            .map(|p| {
                let mut e: Vec<(u32, u32)> = view
                    .partition(p)
                    .edges_global()
                    .iter()
                    .map(|e| (e.src, e.dst))
                    .collect();
                e.sort_unstable();
                e
            })
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        edges
    };
    let plane =
        FaultPlane::new(FaultConfig { seed: 11, store_rate: 0.5, ..FaultConfig::default() });
    let faulted = build(Some(Arc::clone(&plane)));
    let clean = build(None);
    assert_eq!(faulted, clean, "store faults must never change a view");
    assert!(
        plane.stats().injected > 0,
        "a 50% store rate over this stream must count injections"
    );
}

/// Serving under chaos: a journaled loop and a plain loop over the same
/// trace and fault schedule produce the identical degraded report, and
/// every offer is accounted for (completed, quarantined, or shed —
/// never lost).  Two schedules: a hostile one with shedding armed, and
/// the paper-style "5% of I/O operations fail transiently" one with
/// shedding off, whose degradation contract is ≥ 99% completion.
#[test]
fn journaled_and_plain_serving_agree_under_chaos() {
    let store = shared_store(2);
    let serve = |trace: &[JobSpan], faults: FaultConfig, max_backlog: usize, journal: bool| {
        let engine = Engine::new(
            Arc::clone(store),
            EngineConfig {
                workers: 2,
                wavefront: 4,
                hierarchy: tight_hierarchy(store),
                faults: Some(FaultPlane::new(faults)),
                ..EngineConfig::default()
            },
        );
        let config = ServeConfig {
            admission_window: 0.01,
            time_scale: 1.0,
            max_backlog,
            brownout_backlog: max_backlog / 2,
            ..ServeConfig::default()
        };
        let mut sl = if journal {
            let path = std::env::temp_dir()
                .join(format!("cgraph-chaos-journal-{}.wal", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let sl = ServeLoop::with_journal(engine, config, &path).expect("journal opens");
            let _ = std::fs::remove_file(&path);
            sl
        } else {
            ServeLoop::new(engine, config)
        };
        sl.offer_all(trace_arrivals(trace, 0.02, 64));
        sl.serve()
    };
    // Both loops over one schedule: identical reports, nothing lost.
    // Returns the report and how many offers ran to convergence.
    let agree = |trace: &[JobSpan], faults: FaultConfig, max_backlog: usize| {
        let plain = serve(trace, faults, max_backlog, false);
        let journaled = serve(trace, faults, max_backlog, true);
        assert_eq!(
            plain, journaled,
            "journaling must not perturb a chaos serve"
        );
        let completed = plain
            .per_job()
            .iter()
            .filter(|r| r.outcome == cgraph::core::JobOutcome::Completed)
            .count() as u64;
        assert_eq!(
            completed + plain.quarantined + plain.rejected,
            trace.len() as u64,
            "every offer completes, quarantines, or sheds — none lost"
        );
        (plain, completed)
    };

    let diurnal = |hours, seed| -> Vec<JobSpan> {
        generate_trace(&TraceConfig {
            hours,
            base_rate: 2.0,
            peak_rate: 6.0,
            mean_duration: 1.0,
            seed,
        })
    };

    agree(
        &diurnal(3, 0xBEEF),
        FaultConfig {
            seed: 0xD00D,
            fetch_rate: 0.2,
            spike_rate: 0.1,
            spike_seconds: 1e-3,
            ..FaultConfig::default()
        },
        64,
    );

    let trace = diurnal(4, 0xFACE);
    let offered = trace.len() as u64;
    let (clean, clean_done) = agree(&trace, FaultConfig::default(), 0);
    assert_eq!(clean_done, offered, "clean run must complete everything");
    assert_eq!(clean.retries, 0, "a disabled plane must draw nothing");
    let (faulted, faulted_done) = agree(
        &trace,
        FaultConfig {
            seed: 0xC0FFEE,
            fetch_rate: 0.05,
            spike_rate: 0.05,
            spike_seconds: 2e-3,
            ..FaultConfig::default()
        },
        0,
    );
    assert!(
        faulted_done * 100 >= offered * 99,
        "must complete >=99% of jobs at a 5% transient fault rate, got {faulted_done}/{offered}"
    );
    assert!(
        faulted.retries > 0,
        "a 5% fault rate over this trace must burn at least one retry"
    );
}

/// ISSUE 10 satellite: a half-open probe that faults *again* re-opens
/// the breaker (trips keep counting past recoveries), and rerouted
/// pricing stays lane-correct — reroute re-fetch charges only ever land
/// on lanes that actually carried the job's traffic, deterministically.
#[test]
fn refaulting_probe_reopens_and_reroute_pricing_stays_lane_correct() {
    let store = shared_store(2); // 4 shards = 4 breaker lanes
    let run = || {
        // Hair-trigger breaker over a moderate transient rate with a
        // budget that usually-but-not-always survives: lanes trip on
        // retried-but-successful ops (keeping their jobs alive), cool
        // down for one rerouted op, and probe into the same hostile
        // schedule — so some probes fault again and re-open.
        let plane = FaultPlane::new(FaultConfig {
            seed: 41,
            fetch_rate: 0.35,
            retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
            breaker: cgraph::core::BreakerConfig { trip_after: 1, cooldown_ops: 1 },
            ..FaultConfig::default()
        });
        let mut engine = Engine::new(
            Arc::clone(store),
            EngineConfig {
                workers: 2,
                wavefront: 4,
                hierarchy: tight_hierarchy(store),
                faults: Some(Arc::clone(&plane)),
                ..EngineConfig::default()
            },
        );
        engine.submit_at(Bfs::new(0), 0);
        engine.submit_at(Sssp::new(1), 40);
        engine.submit_at(Wcc, 80);
        engine.submit_at(Reachability::new(0), 110);
        assert!(engine.run().completed, "chaos must drain, never hang");
        (plane.stats(), engine)
    };
    let (stats, engine) = run();

    // The probe-fails-again path: more trips than recoveries means at
    // least one trip happened on a lane that was not freshly closed —
    // i.e. a half-open probe faulted and re-opened, or a lane re-tripped
    // after recovering — while reroutes prove cooldown traffic flowed.
    assert!(stats.breaker_trips >= 2, "stats: {stats:?}");
    assert!(
        stats.breaker_trips > stats.breaker_recoveries,
        "some probe must fault again (trips {} vs recoveries {})",
        stats.breaker_trips,
        stats.breaker_recoveries
    );
    assert!(stats.rerouted > 0, "open lanes must have rerouted ops");

    // Lane-correct pricing: reroute/retry re-fetch charges are indexed
    // by lane, and a lane that carried no first-read fetch traffic may
    // never be charged for a reroute.  First reads are a lane's fetch
    // bytes minus its re-fetches (retries and spills), so a reroute
    // priced on a lane no slot fetched from shows up as zero here.
    let retry_bytes = engine.retry_fetch_bytes();
    assert!(
        retry_bytes.iter().sum::<u64>() > 0,
        "rerouted fetches must be priced"
    );
    let (fetched, spilled) = (engine.shard_fetch_bytes(), engine.spill_fetch_bytes());
    for (lane, &charged) in retry_bytes.iter().enumerate() {
        let refetched = charged + spilled.get(lane).copied().unwrap_or(0);
        let first_reads = fetched[lane].saturating_sub(refetched);
        assert!(
            charged == 0 || first_reads > 0,
            "lane {lane} priced a reroute without carrying traffic"
        );
    }

    // Deterministic replay: the same seed prices the same lanes with
    // the same bytes — reroute charges never wander across lanes.
    let (stats2, engine2) = run();
    assert_eq!(stats, stats2, "same seed, same damage");
    assert_eq!(
        retry_bytes,
        engine2.retry_fetch_bytes(),
        "lane pricing must replay bit-for-bit"
    );
}
