//! `standing_fresh`: store writes beside view reads.
//!
//! Closed loop over versions.  Per version the harness applies one
//! delta (every eighth also removes edges), then on a fresh engine
//! resumes three standing jobs — BFS, WCC, SSSP — from the results they
//! converged to at the previous version, and runs one from-scratch BFS
//! from a seed-drawn source at the new version.
//!
//! An operation is a version.  Its latency — freshness — runs from the
//! start of the apply until all four results of that version have been
//! read out.  `ops_per_s` is the median rate over cycles of eight
//! versions (one that removes edges and the seven before it).

use std::sync::Arc;
use std::time::Instant;

use crate::gen::{self, JobSpec};
use crate::harness::{apply_rebuild_seconds, peak_rss_mb, timed_setup, RunCtx, RunResult, Tracer};
use crate::oracle;
use crate::stats;
use crate::sut::{self, EngineOpts, ExecCounters, GraphDelta, HierarchyConfig, Values};
use crate::workloads::{
    cycle_rate, record_exec, record_latency, record_store, record_traced, Traced, SPAN_APPLY,
    SPAN_ROUND, SPAN_SUBMIT,
};

const DRIVE: &str = "standing.version";
const SPAN_RESULTS: &str = "exec.results";
/// The tail percentile freshness is read at: 120 versions leave 12
/// beyond p90.
const TAIL: f64 = 90.0;
/// Every n-th delta also removes edges, which makes the resumed jobs
/// start over.  One version in eight (15 of 120) puts p90 inside the
/// cluster of those slow versions; one in ten would put it exactly on
/// the cluster's edge, where it flips from run to run.
const REMOVAL_EVERY: usize = 8;
/// Edges such a delta removes.
const REMOVALS: usize = 8;
/// Every n-th version is re-run from scratch and compared.
const CHECK_EVERY: usize = 20;
/// Ring size per program thread; every version builds a fresh engine,
/// and with it a fresh ring, so rings stay small.
const RING_EVENTS: usize = 1 << 12;

struct Inputs {
    base: sut::PartitionSet,
    shards: usize,
    hierarchy: HierarchyConfig,
    partition_s: f64,
    replication: f64,
    deltas: Vec<GraphDelta>,
    /// Hash of the generated delta stream, for the run header.
    delta_hash: u64,
    /// The three standing jobs.
    standing: [JobSpec; 3],
    /// Source of each version's from-scratch BFS.
    adhoc: Vec<u32>,
}

fn setup(ctx: &RunCtx, versions: usize) -> Inputs {
    let (scale, ef, parts, shards) = ctx.sizes.ingest;
    let edges = sut::build_graph(scale, ef, ctx.seed);
    let t = Instant::now();
    let base = sut::partition(&edges, parts);
    let partition_s = t.elapsed().as_secs_f64();
    let replication = sut::replication_factor(&base);
    let hierarchy = sut::out_of_core(sut::structure_bytes(&base));
    let n = sut::num_vertices(&edges);
    let specs = gen::growth_stream(
        ctx.seed,
        n,
        versions,
        ctx.sizes.delta_adds,
        REMOVAL_EVERY,
        REMOVALS,
    );
    let delta_hash = gen::hash_deltas(&specs);
    let deltas = specs.iter().map(sut::prepare_delta).collect();
    let sources = gen::eligible_sources(&sut::out_degrees(&edges));
    let picks = gen::adhoc_sources(ctx.seed, versions + 2, &sources);
    let standing = [
        JobSpec::Bfs(picks[0]),
        JobSpec::Wcc,
        JobSpec::Sssp(picks[1]),
    ];
    let adhoc = picks[2..].to_vec();
    Inputs {
        base,
        shards,
        hierarchy,
        partition_s,
        replication,
        deltas,
        delta_hash,
        standing,
        adhoc,
    }
}

/// Runs `jobs` from scratch at `ts` on a fresh engine.
fn from_scratch(
    store: &Arc<sut::SnapshotStore>,
    hierarchy: HierarchyConfig,
    jobs: &[JobSpec],
    ts: u64,
) -> Vec<Option<Values>> {
    let opts = EngineOpts { hierarchy: Some(hierarchy), ..Default::default() };
    let mut engine = sut::engine(store, &opts);
    let ids: Vec<_> = jobs
        .iter()
        .map(|&j| sut::submit(&mut engine, j, ts))
        .collect();
    while sut::step_round(&mut engine) {}
    jobs.iter()
        .zip(&ids)
        .map(|(&j, &id)| sut::results(&engine, j, id).filter(|_| sut::job_done(&engine, id)))
        .collect()
}

/// One version's outcome.
struct Version {
    fresh_s: f64,
    apply_s: f64,
    /// Engine start until the three resumed jobs were done.
    resume_s: f64,
    /// Engine start until the from-scratch job was done.
    adhoc_s: f64,
    seeded: u32,
    loads: u64,
    ok: bool,
}

/// One pass over the version stream.
struct Pass {
    versions: Vec<Version>,
    wall_s: f64,
    counters: ExecCounters,
    rounds: u64,
    /// The store after the last version (`None` if the bootstrap
    /// failed).
    store: Option<Arc<sut::SnapshotStore>>,
    /// Standing results kept for the from-scratch comparison, by
    /// version.
    kept: Vec<(u64, Vec<Values>)>,
    /// The from-scratch BFS of the kept versions.
    kept_adhoc: Vec<(u64, JobSpec, Option<Values>)>,
    bootstrapped: bool,
}

fn pass(inp: &Inputs, versions: usize, tr: &mut Tracer) -> Pass {
    let mut store = sut::new_store(inp.base.clone(), inp.shards);
    if let Some(obs) = &tr.observer {
        sut::observe_store(&mut store, obs);
    }
    let mut store = Arc::new(store);
    // Bootstrap, untimed: the standing jobs converge once at the base.
    let boot = from_scratch(&store, inp.hierarchy, &inp.standing, 0);
    let bootstrapped = boot.iter().all(Option::is_some);
    let mut prior: Vec<Values> = boot.into_iter().flatten().collect();
    let opts =
        EngineOpts { hierarchy: Some(inp.hierarchy), io_workers: 0, observer: tr.observer.clone() };

    let mut p = Pass {
        versions: Vec::new(),
        wall_s: 0.0,
        counters: ExecCounters::default(),
        rounds: 0,
        store: None,
        kept: Vec::new(),
        kept_adhoc: Vec::new(),
        bootstrapped,
    };
    if !bootstrapped {
        return p;
    }

    let start = Instant::now();
    for (i, delta) in inp.deltas[..versions].iter().enumerate() {
        let ts = i as u64 + 1;
        let adhoc = JobSpec::Bfs(inp.adhoc[i]);
        let drive = tr.log.begin(DRIVE, ts);
        let t0 = Instant::now();

        let s = tr.log.begin(SPAN_APPLY, ts);
        let applied = sut::apply(
            Arc::get_mut(&mut store).expect("no engine or view outlives its version"),
            ts,
            delta,
        );
        tr.log.end(s);
        let apply_s = t0.elapsed().as_secs_f64();

        let t_engine = Instant::now();
        let mut engine = sut::engine(&store, &opts);
        let mut ids = Vec::with_capacity(4);
        let mut seeded = 0;
        for (spec, prior) in inp.standing.iter().zip(&prior) {
            let s = tr.log.begin(SPAN_SUBMIT, ts);
            let (id, took_seed) = sut::submit_resumed(&mut engine, *spec, ts, ts - 1, prior)
                .expect("standing programs are incremental");
            tr.log.end(s);
            seeded += took_seed as u32;
            ids.push(id);
        }
        let s = tr.log.begin(SPAN_SUBMIT, ts);
        ids.push(sut::submit(&mut engine, adhoc, ts));
        tr.log.end(s);

        let (mut resume_s, mut adhoc_s) = (None, None);
        loop {
            let now = t_engine.elapsed().as_secs_f64();
            if resume_s.is_none() && ids[..3].iter().all(|&id| sut::job_done(&engine, id)) {
                resume_s = Some(now);
            }
            if adhoc_s.is_none() && sut::job_done(&engine, ids[3]) {
                adhoc_s = Some(now);
            }
            let s = tr.log.begin(SPAN_ROUND, p.rounds);
            let ran = sut::step_round(&mut engine);
            tr.log.end(s);
            if !ran {
                break;
            }
            p.rounds += 1;
        }

        let s = tr.log.begin(SPAN_RESULTS, ts);
        let results: Vec<Option<Values>> = inp
            .standing
            .iter()
            .chain(std::iter::once(&adhoc))
            .zip(&ids)
            .map(|(&spec, &id)| sut::results(&engine, spec, id))
            .collect();
        tr.log.end(s);
        let fresh_s = t0.elapsed().as_secs_f64();
        tr.log.end(drive);

        let all_done = resume_s.is_some() && adhoc_s.is_some();
        let ok = applied.is_ok() && all_done && results.iter().all(Option::is_some);
        p.versions.push(Version {
            fresh_s,
            apply_s,
            resume_s: resume_s.unwrap_or(0.0),
            adhoc_s: adhoc_s.unwrap_or(0.0),
            seeded,
            loads: sut::exec_counters(&engine).loads,
            ok,
        });
        p.counters.add(&sut::exec_counters(&engine));
        drop(engine);
        if !ok {
            break;
        }
        let mut results: Vec<Values> = results.into_iter().flatten().collect();
        let adhoc_result = results.pop();
        if (i + 1) % CHECK_EVERY == 0 {
            p.kept.push((ts, results.clone()));
            p.kept_adhoc.push((ts, adhoc, adhoc_result));
        }
        prior = results;
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.store = Some(store);
    p
}

/// Checks a pass: every version finished; every kept version equals a
/// from-scratch run bit for bit; the from-scratch job equals the
/// reference.
fn verify(out: &mut RunResult, inp: &Inputs, p: &Pass, which: &str) {
    out.check(p.bootstrapped, || {
        format!("{which}: bootstrap did not converge")
    });
    let Some(store) = &p.store else { return };
    for (i, v) in p.versions.iter().enumerate() {
        out.check(v.ok, || {
            format!("{which}: version {} failed or did not finish", i + 1)
        });
    }
    for ((ts, kept), (_, adhoc, adhoc_result)) in p.kept.iter().zip(&p.kept_adhoc) {
        let scratch = from_scratch(store, inp.hierarchy, &inp.standing, *ts);
        let same = scratch.len() == kept.len()
            && scratch
                .iter()
                .zip(kept)
                .all(|(s, k)| s.as_ref().is_some_and(|s| oracle::identical(s, k)));
        out.check(same, || {
            format!("{which}: version {ts} differs from a from-scratch run")
        });
        let oracle = sut::Oracle::new(sut::edges_of(&sut::view_at(store, *ts)));
        let adhoc_ok = adhoc_result
            .as_ref()
            .is_some_and(|r| oracle::matches(r, &oracle.solve(*adhoc)));
        out.check(adhoc_ok, || {
            format!("{which}: version {ts} from-scratch BFS is wrong")
        });
        let standing_ok = inp
            .standing
            .iter()
            .zip(kept)
            .all(|(&spec, k)| oracle::matches(k, &oracle.solve(spec)));
        out.check(standing_ok, || {
            format!("{which}: version {ts} differs from the reference")
        });
    }
}

/// Runs the standing workload.
pub fn run(ctx: &RunCtx) -> RunResult {
    let mut out = RunResult::default();
    let sz = &ctx.sizes;
    let k = ctx.work(sz.standing_versions);
    let (setup_s, inp) = timed_setup(sz.setup_reps, || {
        let inp = setup(ctx, k);
        std::hint::black_box(sut::new_store(inp.base.clone(), inp.shards));
        inp
    });
    let (scale, ef, parts, shards) = sz.ingest;
    out.notes.push(format!(
        "store: R-MAT scale {scale} x ef {ef}, {parts} partitions, {shards} shards; per version: \
         apply {} additions (every {REMOVAL_EVERY}th also removes {REMOVALS}), resume BFS+WCC+SSSP, \
         one from-scratch BFS; closed loop",
        sz.delta_adds,
    ));

    out.notes.push(format!(
        "inputs: deltas {:016x}, standing jobs {:016x}",
        inp.delta_hash,
        gen::hash_jobs(&inp.standing),
    ));

    // Warm-up: a few versions through the same code.
    let warm = pass(&inp, 4.min(k), &mut Tracer::off());

    let p = pass(&inp, k, &mut Tracer::off());
    let fresh: Vec<f64> = p.versions.iter().map(|v| v.fresh_s).collect();
    // A cycle is one removal version and the addition-only ones before it.
    out.e2e.set("ops_per_s", cycle_rate(&fresh, REMOVAL_EVERY));
    let tail = record_latency(&mut out.e2e, &fresh, TAIL);
    out.e2e.set("setup_s", setup_s);
    out.e2e.set("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "{} versions in {:.4} s, rate the median over cycles of {REMOVAL_EVERY}, tail at p{tail}",
        fresh.len(),
        p.wall_s
    ));

    let mut traced: Option<Pass> = None;
    if ctx.trace {
        let mut tr = Tracer::on(RING_EVENTS);
        let t = pass(&inp, k, &mut tr);
        let (events, dropped) = tr.drain();
        out.chrome = tr.chrome(&events);

        // A version fell back when any of its three resumes did.
        let (fallback, seeded): (Vec<&Version>, Vec<&Version>) =
            t.versions.iter().partition(|v| v.seeded < 3);
        let median_of = |vs: &[&Version], f: fn(&Version) -> f64| -> f64 {
            stats::median(&vs.iter().map(|v| f(v)).collect::<Vec<f64>>())
        };
        let apply_s: Vec<f64> = t.versions.iter().map(|v| v.apply_s).collect();
        let seeded_resumes: u32 = t.versions.iter().map(|v| v.seeded).sum();
        let t_store = t.store.clone().expect("traced pass bootstrapped");

        let l = &mut out.layer;
        record_exec(l, &tr.log, DRIVE, &events, &t.counters, t.rounds);
        record_store(l, &t_store, &apply_s, &tr.log);
        l.set("store.span.apply_rebuild_s", apply_rebuild_seconds(&events));
        l.set("memsim.wall_over_modeled", t.wall_s / t.counters.modeled_s);
        l.set(
            "incr.seeded_share",
            seeded_resumes as f64 / (3 * t.versions.len()).max(1) as f64,
        );
        l.set("incr.resume_s", t.versions.iter().map(|v| v.resume_s).sum());
        l.set("incr.resume_loads", median_of(&seeded, |v| v.loads as f64));
        l.set(
            "incr.fallback_loads",
            median_of(&fallback, |v| v.loads as f64),
        );
        l.set("incr.apply_p50_ms", stats::median(&apply_s) * 1e3);
        l.set(
            "incr.resume_p50_ms",
            median_of(&seeded, |v| v.resume_s) * 1e3,
        );
        l.set("incr.adhoc_p50_ms", median_of(&seeded, |v| v.adhoc_s) * 1e3);
        l.set(
            "incr.fallback_p50_ms",
            median_of(&fallback, |v| v.fresh_s) * 1e3,
        );
        record_traced(
            l,
            &Traced {
                partition_s: inp.partition_s,
                replication: inp.replication,
                events: events.len(),
                dropped,
                overhead: t.wall_s / p.wall_s,
                ops: t.versions.len(),
                tail,
            },
        );
        traced = Some(t);
    }

    // Correctness, outside every timed region.
    verify(&mut out, &inp, &warm, "warm-up");
    verify(&mut out, &inp, &p, "measured pass");
    if let Some(t) = &traced {
        verify(&mut out, &inp, t, "traced pass");
    }
    // The stream must have exercised both paths.
    let fallbacks = p.versions.iter().filter(|v| v.seeded < 3).count();
    out.check(
        p.versions.len() < REMOVAL_EVERY || (fallbacks > 0 && fallbacks < p.versions.len()),
        || format!("{fallbacks} of {} versions fell back", p.versions.len()),
    );
    out
}
