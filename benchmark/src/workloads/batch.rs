//! `batch_shared` and `batch_solo`: twelve mixed jobs on one static
//! graph, either submitted together to one engine or run one engine
//! each, back to back.
//!
//! An operation is a job.  `ops_per_s` is 12 over the median makespan
//! (first submit to last job converged); `op_p50_ms` / `op_tail_ms` are
//! percentiles of submit-to-converged time over every job of every
//! repetition.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::gen::{self, JobSpec};
use crate::harness::{event_seconds, peak_rss_mb, timed_setup, RunCtx, RunResult, Tracer};
use crate::oracle;
use crate::stats;
use crate::sut::{self, EngineOpts, ExecCounters, HierarchyConfig, SnapshotStore, Values};
use crate::workloads::{
    record_exec, record_latency, record_traced, sched_plan_p50_us, Traced, SPAN_ROUND, SPAN_SUBMIT,
};

/// Whether the twelve jobs share one engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// One engine, all jobs submitted at timestamp 0.
    Shared,
    /// One fresh engine per job, back to back.
    Solo,
}

const DRIVE: &str = "batch.drive";
/// The tail percentile job latencies are read at: 10 repetitions give
/// 120 samples, which support p90 (12 beyond).  Two jobs in twelve are
/// PageRank, the slowest, so p90 lies inside their cluster and not on
/// the edge of one.
const TAIL: f64 = 90.0;
/// Mix index of the warm-up repetition (no measured one reaches it).
const WARM_MIX: u64 = u64::MAX >> 8;
/// Ring size per program thread: a repetition records ~5 events per
/// round over fewer than 2 000 rounds.
const RING_EVENTS: usize = 1 << 15;

struct Inputs {
    edges: sut::EdgeList,
    store: Arc<SnapshotStore>,
    hierarchy: HierarchyConfig,
    /// Vertices a traversal may start from.
    sources: Vec<u32>,
    partition_s: f64,
    replication: f64,
}

fn setup(ctx: &RunCtx) -> Inputs {
    let (scale, ef, parts, shards) = ctx.sizes.batch;
    let edges = sut::build_graph(scale, ef, ctx.seed);
    let t = Instant::now();
    let ps = sut::partition(&edges, parts);
    let partition_s = t.elapsed().as_secs_f64();
    let replication = sut::replication_factor(&ps);
    let hierarchy = sut::out_of_core(sut::structure_bytes(&ps));
    let store = Arc::new(sut::new_store(ps, shards));
    let sources = gen::eligible_sources(&sut::out_degrees(&edges));
    Inputs { edges, store, hierarchy, sources, partition_s, replication }
}

/// One repetition's outcome.
struct Rep {
    jobs: Vec<JobSpec>,
    makespan_s: f64,
    /// Submit-to-converged seconds per job; `None` if it never
    /// converged.
    latency_s: Vec<Option<f64>>,
    results: Vec<Option<Values>>,
    counters: ExecCounters,
    rounds: u64,
}

fn opts(inp: &Inputs, io_workers: usize, tr: &Tracer) -> EngineOpts {
    EngineOpts { hierarchy: Some(inp.hierarchy), io_workers, observer: tr.observer.clone() }
}

fn rep_shared(inp: &Inputs, jobs: Vec<JobSpec>, io_workers: usize, tr: &mut Tracer) -> Rep {
    let n = jobs.len();
    let mut engine = sut::engine(&inp.store, &opts(inp, io_workers, tr));
    let mut latency_s = vec![None; n];
    let mut rounds = 0;
    let drive = tr.log.begin(DRIVE, 0);
    let t0 = Instant::now();
    let mut ids = Vec::with_capacity(n);
    for (i, &spec) in jobs.iter().enumerate() {
        let s = tr.log.begin(SPAN_SUBMIT, i as u64);
        ids.push(sut::submit(&mut engine, spec, 0));
        tr.log.end(s);
    }
    let mut open: Vec<usize> = (0..n).collect();
    loop {
        let now = t0.elapsed().as_secs_f64();
        open.retain(|&i| {
            let done = sut::job_done(&engine, ids[i]);
            if done {
                latency_s[i] = Some(now);
            }
            !done
        });
        let s = tr.log.begin(SPAN_ROUND, rounds);
        let more = sut::step_round(&mut engine);
        tr.log.end(s);
        if !more {
            break;
        }
        rounds += 1;
    }
    tr.log.end(drive);
    let makespan_s = latency_s.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
    let results = jobs
        .iter()
        .zip(&ids)
        .map(|(&spec, &id)| sut::results(&engine, spec, id))
        .collect();
    Rep {
        jobs,
        makespan_s,
        latency_s,
        results,
        counters: sut::exec_counters(&engine),
        rounds,
    }
}

fn rep_solo(inp: &Inputs, jobs: Vec<JobSpec>, io_workers: usize, tr: &mut Tracer) -> Rep {
    let n = jobs.len();
    let mut rep = Rep {
        jobs,
        makespan_s: 0.0,
        latency_s: vec![None; n],
        results: vec![None; n],
        counters: ExecCounters::default(),
        rounds: 0,
    };
    let options = opts(inp, io_workers, tr);
    for i in 0..n {
        let spec = rep.jobs[i];
        // The clock runs from engine construction to convergence and
        // stops while the result is copied out and the engine dropped.
        let drive = tr.log.begin(DRIVE, i as u64);
        let t0 = Instant::now();
        let mut engine = sut::engine(&inp.store, &options);
        let s = tr.log.begin(SPAN_SUBMIT, i as u64);
        let id = sut::submit(&mut engine, spec, 0);
        tr.log.end(s);
        loop {
            let s = tr.log.begin(SPAN_ROUND, rep.rounds);
            let more = sut::step_round(&mut engine);
            tr.log.end(s);
            if !more {
                break;
            }
            rep.rounds += 1;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        tr.log.end(drive);
        rep.makespan_s += elapsed;
        if sut::job_done(&engine, id) {
            rep.latency_s[i] = Some(elapsed);
        }
        rep.results[i] = sut::results(&engine, spec, id);
        rep.counters.add(&sut::exec_counters(&engine));
    }
    rep
}

/// One repetition over `jobs`.
fn one_rep(
    mode: Mode,
    inp: &Inputs,
    jobs: Vec<JobSpec>,
    io_workers: usize,
    tr: &mut Tracer,
) -> Rep {
    match mode {
        Mode::Shared => rep_shared(inp, jobs, io_workers, tr),
        Mode::Solo => rep_solo(inp, jobs, io_workers, tr),
    }
}

/// Reference results, solved once per distinct job.
struct References {
    oracle: sut::Oracle,
    solved: HashMap<JobSpec, Values>,
}

/// Checks every job of a repetition against the reference.
fn verify(out: &mut RunResult, refs: &mut References, rep: &Rep, which: &str) {
    for (i, spec) in rep.jobs.iter().enumerate() {
        let want = refs
            .solved
            .entry(*spec)
            .or_insert_with(|| refs.oracle.solve(*spec));
        let ok = rep.latency_s[i].is_some()
            && rep.results[i]
                .as_ref()
                .is_some_and(|got| oracle::matches(got, want));
        out.check(ok, || {
            format!("{which}: job {i} ({}) unfinished or wrong", spec.name())
        });
    }
}

/// Times of one hand-driven job: init, trigger and push.
#[derive(Default)]
struct Kernel {
    init_s: f64,
    trigger_s: f64,
    push_s: f64,
    edge_ops: u64,
    iterations: u64,
}

/// Drives one `TypedJob` per program by hand, single-threaded, the way
/// the engine would, timing the three kernel phases apart.
fn kernel_phase(inp: &Inputs, jobs: &[JobSpec]) -> Kernel {
    let mut k = Kernel::default();
    let mut seen: Vec<&'static str> = Vec::new();
    for &spec in jobs {
        if seen.contains(&spec.name()) {
            continue;
        }
        seen.push(spec.name());
        let view = sut::view_at(&inp.store, 0);
        let t = Instant::now();
        let job = sut::typed_job(spec, view);
        k.init_s += t.elapsed().as_secs_f64();
        while !sut::job_converged(&*job) {
            let t = Instant::now();
            for pid in sut::job_pending(&*job) {
                k.edge_ops += sut::job_trigger(&*job, pid);
            }
            k.trigger_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(sut::job_push(&*job));
            k.push_s += t.elapsed().as_secs_f64();
            k.iterations += 1;
        }
    }
    k
}

/// Runs one batch workload.
pub fn run(ctx: &RunCtx, mode: Mode) -> RunResult {
    let mut out = RunResult::default();
    let (setup_s, inp) = timed_setup(ctx.sizes.setup_reps, || setup(ctx));
    let (scale, ef, parts, shards) = ctx.sizes.batch;
    out.notes.push(format!(
        "graph: R-MAT scale {scale} x ef {ef}, {parts} vertex-cut partitions, {shards} shards, \
         memory 70% / cache 10% of structure bytes; closed loop, 12 jobs per repetition, \
         sources drawn anew for every repetition"
    ));
    out.notes.push(format!(
        "inputs: graph {:016x}, first mix {:016x}",
        gen::hash_edges(sut::edge_triples(&inp.edges)),
        gen::hash_jobs(&gen::job_mix(ctx.seed, 0, &inp.sources)),
    ));

    let mix = |i: u64| gen::job_mix(ctx.seed, i, &inp.sources);

    // Warm-up: one untimed repetition, without the PageRank jobs that
    // take most of a repetition's time, lets the allocator and the
    // code paths settle.
    let mut warm_jobs = mix(WARM_MIX);
    warm_jobs.retain(|j| *j != JobSpec::PageRank);
    let warm = one_rep(mode, &inp, warm_jobs, 0, &mut Tracer::off());

    // Untraced repetitions, each over a mix of its own.
    let n_reps = ctx.work(ctx.sizes.batch_reps);
    let reps: Vec<Rep> = (0..n_reps as u64)
        .map(|i| one_rep(mode, &inp, mix(i), 0, &mut Tracer::off()))
        .collect();

    let makespans: Vec<f64> = reps.iter().map(|r| r.makespan_s).collect();
    let latencies: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.latency_s.iter().flatten().copied())
        .collect();
    let makespan = stats::median(&makespans);
    let jobs_per_rep = reps[0].jobs.len();
    out.e2e.set("ops_per_s", jobs_per_rep as f64 / makespan);
    let tail = record_latency(&mut out.e2e, &latencies, TAIL);
    out.e2e.set("setup_s", setup_s);
    out.e2e.set("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "{} untraced repetitions, makespan median {:.4} s (min {:.4}, max {:.4}); \
         {} job latencies, tail at p{tail}",
        reps.len(),
        makespan,
        makespans.iter().copied().fold(f64::INFINITY, f64::min),
        makespans.iter().copied().fold(0.0, f64::max),
        latencies.len(),
    ));

    // Traced repetition and the extra per-layer measurements.
    let mut traced: Option<Rep> = None;
    let mut crew: Option<Rep> = None;
    if ctx.trace {
        // The traced and the crew repetition re-run mix 0 and are
        // compared with its untraced repetition.
        let untraced = reps[0].makespan_s;
        let mut tr = Tracer::on(RING_EVENTS);
        let rep = one_rep(mode, &inp, mix(0), 0, &mut tr);
        let (traced_events, dropped) = tr.drain();
        let l = &mut out.layer;
        record_exec(l, &tr.log, DRIVE, &traced_events, &rep.counters, rep.rounds);
        l.set("batch.makespan_s", makespan);
        l.set(
            "memsim.wall_over_modeled",
            untraced / rep.counters.modeled_s,
        );
        let overhead = rep.makespan_s / untraced;
        out.chrome = tr.chrome(&traced_events);
        traced = Some(rep);

        // One more repetition on the concurrent executor (2 I/O
        // threads): its program-side spans exist on this path only.
        let mut tr = Tracer::on(RING_EVENTS);
        let rep = one_rep(mode, &inp, mix(0), 2, &mut tr);
        let (events, dropped_crew) = tr.drain();
        l.set("exec.crew_over_forkjoin", rep.makespan_s / untraced);
        l.set(
            "exec.span.fetch_issue_s",
            event_seconds(&events, "fetch_issue"),
        );
        l.set(
            "exec.span.reorder_wait_s",
            event_seconds(&events, "reorder_wait"),
        );
        l.set(
            "exec.span.trigger_chunk_s",
            event_seconds(&events, "trigger_chunk"),
        );
        crew = Some(rep);
        record_traced(
            l,
            &Traced {
                partition_s: inp.partition_s,
                replication: inp.replication,
                events: traced_events.len(),
                dropped: dropped + dropped_crew,
                overhead,
                ops: jobs_per_rep,
                tail,
            },
        );

        match mode {
            Mode::Shared => l.set("sched.plan_p50_us", sched_plan_p50_us()),
            Mode::Solo => {
                let k = kernel_phase(&inp, &reps[0].jobs);
                l.set("job.init_s", k.init_s);
                l.set("job.trigger_s", k.trigger_s);
                l.set("job.push_s", k.push_s);
                l.set(
                    "job.trigger_medges_per_s",
                    k.edge_ops as f64 / 1e6 / k.trigger_s,
                );
                l.set("job.iterations", k.iterations as f64);
            }
        }
    }

    // Correctness, outside every timed region.
    let mut refs =
        References { oracle: sut::Oracle::new(inp.edges.clone()), solved: HashMap::new() };
    verify(&mut out, &mut refs, &warm, "warm-up");
    for (i, rep) in reps.iter().enumerate() {
        verify(&mut out, &mut refs, rep, &format!("repetition {i}"));
    }
    if let Some(rep) = &traced {
        verify(&mut out, &mut refs, rep, "traced repetition");
    }
    if let Some(rep) = &crew {
        verify(&mut out, &mut refs, rep, "crew repetition");
    }
    out
}
