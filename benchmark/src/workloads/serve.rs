//! `serve_stream`: many short jobs over a small evolving store.
//!
//! Two phases share one store and one seeded arrival stream (one
//! PageRank and one WCC in every eight jobs, the rest short
//! source-rooted SSSP/BFS/SSWP):
//!
//! * `trace` — **closed**: the whole stream is offered up front to
//!   `ServeLoop::serve()` with a completion journal in a scratch
//!   directory and a 10 ms (virtual) admission window.  The loop runs on
//!   its virtual clock; the wall time of the call is measured.
//!   `ops_per_s` is completed jobs over that wall time.
//! * `open` — **open loop** on the wall clock at a fixed rate
//!   (exponential gaps): the harness submits each arrival when it is
//!   due, calls `step_round`, and stamps a job when it is done.  Latency
//!   runs from the *due* time, so a stall is charged to every job it
//!   delays; how late the generator ran is reported.  `op_p50_ms` and
//!   `op_tail_ms` are percentiles of that latency.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::gen::{self, ArrivalSpec, JobSpec};
use crate::harness::{
    event_seconds, p50_us, peak_rss_mb, timed_setup, RunCtx, RunResult, ScratchDir, Tracer,
};
use crate::oracle;
use crate::stats;
use crate::sut::{self, EngineOpts, ExecCounters, HierarchyConfig, JobId, Served, SnapshotStore};
use crate::workloads::{
    record_exec, record_latency, record_traced, sched_plan_p50_us, Traced, SPAN_ROUND, SPAN_SUBMIT,
};

const DRIVE: &str = "serve.open";
const SPAN_OFFER: &str = "serve.offer";
const SPAN_SERVE: &str = "serve.serve";
/// The tail percentile open-loop latency is read at: 324 arrivals
/// leave 16 beyond p95, and a quarter of the jobs are long ones, so p95
/// lies well inside their cluster.
const TAIL: f64 = 95.0;
/// Admission window of the trace phase, virtual seconds.
const ADMISSION_WINDOW: f64 = 0.010;
/// Virtual seconds per modeled second in the trace phase.  Arrivals
/// keep the open loop's 18 jobs/s spacing in virtual time; a job costs
/// about 17 modeled ms, so at this scale the virtual server is a bit
/// over half busy: jobs overlap, and admission waves and slot sharing
/// both happen without an ever-growing virtual backlog.
const TIME_SCALE: f64 = 2.0;
/// A job is late when its open-loop latency exceeds this: twice the
/// committed-baseline `op_tail_ms` of this workload.
const LATE_LIMIT_MS: f64 = 300.0;
/// Times the trace phase is served for its median.
const TRACE_REPS: usize = 3;
/// Ring size per program thread for the traced repetition.
const RING_EVENTS: usize = 1 << 16;
/// Every n-th job is checked against the reference.
const CHECK_EVERY: usize = 10;

struct Inputs {
    store: Arc<SnapshotStore>,
    hierarchy: HierarchyConfig,
    /// Timestamp of the newest snapshot; every job binds it.
    newest_ts: u64,
    sources: Vec<u32>,
    partition_s: f64,
    replication: f64,
    apply_s: Vec<f64>,
}

fn setup(ctx: &RunCtx) -> Inputs {
    let (scale, ef, parts, shards) = ctx.sizes.serve;
    let edges = sut::build_graph(scale, ef, ctx.seed);
    let n = sut::num_vertices(&edges);
    let t = Instant::now();
    let ps = sut::partition(&edges, parts);
    let partition_s = t.elapsed().as_secs_f64();
    let replication = sut::replication_factor(&ps);
    let hierarchy = sut::out_of_core(sut::structure_bytes(&ps));
    let mut store = sut::new_store(ps, shards);
    // 0.1 % of the edges added and as many removed per snapshot.
    let base: Vec<(u32, u32)> = sut::edge_triples(&edges).map(|(s, d, _)| (s, d)).collect();
    let churn = (base.len() / 1000).max(1);
    let history = gen::evolve_stream(ctx.seed, &base, n, ctx.sizes.serve_snapshots, churn);
    let mut apply_s = Vec::with_capacity(history.len());
    for (i, spec) in history.iter().enumerate() {
        let delta = sut::prepare_delta(spec);
        let t = Instant::now();
        sut::apply(&mut store, i as u64 + 1, &delta).expect("history delta applies");
        apply_s.push(t.elapsed().as_secs_f64());
    }
    let sources = gen::eligible_sources(&sut::out_degrees(&edges));
    Inputs {
        store: Arc::new(store),
        hierarchy,
        newest_ts: history.len() as u64,
        sources,
        partition_s,
        replication,
        apply_s,
    }
}

/// The trace phase's outcome.
struct TracePhase {
    serve_wall_s: f64,
    offer_s: Vec<f64>,
    served: Served,
    jobs: PhaseJobs,
}

/// Per-arrival outcome of one phase, for the correctness pass.
struct PhaseJobs {
    /// Whether each arrival's job converged.
    done: Vec<bool>,
    /// Result of every [`CHECK_EVERY`]-th arrival, by arrival index.
    checked: Vec<(usize, Option<sut::Values>)>,
}

impl PhaseJobs {
    fn collect(
        arrivals: &[ArrivalSpec],
        engine: &sut::Engine,
        id_of: impl Fn(usize) -> Option<JobId>,
    ) -> Self {
        let done: Vec<bool> = (0..arrivals.len())
            .map(|i| id_of(i).is_some_and(|id| sut::job_done(engine, id)))
            .collect();
        let checked = (0..arrivals.len())
            .step_by(CHECK_EVERY)
            .map(|i| {
                let result = id_of(i)
                    .filter(|_| done[i])
                    .and_then(|id| sut::results(engine, arrivals[i].job, id));
                (i, result)
            })
            .collect();
        PhaseJobs { done, checked }
    }
}

fn trace_phase(
    inp: &Inputs,
    arrivals: &[ArrivalSpec],
    window: f64,
    journal: bool,
    tr: &mut Tracer,
) -> TracePhase {
    let opts =
        EngineOpts { hierarchy: Some(inp.hierarchy), io_workers: 0, observer: tr.observer.clone() };
    let engine = sut::engine(&inp.store, &opts);
    let scratch = ScratchDir::new("journal");
    let path = scratch.path().join("journal.seg");
    let mut serve = sut::serve_loop(
        engine,
        window,
        TIME_SCALE,
        journal.then_some(path.as_path()),
    )
    .expect("journal opens in the scratch directory");
    let ids: sut::AssignedIds = Arc::new(Mutex::new(vec![None; arrivals.len()]));
    let mut offer_s = Vec::with_capacity(arrivals.len());
    for (i, a) in arrivals.iter().enumerate() {
        // Virtual arrival: the newest snapshot's second plus the due time.
        let at = inp.newest_ts as f64 + a.due_s;
        let s = tr.log.begin(SPAN_OFFER, i as u64);
        let t = Instant::now();
        sut::offer(&mut serve, i, at, a.job, &ids);
        offer_s.push(t.elapsed().as_secs_f64());
        tr.log.end(s);
    }
    let s = tr.log.begin(SPAN_SERVE, 0);
    let t = Instant::now();
    let served = sut::serve(&mut serve);
    let serve_wall_s = t.elapsed().as_secs_f64();
    tr.log.end(s);
    let engine = sut::serve_engine(&serve);
    let ids = ids.lock().expect("id table lock");
    let jobs = PhaseJobs::collect(arrivals, engine, |i| ids[i]);
    TracePhase { serve_wall_s, offer_s, served, jobs }
}

/// The open-loop phase's outcome.
struct OpenPhase {
    /// Due-to-done seconds per arrival; `None` if it never finished.
    latency_s: Vec<Option<f64>>,
    /// Seconds each submission ran behind its due time.
    gen_lag_s: Vec<f64>,
    max_open: usize,
    rounds: u64,
    counters: ExecCounters,
    jobs: PhaseJobs,
}

fn open_phase(inp: &Inputs, arrivals: &[ArrivalSpec], tr: &mut Tracer) -> OpenPhase {
    let n = arrivals.len();
    let opts =
        EngineOpts { hierarchy: Some(inp.hierarchy), io_workers: 0, observer: tr.observer.clone() };
    let mut engine = sut::engine(&inp.store, &opts);
    let mut latency_s = vec![None; n];
    let mut gen_lag_s = Vec::with_capacity(n);
    let mut ids: Vec<JobId> = Vec::with_capacity(n);
    let mut open: Vec<usize> = Vec::new();
    let (mut next, mut max_open, mut rounds) = (0usize, 0usize, 0u64);
    let drive = tr.log.begin(DRIVE, 0);
    let t0 = Instant::now();
    loop {
        let now = t0.elapsed().as_secs_f64();
        while next < n && arrivals[next].due_s <= now {
            gen_lag_s.push(t0.elapsed().as_secs_f64() - arrivals[next].due_s);
            let s = tr.log.begin(SPAN_SUBMIT, next as u64);
            ids.push(sut::submit(&mut engine, arrivals[next].job, inp.newest_ts));
            tr.log.end(s);
            open.push(next);
            next += 1;
        }
        max_open = max_open.max(open.len());
        let s = tr.log.begin(SPAN_ROUND, rounds);
        let ran = sut::step_round(&mut engine);
        tr.log.end(s);
        rounds += ran as u64;
        let now = t0.elapsed().as_secs_f64();
        open.retain(|&i| {
            let done = sut::job_done(&engine, ids[i]);
            if done {
                latency_s[i] = Some(now - arrivals[i].due_s);
            }
            !done
        });
        if ran {
            continue;
        }
        // Engine idle: stop when the stream is spent, else wait for
        // the next due time (sleep most of the gap, spin the rest).
        if next >= n {
            break;
        }
        let gap = arrivals[next].due_s - t0.elapsed().as_secs_f64();
        if gap > 200e-6 {
            std::thread::sleep(Duration::from_secs_f64(gap - 100e-6));
        }
        while t0.elapsed().as_secs_f64() < arrivals[next].due_s {
            std::hint::spin_loop();
        }
    }
    tr.log.end(drive);
    let jobs = PhaseJobs::collect(arrivals, &engine, |i| ids.get(i).copied());
    OpenPhase {
        latency_s,
        gen_lag_s,
        max_open,
        rounds,
        counters: sut::exec_counters(&engine),
        jobs,
    }
}

/// Median microseconds of `ServeJournal::record` and `sync`, one sync
/// per record.
fn journal_bench(n: usize) -> (f64, f64) {
    let scratch = ScratchDir::new("journal-bench");
    let mut journal = sut::journal_open(&scratch.path().join("bench.seg")).expect("journal opens");
    let (mut record_s, mut sync_s) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for seq in 0..n as u64 {
        let t = Instant::now();
        sut::journal_record(&mut journal, seq).expect("journal record");
        record_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        sut::journal_sync(&mut journal).expect("journal sync");
        sync_s.push(t.elapsed().as_secs_f64());
    }
    (p50_us(&record_s), p50_us(&sync_s))
}

/// Seconds `TypedJob::new` takes, summed over one job of each program.
fn job_init_s(inp: &Inputs) -> f64 {
    let src = inp.sources[0];
    let programs = [
        JobSpec::PageRank,
        JobSpec::Sssp(src),
        JobSpec::Bfs(src),
        JobSpec::Wcc,
        JobSpec::Sswp(src),
        JobSpec::Reach(src),
    ];
    let mut total = 0.0;
    for spec in programs {
        let view = sut::view_at(&inp.store, inp.newest_ts);
        let t = Instant::now();
        let job = sut::typed_job(spec, view);
        total += t.elapsed().as_secs_f64();
        std::hint::black_box(&job);
    }
    total
}

/// Counts one phase's jobs: a job fails when it did not converge or,
/// if it is one of the checked ones, when its result is wrong.
fn account(
    out: &mut RunResult,
    oracle: &sut::Oracle,
    arrivals: &[ArrivalSpec],
    jobs: &PhaseJobs,
    phase: &str,
) {
    let mut wrong = vec![false; jobs.done.len()];
    for (i, got) in &jobs.checked {
        wrong[*i] = !got
            .as_ref()
            .is_some_and(|g| oracle::matches(g, &oracle.solve(arrivals[*i].job)));
    }
    for (i, &done) in jobs.done.iter().enumerate() {
        out.check(done && !wrong[i], || {
            format!(
                "{phase}: arrival {i} ({}) unfinished or wrong",
                arrivals[i].job.name()
            )
        });
    }
}

/// The serve report must account for every offer.
fn account_report(out: &mut RunResult, t: &TracePhase, phase: &str) {
    let s = &t.served;
    let (accounted, offered) = (
        s.completed + s.quarantined + s.rejected,
        t.jobs.done.len() as u64,
    );
    out.check(accounted == offered && s.truncated == 0, || {
        format!("{phase}: completed + quarantined + rejected = {accounted}, offered {offered}")
    });
}

/// Runs the serve workload.
pub fn run(ctx: &RunCtx) -> RunResult {
    let mut out = RunResult::default();
    let sz = &ctx.sizes;
    let (setup_s, inp) = timed_setup(sz.setup_reps, || setup(ctx));
    let (scale, ef, parts, shards) = sz.serve;
    let n_open = ctx.work(sz.serve_arrivals);
    let n_trace = ctx.work(sz.serve_trace_jobs);
    let open_stream = gen::arrivals(ctx.seed, n_open, sz.serve_rate, &inp.sources);
    let trace_stream = &open_stream[..n_trace.min(n_open)];
    out.notes.push(format!(
        "store: R-MAT scale {scale} x ef {ef}, {parts} partitions, {shards} shards, {} snapshots; \
         trace phase: closed, {} jobs through serve(), journal on, admission window {} ms virtual; \
         open phase: open loop, {} arrivals at {} jobs/s, latency from the due time",
        sz.serve_snapshots,
        trace_stream.len(),
        ADMISSION_WINDOW * 1e3,
        n_open,
        sz.serve_rate,
    ));

    out.notes.push(format!(
        "inputs: arrivals {:016x}",
        gen::hash_arrivals(&open_stream)
    ));

    // Warm-up: a short closed run through the same code.
    let warm_n = trace_stream.len().min(24);
    let warm = trace_phase(
        &inp,
        &trace_stream[..warm_n],
        ADMISSION_WINDOW,
        true,
        &mut Tracer::off(),
    );

    // The trace phase is short and its journal fsyncs are noisy: it is
    // served TRACE_REPS times (once when a traced pass follows) and the
    // median wall time reported.
    let trace_reps = if ctx.trace { 1 } else { TRACE_REPS };
    let mut traces: Vec<TracePhase> = (0..trace_reps)
        .map(|_| {
            trace_phase(
                &inp,
                trace_stream,
                ADMISSION_WINDOW,
                true,
                &mut Tracer::off(),
            )
        })
        .collect();
    traces.sort_by(|a, b| a.serve_wall_s.total_cmp(&b.serve_wall_s));
    let trace = &traces[traces.len() / 2];
    let open = open_phase(&inp, &open_stream, &mut Tracer::off());

    let jobs_per_s = trace.served.completed as f64 / trace.serve_wall_s;
    let latencies: Vec<f64> = open.latency_s.iter().flatten().copied().collect();
    out.e2e.set("ops_per_s", jobs_per_s);
    let tail = record_latency(&mut out.e2e, &latencies, TAIL);
    out.e2e.set("setup_s", setup_s);
    out.e2e.set("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "trace phase: {} jobs in {:.4} s (median of {trace_reps}); open phase: {} latencies, tail at p{tail}, \
         generator lag p99 {:.3} ms, max open jobs {}",
        trace.served.completed,
        trace.serve_wall_s,
        latencies.len(),
        stats::percentile(&open.gen_lag_s, 99.0) * 1e3,
        open.max_open,
    ));

    let mut traced: Option<(TracePhase, OpenPhase)> = None;
    if ctx.trace {
        // Traced pass: the trace phase, then the open loop.
        let mut tr = Tracer::on(RING_EVENTS);
        let t_trace = trace_phase(&inp, trace_stream, ADMISSION_WINDOW, true, &mut tr);
        let (trace_events, dropped_a) = tr.drain();
        let offer_p50 = p50_us(&t_trace.offer_s);
        let mut chrome = tr.chrome(&trace_events);

        let mut tr = Tracer::on(RING_EVENTS);
        let t_open = open_phase(&inp, &open_stream, &mut tr);
        let (open_events, dropped_b) = tr.drain();
        chrome.extend(tr.chrome(&open_events));
        out.chrome = chrome;

        // FIFO admission (window 0) is the spared-loads denominator.
        let fifo = trace_phase(&inp, trace_stream, 0.0, false, &mut Tracer::off());

        let l = &mut out.layer;
        record_exec(
            l,
            &tr.log,
            DRIVE,
            &open_events,
            &t_open.counters,
            t_open.rounds,
        );
        let open_wall = tr.log.total_s(DRIVE);
        l.set(
            "memsim.wall_over_modeled",
            open_wall / t_open.counters.modeled_s,
        );
        l.set("serve.trace_jobs_per_s", jobs_per_s);
        l.set("serve.waves", t_trace.served.waves as f64);
        let spared = if fifo.served.loads == 0 {
            0.0
        } else {
            1.0 - t_trace.served.loads as f64 / fifo.served.loads as f64
        };
        l.set("serve.spared_loads_share", spared);
        let virt = &t_trace.served.virt_latencies_s;
        l.set("serve.virt_p50_ms", stats::percentile(virt, 50.0) * 1e3);
        l.set("serve.virt_p99_ms", stats::percentile(virt, 99.0) * 1e3);
        l.set("serve.offer_p50_us", offer_p50);
        let (record_us, sync_us) = journal_bench(trace_stream.len());
        l.set("serve.journal_record_p50_us", record_us);
        l.set("serve.journal_sync_p50_us", sync_us);
        l.set("serve.serve_s", t_trace.serve_wall_s);
        l.set(
            "serve.span.serve_round_s",
            event_seconds(&trace_events, "serve_round"),
        );
        let lat: Vec<f64> = t_open.latency_s.iter().flatten().copied().collect();
        let by_kind = |long: bool| -> Vec<f64> {
            open_stream
                .iter()
                .zip(&t_open.latency_s)
                .filter(|(a, _)| a.job.is_long() == long)
                .filter_map(|(_, l)| *l)
                .collect()
        };
        l.set("serve.lat_p99_ms", stats::percentile(&lat, 99.0) * 1e3);
        l.set(
            "serve.lat_short_p50_ms",
            stats::median(&by_kind(false)) * 1e3,
        );
        l.set("serve.lat_long_p50_ms", stats::median(&by_kind(true)) * 1e3);
        let late = t_open
            .latency_s
            .iter()
            .filter(|l| l.is_none_or(|s| s * 1e3 > LATE_LIMIT_MS))
            .count();
        l.set(
            "serve.late_share",
            late as f64 / t_open.latency_s.len() as f64,
        );
        l.set("serve.max_open", t_open.max_open as f64);
        l.set(
            "serve.gen_lag_p99_ms",
            stats::percentile(&t_open.gen_lag_s, 99.0) * 1e3,
        );
        l.set("store.apply_p50_us", p50_us(&inp.apply_s));
        l.set("job.init_s", job_init_s(&inp));
        l.set("sched.plan_p50_us", sched_plan_p50_us());
        record_traced(
            l,
            &Traced {
                partition_s: inp.partition_s,
                replication: inp.replication,
                events: trace_events.len() + open_events.len(),
                dropped: dropped_a + dropped_b,
                overhead: t_trace.serve_wall_s / trace.serve_wall_s,
                ops: t_trace.jobs.done.len() + t_open.latency_s.len(),
                tail,
            },
        );
        traced = Some((t_trace, t_open));
    }

    // Correctness, outside every timed region: every job binds the
    // newest snapshot, so one reference graph serves them all.
    let oracle = sut::Oracle::new(sut::edges_of(&sut::view_at(&inp.store, inp.newest_ts)));
    account(
        &mut out,
        &oracle,
        &trace_stream[..warm_n],
        &warm.jobs,
        "warm-up",
    );
    for t in &traces {
        account(&mut out, &oracle, trace_stream, &t.jobs, "trace phase");
        account_report(&mut out, t, "trace phase");
    }
    account(&mut out, &oracle, &open_stream, &open.jobs, "open phase");
    if let Some((t, o)) = &traced {
        account(
            &mut out,
            &oracle,
            trace_stream,
            &t.jobs,
            "traced trace phase",
        );
        account_report(&mut out, t, "traced trace phase");
        account(
            &mut out,
            &oracle,
            &open_stream,
            &o.jobs,
            "traced open phase",
        );
    }
    out
}
