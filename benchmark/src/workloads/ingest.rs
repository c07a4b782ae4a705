//! `ingest_durable`: the write path only.
//!
//! A seeded stream of deltas — each adds edges fanning out of eight
//! spread sources and removes what the previous delta added — is
//! applied three ways, closed loop, one apply after another:
//!
//! * `durable` — to a store persisted to a scratch directory.  An
//!   operation is a durable apply: `ops_per_s` is the median rate over
//!   the compaction cycles (one checkpoint and the applies before it),
//!   `op_p50_ms` the median single-apply latency.
//! * `recover` — the durable store is dropped and re-opened from its
//!   log several times.  The median open time is `op_tail_ms`: the
//!   slowest operation a user of the store waits for.
//! * `mem` — the same deltas to an in-memory twin, which the `store.*`
//!   per-layer metrics describe (the `wal.*` ones describe `durable`).

use std::sync::Arc;
use std::time::Instant;

use crate::gen::{self, DeltaSpec};
use crate::harness::{
    apply_rebuild_seconds, event_seconds, p50_us, pct_us, peak_rss_mb, timed_setup, RunCtx,
    RunResult, ScratchDir, Tracer,
};
use crate::oracle::EdgeMultiset;
use crate::stats;
use crate::sut::{self, GraphDelta, SnapshotStore};
use crate::workloads::{cycle_rate, record_store, record_traced, Traced, SPAN_APPLY};

/// Sources each delta's additions fan out of.
const FAN_SOURCES: usize = 8;
/// Ring size of the store's event ring: an apply records at most one
/// event per shard and segment.
const RING_EVENTS: usize = 1 << 16;

struct Inputs {
    edges: sut::EdgeList,
    base: sut::PartitionSet,
    shards: usize,
    partition_s: f64,
    replication: f64,
    specs: Vec<DeltaSpec>,
    deltas: Vec<GraphDelta>,
}

impl Inputs {
    fn fresh_store(&self) -> SnapshotStore {
        sut::new_store(self.base.clone(), self.shards)
    }
}

fn setup(ctx: &RunCtx, deltas: usize) -> Inputs {
    let (scale, ef, parts, shards) = ctx.sizes.ingest;
    let edges = sut::build_graph(scale, ef, ctx.seed);
    let t = Instant::now();
    let base = sut::partition(&edges, parts);
    let partition_s = t.elapsed().as_secs_f64();
    let replication = sut::replication_factor(&base);
    let n = sut::num_vertices(&edges);
    let specs = gen::churn_stream(ctx.seed, n, deltas, ctx.sizes.delta_adds, FAN_SOURCES);
    let deltas = specs.iter().map(sut::prepare_delta).collect();
    Inputs { edges, base, shards, partition_s, replication, specs, deltas }
}

/// Applies `deltas` to `store` at timestamps 1, 2, ….  Returns each
/// apply's seconds, how many failed, and the wall time of the loop.
fn apply_stream(
    store: &mut SnapshotStore,
    deltas: &[GraphDelta],
    tr: &mut Tracer,
) -> (Vec<f64>, u64, f64) {
    let mut apply_s = Vec::with_capacity(deltas.len());
    let mut failed = 0;
    let start = Instant::now();
    for (i, delta) in deltas.iter().enumerate() {
        let s = tr.log.begin(SPAN_APPLY, i as u64);
        let t = Instant::now();
        let r = sut::apply(store, i as u64 + 1, delta);
        apply_s.push(t.elapsed().as_secs_f64());
        tr.log.end(s);
        failed += r.is_err() as u64;
    }
    (apply_s, failed, start.elapsed().as_secs_f64())
}

fn pairs_of(view_edges: &sut::EdgeList) -> EdgeMultiset {
    EdgeMultiset::from_pairs(sut::edge_triples(view_edges).map(|(s, d, _)| (s, d)))
}

/// Runs the ingest workload.
pub fn run(ctx: &RunCtx) -> RunResult {
    let mut out = RunResult::default();
    let sz = &ctx.sizes;
    let k = ctx.work(sz.ingest_applies);
    let (setup_s, inp) = timed_setup(sz.setup_reps, || {
        let inp = setup(ctx, k);
        std::hint::black_box(inp.fresh_store());
        inp
    });
    let (scale, ef, parts, shards) = sz.ingest;
    out.notes.push(format!(
        "store: R-MAT scale {scale} x ef {ef}, {parts} partitions, {shards} shards, checkpoint every {}; \
         each delta adds {} edges from {FAN_SOURCES} sources and removes the previous delta's; \
         closed loop; flush: {}",
        sut::CHECKPOINT_EVERY,
        sz.delta_adds,
        sut::FLUSH_POLICY,
    ));

    out.notes.push(format!(
        "inputs: graph {:016x}, deltas {:016x}",
        gen::hash_edges(sut::edge_triples(&inp.edges)),
        gen::hash_deltas(&inp.specs),
    ));

    // Warm-up: a few durable applies to a store that is then discarded.
    {
        let scratch = ScratchDir::new("wal-warm");
        let mut store = sut::persist_to(inp.fresh_store(), scratch.path()).expect("persist");
        apply_stream(&mut store, &inp.deltas[..8.min(k)], &mut Tracer::off());
    }

    // Phase `durable`: the measured applies.
    let scratch = ScratchDir::new("wal");
    let mut durable = sut::persist_to(inp.fresh_store(), scratch.path()).expect("persist");
    let (base_bytes, _) = scratch.usage();
    let (durable_s, durable_failed, durable_wall) =
        apply_stream(&mut durable, &inp.deltas, &mut Tracer::off());
    let (wal_bytes, wal_files) = scratch.usage();

    // Phase `recover`: drop, then re-open from the log.
    drop(durable);
    let mut recover_s = Vec::with_capacity(sz.recover_opens);
    let mut recovered = None;
    for _ in 0..sz.recover_opens.max(1) {
        drop(recovered.take());
        let t = Instant::now();
        let store = sut::open_store(scratch.path());
        recover_s.push(t.elapsed().as_secs_f64());
        recovered = store.ok();
    }
    let recover = stats::median(&recover_s);

    // The recovered store against a host-side multiset, outside every
    // timed region.  Only its edge multiset is kept for the comparison
    // with the twin: one store is alive at a time.
    let mut host = EdgeMultiset::from_pairs(sut::edge_triples(&inp.edges).map(|(s, d, _)| (s, d)));
    let mut host_ok = true;
    for spec in &inp.specs {
        for &p in &spec.adds {
            host.add(p);
        }
        for &p in &spec.removes {
            host_ok &= host.remove(p);
        }
    }
    out.check(host_ok, || {
        "host multiset: a removal found no edge".to_string()
    });
    let recovered_pairs = recovered.map(|s| pairs_of(&sut::edges_of(&sut::latest(&Arc::new(s)))));
    out.check(recovered_pairs.as_ref() == Some(&host), || {
        "recovered store differs from the host multiset (or failed to open)".to_string()
    });

    // Phase `mem`: the same deltas to an in-memory twin, under the
    // store's observer in a traced run.
    let mut mem_tr = if ctx.trace {
        Tracer::on(RING_EVENTS)
    } else {
        Tracer::off()
    };
    let mut twin = inp.fresh_store();
    if let Some(obs) = &mem_tr.observer {
        sut::observe_store(&mut twin, obs);
    }
    let (mem_s, mem_failed, mem_wall) = apply_stream(&mut twin, &inp.deltas, &mut mem_tr);
    let twin = Arc::new(twin);

    // A compaction cycle is one checkpoint and the applies before it.
    out.e2e
        .set("ops_per_s", cycle_rate(&durable_s, sut::CHECKPOINT_EVERY));
    out.e2e.set("op_p50_ms", stats::median(&durable_s) * 1e3);
    out.e2e.set("op_tail_ms", recover * 1e3);
    out.e2e.set("setup_s", setup_s);
    out.e2e.set("peak_rss_mb", peak_rss_mb());
    out.notes.push(format!(
        "{k} durable applies in {durable_wall:.4} s, rate the median over cycles of {}; \
         {k} in-memory applies in {mem_wall:.4} s; recovery median of {} opens {recover:.5} s",
        sut::CHECKPOINT_EVERY,
        recover_s.len(),
    ));

    out.attempted += 2 * k as u64;
    out.failed += durable_failed + mem_failed;
    if durable_failed + mem_failed > 0 {
        out.notes.push(format!(
            "FAILED: {durable_failed} durable and {mem_failed} in-memory applies returned an error"
        ));
    }
    let twin_pairs = pairs_of(&sut::edges_of(&sut::latest(&twin)));
    out.check(twin_pairs == host, || {
        format!(
            "in-memory twin holds {} edges, host multiset {}",
            twin_pairs.len(),
            host.len()
        )
    });
    out.check(recovered_pairs.as_ref() == Some(&twin_pairs), || {
        "recovered store differs from the in-memory twin".to_string()
    });

    if ctx.trace {
        // The store layer is read from the traced `mem` pass alone.
        let (mem_events, mem_dropped) = mem_tr.drain();
        let l = &mut out.layer;
        record_store(l, &twin, &mem_s, &mem_tr.log);
        l.set("store.applies_per_s", k as f64 / mem_wall);
        l.set(
            "store.span.apply_rebuild_s",
            apply_rebuild_seconds(&mem_events),
        );
        out.chrome = mem_tr.chrome(&mem_events);
        drop(twin);

        // The wal layer: the same k deltas to a fresh durable store
        // with the program's store observer attached.
        let mut tr = Tracer::on(RING_EVENTS);
        let obs = tr.observer.clone().expect("tracer is on");
        let t_scratch = ScratchDir::new("wal-traced");
        let mut store = sut::persist_to(inp.fresh_store(), t_scratch.path()).expect("persist");
        sut::observe_store(&mut store, &obs);
        let (_, t_failed, t_wall) = apply_stream(&mut store, &inp.deltas, &mut tr);
        drop(store);
        // Recovery under the observer: replay statistics are reported
        // when the observer is attached to the re-opened store.
        let mut reopened = sut::open_store(t_scratch.path()).expect("traced store re-opens");
        sut::observe_store(&mut reopened, &obs);
        drop(reopened);
        let (events, dropped) = tr.drain();
        out.chrome.extend(tr.chrome(&events));
        out.attempted += k as u64;
        out.failed += t_failed;

        let delta_bytes: usize = inp
            .specs
            .iter()
            .map(|d| d.adds.len() * 12 + d.removes.len() * 8)
            .sum();
        let written = wal_bytes.saturating_sub(base_bytes);
        l.set("wal.recover_s", recover);
        l.set("wal.bytes_written", written as f64);
        l.set(
            "wal.bytes_per_delta_byte",
            written as f64 / delta_bytes.max(1) as f64,
        );
        l.set("wal.segments", wal_files as f64);
        l.set("wal.durable_applies_per_s", k as f64 / durable_wall);
        l.set("wal.durable_apply_p50_us", p50_us(&durable_s));
        l.set("wal.durable_apply_p90_us", pct_us(&durable_s, 90.0));
        l.set("wal.durable_apply_p99_us", pct_us(&durable_s, 99.0));
        l.set("wal.span.append_s", event_seconds(&events, "wal_append"));
        l.set("wal.span.fsync_s", event_seconds(&events, "wal_fsync"));
        l.set(
            "wal.span.checkpoint_s",
            event_seconds(&events, "checkpoint"),
        );
        l.set(
            "wal.span.recovery_replay_s",
            event_seconds(&events, "recovery_replay"),
        );
        l.set("wal.replayed_per_s", k as f64 / recover);
        record_traced(
            l,
            &Traced {
                partition_s: inp.partition_s,
                replication: inp.replication,
                events: mem_events.len() + events.len(),
                dropped: mem_dropped + dropped,
                overhead: t_wall / durable_wall,
                ops: k,
                // `op_tail_ms` is the median recovery, not a percentile
                // of the applies.
                tail: 50.0,
            },
        );
    }

    out
}
