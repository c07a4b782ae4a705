//! O(Δ) snapshot ingest: layered delta-chain records keep `apply` cost
//! flat in chain length, and checkpoint compaction bounds historical
//! walks — without either ever changing what any view observes.

use std::sync::{Arc, Mutex, MutexGuard};

use cgraph::graph::snapshot::{CompactionPolicy, GraphDelta, SnapshotStore};
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, PartitionSet, Partitioner};
use cgraph_bench::{ingest_run, ingest_stream, IngestRun};

const VERTICES: u32 = 4096;
const PARTITIONS: usize = 128;
const DELTAS: usize = 200;
const EDGES_PER_DELTA: usize = 32;

/// Serializes the wall-clock-sensitive tests in this binary: cargo runs
/// test fns on parallel threads by default, and a concurrent 200-apply
/// stream would perturb another test's timing margins.
fn timing_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The pinned constant-size stream: clustered sources (few bounded
/// partition rebuilds per delta) with scattered destinations (the
/// accumulated vertex-override state keeps growing — exactly what the
/// pre-layering layout recloned per apply).
fn stream() -> Vec<GraphDelta> {
    ingest_stream(VERTICES, DELTAS, EDGES_PER_DELTA)
}

fn base_partitions() -> PartitionSet {
    VertexCutPartitioner::new(PARTITIONS).partition(&generate::cycle(VERTICES))
}

fn base_store(policy: CompactionPolicy) -> SnapshotStore {
    SnapshotStore::new(base_partitions()).with_compaction(policy)
}

/// Streams the pinned deltas through the shared bench harness,
/// sampling at the full chain length.
fn run(policy: CompactionPolicy) -> IngestRun {
    ingest_run("test", policy, &base_partitions(), &stream(), &[DELTAS])
}

/// The acceptance pin: a 200-delta stream of constant-size deltas must
/// cost the same per apply at the end of the chain as at the start
/// (within 2×).  Under the pre-layering cumulative-clone layout this
/// ratio exceeds 10×.
#[test]
fn apply_cost_is_flat_in_chain_length() {
    let _serial = timing_lock();
    let layered = run(CompactionPolicy::default());
    let first = layered.mean_us(0..50);
    let last = layered.mean_us(DELTAS - 50..DELTAS);
    assert!(
        last <= 2.0 * first,
        "ingest is not O(Δ): first-50 mean {first:.1}µs, last-50 mean {last:.1}µs"
    );
    assert_eq!(layered.apply_us.len(), DELTAS);
}

/// The layered chain beats the cumulative layout (`EveryK(1)`, which
/// reproduces the pre-layering representation: full state on every
/// record) on total ingest time and resident override bytes.  The wall
/// bound is loose — debug builds spend most of each apply rebuilding
/// partitions, work both layouts share — and compares the fastest of
/// three interleaved runs per layout, since one run of either layout
/// alone spreads by tens of percent on a busy host.  The resident-bytes
/// win is deterministic.
#[test]
fn layered_ingest_beats_cumulative_layout() {
    let _serial = timing_lock();
    let mut fastest = [f64::INFINITY; 2];
    let mut bytes = [0; 2];
    for _ in 0..3 {
        let layouts = [CompactionPolicy::default(), CompactionPolicy::EveryK(1)];
        for (i, policy) in layouts.into_iter().enumerate() {
            let ingest = run(policy);
            fastest[i] = fastest[i].min(ingest.total_us());
            bytes[i] = ingest.points[0].override_bytes;
        }
    }
    let ([layered, cumulative], [lb, cb]) = (fastest, bytes);
    assert!(
        layered * 1.1 <= cumulative,
        "expected a total ingest win, got layered {layered:.0}µs vs cumulative {cumulative:.0}µs \
         (fastest of three runs each)"
    );
    assert!(
        lb * 4 <= cb,
        "layered chain should be ≥4× smaller: {lb} vs {cb} bytes"
    );
}

/// Latest-view lookups resolve through the current-state index: the
/// per-lookup cost after 200 deltas matches the cost after 25 (O(1) in
/// chain length, not a chain walk), measured by `ingest_run`'s latest-view
/// probe.
#[test]
fn latest_view_lookups_stay_constant_time() {
    let _serial = timing_lock();
    let probe = ingest_run(
        "probe",
        CompactionPolicy::Off,
        &base_partitions(),
        &stream(),
        &[25, DELTAS],
    );
    let short = probe.points[0].latest_lookup_ns;
    let long = probe.points[1].latest_lookup_ns;
    // Generous bound: a chain walk would scale ~8× between these points.
    assert!(
        long <= 4.0 * short,
        "latest-view lookup not O(1): {short:.0}ns at 25 deltas vs {long:.0}ns at 200"
    );
}

/// Historical views stay correct and bounded under compaction: every
/// 25th snapshot of the stream observes exactly the edges applied up to
/// it, whichever policy laid out the chain.
#[test]
fn historical_views_identical_across_policies() {
    // Three 200-apply streams: serialized with the timed tests, whose
    // margins they would otherwise perturb.
    let _serial = timing_lock();
    let stores: Vec<Arc<SnapshotStore>> = [
        CompactionPolicy::Off,
        CompactionPolicy::EveryK(4),
        CompactionPolicy::default(),
    ]
    .into_iter()
    .map(|policy| {
        let mut s = base_store(policy);
        for (i, d) in stream().iter().enumerate() {
            s.apply((i as u64 + 1) * 10, d).unwrap();
        }
        Arc::new(s)
    })
    .collect();
    let reference = &stores[0];
    for ts in (0..=DELTAS as u64).step_by(25).map(|i| i * 10) {
        let expect = reference.view_at(ts);
        let expected_len = expect.edges_global().len();
        for other in &stores[1..] {
            let got = other.view_at(ts);
            assert_eq!(got.timestamp(), expect.timestamp());
            assert_eq!(got.edges_global().len(), expected_len, "ts {ts}");
            for pid in (0..PARTITIONS as u32).step_by(7) {
                assert_eq!(got.version_of(pid), expect.version_of(pid), "ts {ts}");
                assert_eq!(
                    got.partition(pid).edges_global(),
                    expect.partition(pid).edges_global(),
                    "ts {ts} pid {pid}"
                );
            }
            for v in (0..VERTICES).step_by(101) {
                assert_eq!(got.master_of(v), expect.master_of(v), "ts {ts} v {v}");
                assert_eq!(got.replicas_of(v), expect.replicas_of(v), "ts {ts} v {v}");
                assert_eq!(got.degree_of(v), expect.degree_of(v), "ts {ts} v {v}");
            }
        }
    }
}
