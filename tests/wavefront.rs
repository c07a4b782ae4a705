//! Wavefront-scheduling semantics: `Scheduler::plan` at width 1 is the
//! legacy `pick` (property-tested for both schedulers), plans are sane at
//! any width, algorithm results are identical across widths, and the
//! pipelined executor models fewer seconds than the single-slot schedule
//! on TwitterSim (shrink 7, 2 workers, the paper's four-job mix).

use std::sync::Arc;

use proptest::prelude::*;

use cgraph::algos::{Bfs, PageRank, Sssp, Wcc};
use cgraph::core::exec::{flowshop_makespan, pipeline_makespan};
use cgraph::core::{
    Engine, EngineConfig, JobEngine, OrderScheduler, PriorityScheduler, Scheduler, SlotInfo,
};
use cgraph::graph::generate::Dataset;
use cgraph::graph::snapshot::SnapshotStore;
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, PartitionSet, Partitioner};
use cgraph::memsim::HierarchyConfig;
use cgraph_bench::{
    hierarchy_for, out_of_core_hierarchy, paper_mix, partitions_for, run_wavefront,
    run_wavefront_cfg, Scale,
};

/// Arbitrary non-empty slot sets, degrees/changes quantized to avoid
/// meaningless float-tie flakiness.  Shards follow the engine's
/// round-robin placement over four lanes.
fn arb_slots() -> impl Strategy<Value = Vec<SlotInfo>> {
    proptest::collection::vec((0u32..64, 0u32..4, 1usize..6, 0u64..500, 0u64..500), 1..24).prop_map(
        |raw| {
            raw.into_iter()
                .map(|(pid, version, num_jobs, deg, chg)| SlotInfo {
                    pid,
                    version,
                    shard: pid as usize % 4,
                    num_jobs,
                    avg_degree: deg as f64 / 10.0,
                    avg_change: chg as f64 / 100.0,
                })
                .collect()
        },
    )
}

/// Arbitrary wave stage times: per-slot (fetch, install, trigger, lane),
/// quantized to dodge float-tie noise.
fn arb_stages() -> impl Strategy<Value = Vec<(f64, f64, f64, usize)>> {
    proptest::collection::vec((0u64..400, 0u64..100, 0u64..300, 0usize..4), 0..16).prop_map(|raw| {
        raw.into_iter()
            .map(|(f, m, t, lane)| (f as f64 / 20.0, m as f64 / 50.0, t as f64 / 25.0, lane))
            .collect()
    })
}

fn unzip_stages(stages: &[(f64, f64, f64, usize)]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<usize>) {
    let fetch = stages.iter().map(|s| s.0).collect();
    let install = stages.iter().map(|s| s.1).collect();
    let trigger = stages.iter().map(|s| s.2).collect();
    let lanes = stages.iter().map(|s| s.3).collect();
    (fetch, install, trigger, lanes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Three-stage makespan never exceeds the linear (no-overlap) sum of
    /// all stage times, and never beats any serialized resource: the
    /// busiest fetch lane, the install channel, or the trigger chain.
    #[test]
    fn pipeline_bounded_by_linear_and_stage_floors(
        stages in arb_stages(),
        depth in 0usize..6,
    ) {
        let (fetch, install, trigger, lanes) = unzip_stages(&stages);
        let c = pipeline_makespan(&fetch, &install, &trigger, &lanes, depth);
        let linear: f64 = fetch.iter().sum::<f64>()
            + install.iter().sum::<f64>()
            + trigger.iter().sum::<f64>();
        prop_assert!(c <= linear + 1e-9, "makespan {c} beat the linear sum {linear}");
        let mut lane_sums = [0.0f64; 4];
        for s in &stages {
            lane_sums[s.3] += s.0;
        }
        let floor = lane_sums
            .iter()
            .cloned()
            .fold(install.iter().sum::<f64>().max(trigger.iter().sum()), f64::max);
        prop_assert!(c >= floor - 1e-9, "makespan {c} below stage floor {floor}");
    }

    /// With a zero-depth window the three-stage pipeline degenerates to
    /// the fused two-stage flow shop — the PR 1 model — at any lane
    /// layout; a single-lane store can then only improve with depth.
    #[test]
    fn pipeline_depth_zero_is_the_two_stage_model(
        stages in arb_stages(),
        depth in 1usize..6,
    ) {
        let (fetch, install, trigger, lanes) = unzip_stages(&stages);
        let fused: Vec<f64> = fetch.iter().zip(&install).map(|(f, m)| f + m).collect();
        let two_stage = flowshop_makespan(&fused, &trigger);
        let at_zero = pipeline_makespan(&fetch, &install, &trigger, &lanes, 0);
        prop_assert!(
            (at_zero - two_stage).abs() <= 1e-9 * two_stage.max(1.0),
            "depth 0: {at_zero} vs two-stage {two_stage}"
        );
        // Single lane (shards = 1): deeper windows still help by
        // overlapping fetch with install, but never hurt.
        let one_lane = vec![0usize; fetch.len()];
        let deep = pipeline_makespan(&fetch, &install, &trigger, &one_lane, depth);
        prop_assert!(deep <= two_stage + 1e-9, "depth {depth}: {deep} > {two_stage}");
    }

    /// The default `plan` at width 1 is exactly the legacy single-slot
    /// `pick` for the priority scheduler, at any θ.
    #[test]
    fn priority_plan_width_one_equals_pick(slots in arb_slots(), theta in 0u64..100) {
        let mut s = PriorityScheduler::new(theta as f64 / 100.0);
        let plan = s.plan(&slots, 1);
        prop_assert_eq!(plan, vec![s.pick(&slots)]);
    }

    /// Same equivalence for the fixed-order ablation scheduler.
    #[test]
    fn order_plan_width_one_equals_pick(slots in arb_slots()) {
        let mut s = OrderScheduler;
        let plan = s.plan(&slots, 1);
        prop_assert_eq!(plan, vec![s.pick(&slots)]);
    }

    /// Plans of any width are non-empty, duplicate-free, in range, and
    /// sized `min(width, slots)`; the first choice is always `pick`.
    #[test]
    fn plans_are_wellformed(slots in arb_slots(), width in 1usize..20, theta in 0u64..100) {
        let mut s = PriorityScheduler::new(theta as f64 / 100.0);
        let plan = s.plan(&slots, width);
        prop_assert_eq!(plan.len(), width.min(slots.len()));
        prop_assert!(plan.iter().all(|&i| i < slots.len()));
        let mut dedup = plan.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), plan.len(), "duplicate slots planned");
        prop_assert_eq!(plan[0], s.pick(&slots), "first wave slot must be the pick");
    }
}

fn partitions() -> PartitionSet {
    let el = generate::rmat(10, 6, generate::RmatParams::default(), 77);
    VertexCutPartitioner::new(16).partition(&el)
}

fn tight(ps: &PartitionSet) -> HierarchyConfig {
    let total: u64 = ps.partitions().iter().map(|p| p.structure_bytes()).sum();
    HierarchyConfig { cache_bytes: (total / 6).max(1), memory_bytes: total * 4 }
}

fn mix_results_cfg(
    ps: PartitionSet,
    width: usize,
    shards: usize,
    depth: usize,
) -> (Vec<f64>, Vec<f32>, Vec<u32>, Vec<u32>) {
    let hierarchy = tight(&ps);
    let mut e = Engine::new(
        Arc::new(SnapshotStore::with_shards(ps, shards)),
        EngineConfig {
            wavefront: width,
            prefetch_depth: depth,
            hierarchy,
            ..EngineConfig::default()
        },
    );
    let pr = e.submit(PageRank::default());
    let ss = e.submit(Sssp::new(0));
    let bf = e.submit(Bfs::new(0));
    let wc = e.submit(Wcc);
    assert!(
        e.run().completed,
        "width {width} shards {shards} depth {depth} must converge"
    );
    (
        e.results::<PageRank>(pr).unwrap(),
        e.results::<Sssp>(ss).unwrap(),
        e.results::<Bfs>(bf).unwrap(),
        e.results::<Wcc>(wc).unwrap(),
    )
}

fn mix_results(ps: PartitionSet, width: usize) -> (Vec<f64>, Vec<f32>, Vec<u32>, Vec<u32>) {
    mix_results_cfg(ps, width, 1, 0)
}

/// The exact bit patterns of a PageRank result.
fn bits(ranks: &[f64]) -> Vec<u64> {
    ranks.iter().map(|r| r.to_bits()).collect()
}

/// Any wavefront width converges to the same algorithm results, bit for
/// bit: min-plus fixpoints (SSSP/BFS/WCC) and PageRank alike, because
/// Trigger and Push fold in an order no schedule can change.
#[test]
fn wavefront_widths_agree_on_results() {
    let ps = partitions();
    let base = mix_results(ps.clone(), 1);
    for width in [2usize, 4, 8] {
        let wide = mix_results(ps.clone(), width);
        assert_eq!(wide.2, base.2, "BFS mismatch at width {width}");
        assert_eq!(wide.3, base.3, "WCC mismatch at width {width}");
        assert_eq!(wide.1, base.1, "SSSP mismatch at width {width}");
        assert_eq!(
            bits(&wide.0),
            bits(&base.0),
            "PageRank mismatch at width {width}"
        );
    }
}

/// The engines-agree case for the prefetch pipeline: at `shards = 4,
/// prefetch_depth = 2` every algorithm converges to the same answers as
/// the classic single-slot schedule — lanes and windows change the
/// modeled overlap, never the computation.
#[test]
fn sharded_prefetch_agrees_on_results() {
    let ps = partitions();
    let base = mix_results(ps.clone(), 1);
    let pre = mix_results_cfg(ps, 4, 4, 2);
    assert_eq!(pre.1, base.1, "SSSP mismatch under prefetch");
    assert_eq!(pre.2, base.2, "BFS mismatch under prefetch");
    assert_eq!(pre.3, base.3, "WCC mismatch under prefetch");
    assert_eq!(
        bits(&pre.0),
        bits(&base.0),
        "PageRank mismatch under prefetch"
    );
}

/// A sharded snapshot store is transparent to the engine: at width 1
/// (no tie-breaks, no prefetch) the counters are bit-for-bit identical
/// to the single-shard store's.
#[test]
fn sharded_store_engine_counters_identical_at_width_one() {
    let el = generate::rmat(10, 6, generate::RmatParams::default(), 77);
    let run = |shards: usize| {
        let ps = VertexCutPartitioner::new(16).partition(&el);
        let h = tight(&ps);
        let store = Arc::new(SnapshotStore::with_shards(ps, shards));
        let mut e = Engine::new(
            store,
            EngineConfig { hierarchy: h, ..EngineConfig::default() },
        );
        e.submit(Bfs::new(0));
        e.submit(Wcc);
        let report = e.run_jobs();
        assert!(report.completed);
        (report.metrics, report.modeled_seconds, report.loads)
    };
    assert_eq!(run(1), run(4));
}

/// Width 1 through the layered executor is the classic engine: a second
/// engine at the default config produces identical counters (the
/// engines-agree and determinism suites pin the rest).
#[test]
fn default_config_plans_single_slots() {
    assert_eq!(EngineConfig::default().wavefront, 1);
    let ps = partitions();
    let run = |cfg: EngineConfig| {
        let mut e = Engine::from_partitions(ps.clone(), cfg);
        e.submit(Bfs::new(0));
        e.submit(Wcc);
        let before = e.global_metrics();
        e.run_jobs();
        e.global_metrics().since(&before)
    };
    let default = run(EngineConfig { hierarchy: tight(&ps), ..EngineConfig::default() });
    let explicit =
        run(EngineConfig { wavefront: 1, hierarchy: tight(&ps), ..EngineConfig::default() });
    assert_eq!(default, explicit);
}

/// The acceptance check for the pipelined executor: on TwitterSim
/// (shrink 7, 2 workers, the paper's mix), planning a wavefront of k > 1
/// slots models fewer seconds than the single-slot schedule, because
/// slot i+1's Load overlaps slot i's Trigger inside every round.
#[test]
fn wavefront_pipelining_models_fewer_seconds() {
    let scale = Scale { shrink: 7 };
    let ds = Dataset::TwitterSim;
    let ps = partitions_for(ds, scale);
    let h = hierarchy_for(ds, &ps);
    let store = Arc::new(SnapshotStore::new(ps));
    let k1 = run_wavefront(&store, 2, h, 1, &paper_mix());
    let k2 = run_wavefront(&store, 2, h, 2, &paper_mix());
    let k4 = run_wavefront(&store, 2, h, 4, &paper_mix());
    assert!(k1.completed && k2.completed && k4.completed);
    assert!(
        k2.modeled_seconds < k1.modeled_seconds,
        "k=2 {:.6}s must beat k=1 {:.6}s",
        k2.modeled_seconds,
        k1.modeled_seconds
    );
    assert!(
        k4.modeled_seconds < k1.modeled_seconds,
        "k=4 {:.6}s must beat k=1 {:.6}s",
        k4.modeled_seconds,
        k1.modeled_seconds
    );
}

/// The acceptance check for the prefetch pipeline: on the out-of-core
/// configuration (disk-bound loads), a `wavefront = 4, shards = 4` wave
/// with a depth-2 prefetch window models at least 15% less round time
/// than the same wave with prefetch disabled, while moving exactly the
/// same traffic.
#[test]
fn sharded_prefetch_models_at_least_15_percent_less() {
    let scale = Scale { shrink: 7 };
    let ds = Dataset::TwitterSim;
    let ps = partitions_for(ds, scale);
    let h = out_of_core_hierarchy(&ps);
    let store = Arc::new(SnapshotStore::with_shards(ps, 4));
    let fused = run_wavefront_cfg(&store, 2, h, 4, 0, &paper_mix());
    let prefetched = run_wavefront_cfg(&store, 2, h, 4, 2, &paper_mix());
    assert!(fused.completed && prefetched.completed);
    // Same plan, same access sequence, same counters: the prefetch
    // window changes only the modeled overlap.
    assert_eq!(
        fused.metrics, prefetched.metrics,
        "traffic must be invariant"
    );
    assert_eq!(fused.loads, prefetched.loads);
    let reduction = 1.0 - prefetched.modeled_seconds / fused.modeled_seconds;
    assert!(
        reduction >= 0.15,
        "depth-2 prefetch over 4 shards must cut modeled time ≥15%: \
         {:.6}s vs {:.6}s ({:.1}%)",
        prefetched.modeled_seconds,
        fused.modeled_seconds,
        reduction * 100.0
    );
}

/// Prefetch depth is monotone in the model: deeper windows never model
/// more seconds on the same schedule, and every depth stays at or above
/// nothing-to-hide floors (completeness comes from the property tests).
#[test]
fn prefetch_depth_is_monotone_in_modeled_time() {
    let scale = Scale { shrink: 7 };
    let ds = Dataset::TwitterSim;
    let ps = partitions_for(ds, scale);
    let h = out_of_core_hierarchy(&ps);
    let store = Arc::new(SnapshotStore::with_shards(ps, 4));
    let mut prev = f64::INFINITY;
    for depth in [0usize, 1, 2, 4] {
        let r = run_wavefront_cfg(&store, 2, h, 4, depth, &paper_mix());
        assert!(r.completed);
        assert!(
            r.modeled_seconds <= prev + 1e-12,
            "depth {depth} modeled {:.6}s regressed past {prev:.6}s",
            r.modeled_seconds
        );
        prev = r.modeled_seconds;
    }
}
