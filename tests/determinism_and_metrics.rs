//! Determinism of the whole pipeline and the metric orderings the paper's
//! figures rely on (sharing, interference, utilization, spared accesses).

use cgraph::algos::{Bfs, PageRank, Sssp, Wcc};
use cgraph::baselines::BaselinePreset;
use cgraph::core::{Engine, EngineConfig, JobEngine, SchedulerKind};
use cgraph::graph::vertex_cut::VertexCutPartitioner;
use cgraph::graph::{generate, Partitioner, PartitionSet};
use cgraph::memsim::{HierarchyConfig, Metrics};

fn partitions() -> PartitionSet {
    let el = generate::rmat(10, 6, generate::RmatParams::default(), 5150);
    VertexCutPartitioner::new(16).partition(&el)
}

fn tight(ps: &PartitionSet, frac: u64) -> HierarchyConfig {
    let total: u64 = ps.partitions().iter().map(|p| p.structure_bytes()).sum();
    HierarchyConfig { cache_bytes: (total / frac).max(1), memory_bytes: total * 4 }
}

fn mix_metrics<E: JobEngine>(engine: &mut E) -> Metrics {
    engine.submit_program(PageRank::default());
    engine.submit_program(Sssp::new(0));
    engine.submit_program(Wcc);
    engine.submit_program(Bfs::new(0));
    let before = engine.global_metrics();
    engine.run_jobs();
    engine.global_metrics().since(&before)
}

#[test]
fn identical_runs_produce_identical_metrics() {
    let ps = partitions();
    let run = || {
        let mut e = Engine::from_partitions(
            ps.clone(),
            EngineConfig { hierarchy: tight(&ps, 6), ..EngineConfig::default() },
        );
        mix_metrics(&mut e)
    };
    assert_eq!(run(), run(), "simulation must be fully deterministic");
}

#[test]
fn cgraph_moves_fewer_structure_bytes_than_seraph() {
    let ps = partitions();
    let h = tight(&ps, 6);
    let mut cg = Engine::from_partitions(
        ps.clone(),
        EngineConfig { hierarchy: h, ..EngineConfig::default() },
    );
    let m_cg = mix_metrics(&mut cg);
    let mut seraph = BaselinePreset::Seraph.build_static(ps.clone(), 4, h);
    let m_se = mix_metrics(&mut seraph);
    assert!(
        m_cg.bytes_mem_to_cache < m_se.bytes_mem_to_cache,
        "CGraph {} vs Seraph {}",
        m_cg.bytes_mem_to_cache,
        m_se.bytes_mem_to_cache
    );
}

#[test]
fn cgraph_miss_rate_below_per_job_engines() {
    let ps = partitions();
    let h = tight(&ps, 8);
    let mut cg = Engine::from_partitions(
        ps.clone(),
        EngineConfig { hierarchy: h, ..EngineConfig::default() },
    );
    let m_cg = mix_metrics(&mut cg);
    let mut nx = BaselinePreset::Nxgraph.build_static(ps.clone(), 4, h);
    let m_nx = mix_metrics(&mut nx);
    assert!(
        m_cg.cache_miss_rate() < m_nx.cache_miss_rate(),
        "CGraph {:.3} vs Nxgraph {:.3}",
        m_cg.cache_miss_rate(),
        m_nx.cache_miss_rate()
    );
}

#[test]
fn per_job_copies_cost_more_io_than_shared_memory() {
    let ps = partitions();
    // Memory big enough for ~one copy of the graph but not four.
    let total: u64 = ps.partitions().iter().map(|p| p.structure_bytes()).sum();
    let h = HierarchyConfig { cache_bytes: total / 8, memory_bytes: total * 2 };
    let mut clip = BaselinePreset::Clip.build_static(ps.clone(), 4, h);
    let m_clip = mix_metrics(&mut clip);
    let mut seraph = BaselinePreset::Seraph.build_static(ps.clone(), 4, h);
    let m_se = mix_metrics(&mut seraph);
    assert!(
        m_clip.bytes_disk_to_mem > m_se.bytes_disk_to_mem,
        "CLIP {} vs Seraph {}",
        m_clip.bytes_disk_to_mem,
        m_se.bytes_disk_to_mem
    );
}

#[test]
fn utilization_higher_for_cgraph() {
    let ps = partitions();
    let h = tight(&ps, 6);
    let mut cg = Engine::from_partitions(
        ps.clone(),
        EngineConfig { hierarchy: h, ..EngineConfig::default() },
    );
    mix_metrics(&mut cg);
    let mut seraph = BaselinePreset::Seraph.build_static(ps.clone(), 4, h);
    mix_metrics(&mut seraph);
    assert!(
        cg.utilization() > seraph.utilization(),
        "CGraph {:.3} vs Seraph {:.3}",
        cg.utilization(),
        seraph.utilization()
    );
}

#[test]
fn priority_scheduler_not_worse_than_fixed_order() {
    let ps = partitions();
    let h = tight(&ps, 8);
    let run = |kind| {
        let mut e = Engine::from_partitions(
            ps.clone(),
            EngineConfig { scheduler: kind, hierarchy: h, ..EngineConfig::default() },
        );
        let m = mix_metrics(&mut e);
        e.cost_model().total_seconds(&m, 4)
    };
    let pri = run(SchedulerKind::Priority { theta: 0.5 });
    let fixed = run(SchedulerKind::FixedOrder);
    assert!(
        pri <= fixed * 1.05,
        "priority {pri:.6}s should not lose to fixed order {fixed:.6}s"
    );
}

#[test]
fn spared_accesses_grow_with_job_count() {
    // Fig. 19's trend: more concurrent jobs amortize more accesses
    // relative to running them sequentially.
    let ps = partitions();
    let h = tight(&ps, 6);
    let spared = |rotations: u32| {
        let mut seq = BaselinePreset::Sequential.build_static(ps.clone(), 4, h);
        let mut cg = Engine::from_partitions(
            ps.clone(),
            EngineConfig { hierarchy: h, ..EngineConfig::default() },
        );
        for r in 0..rotations {
            seq.submit_program(Bfs::new(r));
            seq.submit_program(Sssp::new(r));
            cg.submit_program(Bfs::new(r));
            cg.submit_program(Sssp::new(r));
        }
        let ms = {
            let b = seq.global_metrics();
            seq.run_jobs();
            seq.global_metrics().since(&b)
        };
        let mc = {
            let b = cg.global_metrics();
            cg.run_jobs();
            cg.global_metrics().since(&b)
        };
        let seq_bytes = (ms.bytes_mem_to_cache + ms.bytes_disk_to_mem) as f64;
        let cg_bytes = (mc.bytes_mem_to_cache + mc.bytes_disk_to_mem) as f64;
        1.0 - cg_bytes / seq_bytes
    };
    let few = spared(1);
    let many = spared(4);
    assert!(
        many > few,
        "8 jobs must spare more than 2 jobs: {many:.3} vs {few:.3}"
    );
    assert!(many > 0.0, "sharing must spare something: {many:.3}");
}

#[test]
fn core_subgraph_partitioning_is_result_neutral() {
    // Design decision D3: packing the core subgraph changes *where* edges
    // live, never what any job computes.
    use cgraph::graph::core_subgraph::{CoreSubgraphPartitioner, CoreThreshold};
    let el = generate::rmat(9, 6, generate::RmatParams::default(), 404);
    let run = |ps: PartitionSet| {
        let mut e = Engine::from_partitions(ps, EngineConfig::default());
        let b = e.submit(Bfs::new(0));
        let w = e.submit(Wcc);
        assert!(e.run().completed);
        (e.results::<Bfs>(b).unwrap(), e.results::<Wcc>(w).unwrap())
    };
    let plain = run(VertexCutPartitioner::new(16).partition(&el));
    let core = run(
        CoreSubgraphPartitioner::new(16, CoreThreshold::TopFraction(0.05)).partition(&el),
    );
    assert_eq!(plain, core);
}

#[test]
fn core_subgraph_concentrates_hot_degree_partitions() {
    // The packed core partitions should show a higher average degree than
    // any plain equal-edge partition — the property the scheduler's D(P)
    // term exploits.
    use cgraph::graph::core_subgraph::{CoreSubgraphPartitioner, CoreThreshold};
    let el = generate::rmat(10, 8, generate::RmatParams::default(), 405);
    let plain = VertexCutPartitioner::new(16).partition(&el);
    let core =
        CoreSubgraphPartitioner::new(16, CoreThreshold::TopFraction(0.02)).partition(&el);
    let max_deg = |ps: &PartitionSet| {
        ps.partitions()
            .iter()
            .map(|p| p.avg_degree())
            .fold(0.0f64, f64::max)
    };
    assert!(
        max_deg(&core) > max_deg(&plain),
        "core packing should concentrate degree: {} vs {}",
        max_deg(&core),
        max_deg(&plain)
    );
}
