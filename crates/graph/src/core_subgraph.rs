//! Core-subgraph partitioning (paper §3.3).
//!
//! High-degree "core" vertices converge slowly and keep their partitions hot
//! in the cache.  Packing the core subgraph — the core vertices and the
//! edges on paths between them — into dedicated partitions means reloading
//! those hot partitions no longer drags along cold, early-convergent
//! vertices, sparing bandwidth and cache space.

use crate::edge::{Edge, EdgeList};
use crate::partition::PartitionSet;
use crate::vertex_cut::chunk_evenly;
use crate::Partitioner;

/// How the core-vertex degree threshold is chosen.
#[derive(Clone, Copy, Debug)]
pub enum CoreThreshold {
    /// Vertices with total degree (in + out) at or above this value are core.
    Absolute(u32),
    /// The top `fraction` of vertices by degree are core
    /// (e.g. `0.05` marks the hottest 5 %).
    TopFraction(f64),
}

/// Partitioner that packs the core subgraph into dedicated equal-sized
/// partitions and the remaining edges into the rest.
#[derive(Clone, Copy, Debug)]
pub struct CoreSubgraphPartitioner {
    num_partitions: usize,
    threshold: CoreThreshold,
}

impl CoreSubgraphPartitioner {
    /// Creates a partitioner with `num_partitions` total partitions and the
    /// given core-vertex threshold.
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions == 0` or a `TopFraction` is outside
    /// `(0, 1]`.
    pub fn new(num_partitions: usize, threshold: CoreThreshold) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        if let CoreThreshold::TopFraction(f) = threshold {
            assert!(f > 0.0 && f <= 1.0, "fraction must be in (0, 1]");
        }
        CoreSubgraphPartitioner { num_partitions, threshold }
    }

    /// The configured partition count.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Resolves the threshold to an absolute degree for `edges`.
    pub fn resolve_threshold(&self, edges: &EdgeList) -> u32 {
        match self.threshold {
            CoreThreshold::Absolute(d) => d,
            CoreThreshold::TopFraction(f) => {
                let out = edges.out_degrees();
                let inn = edges.in_degrees();
                let mut total: Vec<u32> = out.iter().zip(&inn).map(|(a, b)| a + b).collect();
                if total.is_empty() {
                    return u32::MAX;
                }
                total.sort_unstable_by(|a, b| b.cmp(a));
                let k = ((total.len() as f64 * f).ceil() as usize).clamp(1, total.len());
                total[k - 1].max(1)
            }
        }
    }

    /// Classifies each vertex as core (`true`) or periphery.
    pub fn core_mask(&self, edges: &EdgeList) -> Vec<bool> {
        let t = self.resolve_threshold(edges);
        let out = edges.out_degrees();
        let inn = edges.in_degrees();
        out.iter().zip(&inn).map(|(a, b)| a + b >= t).collect()
    }
}

impl Partitioner for CoreSubgraphPartitioner {
    fn partition(&self, edges: &EdgeList) -> PartitionSet {
        let mask = self.core_mask(edges);
        // Core subgraph = edges whose both endpoints are core ("the core
        // vertices and the edges on the paths between them").
        let mut core: Vec<Edge> = Vec::new();
        let mut rest: Vec<Edge> = Vec::new();
        for &e in edges.edges() {
            if mask[e.src as usize] && mask[e.dst as usize] {
                core.push(e);
            } else {
                rest.push(e);
            }
        }
        core.sort_by_key(|e| (e.src, e.dst));
        rest.sort_by_key(|e| (e.src, e.dst));

        // Same-sized partitions across both classes: the global target size
        // is |E| / num_partitions; each class gets a proportional share of
        // the partitions (at least one if non-empty).
        let m = edges.len().max(1);
        let target = m.div_ceil(self.num_partitions);
        let mut core_parts = core.len().div_ceil(target.max(1));
        let mut rest_parts = rest.len().div_ceil(target.max(1));
        if core.is_empty() {
            core_parts = 0;
        }
        if rest.is_empty() {
            rest_parts = 0;
        }
        // Distribute any remaining partition budget to the larger class so
        // the final count matches the request when possible.
        while core_parts + rest_parts < self.num_partitions {
            if core.len() / (core_parts.max(1)) >= rest.len() / (rest_parts.max(1))
                && !core.is_empty()
            {
                core_parts += 1;
            } else if !rest.is_empty() {
                rest_parts += 1;
            } else {
                core_parts += 1;
            }
        }

        let mut chunks = Vec::with_capacity(core_parts + rest_parts);
        if core_parts > 0 {
            chunks.extend(chunk_evenly(&core, core_parts));
        }
        if rest_parts > 0 {
            chunks.extend(chunk_evenly(&rest, rest_parts));
        }
        if chunks.is_empty() {
            chunks.push(Vec::new());
        }
        PartitionSet::assemble(chunks, edges.num_vertices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// A star (hub 0) plus a chain of cold vertices.
    fn star_plus_chain() -> EdgeList {
        let mut b = GraphBuilder::new(20);
        for i in 1..10 {
            b = b.edge(0, i).edge(i, 0);
        }
        for i in 10..19 {
            b = b.edge(i, i + 1);
        }
        b.build()
    }

    #[test]
    fn hub_is_core() {
        let p = CoreSubgraphPartitioner::new(4, CoreThreshold::TopFraction(0.05));
        let mask = p.core_mask(&star_plus_chain());
        assert!(mask[0]);
        assert!(!mask[15]);
    }

    #[test]
    fn absolute_threshold_selects_by_degree() {
        let p = CoreSubgraphPartitioner::new(4, CoreThreshold::Absolute(5));
        let mask = p.core_mask(&star_plus_chain());
        assert!(mask[0]); // degree 18
        assert!(!mask[1]); // degree 2
    }

    #[test]
    fn all_edges_preserved() {
        let el = star_plus_chain();
        let ps = CoreSubgraphPartitioner::new(4, CoreThreshold::TopFraction(0.1)).partition(&el);
        assert_eq!(ps.num_edges(), el.len() as u64);
    }

    #[test]
    fn core_edges_grouped_in_leading_partitions() {
        // With threshold selecting hubs 0 and 1 (mutually linked heavily),
        // the core partition should contain only core-core edges.
        let mut b = GraphBuilder::new(30).dedup(false);
        for _ in 0..1 {
            b = b.edge(0, 1).edge(1, 0);
        }
        for i in 2..20 {
            b = b.edge(0, i).edge(1, i);
        }
        for i in 20..29 {
            b = b.edge(i, i + 1);
        }
        let el = b.build();
        let p = CoreSubgraphPartitioner::new(4, CoreThreshold::Absolute(10));
        let mask = p.core_mask(&el);
        let ps = p.partition(&el);
        // Partition 0 holds the core subgraph: every edge endpoint pair core.
        let p0 = ps.partition(0);
        for li in 0..p0.num_local_vertices() as u32 {
            for (t, _) in p0.out_edges(li) {
                let s = p0.global_of(li) as usize;
                let d = p0.global_of(t) as usize;
                assert!(
                    mask[s] && mask[d],
                    "non-core edge {s}->{d} in core partition"
                );
            }
        }
    }

    #[test]
    fn empty_graph_yields_one_empty_partition() {
        let el = EdgeList::new(5);
        let ps = CoreSubgraphPartitioner::new(3, CoreThreshold::Absolute(1)).partition(&el);
        assert!(ps.num_partitions() >= 1);
        assert_eq!(ps.num_edges(), 0);
    }

    #[test]
    fn partition_count_close_to_requested() {
        let el = star_plus_chain();
        let ps = CoreSubgraphPartitioner::new(6, CoreThreshold::TopFraction(0.1)).partition(&el);
        assert!(ps.num_partitions() >= 6);
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn bad_fraction_rejected() {
        CoreSubgraphPartitioner::new(4, CoreThreshold::TopFraction(0.0));
    }
}
