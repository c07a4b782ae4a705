//! Equal-edge vertex-cut partitioning (paper §3.2.1).
//!
//! The paper balances load by "evenly divid\[ing\] the edges of the graph
//! into same-sized partitions in terms of the number of edges", accepting
//! vertex replication (master/mirror) instead of edge-cut communication.

use crate::edge::{Edge, EdgeList};
use crate::partition::PartitionSet;
use crate::Partitioner;

/// Splits an edge list into `num_partitions` chunks of (near-)equal edge
/// count, after sorting by `(src, dst)` so each chunk covers a contiguous
/// source range and replicas stay few.
#[derive(Clone, Copy, Debug)]
pub struct VertexCutPartitioner {
    num_partitions: usize,
}

impl VertexCutPartitioner {
    /// Creates a partitioner producing `num_partitions` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions == 0`.
    pub fn new(num_partitions: usize) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        VertexCutPartitioner { num_partitions }
    }

    /// Picks a partition count so each partition's structure data fits the
    /// paper's sizing rule `Pg + (Pg/sg)·sp·N + b ≤ C` (§3.2.1): `cache`
    /// bytes of simulated LLC, `jobs` concurrent private tables of
    /// `state_bytes` per vertex, and a `reserve` buffer.
    pub fn for_cache(
        edges: &EdgeList,
        cache_bytes: u64,
        jobs: usize,
        state_bytes: u64,
        reserve: u64,
    ) -> Self {
        // Approximate per-edge structure cost (two local-id + weight entries)
        // and per-vertex overhead; see `Partition::structure_bytes`.
        let per_edge = 16u64;
        let per_vertex_states = state_bytes * jobs as u64;
        // Vertices per partition track edges; assume avg degree >= 1 so the
        // private-table term is bounded by edges * state cost.
        let budget = cache_bytes.saturating_sub(reserve).max(1);
        let bytes_per_edge = per_edge + per_vertex_states;
        let edges_per_partition = (budget / bytes_per_edge).max(1);
        let parts = (edges.len() as u64).div_ceil(edges_per_partition).max(1);
        VertexCutPartitioner::new(parts as usize)
    }

    /// The configured partition count.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }
}

impl Partitioner for VertexCutPartitioner {
    fn partition(&self, edges: &EdgeList) -> PartitionSet {
        let mut sorted: Vec<Edge> = edges.edges().to_vec();
        sorted.sort_by_key(|e| (e.src, e.dst));
        let chunks = chunk_evenly(&sorted, self.num_partitions);
        PartitionSet::assemble(chunks, edges.num_vertices())
    }
}

/// Splits `edges` into exactly `k` chunks whose sizes differ by at most one.
pub(crate) fn chunk_evenly(edges: &[Edge], k: usize) -> Vec<Vec<Edge>> {
    let m = edges.len();
    let base = m / k;
    let extra = m % k;
    let mut chunks = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        chunks.push(edges[start..start + len].to_vec());
        start += len;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn ring(n: u32) -> EdgeList {
        GraphBuilder::new(n)
            .edges((0..n).map(|i| (i, (i + 1) % n)))
            .build()
    }

    #[test]
    fn partition_sizes_balanced() {
        let ps = VertexCutPartitioner::new(4).partition(&ring(10));
        let sizes: Vec<usize> = ps.partitions().iter().map(|p| p.num_edges()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn all_edges_preserved() {
        let el = ring(23);
        let ps = VertexCutPartitioner::new(5).partition(&el);
        assert_eq!(ps.num_edges(), 23);
        assert_eq!(ps.num_vertices(), 23);
    }

    #[test]
    fn single_partition_works() {
        let ps = VertexCutPartitioner::new(1).partition(&ring(6));
        assert_eq!(ps.num_partitions(), 1);
        assert!((ps.replication_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_partitions_than_edges() {
        let ps = VertexCutPartitioner::new(8).partition(&ring(3));
        assert_eq!(ps.num_partitions(), 8);
        assert_eq!(ps.num_edges(), 3);
        // Empty partitions are legal and simply hold no replicas.
        assert!(ps.partitions().iter().any(|p| p.num_edges() == 0));
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        VertexCutPartitioner::new(0);
    }

    #[test]
    fn for_cache_scales_with_cache_size() {
        let el = ring(1000);
        let small = VertexCutPartitioner::for_cache(&el, 4 << 10, 4, 8, 256);
        let large = VertexCutPartitioner::for_cache(&el, 1 << 20, 4, 8, 256);
        assert!(small.num_partitions() > large.num_partitions());
    }
}
