//! Equal-edge greedy vertex-cut partitioning (paper §3.2.1).
//!
//! The paper balances load by "evenly divid\[ing\] the edges of the graph
//! into same-sized partitions in terms of the number of edges", accepting
//! vertex replication (master/mirror) instead of edge-cut communication.
//! Which edges share a partition is left open; every job's tables,
//! Trigger and Push scale with replicas, so the cut places edges the way
//! PowerGraph's greedy vertex cut does (Gonzalez et al., OSDI 2012): next
//! to partitions that already hold their endpoints.

use crate::edge::{Edge, EdgeList};
use crate::partition::PartitionSet;
use crate::Partitioner;

/// Splits an edge list into `num_partitions` partitions of (near-)equal
/// edge count with one greedy pass that keeps each vertex's edges in the
/// few partitions that already hold it.
///
/// Edges are visited in [`EdgeList`] order.  Each goes to the open
/// partition with the fewest edges among, in this order: partitions that
/// already hold both endpoints; partitions that hold either endpoint; any
/// open partition.  Ties go to the lowest id.  Partition `i` stays open
/// until it holds exactly `⌊m/k⌋ + (i < m mod k)` edges, so sizes differ
/// by at most one.  Each partition's edges are in stable `(src, dst)`
/// order.  The output is a pure function of the edge list.
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
        let n = edges.num_vertices() as usize;
        let part_of = greedy_cut(edges.edges(), n, self.num_partitions);
        let chunks = scatter_in_order(edges.edges(), n, &part_of, self.num_partitions);
        PartitionSet::assemble(chunks, edges.num_vertices())
    }
}

/// Edge count of chunk `i` when `m` edges split into `k` chunks whose
/// sizes differ by at most one.
fn chunk_len(m: usize, k: usize, i: usize) -> usize {
    m / k + usize::from(i < m % k)
}

/// One streaming pass: the partition of every edge, in list order.
///
/// Each vertex's set of partitions is a bitset of `k.div_ceil(64)` words,
/// as is the set of open partitions, so every `k` runs the same code.
fn greedy_cut(edges: &[Edge], n: usize, k: usize) -> Vec<u32> {
    let words = k.div_ceil(64);
    let m = edges.len();
    let cap: Vec<usize> = (0..k).map(|p| chunk_len(m, k, p)).collect();
    let mut load = vec![0usize; k];
    let mut open = vec![0u64; words];
    for p in (0..k).filter(|&p| cap[p] > 0) {
        open[p / 64] |= 1 << (p % 64);
    }
    let mut held = vec![0u64; n * words];
    let mut part_of = Vec::with_capacity(m);
    for e in edges {
        let (s, d) = (e.src as usize * words, e.dst as usize * words);
        let p = least_loaded(&load, words, |w| held[s + w] & held[d + w] & open[w])
            .or_else(|| least_loaded(&load, words, |w| (held[s + w] | held[d + w]) & open[w]))
            .or_else(|| least_loaded(&load, words, |w| open[w]))
            .expect("chunk sizes sum to the edge count, so a partition is open");
        let (w, bit) = (p / 64, 1u64 << (p % 64));
        load[p] += 1;
        if load[p] == cap[p] {
            open[w] &= !bit;
        }
        held[s + w] |= bit;
        held[d + w] |= bit;
        part_of.push(p as u32);
    }
    part_of
}

/// The partition with the fewest edges among the set bits of `mask`
/// (one word at a time), lowest id on ties; `None` if no bit is set.
fn least_loaded(load: &[usize], words: usize, mask: impl Fn(usize) -> u64) -> Option<usize> {
    let (mut best, mut best_load) = (None, usize::MAX);
    for w in 0..words {
        let mut bits = mask(w);
        while bits != 0 {
            let p = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if load[p] < best_load {
                (best, best_load) = (Some(p), load[p]);
            }
        }
    }
    best
}

/// Splits `edges` into their assigned partitions, each in stable
/// `(src, dst)` order: two stable counting passes over edge indices (by
/// `dst`, then by `src`) and one scatter, O(m + n) with no comparison.
fn scatter_in_order(edges: &[Edge], n: usize, part_of: &[u32], k: usize) -> Vec<Vec<Edge>> {
    let m = edges.len();
    let by_dst = counting_pass(0..m as u32, n, |i| edges[i as usize].dst);
    let by_src = counting_pass(by_dst.iter().copied(), n, |i| edges[i as usize].src);
    let mut chunks: Vec<Vec<Edge>> = (0..k)
        .map(|p| Vec::with_capacity(chunk_len(m, k, p)))
        .collect();
    for i in by_src {
        chunks[part_of[i as usize] as usize].push(edges[i as usize]);
    }
    chunks
}

/// Stable counting sort of the indices in `order` by `key`, whose values
/// lie in `0..n`.
fn counting_pass(
    order: impl Iterator<Item = u32> + Clone,
    n: usize,
    key: impl Fn(u32) -> u32,
) -> Vec<u32> {
    let mut next = vec![0u32; n + 1];
    for i in order.clone() {
        next[key(i) as usize + 1] += 1;
    }
    for v in 0..n {
        next[v + 1] += next[v];
    }
    let mut out = vec![0u32; next[n] as usize];
    for i in order {
        let slot = &mut next[key(i) as usize];
        out[*slot as usize] = i;
        *slot += 1;
    }
    out
}

/// Splits `edges` into exactly `k` chunks whose sizes differ by at most one.
pub(crate) fn chunk_evenly(edges: &[Edge], k: usize) -> Vec<Vec<Edge>> {
    let mut chunks = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = chunk_len(edges.len(), k, i);
        chunks.push(edges[start..start + len].to_vec());
        start += len;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::generate;
    use crate::types::Weight;

    fn ring(n: u32) -> EdgeList {
        GraphBuilder::new(n)
            .edges((0..n).map(|i| (i, (i + 1) % n)))
            .build()
    }

    /// An R-MAT graph (duplicated pairs included) whose weights number
    /// the edges in list order, so a partition's rows can be traced back.
    fn numbered_rmat() -> EdgeList {
        let el = generate::rmat(9, 4, generate::RmatParams::default(), 2024);
        let numbered = el.edges().iter().enumerate();
        EdgeList::from_edges(
            numbered
                .map(|(i, e)| Edge::weighted(e.src, e.dst, i as Weight))
                .collect(),
            el.num_vertices(),
        )
    }

    #[test]
    fn every_edge_once_in_stable_source_order() {
        let el = numbered_rmat();
        for k in [1, 7, 16, 40, 65] {
            let ps = VertexCutPartitioner::new(k).partition(&el);
            let mut seen = vec![false; el.len()];
            for p in ps.partitions() {
                let rows = p.edges_global();
                for e in &rows {
                    let i = e.weight as usize;
                    assert_eq!((e.src, e.dst), (el.edges()[i].src, el.edges()[i].dst));
                    assert!(!std::mem::replace(&mut seen[i], true), "edge {i} twice");
                }
                // Rows in (src, dst) order, equal pairs in list order.
                for w in rows.windows(2) {
                    assert!((w[0].src, w[0].dst, w[0].weight) < (w[1].src, w[1].dst, w[1].weight));
                }
            }
            assert!(seen.iter().all(|&s| s), "k = {k}: an edge is missing");
        }
    }

    #[test]
    fn partitioning_is_deterministic() {
        let el = numbered_rmat();
        let rows = |ps: PartitionSet| -> Vec<Vec<Edge>> {
            ps.partitions().iter().map(|p| p.edges_global()).collect()
        };
        let cut = VertexCutPartitioner::new(12);
        assert_eq!(rows(cut.partition(&el)), rows(cut.partition(&el)));
    }

    /// The greedy pass keeps replicas near half of what source-sorted
    /// chunks leave (9.73 on this graph); a cut that ignores where the
    /// endpoints already live reads far above the bound.
    #[test]
    fn greedy_cut_bounds_replication() {
        let el = generate::rmat(13, 20, generate::RmatParams::default(), 1);
        let rf = VertexCutPartitioner::new(40)
            .partition(&el)
            .replication_factor();
        assert!(rf <= 5.0, "replication factor {rf}");
    }

    /// Exact `chunk_evenly` sizes at every k, past one bitset word.
    #[test]
    fn partition_sizes_balanced() {
        for el in [numbered_rmat(), ring(301), ring(10)] {
            let m = el.len();
            for k in 1..=70 {
                let ps = VertexCutPartitioner::new(k).partition(&el);
                let sizes: Vec<usize> = ps.partitions().iter().map(|p| p.num_edges()).collect();
                let want: Vec<usize> = (0..k).map(|i| m / k + usize::from(i < m % k)).collect();
                assert_eq!(sizes, want, "k = {k}, m = {m}");
            }
        }
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
