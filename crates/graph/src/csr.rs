//! Whole-graph compressed-sparse-row storage.
//!
//! The engine itself never touches this type — it executes over
//! [`crate::partition::PartitionSet`] — but the partitioners, the synthetic
//! generators' statistics, and the single-threaded reference algorithms all
//! need a flat adjacency view.

use crate::edge::EdgeList;
use crate::types::{VertexId, Weight};

/// Immutable CSR adjacency (out-edges).
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
}

impl Csr {
    /// Builds the out-edge CSR from an edge list.
    ///
    /// Edges need not be pre-sorted; a counting pass orders them by source.
    pub fn from_edges(edges: &EdgeList) -> Self {
        let n = edges.num_vertices() as usize;
        let m = edges.len();
        let mut counts = vec![0u64; n + 1];
        for e in edges.edges() {
            counts[e.src as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0 as VertexId; m];
        let mut weights = vec![0.0 as Weight; m];
        for e in edges.edges() {
            let slot = cursor[e.src as usize] as usize;
            targets[slot] = e.dst;
            weights[slot] = e.weight;
            cursor[e.src as usize] += 1;
        }
        Csr { offsets, targets, weights }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> VertexId {
        (self.offsets.len() - 1) as VertexId
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-edge weights of `v`, parallel to [`neighbors`](Self::neighbors).
    pub fn weights(&self, v: VertexId) -> &[Weight] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.weights[lo..hi]
    }

    /// Iterates `(dst, weight)` pairs for `v`.
    pub fn edges_of(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.weights(v).iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> EdgeList {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        GraphBuilder::new(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build()
    }

    #[test]
    fn builds_correct_adjacency() {
        let csr = Csr::from_edges(&diamond());
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.neighbors(1), &[3]);
        assert_eq!(csr.neighbors(3), &[] as &[VertexId]);
        assert_eq!(csr.out_degree(0), 2);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let el = EdgeList::from_edges(
            vec![
                crate::edge::Edge::unit(2, 0),
                crate::edge::Edge::unit(0, 1),
                crate::edge::Edge::unit(2, 1),
            ],
            3,
        );
        let csr = Csr::from_edges(&el);
        assert_eq!(csr.neighbors(2), &[0, 1]);
        assert_eq!(csr.neighbors(0), &[1]);
    }
}
