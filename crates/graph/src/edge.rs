//! Weighted directed edges and bulk edge-list storage.

use crate::types::{VertexId, Weight};

/// A single weighted directed edge `src -> dst`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight (distance for SSSP, capacity for SSWP, ignored by
    /// PageRank/BFS/WCC).
    pub weight: Weight,
}

impl Edge {
    /// Creates an edge with weight `1.0`.
    pub fn unit(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst, weight: 1.0 }
    }

    /// Creates a weighted edge.
    pub fn weighted(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        Edge { src, dst, weight }
    }

    /// Returns the edge with `src` and `dst` swapped.
    pub fn reversed(self) -> Self {
        Edge { src: self.dst, dst: self.src, weight: self.weight }
    }
}

/// A bulk list of edges plus the vertex-id universe they live in.
///
/// The vertex count is tracked explicitly so that graphs with isolated
/// vertices (no incident edges) round-trip correctly through partitioning
/// and I/O.
#[derive(Clone, Debug, Default)]
pub struct EdgeList {
    edges: Vec<Edge>,
    num_vertices: VertexId,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: VertexId) -> Self {
        EdgeList { edges: Vec::new(), num_vertices }
    }

    /// Builds an edge list from raw parts, growing the vertex universe to
    /// cover every endpoint.
    pub fn from_edges(edges: Vec<Edge>, num_vertices: VertexId) -> Self {
        let implied = edges
            .iter()
            .map(|e| e.src.max(e.dst).saturating_add(1))
            .max()
            .unwrap_or(0);
        EdgeList { edges, num_vertices: num_vertices.max(implied) }
    }

    /// Appends one edge, growing the vertex universe if needed.
    pub fn push(&mut self, edge: Edge) {
        self.num_vertices = self
            .num_vertices
            .max(edge.src.max(edge.dst).saturating_add(1));
        self.edges.push(edge);
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the list holds no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Size of the vertex universe (max endpoint + 1, or as declared).
    pub fn num_vertices(&self) -> VertexId {
        self.num_vertices
    }

    /// Immutable access to the edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Sorts edges by `(src, dst)` and removes exact duplicates
    /// (keeping the first occurrence's weight).
    pub fn sort_and_dedup(&mut self) {
        self.edges.sort_by_key(|e| (e.src, e.dst));
        self.edges.dedup_by_key(|e| (e.src, e.dst));
    }

    /// Returns a new list with every edge reversed (used to express
    /// backward traversal for SCC phases when a caller wants an explicit
    /// reverse graph rather than the partitions' built-in in-CSR).
    pub fn reversed(&self) -> Self {
        EdgeList {
            edges: self.edges.iter().map(|e| e.reversed()).collect(),
            num_vertices: self.num_vertices,
        }
    }

    /// Total out-degree per vertex.
    pub fn out_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            deg[e.src as usize] += 1;
        }
        deg
    }

    /// Total in-degree per vertex.
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            deg[e.dst as usize] += 1;
        }
        deg
    }
}

impl FromIterator<Edge> for EdgeList {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        let edges: Vec<Edge> = iter.into_iter().collect();
        EdgeList::from_edges(edges, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_grows_vertex_universe() {
        let mut el = EdgeList::new(0);
        el.push(Edge::unit(3, 7));
        assert_eq!(el.num_vertices(), 8);
        el.push(Edge::unit(1, 2));
        assert_eq!(el.num_vertices(), 8);
    }

    #[test]
    fn from_edges_respects_declared_universe() {
        let el = EdgeList::from_edges(vec![Edge::unit(0, 1)], 10);
        assert_eq!(el.num_vertices(), 10);
    }

    #[test]
    fn sort_and_dedup_removes_duplicates_keeps_first_weight() {
        let mut el = EdgeList::from_edges(
            vec![
                Edge::weighted(1, 2, 5.0),
                Edge::weighted(0, 1, 1.0),
                Edge::weighted(1, 2, 9.0),
            ],
            0,
        );
        el.sort_and_dedup();
        assert_eq!(el.len(), 2);
        assert_eq!(el.edges()[0], Edge::weighted(0, 1, 1.0));
        assert_eq!(el.edges()[1].weight, 5.0);
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let el = EdgeList::from_edges(vec![Edge::weighted(0, 1, 2.0)], 0);
        let rev = el.reversed();
        assert_eq!(rev.edges()[0], Edge::weighted(1, 0, 2.0));
    }

    #[test]
    fn degrees_count_correctly() {
        let el = EdgeList::from_edges(
            vec![Edge::unit(0, 1), Edge::unit(0, 2), Edge::unit(1, 2)],
            0,
        );
        assert_eq!(el.out_degrees(), vec![2, 1, 0]);
        assert_eq!(el.in_degrees(), vec![0, 1, 2]);
    }
}
