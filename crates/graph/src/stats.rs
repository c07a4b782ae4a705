//! Degree-distribution statistics used by the experiment harness
//! (Table 1 reproduction).

use crate::edge::EdgeList;

/// Summary statistics for an edge list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphStats {
    /// Vertex universe size.
    pub num_vertices: u64,
    /// Edge count.
    pub num_edges: u64,
    /// Mean out-degree.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: u32,
    /// Fraction of vertices with zero total degree.
    pub isolated_fraction: f64,
    /// Gini coefficient of the out-degree distribution (0 = uniform,
    /// → 1 = fully skewed): a scalar proxy for power-law skew.
    pub degree_gini: f64,
}

/// Computes [`GraphStats`] for an edge list.
pub fn graph_stats(edges: &EdgeList) -> GraphStats {
    let n = edges.num_vertices() as u64;
    let m = edges.len() as u64;
    let out = edges.out_degrees();
    let inn = edges.in_degrees();
    let max_out = out.iter().copied().max().unwrap_or(0);
    let isolated = out
        .iter()
        .zip(&inn)
        .filter(|(o, i)| **o == 0 && **i == 0)
        .count() as f64;
    GraphStats {
        num_vertices: n,
        num_edges: m,
        avg_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
        max_out_degree: max_out,
        isolated_fraction: if n == 0 { 0.0 } else { isolated / n as f64 },
        degree_gini: gini(&out),
    }
}

/// Gini coefficient of a non-negative integer distribution.
pub fn gini(values: &[u32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<u64> = values.iter().map(|&v| v as u64).collect();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let total: u64 = sorted.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut weighted = 0.0;
    for (i, &v) in sorted.iter().enumerate() {
        weighted += (2.0 * (i as f64 + 1.0) - n - 1.0) * v as f64;
    }
    weighted / (n * total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn stats_on_path() {
        let s = graph_stats(&generate::path(5));
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_out_degree, 1);
        assert_eq!(s.isolated_fraction, 0.0);
    }

    #[test]
    fn gini_zero_for_uniform() {
        assert!(gini(&[3, 3, 3, 3]).abs() < 1e-9);
    }

    #[test]
    fn gini_high_for_skewed() {
        let mut v = vec![0u32; 99];
        v.push(1000);
        assert!(gini(&v) > 0.9);
    }

    #[test]
    fn gini_empty_and_zero_safe() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    #[test]
    fn rmat_more_skewed_than_uniform() {
        let r = graph_stats(&generate::rmat(10, 8, generate::RmatParams::default(), 1));
        let u = graph_stats(&generate::erdos_renyi(1024, 8192, 1));
        assert!(r.degree_gini > u.degree_gini);
    }

    #[test]
    fn isolated_fraction_counts_unused_ids() {
        let el = crate::EdgeList::from_edges(vec![crate::Edge::unit(0, 1)], 10);
        let s = graph_stats(&el);
        assert!((s.isolated_fraction - 0.8).abs() < 1e-9);
    }
}
