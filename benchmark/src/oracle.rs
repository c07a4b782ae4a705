//! Output checks, run outside every timed region.
//!
//! PageRank is compared with a relative tolerance of 1e-3 (the program
//! stops at its own epsilon; the reference runs to 1e-9).  Every other
//! program's result must equal the reference exactly.

use std::collections::BTreeMap;

use crate::sut::Values;

/// Relative tolerance for PageRank ranks.
pub const PAGERANK_REL_TOL: f64 = 1e-3;

fn f32_same(a: f32, b: f32) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

/// Whether a job's result agrees with the reference.
pub fn matches(got: &Values, want: &Values) -> bool {
    match (got, want) {
        (Values::F64(g), Values::F64(w)) => {
            g.len() == w.len()
                && g.iter()
                    .zip(w)
                    .all(|(a, b)| (a - b).abs() <= PAGERANK_REL_TOL * b.abs().max(1.0))
        }
        (Values::F32(g), Values::F32(w)) => {
            g.len() == w.len() && g.iter().zip(w).all(|(a, b)| f32_same(*a, *b))
        }
        (Values::U32(g), Values::U32(w)) => g == w,
        (Values::Bool(g), Values::Bool(w)) => g == w,
        _ => false,
    }
}

/// Whether two results are identical bit for bit.
pub fn identical(a: &Values, b: &Values) -> bool {
    match (a, b) {
        (Values::F64(x), Values::F64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Values::F32(x), Values::F32(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        (Values::U32(x), Values::U32(y)) => x == y,
        (Values::Bool(x), Values::Bool(y)) => x == y,
        _ => false,
    }
}

/// A host-side multiset of `(src, dst)` pairs, the naive twin of what
/// the store should hold.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeMultiset(BTreeMap<(u32, u32), u64>);

impl EdgeMultiset {
    /// Counts every pair of `pairs`.
    pub fn from_pairs<I: IntoIterator<Item = (u32, u32)>>(pairs: I) -> Self {
        let mut m = EdgeMultiset::default();
        for p in pairs {
            m.add(p);
        }
        m
    }

    /// Adds one copy of `pair`.
    pub fn add(&mut self, pair: (u32, u32)) {
        *self.0.entry(pair).or_insert(0) += 1;
    }

    /// Removes one copy of `pair`; `false` if none was present.
    pub fn remove(&mut self, pair: (u32, u32)) -> bool {
        match self.0.get_mut(&pair) {
            Some(n) if *n > 1 => {
                *n -= 1;
                true
            }
            Some(_) => {
                self.0.remove(&pair);
                true
            }
            None => false,
        }
    }

    /// Total edges held.
    pub fn len(&self) -> u64 {
        self.0.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::JobSpec;
    use crate::sut;
    use std::sync::Arc;

    /// Runs every program of a small batch through the engine and
    /// checks it against the oracle; then corrupts one value of each
    /// result and checks that the oracle notices.
    #[test]
    fn oracle_accepts_engine_results_and_rejects_corrupted_ones() {
        let edges = sut::build_graph(8, 6, 99);
        let oracle = sut::Oracle::new(edges.clone());
        let store = Arc::new(sut::new_store(sut::partition(&edges, 6), 2));
        let jobs = [
            JobSpec::PageRank,
            JobSpec::Sssp(1),
            JobSpec::Bfs(2),
            JobSpec::Wcc,
            JobSpec::Sswp(3),
            JobSpec::Reach(1),
        ];
        let mut engine = sut::engine(&store, &sut::EngineOpts::default());
        let ids: Vec<_> = jobs
            .iter()
            .map(|&j| sut::submit(&mut engine, j, 0))
            .collect();
        while sut::step_round(&mut engine) {}
        for (&spec, &id) in jobs.iter().zip(&ids) {
            assert!(sut::job_done(&engine, id), "{} converged", spec.name());
            let got = sut::results(&engine, spec, id).expect("results");
            let want = oracle.solve(spec);
            assert!(
                matches(&got, &want),
                "{} matches its reference",
                spec.name()
            );
            assert!(identical(&got, &got));

            let corrupted = match got.clone() {
                Values::F64(mut v) => {
                    v[5] = v[5] * 1.01 + 0.01;
                    Values::F64(v)
                }
                Values::F32(mut v) => {
                    v[5] = if v[5].is_finite() { v[5] + 1.0 } else { 0.0 };
                    Values::F32(v)
                }
                Values::U32(mut v) => {
                    v[5] = v[5].wrapping_add(1);
                    Values::U32(v)
                }
                Values::Bool(mut v) => {
                    v[5] = !v[5];
                    Values::Bool(v)
                }
            };
            assert!(
                !matches(&corrupted, &want),
                "{} corruption is caught",
                spec.name()
            );
            assert!(!identical(&corrupted, &got));
        }
        // A result of the wrong type or length never matches.
        assert!(!matches(
            &Values::U32(vec![0; 4]),
            &Values::Bool(vec![false; 4])
        ));
        assert!(!matches(&Values::U32(vec![0; 3]), &Values::U32(vec![0; 4])));
    }

    #[test]
    fn multiset_counts_parallel_edges() {
        let mut m = EdgeMultiset::from_pairs([(1, 2), (1, 2), (3, 4)]);
        assert_eq!(m.len(), 3);
        assert!(m.remove((1, 2)));
        assert!(m.remove((1, 2)));
        assert!(!m.remove((1, 2)));
        assert_eq!(m, EdgeMultiset::from_pairs([(3, 4)]));
    }
}
