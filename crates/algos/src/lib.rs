//! Iterative graph algorithms for the CGraph engine.
//!
//! Each algorithm is a [`cgraph_core::VertexProgram`] — the paper's
//! three-function interface (`IsNotConvergent` / `Compute` / `Acc`,
//! Fig. 7) — so any of them can run as one of many concurrent jobs:
//!
//! * [`PageRank`] — delta-PageRank (Fig. 7(a)).
//! * [`Sssp`] — single-source shortest paths (Fig. 7(b)).
//! * [`Bfs`] — breadth-first hop counts.
//! * [`Wcc`] — weakly connected components (min-label, undirected).
//! * [`scc`] — strongly connected components via forward coloring +
//!   backward matching phases with host-side trimming.
//! * [`Sswp`] — single-source widest paths.
//! * [`Katz`] — Katz centrality.
//! * [`Reachability`] — forward reachability closure.
//!
//! [`reference`](mod@reference) holds simple single-threaded implementations of the same
//! algorithms used to validate every engine in the workspace, and
//! [`arrivals`] adapts `cgraph_trace` job spans into the serving layer's
//! arrival stream with these programs bound.

pub mod arrivals;
pub mod bfs;
pub mod katz;
pub mod pagerank;
pub mod reach;
pub mod reference;
pub mod scc;
pub mod sssp;
pub mod sswp;
pub mod wcc;

pub use arrivals::{arrival_for, trace_arrivals};
pub use bfs::Bfs;
pub use katz::Katz;
pub use pagerank::PageRank;
pub use reach::Reachability;
pub use scc::{run_scc, SccDriver};
pub use sssp::Sssp;
pub use sswp::Sswp;
pub use wcc::Wcc;

/// The four benchmark jobs of the paper's evaluation (§4), in submission
/// order: PageRank, SSSP, SCC, BFS.  SCC is a multi-phase driver, so the
/// harness submits its phases through [`SccDriver`]; this enum names the
/// mix for reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchmarkJob {
    /// PageRank with the default damping factor.
    PageRank,
    /// Single-source shortest paths from vertex 0.
    Sssp,
    /// Strongly connected components.
    Scc,
    /// Breadth-first search from vertex 0.
    Bfs,
}

impl BenchmarkJob {
    /// The paper's four-job mix.
    pub const ALL: [BenchmarkJob; 4] = [
        BenchmarkJob::PageRank,
        BenchmarkJob::Sssp,
        BenchmarkJob::Scc,
        BenchmarkJob::Bfs,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkJob::PageRank => "PageRank",
            BenchmarkJob::Sssp => "SSSP",
            BenchmarkJob::Scc => "SCC",
            BenchmarkJob::Bfs => "BFS",
        }
    }
}
