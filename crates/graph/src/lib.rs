//! Graph substrate for the CGraph reproduction.
//!
//! This crate provides everything below the execution engine:
//!
//! * [`Edge`] / [`EdgeList`] — weighted directed edges and bulk edge storage.
//! * [`Csr`] — a whole-graph compressed-sparse-row view used by the
//!   partitioners and by single-threaded reference algorithms.
//! * [`Partition`] / [`PartitionSet`] — the vertex-cut partitioned
//!   representation the CGraph engine executes over.  Each partition owns an
//!   equal share of the edges and a bidirectional local CSR; vertices
//!   spanning partitions have one *master* replica and any number of
//!   *mirror* replicas (paper §3.2.1, Fig. 4).
//! * [`vertex_cut`] / [`core_subgraph`] — the two partitioning strategies
//!   (plain equal-edge vertex cut, and the paper's core-subgraph packing
//!   from §3.3).
//! * [`generate`] — deterministic synthetic graph generators (R-MAT,
//!   Erdős–Rényi, grids, …) plus the scaled-down stand-ins for the paper's
//!   Table 1 datasets.
//! * [`obs`] — the [`StoreObserver`] hook trait the snapshot store and
//!   WAL report into (implemented by the engine's tracing layer).
//! * [`fault`] — the store-side half of the shared fault plane: the
//!   [`FaultInjector`] hook the store and WAL notify at every durable
//!   I/O boundary, plus the file fault harness (failpoint writers,
//!   truncate/flip mutators) the crash-recovery suites drive.
//! * [`snapshot`] — the incremental snapshot store for evolving graphs
//!   (paper §3.2.1, Fig. 5).
//! * [`plan`] — the per-view [`ReplicaPlan`]: master→mirror routing
//!   resolved once per snapshot and shared by every job bound to it.
//! * [`wal`] — the append-only, CRC-checksummed segment format that makes
//!   the snapshot store durable and crash-recoverable.
//!
//! # Examples
//!
//! ```
//! use cgraph_graph::{generate, vertex_cut::VertexCutPartitioner, Partitioner};
//!
//! let edges = generate::rmat(10, 8, generate::RmatParams::default(), 42);
//! let parts = VertexCutPartitioner::new(16).partition(&edges);
//! assert_eq!(parts.num_partitions(), 16);
//! assert_eq!(parts.num_edges(), edges.len() as u64);
//! ```

pub mod builder;
pub mod core_subgraph;
pub mod csr;
pub mod edge;
pub mod fault;
pub mod generate;
pub mod obs;
pub mod partition;
pub mod plan;
pub mod snapshot;
pub mod stats;
pub mod types;
pub mod vertex_cut;
pub mod wal;

pub use builder::GraphBuilder;
pub use csr::Csr;
pub use edge::{Edge, EdgeList};
pub use fault::{FaultInjector, StoreFaultBoundary};
pub use obs::StoreObserver;
pub use partition::{Partition, PartitionSet, VertexMeta};
pub use plan::{ReplicaPlan, Slot};
pub use snapshot::{
    CompactionPolicy, GraphDelta, GraphView, ShardCapacity, ShardedSnapshotStore, SnapshotShard,
    SnapshotStore,
};
pub use types::{LocalId, PartitionId, VersionId, VertexId, Weight, NO_PARTITION};
pub use wal::{SegmentId, StoreError};

/// A strategy that turns an edge list into a [`PartitionSet`].
///
/// Both the plain equal-edge vertex cut
/// ([`vertex_cut::VertexCutPartitioner`]) and the core-subgraph packing
/// partitioner ([`core_subgraph::CoreSubgraphPartitioner`]) implement this.
pub trait Partitioner {
    /// Splits `edges` into partitions and builds the replica tables.
    fn partition(&self, edges: &EdgeList) -> PartitionSet;
}
