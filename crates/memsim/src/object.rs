//! The unit of simulated cache residency.

use cgraph_graph::{PartitionId, VersionId};

/// A job identifier as seen by the memory simulator.
pub type JobTag = u32;

/// Something that can live in the simulated cache/memory tiers.
///
/// The distinction between [`Structure`](CacheObject::Structure) and
/// [`JobStructure`](CacheObject::JobStructure) is the crux of the paper:
/// CGraph keys structure partitions *globally* (one copy serves every job),
/// while per-job engines (CLIP, Nxgraph) key them by job, so the same bytes
/// occupy the tiers once per job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheObject {
    /// A shared graph-structure partition at a snapshot version.
    Structure {
        /// Partition id.
        pid: PartitionId,
        /// Snapshot version (two jobs share residency only when their
        /// snapshot versions of the partition match).
        version: VersionId,
    },
    /// A per-job copy of a structure partition (engines without sharing).
    JobStructure {
        /// Owning job.
        job: JobTag,
        /// Partition id.
        pid: PartitionId,
        /// Snapshot version.
        version: VersionId,
    },
    /// A job's private vertex-state table for one partition.
    PrivateTable {
        /// Owning job.
        job: JobTag,
        /// Partition id.
        pid: PartitionId,
    },
}

impl CacheObject {
    /// The partition this object belongs to.
    pub fn partition(&self) -> PartitionId {
        match *self {
            CacheObject::Structure { pid, .. }
            | CacheObject::JobStructure { pid, .. }
            | CacheObject::PrivateTable { pid, .. } => pid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_and_per_job_structure_are_distinct_keys() {
        let shared = CacheObject::Structure { pid: 1, version: 0 };
        let per_job = CacheObject::JobStructure { job: 0, pid: 1, version: 0 };
        assert_ne!(shared, per_job);
    }

    #[test]
    fn versions_separate_residency() {
        let v0 = CacheObject::Structure { pid: 3, version: 0 };
        let v1 = CacheObject::Structure { pid: 3, version: 1 };
        assert_ne!(v0, v1);
        assert_eq!(v0.partition(), v1.partition());
    }

    #[test]
    fn private_tables_report_their_partition() {
        let t = CacheObject::PrivateTable { job: 2, pid: 0 };
        assert_eq!(t.partition(), 0);
    }
}
