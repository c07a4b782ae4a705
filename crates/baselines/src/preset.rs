//! Named baseline configurations matching the paper's comparison systems.

use std::sync::Arc;

use cgraph_graph::snapshot::SnapshotStore;
use cgraph_graph::PartitionSet;
use cgraph_memsim::HierarchyConfig;

use crate::stream::{Interleave, StreamConfig, StreamEngine, StructureSharing};

/// The comparison systems of the paper's §4, as access-discipline models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselinePreset {
    /// Jobs executed one by one (the normalization baseline of Fig. 2).
    Sequential,
    /// CLIP (Ai et al., ATC'17): out-of-core single-job engine — per-job
    /// structure copies, plus data re-entry on loaded partitions.
    Clip,
    /// Nxgraph (Chi et al., ICDE'16): destination-sorted sub-shards —
    /// per-job copies, partition-local sync, no re-entry.
    Nxgraph,
    /// Seraph (Xue et al., HPDC'14 / TC'17): one in-memory structure copy
    /// shared by jobs that still traverse in individual orders; snapshots
    /// are full copies.
    Seraph,
    /// Seraph + Version Traveler (Ju et al., ATC'16): like Seraph but
    /// snapshots switch incrementally, sharing unchanged partitions.
    SeraphVt,
}

impl BaselinePreset {
    /// All presets in the order the paper's figures list them.
    pub const ALL: [BaselinePreset; 5] = [
        BaselinePreset::Sequential,
        BaselinePreset::Clip,
        BaselinePreset::Nxgraph,
        BaselinePreset::Seraph,
        BaselinePreset::SeraphVt,
    ];

    /// Display name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            BaselinePreset::Sequential => "Sequential",
            BaselinePreset::Clip => "CLIP",
            BaselinePreset::Nxgraph => "Nxgraph",
            BaselinePreset::Seraph => "Seraph",
            BaselinePreset::SeraphVt => "Seraph-VT",
        }
    }

    /// The stream configuration modeling this system.
    pub fn config(self, workers: usize, hierarchy: HierarchyConfig) -> StreamConfig {
        let base = StreamConfig { workers, hierarchy, ..StreamConfig::default() };
        match self {
            BaselinePreset::Sequential => StreamConfig {
                sharing: StructureSharing::SharedMemory,
                interleave: Interleave::Sequential,
                incremental_versions: false,
                ..base
            },
            BaselinePreset::Clip => StreamConfig {
                sharing: StructureSharing::PerJob,
                interleave: Interleave::RoundRobin,
                incremental_versions: false,
                reentry: 16,
                ..base
            },
            BaselinePreset::Nxgraph => StreamConfig {
                sharing: StructureSharing::PerJob,
                interleave: Interleave::RoundRobin,
                incremental_versions: false,
                ..base
            },
            BaselinePreset::Seraph => StreamConfig {
                sharing: StructureSharing::SharedMemory,
                interleave: Interleave::RoundRobin,
                incremental_versions: false,
                ..base
            },
            BaselinePreset::SeraphVt => StreamConfig {
                sharing: StructureSharing::SharedMemory,
                interleave: Interleave::RoundRobin,
                incremental_versions: true,
                ..base
            },
        }
    }

    /// Builds an engine over a snapshot store.
    pub fn build(
        self,
        store: Arc<SnapshotStore>,
        workers: usize,
        hierarchy: HierarchyConfig,
    ) -> StreamEngine {
        StreamEngine::new(store, self.config(workers, hierarchy))
    }

    /// Builds an engine over a static graph.
    pub fn build_static(
        self,
        parts: PartitionSet,
        workers: usize,
        hierarchy: HierarchyConfig,
    ) -> StreamEngine {
        self.build(Arc::new(SnapshotStore::new(parts)), workers, hierarchy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_distinct_disciplines() {
        let h = HierarchyConfig::default();
        let clip = BaselinePreset::Clip.config(4, h);
        let nx = BaselinePreset::Nxgraph.config(4, h);
        let seraph = BaselinePreset::Seraph.config(4, h);
        let vt = BaselinePreset::SeraphVt.config(4, h);
        assert_eq!(clip.sharing, StructureSharing::PerJob);
        assert!(clip.reentry > 0);
        assert_eq!(nx.reentry, 0);
        assert_eq!(seraph.sharing, StructureSharing::SharedMemory);
        assert!(!seraph.incremental_versions);
        assert!(vt.incremental_versions);
    }

    #[test]
    fn sequential_is_sequential() {
        let c = BaselinePreset::Sequential.config(2, HierarchyConfig::default());
        assert_eq!(c.interleave, Interleave::Sequential);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = BaselinePreset::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}
