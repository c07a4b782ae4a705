//! Store-side observability hooks.
//!
//! The graph crate sits *below* the engine, so it cannot depend on the
//! engine's tracing subsystem (`cgraph_core::obs`).  Instead it exposes
//! this thin callback trait: every method has an empty default body, the
//! store holds an `Option<Arc<dyn StoreObserver>>`, and each call site
//! first checks `Option::is_some` — so a store without an observer (the
//! default, and every pre-observability code path) pays exactly one
//! branch on an always-`None` option and allocates nothing.
//!
//! The engine crate implements this trait on its `Observer` bridge and
//! attaches it with [`ShardedSnapshotStore::with_observer`]; anything
//! else (tests, ad-hoc tooling) can implement it directly.
//!
//! # Threading
//!
//! Most hooks fire on the thread calling [`ShardedSnapshotStore::apply`]
//! (append, fsync, spill, checkpoint) and are therefore serial per
//! store.  The exception is [`StoreObserver::rehydrate`], which fires on
//! whatever thread faults a spilled payload back in — under the
//! concurrent executor that is the main thread or any trigger worker.
//! Implementations must be `Send + Sync` and treat `rehydrate` as
//! concurrent.
//!
//! All durations are wall-clock microseconds measured at the call site;
//! none of the hooks feed back into store behaviour, so an observer can
//! never perturb apply results, spill decisions, or recovery.
//!
//! [`ShardedSnapshotStore::apply`]: crate::snapshot::ShardedSnapshotStore::apply
//! [`ShardedSnapshotStore::with_observer`]: crate::snapshot::ShardedSnapshotStore::with_observer

/// Crate-internal spelling of "maybe an observer": wraps
/// `Option<Arc<dyn StoreObserver>>` so holders keep deriving `Debug`
/// (trait objects have no `Debug` of their own).
pub(crate) struct ObsHandle(Option<std::sync::Arc<dyn StoreObserver>>);

impl ObsHandle {
    pub(crate) fn none() -> ObsHandle {
        ObsHandle(None)
    }

    pub(crate) fn set(&mut self, obs: std::sync::Arc<dyn StoreObserver>) {
        self.0 = Some(obs);
    }

    pub(crate) fn get(&self) -> Option<&dyn StoreObserver> {
        self.0.as_deref()
    }

    pub(crate) fn clone_arc(&self) -> Option<std::sync::Arc<dyn StoreObserver>> {
        self.0.clone()
    }
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "ObsHandle(set)"
        } else {
            "ObsHandle(unset)"
        })
    }
}

/// Callback surface the snapshot store and WAL report into.
///
/// Every method defaults to a no-op; implement only what you consume.
/// Shards are identified by their index in the store's shard vector.
pub trait StoreObserver: Send + Sync {
    /// One `apply` finished: the delta record landed in `shard` and
    /// `partitions` current-index entries were rebuilt in `micros`
    /// wall microseconds.
    fn apply_rebuild(&self, shard: usize, version: u64, partitions: usize, micros: u64) {
        let _ = (shard, version, partitions, micros);
    }

    /// `bytes` of payload were appended to a WAL segment (`shard =
    /// None` for the store-level manifest segment) in `micros`.
    fn wal_append(&self, shard: Option<usize>, bytes: u64, micros: u64) {
        let _ = (shard, bytes, micros);
    }

    /// One segment fsync (`shard = None` for the manifest) completed in
    /// `micros`.
    fn wal_fsync(&self, shard: Option<usize>, micros: u64) {
        let _ = (shard, micros);
    }

    /// Capacity enforcement dropped a resident payload: `bytes` left
    /// memory for the shard's WAL segment.
    fn spill(&self, shard: usize, bytes: u64) {
        let _ = (shard, bytes);
    }

    /// A spilled payload was faulted back in from the WAL (`bytes`
    /// resident again after `micros` of read + decode).  Concurrent.
    fn rehydrate(&self, shard: usize, bytes: u64, micros: u64) {
        let _ = (shard, bytes, micros);
    }

    /// A compaction checkpoint walked `records` live records into a
    /// fresh baseline in `micros`.
    fn checkpoint_walk(&self, records: u64, micros: u64) {
        let _ = (records, micros);
    }

    /// Crash recovery replayed `frames` WAL frames (`bytes` of payload)
    /// in `micros`.
    fn recovery_replay(&self, frames: u64, bytes: u64, micros: u64) {
        let _ = (frames, bytes, micros);
    }

    /// Post-apply footprint report for one shard: bytes resident in
    /// memory vs. spilled to the WAL.
    fn footprint(&self, shard: usize, resident_bytes: u64, spilled_bytes: u64) {
        let _ = (shard, resident_bytes, spilled_bytes);
    }
}
