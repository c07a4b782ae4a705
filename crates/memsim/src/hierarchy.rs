//! The two-tier (LLC + memory) hierarchy over an infinite disk.

use crate::lru::LruCache;
use crate::metrics::Metrics;
use crate::object::CacheObject;

/// Capacities for the two simulated tiers.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    /// Simulated LLC capacity in bytes (the paper's testbed had a 20 MB
    /// LLC per socket; experiments scale this with the shrunken datasets).
    pub cache_bytes: u64,
    /// Simulated main-memory capacity in bytes (graphs larger than this
    /// incur disk I/O, reproducing the paper's out-of-core regime for
    /// hyperlink14).
    pub memory_bytes: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig { cache_bytes: 4 << 20, memory_bytes: 256 << 20 }
    }
}

/// Where an access was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Served from the cache tier without a transfer.
    pub cache_hit: bool,
    /// On a cache miss, whether the object was at least memory-resident.
    pub memory_hit: bool,
    /// Bytes transferred memory → cache by this access.
    pub bytes_from_memory: u64,
    /// Bytes transferred disk → memory by this access.
    pub bytes_from_disk: u64,
}

/// LLC + memory tiers with byte-accurate transfer accounting.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    cache: LruCache,
    memory: LruCache,
    metrics: Metrics,
}

impl MemoryHierarchy {
    /// Creates a hierarchy with the given tier capacities.
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryHierarchy {
            cache: LruCache::new(config.cache_bytes),
            memory: LruCache::new(config.memory_bytes),
            metrics: Metrics::default(),
        }
    }

    /// Accesses `obj` (`bytes` big), simulating the transfers a real
    /// hierarchy would perform and updating the counters.
    pub fn access(&mut self, obj: CacheObject, bytes: u64) -> AccessOutcome {
        self.metrics.cache_accesses += 1;
        if self.cache.touch(&obj) {
            return AccessOutcome {
                cache_hit: true,
                memory_hit: true,
                bytes_from_memory: 0,
                bytes_from_disk: 0,
            };
        }
        self.metrics.cache_misses += 1;
        self.metrics.bytes_mem_to_cache += bytes;
        let memory_hit = self.memory.touch(&obj);
        let mut from_disk = 0;
        if !memory_hit {
            self.metrics.memory_misses += 1;
            self.metrics.bytes_disk_to_mem += bytes;
            from_disk = bytes;
            self.memory.insert(obj, bytes);
        }
        self.cache.insert(obj, bytes);
        AccessOutcome {
            cache_hit: false,
            memory_hit,
            bytes_from_memory: bytes,
            bytes_from_disk: from_disk,
        }
    }

    /// Pins `obj` in the cache tier (reference-counted; see
    /// [`LruCache::pin`]).
    pub fn pin(&mut self, obj: &CacheObject) {
        self.cache.pin(obj);
    }

    /// Releases one pin of `obj` in the cache tier.
    pub fn unpin(&mut self, obj: &CacheObject) {
        self.cache.unpin(obj);
    }

    /// Bytes the cache tier currently holds pinned — the concurrent
    /// wavefront's resident structure footprint.
    pub fn pinned_bytes(&self) -> u64 {
        self.cache.pinned_bytes()
    }

    /// Whether `obj` is cache-resident.
    pub fn in_cache(&self, obj: &CacheObject) -> bool {
        self.cache.contains(obj)
    }

    /// Whether `obj` is memory-resident.
    pub fn in_memory(&self, obj: &CacheObject) -> bool {
        self.memory.contains(obj)
    }

    /// Drops all state belonging to a finished job from both tiers.
    pub fn evict_job(&mut self, job: u32) {
        let keep = |o: &CacheObject| match *o {
            CacheObject::PrivateTable { job: j, .. } | CacheObject::JobStructure { job: j, .. } => {
                j != job
            }
            CacheObject::Structure { .. } => true,
        };
        self.cache.retain(keep);
        self.memory.retain(keep);
    }

    /// Invalidate one object everywhere (e.g. a re-versioned partition).
    pub fn invalidate(&mut self, obj: &CacheObject) {
        self.cache.remove(obj);
        self.memory.remove(obj);
    }

    /// Accumulated counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable counters (engines add compute/sync ops here).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The cache tier (read-only, for inspection in tests).
    pub fn cache(&self) -> &LruCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(pid: u32) -> CacheObject {
        CacheObject::Structure { pid, version: 0 }
    }

    fn small() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig { cache_bytes: 100, memory_bytes: 300 })
    }

    #[test]
    fn cold_access_goes_to_disk() {
        let mut h = small();
        let out = h.access(obj(0), 50);
        assert!(!out.cache_hit);
        assert!(!out.memory_hit);
        assert_eq!(out.bytes_from_disk, 50);
        assert_eq!(h.metrics().bytes_disk_to_mem, 50);
        assert_eq!(h.metrics().bytes_mem_to_cache, 50);
    }

    #[test]
    fn second_access_hits_cache() {
        let mut h = small();
        h.access(obj(0), 50);
        let out = h.access(obj(0), 50);
        assert!(out.cache_hit);
        assert_eq!(h.metrics().cache_misses, 1);
        assert_eq!(h.metrics().cache_accesses, 2);
    }

    #[test]
    fn cache_evicted_but_memory_resident_avoids_disk() {
        let mut h = small();
        h.access(obj(0), 60);
        h.access(obj(1), 60); // evicts 0 from cache, both fit in memory
        let out = h.access(obj(0), 60);
        assert!(!out.cache_hit);
        assert!(out.memory_hit, "object should still be memory-resident");
        assert_eq!(h.metrics().bytes_disk_to_mem, 120);
    }

    #[test]
    fn memory_pressure_reaches_disk_again() {
        let mut h = small();
        for pid in 0..6 {
            h.access(obj(pid), 60); // 360 bytes > 300 memory
        }
        let before = h.metrics().bytes_disk_to_mem;
        h.access(obj(0), 60); // evicted from memory by now
        assert_eq!(h.metrics().bytes_disk_to_mem, before + 60);
    }

    #[test]
    fn evict_job_keeps_shared_structure() {
        let mut h = small();
        h.access(CacheObject::PrivateTable { job: 1, pid: 0 }, 10);
        h.access(obj(0), 10);
        h.evict_job(1);
        assert!(h.in_cache(&obj(0)));
        assert!(!h.in_cache(&CacheObject::PrivateTable { job: 1, pid: 0 }));
    }

    #[test]
    fn invalidate_removes_from_both_tiers() {
        let mut h = small();
        h.access(obj(0), 10);
        h.invalidate(&obj(0));
        assert!(!h.in_cache(&obj(0)));
        assert!(!h.in_memory(&obj(0)));
    }

    #[test]
    fn miss_rate_tracks_interference() {
        // Two "jobs" alternating over a working set twice the cache size
        // must thrash; a single job half the size must not.
        let mut h =
            MemoryHierarchy::new(HierarchyConfig { cache_bytes: 100, memory_bytes: 10_000 });
        for _ in 0..10 {
            for pid in 0..4 {
                h.access(obj(pid), 50);
            }
        }
        let thrash = h.metrics().cache_miss_rate();
        let mut h2 =
            MemoryHierarchy::new(HierarchyConfig { cache_bytes: 100, memory_bytes: 10_000 });
        for _ in 0..10 {
            for pid in 0..2 {
                h2.access(obj(pid), 50);
            }
        }
        assert!(thrash > h2.metrics().cache_miss_rate());
    }
}
