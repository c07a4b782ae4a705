//! Incremental snapshots for evolving graphs (paper §3.2.1, Fig. 5).
//!
//! Graph updates are only visible to jobs submitted after them, so the store
//! keeps a series of timestamped snapshots.  Because each update touches few
//! partitions, a snapshot records only the re-versioned partitions; all
//! other partitions are inherited, which is exactly what lets jobs bound to
//! different snapshots keep *sharing* the unchanged structure partitions in
//! cache (the effect Figs. 16–19 measure).
//!
//! # Layered delta chains
//!
//! Records are *layered*: each `SnapshotRecord` (vertex level) and
//! `ShardRecord` (partition level) stores only the entries **its** delta
//! touched, so writing a record costs O(|delta|) however long the chain
//! grows — never O(accumulated state).  (Checkpoint stamping, when a
//! policy schedules one, additionally clones the accumulated overrides;
//! see [`CompactionPolicy`].)  Three resolution regimes follow:
//!
//! - **Latest view**: the store maintains one incrementally updated
//!   current-state index, so every lookup at the newest snapshot is a
//!   single hash probe — O(1) in chain length.
//! - **Historical view**: a lookup walks its chain backwards (newest
//!   record first) until it finds the key or hits a *checkpoint* — a
//!   record onto which the full cumulative state has been materialized.
//! - **Base view**: resolves straight against the base [`PartitionSet`].
//!
//! [`CompactionPolicy`] bounds the historical walk: `EveryK(k)` (the
//! default, k = 16) materializes a checkpoint every `k` applied deltas,
//! capping any walk at `2k - 1` records; `Off` disables auto-compaction
//! (a manual [`ShardedSnapshotStore::compact`] is still available).
//! Layering and compaction are pure representation: they never change
//! what any view observes.
//!
//! # Shards, capacity, and concurrency
//!
//! The sharded store is multi-node-shaped: partition `pid` lives on
//! shard `pid % shards` ([`ShardedSnapshotStore::shard_of`], the one
//! place that rule is written), each shard grows its own delta chain,
//! and each shard is one stage-one I/O lane in the engines' cost model.
//! One knob and one self-sized mechanism sit on top.  The knob defaults
//! off and neither ever changes what a view observes — capacity moves
//! cold records to (modeled) spill storage, and concurrent apply only
//! reorders *internal* work:
//!
//! - **Capacity** ([`ShardCapacity`], default unlimited): a per-shard
//!   `max_resident_bytes` budget on the chain's resident state,
//!   enforced at install time by *checkpoint-aware spill*: the coldest
//!   records strictly below the shard's newest checkpoint — old
//!   deltas and superseded checkpoints alike — have their payloads
//!   marked spilled, oldest first, skipping records whose payloads the
//!   permanently resident tail (the newest checkpoint record and
//!   everything after it, the state every future walk must reach)
//!   still shares.  Spilled data stays materializable (this is a
//!   single-process reproduction) so no historical view can ever
//!   dangle, but it leaves the resident accounting
//!   ([`ShardedSnapshotStore::override_bytes`] /
//!   [`ShardedSnapshotStore::shard_resident_bytes`]) and any view that
//!   resolves a partition through a spilled record reports it via
//!   [`GraphView::partition_spilled`], which the engines price as a
//!   disk re-fetch on the owning shard's lane (the spill signal).
//! - **Concurrent apply** (no knob): partition rebuilds — pure,
//!   lock-free reads of the pre-delta state — run on the calling
//!   thread plus `width − 1` scoped helpers, all claiming partitions
//!   from one shared queue, and the master patch fans the rebuilt
//!   partitions out the same way: one fork-join serves both, so a panic
//!   on any thread is a typed error and a helper the OS refuses to start
//!   only narrows the apply.  `apply` sizes the
//!   width itself: `min(host CPUs, affected partitions, rebuild
//!   edges / 8192)`, at least 1, where host CPUs is
//!   `available_parallelism()` (so a `taskset -c 0` process applies on
//!   its own thread alone) and 8192 edges is roughly the rebuild work
//!   that amortizes one scoped spawn.  Results come back in pid order
//!   whichever thread produced them; the
//!   vertex-level current-index merge stays single-threaded and
//!   ordered, so the result is **bit-identical** at any width (pinned
//!   at forced widths by this module's unit tests and on the host's own
//!   width by `tests/store_stress.rs`).
//!
//! # Durability
//!
//! A store becomes durable via [`ShardedSnapshotStore::persist_to`]:
//! every apply then appends CRC-checksummed frames to the [`crate::wal`]
//! segment files *before* mutating memory, and
//! [`ShardedSnapshotStore::open`] / [`ShardedSnapshotStore::recover`]
//! rebuild the store — records, checkpoints, spill flags, and the
//! incremental `CurrentIndex` — by replaying them.  Recovery truncates
//! a torn tail (a crash mid-append) and refuses mid-log corruption with
//! a typed [`StoreError`].  On a durable store, capacity spill is *real*:
//! spilled payloads are dropped from memory and reads through them
//! rehydrate from the shard segment (read-through), so the modeled spill
//! cost can be compared against measured disk time.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::edge::{Edge, EdgeList};
use crate::fault::{FaultHandle, FaultInjector, StoreFaultBoundary};
use crate::obs::{ObsHandle, StoreObserver};
use crate::partition::{Partition, PartitionSet};
use crate::plan::{PlanCache, ReplicaPlan};
use crate::types::{PartitionId, VersionId, VertexId, NO_PARTITION};
use crate::wal::{
    self, scan_segment, Frame, FrameCursor, FrameHead, PayloadLoc, SegmentId, StoreError, StoreWal,
    WireReader,
};

/// A batch of edge additions and removals forming one graph update.
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    /// Edges to add.
    pub additions: Vec<Edge>,
    /// `(src, dst)` pairs to remove (first matching edge).
    pub removals: Vec<(VertexId, VertexId)>,
}

impl GraphDelta {
    /// A delta that only adds edges.
    pub fn adding<I: IntoIterator<Item = Edge>>(edges: I) -> Self {
        GraphDelta { additions: edges.into_iter().collect(), removals: Vec::new() }
    }

    /// A delta that only removes edges.
    pub fn removing<I: IntoIterator<Item = (VertexId, VertexId)>>(pairs: I) -> Self {
        GraphDelta { additions: Vec::new(), removals: pairs.into_iter().collect() }
    }

    /// Total number of edge changes.
    pub fn len(&self) -> usize {
        self.additions.len() + self.removals.len()
    }

    /// Whether the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Errors raised when applying a [`GraphDelta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// A removal referenced an edge not present in the current snapshot.
    EdgeNotFound(VertexId, VertexId),
    /// An addition referenced a vertex outside the fixed universe.
    VertexOutOfRange(VertexId),
    /// Snapshot timestamps must be strictly increasing (and > 0).
    NonMonotonicTimestamp { previous: u64, given: u64 },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::EdgeNotFound(s, d) => write!(f, "edge {s}->{d} not found"),
            SnapshotError::VertexOutOfRange(v) => write!(f, "vertex {v} out of range"),
            SnapshotError::NonMonotonicTimestamp { previous, given } => write!(
                f,
                "timestamp {given} not after previous snapshot {previous}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// When the store materializes checkpoints along the delta chains.
///
/// A checkpoint is the full cumulative state stamped onto an existing
/// record; a historical lookup's backward walk stops at the first one it
/// meets.  Compaction is pure representation — it bounds walk length and
/// never changes what any view observes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactionPolicy {
    /// No automatic checkpoints: a historical walk may span the whole
    /// chain.  [`ShardedSnapshotStore::compact`] still works manually.
    Off,
    /// Materialize a checkpoint every `k` applied deltas (`k` is clamped
    /// to at least 1), capping any historical walk at `2k - 1` records.
    /// `EveryK(1)` reproduces the pre-layering cumulative layout: every
    /// record carries full state, at O(accumulated) cost per apply.
    EveryK(usize),
}

impl Default for CompactionPolicy {
    /// Checkpoint every 16 deltas: historical walks touch at most 31
    /// records.  Stamping a checkpoint clones the accumulated override
    /// state `S`, so apply is O(|delta| + S/k) amortized — strictly
    /// O(|delta|) only under [`CompactionPolicy::Off`]; pruning
    /// checkpointed prefixes (true log compaction) is future work.
    fn default() -> Self {
        CompactionPolicy::EveryK(16)
    }
}

impl CompactionPolicy {
    /// Whether a checkpoint is due after `applied` total deltas.
    fn due(self, applied: usize) -> bool {
        match self {
            CompactionPolicy::Off => false,
            CompactionPolicy::EveryK(k) => applied.is_multiple_of(k.max(1)),
        }
    }
}

/// One snapshot's vertex-level **delta**: only the vertices this delta
/// touched, plus the shard chain heads visible at this snapshot.
/// Unchanged vertices resolve through older records or the nearest
/// checkpoint (see the module docs).
#[derive(Debug)]
struct SnapshotRecord {
    timestamp: u64,
    /// Per shard: how many of that shard's records this snapshot sees
    /// (0 = the base).  Partition-level state lives in the shards.
    shard_heads: Vec<usize>,
    master_delta: HashMap<VertexId, PartitionId>,
    replica_delta: HashMap<VertexId, Vec<PartitionId>>,
    degree_delta: HashMap<VertexId, (u32, u32)>,
    /// How many edge *removals* this delta carried.  Persisted with the
    /// record (and through the WAL) because incremental recomputation
    /// needs it: a monotone resume is only sound over addition-only
    /// deltas, so [`ShardedSnapshotStore::delta_summary`] reports any
    /// removal in the resumed range as a from-scratch fallback signal.
    removals: u64,
    /// Full cumulative vertex state as of this record, when compaction
    /// materialized one here.  A backward walk stops at the first
    /// checkpoint it meets.
    checkpoint: Option<VertexCheckpoint>,
}

/// Materialized cumulative vertex-level state (checkpoint payload).
#[derive(Clone, Debug, Default)]
struct VertexCheckpoint {
    master: HashMap<VertexId, PartitionId>,
    replicas: HashMap<VertexId, Vec<PartitionId>>,
    degree: HashMap<VertexId, (u32, u32)>,
}

/// One partition payload of a [`ShardRecord`] or [`ShardCheckpoint`]:
/// resident in memory, on disk (rehydrated on first read), or both.
///
/// In-memory stores always hold the `Arc` and no disk location — every
/// existing code path is unchanged.  On a durable store each payload
/// also records where its bytes live in the owning shard segment, which
/// is what makes two things possible: recovery can leave cold pre-
/// checkpoint payloads *lazy* (decoded only if a historical walk
/// actually reaches them), and capacity spill can genuinely drop the
/// resident copy so later reads do real I/O.
#[derive(Debug, Default)]
struct PayloadCell {
    /// The decoded partition, once resident.  `OnceLock` so a shared
    /// `&self` walk can materialize a lazy payload exactly once.
    part: OnceLock<Arc<Partition>>,
    /// Where the payload's bytes live on disk (durable stores only).
    disk: Option<PayloadLoc>,
}

impl Clone for PayloadCell {
    fn clone(&self) -> Self {
        let part = OnceLock::new();
        if let Some(p) = self.part.get() {
            let _ = part.set(Arc::clone(p));
        }
        PayloadCell { part, disk: self.disk }
    }
}

impl PayloadCell {
    /// A resident payload, knowing its on-disk location on a durable
    /// store (`None` = purely in memory).
    fn resident(part: Arc<Partition>, disk: Option<PayloadLoc>) -> Self {
        let cell = OnceLock::new();
        let _ = cell.set(part);
        PayloadCell { part: cell, disk }
    }

    /// An on-disk-only payload, decoded on first read.
    fn lazy(loc: PayloadLoc) -> Self {
        PayloadCell { part: OnceLock::new(), disk: Some(loc) }
    }

    /// The resident payload, if materialized (never triggers I/O —
    /// accounting and eviction use this).
    fn get(&self) -> Option<&Arc<Partition>> {
        self.part.get()
    }

    /// The payload, rehydrating from `wal` if not resident.
    ///
    /// # Panics
    ///
    /// Panics if rehydration I/O fails: the view API is infallible by
    /// design, and the frame was CRC-verified when the store opened, so
    /// a failure here means the segment file vanished or the device
    /// died under a live store — not a recoverable application state.
    fn load(&self, wal: Option<&StoreWal>) -> &Arc<Partition> {
        self.part.get_or_init(|| {
            let loc = self.disk.expect("payload neither resident nor on disk");
            let wal = wal.expect("disk-backed payload without an open wal");
            match wal.read_partition(loc) {
                Ok(p) => Arc::new(p),
                Err(e) => panic!("failed to rehydrate spilled partition payload: {e}"),
            }
        })
    }

    /// Drops the resident copy if (and only if) the payload is disk-
    /// backed — real spill on a durable store, a no-op otherwise.
    fn drop_resident(&mut self) {
        if self.disk.is_some() {
            self.part = OnceLock::new();
        }
    }
}

/// Partition-level overrides contributed by **one** delta to one shard's
/// chain (plus an optional materialized cumulative checkpoint).
#[derive(Clone, Debug, Default)]
struct ShardRecord {
    overrides: HashMap<PartitionId, PayloadCell>,
    versions: HashMap<PartitionId, VersionId>,
    checkpoint: Option<ShardCheckpoint>,
    /// Whether capacity enforcement moved this record's payloads — its
    /// overrides and its checkpoint, if it carries one — to (modeled)
    /// spill storage.  Spilled payloads leave the resident accounting
    /// and re-fetches through them are priced by the engines.  The
    /// shard's *newest* checkpoint record and everything after it never
    /// spill: they are the state every future walk must reach.
    spilled: bool,
}

impl ShardRecord {
    /// Every payload cell the record holds: its delta's, then its
    /// checkpoint's.
    fn cells(&self) -> impl Iterator<Item = &PayloadCell> {
        let cp = self.checkpoint.iter().flat_map(|cp| cp.overrides.values());
        self.overrides.values().chain(cp)
    }
}

/// Materialized cumulative partition state for one shard.
#[derive(Clone, Debug, Default)]
struct ShardCheckpoint {
    overrides: HashMap<PartitionId, PayloadCell>,
    versions: HashMap<PartitionId, VersionId>,
}

/// The store's incrementally maintained current state: every override
/// accumulated along the chain, updated in place by `apply` (O(|delta|)
/// per update).  Lookups at the *latest* snapshot resolve here with a
/// single probe instead of walking the chain.
#[derive(Clone, Debug, Default)]
struct CurrentIndex {
    master: HashMap<VertexId, PartitionId>,
    replicas: HashMap<VertexId, Vec<PartitionId>>,
    degree: HashMap<VertexId, (u32, u32)>,
    parts: HashMap<PartitionId, Arc<Partition>>,
    versions: HashMap<PartitionId, VersionId>,
}

/// Per-shard resident-state budget of a [`ShardedSnapshotStore`]
/// (default: unlimited).  See the module docs: enforcement spills the
/// coldest pre-checkpoint record payloads at install time and surfaces
/// re-fetches of spilled state through [`GraphView::partition_spilled`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardCapacity {
    /// Budget, in [`ShardedSnapshotStore::shard_resident_bytes`] terms,
    /// each shard's chain may keep resident.  The shard's newest
    /// checkpoint and every at-or-above-checkpoint record always stay
    /// resident (they terminate walks), so a budget below that floor is
    /// enforced as far as spilling pre-checkpoint payloads can go.
    pub max_resident_bytes: u64,
}

impl ShardCapacity {
    /// No budget: nothing ever spills (the default).
    pub const UNLIMITED: ShardCapacity = ShardCapacity { max_resident_bytes: u64::MAX };

    /// A budget of `max_resident_bytes` per shard.
    pub fn bytes(max_resident_bytes: u64) -> Self {
        ShardCapacity { max_resident_bytes }
    }

    /// Whether this capacity can ever trigger a spill.
    pub fn is_limited(&self) -> bool {
        self.max_resident_bytes != u64::MAX
    }
}

impl Default for ShardCapacity {
    fn default() -> Self {
        ShardCapacity::UNLIMITED
    }
}

/// One shard of a [`ShardedSnapshotStore`]: an independent, append-only
/// delta chain over the partitions placed on it.  A shard's chain grows
/// only when a delta re-versions one of *its* partitions, so shards
/// evolve independently — which is what lets the executor treat them as
/// parallel stage-one I/O lanes (one disk fetch in flight per shard).
#[derive(Clone, Debug, Default)]
pub struct SnapshotShard {
    records: Vec<ShardRecord>,
}

impl SnapshotShard {
    /// Number of records in this shard's chain.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// Number of records carrying a materialized checkpoint.
    pub fn num_checkpoints(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.checkpoint.is_some())
            .count()
    }

    /// Number of records whose override payloads were spilled by
    /// capacity enforcement.
    pub fn num_spilled(&self) -> usize {
        self.records.iter().filter(|r| r.spilled).count()
    }

    /// Chain indices of the spilled records (ascending).
    pub fn spilled_indices(&self) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.spilled)
            .map(|(i, _)| i)
            .collect()
    }

    /// Chain index of the newest record carrying a checkpoint.
    pub fn newest_checkpoint(&self) -> Option<usize> {
        self.records.iter().rposition(|r| r.checkpoint.is_some())
    }
}

/// The store: a base [`PartitionSet`] (timestamp 0) plus incremental
/// snapshots, with the partition delta chains sharded round-robin
/// (partition `pid` on shard `pid % shards`) across independently
/// `Arc`'d [`SnapshotShard`]s.
/// Vertex-level overrides (masters, replica lists, degrees) span
/// partitions and therefore stay store-global; [`GraphView`] resolves
/// across shards transparently, so shard count never changes what any
/// view observes — only how the chains are laid out and which I/O lane
/// a partition load occupies.
///
/// Records are layered (see the module docs): `apply` is O(|delta|) in
/// chain length, latest-view lookups are O(1) via the current-state
/// index, and historical lookups walk backwards at most to the nearest
/// checkpoint ([`CompactionPolicy`]).
#[derive(Debug)]
pub struct ShardedSnapshotStore {
    base: PartitionSet,
    shards: Vec<Arc<SnapshotShard>>,
    records: Vec<SnapshotRecord>,
    current: CurrentIndex,
    compaction: CompactionPolicy,
    capacity: ShardCapacity,
    /// Store-wide count of spilled records (fast-path guard: spill
    /// checks are free while nothing has ever spilled).
    spilled_records: usize,
    /// The open durability layer, when [`persist_to`](Self::persist_to)
    /// or [`open`](Self::open) attached one (`None` = in-memory store,
    /// every pre-durability code path byte-for-byte).
    wal: Option<StoreWal>,
    /// Fault-plane hook (see [`crate::fault`]): applies, WAL boundaries,
    /// and rehydrations notify it when set.  Fail-open — injection
    /// accounts retries and modeled latency but never changes what any
    /// view observes.
    faults: FaultHandle,
    /// Observability hook (see [`crate::obs`]): applies, spills, and
    /// footprints report here when set.  Unset (the default) costs one
    /// branch per apply and changes nothing observable.
    observer: ObsHandle,
    /// Cumulative payload bytes spilled per shard since this store was
    /// constructed/opened (feeds [`StoreObserver::footprint`]).
    spilled_bytes: Vec<u64>,
    /// Recovery replay stats from [`open`](Self::open), reported to the
    /// observer when one attaches (open runs before any hook exists).
    replay: Option<ReplayStats>,
    /// Replica plans handed to jobs (see [`GraphView::replica_plan`]).
    /// Filled on a job's bind only; `apply`, compaction and recovery
    /// never read or write it.
    plans: PlanCache,
}

/// What [`ShardedSnapshotStore::open`] replayed, held until an observer
/// attaches.
#[derive(Clone, Copy, Debug)]
struct ReplayStats {
    frames: u64,
    bytes: u64,
    micros: u64,
}

/// Partitions staged for one shard record or checkpoint, pid-ordered,
/// each with the version it is installed at.
type StagedArcs = Vec<(PartitionId, Arc<Partition>, VersionId)>;

/// A shard record's or checkpoint's payload cells and version map.
type PayloadMaps = (
    HashMap<PartitionId, PayloadCell>,
    HashMap<PartitionId, VersionId>,
);

/// The ubiquitous single-`Arc` spelling: a [`ShardedSnapshotStore`]
/// defaults to one shard via [`ShardedSnapshotStore::new`].
pub type SnapshotStore = ShardedSnapshotStore;

/// Minimum rebuild work (estimated affected edges) per apply thread.
/// Below roughly this many edges per thread, the spawn/join cost of a
/// scoped helper exceeds the rebuild it would perform and fanning out
/// is a slowdown.
const APPLY_EDGES_PER_THREAD: usize = 8192;

/// Logical CPUs this process may run on, read once.  On Linux
/// `available_parallelism` honours the CPU affinity mask.
fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads one `apply` rebuilds and patches on: never more than the
/// host has, than there are affected partitions to claim, or than the
/// rebuild work amortizes; at least the calling thread.
fn apply_width(cpus: usize, units: usize, rebuild_edges: usize) -> usize {
    cpus.min(units)
        .min(rebuild_edges / APPLY_EDGES_PER_THREAD)
        .max(1)
}

/// Maps `f` over `items` on `width` threads — the calling thread plus
/// `width − 1` scoped helpers — each claiming the next unclaimed item
/// until none is left.
///
/// Returns the results in item order once every helper has joined, or
/// `None` if `f` panicked on any thread.  A helper the OS refuses to
/// start is not an error: the threads already running claim its share,
/// so a refused spawn costs parallelism, never work.
fn fan_out<I, T, F>(width: usize, items: I, f: F) -> Option<Vec<T>>
where
    I: IntoIterator,
    I::IntoIter: Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let queue = Mutex::new(items.into_iter().enumerate());
    let claim = || {
        let mut out = Vec::new();
        // A poisoned queue means `next` panicked on another thread,
        // which already fails the call.
        while let Some((i, item)) = queue.lock().ok().and_then(|mut q| q.next()) {
            out.push((i, f(item)));
        }
        out
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..width)
            .map_while(|_| std::thread::Builder::new().spawn_scoped(scope, claim).ok())
            .collect();
        let mut results = catch_unwind(AssertUnwindSafe(claim)).ok();
        // Join every helper, even after a panic, before reporting one.
        for helper in helpers {
            let joined = helper.join().ok();
            results = results.zip(joined).map(|(mut all, more)| {
                all.extend(more);
                all
            });
        }
        let mut results = results?;
        results.sort_unstable_by_key(|&(i, _)| i);
        Some(results.into_iter().map(|(_, t)| t).collect())
    })
}

impl ShardedSnapshotStore {
    /// Wraps a base partitioned graph as snapshot timestamp 0, on a
    /// single shard.
    pub fn new(base: PartitionSet) -> Self {
        Self::with_shards(base, 1)
    }

    /// Wraps a base graph with its partitions placed round-robin across
    /// `shards` shards (clamped to `1..=num_partitions`).
    pub fn with_shards(base: PartitionSet, shards: usize) -> Self {
        let shards = shards.clamp(1, base.num_partitions().max(1));
        ShardedSnapshotStore {
            base,
            shards: (0..shards)
                .map(|_| Arc::new(SnapshotShard::default()))
                .collect(),
            records: Vec::new(),
            current: CurrentIndex::default(),
            compaction: CompactionPolicy::default(),
            capacity: ShardCapacity::default(),
            spilled_records: 0,
            wal: None,
            observer: ObsHandle::none(),
            faults: FaultHandle::none(),
            spilled_bytes: vec![0; shards],
            replay: None,
            plans: PlanCache::default(),
        }
    }

    /// Attaches an observability hook (builder style).  Applies, WAL
    /// appends/fsyncs, spills, rehydrations, and checkpoint walks
    /// report through it from here on; pending recovery-replay stats
    /// (if this store came from [`open`](Self::open)) are reported
    /// immediately.  Hooks only *read* store state — no view, apply
    /// result, or spill decision ever depends on the observer.
    pub fn with_observer(mut self, obs: Arc<dyn StoreObserver>) -> Self {
        self.set_observer(obs);
        self
    }

    /// Non-consuming spelling of [`with_observer`](Self::with_observer).
    pub fn set_observer(&mut self, obs: Arc<dyn StoreObserver>) {
        if let Some(replay) = self.replay.take() {
            obs.recovery_replay(replay.frames, replay.bytes, replay.micros);
        }
        if let Some(w) = &mut self.wal {
            w.set_observer(Arc::clone(&obs));
        }
        self.observer.set(obs);
    }

    /// Attaches a fault-plane hook (builder style).  Applies, WAL
    /// appends/fsyncs, and rehydrations notify it from here on (see
    /// [`crate::fault`]).  Injection at these boundaries is fail-open:
    /// the injector accounts faults, retries, and modeled latency, but
    /// no view, apply result, or spill decision ever changes.
    pub fn with_faults(mut self, inj: Arc<dyn FaultInjector>) -> Self {
        self.set_faults(inj);
        self
    }

    /// Non-consuming spelling of [`with_faults`](Self::with_faults).
    pub fn set_faults(&mut self, inj: Arc<dyn FaultInjector>) {
        if let Some(w) = &mut self.wal {
            w.set_faults(Arc::clone(&inj));
        }
        self.faults.set(inj);
    }

    /// Replaces the checkpoint compaction policy (builder style).
    /// Compaction never changes what any view observes, only how far a
    /// historical lookup walks.
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = policy;
        self
    }

    /// The active checkpoint compaction policy.
    pub fn compaction(&self) -> CompactionPolicy {
        self.compaction
    }

    /// Replaces the per-shard resident-state budget (builder style).
    /// Capacity never changes what any view observes — only which
    /// records stay resident and what a re-fetch costs (see the module
    /// docs).  Enforcement runs at every subsequent install.
    pub fn with_capacity(mut self, capacity: ShardCapacity) -> Self {
        self.capacity = capacity;
        // The builder signature is infallible; on a durable store a
        // failed spill append is deferred into the wal and surfaced by
        // the next fallible operation.
        if let Err(e) = self.enforce_capacity() {
            if let Some(w) = &mut self.wal {
                w.poison(&e);
            }
        }
        self
    }

    /// The active per-shard capacity budget.
    pub fn capacity(&self) -> ShardCapacity {
        self.capacity
    }

    /// Whether any record's payload has ever been spilled.
    pub fn has_spills(&self) -> bool {
        self.spilled_records > 0
    }

    /// The base graph.
    pub fn base(&self) -> &PartitionSet {
        &self.base
    }

    /// Number of shards partitions are placed across.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard partition `pid` is placed on: `pid % shards`, so
    /// consecutive partitions land on distinct shards and an in-order
    /// scan interleaves lanes.  Every shard lookup asks here.
    pub fn shard_of(&self, pid: PartitionId) -> usize {
        pid as usize % self.shards.len()
    }

    /// One shard's delta chain (each shard is its own `Arc`).
    pub fn shard(&self, shard: usize) -> &Arc<SnapshotShard> {
        &self.shards[shard]
    }

    /// Number of snapshots applied on top of the base.
    pub fn num_snapshots(&self) -> usize {
        self.records.len()
    }

    /// Number of snapshot records carrying a vertex-level checkpoint.
    pub fn num_checkpoints(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.checkpoint.is_some())
            .count()
    }

    /// Timestamp of the newest snapshot (0 if only the base exists).
    pub fn latest_timestamp(&self) -> u64 {
        self.records.last().map_or(0, |r| r.timestamp)
    }

    /// The snapshot timestamp a job arriving at `ts` binds to: the newest
    /// snapshot whose timestamp does not exceed `ts` (0 = the base).  Two
    /// jobs with equal bind timestamps observe identical partition
    /// versions everywhere — the key the serving layer batches waves by.
    pub fn snapshot_at(&self, ts: u64) -> u64 {
        // Records are strictly ascending by timestamp (`apply` enforces
        // it), so the bind point is a partition point.
        let idx = self.records.partition_point(|r| r.timestamp <= ts);
        idx.checked_sub(1).map_or(0, |i| self.records[i].timestamp)
    }

    /// Whether `record` is the newest state the store holds (the regime
    /// the current-state index answers in O(1)).
    fn is_latest(&self, record: Option<usize>) -> bool {
        match record {
            Some(i) => i + 1 == self.records.len(),
            None => self.records.is_empty(),
        }
    }

    /// Resolves one vertex-level attribute at `record`: the latest
    /// snapshot answers from the current-state index; a historical one
    /// walks its chain backwards until a record's delta names the key
    /// (`from_delta`) or carries a checkpoint (`from_cp`); `base` is the
    /// pre-snapshot fallback.  All five resolvers share this skeleton so
    /// a walk-semantics change lands everywhere at once.
    fn vertex_at<'a, T: 'a>(
        &'a self,
        record: Option<usize>,
        from_current: impl Fn(&'a CurrentIndex) -> Option<T>,
        from_delta: impl Fn(&'a SnapshotRecord) -> Option<T>,
        from_cp: impl Fn(&'a VertexCheckpoint) -> Option<T>,
        base: impl Fn() -> T,
    ) -> T {
        if self.is_latest(record) {
            return from_current(&self.current).unwrap_or_else(base);
        }
        let Some(mut i) = record else {
            return base();
        };
        loop {
            let r = &self.records[i];
            if let Some(x) = from_delta(r) {
                return x;
            }
            if let Some(cp) = &r.checkpoint {
                return from_cp(cp).unwrap_or_else(base);
            }
            if i == 0 {
                return base();
            }
            i -= 1;
        }
    }

    /// Partition-level sibling of [`Self::vertex_at`]: walks the owning
    /// shard's chain from this snapshot's head.
    fn shard_at<'a, T: 'a>(
        &'a self,
        record: Option<usize>,
        pid: PartitionId,
        from_current: impl Fn(&'a CurrentIndex) -> Option<T>,
        from_rec: impl Fn(&'a ShardRecord) -> Option<T>,
        from_cp: impl Fn(&'a ShardCheckpoint) -> Option<T>,
        base: impl Fn() -> T,
    ) -> T {
        if self.is_latest(record) {
            return from_current(&self.current).unwrap_or_else(base);
        }
        let Some(ri) = record else {
            return base();
        };
        let s = self.shard_of(pid);
        let shard = &self.shards[s];
        let mut h = self.records[ri].shard_heads[s];
        while h > 0 {
            let r = &shard.records[h - 1];
            if let Some(x) = from_rec(r) {
                return x;
            }
            if let Some(cp) = &r.checkpoint {
                return from_cp(cp).unwrap_or_else(base);
            }
            h -= 1;
        }
        base()
    }

    /// Like [`Self::shard_at`] but specialized for the payloads
    /// themselves: an override supplied by a spilled or lazily-recovered
    /// record rehydrates from the shard segment on first touch
    /// (read-through; the latest view and in-memory stores never do
    /// I/O here).
    fn partition_at(&self, record: Option<usize>, pid: PartitionId) -> &Arc<Partition> {
        if self.is_latest(record) {
            return self
                .current
                .parts
                .get(&pid)
                .unwrap_or_else(|| self.base.partition(pid));
        }
        let Some(ri) = record else {
            return self.base.partition(pid);
        };
        let s = self.shard_of(pid);
        let shard = &self.shards[s];
        let mut h = self.records[ri].shard_heads[s];
        while h > 0 {
            let r = &shard.records[h - 1];
            if let Some(cell) = r.overrides.get(&pid) {
                return cell.load(self.wal.as_ref());
            }
            if let Some(cp) = &r.checkpoint {
                return match cp.overrides.get(&pid) {
                    Some(cell) => cell.load(self.wal.as_ref()),
                    None => self.base.partition(pid),
                };
            }
            h -= 1;
        }
        self.base.partition(pid)
    }

    fn version_at(&self, record: Option<usize>, pid: PartitionId) -> VersionId {
        self.shard_at(
            record,
            pid,
            |c| c.versions.get(&pid).copied(),
            |r| r.versions.get(&pid).copied(),
            |cp| cp.versions.get(&pid).copied(),
            || 0,
        )
    }

    fn master_at(&self, record: Option<usize>, v: VertexId) -> PartitionId {
        self.vertex_at(
            record,
            |c| c.master.get(&v).copied(),
            |r| r.master_delta.get(&v).copied(),
            |cp| cp.master.get(&v).copied(),
            || self.base.master_of(v),
        )
    }

    fn replicas_at(&self, record: Option<usize>, v: VertexId) -> &[PartitionId] {
        self.vertex_at(
            record,
            |c| c.replicas.get(&v).map(|r| r.as_slice()),
            |r| r.replica_delta.get(&v).map(|r| r.as_slice()),
            |cp| cp.replicas.get(&v).map(|r| r.as_slice()),
            || self.base.replicas_of(v),
        )
    }

    fn degree_at(&self, record: Option<usize>, v: VertexId) -> (u32, u32) {
        self.vertex_at(
            record,
            |c| c.degree.get(&v).copied(),
            |r| r.degree_delta.get(&v).copied(),
            |cp| cp.degree.get(&v).copied(),
            || self.base_degree(v),
        )
    }

    /// Whole-graph degrees from the base partition metadata (any replica
    /// carries them).
    fn base_degree(&self, v: VertexId) -> (u32, u32) {
        match self.base.replicas_of(v).first() {
            Some(&pid) => {
                let p = self.base.partition(pid);
                let l = p.local_of(v).expect("replica listed");
                let m = p.meta()[l as usize];
                (m.global_out_degree, m.global_in_degree)
            }
            None => (0, 0),
        }
    }

    /// Applies a delta, creating a new snapshot at `timestamp`.
    ///
    /// Cost is O(|delta| + rebuilt partition edges) regardless of how
    /// long the chain already is: only the touched entries are written
    /// (to the new layered record and the current-state index), never
    /// the accumulated override state — except on the applies where the
    /// [`CompactionPolicy`] schedules a checkpoint, which clone the
    /// accumulated overrides (amortized O(state/k)).
    ///
    /// On a durable store the new record's frames are appended and
    /// fsync'd before the in-memory state mutates, so an I/O error
    /// leaves the store consistent (the log then holds a committed
    /// prefix; see the [`crate::wal`] module docs).
    ///
    /// Returns the number of partitions that were re-versioned.
    pub fn apply(&mut self, timestamp: u64, delta: &GraphDelta) -> Result<usize, StoreError> {
        self.faults
            .notify(StoreFaultBoundary::ApplyRebuild, None, timestamp);
        let apply_t0 = self.observer.get().map(|_| Instant::now());
        if let Some(w) = &self.wal {
            w.check()?;
        }
        let prev_ts = self.latest_timestamp();
        if timestamp <= prev_ts {
            return Err(SnapshotError::NonMonotonicTimestamp {
                previous: prev_ts,
                given: timestamp,
            }
            .into());
        }
        let n = self.base.num_vertices();
        let np = self.base.num_partitions();

        // Resolve helpers against the current (latest) state: one probe
        // each via the current-state index.
        let resolve = |pid: PartitionId| -> &Arc<Partition> {
            self.current
                .parts
                .get(&pid)
                .unwrap_or_else(|| self.base.partition(pid))
        };
        let replicas = |v: VertexId| -> &[PartitionId] {
            self.current
                .replicas
                .get(&v)
                .map(|r| r.as_slice())
                .unwrap_or_else(|| self.base.replicas_of(v))
        };
        let master = |v: VertexId| -> PartitionId {
            self.current
                .master
                .get(&v)
                .copied()
                .unwrap_or_else(|| self.base.master_of(v))
        };
        let degree = |v: VertexId| -> (u32, u32) {
            self.current
                .degree
                .get(&v)
                .copied()
                .unwrap_or_else(|| self.base_degree(v))
        };

        // 1. Locate removals and place additions.  Removals sharing a
        //    source resolve against the same pre-delta adjacency, so each
        //    replica's out-neighbor set is materialized at most once per
        //    source — lazily, in replica order, stopping at the first
        //    partition holding the edge (as the old scan did).
        let mut removed: HashMap<PartitionId, Vec<(VertexId, VertexId)>> = HashMap::new();
        let mut out_cache: HashMap<VertexId, Vec<HashSet<VertexId>>> = HashMap::new();
        for &(s, d) in &delta.removals {
            if s >= n || d >= n {
                return Err(SnapshotError::VertexOutOfRange(s.max(d)).into());
            }
            let reps = replicas(s);
            let adj = out_cache.entry(s).or_default();
            let mut found = None;
            for (i, &pid) in reps.iter().enumerate() {
                if i == adj.len() {
                    let p = resolve(pid);
                    adj.push(
                        p.local_of(s)
                            .map(|li| p.out_edges(li).map(|(t, _)| p.global_of(t)).collect())
                            .unwrap_or_default(),
                    );
                }
                if adj[i].contains(&d) {
                    found = Some(pid);
                    break;
                }
            }
            let pid = found.ok_or(SnapshotError::EdgeNotFound(s, d))?;
            removed.entry(pid).or_default().push((s, d));
        }
        // The fallback partition (for additions whose endpoints are both
        // unplaced) costs an O(np) scan, so resolve it lazily.
        let mut fallback_pid: Option<PartitionId> = None;
        let mut added: HashMap<PartitionId, Vec<Edge>> = HashMap::new();
        for &e in &delta.additions {
            if e.src >= n || e.dst >= n {
                return Err(SnapshotError::VertexOutOfRange(e.src.max(e.dst)).into());
            }
            let pid = match (master(e.src), master(e.dst)) {
                (m, _) if m != NO_PARTITION => m,
                (_, m) if m != NO_PARTITION => m,
                _ => *fallback_pid.get_or_insert_with(|| {
                    (0..np as PartitionId)
                        .min_by_key(|&pid| resolve(pid).num_edges())
                        .unwrap_or(0)
                }),
            };
            added.entry(pid).or_default().push(e);
        }

        // 2. Degree deltas and the affected partition set.
        let mut ddeg: HashMap<VertexId, (i64, i64)> = HashMap::new();
        for e in &delta.additions {
            ddeg.entry(e.src).or_default().0 += 1;
            ddeg.entry(e.dst).or_default().1 += 1;
        }
        for &(s, d) in &delta.removals {
            ddeg.entry(s).or_default().0 -= 1;
            ddeg.entry(d).or_default().1 -= 1;
        }
        // Only partitions whose *edge set* changed are re-versioned; degree
        // and master-location changes live in the snapshot's override maps
        // (job-specific lookups), so unchanged partitions keep their cache
        // identity — the sharing the paper's Fig. 16 regime depends on.
        let mut affected: Vec<PartitionId> = removed.keys().chain(added.keys()).copied().collect();
        affected.sort_unstable();
        affected.dedup();

        // 3. New degrees for every touched vertex.
        let new_degree = |v: VertexId| -> (u32, u32) {
            let (o, i) = degree(v);
            match ddeg.get(&v) {
                Some(&(dout, din)) => (
                    (o as i64 + dout).max(0) as u32,
                    (i as i64 + din).max(0) as u32,
                ),
                None => (o, i),
            }
        };

        // 4. Rebuild each affected partition's edge share.  A rebuild is
        //    a pure, lock-free function of the pre-delta state, so the
        //    calling thread and `width − 1` scoped helpers claim
        //    partitions from one shared queue (`fan_out`).  The
        //    vertex-level merge afterwards stays single-threaded and
        //    ordered, so the result is bit-identical at any width.
        let rebuild_one = |pid: PartitionId| -> Result<Partition, SnapshotError> {
            let mut edges = resolve(pid).edges_global();
            if let Some(rm) = removed.get(&pid) {
                // Remove the first k matching instances of each pair in
                // one pass instead of an O(edges) scan per removal.
                let mut counts: HashMap<(VertexId, VertexId), usize> = HashMap::new();
                for &(s, d) in rm {
                    *counts.entry((s, d)).or_default() += 1;
                }
                edges.retain(|e| match counts.get_mut(&(e.src, e.dst)) {
                    Some(c) if *c > 0 => {
                        *c -= 1;
                        false
                    }
                    _ => true,
                });
                for &(s, d) in rm {
                    if counts.get(&(s, d)).is_some_and(|&c| c > 0) {
                        return Err(SnapshotError::EdgeNotFound(s, d));
                    }
                }
            }
            if let Some(ad) = added.get(&pid) {
                edges.extend_from_slice(ad);
            }
            edges.sort_by_key(|e| (e.src, e.dst));
            Ok(Partition::from_edges_with(pid, &edges, &new_degree))
        };
        let rebuild_edges: usize = affected
            .iter()
            .map(|&pid| resolve(pid).num_edges())
            .sum::<usize>()
            + delta.additions.len();
        let width = apply_width(host_cpus(), affected.len(), rebuild_edges);
        // Unit tests force the width to cover every fan-out on any host.
        #[cfg(test)]
        let width = tests::FORCED_WIDTH.with(|w| w.get()).unwrap_or(width);
        // A panicked rebuild must not abort the whole store: it surfaces
        // as a typed error and the partial result is refused (no state
        // has been installed).  Results come back in `affected`'s pid
        // order, so the first error is the smallest affected pid's,
        // whichever thread hit it; a panic outranks it.
        let mut rebuilt: Vec<(PartitionId, Partition)> =
            fan_out(width, affected.iter().copied(), |pid| {
                rebuild_one(pid).map(|p| (pid, p))
            })
            .ok_or(StoreError::WorkerPanic("apply partition rebuild"))?
            .into_iter()
            .collect::<Result<_, _>>()?;

        // 5. Recompute replica membership and masters for the touched
        //    vertices only — the layered record stores exactly these.
        let mut master_delta: HashMap<VertexId, PartitionId> = HashMap::new();
        let mut replica_delta: HashMap<VertexId, Vec<PartitionId>> = HashMap::new();
        let mut degree_delta: HashMap<VertexId, (u32, u32)> = HashMap::new();
        for &v in ddeg.keys() {
            let mut reps: Vec<PartitionId> = replicas(v)
                .iter()
                .copied()
                .filter(|p| affected.binary_search(p).is_err())
                .collect();
            for (pid, p) in &rebuilt {
                if p.local_of(v).is_some() {
                    reps.push(*pid);
                }
            }
            reps.sort_unstable();
            let old_master = master(v);
            let new_master = if reps.contains(&old_master) {
                old_master
            } else {
                reps.first().copied().unwrap_or(NO_PARTITION)
            };
            replica_delta.insert(v, reps);
            master_delta.insert(v, new_master);
            degree_delta.insert(v, new_degree(v));
        }

        // 6. Patch master metadata and group rebuilt partitions by the
        //    shard that owns them.  Patching is per-partition local, so
        //    the rebuilt partitions fan out at the same width; the
        //    result is independent of which thread patched which.
        let master_lookup = |v: VertexId| -> PartitionId {
            master_delta.get(&v).copied().unwrap_or_else(|| master(v))
        };
        fan_out(width, rebuilt.iter_mut(), |(_, p)| {
            p.patch_masters(&master_lookup)
        })
        .ok_or(StoreError::WorkerPanic("apply master patch"))?;

        // 7. Stage one *layered* record per affected shard (only this
        //    delta's partitions; untouched shards keep their head).  On
        //    a durable store the shard frames and then the store-level
        //    commit frame are appended BEFORE any in-memory mutation,
        //    so an I/O error refuses the apply with the store
        //    unchanged; shards are staged in ascending id, each with
        //    its partitions in `rebuilt`'s pid order, for a
        //    deterministic frame order.
        let mut by_shard: BTreeMap<usize, StagedArcs> = BTreeMap::new();
        for (pid, p) in rebuilt {
            let ver = self.current.versions.get(&pid).copied().unwrap_or(0) + 1;
            by_shard
                .entry(self.shard_of(pid))
                .or_default()
                .push((pid, Arc::new(p), ver));
        }
        let mut shard_heads: Vec<usize> = self
            .records
            .last()
            .map(|r| r.shard_heads.clone())
            .unwrap_or_else(|| vec![0; self.shards.len()]);
        let mut staged: Vec<(usize, ShardRecord, StagedArcs)> = Vec::with_capacity(by_shard.len());
        for (s, arcs) in by_shard {
            let (overrides, versions) = self.stage_payloads(s, wal::K_SHARD_REC, None, &arcs)?;
            let rec = ShardRecord { overrides, versions, ..ShardRecord::default() };
            shard_heads[s] = self.shards[s].records.len() + 1;
            staged.push((s, rec, arcs));
        }
        let vrec = SnapshotRecord {
            timestamp,
            shard_heads,
            master_delta,
            replica_delta,
            degree_delta,
            removals: delta.removals.len() as u64,
            checkpoint: None,
        };
        // The store-level commit frame: once this is appended, recovery
        // will keep the shard records it points at.
        if let Some(w) = &mut self.wal {
            w.append_store(&encode_apply_frame(&vrec))?;
        }

        // 8. Commit: from here on, pure in-memory mutation — push the
        //    shard records, fold every delta into the current index,
        //    and push the snapshot's layered record.
        let touched: Vec<(usize, usize)> = if self.observer.get().is_some() {
            staged
                .iter()
                .map(|(s, rec, _)| (*s, rec.overrides.len()))
                .collect()
        } else {
            Vec::new()
        };
        for (s, rec, arcs) in staged {
            Arc::make_mut(&mut self.shards[s]).records.push(rec);
            for (pid, part, ver) in arcs {
                self.current.versions.insert(pid, ver);
                self.current.parts.insert(pid, part);
            }
        }
        for (&v, &m) in &vrec.master_delta {
            self.current.master.insert(v, m);
        }
        for (&v, reps) in &vrec.replica_delta {
            self.current.replicas.insert(v, reps.clone());
        }
        for (&v, &d) in &vrec.degree_delta {
            self.current.degree.insert(v, d);
        }
        self.records.push(vrec);

        if self.compaction.due(self.records.len()) {
            self.compact()?;
        }
        self.enforce_capacity()?;
        if let Some(w) = &mut self.wal {
            w.sync_dirty()?;
        }
        if let Some(obs) = self.observer.get() {
            let micros = apply_t0.map_or(0, |t| t.elapsed().as_micros() as u64);
            for &(s, parts) in &touched {
                obs.apply_rebuild(s, timestamp, parts, micros);
                obs.footprint(s, self.shard_resident_bytes(s), self.spilled_bytes[s]);
            }
        }
        Ok(affected.len())
    }

    /// Enforces the per-shard capacity budget: while a shard's resident
    /// chain bytes exceed [`ShardCapacity::max_resident_bytes`], the
    /// coldest (oldest) record strictly below the shard's newest
    /// checkpoint — old deltas and superseded checkpoints alike — has
    /// its payloads spilled, skipping records the permanently resident
    /// tail still wholly shares (spilling those would free nothing,
    /// yet price every read through them).  When nothing is evictable
    /// but the shard is still over budget, one store-wide
    /// [`compact`](Self::compact) materializes fresh checkpoints to
    /// push the eviction horizon to the chain head — and, because that
    /// stamp adds resident bytes to *every* shard, the whole
    /// enforcement pass reruns once.  If the resident tail itself (the
    /// newest checkpoint record and everything after it — the state
    /// every future walk must reach) exceeds the budget, enforcement
    /// stops there.  Spilled data stays materializable (read-through),
    /// so this is purely a cost model — views observe nothing.
    ///
    /// Residency is re-scanned per eviction (distinct-`Arc` accounting
    /// does not subtract incrementally), so a capacity-limited apply
    /// pays O(chain) per spilled record on top of O(Δ).  Checkpoint
    /// cadence bounds the chain, and unlimited capacity (the default)
    /// pays nothing; an incrementally maintained per-shard counter is
    /// the known follow-up if long capped chains ever matter.
    fn enforce_capacity(&mut self) -> Result<(), StoreError> {
        if !self.capacity.is_limited() {
            return Ok(());
        }
        let cap = self.capacity.max_resident_bytes;
        let mut compacted = false;
        // A compact triggered mid-pass grows every shard's resident
        // head, including shards already enforced — one rerun settles
        // them (compact happens at most once per enforcement).
        for _pass in 0..2 {
            let compacted_before = compacted;
            for s in 0..self.shards.len() {
                self.enforce_shard(s, cap, &mut compacted)?;
            }
            if compacted == compacted_before {
                break;
            }
        }
        Ok(())
    }

    /// One shard's spill loop (see [`enforce_capacity`](Self::enforce_capacity)).
    ///
    /// On a durable store a spill is *real*: the event is logged to the
    /// store segment and the record's resident payload copies are
    /// dropped, so any later read through the record rehydrates from
    /// the shard segment (real disk time, where the cost model only
    /// prices it).  In-memory stores keep the payloads — spill stays
    /// the pure cost model it was.
    fn enforce_shard(
        &mut self,
        s: usize,
        cap: u64,
        compacted: &mut bool,
    ) -> Result<(), StoreError> {
        loop {
            if self.shard_resident_bytes(s) <= cap {
                return Ok(());
            }
            match Self::first_evictable(&self.shards[s]) {
                Some(i) => {
                    if let Some(w) = &mut self.wal {
                        w.append_store(&encode_spill_frame(s as u32, i as u64))?;
                    }
                    // Distinct resident payload bytes this spill frees,
                    // measured before the drop (the `Arc`s are gone
                    // after).
                    let freed: u64 = {
                        let rec = &self.shards[s].records[i];
                        let mut seen: HashSet<*const Partition> = HashSet::new();
                        rec.cells()
                            .filter_map(PayloadCell::get)
                            .filter(|p| seen.insert(Arc::as_ptr(p)))
                            .map(|p| p.structure_bytes())
                            .sum()
                    };
                    let rec = &mut Arc::make_mut(&mut self.shards[s]).records[i];
                    rec.spilled = true;
                    if self.wal.is_some() {
                        for c in rec.overrides.values_mut() {
                            c.drop_resident();
                        }
                        if let Some(cp) = &mut rec.checkpoint {
                            for c in cp.overrides.values_mut() {
                                c.drop_resident();
                            }
                        }
                    }
                    self.spilled_records += 1;
                    self.spilled_bytes[s] += freed;
                    if let Some(obs) = self.observer.get() {
                        obs.spill(s, freed);
                    }
                }
                None if !*compacted => {
                    // No pre-checkpoint record left to spill: stamp
                    // checkpoints at the heads so everything older
                    // becomes evictable, then retry.
                    self.compact()?;
                    *compacted = true;
                }
                None => return Ok(()),
            }
        }
    }

    /// The oldest record of `shard` still worth spilling: strictly
    /// below the newest checkpoint, not yet spilled, and holding at
    /// least one payload `Arc` the permanently resident tail (the
    /// newest checkpoint record and everything after it) does not also
    /// hold — spilling a record the tail wholly shares frees nothing
    /// yet would price every read through it.
    ///
    /// The spill unit is the whole record, so a record mixing unique
    /// and tail-shared payloads spills wholesale: reads of its shared
    /// payloads are then priced even though those bytes stay resident
    /// via the tail — a deliberate cost-model approximation (the node
    /// dropped the record; serving from the checkpoint copy instead is
    /// the per-payload refinement this leaves as follow-up).
    fn first_evictable(shard: &SnapshotShard) -> Option<usize> {
        // Only materialized payloads matter on both sides: a lazy
        // (recovered, never-read) payload holds no RAM, so it neither
        // anchors anything nor makes its record worth spilling.
        let horizon = shard.newest_checkpoint()?;
        let anchored: HashSet<*const Partition> = shard.records[horizon..]
            .iter()
            .flat_map(ShardRecord::cells)
            .filter_map(PayloadCell::get)
            .map(Arc::as_ptr)
            .collect();
        shard.records[..horizon].iter().position(|r| {
            !r.spilled
                && r.cells()
                    .filter_map(PayloadCell::get)
                    .any(|p| !anchored.contains(&Arc::as_ptr(p)))
        })
    }

    /// Whether capacity enforcement could still spill anything from
    /// shard `s` (tests use this to distinguish "over budget with work
    /// left" from the legitimate refusal floor).
    pub fn shard_has_evictable(&self, s: usize) -> bool {
        Self::first_evictable(&self.shards[s]).is_some()
    }

    /// Resident bytes of one shard's chain: every non-spilled record's
    /// map entries and distinct override partition structures, plus all
    /// checkpoint payloads (checkpoints always stay resident — they
    /// terminate walks).  Spilled records keep only their key entries
    /// resident.  The store-global vertex records and current-state
    /// index are not attributed to any shard.
    pub fn shard_resident_bytes(&self, shard: usize) -> u64 {
        const ENTRY: u64 = 16;
        let mut seen: HashSet<*const Partition> = HashSet::new();
        let mut bytes = 0u64;
        let mut count = |o: &HashMap<PartitionId, PayloadCell>,
                         v: &HashMap<PartitionId, VersionId>| {
            let mut b = ENTRY * (o.len() + v.len()) as u64;
            // Only materialized payloads occupy RAM: a lazy recovered
            // cell costs its key entry and nothing more.
            for p in o.values().filter_map(PayloadCell::get) {
                if seen.insert(Arc::as_ptr(p)) {
                    b += p.structure_bytes();
                }
            }
            b
        };
        for rec in &self.shards[shard].records {
            if rec.spilled {
                // Spilled payloads — overrides and checkpoint alike —
                // live in (modeled) spill storage; only key entries
                // stay resident.
                bytes += ENTRY * (rec.overrides.len() + rec.versions.len()) as u64;
                if let Some(cp) = &rec.checkpoint {
                    bytes += ENTRY * (cp.overrides.len() + cp.versions.len()) as u64;
                }
            } else {
                bytes += count(&rec.overrides, &rec.versions);
                if let Some(cp) = &rec.checkpoint {
                    bytes += count(&cp.overrides, &cp.versions);
                }
            }
        }
        bytes
    }

    /// Whether resolving partition `pid` at `record` reads a spilled
    /// record's payload — the spill signal engines price as a disk
    /// re-fetch on the owning shard's lane.  The latest view always
    /// answers from the (resident) current-state index.
    fn spilled_at(&self, record: Option<usize>, pid: PartitionId) -> bool {
        if self.spilled_records == 0 || self.is_latest(record) {
            return false;
        }
        let Some(ri) = record else {
            return false;
        };
        let s = self.shard_of(pid);
        let shard = &self.shards[s];
        let mut h = self.records[ri].shard_heads[s];
        while h > 0 {
            let r = &shard.records[h - 1];
            // Same walk order as `shard_at`: the record's own delta
            // first, then its checkpoint — whichever supplies the
            // partition decides whether the read came from spill
            // storage.
            if r.overrides.contains_key(&pid) {
                return r.spilled;
            }
            if let Some(cp) = &r.checkpoint {
                // A checkpoint terminates the walk; it supplied the
                // partition only if it actually names it (otherwise the
                // resolution falls through to the always-resident base).
                return r.spilled && cp.overrides.contains_key(&pid);
            }
            h -= 1;
        }
        false
    }

    /// Materializes a checkpoint at the newest record of the store and of
    /// every shard chain, capping subsequent historical walks there.
    /// Purely representational: no view observes any difference.  Called
    /// automatically every K deltas under [`CompactionPolicy::EveryK`];
    /// safe (and idempotent) to call manually at any time.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let compact_t0 = self.observer.get().map(|_| Instant::now());
        let mut walked: u64 = 0;
        let Some(last_idx) = self.records.len().checked_sub(1) else {
            return Ok(());
        };
        if self.records[last_idx].checkpoint.is_none() {
            let cp = VertexCheckpoint {
                master: self.current.master.clone(),
                replicas: self.current.replicas.clone(),
                degree: self.current.degree.clone(),
            };
            if let Some(w) = &mut self.wal {
                w.append_store(&encode_vertex_cp_frame(last_idx as u64, &cp))?;
            }
            self.records[last_idx].checkpoint = Some(cp);
        }
        // The cumulative partition state, grouped by owning shard
        // (sorted by pid so durable frames are deterministic).
        let mut per_shard: Vec<StagedArcs> = vec![Vec::new(); self.shards.len()];
        for (&pid, part) in &self.current.parts {
            let ver = self.current.versions.get(&pid).copied().unwrap_or(0);
            per_shard[self.shard_of(pid)].push((pid, Arc::clone(part), ver));
        }
        for (s, mut arcs) in per_shard.into_iter().enumerate() {
            // A shard's cumulative state only changes when a record is
            // appended to it, so its newest record always equals the
            // current state — stamping there is exact.
            let needs = self.shards[s]
                .records
                .last()
                .is_some_and(|r| r.checkpoint.is_none());
            if !needs {
                continue;
            }
            walked += arcs.len() as u64;
            arcs.sort_unstable_by_key(|&(pid, _, _)| pid);
            let rec_idx = (self.shards[s].records.len() - 1) as u64;
            let (overrides, versions) =
                self.stage_payloads(s, wal::K_SHARD_CP, Some(rec_idx), &arcs)?;
            let shard = Arc::make_mut(&mut self.shards[s]);
            shard
                .records
                .last_mut()
                .expect("needs implies a record")
                .checkpoint = Some(ShardCheckpoint { overrides, versions });
        }
        if let (Some(obs), Some(t0)) = (self.observer.get(), compact_t0) {
            obs.checkpoint_walk(walked, t0.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// The payload cells and version map of one shard record or
    /// checkpoint holding `arcs` (pid-ordered).  On a durable store this
    /// first appends their `kind` frame to shard `s`'s segment, so each
    /// cell also knows where its bytes live.
    fn stage_payloads(
        &mut self,
        s: usize,
        kind: u8,
        rec_idx: Option<u64>,
        arcs: &[(PartitionId, Arc<Partition>, VersionId)],
    ) -> Result<PayloadMaps, StoreError> {
        let versions: HashMap<PartitionId, VersionId> =
            arcs.iter().map(|&(pid, _, ver)| (pid, ver)).collect();
        let disk: Vec<Option<PayloadLoc>> = match &mut self.wal {
            Some(w) => {
                let (payload, spans) = encode_shard_frame(kind, rec_idx, &versions, arcs);
                let base = w.append_shard(s, &payload)?;
                let shard = s as u32;
                spans
                    .into_iter()
                    .map(|(rel, len)| Some(PayloadLoc { shard, offset: base + rel as u64, len }))
                    .collect()
            }
            None => vec![None; arcs.len()],
        };
        let overrides = arcs
            .iter()
            .zip(disk)
            .map(|((pid, part, _), loc)| (*pid, PayloadCell::resident(Arc::clone(part), loc)))
            .collect();
        Ok((overrides, versions))
    }

    /// Approximate resident bytes held by the delta chains beyond the
    /// base graph: record and checkpoint map entries, replica lists, the
    /// current-state index, and each *distinct* overridden partition's
    /// structure (counted once however many records reference it).
    pub fn override_bytes(&self) -> u64 {
        // Rough per-entry cost of a small-key/small-value hash map slot.
        const ENTRY: u64 = 16;
        fn vec_bytes(v: &[PartitionId]) -> u64 {
            24 + 4 * v.len() as u64
        }
        fn vertex_maps(
            m: &HashMap<VertexId, PartitionId>,
            r: &HashMap<VertexId, Vec<PartitionId>>,
            d: &HashMap<VertexId, (u32, u32)>,
        ) -> u64 {
            ENTRY * (m.len() + r.len() + d.len()) as u64
                + r.values().map(|v| vec_bytes(v)).sum::<u64>()
        }
        let mut seen: HashSet<*const Partition> = HashSet::new();
        let mut part_maps = |o: &HashMap<PartitionId, PayloadCell>,
                             v: &HashMap<PartitionId, VersionId>| {
            let mut b = ENTRY * (o.len() + v.len()) as u64;
            for p in o.values().filter_map(PayloadCell::get) {
                if seen.insert(Arc::as_ptr(p)) {
                    b += p.structure_bytes();
                }
            }
            b
        };
        let mut bytes = 0u64;
        for rec in &self.records {
            bytes += vertex_maps(&rec.master_delta, &rec.replica_delta, &rec.degree_delta);
            bytes += 8 * rec.shard_heads.len() as u64;
            if let Some(cp) = &rec.checkpoint {
                bytes += vertex_maps(&cp.master, &cp.replicas, &cp.degree);
            }
        }
        for shard in &self.shards {
            for rec in &shard.records {
                if rec.spilled {
                    // Spilled payloads — overrides and checkpoint alike
                    // — live in (modeled) spill storage; only the key
                    // entries stay resident.
                    bytes += ENTRY * (rec.overrides.len() + rec.versions.len()) as u64;
                    if let Some(cp) = &rec.checkpoint {
                        bytes += ENTRY * (cp.overrides.len() + cp.versions.len()) as u64;
                    }
                } else {
                    bytes += part_maps(&rec.overrides, &rec.versions);
                    if let Some(cp) = &rec.checkpoint {
                        bytes += part_maps(&cp.overrides, &cp.versions);
                    }
                }
            }
        }
        bytes += vertex_maps(
            &self.current.master,
            &self.current.replicas,
            &self.current.degree,
        );
        // The current index holds plain `Arc`s (always resident).
        bytes += ENTRY * (self.current.parts.len() + self.current.versions.len()) as u64;
        for p in self.current.parts.values() {
            if seen.insert(Arc::as_ptr(p)) {
                bytes += p.structure_bytes();
            }
        }
        bytes
    }

    // ---- durability -------------------------------------------------

    /// Whether this store has an open durability layer.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The directory the store's segments live in, when durable.
    pub fn wal_dir(&self) -> Option<&Path> {
        self.wal.as_ref().map(|w| w.dir())
    }

    /// Attaches a durability layer: creates `dir` (manifest, base
    /// segment, and empty store/shard segments, all fsync'd) and
    /// returns the store with every subsequent [`apply`](Self::apply) /
    /// [`compact`](Self::compact) / spill logged through it.
    ///
    /// # Panics
    ///
    /// Panics if any snapshot was already applied: the log must hold
    /// the *whole* delta history, so durability attaches at the base.
    pub fn persist_to(mut self, dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        assert!(
            self.records.is_empty(),
            "persist_to must be called before any delta is applied"
        );
        let manifest = encode_manifest_frame(&self);
        let base_frames = encode_base_frames(&self.base);
        let mut wal = StoreWal::create(dir.as_ref(), self.shards.len(), &manifest, &base_frames)?;
        if let Some(obs) = self.observer.clone_arc() {
            wal.set_observer(obs);
        }
        self.wal = Some(wal);
        Ok(self)
    }

    /// Drops this store and re-opens it from its own directory — the
    /// in-process equivalent of a crash-restart, used by the
    /// kill-and-recover suites.
    pub fn recover(self) -> Result<Self, StoreError> {
        let Some(w) = &self.wal else {
            return Err(StoreError::Io(std::io::Error::other(
                "recover() requires a durable store (persist_to/open)",
            )));
        };
        let dir = w.dir().to_path_buf();
        drop(self);
        Self::open(dir)
    }

    /// Re-opens a durable store from `dir` by replaying its segments.
    ///
    /// Recovery rebuilds everything — the vertex and shard delta
    /// chains, checkpoints, spill flags, and the incremental
    /// `CurrentIndex` — from the logs, truncating any torn tail or
    /// uncommitted suffix (shard frames whose store-level commit frame
    /// never hit the disk) so the result is exactly the newest
    /// committed prefix.  Mid-log corruption is refused with a typed
    /// [`StoreError`]; nothing panics on bad bytes.
    ///
    /// To make recovery O(post-checkpoint) rather than O(chain),
    /// partition payloads strictly below a shard's newest checkpoint
    /// stay *lazy* — their frame boundaries are header-verified and
    /// their offsets recorded, but their payloads are neither
    /// checksummed nor decoded at open: like spilled records, they
    /// read through (and re-verify) only if a historical walk actually
    /// reaches them.  The commit log (`store.seg`), manifest, and base
    /// are always fully verified.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let replay_t0 = Instant::now();
        let dir = dir.as_ref();
        // Manifest and base are write-once at persist time; a torn one
        // means the store never durably existed.
        let m = scan_segment(&wal::manifest_path(dir), SegmentId::Manifest)?;
        if m.torn || m.frames.is_empty() {
            return Err(StoreError::Truncated { segment: SegmentId::Manifest, len: m.clean_len });
        }
        let manifest = decode_manifest_frame(&m.frames[0])?;
        let b = scan_segment(&wal::base_path(dir), SegmentId::Base)?;
        if b.torn {
            return Err(StoreError::Truncated { segment: SegmentId::Base, len: b.clean_len });
        }
        let base = decode_base_frames(&b.frames, &manifest)?;

        // Appendable segments: scan (tolerating torn tails), parse
        // frames into events, then reconcile the two levels into the
        // newest committed prefix.  The store segment (commit log) is
        // fully read and verified; shard segments stream header + frame
        // metadata only, leaving partition payload bytes on disk until
        // — unless — a frame decodes eagerly below, so recovery I/O
        // tracks the post-checkpoint tail, not the chain.
        let store_scan = scan_segment(&wal::store_path(dir), SegmentId::Store)?;
        let mut shard_cursors: Vec<FrameCursor> = Vec::with_capacity(manifest.shards);
        let mut shard_frames: Vec<Vec<FrameHead>> = Vec::with_capacity(manifest.shards);
        let mut shard_events: Vec<Vec<ShardEvent>> = Vec::with_capacity(manifest.shards);
        for s in 0..manifest.shards {
            let seg = SegmentId::Shard(s as u32);
            let (events, heads, cursor) = scan_shard_frames(&wal::shard_path(dir, s), seg)?;
            shard_events.push(events);
            shard_frames.push(heads);
            shard_cursors.push(cursor);
        }
        let store_events: Vec<StoreEvent> = store_scan
            .frames
            .iter()
            .enumerate()
            .map(|(i, f)| parse_store_frame(i, f))
            .collect::<Result<_, _>>()?;

        // Store-level prefix cut: an event is kept only while it is
        // consistent with everything kept before it AND with the shard
        // records that actually survived.  The first inconsistent event
        // starts the discarded crash suffix.
        let avail: Vec<usize> = shard_events
            .iter()
            .map(|evs| evs.iter().filter(|e| e.cp_rec_idx.is_none()).count())
            .collect();
        let mut heads = vec![0usize; manifest.shards];
        let mut last_ts = 0u64;
        let mut kept_applies = 0usize;
        let mut store_cut = wal::SEG_HEADER_LEN;
        let mut spills: Vec<(u32, u64)> = Vec::new();
        let mut vertex_cps: Vec<(usize, usize)> = Vec::new();
        let mut records: Vec<SnapshotRecord> = Vec::new();
        for ev in store_events {
            match ev {
                StoreEvent::Apply(rec, end) => {
                    let consistent = rec.timestamp > last_ts
                        && rec.shard_heads.len() == manifest.shards
                        && rec
                            .shard_heads
                            .iter()
                            .zip(&heads)
                            .all(|(&new, &old)| new >= old)
                        && rec.shard_heads.iter().zip(&avail).all(|(&h, &a)| h <= a);
                    if !consistent {
                        break;
                    }
                    last_ts = rec.timestamp;
                    heads.copy_from_slice(&rec.shard_heads);
                    records.push(*rec);
                    kept_applies += 1;
                    store_cut = end;
                }
                StoreEvent::VertexCp { rec_idx, frame, end } => {
                    if kept_applies == 0 || rec_idx as usize != kept_applies - 1 {
                        break;
                    }
                    vertex_cps.push((rec_idx as usize, frame));
                    store_cut = end;
                }
                StoreEvent::Spill { shard, rec, end } => {
                    if shard as usize >= manifest.shards || rec >= heads[shard as usize] as u64 {
                        break;
                    }
                    spills.push((shard, rec));
                    store_cut = end;
                }
            }
        }

        // Shard-level prefix cut: keep records up to the heads the
        // committed applies reference, and checkpoints stamped on a
        // kept record's chain position; everything after the first
        // stray frame (an uncommitted apply's leftovers) is cut.
        let mut shard_cuts = vec![wal::SEG_HEADER_LEN; manifest.shards];
        let mut kept_shard_events: Vec<Vec<ShardEvent>> = Vec::with_capacity(manifest.shards);
        for (s, events) in shard_events.into_iter().enumerate() {
            let mut kept = Vec::with_capacity(events.len());
            let mut recs_seen = 0usize;
            for ev in events {
                match ev.cp_rec_idx {
                    None => {
                        if recs_seen >= heads[s] {
                            break;
                        }
                        recs_seen += 1;
                    }
                    Some(idx) => {
                        if recs_seen == 0 || idx as usize != recs_seen - 1 {
                            break;
                        }
                    }
                }
                shard_cuts[s] = ev.end;
                kept.push(ev);
            }
            kept_shard_events.push(kept);
        }

        // The cuts are final: truncate the crash suffix now and attach
        // the append/read handles (the eager decodes below read through
        // them).
        let wal = StoreWal::open_clean(dir.to_path_buf(), store_cut, &shard_cuts)?;

        // Rebuild the shard chains.  Records at or after a shard's
        // newest checkpoint (and that checkpoint itself) decode
        // eagerly, deduplicated by (pid, version) so the recovered tail
        // shares payload `Arc`s like the survivor did; everything older
        // stays lazy.
        let mut cache: HashMap<(PartitionId, VersionId), Arc<Partition>> = HashMap::new();
        let mut shards: Vec<Arc<SnapshotShard>> = Vec::with_capacity(manifest.shards);
        for (s, events) in kept_shard_events.iter().enumerate() {
            let seg = SegmentId::Shard(s as u32);
            let cursor = &mut shard_cursors[s];
            let heads = &shard_frames[s];
            let newest_cp: Option<usize> = events
                .iter()
                .rev()
                .find_map(|e| e.cp_rec_idx.map(|i| i as usize));
            let mut recs: Vec<ShardRecord> = Vec::new();
            for (fi, ev) in events.iter().enumerate() {
                let (slot_cp, eager) = match ev.cp_rec_idx {
                    None => {
                        let i = recs.len();
                        (None, newest_cp.is_none_or(|c| i >= c))
                    }
                    Some(idx) => (Some(idx as usize), newest_cp == Some(idx as usize)),
                };
                // An eager frame's payload is pulled off disk (and its
                // deferred CRC settled) exactly when its bytes are about
                // to become state; lazy frames stay unread.
                let payload: Option<Vec<u8>> = if eager {
                    Some(cursor.read_payload(&heads[fi])?)
                } else {
                    None
                };
                let mut overrides: HashMap<PartitionId, PayloadCell> =
                    HashMap::with_capacity(ev.parts.len());
                for &(pid, offset, len) in &ev.parts {
                    let loc = PayloadLoc { shard: s as u32, offset, len };
                    let cell = if let Some(buf) = &payload {
                        let ver = *ev.versions.get(&pid).ok_or(StoreError::Corruption {
                            segment: seg,
                            offset,
                            detail: "shard frame payload without a version entry",
                        })?;
                        let arc = match cache.get(&(pid, ver)) {
                            Some(a) => Arc::clone(a),
                            None => {
                                let rel = (offset - heads[fi].payload_offset) as usize;
                                let mut r =
                                    WireReader::new(&buf[rel..rel + len as usize], seg, offset);
                                let a = Arc::new(Partition::decode(&mut r)?);
                                cache.insert((pid, ver), Arc::clone(&a));
                                a
                            }
                        };
                        PayloadCell::resident(arc, Some(loc))
                    } else {
                        PayloadCell::lazy(loc)
                    };
                    overrides.insert(pid, cell);
                }
                match slot_cp {
                    None => recs.push(ShardRecord {
                        overrides,
                        versions: ev.versions.clone(),
                        checkpoint: None,
                        spilled: false,
                    }),
                    Some(idx) => {
                        recs[idx].checkpoint =
                            Some(ShardCheckpoint { overrides, versions: ev.versions.clone() });
                    }
                }
            }
            shards.push(Arc::new(SnapshotShard { records: recs }));
        }

        // Vertex level: materialize only the newest kept checkpoint —
        // the one that seeds the current index.  Older checkpoints are
        // walk-bounding representation, not state; decoding each
        // cumulative map would make recovery O(checkpoints × vertices)
        // again, so they stay CRC-verified-but-undecoded and vertex
        // walks from old pinned views just run to the base.
        if let Some(&(idx, frame)) = vertex_cps.last() {
            records[idx].checkpoint = Some(decode_vertex_checkpoint(&store_scan.frames[frame])?);
        }
        let mut spilled_records = 0usize;
        for (sh, rec) in spills {
            let shard = Arc::make_mut(&mut shards[sh as usize]);
            let r = &mut shard.records[rec as usize];
            if !r.spilled {
                r.spilled = true;
                spilled_records += 1;
            }
            for c in r.overrides.values_mut() {
                c.drop_resident();
            }
            if let Some(cp) = &mut r.checkpoint {
                for c in cp.overrides.values_mut() {
                    c.drop_resident();
                }
            }
        }

        // The current index: seed from the newest checkpoints, fold
        // only the post-checkpoint records — O(post-checkpoint), which
        // the benchmark's `ingest_durable` reads as `op_tail_ms`.
        let mut current = CurrentIndex::default();
        let vertex_from = match records.iter().rposition(|r| r.checkpoint.is_some()) {
            Some(i) => {
                let cp = records[i].checkpoint.as_ref().expect("just found");
                current.master = cp.master.clone();
                current.replicas = cp.replicas.clone();
                current.degree = cp.degree.clone();
                i + 1
            }
            None => 0,
        };
        for rec in &records[vertex_from..] {
            for (&v, &m) in &rec.master_delta {
                current.master.insert(v, m);
            }
            for (&v, reps) in &rec.replica_delta {
                current.replicas.insert(v, reps.clone());
            }
            for (&v, &d) in &rec.degree_delta {
                current.degree.insert(v, d);
            }
        }
        for shard in &shards {
            let from = match shard.newest_checkpoint() {
                Some(i) => {
                    let cp = shard.records[i].checkpoint.as_ref().expect("just found");
                    for (&pid, cell) in &cp.overrides {
                        let arc = cell.get().expect("newest checkpoint decodes eagerly");
                        current.parts.insert(pid, Arc::clone(arc));
                    }
                    for (&pid, &ver) in &cp.versions {
                        current.versions.insert(pid, ver);
                    }
                    i + 1
                }
                None => 0,
            };
            for rec in &shard.records[from..] {
                for (&pid, cell) in &rec.overrides {
                    let arc = cell.get().expect("post-checkpoint records decode eagerly");
                    current.parts.insert(pid, Arc::clone(arc));
                }
                for (&pid, &ver) in &rec.versions {
                    current.versions.insert(pid, ver);
                }
            }
        }

        // What this open replayed: every kept frame across the commit
        // log and shard segments, and the committed bytes they span.
        // Held until an observer attaches (none can exist yet).
        let num_shards = shards.len();
        let replay = ReplayStats {
            frames: (store_scan.frames.len() + shard_frames.iter().map(Vec::len).sum::<usize>())
                as u64,
            bytes: store_cut + shard_cuts.iter().sum::<u64>(),
            micros: replay_t0.elapsed().as_micros() as u64,
        };
        Ok(ShardedSnapshotStore {
            base,
            shards,
            records,
            current,
            compaction: manifest.compaction,
            capacity: manifest.capacity,
            spilled_records,
            wal: Some(wal),
            observer: ObsHandle::none(),
            faults: FaultHandle::none(),
            spilled_bytes: vec![0; num_shards],
            replay: Some(replay),
            plans: PlanCache::default(),
        })
    }

    /// A view of the newest snapshot.
    pub fn latest(self: &Arc<Self>) -> GraphView {
        GraphView { store: Arc::clone(self), record: self.records.len().checked_sub(1) }
    }

    /// A view of the base graph (timestamp 0).
    pub fn base_view(self: &Arc<Self>) -> GraphView {
        GraphView { store: Arc::clone(self), record: None }
    }

    /// The view a job arriving at `ts` binds to: the newest snapshot whose
    /// timestamp does not exceed `ts`.
    pub fn view_at(self: &Arc<Self>, ts: u64) -> GraphView {
        // Same partition point as `snapshot_at`: timestamps are strictly
        // ascending, so no linear scan.
        let idx = self.records.partition_point(|r| r.timestamp <= ts);
        GraphView { store: Arc::clone(self), record: idx.checked_sub(1) }
    }

    /// Every applied snapshot's timestamp, ascending (the base at
    /// timestamp 0 is implicit and not listed).  The serve layer's
    /// standing jobs walk this list to emit one result per version.
    pub fn snapshot_timestamps(&self) -> Vec<u64> {
        self.records.iter().map(|r| r.timestamp).collect()
    }

    /// Summarizes every delta applied strictly after the snapshot bound
    /// at `from_ts` up to and including the one bound at `to_ts` — the
    /// O(Δ) seed of an incremental resume.  Both arguments are *arrival*
    /// timestamps resolved with the same inclusive partition point as
    /// [`view_at`](Self::view_at) / [`snapshot_at`](Self::snapshot_at),
    /// so a resume binds exactly the version a from-scratch submission
    /// at `to_ts` would.
    ///
    /// Returns `None` when `from_ts` binds a *newer* snapshot than
    /// `to_ts` (a prior result cannot seed a run backwards in time).
    /// Equal binds yield an empty summary: nothing changed, the prior
    /// result already is the answer.
    pub fn delta_summary(&self, from_ts: u64, to_ts: u64) -> Option<DeltaSummary> {
        let from = self.records.partition_point(|r| r.timestamp <= from_ts);
        let to = self.records.partition_point(|r| r.timestamp <= to_ts);
        if from > to {
            return None;
        }
        let mut touched: Vec<VertexId> = Vec::new();
        let mut removals = 0u64;
        for rec in &self.records[from..to] {
            // `apply` keys an entry for *every* endpoint of every added
            // and removed edge (even when the net degree change is 0),
            // so the key set is exactly the incident-vertex frontier.
            touched.extend(rec.degree_delta.keys().copied());
            removals += rec.removals;
        }
        touched.sort_unstable();
        touched.dedup();
        Some(DeltaSummary { touched, removals, deltas: (to - from) as u64 })
    }
}

/// What changed between two snapshot bind points — the seed of an
/// incremental resume (see [`ShardedSnapshotStore::delta_summary`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Every vertex incident to an added or removed edge in the range,
    /// sorted ascending and deduplicated.
    pub touched: Vec<VertexId>,
    /// Total edge removals in the range.  Any removal can shrink a
    /// monotone program's fixpoint, so a nonzero count means the resume
    /// must fall back to from-scratch evaluation.
    pub removals: u64,
    /// Number of snapshot records the range spans.
    pub deltas: u64,
}

impl DeltaSummary {
    /// Whether the range carried no edge changes at all.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty() && self.removals == 0
    }

    /// Whether a monotone program may resume from the prior result
    /// (addition-only range; removals force from-scratch).
    pub fn monotone_safe(&self) -> bool {
        self.removals == 0
    }
}

// ---------------------------------------------------------------------
// Durable frame codec.
//
// Every map is serialized sorted by key, and `apply` stages shards in
// ascending id with their partitions sorted by pid, so the byte stream
// for a given store history is fully deterministic — which is what lets
// the kill-and-recover suites compare a recovered store against the
// survivor structurally.
// ---------------------------------------------------------------------

/// The decoded `MANIFEST`: the configuration a durable store directory
/// was created with.
struct Manifest {
    shards: usize,
    num_partitions: usize,
    compaction: CompactionPolicy,
    capacity: ShardCapacity,
}

fn encode_manifest_frame(store: &ShardedSnapshotStore) -> Vec<u8> {
    let mut out = vec![wal::K_MANIFEST];
    wal::put_u32(&mut out, store.shards.len() as u32);
    wal::put_u32(&mut out, store.base.num_partitions() as u32);
    match store.compaction {
        CompactionPolicy::Off => {
            wal::put_u8(&mut out, 0);
            wal::put_u64(&mut out, 0);
        }
        CompactionPolicy::EveryK(k) => {
            wal::put_u8(&mut out, 1);
            wal::put_u64(&mut out, k as u64);
        }
    }
    wal::put_u64(&mut out, store.capacity.max_resident_bytes);
    out
}

fn decode_manifest_frame(f: &Frame) -> Result<Manifest, StoreError> {
    let mut r = f.body(SegmentId::Manifest);
    if f.kind() != wal::K_MANIFEST {
        return Err(r.corrupt("expected a manifest frame"));
    }
    let shards = r.u32()? as usize;
    let num_partitions = r.u32()? as usize;
    let compaction = match r.u8()? {
        0 => {
            r.u64()?;
            CompactionPolicy::Off
        }
        1 => CompactionPolicy::EveryK(r.u64()? as usize),
        _ => return Err(r.corrupt("unknown compaction policy tag")),
    };
    let capacity = ShardCapacity { max_resident_bytes: r.u64()? };
    if shards == 0 || r.remaining() != 0 {
        return Err(r.corrupt("malformed manifest"));
    }
    Ok(Manifest { shards, num_partitions, compaction, capacity })
}

/// The base partition set as write-once frames: one meta frame (the
/// replica tables) followed by one frame per partition, in id order.
fn encode_base_frames(base: &PartitionSet) -> Vec<Vec<u8>> {
    let mut frames = Vec::with_capacity(1 + base.num_partitions());
    let mut meta = vec![wal::K_BASE_META];
    base.encode_meta(&mut meta);
    frames.push(meta);
    for pid in 0..base.num_partitions() as PartitionId {
        let mut f = vec![wal::K_BASE_PART];
        base.partition(pid).encode(&mut f);
        frames.push(f);
    }
    frames
}

fn decode_base_frames(frames: &[Frame], manifest: &Manifest) -> Result<PartitionSet, StoreError> {
    let expect = 1 + manifest.num_partitions;
    if frames.len() != expect {
        return Err(StoreError::Corruption {
            segment: SegmentId::Base,
            offset: frames.last().map_or(wal::SEG_HEADER_LEN, |f| f.end_offset),
            detail: "base segment frame count disagrees with the manifest",
        });
    }
    let mut parts = Vec::with_capacity(manifest.num_partitions);
    for f in &frames[1..] {
        let mut r = f.body(SegmentId::Base);
        if f.kind() != wal::K_BASE_PART {
            return Err(r.corrupt("expected a base partition frame"));
        }
        parts.push(Arc::new(Partition::decode(&mut r)?));
    }
    let mut r = frames[0].body(SegmentId::Base);
    if frames[0].kind() != wal::K_BASE_META {
        return Err(r.corrupt("expected the base meta frame"));
    }
    PartitionSet::decode_meta(&mut r, parts)
}

// Sorted-map wire helpers (see the section comment: deterministic byte
// streams require a fixed entry order).

fn put_master_map(out: &mut Vec<u8>, m: &HashMap<VertexId, PartitionId>) {
    let mut entries: Vec<(VertexId, PartitionId)> = m.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable();
    wal::put_u32(out, entries.len() as u32);
    for (v, p) in entries {
        wal::put_u32(out, v);
        wal::put_u32(out, p);
    }
}

fn read_master_map(r: &mut WireReader<'_>) -> Result<HashMap<VertexId, PartitionId>, StoreError> {
    let n = r.len(8)?;
    let mut m = HashMap::with_capacity(n);
    for _ in 0..n {
        let v = r.u32()?;
        let p = r.u32()?;
        m.insert(v, p);
    }
    Ok(m)
}

fn put_replica_map(out: &mut Vec<u8>, m: &HashMap<VertexId, Vec<PartitionId>>) {
    let mut entries: Vec<(VertexId, &Vec<PartitionId>)> = m.iter().map(|(&k, v)| (k, v)).collect();
    entries.sort_unstable_by_key(|&(v, _)| v);
    wal::put_u32(out, entries.len() as u32);
    for (v, reps) in entries {
        wal::put_u32(out, v);
        wal::put_u32(out, reps.len() as u32);
        for &p in reps {
            wal::put_u32(out, p);
        }
    }
}

fn read_replica_map(
    r: &mut WireReader<'_>,
) -> Result<HashMap<VertexId, Vec<PartitionId>>, StoreError> {
    let n = r.len(8)?;
    let mut m = HashMap::with_capacity(n);
    for _ in 0..n {
        let v = r.u32()?;
        let k = r.len(4)?;
        let mut reps = Vec::with_capacity(k);
        for _ in 0..k {
            reps.push(r.u32()?);
        }
        m.insert(v, reps);
    }
    Ok(m)
}

fn put_degree_map(out: &mut Vec<u8>, m: &HashMap<VertexId, (u32, u32)>) {
    let mut entries: Vec<(VertexId, (u32, u32))> = m.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable_by_key(|&(v, _)| v);
    wal::put_u32(out, entries.len() as u32);
    for (v, (o, i)) in entries {
        wal::put_u32(out, v);
        wal::put_u32(out, o);
        wal::put_u32(out, i);
    }
}

fn read_degree_map(r: &mut WireReader<'_>) -> Result<HashMap<VertexId, (u32, u32)>, StoreError> {
    let n = r.len(12)?;
    let mut m = HashMap::with_capacity(n);
    for _ in 0..n {
        let v = r.u32()?;
        let o = r.u32()?;
        let i = r.u32()?;
        m.insert(v, (o, i));
    }
    Ok(m)
}

fn put_version_map(out: &mut Vec<u8>, m: &HashMap<PartitionId, VersionId>) {
    let mut entries: Vec<(PartitionId, VersionId)> = m.iter().map(|(&k, &v)| (k, v)).collect();
    entries.sort_unstable();
    wal::put_u32(out, entries.len() as u32);
    for (p, v) in entries {
        wal::put_u32(out, p);
        wal::put_u32(out, v);
    }
}

/// The store-level commit frame for one apply: the vertex deltas plus
/// the shard heads this snapshot sees.  Once this frame is durable the
/// shard records it references are committed (they were synced first).
fn encode_apply_frame(rec: &SnapshotRecord) -> Vec<u8> {
    let mut out = vec![wal::K_APPLY];
    wal::put_u64(&mut out, rec.timestamp);
    wal::put_u32(&mut out, rec.shard_heads.len() as u32);
    for &h in &rec.shard_heads {
        wal::put_u64(&mut out, h as u64);
    }
    put_master_map(&mut out, &rec.master_delta);
    put_replica_map(&mut out, &rec.replica_delta);
    put_degree_map(&mut out, &rec.degree_delta);
    wal::put_u64(&mut out, rec.removals);
    out
}

fn encode_vertex_cp_frame(rec_idx: u64, cp: &VertexCheckpoint) -> Vec<u8> {
    let mut out = vec![wal::K_VERTEX_CP];
    wal::put_u64(&mut out, rec_idx);
    put_master_map(&mut out, &cp.master);
    put_replica_map(&mut out, &cp.replicas);
    put_degree_map(&mut out, &cp.degree);
    out
}

fn encode_spill_frame(shard: u32, rec: u64) -> Vec<u8> {
    let mut out = vec![wal::K_SPILL];
    wal::put_u32(&mut out, shard);
    wal::put_u64(&mut out, rec);
    out
}

/// Encodes one shard frame (a record's overrides, or a checkpoint's
/// cumulative state): the version map, then each partition blob.
/// Returns the payload plus one `(offset, len)` span per entry of
/// `arcs` (offsets relative to the payload start), which `apply` /
/// `compact` turn into [`PayloadLoc`]s once the frame's disk position
/// is known.
fn encode_shard_frame(
    kind: u8,
    rec_idx: Option<u64>,
    versions: &HashMap<PartitionId, VersionId>,
    arcs: &[(PartitionId, Arc<Partition>, VersionId)],
) -> (Vec<u8>, Vec<(u32, u32)>) {
    let mut out = vec![kind];
    if let Some(idx) = rec_idx {
        wal::put_u64(&mut out, idx);
    }
    put_version_map(&mut out, versions);
    wal::put_u32(&mut out, arcs.len() as u32);
    let mut spans = Vec::with_capacity(arcs.len());
    for (pid, part, _) in arcs {
        wal::put_u32(&mut out, *pid);
        let len_at = out.len();
        wal::put_u32(&mut out, 0); // blob length, patched below
        let start = out.len();
        part.encode(&mut out);
        let blob = (out.len() - start) as u32;
        out[len_at..len_at + 4].copy_from_slice(&blob.to_le_bytes());
        spans.push((start as u32, blob));
    }
    (out, spans)
}

// ---------------------------------------------------------------------
// Recovery-side frame parsers.
// ---------------------------------------------------------------------

/// One parsed store-segment frame (`end` = segment offset one past the
/// frame, the truncation point if the prefix cut lands here).
enum StoreEvent {
    Apply(Box<SnapshotRecord>, u64),
    VertexCp {
        rec_idx: u64,
        frame: usize,
        end: u64,
    },
    Spill {
        shard: u32,
        rec: u64,
        end: u64,
    },
}

fn parse_store_frame(frame: usize, f: &Frame) -> Result<StoreEvent, StoreError> {
    let mut r = f.body(SegmentId::Store);
    let ev = match f.kind() {
        wal::K_APPLY => {
            let timestamp = r.u64()?;
            let n = r.len(8)?;
            let mut shard_heads = Vec::with_capacity(n);
            for _ in 0..n {
                shard_heads.push(r.u64()? as usize);
            }
            let master_delta = read_master_map(&mut r)?;
            let replica_delta = read_replica_map(&mut r)?;
            let degree_delta = read_degree_map(&mut r)?;
            let removals = r.u64()?;
            StoreEvent::Apply(
                Box::new(SnapshotRecord {
                    timestamp,
                    shard_heads,
                    master_delta,
                    replica_delta,
                    degree_delta,
                    removals,
                    checkpoint: None,
                }),
                f.end_offset,
            )
        }
        wal::K_VERTEX_CP => {
            // Only the stamp target is read here; the cumulative maps
            // stay undecoded until [`decode_vertex_checkpoint`] — and
            // only the newest kept checkpoint ever is.
            let rec_idx = r.u64()?;
            return Ok(StoreEvent::VertexCp { rec_idx, frame, end: f.end_offset });
        }
        wal::K_SPILL => {
            let shard = r.u32()?;
            let rec = r.u64()?;
            StoreEvent::Spill { shard, rec, end: f.end_offset }
        }
        _ => return Err(r.corrupt("unknown store frame kind")),
    };
    if r.remaining() != 0 {
        return Err(r.corrupt("trailing bytes after store frame body"));
    }
    Ok(ev)
}

/// Decodes the cumulative vertex state out of a `K_VERTEX_CP` frame.
/// Recovery calls this for the newest kept checkpoint only: older
/// checkpoints are pure walk-bounding representation, so their
/// CRC-verified payloads are dropped undecoded (a walk that would have
/// stopped at one simply continues to the base — same answers, longer
/// walk, exactly the [`CompactionPolicy`] transparency contract).
fn decode_vertex_checkpoint(f: &Frame) -> Result<VertexCheckpoint, StoreError> {
    let mut r = f.body(SegmentId::Store);
    let _rec_idx = r.u64()?;
    let cp = VertexCheckpoint {
        master: read_master_map(&mut r)?,
        replicas: read_replica_map(&mut r)?,
        degree: read_degree_map(&mut r)?,
    };
    if r.remaining() != 0 {
        return Err(r.corrupt("trailing bytes after store frame body"));
    }
    Ok(cp)
}

/// One parsed shard-segment frame: a chain record (`cp_rec_idx` =
/// `None`) or a checkpoint stamped onto record `cp_rec_idx`.  Partition
/// payloads are *not* decoded here — only their absolute segment spans,
/// so recovery can leave cold ones lazy.
struct ShardEvent {
    cp_rec_idx: Option<u64>,
    versions: HashMap<PartitionId, VersionId>,
    /// `(pid, absolute segment offset, len)` per partition blob.
    parts: Vec<(PartitionId, u64, u32)>,
    /// Segment offset one past the frame.
    end: u64,
}

/// Streams every frame of a shard segment into events, reading only
/// frame headers and metadata — kind, version map, and the partition
/// (pid, offset, length) table — while seeking past the partition
/// payload bytes themselves.  Field reads are bounds-checked against
/// the header-vouched frame length, so malformed metadata surfaces as
/// typed corruption; payload bit rot is caught by
/// [`FrameCursor::read_payload`] when (and only when) a frame decodes
/// eagerly, or at read-through for payloads kept lazy.  Returns the
/// cursor alongside the events so recovery can pull eager payloads
/// through the same handle.
fn scan_shard_frames(
    path: &Path,
    seg: SegmentId,
) -> Result<(Vec<ShardEvent>, Vec<FrameHead>, FrameCursor), StoreError> {
    fn bounded(cur: &FrameCursor, end: u64, need: u64) -> Result<(), StoreError> {
        if cur.pos() + need > end {
            return Err(cur.corrupt_at(cur.pos(), "payload shorter than its encoding claims"));
        }
        Ok(())
    }
    fn bounded_len(cur: &mut FrameCursor, end: u64, min_elem: u64) -> Result<usize, StoreError> {
        bounded(cur, end, 4)?;
        let n = cur.u32()? as u64;
        if n.saturating_mul(min_elem.max(1)) > end - cur.pos() {
            return Err(cur.corrupt_at(cur.pos(), "length field exceeds remaining payload"));
        }
        Ok(n as usize)
    }
    let mut cur = FrameCursor::open(path, seg)?;
    let mut events = Vec::new();
    let mut heads = Vec::new();
    while let Some(head) = cur.next_frame()? {
        let end = head.end_offset;
        if head.payload_len == 0 {
            return Err(cur.corrupt_at(head.payload_offset, "empty shard frame payload"));
        }
        let cp_rec_idx = match cur.u8()? {
            wal::K_SHARD_REC => None,
            wal::K_SHARD_CP => {
                bounded(&cur, end, 8)?;
                Some(cur.u64()?)
            }
            _ => return Err(cur.corrupt_at(head.payload_offset, "unknown shard frame kind")),
        };
        let vn = bounded_len(&mut cur, end, 8)?;
        let mut versions = HashMap::with_capacity(vn);
        for _ in 0..vn {
            let p = cur.u32()?;
            let v = cur.u32()?;
            versions.insert(p, v);
        }
        let n = bounded_len(&mut cur, end, 8)?;
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            bounded(&cur, end, 8)?;
            let pid = cur.u32()?;
            let len = cur.u32()?;
            let at = cur.pos();
            if at + len as u64 > end {
                return Err(cur.corrupt_at(at, "payload shorter than its encoding claims"));
            }
            cur.skip(len as u64)?;
            parts.push((pid, at, len));
        }
        if cur.pos() != end {
            return Err(cur.corrupt_at(cur.pos(), "trailing bytes after shard frame body"));
        }
        events.push(ShardEvent { cp_rec_idx, versions, parts, end });
        heads.push(head);
    }
    Ok((events, heads, cur))
}

/// A consistent, immutable view of the graph at one snapshot.
///
/// Views resolve partition state across the store's shards
/// transparently: a lookup at the newest snapshot is answered by the
/// store's current-state index in O(1); a historical lookup walks the
/// owning chain backwards from this snapshot's head, stopping at the
/// first record that names the key or carries a checkpoint (so the walk
/// is bounded by the store's [`CompactionPolicy`]).  Callers never see
/// the sharding or the layering.
#[derive(Clone, Debug)]
pub struct GraphView {
    store: Arc<SnapshotStore>,
    /// Index into the record chain; `None` means the base.
    record: Option<usize>,
}

impl GraphView {
    fn rec(&self) -> Option<&SnapshotRecord> {
        self.record.map(|i| &self.store.records[i])
    }

    /// The snapshot timestamp this view observes (0 for the base).
    pub fn timestamp(&self) -> u64 {
        self.rec().map_or(0, |r| r.timestamp)
    }

    /// Number of partitions (fixed across snapshots).
    pub fn num_partitions(&self) -> usize {
        self.store.base.num_partitions()
    }

    /// Size of the vertex universe (fixed across snapshots).
    pub fn num_vertices(&self) -> VertexId {
        self.store.base.num_vertices()
    }

    /// Number of shards of the underlying store.
    pub fn num_shards(&self) -> usize {
        self.store.num_shards()
    }

    /// The shard partition `pid` is placed on.
    pub fn shard_of(&self, pid: PartitionId) -> usize {
        self.store.shard_of(pid)
    }

    /// The partition `pid` as seen by this view (resolved through the
    /// owning shard's chain).
    pub fn partition(&self, pid: PartitionId) -> &Arc<Partition> {
        self.store.partition_at(self.record, pid)
    }

    /// The version of partition `pid` (0 = base).  Two views share the
    /// physical partition — and therefore its cache residency — exactly
    /// when their versions match.
    pub fn version_of(&self, pid: PartitionId) -> VersionId {
        self.store.version_at(self.record, pid)
    }

    /// Whether this view resolves partition `pid` through a record
    /// whose payload capacity enforcement spilled — the signal engines
    /// price as a disk re-fetch on the owning shard's lane.  Free
    /// (`false` immediately) while the store has never spilled.
    pub fn partition_spilled(&self, pid: PartitionId) -> bool {
        self.store.spilled_at(self.record, pid)
    }

    /// Master partition of `v` in this view.
    pub fn master_of(&self, v: VertexId) -> PartitionId {
        self.store.master_at(self.record, v)
    }

    /// Replica partitions of `v` in this view.
    pub fn replicas_of(&self, v: VertexId) -> &[PartitionId] {
        self.store.replicas_at(self.record, v)
    }

    /// Whole-graph out/in degree of `v` in this view.
    pub fn degree_of(&self, v: VertexId) -> (u32, u32) {
        self.store.degree_at(self.record, v)
    }

    /// This view's master→mirror routing table, shared by everything
    /// bound to the same snapshot.  Built on first request (one pass
    /// over the view's replicas) and never by the store on its own; the
    /// plan holds no reference to the store, so it never keeps a
    /// snapshot — or the store `Arc` — alive.
    ///
    /// # Panics
    ///
    /// Panics if the view's replica table and partitions disagree.
    pub fn replica_plan(&self) -> Arc<ReplicaPlan> {
        self.bind_replica_plan().0
    }

    /// [`replica_plan`](Self::replica_plan), also reporting whether this
    /// call built the plan (`true`) or shared a live one (`false`).
    pub fn bind_replica_plan(&self) -> (Arc<ReplicaPlan>, bool) {
        self.store.plans.bind(self.record, || {
            let parts: Vec<&Partition> = (0..self.num_partitions() as PartitionId)
                .map(|pid| &**self.partition(pid))
                .collect();
            ReplicaPlan::build(
                &parts,
                self.num_vertices(),
                |v| self.master_of(v),
                |v| self.replicas_of(v),
            )
        })
    }

    /// Materializes the whole graph at this view as an edge list
    /// (used by reference implementations in tests).
    pub fn edges_global(&self) -> EdgeList {
        let mut edges = Vec::new();
        for pid in 0..self.num_partitions() as PartitionId {
            edges.extend(self.partition(pid).edges_global());
        }
        EdgeList::from_edges(edges, self.num_vertices())
    }

    /// Fraction of partitions this view shares (same version) with `other`
    /// — the quantity behind the paper's Fig. 1(b) and Fig. 16 analysis.
    pub fn shared_fraction(&self, other: &GraphView) -> f64 {
        let np = self.num_partitions();
        if np == 0 {
            return 1.0;
        }
        let same = (0..np as PartitionId)
            .filter(|&p| self.version_of(p) == other.version_of(p))
            .count();
        same as f64 / np as f64
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::builder::GraphBuilder;
    use crate::vertex_cut::VertexCutPartitioner;
    use crate::Partitioner;

    fn store() -> Arc<SnapshotStore> {
        let el = GraphBuilder::new(8)
            .edges([
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ])
            .build();
        Arc::new(SnapshotStore::new(
            VertexCutPartitioner::new(4).partition(&el),
        ))
    }

    fn store_mut() -> SnapshotStore {
        let el = GraphBuilder::new(8)
            .edges([
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ])
            .build();
        SnapshotStore::new(VertexCutPartitioner::new(4).partition(&el))
    }

    #[test]
    fn base_view_matches_base() {
        let s = store();
        let v = s.base_view();
        assert_eq!(v.timestamp(), 0);
        assert_eq!(v.edges_global().len(), 8);
        for p in 0..4 {
            assert_eq!(v.version_of(p), 0);
        }
    }

    #[test]
    fn addition_is_visible_only_to_later_views() {
        let mut s = store_mut();
        s.apply(10, &GraphDelta::adding([Edge::unit(0, 4)]))
            .unwrap();
        let s = Arc::new(s);
        let old = s.view_at(5);
        let new = s.view_at(10);
        assert_eq!(old.edges_global().len(), 8);
        assert_eq!(new.edges_global().len(), 9);
        assert_eq!(new.timestamp(), 10);
    }

    #[test]
    fn removal_updates_edges_and_degrees() {
        let mut s = store_mut();
        s.apply(1, &GraphDelta::removing([(1, 2)])).unwrap();
        let s = Arc::new(s);
        let v = s.latest();
        assert_eq!(v.edges_global().len(), 7);
        assert_eq!(v.degree_of(1), (0, 1));
        assert_eq!(v.degree_of(2), (1, 0));
    }

    #[test]
    fn missing_removal_is_an_error() {
        let mut s = store_mut();
        let err = s.apply(1, &GraphDelta::removing([(0, 5)])).unwrap_err();
        assert_eq!(err, StoreError::Snapshot(SnapshotError::EdgeNotFound(0, 5)));
        assert_eq!(s.num_snapshots(), 0);
    }

    #[test]
    fn out_of_range_addition_is_an_error() {
        let mut s = store_mut();
        let err = s
            .apply(1, &GraphDelta::adding([Edge::unit(0, 99)]))
            .unwrap_err();
        assert_eq!(
            err,
            StoreError::Snapshot(SnapshotError::VertexOutOfRange(99))
        );
    }

    #[test]
    fn timestamps_must_increase() {
        let mut s = store_mut();
        s.apply(5, &GraphDelta::adding([Edge::unit(0, 2)])).unwrap();
        let err = s
            .apply(5, &GraphDelta::adding([Edge::unit(0, 3)]))
            .unwrap_err();
        assert!(matches!(
            err,
            StoreError::Snapshot(SnapshotError::NonMonotonicTimestamp { .. })
        ));
    }

    #[test]
    fn unchanged_partitions_keep_version_zero() {
        let mut s = store_mut();
        s.apply(1, &GraphDelta::adding([Edge::unit(0, 2)])).unwrap();
        let s = Arc::new(s);
        let v = s.latest();
        let bumped: Vec<_> = (0..4).filter(|&p| v.version_of(p) > 0).collect();
        assert!(!bumped.is_empty());
        assert!(bumped.len() < 4, "small delta must not bump everything");
    }

    #[test]
    fn shared_fraction_decreases_with_changes() {
        let mut s = store_mut();
        s.apply(1, &GraphDelta::adding([Edge::unit(0, 2)])).unwrap();
        let s = Arc::new(s);
        let a = s.base_view();
        let b = s.latest();
        let f = a.shared_fraction(&b);
        assert!(f < 1.0 && f > 0.0, "fraction {f}");
        assert_eq!(b.shared_fraction(&b), 1.0);
    }

    #[test]
    fn chained_snapshots_accumulate() {
        let mut s = store_mut();
        s.apply(1, &GraphDelta::adding([Edge::unit(0, 2)])).unwrap();
        s.apply(2, &GraphDelta::adding([Edge::unit(0, 3)])).unwrap();
        s.apply(3, &GraphDelta::removing([(0, 2)])).unwrap();
        let s = Arc::new(s);
        assert_eq!(s.num_snapshots(), 3);
        let v = s.latest();
        assert_eq!(v.edges_global().len(), 9); // 8 + 2 - 1
        let mid = s.view_at(2);
        assert_eq!(mid.edges_global().len(), 10);
    }

    #[test]
    fn master_reassigned_when_replica_disappears() {
        // Remove every edge of a vertex from its master partition and the
        // master must move (or become NO_PARTITION when fully isolated).
        let mut s = store_mut();
        // Vertex 1's edges: 0->1 and 1->2. Remove both; it becomes isolated.
        s.apply(1, &GraphDelta::removing([(0, 1), (1, 2)])).unwrap();
        let s = Arc::new(s);
        let v = s.latest();
        assert_eq!(v.master_of(1), NO_PARTITION);
        assert!(v.replicas_of(1).is_empty());
        assert_eq!(v.degree_of(1), (0, 0));
    }

    /// Shard count is invisible to views: every partition, version, and
    /// edge list is identical at any shard count — only the chain layout
    /// and the `shard_of` lane assignment differ.
    #[test]
    fn sharding_is_transparent_to_views() {
        let build = |shards: usize| {
            let el = GraphBuilder::new(8)
                .edges([
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                    (5, 6),
                    (6, 7),
                    (7, 0),
                ])
                .build();
            let mut s = ShardedSnapshotStore::with_shards(
                VertexCutPartitioner::new(4).partition(&el),
                shards,
            );
            s.apply(1, &GraphDelta::adding([Edge::unit(0, 2)])).unwrap();
            s.apply(2, &GraphDelta::adding([Edge::unit(3, 7)])).unwrap();
            s.apply(3, &GraphDelta::removing([(0, 2)])).unwrap();
            Arc::new(s)
        };
        let single = build(1);
        let sharded = build(4);
        assert_eq!(single.num_shards(), 1);
        assert_eq!(sharded.num_shards(), 4);
        for ts in [0, 1, 2, 3] {
            let a = single.view_at(ts);
            let b = sharded.view_at(ts);
            assert_eq!(a.timestamp(), b.timestamp());
            for pid in 0..4 {
                assert_eq!(a.version_of(pid), b.version_of(pid), "ts {ts} pid {pid}");
                assert_eq!(
                    a.partition(pid).edges_global(),
                    b.partition(pid).edges_global(),
                    "ts {ts} pid {pid}"
                );
            }
            for v in 0..8 {
                assert_eq!(a.master_of(v), b.master_of(v));
                assert_eq!(a.degree_of(v), b.degree_of(v));
            }
        }
    }

    /// Shards are round-robin and their chains grow independently:
    /// a delta touching only shard `s`'s partitions leaves every other
    /// shard's chain untouched.
    #[test]
    fn shard_chains_grow_independently() {
        let el = GraphBuilder::new(8)
            .edges([
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ])
            .build();
        let mut s =
            ShardedSnapshotStore::with_shards(VertexCutPartitioner::new(4).partition(&el), 4);
        for pid in 0..4u32 {
            assert_eq!(s.shard_of(pid), pid as usize % 4);
        }
        let before: Vec<usize> = (0..4).map(|x| s.shard(x).num_records()).collect();
        assert_eq!(before, vec![0; 4]);
        s.apply(1, &GraphDelta::adding([Edge::unit(0, 2)])).unwrap();
        let after: Vec<usize> = (0..4).map(|x| s.shard(x).num_records()).collect();
        let grown = after.iter().sum::<usize>();
        assert!(grown >= 1, "at least one shard chain must grow");
        assert!(
            after.contains(&0),
            "a one-partition delta must leave some shard untouched: {after:?}"
        );
    }

    /// Shard count clamps to the partition count so `shard_of` never
    /// leaves a shard unaddressable.
    #[test]
    fn shards_clamp_to_partitions() {
        let el = GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3)]).build();
        let s = ShardedSnapshotStore::with_shards(VertexCutPartitioner::new(2).partition(&el), 64);
        assert_eq!(s.num_shards(), 2);
        let s0 = ShardedSnapshotStore::with_shards(VertexCutPartitioner::new(2).partition(&el), 0);
        assert_eq!(s0.num_shards(), 1);
    }

    #[test]
    fn snapshot_at_returns_bind_timestamp() {
        let mut s = store_mut();
        assert_eq!(s.snapshot_at(0), 0);
        assert_eq!(s.snapshot_at(99), 0);
        s.apply(10, &GraphDelta::adding([Edge::unit(0, 2)]))
            .unwrap();
        s.apply(20, &GraphDelta::adding([Edge::unit(0, 3)]))
            .unwrap();
        assert_eq!(s.snapshot_at(9), 0);
        assert_eq!(s.snapshot_at(10), 10);
        assert_eq!(s.snapshot_at(19), 10);
        assert_eq!(s.snapshot_at(25), 20);
        // snapshot_at agrees with the view a job would actually bind.
        let s = Arc::new(s);
        for ts in [0, 9, 10, 15, 20, 99] {
            assert_eq!(s.snapshot_at(ts), s.view_at(ts).timestamp());
        }
    }

    #[test]
    fn replica_lists_stay_sorted_and_consistent() {
        let mut s = store_mut();
        s.apply(1, &GraphDelta::adding([Edge::unit(2, 6), Edge::unit(6, 2)]))
            .unwrap();
        let s = Arc::new(s);
        let v = s.latest();
        for vid in 0..8 {
            let reps = v.replicas_of(vid);
            let mut sorted = reps.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(reps, sorted.as_slice(), "vertex {vid}");
            for &pid in reps {
                assert!(v.partition(pid).local_of(vid).is_some(), "v{vid} p{pid}");
            }
            if !reps.is_empty() {
                assert!(reps.contains(&v.master_of(vid)));
            }
        }
    }

    // ---- layered chain + checkpoint compaction ----

    /// One delta stream, observed through every compaction regime, must
    /// be indistinguishable view by view: compaction is representation,
    /// never semantics.
    #[test]
    fn compaction_is_transparent_to_views() {
        let build = |policy: CompactionPolicy, post_hoc: bool| {
            let el = GraphBuilder::new(8)
                .edges([
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                    (5, 6),
                    (6, 7),
                    (7, 0),
                ])
                .build();
            let mut s =
                ShardedSnapshotStore::with_shards(VertexCutPartitioner::new(4).partition(&el), 2)
                    .with_compaction(policy);
            for (i, d) in [
                GraphDelta::adding([Edge::unit(0, 2)]),
                GraphDelta::adding([Edge::unit(3, 7), Edge::unit(1, 5)]),
                GraphDelta::removing([(0, 2)]),
                GraphDelta::adding([Edge::unit(6, 1)]),
                GraphDelta::removing([(3, 7)]),
            ]
            .iter()
            .enumerate()
            {
                s.apply((i as u64 + 1) * 10, d).unwrap();
            }
            if post_hoc {
                s.compact().unwrap();
            }
            Arc::new(s)
        };
        let reference = build(CompactionPolicy::Off, false);
        for (policy, post_hoc) in [
            (CompactionPolicy::EveryK(1), false),
            (CompactionPolicy::EveryK(2), false),
            (CompactionPolicy::EveryK(4), false),
            (CompactionPolicy::Off, true),
        ] {
            let other = build(policy, post_hoc);
            for ts in [0, 10, 20, 30, 40, 50, 99] {
                let a = reference.view_at(ts);
                let b = other.view_at(ts);
                assert_eq!(a.timestamp(), b.timestamp());
                for pid in 0..4 {
                    assert_eq!(
                        a.version_of(pid),
                        b.version_of(pid),
                        "{policy:?} ts {ts} pid {pid}"
                    );
                    assert_eq!(
                        a.partition(pid).edges_global(),
                        b.partition(pid).edges_global(),
                        "{policy:?} ts {ts} pid {pid}"
                    );
                }
                for v in 0..8 {
                    assert_eq!(a.master_of(v), b.master_of(v), "{policy:?} ts {ts} v {v}");
                    assert_eq!(
                        a.replicas_of(v),
                        b.replicas_of(v),
                        "{policy:?} ts {ts} v {v}"
                    );
                    assert_eq!(a.degree_of(v), b.degree_of(v), "{policy:?} ts {ts} v {v}");
                }
            }
        }
    }

    /// EveryK materializes checkpoints on schedule; Off never does; a
    /// manual compact() stamps exactly one at the head and is idempotent.
    #[test]
    fn checkpoint_cadence_follows_policy() {
        let run = |policy: CompactionPolicy| {
            let mut s = store_mut().with_compaction(policy);
            for i in 1..=6u64 {
                s.apply(
                    i,
                    &GraphDelta::adding([Edge::unit((i % 8) as u32, ((i + 2) % 8) as u32)]),
                )
                .unwrap();
            }
            s
        };
        assert_eq!(run(CompactionPolicy::Off).num_checkpoints(), 0);
        assert_eq!(run(CompactionPolicy::EveryK(2)).num_checkpoints(), 3);
        assert_eq!(run(CompactionPolicy::EveryK(1)).num_checkpoints(), 6);

        let mut s = run(CompactionPolicy::Off);
        s.compact().unwrap();
        assert_eq!(s.num_checkpoints(), 1);
        s.compact().unwrap();
        assert_eq!(s.num_checkpoints(), 1, "compact() is idempotent");
        assert!(s.shard(0).num_checkpoints() >= 1);
    }

    /// Layered records hold only what their delta touched: applying a
    /// constant-size delta appends constant-size records no matter how
    /// long the chain already is (the O(Δ) ingest property, structurally).
    #[test]
    fn records_stay_delta_sized_without_compaction() {
        let mut s = store_mut().with_compaction(CompactionPolicy::Off);
        for i in 1..=20u64 {
            let v = (i % 7) as u32;
            s.apply(i, &GraphDelta::adding([Edge::unit(v, (v + 3) % 8)]))
                .unwrap();
        }
        // A one-edge delta touches two vertices: every record's delta
        // maps stay that small, they never re-accumulate the chain.
        for rec in &s.records {
            assert!(rec.master_delta.len() <= 2, "{}", rec.master_delta.len());
            assert!(rec.replica_delta.len() <= 2);
            assert!(rec.degree_delta.len() <= 2);
            assert!(rec.checkpoint.is_none());
        }
        for shard in &s.shards {
            for rec in &shard.records {
                assert!(rec.overrides.len() <= 2, "one-edge delta, tiny override");
            }
        }
    }

    // ---- bind-point boundaries and delta summaries ----

    /// The `view_at` / `snapshot_at` boundary is *inclusive*: an arrival
    /// timestamp exactly equal to a snapshot's timestamp binds that
    /// snapshot, one tick earlier binds the previous one.  (PR 4 swapped
    /// an `rposition` for a `partition_point`; this pins the semantics
    /// incremental resume relies on to bind the same version as a
    /// from-scratch submission.)
    #[test]
    fn view_at_timestamp_boundary_is_inclusive() {
        let mut s = store_mut();
        s.apply(5, &GraphDelta::adding([Edge::unit(0, 3)])).unwrap();
        s.apply(10, &GraphDelta::adding([Edge::unit(1, 4)]))
            .unwrap();
        let s = Arc::new(s);
        for (ts, bound) in [(0, 0), (4, 0), (5, 5), (9, 5), (10, 10), (u64::MAX, 10)] {
            assert_eq!(s.snapshot_at(ts), bound, "snapshot_at({ts})");
            assert_eq!(s.view_at(ts).timestamp(), bound, "view_at({ts})");
        }
        // The bind is observable, not just a label: an arrival exactly
        // at ts 5 sees the 0→3 edge (out-degree of 0 grew), at 4 not.
        assert_eq!(s.view_at(4).degree_of(0), s.base_view().degree_of(0));
        assert_eq!(
            s.view_at(5).degree_of(0).0,
            s.base_view().degree_of(0).0 + 1
        );
        // And equal-bind arrivals share every partition version.
        let (a, b) = (s.view_at(5), s.view_at(9));
        assert_eq!(a.shared_fraction(&b), 1.0);
    }

    /// `delta_summary` resolves its endpoints with the same inclusive
    /// bind as `view_at`, lists exactly the incident vertices, counts
    /// removals, and refuses backwards ranges.
    #[test]
    fn delta_summary_spans_exactly_the_bound_range() {
        let mut s = store_mut();
        s.apply(5, &GraphDelta::adding([Edge::unit(0, 3)])).unwrap();
        s.apply(10, &GraphDelta::adding([Edge::unit(1, 4)]))
            .unwrap();
        s.apply(15, &GraphDelta::removing([(0, 3)])).unwrap();

        // Equal binds (including mid-gap timestamps binding the same
        // record) are an empty, monotone-safe summary.
        for (a, b) in [(0, 4), (5, 9), (5, 5), (10, 14), (17, 99)] {
            let d = s.delta_summary(a, b).expect("forward range");
            assert!(d.is_empty() && d.monotone_safe(), "({a},{b}): {d:?}");
        }
        // A range crossing one addition lists both endpoints only.
        let d = s.delta_summary(4, 5).unwrap();
        assert_eq!(d.touched, vec![0, 3]);
        assert_eq!((d.removals, d.deltas), (0, 1));
        assert!(d.monotone_safe());
        // Crossing both additions: union of endpoints, sorted, deduped.
        let d = s.delta_summary(0, 12).unwrap();
        assert_eq!(d.touched, vec![0, 1, 3, 4]);
        assert_eq!((d.removals, d.deltas), (0, 2));
        // Removal endpoints are frontier vertices too, and the removal
        // count flags the monotone fallback.
        let d = s.delta_summary(10, 15).unwrap();
        assert_eq!(d.touched, vec![0, 3]);
        assert_eq!(d.removals, 1);
        assert!(!d.monotone_safe() && !d.is_empty());
        // Backwards ranges (prior newer than target) are refused.
        assert_eq!(s.delta_summary(10, 9), None);
        assert_eq!(s.delta_summary(15, 0), None);
        // The implicit base at 0 and the timestamp list line up.
        assert_eq!(s.snapshot_timestamps(), vec![5, 10, 15]);
    }

    /// Removal counts survive the WAL: a recovered store answers
    /// `delta_summary` identically to the survivor, so a resumed
    /// standing job makes the same seed-vs-fallback decision after a
    /// crash as before it.
    #[test]
    fn delta_summary_survives_recovery() {
        let dir =
            std::env::temp_dir().join(format!("cgraph-snapshot-removals-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = store_mut().persist_to(&dir).unwrap();
        s.apply(5, &GraphDelta::adding([Edge::unit(0, 3)])).unwrap();
        s.apply(10, &GraphDelta::removing([(0, 3)])).unwrap();
        let survivor: Vec<_> = [(0, 5), (0, 10), (5, 10)]
            .iter()
            .map(|&(a, b)| s.delta_summary(a, b).unwrap())
            .collect();
        drop(s);
        let r = SnapshotStore::open(&dir).unwrap();
        for (i, &(a, b)) in [(0, 5), (0, 10), (5, 10)].iter().enumerate() {
            assert_eq!(
                r.delta_summary(a, b).unwrap(),
                survivor[i],
                "recovered delta_summary({a},{b})"
            );
        }
        assert_eq!(r.delta_summary(5, 10).unwrap().removals, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- capacity and concurrent apply ----

    /// Capacity enforcement spills only checkpoint-covered records,
    /// brings the shard back under budget, stays transparent to every
    /// view, and reports spilled resolutions through the views.
    #[test]
    fn capacity_spills_are_checkpoint_covered_and_transparent() {
        let stream = |s: &mut ShardedSnapshotStore| {
            for i in 1..=24u64 {
                let v = (i % 7) as u32;
                s.apply(i, &GraphDelta::adding([Edge::unit(v, (v + 3) % 8)]))
                    .unwrap();
            }
        };
        let mut plain = store_mut().with_compaction(CompactionPolicy::EveryK(4));
        stream(&mut plain);
        let resident = plain.shard_resident_bytes(0);
        assert!(!plain.has_spills());

        let cap = resident * 6 / 10;
        let mut capped = store_mut()
            .with_compaction(CompactionPolicy::EveryK(4))
            .with_capacity(ShardCapacity::bytes(cap));
        stream(&mut capped);
        assert_eq!(capped.capacity(), ShardCapacity::bytes(cap));
        assert!(capped.has_spills(), "tight cap must spill");
        let shard = capped.shard(0);
        let horizon = shard
            .newest_checkpoint()
            .expect("EveryK stamps checkpoints");
        assert!(shard.num_spilled() > 0);
        for i in shard.spilled_indices() {
            assert!(i < horizon, "spilled record {i} above checkpoint {horizon}");
        }
        // Post-install budget: under cap, or everything evictable spilled.
        let resident_now = capped.shard_resident_bytes(0);
        assert!(
            resident_now <= cap || !capped.shard_has_evictable(0),
            "resident {resident_now} over cap {cap} with evictable records left"
        );
        assert!(resident_now < resident, "spilling must shrink residency");
        assert!(capped.override_bytes() < plain.override_bytes());

        // Transparency + the spill signal: every view resolves
        // identically, and at least one historical view reads through a
        // spilled record (the latest never does).
        let plain = Arc::new(plain);
        let capped = Arc::new(capped);
        let mut saw_spill = false;
        for ts in 0..=24u64 {
            let a = plain.view_at(ts);
            let b = capped.view_at(ts);
            for pid in 0..4 {
                assert_eq!(a.version_of(pid), b.version_of(pid), "ts {ts} pid {pid}");
                assert_eq!(
                    a.partition(pid).edges_global(),
                    b.partition(pid).edges_global(),
                    "ts {ts} pid {pid}"
                );
                assert!(!a.partition_spilled(pid), "uncapped store never spills");
                saw_spill |= b.partition_spilled(pid);
            }
        }
        assert!(saw_spill, "some historical view must read spilled state");
        let latest = capped.latest();
        for pid in 0..4 {
            assert!(
                !latest.partition_spilled(pid),
                "the latest view answers from the resident current index"
            );
        }
    }

    /// Unlimited capacity (the default) never spills.
    #[test]
    fn default_capacity_never_spills() {
        let mut s = store_mut();
        for i in 1..=20u64 {
            let v = (i % 7) as u32;
            s.apply(i, &GraphDelta::adding([Edge::unit(v, (v + 3) % 8)]))
                .unwrap();
        }
        assert!(!s.has_spills());
        assert!(!ShardCapacity::default().is_limited());
        for sh in 0..s.num_shards() {
            assert_eq!(s.shard(sh).num_spilled(), 0);
        }
    }

    thread_local! {
        /// The width every `apply` on this thread uses instead of its
        /// own (`None` = [`apply_width`]'s).
        pub(super) static FORCED_WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Runs `f` with every `apply` on this thread at `width`, whatever
    /// the host and the delta size would pick.
    fn at_width<T>(width: usize, f: impl FnOnce() -> T) -> T {
        FORCED_WIDTH.with(|w| w.set(Some(width)));
        let out = f();
        FORCED_WIDTH.with(|w| w.set(None));
        out
    }

    /// The apply width is the host's CPUs, clamped by the affected
    /// partitions and by one thread per 8192 rebuild edges, and never 0.
    #[test]
    fn apply_width_follows_host_units_and_work() {
        const EDGES: [usize; 4] = [0, 8191, 16384, 1_000_000];
        // Per host CPU count, one row per units {0, 1, 5}: the width
        // at each of EDGES.
        let table: [(usize, [[usize; 4]; 3]); 3] = [
            (1, [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]]),
            (2, [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 2, 2]]),
            (8, [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 2, 5]]),
        ];
        for (cpus, rows) in table {
            for (units, row) in [0, 1, 5].into_iter().zip(rows) {
                for (edges, want) in EDGES.into_iter().zip(row) {
                    assert_eq!(
                        apply_width(cpus, units, edges),
                        want,
                        "cpus {cpus} units {units} edges {edges}"
                    );
                }
            }
        }
        assert!(host_cpus() >= 1);
    }

    /// Every item is claimed once and its result lands in item order at
    /// any width, including mutable items and widths above the item
    /// count; a panicking item fails the whole call.
    #[test]
    fn fan_out_keeps_item_order_and_reports_a_panic() {
        for width in [0, 1, 2, 4, 8] {
            let mut items: Vec<u64> = (0..40).collect();
            let doubled = fan_out(width, items.iter_mut(), |x| {
                *x += 1;
                *x * 2
            });
            let want: Vec<u64> = (1..=40).map(|x| x * 2).collect();
            assert_eq!(doubled, Some(want), "width {width}");
            assert_eq!(items, (1..=40).collect::<Vec<u64>>(), "width {width}");
            let failed = fan_out(width, 0..40u64, |x| {
                assert_ne!(x, 17, "injected item panic");
                x
            });
            assert_eq!(failed, None, "width {width}");
        }
    }

    /// Concurrent apply is bit-identical to serial apply: same records,
    /// versions, views, and resident accounting at any width.
    #[test]
    fn concurrent_apply_matches_serial_bit_for_bit() {
        let build = |width: usize, shards: usize| {
            let el = GraphBuilder::new(16)
                .edges((0..16u32).map(|v| (v, (v + 1) % 16)))
                .build();
            let mut s = ShardedSnapshotStore::with_shards(
                VertexCutPartitioner::new(8).partition(&el),
                shards,
            );
            for i in 1..=12u64 {
                // Each delta spans several partitions so the fan-out is real.
                let d = GraphDelta::adding([
                    Edge::unit((i % 16) as u32, ((i + 5) % 16) as u32),
                    Edge::unit(((i + 8) % 16) as u32, ((i + 2) % 16) as u32),
                    Edge::unit(((i + 4) % 16) as u32, ((i + 11) % 16) as u32),
                ]);
                at_width(width, || s.apply(i, &d)).unwrap();
            }
            Arc::new(s)
        };
        // The exact field dump: edges, CSR order and per-replica master
        // metadata (what the master patch writes).
        let dump = |p: &Partition| {
            let mut out = Vec::new();
            p.encode(&mut out);
            out
        };
        let serial = build(1, 4);
        for (width, shards) in [(2, 4), (4, 4), (8, 4), (4, 1)] {
            let par = build(width, shards);
            assert_eq!(par.override_bytes(), build(1, shards).override_bytes());
            for ts in 0..=12u64 {
                let a = serial.view_at(ts);
                let b = par.view_at(ts);
                for pid in 0..8 {
                    assert_eq!(a.version_of(pid), b.version_of(pid), "ts {ts} pid {pid}");
                    assert_eq!(
                        dump(a.partition(pid)),
                        dump(b.partition(pid)),
                        "w {width} ts {ts} pid {pid}"
                    );
                }
                for v in 0..16 {
                    assert_eq!(a.master_of(v), b.master_of(v));
                    assert_eq!(a.replicas_of(v), b.replicas_of(v));
                    assert_eq!(a.degree_of(v), b.degree_of(v));
                }
            }
        }
        // Errors surface identically: the smallest affected pid's
        // edge-not-found wins at every width, also when a second
        // partition fails in the same delta.
        let bad = GraphDelta {
            additions: vec![Edge::unit(0, 2), Edge::unit(4, 6)],
            removals: vec![(0, 1), (0, 1)],
        };
        let two_bad = GraphDelta::removing([(4, 5), (4, 5), (0, 1), (0, 1)]);
        for delta in [bad, two_bad] {
            let serial_err = at_width(1, || store_mut().apply(1, &delta)).unwrap_err();
            assert_eq!(serial_err, SnapshotError::EdgeNotFound(0, 1).into());
            for width in [2, 4, 8] {
                let err = at_width(width, || store_mut().apply(1, &delta)).unwrap_err();
                assert_eq!(err, serial_err, "w {width}");
            }
        }
    }

    /// The default policy keeps resident bytes far below the EveryK(1)
    /// cumulative layout on a long chain.
    #[test]
    fn layered_chain_is_smaller_than_cumulative() {
        let run = |policy: CompactionPolicy| {
            let mut s = store_mut().with_compaction(policy);
            for i in 1..=40u64 {
                let v = (i % 7) as u32;
                s.apply(i, &GraphDelta::adding([Edge::unit(v, (v + 3) % 8)]))
                    .unwrap();
            }
            s.override_bytes()
        };
        let layered = run(CompactionPolicy::default());
        let cumulative = run(CompactionPolicy::EveryK(1));
        assert!(
            layered * 2 <= cumulative,
            "layered {layered} vs cumulative {cumulative}"
        );
    }
}
