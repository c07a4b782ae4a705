//! `core::obs` — zero-cost-when-disabled tracing and metrics.
//!
//! The engine is a concurrent pipeline (a plan-order install stage, a
//! trigger drain, WAL fsyncs, capacity spills, admission waves); this
//! module is its flight recorder.  Two planes share one [`Observer`]:
//!
//! * **Event tracing** — each pipeline thread gets a [`Recorder`]
//!   backed by its own bounded lock-free [`Ring`] of typed span
//!   [`Event`]s (install, trigger chunk, push, apply rebuild, WAL
//!   append/fsync, spill/rehydrate, admission defer/release), each
//!   stamped with (thread, job, shard, round, monotonic ns).
//!   [`Observer::dump`] drains every ring into a [`TraceDump`]
//!   exportable as Chrome `trace_event` JSON (`about://tracing`-loadable)
//!   or compact JSONL.
//! * **Metrics** — a [`Registry`] of counters, gauges, and
//!   log-bucketed [`Histogram`]s (p50/p99/max without storing samples),
//!   exportable as a one-call JSON snapshot or a Prometheus text page.
//!
//! # Zero cost when disabled
//!
//! Instrumentation sites never pay for tracing they did not ask for.
//! [`Observer::disabled`] hands out recorders whose ring is `None`;
//! every site is written as
//!
//! ```text
//! let t0 = rec.start();            // None-check + one clock read, or 0
//! /* ... the actual work ... */
//! rec.complete(kind, job, shard, round, t0, value);  // no-op when off
//! ```
//!
//! so the disabled fast path is one branch on an always-`None` option —
//! no clock read, no atomic, no allocation.  Nothing the recorder does
//! feeds back into scheduling, charging, or results: it only *reads*
//! the wall clock and appends to its private ring, which is why every
//! pinned bit-for-bit differential suite passes identically with
//! tracing on (checked by `tests/observability.rs`).
//!
//! # Lock-freedom
//!
//! Hot-path recording takes no lock anywhere: ring pushes are plain
//! atomic word stores (see [`ring`]), histogram/counter updates are
//! relaxed `fetch_add`s on pre-fetched handles (see [`registry`]).
//! Locks appear only on cold paths — registering a ring, name→handle
//! lookup, draining, exporting — and in the [store
//! bridge](Observer::store_observer), whose events are per-`apply`
//! rather than per-edge and may arrive from concurrent rehydrating
//! threads.
//!
//! # Overhead
//!
//! The repo benchmark's traced repetition reports the traced-over-
//! untraced wall ratio as `obs.trace_overhead` (`benchmark/`, every
//! workload run with `--trace 1`); the disabled configuration is one
//! branch on an always-`None` option per site, within run-to-run noise
//! (≤1%).

pub mod event;
pub mod hist;
pub mod json;
pub mod registry;
pub mod ring;
pub mod sink;

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

pub use event::{Event, EventKind, NONE};
pub use hist::Histogram;
pub use json::{parse_json, JsonValue};
pub use registry::{Counter, Gauge, Registry};
pub use ring::Ring;
pub use sink::TraceDump;

/// The shared tracing + metrics hub.  Construct once per run with
/// [`Observer::enabled`] (or [`disabled`](Observer::disabled)), hand
/// the `Arc` to `EngineConfig::observer` / `ServeLoop::with_observer` /
/// `ShardedSnapshotStore::with_observer`, then export with
/// [`dump`](Observer::dump) and [`Registry`] exporters.
pub struct Observer {
    on: bool,
    epoch: Instant,
    ring_events: usize,
    registry: Registry,
    rings: Mutex<Vec<Arc<Ring>>>,
}

impl Observer {
    /// An enabled observer with the default per-thread ring capacity.
    pub fn enabled() -> Arc<Observer> {
        Observer::with_ring_capacity(ring::DEFAULT_RING_EVENTS)
    }

    /// An enabled observer whose per-thread rings hold `events` events
    /// (rounded up to a power of two) before drop-oldest engages.
    pub fn with_ring_capacity(events: usize) -> Arc<Observer> {
        Arc::new(Observer {
            on: true,
            epoch: Instant::now(),
            ring_events: events,
            registry: Registry::new(),
            rings: Mutex::new(Vec::new()),
        })
    }

    /// The no-op observer: recorders it hands out are permanently off,
    /// and the registry stays empty unless someone writes to it
    /// directly.
    pub fn disabled() -> Arc<Observer> {
        Arc::new(Observer {
            on: false,
            epoch: Instant::now(),
            ring_events: 0,
            registry: Registry::new(),
            rings: Mutex::new(Vec::new()),
        })
    }

    /// Whether tracing is live.
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds since this observer was constructed.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The metrics registry (usable even when tracing is disabled, but
    /// engine instrumentation only writes to it when enabled).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Creates (and registers) a recorder for the named thread.  On a
    /// disabled observer this is free and the recorder is permanently
    /// off.
    pub fn recorder(&self, thread_name: &str) -> Recorder {
        if !self.on {
            return Recorder { ring: None, tid: 0, epoch: self.epoch };
        }
        let mut rings = self.rings.lock();
        let tid = rings.len() as u16;
        let ring = Arc::new(Ring::new(thread_name, self.ring_events));
        rings.push(Arc::clone(&ring));
        Recorder { ring: Some(ring), tid, epoch: self.epoch }
    }

    /// Total events lost to ring overflow across all threads so far.
    pub fn dropped_events(&self) -> u64 {
        self.rings.lock().iter().map(|r| r.dropped()).sum()
    }

    /// Drains every ring into one timestamp-sorted snapshot.  Call
    /// between rounds / after a run; see [`ring`] for the quiescence
    /// contract.
    pub fn dump(&self) -> TraceDump {
        let rings = self.rings.lock();
        let mut threads = Vec::with_capacity(rings.len());
        let mut events = Vec::new();
        let mut dropped = 0;
        for ring in rings.iter() {
            threads.push(ring.name().to_string());
            dropped += ring.dropped();
            events.extend(ring.drain());
        }
        events.sort_by_key(|e| e.start_ns);
        TraceDump { threads, events, dropped_events: dropped }
    }

    /// A [`cgraph_graph::obs::StoreObserver`] bridge feeding this
    /// observer: attach it with `ShardedSnapshotStore::with_observer`
    /// to capture apply / WAL / spill / rehydrate signals.  Store
    /// events go through one mutex-guarded recorder (they are
    /// per-`apply`, not per-edge, and rehydrates can be concurrent).
    pub fn store_observer(self: &Arc<Self>) -> Arc<dyn cgraph_graph::obs::StoreObserver> {
        Arc::new(StoreBridge { rec: Mutex::new(self.recorder("store")), obs: Arc::clone(self) })
    }
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observer")
            .field("enabled", &self.on)
            .field("rings", &self.rings.lock().len())
            .finish()
    }
}

/// One thread's handle into the observer: an optional ring plus the
/// shared epoch.  All methods are no-ops (one `Option` branch) when the
/// observer is disabled.
pub struct Recorder {
    ring: Option<Arc<Ring>>,
    tid: u16,
    epoch: Instant,
}

impl Recorder {
    /// Whether this recorder writes anywhere.
    #[inline]
    pub fn on(&self) -> bool {
        self.ring.is_some()
    }

    /// Span-start helper: current ns when on, 0 when off (the matching
    /// [`complete`](Recorder::complete) is a no-op then anyway).
    #[inline]
    pub fn start(&self) -> u64 {
        if self.ring.is_some() {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records a span that started at `start_ns` (from
    /// [`start`](Recorder::start)) and ends now.
    #[inline]
    pub fn complete(
        &self,
        kind: EventKind,
        job: u32,
        shard: u32,
        round: u32,
        start_ns: u64,
        value: u64,
    ) {
        if let Some(ring) = &self.ring {
            let now = self.epoch.elapsed().as_nanos() as u64;
            ring.push(&Event {
                kind,
                thread: self.tid,
                job,
                shard,
                round,
                start_ns,
                dur_ns: now.saturating_sub(start_ns),
                value,
            });
        }
    }

    /// Records an instant (zero-duration) event happening now.
    #[inline]
    pub fn instant(&self, kind: EventKind, job: u32, shard: u32, round: u32, value: u64) {
        if let Some(ring) = &self.ring {
            let now = self.epoch.elapsed().as_nanos() as u64;
            ring.push(&Event {
                kind,
                thread: self.tid,
                job,
                shard,
                round,
                start_ns: now,
                dur_ns: 0,
                value,
            });
        }
    }

    /// Records a span that ended now and lasted `dur_ns` (for call
    /// sites that measured the duration themselves).
    #[inline]
    pub fn complete_with_dur(
        &self,
        kind: EventKind,
        job: u32,
        shard: u32,
        round: u32,
        dur_ns: u64,
        value: u64,
    ) {
        if let Some(ring) = &self.ring {
            let now = self.epoch.elapsed().as_nanos() as u64;
            ring.push(&Event {
                kind,
                thread: self.tid,
                job,
                shard,
                round,
                start_ns: now.saturating_sub(dur_ns),
                dur_ns,
                value,
            });
        }
    }
}

/// Bridges [`cgraph_graph::obs::StoreObserver`] hooks into the
/// observer's rings and registry.
struct StoreBridge {
    obs: Arc<Observer>,
    rec: Mutex<Recorder>,
}

fn shard_u32(shard: Option<usize>) -> u32 {
    shard.map_or(NONE, |s| s as u32)
}

impl cgraph_graph::obs::StoreObserver for StoreBridge {
    fn apply_rebuild(&self, shard: usize, version: u64, partitions: usize, micros: u64) {
        let r = self.obs.registry();
        r.counter("store_applies").inc();
        r.histogram("store_apply_us").record(micros);
        r.histogram(&format!("store_apply_us_shard{shard}"))
            .record(micros);
        self.rec.lock().complete_with_dur(
            EventKind::ApplyRebuild,
            NONE,
            shard as u32,
            version.min(u32::MAX as u64) as u32,
            micros * 1000,
            partitions as u64,
        );
    }

    fn wal_append(&self, shard: Option<usize>, bytes: u64, micros: u64) {
        let r = self.obs.registry();
        r.counter("wal_append_bytes").add(bytes);
        r.histogram("wal_append_us").record(micros);
        self.rec.lock().complete_with_dur(
            EventKind::WalAppend,
            NONE,
            shard_u32(shard),
            NONE,
            micros * 1000,
            bytes,
        );
    }

    fn wal_fsync(&self, shard: Option<usize>, micros: u64) {
        let r = self.obs.registry();
        r.counter("wal_fsyncs").inc();
        r.histogram("wal_fsync_us").record(micros);
        match shard {
            Some(s) => r
                .histogram(&format!("wal_fsync_us_shard{s}"))
                .record(micros),
            None => r.histogram("wal_fsync_us_manifest").record(micros),
        };
        self.rec.lock().complete_with_dur(
            EventKind::WalFsync,
            NONE,
            shard_u32(shard),
            NONE,
            micros * 1000,
            0,
        );
    }

    fn spill(&self, shard: usize, bytes: u64) {
        let r = self.obs.registry();
        r.counter("store_spill_bytes").add(bytes);
        r.histogram(&format!("store_spill_bytes_shard{shard}"))
            .record(bytes);
        self.rec
            .lock()
            .instant(EventKind::Spill, NONE, shard as u32, NONE, bytes);
    }

    fn rehydrate(&self, shard: usize, bytes: u64, micros: u64) {
        let r = self.obs.registry();
        r.counter("store_rehydrate_bytes").add(bytes);
        r.histogram("store_rehydrate_us").record(micros);
        self.rec.lock().complete_with_dur(
            EventKind::Rehydrate,
            NONE,
            shard as u32,
            NONE,
            micros * 1000,
            bytes,
        );
    }

    fn checkpoint_walk(&self, records: u64, micros: u64) {
        let r = self.obs.registry();
        r.counter("store_checkpoints").inc();
        r.histogram("store_checkpoint_us").record(micros);
        self.rec.lock().complete_with_dur(
            EventKind::Checkpoint,
            NONE,
            NONE,
            NONE,
            micros * 1000,
            records,
        );
    }

    fn recovery_replay(&self, frames: u64, bytes: u64, micros: u64) {
        let r = self.obs.registry();
        r.counter("wal_replay_frames").add(frames);
        r.counter("wal_replay_bytes").add(bytes);
        // Replay rate in frames/second (what recovery dashboards watch).
        if micros > 0 {
            r.gauge("wal_replay_frames_per_s")
                .set(frames as f64 / (micros as f64 / 1e6));
        }
        self.rec.lock().complete_with_dur(
            EventKind::RecoveryReplay,
            NONE,
            NONE,
            NONE,
            micros * 1000,
            frames,
        );
    }

    fn footprint(&self, shard: usize, resident_bytes: u64, spilled_bytes: u64) {
        let r = self.obs.registry();
        r.gauge(&format!("store_resident_bytes_shard{shard}"))
            .set(resident_bytes as f64);
        r.gauge(&format!("store_spilled_bytes_shard{shard}"))
            .set(spilled_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let obs = Observer::disabled();
        let rec = obs.recorder("main");
        assert!(!rec.on());
        assert_eq!(rec.start(), 0);
        rec.complete(EventKind::Install, 1, 2, 3, 0, 4);
        rec.instant(EventKind::Push, NONE, NONE, 0, 0);
        let dump = obs.dump();
        assert!(dump.events.is_empty());
        assert!(dump.threads.is_empty());
        assert_eq!(obs.dropped_events(), 0);
    }

    #[test]
    fn enabled_records_and_dump_sorts() {
        let obs = Observer::enabled();
        let a = obs.recorder("alpha");
        let b = obs.recorder("beta");
        let t0 = a.start();
        b.instant(EventKind::Push, NONE, NONE, 0, 0);
        a.complete(EventKind::Install, 3, 1, 0, t0, 9);
        let dump = obs.dump();
        assert_eq!(dump.threads, vec!["alpha".to_string(), "beta".to_string()]);
        assert_eq!(dump.events.len(), 2);
        assert!(dump
            .events
            .windows(2)
            .all(|w| w[0].start_ns <= w[1].start_ns));
        // A second dump finds the rings drained.
        assert!(obs.dump().events.is_empty());
    }

    #[test]
    fn store_bridge_feeds_registry_and_ring() {
        let obs = Observer::enabled();
        let bridge = obs.store_observer();
        bridge.apply_rebuild(2, 10, 16, 120);
        bridge.wal_fsync(Some(2), 50);
        bridge.wal_fsync(None, 30);
        bridge.spill(1, 4096);
        bridge.recovery_replay(100, 1 << 20, 2000);
        let js = obs.registry().metrics_json();
        let v = parse_json(&js).unwrap();
        let hists = v.get("histograms").unwrap();
        assert!(hists.get("store_apply_us_shard2").is_some());
        assert!(hists.get("wal_fsync_us_shard2").is_some());
        assert!(hists.get("store_spill_bytes_shard1").is_some());
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("wal_replay_frames_per_s")
                .unwrap()
                .as_f64(),
            Some(50_000.0)
        );
        let dump = obs.dump();
        assert_eq!(dump.events.len(), 5);
        assert!(dump
            .events
            .iter()
            .any(|e| e.kind == EventKind::ApplyRebuild && e.shard == 2));
    }
}
