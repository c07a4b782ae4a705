//! `core::fault` — the seeded, deterministic fault-injection plane.
//!
//! Production log-analysis pipelines live or die by how they degrade:
//! a transient I/O error must be retried, a failing shard must be
//! routed around, and a flash crowd must be shed — not crash the
//! engine.  This module makes every I/O boundary in the workspace
//! fallible *on demand*, from a reproducible schedule:
//!
//! * **Shard fetch** (the engine's Load stage) — the fallible
//!   boundary.  Each planned slot's fetch is
//!   admitted through `FaultPlane::admit_fetch` on the main thread
//!   before the round executes: transient faults are retried up to
//!   [`FaultConfig::max_attempts`] tries (fixed exponential backoff,
//!   deterministic jitter and per-attempt timeout, all in *modeled*
//!   seconds), retries are charged into the `ChargeLedger` as disk
//!   re-reads, and an
//!   exhausted budget surfaces as a typed [`FaultError`] that
//!   quarantines the slot's jobs instead of aborting the engine.
//! * **Store boundaries** (WAL append/fsync, spill rehydrate, apply
//!   rebuild) — fail-open.  The plane implements
//!   [`cgraph_graph::fault::FaultInjector`]; attach it with
//!   `ShardedSnapshotStore::with_faults` and every durable operation
//!   draws its fault schedule, accounting retries and modeled latency
//!   spikes without ever failing the operation (read paths are
//!   infallible by contract, and a permanent WAL fault models a crash —
//!   the recovery suite's territory, driven by the file harness
//!   re-exported below).
//! * **Trigger workers** — [`FaultConfig::panic_chunk`] injects a panic
//!   into the trigger pass when it processes a chosen partition (for
//!   any job), exercising the worker-death path (`Engine::exec_error`)
//!   end to end.
//!
//! # Determinism
//!
//! Every fault decision is a *pure stateless hash* of
//! `(seed, boundary, stable coordinates, attempt)` — SplitMix64-style
//! mixing, no shared counters, no wall clock.  Two runs with the same
//! seed and the same workload draw identical schedules regardless of
//! thread interleaving, channel capacities, or shard counts, so the
//! chaos differential suite can require completed-job results to be
//! bit-identical to a fault-free run.  Backoff, jitter, and latency
//! spikes are modeled (virtual) seconds folded into the engine's
//! pipeline clock — never `thread::sleep`.
//!
//! # Circuit breakers
//!
//! Per-lane breakers guard the fetch boundary: after
//! [`BreakerConfig::trip_after`] consecutive faulty fetches a lane's
//! breaker opens and fetches are *rerouted* — priced as spill/disk
//! re-fetches that always succeed — for
//! [`BreakerConfig::cooldown_ops`] operations, then a half-open probe
//! lets one real draw through: success closes the breaker, a fault
//! reopens it.  Breakers convert fault storms into latency instead of
//! quarantine storms.
//!
//! # Zero cost when disabled
//!
//! [`FaultPlane::disabled`] (and an engine config with no plane, the
//! default) reduces every injection site to one branch on an
//! always-`None` option — the same idiom as [`crate::obs`] — so every
//! pinned bit-for-bit suite and both tracing-overhead gates are
//! untouched (pinned by `tests/chaos.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cgraph_graph::fault::{FaultInjector, StoreFaultBoundary};
use cgraph_graph::PartitionId;

use crate::lock;

pub use cgraph_graph::fault::{file_len, flip_bit, truncate_at, FaultPlan, FaultyFile};

/// Which I/O boundary a fault was injected at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultBoundary {
    /// The engine's Load stage: one planned slot's structure fetch.
    ShardFetch,
    /// A spilled payload read back through the shard segment.
    SpillRehydrate,
    /// A WAL segment append.
    WalAppend,
    /// A WAL segment fsync.
    WalFsync,
    /// One snapshot-store apply (record append + index rebuild).
    ApplyRebuild,
}

impl FaultBoundary {
    /// Stable human-readable name for reports and stats.
    pub fn name(self) -> &'static str {
        match self {
            FaultBoundary::ShardFetch => "shard_fetch",
            FaultBoundary::SpillRehydrate => "spill_rehydrate",
            FaultBoundary::WalAppend => "wal_append",
            FaultBoundary::WalFsync => "wal_fsync",
            FaultBoundary::ApplyRebuild => "apply_rebuild",
        }
    }

    /// Domain-separation tag folded into every hash draw, so the same
    /// coordinates at different boundaries draw independent schedules.
    fn tag(self) -> u64 {
        match self {
            FaultBoundary::ShardFetch => 0x5348_4644, // "SHFD"
            FaultBoundary::SpillRehydrate => 0x5245_4859,
            FaultBoundary::WalAppend => 0x5741_5041,
            FaultBoundary::WalFsync => 0x5741_4653,
            FaultBoundary::ApplyRebuild => 0x4150_4C59,
        }
    }
}

/// The kind of an injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Would have succeeded on retry; fatal only when the retry budget
    /// is exhausted.
    Transient,
    /// Unretryable: fails the operation on the first draw.
    Permanent,
}

/// Typed error for an operation the fault plane failed: either a
/// permanent fault fired, or every attempt of the retry budget drew a
/// transient fault.  At the fetch boundary this quarantines the slot's
/// jobs; store boundaries are fail-open and never surface it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultError {
    /// The boundary that failed.
    pub boundary: FaultBoundary,
    /// Transient-exhausted or permanent.
    pub kind: FaultKind,
    /// Attempts made (1 for a permanent fault).
    pub attempts: u32,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            FaultKind::Transient => write!(
                f,
                "injected transient fault at {} exhausted {} attempts",
                self.boundary.name(),
                self.attempts
            ),
            FaultKind::Permanent => {
                write!(f, "injected permanent fault at {}", self.boundary.name())
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Backoff before the first retry, in modeled seconds.  Retry timing
/// is fixed; only [`FaultConfig::max_attempts`] is configurable.  All
/// durations are modeled (virtual) seconds — the plane never sleeps.
const BACKOFF_BASE: f64 = 1e-3;
/// Multiplier applied to the backoff per further retry.
const BACKOFF_MULT: f64 = 2.0;
/// Fraction of each backoff drawn as deterministic jitter: the modeled
/// wait is `backoff * (1 - JITTER + JITTER * u)` with `u` a per-attempt
/// unit hash.
const JITTER: f64 = 0.5;
/// Modeled seconds a faulted attempt burns before it is declared
/// failed (the per-attempt timeout).
const ATTEMPT_TIMEOUT: f64 = 5e-3;

/// Modeled wait before retry `attempt` (1-based), jittered by the unit
/// hash `u` in `[0, 1)`.
fn backoff_seconds(attempt: u32, u: f64) -> f64 {
    let base = BACKOFF_BASE * BACKOFF_MULT.powi(attempt.saturating_sub(1) as i32);
    base * (1.0 - JITTER + JITTER * u)
}

/// Per-lane circuit-breaker tuning for the fetch boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive faulty fetches on one lane before its breaker opens
    /// (0 disables breakers entirely).
    pub trip_after: u32,
    /// Fetches rerouted (spill-priced, always succeeding) while open
    /// before the breaker half-opens for a probe.
    pub cooldown_ops: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { trip_after: 4, cooldown_ops: 8 }
    }
}

/// Full fault-plane configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Root of every hash draw; same seed + same workload = same
    /// schedule, bit for bit.
    pub seed: u64,
    /// Probability a fetch attempt draws a transient fault.
    pub fetch_rate: f64,
    /// Probability a fetch *operation* draws a permanent fault
    /// (checked once, before the transient loop).
    pub permanent_rate: f64,
    /// Probability a store-side operation attempt (WAL append/fsync,
    /// rehydrate, apply) draws a transient fault.  Fail-open: retried
    /// to success with retry/latency accounting only.
    pub store_rate: f64,
    /// Probability an otherwise-clean attempt draws a modeled latency
    /// spike of [`spike_seconds`](Self::spike_seconds).
    pub spike_rate: f64,
    /// Modeled seconds one latency spike adds.
    pub spike_seconds: f64,
    /// Total tries per operation at every boundary, the first
    /// included; clamped to ≥ 1.
    pub max_attempts: u32,
    /// Per-lane fetch circuit breakers.
    pub breaker: BreakerConfig,
    /// Inject a panic into the executor's trigger stage when it
    /// processes this partition — the worker-death drill.
    pub panic_chunk: Option<PartitionId>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            fetch_rate: 0.0,
            permanent_rate: 0.0,
            store_rate: 0.0,
            spike_rate: 0.0,
            spike_seconds: 0.0,
            max_attempts: 4,
            breaker: BreakerConfig::default(),
            panic_chunk: None,
        }
    }
}

/// Point-in-time copy of the plane's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient faults injected (every faulted attempt, all
    /// boundaries).
    pub injected: u64,
    /// Retries performed after a transient fault (= faulted attempts
    /// that were followed by another try).
    pub retries: u64,
    /// Operations that exhausted their retry budget or drew a
    /// permanent fault.  Fetch-side these quarantine jobs; store-side
    /// they are absorbed (fail-open) and only counted.
    pub exhausted: u64,
    /// Latency spikes injected.
    pub spikes: u64,
    /// Fetches rerouted to spill pricing by an open breaker.
    pub rerouted: u64,
    /// Breaker open transitions.
    pub breaker_trips: u64,
    /// Half-open probes that closed a breaker again.
    pub breaker_recoveries: u64,
    /// Modeled delay injected across all boundaries, in microseconds
    /// (backoff + attempt timeouts + spikes).
    pub delay_micros: u64,
}

#[derive(Default)]
struct AtomicStats {
    injected: AtomicU64,
    retries: AtomicU64,
    exhausted: AtomicU64,
    spikes: AtomicU64,
    rerouted: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_recoveries: AtomicU64,
    delay_micros: AtomicU64,
}

/// One lane's breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Breaker {
    Closed { consecutive: u32 },
    Open { remaining: u32 },
    HalfOpen,
}

/// What the plane's fetch admission granted: the fetch proceeds, with
/// this much injected friction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FetchAdmission {
    /// Retries the fetch burned before succeeding.
    pub retries: u32,
    /// Modeled seconds of injected delay (timeouts + backoff + spike).
    pub delay_seconds: f64,
    /// The lane's breaker was open: the fetch was rerouted to
    /// spill/disk re-fetch pricing without drawing the schedule.
    pub rerouted: bool,
}

/// The seeded, deterministic fault plane.  Construct with
/// [`new`](Self::new), share via `Arc` between `EngineConfig::faults`
/// and `ShardedSnapshotStore::with_faults`, read the damage with
/// [`stats`](Self::stats).
pub struct FaultPlane {
    cfg: FaultConfig,
    enabled: bool,
    stats: AtomicStats,
    /// Per-lane fetch breakers; only the engine main thread touches
    /// them (fetch admission is main-thread), the mutex is for `Sync`.
    breakers: Mutex<Vec<Breaker>>,
}

impl std::fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlane")
            .field("enabled", &self.enabled)
            .field("cfg", &self.cfg)
            .finish()
    }
}

/// SplitMix64 finalizer: the stateless mix behind every draw.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hashes the draw coordinates into a unit interval value.
#[inline]
fn unit(seed: u64, tag: u64, a: u64, b: u64, c: u64, attempt: u32) -> f64 {
    let mut h = mix64(seed ^ tag.wrapping_mul(0x9E3779B97F4A7C15));
    h = mix64(h ^ a);
    h = mix64(h ^ b.rotate_left(17));
    h = mix64(h ^ c.rotate_left(31));
    h = mix64(h ^ attempt as u64);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlane {
    /// A plane drawing from `cfg`'s schedule.  A configuration that can
    /// never inject anything (all rates zero, no panic coordinate) makes
    /// an inert plane, indistinguishable from [`disabled`](Self::disabled)
    /// — so "clean" control runs can share the chaos construction path.
    pub fn new(cfg: FaultConfig) -> Arc<FaultPlane> {
        let enabled = cfg.fetch_rate > 0.0
            || cfg.permanent_rate > 0.0
            || cfg.store_rate > 0.0
            || cfg.spike_rate > 0.0
            || cfg.panic_chunk.is_some();
        Arc::new(FaultPlane {
            cfg,
            enabled,
            stats: AtomicStats::default(),
            breakers: Mutex::new(Vec::new()),
        })
    }

    /// The inert plane: every injection site reduces to one branch, no
    /// draw ever happens, results are bit-identical to no plane at all.
    pub fn disabled() -> Arc<FaultPlane> {
        Arc::new(FaultPlane {
            cfg: FaultConfig::default(),
            enabled: false,
            stats: AtomicStats::default(),
            breakers: Mutex::new(Vec::new()),
        })
    }

    /// Whether this plane draws at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The configuration this plane draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Snapshot of the damage counters so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            injected: self.stats.injected.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            exhausted: self.stats.exhausted.load(Ordering::Relaxed),
            spikes: self.stats.spikes.load(Ordering::Relaxed),
            rerouted: self.stats.rerouted.load(Ordering::Relaxed),
            breaker_trips: self.stats.breaker_trips.load(Ordering::Relaxed),
            breaker_recoveries: self.stats.breaker_recoveries.load(Ordering::Relaxed),
            delay_micros: self.stats.delay_micros.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn add_delay(&self, seconds: f64) {
        if seconds > 0.0 {
            self.stats
                .delay_micros
                .fetch_add((seconds * 1e6) as u64, Ordering::Relaxed);
        }
    }

    /// Whether the trigger pass must panic on partition `pid` (the
    /// injected worker-death drill).
    pub(crate) fn should_panic_chunk(&self, pid: PartitionId) -> bool {
        self.enabled && self.cfg.panic_chunk == Some(pid)
    }

    /// Runs the transient retry loop for one operation at `boundary`
    /// with stable coordinates `(a, b, c)` and per-attempt fault
    /// probability `rate`.  Returns `Ok((retries, delay))` when an
    /// attempt succeeds, `Err` when the budget is exhausted.
    fn run_attempts(
        &self,
        boundary: FaultBoundary,
        rate: f64,
        a: u64,
        b: u64,
        c: u64,
    ) -> Result<(u32, f64), FaultError> {
        let max = self.cfg.max_attempts.max(1);
        let tag = boundary.tag();
        let mut delay = 0.0;
        for attempt in 0..max {
            let faulted = rate > 0.0 && unit(self.cfg.seed, tag, a, b, c, attempt) < rate;
            if !faulted {
                // Clean attempt — maybe a latency spike (independent
                // sub-draw, domain-separated by the attempt's high bit).
                if self.cfg.spike_rate > 0.0
                    && unit(self.cfg.seed, tag ^ 0x5350_4B45, a, b, c, attempt)
                        < self.cfg.spike_rate
                {
                    self.stats.spikes.fetch_add(1, Ordering::Relaxed);
                    delay += self.cfg.spike_seconds;
                }
                self.add_delay(delay);
                return Ok((attempt, delay));
            }
            self.stats.injected.fetch_add(1, Ordering::Relaxed);
            delay += ATTEMPT_TIMEOUT;
            if attempt + 1 < max {
                self.stats.retries.fetch_add(1, Ordering::Relaxed);
                let u = unit(self.cfg.seed, tag ^ 0x4A49_5454, a, b, c, attempt);
                delay += backoff_seconds(attempt + 1, u);
            }
        }
        self.stats.exhausted.fetch_add(1, Ordering::Relaxed);
        self.add_delay(delay);
        Err(FaultError { boundary, kind: FaultKind::Transient, attempts: max })
    }

    /// Admits one planned slot fetch on `lane` (main thread, before the
    /// round executes).  `pid`/`version`/`round` are the stable draw
    /// coordinates.  Breaker logic wraps the retry loop: an open
    /// breaker reroutes without drawing; an exhausted budget or a
    /// permanent fault trips the lane's consecutive-fault counter and
    /// surfaces a typed [`FaultError`].
    pub(crate) fn admit_fetch(
        &self,
        lane: usize,
        pid: u64,
        version: u64,
        round: u64,
    ) -> Result<FetchAdmission, FaultError> {
        if !self.enabled {
            return Ok(FetchAdmission::default());
        }
        let mut breakers = lock(&self.breakers);
        if breakers.len() <= lane {
            breakers.resize(lane + 1, Breaker::Closed { consecutive: 0 });
        }
        let trip_after = self.cfg.breaker.trip_after;
        match breakers[lane] {
            Breaker::Open { remaining } if trip_after > 0 => {
                self.stats.rerouted.fetch_add(1, Ordering::Relaxed);
                breakers[lane] = if remaining <= 1 {
                    Breaker::HalfOpen
                } else {
                    Breaker::Open { remaining: remaining - 1 }
                };
                return Ok(FetchAdmission { retries: 0, delay_seconds: 0.0, rerouted: true });
            }
            _ => {}
        }
        let half_open = matches!(breakers[lane], Breaker::HalfOpen);
        let boundary = FaultBoundary::ShardFetch;
        // Permanent faults fail the operation outright, before retries.
        let permanent = self.cfg.permanent_rate > 0.0
            && unit(
                self.cfg.seed,
                boundary.tag() ^ 0x5045_524D,
                pid,
                version,
                round,
                0,
            ) < self.cfg.permanent_rate;
        let outcome = if permanent {
            self.stats.injected.fetch_add(1, Ordering::Relaxed);
            self.stats.exhausted.fetch_add(1, Ordering::Relaxed);
            Err(FaultError { boundary, kind: FaultKind::Permanent, attempts: 1 })
        } else {
            self.run_attempts(boundary, self.cfg.fetch_rate, pid, version, round)
                .map(|(retries, delay)| FetchAdmission {
                    retries,
                    delay_seconds: delay,
                    rerouted: false,
                })
        };
        match &outcome {
            Ok(adm) => {
                if half_open {
                    // Probe succeeded (possibly after retries): close.
                    self.stats
                        .breaker_recoveries
                        .fetch_add(1, Ordering::Relaxed);
                    breakers[lane] = Breaker::Closed { consecutive: 0 };
                } else if trip_after > 0 {
                    let consecutive = match breakers[lane] {
                        Breaker::Closed { consecutive } if adm.retries > 0 => consecutive + 1,
                        Breaker::Closed { .. } => 0,
                        _ => 0,
                    };
                    breakers[lane] = if consecutive >= trip_after {
                        self.stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
                        Breaker::Open { remaining: self.cfg.breaker.cooldown_ops.max(1) }
                    } else {
                        Breaker::Closed { consecutive }
                    };
                }
            }
            Err(_) if trip_after > 0 => {
                // Exhausted or permanent: trip (or re-trip) the lane.
                self.stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
                breakers[lane] = Breaker::Open { remaining: self.cfg.breaker.cooldown_ops.max(1) };
            }
            Err(_) => {}
        }
        outcome
    }
}

/// Store-side boundaries are fail-open: draw the schedule, account
/// retries and modeled latency, but never fail the operation (see the
/// module docs and [`cgraph_graph::fault`]).
impl FaultInjector for FaultPlane {
    fn store_op(&self, boundary: StoreFaultBoundary, shard: Option<usize>, key: u64) {
        if !self.enabled || (self.cfg.store_rate <= 0.0 && self.cfg.spike_rate <= 0.0) {
            return;
        }
        let boundary = match boundary {
            StoreFaultBoundary::WalAppend => FaultBoundary::WalAppend,
            StoreFaultBoundary::WalFsync => FaultBoundary::WalFsync,
            StoreFaultBoundary::Rehydrate => FaultBoundary::SpillRehydrate,
            StoreFaultBoundary::ApplyRebuild => FaultBoundary::ApplyRebuild,
        };
        let shard = shard.map_or(u64::MAX, |s| s as u64);
        // Exhaustion is absorbed (already counted by `run_attempts`):
        // the modeled interpretation is an operation that a crash-
        // consistency mechanism above us must cover, which the recovery
        // suite does with the file harness.
        let _ = self.run_attempts(boundary, self.cfg.store_rate, shard, key, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(fetch_rate: f64, max_attempts: u32) -> Arc<FaultPlane> {
        FaultPlane::new(FaultConfig {
            seed: 7,
            fetch_rate,
            max_attempts,
            breaker: BreakerConfig { trip_after: 0, cooldown_ops: 0 },
            ..FaultConfig::default()
        })
    }

    #[test]
    fn disabled_plane_draws_nothing() {
        let p = FaultPlane::disabled();
        for i in 0..100 {
            let adm = p.admit_fetch(0, i, 1, i).unwrap();
            assert_eq!(adm, FetchAdmission::default());
        }
        p.store_op(StoreFaultBoundary::WalAppend, None, 1);
        assert_eq!(p.stats(), FaultStats::default());
    }

    #[test]
    fn draws_replay_bit_for_bit() {
        let a = plane(0.3, 4);
        let b = plane(0.3, 4);
        for pid in 0..200u64 {
            let ra = a.admit_fetch((pid % 4) as usize, pid, 1, pid / 4);
            let rb = b.admit_fetch((pid % 4) as usize, pid, 1, pid / 4);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().injected > 0, "30% over 200 draws must fault");
    }

    #[test]
    fn interleaving_does_not_change_decisions() {
        // The same coordinates drawn in a different order produce the
        // same per-operation outcomes: decisions are stateless hashes.
        let a = plane(0.25, 3);
        let b = plane(0.25, 3);
        let fwd: Vec<_> = (0..64u64).map(|p| a.admit_fetch(0, p, 1, 0)).collect();
        let rev: Vec<_> = (0..64u64)
            .rev()
            .map(|p| b.admit_fetch(0, p, 1, 0))
            .collect();
        for (p, out) in fwd.iter().enumerate() {
            assert_eq!(*out, rev[63 - p], "pid {p}");
        }
    }

    #[test]
    fn exhaustion_is_typed_transient() {
        // Rate 1.0: every attempt faults, so every op exhausts.
        let p = plane(1.0, 3);
        let err = p.admit_fetch(0, 1, 1, 0).unwrap_err();
        assert_eq!(err.boundary, FaultBoundary::ShardFetch);
        assert_eq!(err.kind, FaultKind::Transient);
        assert_eq!(err.attempts, 3);
        assert_eq!(p.stats().exhausted, 1);
        assert_eq!(p.stats().injected, 3);
        assert_eq!(p.stats().retries, 2);
    }

    #[test]
    fn permanent_faults_skip_retries() {
        let p = FaultPlane::new(FaultConfig {
            seed: 1,
            permanent_rate: 1.0,
            breaker: BreakerConfig { trip_after: 0, cooldown_ops: 0 },
            ..FaultConfig::default()
        });
        let err = p.admit_fetch(0, 9, 2, 5).unwrap_err();
        assert_eq!(err.kind, FaultKind::Permanent);
        assert_eq!(err.attempts, 1);
    }

    #[test]
    fn breaker_trips_reroutes_and_recovers() {
        // Every draw faults but the budget is generous enough to
        // succeed with retries — each op counts as one consecutive
        // fault, tripping after 2, then 3 reroutes, then a half-open
        // probe that (still faulty-but-recovering) closes the breaker.
        let p = FaultPlane::new(FaultConfig {
            seed: 3,
            fetch_rate: 0.9,
            max_attempts: 64,
            breaker: BreakerConfig { trip_after: 2, cooldown_ops: 3 },
            ..FaultConfig::default()
        });
        let mut rerouted = 0;
        for op in 0..32u64 {
            let adm = p
                .admit_fetch(0, op, 1, op)
                .expect("64 attempts at 0.9 never exhaust");
            if adm.rerouted {
                rerouted += 1;
            }
        }
        let st = p.stats();
        assert!(st.breaker_trips > 0, "stats: {st:?}");
        assert_eq!(st.rerouted, rerouted);
        assert!(rerouted > 0);
        assert!(
            st.breaker_recoveries > 0,
            "half-open probe must close: {st:?}"
        );
    }

    #[test]
    fn half_open_probe_that_faults_again_reopens_the_breaker() {
        // Every drawn op faults permanently, so no probe can ever
        // succeed: the lane must cycle Open → reroutes → HalfOpen →
        // failed probe → Open again, counting a fresh trip each time
        // and never a recovery.
        let p = FaultPlane::new(FaultConfig {
            seed: 5,
            permanent_rate: 1.0,
            breaker: BreakerConfig { trip_after: 1, cooldown_ops: 2 },
            ..FaultConfig::default()
        });
        // op 0 draws, faults, trips the lane.
        let err = p.admit_fetch(0, 0, 1, 0).unwrap_err();
        assert_eq!(err.kind, FaultKind::Permanent);
        assert_eq!(p.stats().breaker_trips, 1);
        // Two cooldown ops reroute without drawing.
        for op in 1..3u64 {
            let adm = p.admit_fetch(0, op, 1, op).expect("open lane reroutes");
            assert!(adm.rerouted, "op {op} must reroute");
            assert_eq!(adm.retries, 0, "a reroute never draws the schedule");
        }
        // The half-open probe draws, faults again: the breaker re-opens
        // (a second trip), and no recovery is ever counted.
        let err = p.admit_fetch(0, 3, 1, 3).unwrap_err();
        assert_eq!(err.kind, FaultKind::Permanent);
        let st = p.stats();
        assert_eq!(st.breaker_trips, 2, "the failed probe must re-trip");
        assert_eq!(st.breaker_recoveries, 0, "a failed probe is no recovery");
        // The re-opened lane reroutes its next op exactly like the
        // first cooldown — the cycle repeats.
        assert!(p.admit_fetch(0, 4, 1, 4).unwrap().rerouted);
        // Breaker state is per lane: while lane 0 is open, a fresh lane
        // still *draws* (and here faults) rather than rerouting — open
        // state and reroute pricing never bleed across lanes.
        let err = p.admit_fetch(1, 5, 1, 5).unwrap_err();
        assert_eq!(err.kind, FaultKind::Permanent);
        assert_eq!(p.stats().breaker_trips, 3, "lane 1 trips on its own");
        assert_eq!(p.stats().rerouted, 3, "lane 1's first op never rerouted");
    }

    #[test]
    fn store_ops_are_fail_open_but_accounted() {
        let p =
            FaultPlane::new(FaultConfig { seed: 11, store_rate: 0.5, ..FaultConfig::default() });
        for k in 0..100 {
            p.store_op(StoreFaultBoundary::WalAppend, Some((k % 4) as usize), k);
            p.store_op(
                StoreFaultBoundary::Rehydrate,
                Some((k % 4) as usize),
                k * 64,
            );
        }
        let st = p.stats();
        assert!(st.injected > 0);
        assert!(st.delay_micros > 0);
    }

    #[test]
    fn backoff_grows_and_jitter_stays_bounded() {
        let lo = backoff_seconds(1, 0.0);
        let hi = backoff_seconds(1, 1.0 - f64::EPSILON);
        assert!(lo >= BACKOFF_BASE * (1.0 - JITTER) * 0.999);
        assert!(hi <= BACKOFF_BASE * 1.001);
        assert!(backoff_seconds(3, 0.5) > backoff_seconds(1, 0.5));
    }
}
