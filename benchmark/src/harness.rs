//! What every workload shares: the run context, the result record,
//! sizes, set-up timing, scratch directories and process memory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::metrics::Values;
use crate::spans::SpanLog;
use crate::stats;
use crate::sut::{self, ObsEvent, Observer};

/// Where results and scratch files go: `benchmark/results/`.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Workload sizes.  `full` is what `BENCHMARK.json` runs; `smoke`
/// exercises the same code in well under a second per workload.
///
/// A run does a fixed amount of work, sized on the reference host to
/// fill the `run_seconds` of `BENCHMARK.json`.  It is not cut off by the
/// clock: the counts, and with them memory and every exact counter,
/// repeat for a seed whatever the host's speed.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Batch graph: R-MAT scale, edge factor, partitions, shards.
    pub batch: (u32, u32, usize, usize),
    /// Batch repetitions.
    pub batch_reps: usize,
    /// Serve graph: R-MAT scale, edge factor, partitions, shards.
    pub serve: (u32, u32, usize, usize),
    /// Snapshots pre-applied to the serve store.
    pub serve_snapshots: usize,
    /// Jobs of the trace phase.
    pub serve_trace_jobs: usize,
    /// Open-loop arrival rate, jobs per second.
    pub serve_rate: f64,
    /// Open-loop arrivals.
    pub serve_arrivals: usize,
    /// Ingest and standing base graph: scale, edge factor, partitions,
    /// shards.
    pub ingest: (u32, u32, usize, usize),
    /// Edges each delta adds.
    pub delta_adds: usize,
    /// Applies of each ingest phase.
    pub ingest_applies: usize,
    /// Opens the recovery median is taken over.
    pub recover_opens: usize,
    /// Standing versions.
    pub standing_versions: usize,
    /// Times set-up is repeated for its median.
    pub setup_reps: usize,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` runs.
    pub fn full() -> Self {
        Sizes {
            batch: (13, 20, 40, 4),
            batch_reps: 10,
            serve: (11, 20, 16, 4),
            serve_snapshots: 16,
            serve_trace_jobs: 120,
            serve_rate: 18.0,
            serve_arrivals: 324,
            ingest: (14, 8, 32, 4),
            delta_adds: 64,
            ingest_applies: 200,
            recover_opens: 15,
            standing_versions: 120,
            setup_reps: 9,
        }
    }

    /// Tiny sizes for `--smoke`: oracle checks only.
    pub fn smoke() -> Self {
        Sizes {
            batch: (9, 8, 8, 2),
            batch_reps: 1,
            serve: (8, 8, 4, 2),
            serve_snapshots: 4,
            serve_trace_jobs: 16,
            serve_rate: 100.0,
            serve_arrivals: 32,
            ingest: (9, 8, 8, 2),
            delta_adds: 16,
            ingest_applies: 32,
            recover_opens: 2,
            standing_versions: 24,
            setup_reps: 1,
        }
    }
}

/// One invocation's arguments.
#[derive(Clone, Copy, Debug)]
pub struct RunCtx {
    /// Input seed.
    pub seed: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Workload sizes.
    pub sizes: Sizes,
}

impl RunCtx {
    /// How many of `full` units of work the untraced measurement does:
    /// all of them, or half when a traced pass follows in the same run.
    pub fn work(&self, full: usize) -> usize {
        if self.trace {
            (full / 2).max(1)
        } else {
            full
        }
    }
}

/// What one run reports.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, did not finish or
    /// produced a wrong result.
    pub failed: u64,
    /// End-to-end metrics (untraced measurement).
    pub e2e: Values,
    /// Per-layer metrics (traced run only).
    pub layer: Values,
    /// Lines for the run header: what was measured and how.
    pub notes: Vec<String>,
    /// Chrome-trace events of the traced repetition.
    pub chrome: Vec<ChromeEvent>,
}

impl RunResult {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // The count is exact; the explanations are capped.
            if self.failed <= 8 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }
}

/// Runs `build` `reps` times; returns the median seconds and the last
/// value built.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous build first so set-up never holds two.
        drop(last.take());
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (stats::median(&times), last.expect("at least one build"))
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory under `benchmark/results/`, removed on drop.
pub struct ScratchDir(PathBuf);

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl ScratchDir {
    /// Creates `results/tmp-<pid>-<n>-<tag>`.
    pub fn new(tag: &str) -> Self {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = results_dir().join(format!("tmp-{}-{n}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes and count of the regular files directly inside.
    pub fn usage(&self) -> (u64, u64) {
        let mut bytes = 0;
        let mut files = 0;
        if let Ok(rd) = std::fs::read_dir(&self.0) {
            for entry in rd.flatten() {
                if let Ok(md) = entry.metadata() {
                    if md.is_file() {
                        bytes += md.len();
                        files += 1;
                    }
                }
            }
        }
        (bytes, files)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---- traced repetition --------------------------------------------------

/// One event of the Chrome trace written for the traced repetition.
#[derive(Clone, Debug)]
pub struct ChromeEvent {
    /// Span name.
    pub name: String,
    /// Track: `harness` or the program thread that recorded it.
    pub track: String,
    /// Microseconds since the traced repetition began.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Job id or version the span belongs to.
    pub request: u64,
}

/// The tracing state of one repetition: the harness span log plus,
/// when tracing, the in-program observer.
pub struct Tracer {
    /// Harness spans around calls into the program.
    pub log: SpanLog,
    /// In-program observer, attached to engines and stores.
    pub observer: Option<std::sync::Arc<Observer>>,
    /// Observer clock minus span-log clock at creation, ns.
    skew_ns: i64,
}

impl Tracer {
    /// No tracing: span calls are no-ops and no observer is attached.
    pub fn off() -> Self {
        Tracer { log: SpanLog::disabled(), observer: None, skew_ns: 0 }
    }

    /// Tracing with per-thread rings of `ring_events` events.
    pub fn on(ring_events: usize) -> Self {
        let observer = sut::observer(ring_events);
        let log = SpanLog::enabled();
        let skew_ns = sut::observer_now_ns(&observer) as i64;
        Tracer { log, observer: Some(observer), skew_ns }
    }

    /// Drains the observer; returns its events and the dropped count.
    pub fn drain(&self) -> (Vec<ObsEvent>, u64) {
        match &self.observer {
            Some(obs) => sut::dump(obs),
            None => (Vec::new(), 0),
        }
    }

    /// Harness spans and program events on one time base.
    pub fn chrome(&self, events: &[ObsEvent]) -> Vec<ChromeEvent> {
        let mut out: Vec<ChromeEvent> = self
            .log
            .spans()
            .iter()
            .map(|s| ChromeEvent {
                name: s.name.to_string(),
                track: "harness".to_string(),
                ts_us: s.start_ns as f64 / 1e3,
                dur_us: s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                request: s.request,
            })
            .collect();
        out.extend(events.iter().map(|e| ChromeEvent {
            name: e.kind.to_string(),
            track: format!("program:{}", e.thread),
            ts_us: (e.start_ns as i64 - self.skew_ns) as f64 / 1e3,
            dur_us: e.dur_ns as f64 / 1e3,
            request: 0,
        }));
        out
    }
}

/// Seconds spent in program events of `kind`.
pub fn event_seconds(events: &[ObsEvent], kind: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.dur_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Seconds the program reports for its applies.  The store records one
/// `apply_rebuild` event per touched shard, each carrying the whole
/// apply's duration, so one event per snapshot timestamp is counted.
pub fn apply_rebuild_seconds(events: &[ObsEvent]) -> f64 {
    let mut per_apply: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == "apply_rebuild") {
        let d = per_apply.entry(e.round).or_insert(0);
        *d = (*d).max(e.dur_ns);
    }
    per_apply.values().sum::<u64>() as f64 / 1e9
}

/// Median of `samples` in microseconds, given seconds.
pub fn p50_us(samples_s: &[f64]) -> f64 {
    stats::median(samples_s) * 1e6
}

/// The `p`-th percentile of `samples` in microseconds, given seconds.
pub fn pct_us(samples_s: &[f64], p: f64) -> f64 {
    stats::percentile(samples_s, p) * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_setup_reports_a_median_and_the_last_build() {
        let mut n = 0;
        let (s, v) = timed_setup(3, || {
            n += 1;
            n
        });
        assert_eq!(v, 3);
        assert!(s >= 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let path;
        {
            let d = ScratchDir::new("unit");
            path = d.path().to_path_buf();
            std::fs::write(path.join("f"), b"abc").unwrap();
            assert_eq!(d.usage(), (3, 1));
        }
        assert!(!path.exists());
    }
}
