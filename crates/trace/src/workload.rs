//! Diurnal job-arrival trace generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The kind of iterative job submitted (matching the paper's mix).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// PageRank-like: touches every partition, long-running.
    PageRank,
    /// SSSP-like: frontier-driven, medium coverage.
    Sssp,
    /// SCC-like: multi-phase, high coverage.
    Scc,
    /// BFS-like: frontier-driven, light.
    Bfs,
}

impl JobKind {
    /// The rotation order the paper's experiments submit jobs in.
    pub const ROTATION: [JobKind; 4] =
        [JobKind::PageRank, JobKind::Sssp, JobKind::Scc, JobKind::Bfs];

    /// Typical fraction of partitions a job of this kind keeps active.
    pub fn coverage(self) -> f64 {
        match self {
            JobKind::PageRank => 1.0,
            JobKind::Sssp => 0.8,
            JobKind::Scc => 0.9,
            JobKind::Bfs => 0.6,
        }
    }

    /// Relative duration scale of this kind.
    pub fn duration_scale(self) -> f64 {
        match self {
            JobKind::PageRank => 1.5,
            JobKind::Sssp => 0.8,
            JobKind::Scc => 1.2,
            JobKind::Bfs => 0.5,
        }
    }
}

/// One submitted job's lifetime in the trace.
#[derive(Clone, Copy, Debug)]
pub struct JobSpan {
    /// Submission time in hours from trace start.
    pub submit_hour: f64,
    /// Completion time in hours.
    pub end_hour: f64,
    /// Job kind.
    pub kind: JobKind,
}

impl JobSpan {
    /// Whether the job is running at hour `t`.
    pub fn active_at(&self, t: f64) -> bool {
        self.submit_hour <= t && t < self.end_hour
    }

    /// Submission time rescaled to virtual seconds — the serving
    /// layer's clock unit.  `seconds_per_hour` compresses the trace so
    /// arrival gaps land on the same scale as modeled execution time
    /// (the real trace spans a week; a simulated run spans milliseconds).
    pub fn submit_seconds(&self, seconds_per_hour: f64) -> f64 {
        self.submit_hour * seconds_per_hour
    }
}

/// Trace-generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Trace length in hours (the paper shows ~168 h ≈ one week).
    pub hours: u32,
    /// Mean off-peak arrival rate (jobs/hour).
    pub base_rate: f64,
    /// Additional arrivals/hour at the daily peak.
    pub peak_rate: f64,
    /// Mean job duration in hours (scaled per kind).
    pub mean_duration: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { hours: 168, base_rate: 1.0, peak_rate: 5.0, mean_duration: 2.5, seed: 0xFACE }
    }
}

/// Instantaneous arrival rate at hour `t`: diurnal sine-squared peak,
/// damped on weekends.
pub fn arrival_rate(cfg: &TraceConfig, t: f64) -> f64 {
    let hour_of_day = t % 24.0;
    let day = (t / 24.0) as u64 % 7;
    let weekend = day >= 5;
    let diurnal = (std::f64::consts::PI * (hour_of_day - 8.0) / 24.0)
        .sin()
        .powi(2);
    let weekday_factor = if weekend { 0.5 } else { 1.0 };
    cfg.base_rate + cfg.peak_rate * diurnal * weekday_factor
}

/// Generates the trace: non-homogeneous Poisson arrivals via thinning,
/// kinds rotating through the paper's four-job mix, exponential durations.
pub fn generate_trace(cfg: &TraceConfig) -> Vec<JobSpan> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let rate_max = cfg.base_rate + cfg.peak_rate;
    let mut spans = Vec::new();
    let mut t = 0.0f64;
    let mut k = 0usize;
    loop {
        // Exponential inter-arrival at the envelope rate, thinned.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate_max;
        if t >= cfg.hours as f64 {
            break;
        }
        let accept: f64 = rng.gen();
        if accept > arrival_rate(cfg, t) / rate_max {
            continue;
        }
        let kind = JobKind::ROTATION[k % 4];
        k += 1;
        let d: f64 = rng.gen_range(f64::EPSILON..1.0);
        let duration = -d.ln() * cfg.mean_duration * kind.duration_scale();
        spans.push(JobSpan { submit_hour: t, end_hour: t + duration.max(0.05), kind });
    }
    spans
}

/// Number of concurrently-running jobs sampled at each hour —
/// the paper's Fig. 1(a).
pub fn active_jobs_per_hour(trace: &[JobSpan], hours: u32) -> Vec<u32> {
    (0..hours)
        .map(|h| {
            let t = h as f64 + 0.5;
            trace.iter().filter(|s| s.active_at(t)).count() as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic() {
        let cfg = TraceConfig::default();
        let a = generate_trace(&cfg);
        let b = generate_trace(&cfg);
        assert_eq!(a.len(), b.len());
        assert!((a[0].submit_hour - b[0].submit_hour).abs() < 1e-12);
    }

    #[test]
    fn arrivals_within_bounds() {
        let cfg = TraceConfig::default();
        for s in generate_trace(&cfg) {
            assert!(s.submit_hour >= 0.0 && s.submit_hour < cfg.hours as f64);
            assert!(s.end_hour > s.submit_hour);
        }
    }

    #[test]
    fn peak_hours_busier_than_troughs() {
        let cfg = TraceConfig { hours: 24 * 14, ..TraceConfig::default() };
        let trace = generate_trace(&cfg);
        let counts = active_jobs_per_hour(&trace, cfg.hours);
        // Average over daily peak (hour 20) vs trough (hour 8) samples.
        let avg = |h0: u32| -> f64 {
            let xs: Vec<f64> = (0..14)
                .map(|d| counts[(d * 24 + h0) as usize] as f64)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(avg(20) > avg(8), "peak {} vs trough {}", avg(20), avg(8));
    }

    #[test]
    fn rate_respects_weekend_damping() {
        let cfg = TraceConfig::default();
        let weekday_peak = arrival_rate(&cfg, 20.0);
        let weekend_peak = arrival_rate(&cfg, 5.0 * 24.0 + 20.0);
        assert!(weekday_peak > weekend_peak);
    }

    #[test]
    fn concurrency_reaches_double_digits() {
        // With default parameters the peak should resemble Fig. 1(a)'s
        // "more than 20 CGP jobs at the peak time".
        let cfg = TraceConfig::default();
        let counts = active_jobs_per_hour(&generate_trace(&cfg), cfg.hours);
        let max = *counts.iter().max().unwrap();
        assert!(max >= 10, "peak concurrency {max} too low");
    }

    #[test]
    fn submit_seconds_rescales_hours() {
        let s = JobSpan { submit_hour: 2.5, end_hour: 4.0, kind: JobKind::Bfs };
        assert!((s.submit_seconds(3600.0) - 9000.0).abs() < 1e-9);
        assert!((s.submit_seconds(0.01) - 0.025).abs() < 1e-12);
    }

    #[test]
    fn kinds_rotate() {
        let cfg = TraceConfig { hours: 24, ..TraceConfig::default() };
        let trace = generate_trace(&cfg);
        assert!(trace.len() >= 4);
        assert_eq!(trace[0].kind, JobKind::PageRank);
        assert_eq!(trace[1].kind, JobKind::Sssp);
        assert_eq!(trace[2].kind, JobKind::Scc);
        assert_eq!(trace[3].kind, JobKind::Bfs);
    }
}
