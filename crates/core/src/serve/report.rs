//! Serving outcome: per-job latency plus stream-level aggregates.

use crate::job::JobId;

/// How a served job's lifecycle ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum JobOutcome {
    /// The job converged normally.
    #[default]
    Completed,
    /// Serving stopped (load valve / executor failure) before the job
    /// converged; its completion stamp is the stop time.
    Truncated,
    /// Fault admission quarantined the job: a fetch it depended on
    /// exhausted its retry budget, and the job was retired with a typed
    /// error instead of aborting the engine.
    Quarantined,
}

impl JobOutcome {
    /// Stable lowercase name for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Truncated => "truncated",
            JobOutcome::Quarantined => "quarantined",
        }
    }
}

/// One served job's virtual-time lifecycle, fully resolved.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobLatency {
    /// Engine job id — or, for a lifecycle a journaling
    /// [`ServeLoop`](super::ServeLoop) replayed instead of running, the
    /// offer's offer-order sequence number.
    pub job: JobId,
    /// Job-kind display name.
    pub name: &'static str,
    /// Arrival at the admission queue (virtual seconds).
    pub arrival: f64,
    /// Release into the engine.
    pub admitted: f64,
    /// Convergence.
    pub completed: f64,
    /// How the lifecycle ended (completed / truncated / quarantined).
    pub outcome: JobOutcome,
}

impl JobLatency {
    /// Queue wait: admission minus arrival.
    pub fn wait(&self) -> f64 {
        self.admitted - self.arrival
    }

    /// End-to-end latency: convergence minus arrival.
    pub fn latency(&self) -> f64 {
        self.completed - self.arrival
    }
}

/// Summary of one serving run over an arrival stream.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Serving-engine display name.
    pub engine: &'static str,
    /// The admission window the stream was served under.
    pub admission_window: f64,
    /// Every admitted job's resolved lifecycle, in admission order.
    pub jobs: Vec<JobLatency>,
    /// Admission waves released.
    pub waves: u64,
    /// Execution rounds interleaved between admissions.
    pub rounds: u64,
    /// Partition loads performed.
    pub loads: u64,
    /// Modeled execution seconds accumulated over all rounds.
    pub modeled_seconds: f64,
    /// First arrival to last completion, in virtual seconds.
    pub makespan: f64,
    /// `false` if serving stopped at a load valve before every admitted
    /// job converged — truncated jobs carry the stop-time as their
    /// completion, so latency figures understate them.
    pub completed: bool,
    /// Arrivals the serve loop shed at the admission door (bounded
    /// backlog overflow); they never became jobs and are not in `jobs`.
    pub rejected: u64,
    /// Admitted jobs quarantined by fault admission (also flagged on
    /// their rows via [`JobOutcome::Quarantined`]).
    pub quarantined: u64,
    /// Fault-plane retries burned over the run (0 without a plane).
    pub retries: u64,
}

impl ServeReport {
    /// Builds a report, deriving the makespan from the job lifecycles;
    /// the degradation counters (`rejected`, `quarantined`, `retries`)
    /// start at 0 for the caller to set.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        engine: &'static str,
        admission_window: f64,
        jobs: Vec<JobLatency>,
        waves: u64,
        rounds: u64,
        loads: u64,
        modeled_seconds: f64,
        completed: bool,
    ) -> Self {
        let first = jobs.iter().map(|j| j.arrival).fold(f64::INFINITY, f64::min);
        let last = jobs
            .iter()
            .map(|j| j.completed)
            .fold(f64::NEG_INFINITY, f64::max);
        let makespan = if jobs.is_empty() { 0.0 } else { last - first };
        ServeReport {
            engine,
            admission_window,
            jobs,
            waves,
            rounds,
            loads,
            modeled_seconds,
            makespan,
            completed,
            rejected: 0,
            quarantined: 0,
            retries: 0,
        }
    }

    /// Jobs served per virtual second of makespan (0 for an empty or
    /// instantaneous stream).
    pub fn throughput(&self) -> f64 {
        if self.jobs.is_empty() || self.makespan <= 0.0 {
            return 0.0;
        }
        self.jobs.len() as f64 / self.makespan
    }

    /// Rows that genuinely completed.  Latency statistics are computed
    /// over these only: a quarantined or truncated job's `completed`
    /// stamp is the quarantine/stop clock, not a real completion, and
    /// would silently skew means and percentiles.
    fn completed_rows(&self) -> impl Iterator<Item = &JobLatency> {
        self.jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::Completed)
    }

    /// Mean end-to-end latency over completed jobs (0 when none
    /// completed).
    pub fn mean_latency(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for j in self.completed_rows() {
            sum += j.latency();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean queue wait over completed jobs.
    pub fn mean_wait(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for j in self.completed_rows() {
            sum += j.wait();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// The `p`-th percentile (0–100) of end-to-end latency over
    /// completed jobs, by nearest rank over the sorted latencies (0
    /// when none completed).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let mut lat: Vec<f64> = self.completed_rows().map(JobLatency::latency).collect();
        if lat.is_empty() {
            return 0.0;
        }
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = (p.clamp(0.0, 100.0) / 100.0 * (lat.len() - 1) as f64).round() as usize;
        lat[rank]
    }

    /// Fraction of `baseline`'s partition loads this run spared
    /// (negative if it loaded more).
    pub fn spared_loads_vs(&self, baseline: &ServeReport) -> f64 {
        if baseline.loads == 0 {
            return 0.0;
        }
        1.0 - self.loads as f64 / baseline.loads as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(arrival: f64, admitted: f64, completed: f64) -> JobLatency {
        JobLatency {
            job: 0,
            name: "j",
            arrival,
            admitted,
            completed,
            outcome: JobOutcome::Completed,
        }
    }

    fn report(jobs: Vec<JobLatency>, loads: u64) -> ServeReport {
        ServeReport::new("test", 1.0, jobs, 1, 1, loads, 0.5, true)
    }

    #[test]
    fn makespan_and_throughput_span_first_arrival_to_last_completion() {
        let r = report(vec![job(1.0, 2.0, 5.0), job(3.0, 3.0, 9.0)], 10);
        assert_eq!(r.makespan, 8.0);
        assert!((r.throughput() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn latency_stats_match_hand_computation() {
        let r = report(
            vec![job(0.0, 1.0, 2.0), job(0.0, 0.0, 4.0), job(0.0, 2.0, 6.0)],
            10,
        );
        assert!((r.mean_latency() - 4.0).abs() < 1e-12);
        assert!((r.mean_wait() - 1.0).abs() < 1e-12);
        assert_eq!(r.latency_percentile(0.0), 2.0);
        assert_eq!(r.latency_percentile(50.0), 4.0);
        assert_eq!(r.latency_percentile(99.0), 6.0);
        assert_eq!(r.latency_percentile(100.0), 6.0);
    }

    #[test]
    fn empty_report_is_all_zeros() {
        let r = report(Vec::new(), 0);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.mean_latency(), 0.0);
        assert_eq!(r.latency_percentile(99.0), 0.0);
    }

    #[test]
    fn spared_loads_is_relative_to_baseline() {
        let a = report(vec![job(0.0, 0.0, 1.0)], 80);
        let b = report(vec![job(0.0, 0.0, 1.0)], 100);
        assert!((a.spared_loads_vs(&b) - 0.2).abs() < 1e-12);
        assert!((b.spared_loads_vs(&a) + 0.25).abs() < 1e-12);
        assert_eq!(a.spared_loads_vs(&report(Vec::new(), 0)), 0.0);
    }
}
