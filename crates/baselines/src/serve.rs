//! FIFO-admission serving over the streaming baseline.
//!
//! The comparison denominator for the CGraph serving layer: arrivals
//! are admitted strictly in arrival order with no deferral, and the
//! per-job [`StreamEngine`] runs each admitted batch to convergence
//! before the next admission — the "submit as they come" regime every
//! pre-CGraph deployment runs.  Because the streaming engine has no
//! round-level stepping, a job arriving mid-batch waits for the whole
//! batch to drain (its queue wait absorbs the batch's remaining
//! execution), and completions resolve at batch granularity.

use cgraph_core::serve::{AdmissionController, Arrival, JobLatency, JobOutcome, ServeReport};

use crate::stream::StreamEngine;

/// Drives a [`StreamEngine`] from a timed arrival stream under FIFO
/// admission, producing the same [`ServeReport`] the CGraph
/// [`ServeLoop`](cgraph_core::ServeLoop) emits.
pub struct FifoServe {
    engine: StreamEngine,
    /// Pending arrivals at window 0: each release is the due FIFO
    /// prefix.
    queue: AdmissionController<StreamEngine>,
    time_scale: f64,
    clock: f64,
}

impl FifoServe {
    /// Wraps a streaming engine; `time_scale` converts modeled
    /// execution seconds to virtual seconds exactly as
    /// [`ServeConfig::time_scale`](cgraph_core::ServeConfig).
    pub fn new(engine: StreamEngine, time_scale: f64) -> Self {
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "time scale must be finite and > 0"
        );
        FifoServe { engine, queue: AdmissionController::new(0.0), time_scale, clock: 0.0 }
    }

    /// Queues one arrival.
    pub fn offer(&mut self, arrival: Arrival<StreamEngine>) {
        self.queue.offer(arrival);
    }

    /// Queues a whole stream of arrivals.
    pub fn offer_all<I: IntoIterator<Item = Arrival<StreamEngine>>>(&mut self, arrivals: I) {
        for a in arrivals {
            self.offer(a);
        }
    }

    /// The wrapped engine (read access; results, metrics, store).
    pub fn engine(&self) -> &StreamEngine {
        &self.engine
    }

    /// Unwraps the engine, e.g. to extract typed results after serving.
    pub fn into_engine(self) -> StreamEngine {
        self.engine
    }

    /// Serves the stream to exhaustion under FIFO admission.
    pub fn serve(&mut self) -> ServeReport {
        let mut jobs: Vec<JobLatency> = Vec::new();
        let (mut waves, mut batches) = (0u64, 0u64);
        let (mut loads, mut modeled) = (0u64, 0.0f64);
        let mut completed = true;
        while let Some(next_at) = self.queue.next_deadline() {
            // Jump to the next arrival if the engine went idle earlier.
            self.clock = self.clock.max(next_at);
            // Admit everything due, strictly in arrival order.
            let batch_start = jobs.len();
            for a in self.queue.release(self.clock, self.engine.store()) {
                let (at, name, ts) = (a.at, a.name, a.bind_timestamp());
                let id = a.submit(&mut self.engine, ts);
                jobs.push(JobLatency {
                    job: id,
                    name,
                    arrival: at,
                    admitted: self.clock,
                    completed: f64::NAN, // resolved after the batch drains
                    outcome: JobOutcome::Completed,
                });
            }
            waves += 1;
            // Run the batch (plus any stragglers from earlier batches)
            // to convergence and advance the virtual clock.
            let report = self.engine.run();
            loads += report.loads;
            modeled += report.modeled_seconds;
            completed &= report.completed;
            batches += 1;
            self.clock += report.modeled_seconds * self.time_scale;
            for j in &mut jobs[batch_start..] {
                j.completed = self.clock;
            }
        }
        ServeReport::new(
            "stream-fifo",
            0.0,
            jobs,
            waves,
            batches,
            loads,
            modeled,
            completed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamConfig;
    use cgraph_core::serve::Arrival;
    use cgraph_core::JobEngine;
    use cgraph_graph::vertex_cut::VertexCutPartitioner;
    use cgraph_graph::{generate, Partitioner};

    // Local BFS program (same shape as the stream tests') to avoid a
    // dev-dependency cycle with cgraph-algos.
    struct Bfs;
    impl cgraph_core::VertexProgram for Bfs {
        type Value = u32;
        fn init(&self, info: &cgraph_core::VertexInfo) -> (u32, u32) {
            if info.vid == 0 {
                (u32::MAX, 0)
            } else {
                (u32::MAX, u32::MAX)
            }
        }
        fn identity(&self) -> u32 {
            u32::MAX
        }
        fn acc(&self, a: u32, b: u32) -> u32 {
            a.min(b)
        }
        fn is_active(&self, v: &u32, d: &u32) -> bool {
            d < v
        }
        fn compute(&self, _i: &cgraph_core::VertexInfo, v: u32, d: u32) -> (u32, Option<u32>) {
            if d < v {
                (d, Some(d))
            } else {
                (v, None)
            }
        }
        fn edge_contrib(&self, b: u32, _w: f32, _i: &cgraph_core::VertexInfo) -> u32 {
            b.saturating_add(1)
        }
    }

    fn bfs_arrival(at: f64) -> Arrival<StreamEngine> {
        Arrival::new(at, "BFS", |e: &mut StreamEngine, ts| {
            e.submit_program_at(Bfs, ts)
        })
    }

    fn serve_with(arrival_times: &[f64]) -> (ServeReport, StreamEngine) {
        let ps = VertexCutPartitioner::new(8).partition(&generate::cycle(32));
        let mut serve = FifoServe::new(
            StreamEngine::from_partitions(ps, StreamConfig::default()),
            1.0,
        );
        serve.offer_all(arrival_times.iter().map(|&t| bfs_arrival(t)));
        let report = serve.serve();
        (report, serve.into_engine())
    }

    #[test]
    fn fifo_serves_all_jobs_with_valid_latencies() {
        let (report, engine) = serve_with(&[0.0, 0.001, 5.0]);
        assert_eq!(report.engine, "stream-fifo");
        assert_eq!(report.jobs.len(), 3);
        assert_eq!(engine.num_jobs(), 3);
        for j in &report.jobs {
            assert!(j.wait() >= 0.0, "{}: wait {}", j.name, j.wait());
            assert!(j.latency() > 0.0);
            assert!(j.completed.is_finite());
        }
        assert!(report.loads > 0);
        assert!(report.throughput() > 0.0);
        // Results are the real program's.
        let d = engine.results::<Bfs>(0).unwrap();
        assert_eq!(d[7], 7);
    }

    #[test]
    fn late_arrival_waits_for_running_batch() {
        // Job 2 arrives while the first batch is (virtually) running, so
        // its admission is deferred to the batch boundary.
        let (report, _) = serve_with(&[0.0, 1e-9]);
        assert_eq!(report.waves, 2);
        let late = &report.jobs[1];
        assert!(
            late.admitted > late.arrival,
            "late arrival must absorb the first batch's drain: admitted {} arrival {}",
            late.admitted,
            late.arrival
        );
        assert_eq!(late.admitted, report.jobs[0].completed);
    }

    #[test]
    fn out_of_order_offers_serve_in_arrival_order() {
        let ps = VertexCutPartitioner::new(8).partition(&generate::cycle(32));
        let mut serve = FifoServe::new(
            StreamEngine::from_partitions(ps, StreamConfig::default()),
            1.0,
        );
        let named = |at: f64, name: &'static str| {
            Arrival::new(at, name, |e: &mut StreamEngine, ts| {
                e.submit_program_at(Bfs, ts)
            })
        };
        // Offered out of order; "a" and "b" tie at 0.0 and "d" arrives
        // while the first batch runs.
        serve.offer_all([
            named(1e-9, "d"),
            named(0.0, "a"),
            named(0.0, "b"),
            named(5.0, "e"),
        ]);
        let report = serve.serve();
        let names: Vec<&str> = report.jobs.iter().map(|j| j.name).collect();
        assert_eq!(
            names,
            ["a", "b", "d", "e"],
            "arrival order, ties in offer order"
        );
        assert_eq!(report.waves, 3);
        // One batch per wave: each batch's rows share its drain stamp.
        let (first, rest) = report.jobs.split_at(2);
        assert_eq!(first[0].completed, first[1].completed);
        assert!(rest[0].completed > first[0].completed);
        assert!(rest[1].completed > rest[0].completed);
    }

    #[test]
    fn empty_stream_serves_nothing() {
        let (report, engine) = serve_with(&[]);
        assert!(report.jobs.is_empty());
        assert_eq!(report.loads, 0);
        assert_eq!(engine.num_jobs(), 0);
    }
}
