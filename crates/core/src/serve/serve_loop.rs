//! The round-interleaved serving driver.

use std::path::Path;
use std::sync::Arc;

use cgraph_graph::StoreError;

use crate::engine::Engine;
use crate::incr::StandingRunner;
use crate::job::JobId;
use crate::obs::{EventKind, Observer, Recorder, NONE};
use crate::serve::admission::{AdmissionController, Arrival};
use crate::serve::journal::{JournalEntry, ServeJournal};
use crate::serve::report::{JobLatency, JobOutcome, ServeReport};

/// Serving-layer configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Bounded deferral window of the admission controller, in virtual
    /// seconds.  0 = FIFO admission.
    pub admission_window: f64,
    /// Virtual seconds the clock advances per modeled execution second
    /// (1.0 = the engine's cost model *is* the wall clock; larger
    /// values model an arrival stream slow relative to execution).
    pub time_scale: f64,
    /// Bounded backlog: offers arriving while this many arrivals are
    /// already queued are *shed* — counted as rejected in the report,
    /// never submitted, never journaled.  0 (the default) = unbounded,
    /// the pre-existing behavior.
    pub max_backlog: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { admission_window: 0.0, time_scale: 1.0, max_backlog: 0 }
    }
}

/// Drives an [`Engine`] from a timed arrival stream, interleaving
/// admission with execution one scheduling round at a time:
///
/// 1. release every due admission wave (version-keyed, see
///    [`AdmissionController`]) and submit its jobs — each binds the
///    newest snapshot at its *arrival* time;
/// 2. execute one [`Engine::step_round`] and advance the virtual clock
///    by the round's modeled makespan (scaled by
///    [`ServeConfig::time_scale`]);
/// 3. stamp completions for jobs that converged, then repeat; when the
///    engine idles, jump the clock to the next admission deadline.
///
/// The loop alone keeps each served job's lifecycle stamps (arrival,
/// admission, completion) in one table; the engine knows nothing of
/// serving.  Each [`serve`](Self::serve) call drains the table into its
/// [`ServeReport`], so the loop's per-job history is bounded by one
/// call's admissions.
pub struct ServeLoop {
    engine: Engine,
    admission: AdmissionController<Engine>,
    time_scale: f64,
    clock: f64,
    /// This `serve` call's admitted jobs, in admission order.
    served: Vec<Served>,
    /// Indices into `served` of the jobs not yet stamped complete.
    open: Vec<usize>,
    waves: u64,
    rounds: u64,
    /// Durable completion journal (restartable serving only).
    journal: Option<ServeJournal>,
    /// First journal I/O failure: journaling stops (the serve itself
    /// continues), and the error is exposed for the caller.
    journal_fault: Option<StoreError>,
    /// Next offer-order sequence number.
    next_seq: u64,
    /// Journal-replayed lifecycles of offers skipped because a previous
    /// incarnation already completed them; drained into the next
    /// [`serve`](Self::serve) call's report.
    resumed: Vec<JobLatency>,
    /// Total offers skipped via the journal since construction.
    resumed_count: u64,
    /// The serve-level observer (defaults to the engine's), feeding the
    /// admission/wave/queue-wait signals.  Disabled = one branch per
    /// site.
    obs: Arc<Observer>,
    /// Serve-thread event recorder (admission defer/release, rounds).
    rec: Recorder,
    /// Backlog bound for load shedding (0 = unbounded).
    max_backlog: usize,
    /// The configured admission window, reported in every
    /// [`ServeReport`].
    base_window: f64,
    /// Offers shed at the admission door since construction.
    rejected: u64,
    /// Sheds already attributed to an earlier report — offers are shed
    /// at *offer* time, which happens between `serve` calls, so each
    /// report covers every shed since the previous one rather than
    /// only those during its own loop.
    reported_rejected: u64,
    /// Standing jobs: each re-emits one result per store version (the
    /// base view plus every applied snapshot), resuming incrementally
    /// where the delta range allows.
    standing: Vec<Box<dyn StandingRunner>>,
    /// Per-runner index into the version list of the next emission.
    standing_next: Vec<usize>,
}

/// One admitted job's lifecycle in virtual seconds, kept from
/// admission until the report that covers it.
#[derive(Clone, Copy)]
struct Served {
    job: JobId,
    name: &'static str,
    /// Offer-order journal sequence (journaling only).
    seq: Option<u64>,
    arrival: f64,
    admitted: f64,
    /// Convergence or quarantine stamp (`None` while open).
    completed: Option<f64>,
    /// A standing emission's runner and bind timestamp: harvested into
    /// the runner's prior when it converges.
    standing: Option<(usize, u64)>,
}

impl ServeLoop {
    /// Wraps an engine for serving.  Jobs already submitted to the
    /// engine run alongside the stream but are not tracked in reports.
    pub fn new(engine: Engine, config: ServeConfig) -> Self {
        assert!(
            config.time_scale.is_finite() && config.time_scale > 0.0,
            "time scale must be finite and > 0"
        );
        // Serving inherits the engine's observer, so one
        // `EngineConfig::observer` traces executor and serve layers
        // alike; `with_observer` overrides it.
        let obs = Arc::clone(engine.observer());
        let rec = obs.recorder("serve");
        ServeLoop {
            engine,
            admission: AdmissionController::new(config.admission_window),
            time_scale: config.time_scale,
            clock: 0.0,
            served: Vec::new(),
            open: Vec::new(),
            waves: 0,
            rounds: 0,
            journal: None,
            journal_fault: None,
            next_seq: 0,
            resumed: Vec::new(),
            resumed_count: 0,
            obs,
            rec,
            max_backlog: config.max_backlog,
            base_window: config.admission_window,
            rejected: 0,
            reported_rejected: 0,
            standing: Vec::new(),
            standing_next: Vec::new(),
        }
    }

    /// Replaces the serve-level observer (admission, wave, and
    /// queue-wait signals).  The executor's own spans still come from
    /// the observer the engine was *constructed* with
    /// (`EngineConfig::observer`) — pass the same `Arc` to both to get
    /// one merged trace.
    pub fn with_observer(mut self, obs: Arc<Observer>) -> Self {
        self.rec = obs.recorder("serve");
        self.obs = obs;
        self
    }

    /// Wraps an engine for **restartable** serving: completions are
    /// journaled to the WAL segment at `path`
    /// ([`ServeJournal`](crate::serve::journal::ServeJournal)), and a
    /// loop re-opened over the same path skips every offer a previous
    /// incarnation already finished — no re-execution, no double-charged
    /// engine work, the journaled latencies reported verbatim.  Offer
    /// order is the identity: restarts must re-offer the same trace in
    /// the same order.
    pub fn with_journal(
        engine: Engine,
        config: ServeConfig,
        path: &Path,
    ) -> Result<Self, StoreError> {
        let journal = ServeJournal::open(path)?;
        let mut sl = ServeLoop::new(engine, config);
        sl.journal = Some(journal);
        Ok(sl)
    }

    /// Queues one arrival.  Under a journal
    /// ([`with_journal`](Self::with_journal)), an offer a previous
    /// incarnation completed is consumed here instead: its journaled
    /// lifecycle goes straight to the next report, with the offer-order
    /// sequence number as its [`JobLatency::job`] (no engine job ever
    /// ran it in this incarnation).  With a bounded
    /// backlog ([`ServeConfig::max_backlog`]), an offer arriving over a
    /// full queue is *shed*: counted as rejected, never submitted, never
    /// journaled.  Shed offers still consume their offer-order sequence
    /// number, so journal identity is stable across restarts.
    pub fn offer(&mut self, mut arrival: Arrival) {
        if self.rec.on() {
            self.note_arrival(arrival.at);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.replay(seq, arrival.name) {
            return;
        }
        if self.max_backlog > 0 && self.admission.pending() >= self.max_backlog {
            self.rejected += 1;
            if self.rec.on() {
                self.rec.instant(
                    EventKind::AdmitShed,
                    NONE,
                    NONE,
                    self.rounds.min(u32::MAX as u64) as u32,
                    self.admission.pending() as u64,
                );
                self.obs.registry().counter("serve_shed").inc();
            }
            return;
        }
        arrival.seq = self.journal.is_some().then_some(seq);
        self.admission.offer(arrival);
    }

    /// Consumes offer-order sequence `seq` when the journal shows a
    /// previous incarnation completed it: its journaled lifecycle,
    /// keyed by `seq`, goes to the next report.
    fn replay(&mut self, seq: u64, name: &'static str) -> bool {
        let Some(entry) = self.journal.as_ref().and_then(|j| j.entry(seq)) else {
            return false;
        };
        self.resumed.push(JobLatency {
            job: seq as JobId,
            name,
            arrival: entry.arrival,
            admitted: entry.admitted,
            completed: entry.completed,
            outcome: JobOutcome::Completed,
        });
        self.resumed_count += 1;
        true
    }

    /// Queues a whole stream of arrivals.
    pub fn offer_all<I: IntoIterator<Item = Arrival>>(&mut self, arrivals: I) {
        for a in arrivals {
            self.offer(a);
        }
    }

    /// Registers a standing job: the runner re-emits one result per
    /// store version — the base view, then every applied snapshot as
    /// the virtual clock reaches its timestamp — resuming from the
    /// previous emission's harvested result where the delta range is
    /// addition-only (O(Δ)), and from scratch otherwise.
    ///
    /// Emissions flow through the ordinary serve machinery: they are
    /// tracked and reported like offered arrivals (named after the
    /// runner), and under a journal each emission consumes an
    /// offer-order sequence number exactly like an offer, so a
    /// restarted loop (same offers, same runners, same order) skips
    /// journaled emissions verbatim.  A skipped emission's *result* is
    /// unknown to the new incarnation, so the runner's prior is
    /// invalidated and its next live emission recomputes from scratch.
    ///
    /// Restart discipline: register standing runners in the same order
    /// across incarnations, before the first `serve` call.
    pub fn add_standing(&mut self, runner: Box<dyn StandingRunner>) {
        self.standing.push(runner);
        self.standing_next.push(0);
    }

    /// Read access to a registered standing runner (emission counters).
    pub fn standing(&self, idx: usize) -> &dyn StandingRunner {
        &*self.standing[idx]
    }

    /// Number of registered standing runners.
    pub fn standing_count(&self) -> usize {
        self.standing.len()
    }

    /// The version timeline standing jobs emit against: the base view
    /// (timestamp 0) plus every applied snapshot.  Recomputed on each
    /// use so deltas applied between serve calls extend the timeline.
    fn standing_versions(&self) -> Vec<u64> {
        let mut versions = vec![0u64];
        versions.extend(self.engine.store().snapshot_timestamps());
        versions
    }

    /// Whether every standing runner has emitted every version
    /// currently in the store.
    fn standing_exhausted(&self) -> bool {
        if self.standing.is_empty() {
            return true;
        }
        let len = self.standing_versions().len();
        self.standing_next.iter().all(|&n| n >= len)
    }

    /// The earliest version timestamp any standing runner still has to
    /// emit (the standing analogue of the admission deadline).
    fn next_standing_due(&self) -> Option<f64> {
        if self.standing.is_empty() {
            return None;
        }
        let versions = self.standing_versions();
        self.standing_next
            .iter()
            .filter_map(|&next| versions.get(next).map(|&ts| ts as f64))
            .fold(None, |m, t| Some(m.map_or(t, |m: f64| m.min(t))))
    }

    /// Emits every due standing emission, in `(version, runner)` order —
    /// lexicographic and clock-independent, so journal sequence numbers
    /// assign identically across incarnations regardless of round
    /// pacing.  Returns whether anything was submitted.
    fn emit_standing(&mut self) -> bool {
        if self.standing.is_empty() {
            return false;
        }
        let versions = self.standing_versions();
        let mut emitted = false;
        loop {
            let mut pick: Option<(u64, usize)> = None;
            for (r, &next) in self.standing_next.iter().enumerate() {
                if next < versions.len() && versions[next] as f64 <= self.clock {
                    let key = (versions[next], r);
                    if pick.is_none_or(|p| key < p) {
                        pick = Some(key);
                    }
                }
            }
            let Some((ts, r)) = pick else { break };
            self.standing_next[r] += 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            let name = self.standing[r].name();
            if self.replay(seq, name) {
                // The replayed emission's result is unknown to this
                // incarnation: drop the prior so the next live
                // emission recomputes from scratch.
                self.standing[r].invalidate();
                continue;
            }
            let job = self.standing[r].resubmit(&mut self.engine, ts);
            self.open.push(self.served.len());
            self.served.push(Served {
                job,
                name,
                seq: self.journal.is_some().then_some(seq),
                arrival: ts as f64,
                admitted: self.clock,
                completed: None,
                standing: Some((r, ts)),
            });
            emitted = true;
        }
        emitted
    }

    /// Offers skipped because the journal showed a previous incarnation
    /// already completed them.
    pub fn resumed(&self) -> u64 {
        self.resumed_count
    }

    /// Offers shed at the admission door since construction (bounded
    /// backlog overflow).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The first journal I/O failure, if journaling had to stop (the
    /// serve itself keeps going; later restarts simply resume less).
    pub fn journal_error(&self) -> Option<&StoreError> {
        self.journal_fault.as_ref()
    }

    /// The wrapped engine (read access; results, metrics, store).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Unwraps the engine, e.g. to extract typed results after serving.
    pub fn into_engine(self) -> Engine {
        self.engine
    }

    /// Observability tap for one offered arrival: arrival counter plus
    /// an admission-defer instant event carrying the arrival time.
    /// Only called with the recorder on, and reads nothing back —
    /// offered arrivals behave identically traced or not.
    fn note_arrival(&self, at: f64) {
        self.obs.registry().counter("serve_arrivals").inc();
        self.rec.instant(
            EventKind::AdmitDefer,
            NONE,
            NONE,
            self.rounds.min(u32::MAX as u64) as u32,
            (at * 1e6) as u64,
        );
    }

    /// Releases every due arrival into the engine, stamping admissions.
    fn admit_due(&mut self) -> bool {
        let wave = self.admission.release(self.clock, self.engine.store());
        if wave.is_empty() {
            return false;
        }
        self.waves += 1;
        if self.rec.on() {
            self.obs
                .registry()
                .histogram("serve_wave_size")
                .record(wave.len() as u64);
        }
        for a in wave {
            let (at, name, seq, ts) = (a.at, a.name, a.seq, a.bind_timestamp());
            let id = a.submit(&mut self.engine, ts);
            if self.rec.on() {
                // Queue wait in *virtual* microseconds — the serving
                // clock is modeled time, not the wall.
                let wait_us = ((self.clock - at).max(0.0) * 1e6) as u64;
                self.obs
                    .registry()
                    .histogram("serve_queue_wait_us")
                    .record(wait_us);
                self.rec.instant(
                    EventKind::AdmitRelease,
                    id,
                    NONE,
                    self.rounds.min(u32::MAX as u64) as u32,
                    wait_us,
                );
            }
            self.open.push(self.served.len());
            self.served.push(Served {
                job: id,
                name,
                seq,
                arrival: at,
                admitted: self.clock,
                completed: None,
                standing: None,
            });
        }
        true
    }

    /// Stamps completion for every open job that has converged — or was
    /// quarantined by fault admission (stamped at the quarantine clock,
    /// never journaled: only genuine convergence may be skipped on
    /// restart) — and journals the genuinely converged ones.
    fn note_completions(&mut self) {
        let clock = self.clock;
        let mut finished: Vec<usize> = Vec::new();
        let (engine, served, standing) = (&self.engine, &mut self.served, &mut self.standing);
        self.open.retain(|&i| {
            let row = &mut served[i];
            let done = engine.job_done(row.job);
            if !done && engine.job_fault(row.job).is_none() {
                return true;
            }
            row.completed = Some(clock);
            // A converged standing emission becomes the runner's next
            // prior; a quarantined one leaves the last good prior in
            // place (resuming over a longer addition-only range is
            // still exact, and any removal forces the fallback).
            if done {
                if let Some((r, ts)) = row.standing {
                    standing[r].harvest(engine, row.job, ts);
                }
                finished.push(i);
            }
            false
        });
        if self.journal.is_some() {
            for i in finished {
                self.journal_completion(self.served[i]);
            }
        }
    }

    /// Appends one converged job's lifecycle to the journal; a write
    /// failure stops journaling but not serving.
    fn journal_completion(&mut self, row: Served) {
        let (Some(seq), Some(completed), Some(journal)) =
            (row.seq, row.completed, self.journal.as_mut())
        else {
            return;
        };
        let entry = JournalEntry { arrival: row.arrival, admitted: row.admitted, completed };
        if let Err(e) = journal.record(seq, entry) {
            self.journal = None;
            self.journal_fault.get_or_insert(e);
        }
    }

    /// Makes the round's journaled completions crash-durable (one fsync
    /// for the whole batch); a failure stops journaling but not serving.
    fn sync_journal(&mut self) {
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.sync() {
                self.journal = None;
                self.journal_fault.get_or_insert(e);
            }
        }
    }

    /// Serves the stream to exhaustion: admits, executes, and advances
    /// virtual time until the queue is empty and the engine idle — or
    /// until the engine's `max_loads` valve trips (checked between
    /// rounds like [`Engine::run`]'s loop).  A valve-truncated serve
    /// reports `completed = false`, stamps still-running jobs with the
    /// stop-time as their completion, and leaves unadmitted arrivals
    /// queued for a later `serve` call.
    pub fn serve(&mut self) -> ServeReport {
        let start_loads = self.engine.total_loads();
        let start_pipeline = self.engine.pipeline_seconds();
        let (start_waves, start_rounds) = (self.waves, self.rounds);
        let max_loads = self.engine.config().max_loads;
        let start_quarantined = self.engine.quarantined_count();
        let start_retries = self
            .engine
            .fault_plane()
            .map(|p| p.stats().retries)
            .unwrap_or(0);
        let mut completed = true;
        loop {
            let admitted = self.admit_due();
            let emitted = self.emit_standing();
            if admitted || emitted {
                // Jobs converged at submission complete with zero
                // execution latency.
                self.note_completions();
            }
            if self.engine.total_loads() - start_loads >= max_loads {
                completed =
                    self.open.is_empty() && self.admission.is_empty() && self.standing_exhausted();
                break;
            }
            let before = self.engine.pipeline_seconds();
            let round_t0 = self.rec.start();
            if self.engine.step_round() {
                self.rounds += 1;
                self.clock += (self.engine.pipeline_seconds() - before) * self.time_scale;
                self.note_completions();
                self.sync_journal();
                if self.rec.on() {
                    self.rec.complete(
                        EventKind::ServeRound,
                        NONE,
                        NONE,
                        self.rounds.min(u32::MAX as u64) as u32,
                        round_t0,
                        self.open.len() as u64,
                    );
                    self.obs
                        .registry()
                        .gauge("serve_open_jobs")
                        .set(self.open.len() as f64);
                }
                continue;
            }
            // A faulted engine (concurrent-executor worker death) can
            // never finish its open jobs: stop serving instead of
            // spinning on the idle-clock jump.
            if self.engine.exec_error().is_some() {
                completed = false;
                break;
            }
            // Engine idle: jump to the next admission deadline or the
            // next pending standing version (everything due is already
            // emitted, so the jump strictly advances), or stop once both
            // streams are exhausted.
            let deadline = match (self.admission.next_deadline(), self.next_standing_due()) {
                (Some(a), Some(s)) => Some(a.min(s)),
                (a, s) => a.or(s),
            };
            match deadline {
                Some(t) => self.clock = self.clock.max(t),
                None => break,
            }
        }
        // Truncated jobs below are stamped but never journaled — only
        // genuine convergence may be skipped on restart.  Flush any
        // completions the last iteration journaled.
        self.sync_journal();
        // Truncated jobs (still open) resolve at the stop-time so the
        // report is total; `completed` records that they were cut short.
        // Truncated standing emissions are never harvested: the runner
        // keeps its last *converged* prior.
        let clock = self.clock;
        self.open.clear();
        // Journal-resumed offers lead the report (their lifecycles are a
        // previous incarnation's, so they sort before this serve's), so
        // the combined job list covers the whole re-offered trace.
        let mut jobs: Vec<JobLatency> = std::mem::take(&mut self.resumed);
        jobs.extend(self.served.drain(..).map(|row| {
            let outcome = if self.engine.job_fault(row.job).is_some() {
                JobOutcome::Quarantined
            } else if self.engine.job_done(row.job) {
                JobOutcome::Completed
            } else {
                JobOutcome::Truncated
            };
            JobLatency {
                job: row.job,
                name: row.name,
                arrival: row.arrival,
                admitted: row.admitted,
                completed: row.completed.unwrap_or(clock),
                outcome,
            }
        }));
        let retries = self
            .engine
            .fault_plane()
            .map(|p| p.stats().retries)
            .unwrap_or(0)
            - start_retries;
        // Offer-time sheds since the previous report (see
        // `reported_rejected`): the offer phase precedes the loop.
        let rejected = self.rejected - self.reported_rejected;
        self.reported_rejected = self.rejected;
        let mut report = ServeReport::new(
            "cgraph-serve",
            self.base_window,
            jobs,
            self.waves - start_waves,
            self.rounds - start_rounds,
            self.engine.total_loads() - start_loads,
            self.engine.pipeline_seconds() - start_pipeline,
            completed,
        );
        report.rejected = rejected;
        report.quarantined = self.engine.quarantined_count() - start_quarantined;
        report.retries = retries;
        report
    }
}
