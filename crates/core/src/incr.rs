//! Incremental recomputation: monotone vertex programs resume from a
//! prior converged result at O(Δ) cost.
//!
//! # Why resuming is sound
//!
//! A [`VertexProgram`] whose `acc` is an idempotent lattice meet/join
//! (min, max, or) computes the *least fixpoint* of its edge
//! constraints: at convergence every vertex holds the best value any
//! path can derive, and adding edges can only *improve* values further
//! (monotonicity).  So a converged result on snapshot `S` is a valid
//! over-approximation on `S + additions`: re-deriving it only needs the
//! prior values re-scattered across the vertices whose edge sets
//! changed.  [`TypedJob::resume_from`](crate::TypedJob::resume_from)
//! seeds exactly that state:
//!
//! * a **frontier** vertex (incident to an added edge) starts at
//!   `(bottom, prior)` — active, so its first Trigger re-derives
//!   `prior` and scatters it along *all* its edges, including the new
//!   ones (re-sending along old edges is harmless: neighbors already
//!   hold at-least-as-good values and the idempotent `acc` discards
//!   the duplicate);
//! * every other vertex starts at `(prior, identity)` — inactive until
//!   a genuine improvement reaches it through normal delta propagation.
//!
//! The engine then runs the ordinary Load–Trigger–Push rounds: work is
//! proportional to the region the new edges actually improve, not the
//! graph.  Because the accumulators are exact (no float summation
//! reordering — `min`/`max`/`or` only ever *select* a candidate), the
//! resumed fixpoint is bit-for-bit the from-scratch fixpoint, which the
//! `tests/incremental.rs` proptests pin across executor and store
//! configurations.
//!
//! # The removal fallback rule
//!
//! A removed edge can *shrink* what is derivable (a shorter path
//! disappears, a component splits), and a monotone program has no way
//! to retract an already-propagated value.  So a resume is attempted
//! only over addition-only delta ranges:
//! [`Engine::submit_resumed_at`](crate::Engine::submit_resumed_at)
//! consults [`SnapshotStore::delta_summary`](cgraph_graph::ShardedSnapshotStore::delta_summary)
//! and falls back to a
//! from-scratch submission whenever the range carries any removal (or
//! the prior binds a newer snapshot than the target).  Results are
//! identical either way; only the cost differs.
//!
//! # Standing jobs
//!
//! A [`Standing`] runner owns one program plus its latest harvested
//! result and re-emits through the serve loop once per store version
//! (see [`ServeLoop::add_standing`](crate::ServeLoop::add_standing)):
//! each emission resumes from the previous one's result where the
//! delta range allows, and every emission journals like an ordinary
//! served job, so a killed loop replays finished emissions verbatim
//! and re-runs only the tail.  A journal-skipped emission's result is
//! unknown to the new incarnation, so the runner's prior is
//! [invalidated](StandingRunner::invalidate) and the next live
//! emission recomputes from scratch — correctness never depends on the
//! resume path being taken.

use crate::engine::Engine;
use crate::job::JobId;
use crate::program::VertexProgram;

/// A [`VertexProgram`] whose converged results may seed a later run on
/// a grown graph (see the [module docs](self) for the argument).
///
/// Implement this only for *monotone* programs: `acc` must be an
/// idempotent selection (min / max / or) and `edge_contrib` must be
/// monotone in its basis, so that added edges can only improve values.
/// Programs that sum contributions (e.g. PageRank) must **not**
/// implement it.
pub trait IncrementalProgram: VertexProgram {
    /// The "no information" value: `acc(bottom, x) == x`, and a vertex
    /// at `(bottom, prior)` re-derives exactly `prior` on its first
    /// Trigger.  For the lattice programs this is the `acc` identity,
    /// the default.
    fn bottom(&self) -> Self::Value {
        self.identity()
    }
}

/// What [`Engine::submit_resumed_at`](crate::Engine::submit_resumed_at)
/// did with a prior result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeSubmit {
    /// The submitted job's id (seeded or not, it runs like any other).
    pub job: JobId,
    /// `true` when the job was seeded from the prior result; `false`
    /// when a removal (or a backwards range) forced the from-scratch
    /// fallback.
    pub seeded: bool,
}

/// Object-safe face of one standing job, as driven by the serve loop:
/// re-submit one emission per store version, harvest its result as the
/// next emission's prior, and forget the prior when a journal replay
/// skips an emission this incarnation never saw the result of.
pub trait StandingRunner: Send {
    /// Display name for report rows.
    fn name(&self) -> &'static str;
    /// Submits the emission bound at snapshot timestamp `ts`, resuming
    /// from the harvested prior when one is held.
    fn resubmit(&mut self, engine: &mut Engine, ts: u64) -> JobId;
    /// Harvests a converged emission (submitted at `ts`) as the prior
    /// for the next one.
    fn harvest(&mut self, engine: &Engine, job: JobId, ts: u64);
    /// Drops the held prior: a journal replay skipped an emission whose
    /// result this incarnation does not have, so the next live emission
    /// must recompute from scratch.
    fn invalidate(&mut self);
    /// Emissions whose submission was seeded incrementally so far.
    fn seeded(&self) -> u64;
    /// Emissions submitted (journal-skipped replays not counted).
    fn emitted(&self) -> u64;
}

/// The typed standing job: one cloneable [`IncrementalProgram`] plus
/// the latest harvested `(bind timestamp, values)` prior.
pub struct Standing<P: IncrementalProgram + Clone> {
    name: &'static str,
    program: P,
    prior: Option<(u64, Vec<P::Value>)>,
    seeded: u64,
    emitted: u64,
}

impl<P: IncrementalProgram + Clone> Standing<P> {
    /// A standing job re-emitting `program` once per store version.
    pub fn new(name: &'static str, program: P) -> Self {
        Standing { name, program, prior: None, seeded: 0, emitted: 0 }
    }

    /// Boxes the runner for [`ServeLoop::add_standing`](crate::ServeLoop::add_standing).
    pub fn boxed(self) -> Box<dyn StandingRunner> {
        Box::new(self)
    }
}

impl<P: IncrementalProgram + Clone> StandingRunner for Standing<P> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn resubmit(&mut self, engine: &mut Engine, ts: u64) -> JobId {
        self.emitted += 1;
        match &self.prior {
            Some((prior_ts, values)) => {
                let r = engine.submit_resumed_at(self.program.clone(), ts, *prior_ts, values);
                if r.seeded {
                    self.seeded += 1;
                }
                r.job
            }
            None => engine.submit_at(self.program.clone(), ts),
        }
    }

    fn harvest(&mut self, engine: &Engine, job: JobId, ts: u64) {
        if let Some(values) = engine.results::<P>(job) {
            self.prior = Some((ts, values));
        }
    }

    fn invalidate(&mut self) {
        self.prior = None;
    }

    fn seeded(&self) -> u64 {
        self.seeded
    }

    fn emitted(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::VertexInfo;
    use cgraph_graph::Weight;

    /// Minimal monotone min-propagation program.
    #[derive(Clone)]
    struct MinProg;

    impl VertexProgram for MinProg {
        type Value = u32;

        fn init(&self, info: &VertexInfo) -> (u32, u32) {
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

        fn is_active(&self, value: &u32, delta: &u32) -> bool {
            delta < value
        }

        fn compute(&self, _i: &VertexInfo, value: u32, delta: u32) -> (u32, Option<u32>) {
            if delta < value {
                (delta, Some(delta))
            } else {
                (value, None)
            }
        }

        fn edge_contrib(&self, basis: u32, _w: Weight, _i: &VertexInfo) -> u32 {
            basis.saturating_add(1)
        }
    }

    impl IncrementalProgram for MinProg {}

    #[test]
    fn bottom_defaults_to_the_acc_identity() {
        assert_eq!(MinProg.bottom(), MinProg.identity());
    }

    #[test]
    fn standing_runner_tracks_prior_and_counters() {
        let mut s = Standing::new("min", MinProg);
        assert_eq!(s.name(), "min");
        assert_eq!((s.seeded(), s.emitted()), (0, 0));
        s.prior = Some((3, vec![0, 1]));
        s.invalidate();
        assert!(s.prior.is_none(), "invalidate drops the prior");
    }
}
