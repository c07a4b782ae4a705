//! Version-keyed wave batching over a timed arrival stream.

use cgraph_graph::snapshot::SnapshotStore;

use crate::job::JobId;
use crate::Engine;

/// One job arriving at a virtual time, carrying its deferred submission.
///
/// The submission is a closure over the target engine type (defaulting
/// to the CGraph [`Engine`]) so concrete vertex programs stay out of
/// this crate: `cgraph_algos::arrivals` builds these from trace spans.
/// The closure receives the snapshot timestamp the job binds — always
/// derived from the *arrival* time, never the admission time, so
/// deferral changes latency and sharing but never results.
pub struct Arrival<E = Engine> {
    /// Arrival time in virtual seconds.
    pub at: f64,
    /// Display name of the job kind (for reports).
    pub name: &'static str,
    /// Offer-order sequence number, stamped by a journaling
    /// [`ServeLoop`](super::ServeLoop) — the deterministic identity a
    /// re-offered trace reproduces across restarts.
    pub(crate) seq: Option<u64>,
    submit: SubmitFn<E>,
}

/// A deferred submission: engine + bind timestamp → job id.
type SubmitFn<E> = Box<dyn FnOnce(&mut E, u64) -> JobId + Send>;

impl<E> Arrival<E> {
    /// An arrival at virtual second `at` whose admission runs `submit`
    /// with the bind timestamp.
    pub fn new(
        at: f64,
        name: &'static str,
        submit: impl FnOnce(&mut E, u64) -> JobId + Send + 'static,
    ) -> Self {
        assert!(
            at.is_finite() && at >= 0.0,
            "arrival time must be finite and ≥ 0"
        );
        Arrival { at, name, seq: None, submit: Box::new(submit) }
    }

    /// The store timestamp this arrival binds its snapshot at: the
    /// floor of its arrival second (virtual seconds double as the
    /// snapshot clock).
    pub fn bind_timestamp(&self) -> u64 {
        self.at as u64
    }

    /// Consumes the arrival, submitting its job bound at `ts`.
    pub fn submit(self, engine: &mut E, ts: u64) -> JobId {
        (self.submit)(engine, ts)
    }
}

impl<E> std::fmt::Debug for Arrival<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arrival")
            .field("at", &self.at)
            .field("name", &self.name)
            .finish()
    }
}

/// Bounded-deferral admission with version-keyed release waves.
///
/// Arrivals queue for at most `window` virtual seconds.  When one's
/// deferral expires it *must* be admitted — and every queued arrival
/// already eligible (`at ≤ now`) that binds the same snapshot rides
/// along in the same wave, so jobs sharing partition versions start
/// aligned and the scheduler sees their full `N(P)` overlap from round
/// one.  At `window = 0` every eligible arrival's deferral is expired,
/// so waves are exactly the FIFO prefix of the queue regardless of
/// version keys.
pub struct AdmissionController<E = Engine> {
    window: f64,
    /// Pending arrivals, ascending by `at` (ties keep offer order).
    queue: Vec<Arrival<E>>,
}

impl<E> AdmissionController<E> {
    /// A controller deferring arrivals at most `window` virtual seconds.
    pub fn new(window: f64) -> Self {
        assert!(
            window.is_finite() && window >= 0.0,
            "admission window must be finite and ≥ 0"
        );
        AdmissionController { window, queue: Vec::new() }
    }

    /// The deferral window in virtual seconds.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Queues an arrival (any offer order; the queue stays sorted by
    /// arrival time, ties keeping offer order).
    pub fn offer(&mut self, arrival: Arrival<E>) {
        let pos = self
            .queue
            .iter()
            .rposition(|a| a.at <= arrival.at)
            .map_or(0, |p| p + 1);
        self.queue.insert(pos, arrival);
    }

    /// Number of queued arrivals.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The earliest instant a queued arrival's deferral expires — the
    /// time [`release`](Self::release) is next guaranteed non-empty
    /// (the serve loop's idle-clock jump target).
    pub fn next_deadline(&self) -> Option<f64> {
        self.queue.first().map(|a| a.at + self.window)
    }

    /// Pops the wave to admit at virtual time `now`: empty unless some
    /// eligible arrival's deferral has expired (`at + window ≤ now`),
    /// otherwise every eligible arrival binding the same snapshot as an
    /// expired one, in arrival order.
    pub fn release(&mut self, now: f64, store: &SnapshotStore) -> Vec<Arrival<E>> {
        let eligible = self.queue.iter().take_while(|a| a.at <= now).count();
        if eligible == 0 {
            return Vec::new();
        }
        let mut keys: Vec<u64> = self.queue[..eligible]
            .iter()
            .filter(|a| a.at + self.window <= now)
            .map(|a| store.snapshot_at(a.bind_timestamp()))
            .collect();
        if keys.is_empty() {
            return Vec::new();
        }
        keys.sort_unstable();
        keys.dedup();
        let mut wave = Vec::new();
        let mut rest = Vec::with_capacity(self.queue.len());
        for (i, a) in self.queue.drain(..).enumerate() {
            let rides = i < eligible
                && keys
                    .binary_search(&store.snapshot_at(a.bind_timestamp()))
                    .is_ok();
            if rides {
                wave.push(a);
            } else {
                rest.push(a);
            }
        }
        self.queue = rest;
        wave
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgraph_graph::snapshot::GraphDelta;
    use cgraph_graph::vertex_cut::VertexCutPartitioner;
    use cgraph_graph::{generate, Edge, Partitioner};

    /// Arrivals here never reach an engine; the closure type anchors `E`.
    fn arrival(at: f64) -> Arrival<()> {
        Arrival::new(at, "test", |_: &mut (), _| 0)
    }

    fn static_store() -> SnapshotStore {
        let ps = VertexCutPartitioner::new(4).partition(&generate::cycle(16));
        SnapshotStore::new(ps)
    }

    /// A store whose snapshot at ts 10 splits arrivals into two version
    /// groups: bind key 0 (arrivals < 10) and bind key 10 (arrivals ≥ 10).
    fn evolving_store() -> SnapshotStore {
        let mut s = static_store();
        s.apply(10, &GraphDelta::adding([Edge::unit(0, 5)]))
            .unwrap();
        s
    }

    #[test]
    fn window_zero_releases_fifo_prefix() {
        let store = evolving_store();
        let mut c = AdmissionController::new(0.0);
        for at in [2.0, 8.0, 12.0, 20.0] {
            c.offer(arrival(at));
        }
        // Everything eligible goes at once, across version groups,
        // in arrival order — FIFO.
        let wave = c.release(12.5, &store);
        let ats: Vec<f64> = wave.iter().map(|a| a.at).collect();
        assert_eq!(ats, vec![2.0, 8.0, 12.0]);
        assert_eq!(c.pending(), 1);
        assert!(c.release(12.5, &store).is_empty(), "nothing newly eligible");
    }

    #[test]
    fn deferral_holds_until_deadline() {
        let store = static_store();
        let mut c = AdmissionController::new(5.0);
        c.offer(arrival(3.0));
        assert!(c.release(3.0, &store).is_empty(), "deferral not expired");
        assert!(c.release(7.9, &store).is_empty());
        assert_eq!(c.next_deadline(), Some(8.0));
        assert_eq!(
            c.release(8.0, &store).len(),
            1,
            "expires exactly at deadline"
        );
    }

    #[test]
    fn expired_arrival_pulls_its_version_group_along() {
        let store = evolving_store();
        let mut c = AdmissionController::new(6.0);
        // Both bind the base snapshot (key 0); the third binds key 10.
        c.offer(arrival(2.0));
        c.offer(arrival(7.0));
        c.offer(arrival(11.0));
        // At 8.0 the first arrival's deferral expires; 7.0 shares its
        // bind key and rides along despite 5 seconds of headroom; 11.0
        // has not even arrived.
        let wave = c.release(8.0, &store);
        let ats: Vec<f64> = wave.iter().map(|a| a.at).collect();
        assert_eq!(ats, vec![2.0, 7.0]);
        assert_eq!(c.pending(), 1);
        // The cross-version arrival waits for its own deadline.
        assert!(c.release(12.0, &store).is_empty());
        let wave = c.release(17.0, &store);
        assert_eq!(wave.len(), 1);
        assert_eq!(wave[0].at, 11.0);
    }

    #[test]
    fn eligible_other_version_does_not_ride() {
        let store = evolving_store();
        let mut c = AdmissionController::new(4.0);
        c.offer(arrival(8.0)); // binds key 0
        c.offer(arrival(11.0)); // binds key 10, eligible at 12 but fresh
        let wave = c.release(12.0, &store);
        let ats: Vec<f64> = wave.iter().map(|a| a.at).collect();
        assert_eq!(ats, vec![8.0], "fresh cross-version arrival keeps waiting");
        assert_eq!(c.pending(), 1);
    }

    #[test]
    fn offers_sort_by_arrival_time() {
        let store = static_store();
        let mut c = AdmissionController::new(0.0);
        c.offer(arrival(9.0));
        c.offer(arrival(1.0));
        c.offer(arrival(4.0));
        assert_eq!(c.next_deadline(), Some(1.0));
        let wave = c.release(10.0, &store);
        let ats: Vec<f64> = wave.iter().map(|a| a.at).collect();
        assert_eq!(ats, vec![1.0, 4.0, 9.0]);
        assert!(c.is_empty());
    }

    #[test]
    fn bind_timestamp_floors_arrival_seconds() {
        assert_eq!(arrival(0.0).bind_timestamp(), 0);
        assert_eq!(arrival(3.7).bind_timestamp(), 3);
        assert_eq!(arrival(10.0).bind_timestamp(), 10);
    }

    #[test]
    #[should_panic(expected = "admission window")]
    fn negative_window_rejected() {
        AdmissionController::<()>::new(-1.0);
    }
}
