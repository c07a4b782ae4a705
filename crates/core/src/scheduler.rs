//! Partition-loading schedulers (paper §3.3, Eq. 1).

use cgraph_graph::{PartitionId, VersionId};

/// Everything the scheduler may consider about one loadable slot — a
/// `(partition, snapshot version)` pair needed by at least one job.
#[derive(Clone, Copy, Debug)]
pub struct SlotInfo {
    /// Partition id.
    pub pid: PartitionId,
    /// Snapshot version of the partition.
    pub version: VersionId,
    /// The snapshot-store shard (stage-one I/O lane) the partition is
    /// placed on; slots on distinct shards can fetch in parallel.
    pub shard: usize,
    /// `N(P)`: jobs that will process this slot now (temporal correlation).
    pub num_jobs: usize,
    /// `D(P)`: average whole-graph degree of the partition's replicas.
    pub avg_degree: f64,
    /// `C(P)`: average state-change magnitude at the previous iteration,
    /// averaged over the interested jobs.
    pub avg_change: f64,
}

/// Chooses which pending slot(s) to load next.
pub trait Scheduler: Send {
    /// Returns the index of the chosen slot.  `slots` is never empty.
    fn pick(&mut self, slots: &[SlotInfo]) -> usize;

    /// Plans a wavefront of up to `width` distinct slots, most urgent
    /// first.  `slots` is never empty; the result is non-empty, has no
    /// duplicates, and `plan(slots, 1)` equals `[pick(slots)]`.
    ///
    /// The default implementation picks greedily: it calls
    /// [`pick`](Self::pick) on the not-yet-chosen remainder once per wave slot,
    /// so every existing scheduler keeps its exact single-slot semantics
    /// and gains a consistent multi-slot extension for free.
    fn plan(&mut self, slots: &[SlotInfo], width: usize) -> Vec<usize> {
        let width = width.clamp(1, slots.len());
        if width == 1 {
            return vec![self.pick(slots)];
        }
        let mut remaining: Vec<usize> = (0..slots.len()).collect();
        let mut chosen = Vec::with_capacity(width);
        for _ in 0..width {
            let view: Vec<SlotInfo> = remaining.iter().map(|&i| slots[i]).collect();
            let local = self.pick(&view);
            chosen.push(remaining.remove(local));
        }
        chosen
    }

    /// Scheduler name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's correlations-aware priority scheduler:
/// `Pri(P) = N(P) + θ·D(P)·C(P)` with `0 ≤ θ < 1/(Dmax·Cmax)` so the
/// job-count term dominates and the degree/change product breaks ties.
///
/// `theta` here is the *fraction* of the admissible range: the effective
/// θ is `theta / (Dmax·Cmax)`, re-derived from the live slot set exactly as
/// the paper's runtime system derives it from profiled maxima.
#[derive(Clone, Copy, Debug)]
pub struct PriorityScheduler {
    /// Fraction of the admissible θ range, in `[0, 1)`.
    pub theta: f64,
}

impl PriorityScheduler {
    /// Creates a scheduler with the given θ fraction.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is outside `[0, 1)`.
    pub fn new(theta: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&theta),
            "theta fraction must be in [0, 1)"
        );
        PriorityScheduler { theta }
    }

    /// The priority of a slot given the live maxima.
    pub fn priority(&self, slot: &SlotInfo, dmax: f64, cmax: f64) -> f64 {
        let scale = dmax * cmax;
        let theta_eff = if scale > 0.0 { self.theta / scale } else { 0.0 };
        slot.num_jobs as f64 + theta_eff * slot.avg_degree * slot.avg_change
    }
}

impl Scheduler for PriorityScheduler {
    /// Greedy repeated `pick`, with a shard-aware tie-break: among slots
    /// of exactly the winning priority, prefer one on a shard the wave
    /// has not claimed yet, so the prefetch pipeline's stage-one I/O
    /// lanes stay busy instead of queueing behind one shard.  With one
    /// shard (or no exact ties) this reduces to the default greedy plan,
    /// keeping the single-shard schedule bit-for-bit.
    fn plan(&mut self, slots: &[SlotInfo], width: usize) -> Vec<usize> {
        let width = width.clamp(1, slots.len());
        let mut remaining: Vec<usize> = (0..slots.len()).collect();
        let mut chosen = Vec::with_capacity(width);
        let mut used_shards: Vec<usize> = Vec::with_capacity(width);
        for _ in 0..width {
            // The maxima are re-derived from the live remainder exactly
            // as `pick` would, so the first strict maximum matches it.
            let dmax = remaining
                .iter()
                .map(|&i| slots[i].avg_degree)
                .fold(0.0, f64::max);
            let cmax = remaining
                .iter()
                .map(|&i| slots[i].avg_change)
                .fold(0.0, f64::max);
            // One pass: track `pick`'s answer (first strict maximum) and
            // the first same-priority slot on a shard the wave has not
            // claimed — spreading ties across shards costs no priority.
            let mut best = 0usize;
            let mut best_pri = f64::NEG_INFINITY;
            let mut tied_unused: Option<usize> = None;
            for (pos, &i) in remaining.iter().enumerate() {
                let pri = self.priority(&slots[i], dmax, cmax);
                let unused = || !used_shards.contains(&slots[i].shard);
                if pri > best_pri {
                    best_pri = pri;
                    best = pos;
                    tied_unused = if unused() { Some(pos) } else { None };
                } else if pri == best_pri && tied_unused.is_none() && unused() {
                    tied_unused = Some(pos);
                }
            }
            let local = tied_unused.unwrap_or(best);
            used_shards.push(slots[remaining[local]].shard);
            chosen.push(remaining.remove(local));
        }
        chosen
    }

    fn pick(&mut self, slots: &[SlotInfo]) -> usize {
        let dmax = slots.iter().map(|s| s.avg_degree).fold(0.0, f64::max);
        let cmax = slots.iter().map(|s| s.avg_change).fold(0.0, f64::max);
        let mut best = 0;
        let mut best_pri = f64::NEG_INFINITY;
        for (i, s) in slots.iter().enumerate() {
            let pri = self.priority(s, dmax, cmax);
            // Strict `>` keeps the lowest (pid, version) on ties because
            // the engine presents slots in sorted order.
            if pri > best_pri {
                best_pri = pri;
                best = i;
            }
        }
        best
    }

    fn name(&self) -> &'static str {
        "priority"
    }
}

/// Fixed-order loading (lowest partition id first): the `CGraph-without`
/// ablation of the paper's Fig. 8 — the LTP sharing remains, the
/// correlations-aware ordering does not.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrderScheduler;

impl Scheduler for OrderScheduler {
    fn pick(&mut self, slots: &[SlotInfo]) -> usize {
        let mut best = 0;
        for (i, s) in slots.iter().enumerate() {
            if (s.pid, s.version) < (slots[best].pid, slots[best].version) {
                best = i;
            }
        }
        best
    }

    fn name(&self) -> &'static str {
        "fixed-order"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(pid: u32, jobs: usize, deg: f64, chg: f64) -> SlotInfo {
        SlotInfo { pid, version: 0, shard: 0, num_jobs: jobs, avg_degree: deg, avg_change: chg }
    }

    fn sharded(pid: u32, shard: usize, jobs: usize) -> SlotInfo {
        SlotInfo { pid, version: 0, shard, num_jobs: jobs, avg_degree: 1.0, avg_change: 1.0 }
    }

    #[test]
    fn job_count_dominates_priority() {
        let mut s = PriorityScheduler::new(0.9);
        // Slot 1 has one more job but minimal degree/change; it must win
        // regardless of slot 0's huge degree.
        let slots = [slot(0, 2, 1000.0, 1000.0), slot(1, 3, 0.1, 0.1)];
        assert_eq!(s.pick(&slots), 1);
    }

    #[test]
    fn degree_change_product_breaks_ties() {
        let mut s = PriorityScheduler::new(0.5);
        let slots = [slot(0, 2, 5.0, 1.0), slot(1, 2, 50.0, 1.0)];
        assert_eq!(s.pick(&slots), 1);
    }

    #[test]
    fn theta_zero_reduces_to_job_count() {
        let mut s = PriorityScheduler::new(0.0);
        let slots = [slot(0, 2, 1.0, 1.0), slot(1, 2, 99.0, 99.0)];
        // Equal N, theta 0: first (lowest pid) wins.
        assert_eq!(s.pick(&slots), 0);
    }

    #[test]
    #[should_panic(expected = "theta fraction")]
    fn theta_out_of_range_rejected() {
        PriorityScheduler::new(1.0);
    }

    #[test]
    fn order_scheduler_ignores_priorities() {
        let mut s = OrderScheduler;
        let slots = [slot(3, 9, 9.0, 9.0), slot(1, 1, 0.0, 0.0)];
        assert_eq!(s.pick(&slots), 1);
    }

    #[test]
    fn priority_value_matches_formula() {
        let s = PriorityScheduler::new(0.5);
        let sl = slot(0, 4, 10.0, 2.0);
        // dmax=10, cmax=2 -> theta_eff = 0.5/20; pri = 4 + 0.025*20 = 4.5.
        let pri = s.priority(&sl, 10.0, 2.0);
        assert!((pri - 4.5).abs() < 1e-12);
    }

    #[test]
    fn zero_maxima_safe() {
        let s = PriorityScheduler::new(0.5);
        let sl = slot(0, 1, 0.0, 0.0);
        assert_eq!(s.priority(&sl, 0.0, 0.0), 1.0);
    }

    #[test]
    fn plan_width_one_equals_pick() {
        let slots = [
            slot(0, 2, 5.0, 1.0),
            slot(1, 3, 0.1, 0.1),
            slot(2, 3, 9.0, 2.0),
        ];
        let mut pri = PriorityScheduler::new(0.7);
        assert_eq!(pri.plan(&slots, 1), vec![pri.pick(&slots)]);
        let mut ord = OrderScheduler;
        assert_eq!(ord.plan(&slots, 1), vec![ord.pick(&slots)]);
    }

    #[test]
    fn plan_returns_distinct_urgent_first() {
        let slots = [
            slot(0, 1, 1.0, 1.0),
            slot(1, 5, 1.0, 1.0),
            slot(2, 3, 1.0, 1.0),
        ];
        let mut s = PriorityScheduler::new(0.0);
        let wave = s.plan(&slots, 2);
        assert_eq!(wave, vec![1, 2], "most jobs first, then next best");
        let full = s.plan(&slots, 3);
        assert_eq!(full, vec![1, 2, 0]);
    }

    /// When priorities tie exactly, the wave spreads across shards so
    /// stage-one I/O lanes fetch in parallel — without ever outranking a
    /// strictly higher-priority slot.
    #[test]
    fn plan_interleaves_shards_on_ties() {
        let mut s = PriorityScheduler::new(0.0);
        // pids 0..3 on shards 0,0,1,1, all tied at 2 jobs.
        let slots = [
            sharded(0, 0, 2),
            sharded(1, 0, 2),
            sharded(2, 1, 2),
            sharded(3, 1, 2),
        ];
        let wave = s.plan(&slots, 4);
        // First the pick (pid 0, shard 0), then the tie on the unused
        // shard 1 (pid 2), then fall back to first-max order.
        assert_eq!(wave, vec![0, 2, 1, 3]);
        // A strictly higher-priority slot still wins regardless of shard;
        // the tie behind it then prefers the unclaimed shard.
        let slots = [sharded(0, 0, 2), sharded(1, 0, 5), sharded(2, 1, 2)];
        let wave = s.plan(&slots, 3);
        assert_eq!(wave, vec![1, 2, 0], "priority first, then shard spread");
    }

    #[test]
    fn plan_clamps_width_to_slot_count() {
        let slots = [slot(4, 1, 1.0, 1.0), slot(7, 1, 1.0, 1.0)];
        let mut s = OrderScheduler;
        assert_eq!(s.plan(&slots, 10), vec![0, 1]);
        assert_eq!(s.plan(&slots, 0), vec![0], "width 0 coerces to 1");
    }
}
