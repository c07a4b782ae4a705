//! Asynchronous partition prefetch: the three-stage pipeline model of
//! a wavefront round.
//!
//! A serialized Load would be one disk→memory→cache stage, and disk is
//! the slowest resource in the cost model (0.5 GB/s vs the memory
//! channel's 20 GB/s).  [`pipeline_makespan`] splits Load in two and
//! schedules the halves on the resources they actually occupy:
//!
//! 1. **fetch** (disk → memory) — runs on per-shard I/O lanes: the
//!    sharded snapshot store gives every shard an independent delta
//!    chain, so fetches of slots on distinct shards proceed in parallel.
//!    A slot's lane is its partition's shard,
//!    [`cgraph_graph::ShardedSnapshotStore::shard_of`].  A fetch may be
//!    *issued early*: up to `EngineConfig::prefetch_depth` wave slots
//!    ahead of the slot currently installing, bounded by the prefetch
//!    buffer.
//! 2. **install** (memory → cache, plus miss latency) — serialized on
//!    the one shared memory channel, in plan order.
//! 3. **trigger** (compute) — the worker cores.
//!
//! With depth 0 the first two stages fuse back into one serialized
//! Load chain and the model degenerates *exactly* to the two-stage
//! flow-shop of [`super::wavefront::flowshop_makespan`].
//!
//! The window is modeled only.  The executor ([`super::wavefront`])
//! installs each slot inline, in plan order: structure partitions are
//! already in memory, so no thread could win the overlap this model
//! prices for a real disk.

/// Makespan of a fixed-sequence three-stage pipeline whose first stage
/// has per-lane capacity and a bounded issue window.
///
/// Slot `i` fetches on lane `lanes[i]` (one fetch in flight per lane),
/// installs on the shared channel in sequence order, and triggers on the
/// cores in sequence order.  The prefetch buffer holds at most `depth`
/// fetched-but-not-installed slots, so slot `i`'s fetch may start only
/// once slot `i - 1 - depth`'s install has completed:
///
/// ```text
/// C1[i] = max(lane_free[lanes[i]], C2[i - 1 - depth]) + fetch[i]
/// C2[i] = max(C1[i], C2[i - 1]) + install[i]
/// C3[i] = max(C2[i], C3[i - 1]) + trigger[i]
/// ```
///
/// At `depth = 0` the release constraint `C2[i-1]` dominates every lane,
/// collapsing stages one and two into the fused serialized chain of the
/// two-stage model; deeper windows and more lanes only relax
/// constraints, so the makespan is monotonically non-increasing in both.
pub fn pipeline_makespan(
    fetch: &[f64],
    install: &[f64],
    trigger: &[f64],
    lanes: &[usize],
    depth: usize,
) -> f64 {
    debug_assert_eq!(fetch.len(), install.len());
    debug_assert_eq!(fetch.len(), trigger.len());
    debug_assert_eq!(fetch.len(), lanes.len());
    let nlanes = lanes.iter().map(|&l| l + 1).max().unwrap_or(1);
    let mut lane_free = vec![0.0f64; nlanes];
    let mut c2 = vec![0.0f64; fetch.len()];
    let mut c2_prev = 0.0f64;
    let mut c3_prev = 0.0f64;
    for i in 0..fetch.len() {
        let released = match i.checked_sub(depth + 1) {
            Some(j) => c2[j],
            None => 0.0,
        };
        let c1 = lane_free[lanes[i]].max(released) + fetch[i];
        lane_free[lanes[i]] = c1;
        c2[i] = c1.max(c2_prev) + install[i];
        c2_prev = c2[i];
        c3_prev = c2[i].max(c3_prev) + trigger[i];
    }
    c3_prev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::wavefront::flowshop_makespan;

    fn fused(fetch: &[f64], install: &[f64], trigger: &[f64]) -> f64 {
        let loads: Vec<f64> = fetch.iter().zip(install).map(|(f, m)| f + m).collect();
        flowshop_makespan(&loads, trigger)
    }

    #[test]
    fn empty_pipeline_is_zero() {
        assert_eq!(pipeline_makespan(&[], &[], &[], &[], 4), 0.0);
    }

    #[test]
    fn single_slot_is_linear() {
        let c = pipeline_makespan(&[3.0], &[1.0], &[2.0], &[0], 8);
        assert!((c - 6.0).abs() < 1e-12, "got {c}");
    }

    #[test]
    fn depth_zero_degenerates_to_two_stage() {
        let fetch = [2.0, 0.5, 3.0, 1.0];
        let install = [0.25, 0.5, 0.1, 0.4];
        let trigger = [1.0, 2.0, 0.5, 0.75];
        for lanes in [[0usize, 0, 0, 0], [0, 1, 2, 3]] {
            let c = pipeline_makespan(&fetch, &install, &trigger, &lanes, 0);
            let two = fused(&fetch, &install, &trigger);
            assert!((c - two).abs() < 1e-12, "lanes {lanes:?}: {c} vs {two}");
        }
    }

    #[test]
    fn lanes_overlap_fetches() {
        // Four disk-bound slots on four lanes with a wide window: the
        // first three fetches all start at time 0.
        let fetch = [10.0, 10.0, 10.0, 10.0];
        let install = [0.5, 0.5, 0.5, 0.5];
        let trigger = [0.1, 0.1, 0.1, 0.1];
        let lanes = [0, 1, 2, 3];
        let wide = pipeline_makespan(&fetch, &install, &trigger, &lanes, 8);
        let serial = fused(&fetch, &install, &trigger);
        assert!(
            wide < 0.5 * serial,
            "parallel lanes {wide} vs fused {serial}"
        );
        // Same lane for everything: fetches serialize again.
        let one_lane = pipeline_makespan(&fetch, &install, &trigger, &[0, 0, 0, 0], 8);
        assert!(one_lane > wide);
        assert!(one_lane <= serial + 1e-12);
    }

    #[test]
    fn deeper_windows_never_hurt() {
        let fetch = [4.0, 1.0, 3.0, 2.0, 5.0];
        let install = [0.5, 0.25, 0.75, 0.5, 0.25];
        let trigger = [1.0, 2.0, 0.5, 1.5, 1.0];
        let lanes = [0, 1, 0, 1, 0];
        let mut prev = f64::INFINITY;
        for depth in 0..6 {
            let c = pipeline_makespan(&fetch, &install, &trigger, &lanes, depth);
            assert!(c <= prev + 1e-12, "depth {depth}: {c} > {prev}");
            prev = c;
        }
    }

    #[test]
    fn bounded_by_linear_sum_and_stage_floors() {
        let fetch = [2.0, 1.0, 4.0];
        let install = [0.5, 0.25, 0.75];
        let trigger = [1.0, 3.0, 0.5];
        let lanes = [0, 1, 0];
        let c = pipeline_makespan(&fetch, &install, &trigger, &lanes, 2);
        let linear: f64 =
            fetch.iter().sum::<f64>() + install.iter().sum::<f64>() + trigger.iter().sum::<f64>();
        assert!(c <= linear + 1e-12);
        // Floors: every stage's serialized resource is a lower bound —
        // the busiest lane, the install channel, the trigger chain.
        assert!(c >= 2.0 + 4.0, "lane 0 fetch floor");
        assert!(c >= install.iter().sum::<f64>());
        assert!(c >= trigger.iter().sum::<f64>());
    }
}
