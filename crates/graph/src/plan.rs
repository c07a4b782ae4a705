//! The replica plan: a view's master→mirror routing table.
//!
//! Push (paper Alg. 2) ends by copying every touched master's state to
//! its mirror replicas.  Which slots those are — partition and local
//! index — is a constant of the snapshot, not of the job or the
//! iteration, so a [`ReplicaPlan`] resolves it once per view: a CSR
//! from each local slot that is a *master* to its mirror slots,
//! ascending by partition.  Mirror slots (and fully local vertices) map
//! to an empty range.
//!
//! A plan is plain index data — 4 B per replica plus 8 B per mirror
//! slot, in two flat allocations — and holds no reference back into the
//! store, so keeping one alive never pins a snapshot.
//! [`GraphView::replica_plan`] hands out the shared, lazily built plan
//! of a view.
//!
//! [`GraphView::replica_plan`]: crate::snapshot::GraphView::replica_plan

use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::partition::Partition;
use crate::types::{LocalId, PartitionId, VertexId, NO_PARTITION};

/// One mirror replica: the partition holding it and its local index there.
pub type MirrorSlot = (PartitionId, LocalId);

/// Master→mirror routing for every partition of one view.
///
/// One CSR over all replica slots of the view, partitions back to back:
/// local slot `li` of partition `p` is row `base[p] + li`, and a
/// partition's rows own one contiguous run of `slots`.  Two exact-size
/// allocations rather than a pair per partition: a plan is rebuilt per
/// bound version, and many small blocks freed between a store's
/// long-lived partition allocations fragment the heap measurably.
#[derive(Debug)]
pub struct ReplicaPlan {
    base: Vec<u32>,
    offsets: Vec<u32>,
    slots: Vec<MirrorSlot>,
}

impl ReplicaPlan {
    /// Resolves every replica of the view to its local slot by merging:
    /// vertices are visited in ascending id order and each partition's
    /// vertex list is sorted, so a vertex's local index in a partition
    /// is simply how many of that partition's replicas were visited
    /// before it — no search per replica.  A first pass over the replica
    /// table sizes each partition's run of `slots`.
    ///
    /// # Panics
    ///
    /// Panics if the replica table and the partitions disagree (a listed
    /// replica partition lacks the vertex, a partition holds a vertex
    /// the table omits, or the master is not among the replicas).  Push
    /// relies on the plan unchecked, so this is the one place the
    /// invariant is validated.
    pub(crate) fn build<'a>(
        parts: &[&Partition],
        num_vertices: VertexId,
        master_of: impl Fn(VertexId) -> PartitionId,
        replicas_of: impl Fn(VertexId) -> &'a [PartitionId],
    ) -> ReplicaPlan {
        let np = parts.len();
        // `next[p]`: where partition p's next row starts in `slots` —
        // first its run's start (mirror slots routed to by p's masters,
        // prefix-summed), then advanced as p's masters are filled in.
        let mut next = vec![0u32; np + 1];
        let mut masters: Vec<PartitionId> = Vec::with_capacity(num_vertices as usize);
        for v in 0..num_vertices {
            let reps = replicas_of(v);
            if reps.is_empty() {
                masters.push(NO_PARTITION);
                continue;
            }
            let master = master_of(v);
            assert!(
                reps.contains(&master),
                "inconsistent view: master partition {master} of vertex {v} is not among \
                 its replica partitions {reps:?}"
            );
            next[master as usize + 1] += reps.len() as u32 - 1;
            masters.push(master);
        }
        let mut base = Vec::with_capacity(np + 1);
        let mut rows = 0u32;
        for (p, part) in parts.iter().enumerate() {
            next[p + 1] += next[p];
            base.push(rows);
            rows += part.num_local_vertices() as u32;
        }
        base.push(rows);

        let mut offsets = vec![0u32; rows as usize + 1];
        let mut slots: Vec<MirrorSlot> = vec![(0, 0); next[np] as usize];
        let mut visited = vec![0 as LocalId; np];
        let mut locals: Vec<LocalId> = Vec::new();
        for v in 0..num_vertices {
            let master = masters[v as usize];
            if master == NO_PARTITION {
                continue;
            }
            let reps = replicas_of(v);
            locals.clear();
            for &q in reps {
                let li = visited[q as usize];
                match parts[q as usize].vertex_ids().get(li as usize) {
                    Some(&u) if u == v => {}
                    Some(&u) if u < v => unlisted(q, u),
                    _ => panic!(
                        "inconsistent view: replica table lists partition {q} for vertex {v} \
                         (master in partition {master}), but partition {q} holds no replica of it"
                    ),
                }
                // Only master rows are filled, so a mirror's row ends
                // where it starts.
                offsets[(base[q as usize] + li) as usize] = next[q as usize];
                visited[q as usize] += 1;
                locals.push(li);
            }
            let fill = &mut next[master as usize];
            for (&q, &li) in reps.iter().zip(&locals).filter(|&(&q, _)| q != master) {
                slots[*fill as usize] = (q, li);
                *fill += 1;
            }
        }
        for (q, part) in parts.iter().enumerate() {
            if let Some(&u) = part.vertex_ids().get(visited[q] as usize) {
                unlisted(q as PartitionId, u);
            }
        }
        offsets[rows as usize] = slots.len() as u32;
        ReplicaPlan { base, offsets, slots }
    }

    /// The mirror slots of the master at local slot `local` of partition
    /// `pid`, ascending by partition; empty when that slot is a mirror
    /// or the vertex has no other replica.
    pub fn mirrors(&self, pid: PartitionId, local: LocalId) -> &[MirrorSlot] {
        let row = (self.base[pid as usize] + local) as usize;
        &self.slots[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    /// Total mirror slots across all partitions (replicas minus masters).
    pub fn num_mirror_slots(&self) -> usize {
        self.slots.len()
    }
}

fn unlisted(q: PartitionId, u: VertexId) -> ! {
    panic!(
        "inconsistent view: partition {q} holds a replica of vertex {u} \
         that the replica table omits"
    )
}

/// A store's plans, keyed by snapshot record index (`None` = the base;
/// records are append-only, so an index names one snapshot for good).
///
/// Every plan some job still holds is findable through its `Weak`, so
/// jobs bound to one view always share one plan; the store itself keeps
/// only the most recently bound plan alive, so a run of short jobs on
/// one view builds once while a long stream of versions never
/// accumulates plans.
#[derive(Debug, Default)]
pub(crate) struct PlanCache(Mutex<PlanCacheState>);

#[derive(Debug, Default)]
struct PlanCacheState {
    newest: Option<Arc<ReplicaPlan>>,
    live: Vec<(Option<usize>, Weak<ReplicaPlan>)>,
}

impl PlanCache {
    /// The plan of snapshot `record`, built with `build` unless a live
    /// one exists; the flag says whether this call built it.
    pub(crate) fn bind(
        &self,
        record: Option<usize>,
        build: impl FnOnce() -> ReplicaPlan,
    ) -> (Arc<ReplicaPlan>, bool) {
        // A `build` that panicked (inconsistent view) had not touched the
        // cache yet, so a poisoned lock still guards valid state.
        let mut cache = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let shared = cache
            .live
            .iter()
            .find(|(r, _)| *r == record)
            .and_then(|(_, plan)| plan.upgrade());
        let built = shared.is_none();
        let plan = shared.unwrap_or_else(|| {
            let plan = Arc::new(build());
            cache.live.retain(|(_, p)| p.strong_count() > 0);
            cache.live.push((record, Arc::downgrade(&plan)));
            plan
        });
        cache.newest = Some(Arc::clone(&plan));
        (plan, built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex_cut::VertexCutPartitioner;
    use crate::{generate, PartitionSet, Partitioner};

    fn build_from(
        ps: &PartitionSet,
        replicas_of: impl Fn(VertexId) -> Vec<PartitionId>,
    ) -> ReplicaPlan {
        let parts: Vec<&Partition> = ps.partitions().iter().map(|p| &**p).collect();
        let table: Vec<Vec<PartitionId>> = (0..ps.num_vertices()).map(replicas_of).collect();
        ReplicaPlan::build(
            &parts,
            ps.num_vertices(),
            |v| ps.master_of(v),
            |v| table[v as usize].as_slice(),
        )
    }

    #[test]
    fn routes_every_master_to_its_mirrors() {
        let el = generate::rmat(8, 6, generate::RmatParams::default(), 5);
        let ps = VertexCutPartitioner::new(5).partition(&el);
        let plan = build_from(&ps, |v| ps.replicas_of(v).to_vec());
        let mut slots = 0;
        for p in ps.partitions() {
            for (li, &v) in p.vertex_ids().iter().enumerate() {
                let got = plan.mirrors(p.id(), li as LocalId);
                if ps.master_of(v) != p.id() {
                    assert!(got.is_empty(), "mirror slot of vertex {v} routes nowhere");
                    continue;
                }
                let want: Vec<MirrorSlot> = ps
                    .replicas_of(v)
                    .iter()
                    .filter(|&&q| q != p.id())
                    .map(|&q| (q, ps.partition(q).local_of(v).unwrap()))
                    .collect();
                assert_eq!(got, want, "vertex {v}");
                slots += got.len();
            }
        }
        assert_eq!(plan.num_mirror_slots(), slots);
        assert!(slots > 0, "fixture must replicate something");
    }

    /// `ps`'s replica table with `edit` applied to `victim`'s entry.
    fn build_corrupted(
        ps: &PartitionSet,
        victim: VertexId,
        edit: impl Fn(&mut Vec<PartitionId>),
    ) -> ReplicaPlan {
        build_from(ps, |v| {
            let mut reps = ps.replicas_of(v).to_vec();
            if v == victim {
                edit(&mut reps);
            }
            reps
        })
    }

    #[test]
    fn replica_table_naming_a_partition_that_lacks_the_vertex_is_refused() {
        let ps = VertexCutPartitioner::new(4).partition(&generate::cycle(16));
        let (victim, absent) = (0..ps.num_vertices())
            .find_map(|v| {
                let reps = ps.replicas_of(v);
                let q = (0..4).find(|q| !reps.contains(q))?;
                (!reps.is_empty()).then_some((v, q))
            })
            .expect("some replicated vertex misses some partition");
        let err = std::panic::catch_unwind(|| {
            build_corrupted(&ps, victim, |reps| {
                reps.push(absent);
                reps.sort_unstable();
            })
        })
        .expect_err("inconsistent table must be refused");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        let master = ps.master_of(victim);
        for needle in [
            format!("lists partition {absent} for vertex {victim} "),
            format!("master in partition {master}"),
            format!("partition {absent} holds no replica of it"),
        ] {
            assert!(msg.contains(&needle), "{msg:?} lacks {needle:?}");
        }
    }

    #[test]
    #[should_panic(expected = "that the replica table omits")]
    fn replica_table_omitting_a_held_vertex_is_refused() {
        let ps = VertexCutPartitioner::new(4).partition(&generate::cycle(16));
        let victim = (0..ps.num_vertices())
            .find(|&v| ps.replicas_of(v).len() > 1)
            .expect("a replicated vertex");
        let master = ps.master_of(victim);
        build_corrupted(&ps, victim, |reps| reps.retain(|&q| q == master));
    }
}
