//! Job runtimes: the typed per-job execution state behind the engine's
//! object-safe [`JobRuntime`] interface.
//!
//! The Trigger stage (paper Alg. 1) lives in
//! [`JobRuntime::process_chunk`]; the Push stage (paper Alg. 2) in
//! [`JobRuntime::push_and_advance`].  Baseline engines drive the same
//! runtime with different loading disciplines, so correctness is identical
//! across engines by construction — only access patterns differ.
//!
//! A [`TypedJob`] keeps everything it mutates behind one lock, taken once
//! per trait call.  Every engine calls a job from one thread at a time,
//! so the lock never contends; it is what makes the runtime `Sync`.

use std::any::Any;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use cgraph_graph::{
    GraphView, LocalId, PartitionId, ReplicaPlan, VersionId, VertexId, Weight, NO_PARTITION,
};

use crate::lock;
use crate::obs::{Counter, Observer};
use crate::program::{EdgeDirection, VertexInfo, VertexProgram};
use crate::state::{PartState, PendingSet};

/// Engine-assigned job identifier.
pub type JobId = u32;

/// Compute-op counts returned by one processed chunk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Vertices folded (consume operations).
    pub vertex_ops: u64,
    /// Edge contributions scattered.
    pub edge_ops: u64,
}

impl std::ops::AddAssign for ProcessStats {
    fn add_assign(&mut self, other: ProcessStats) {
        self.vertex_ops += other.vertex_ops;
        self.edge_ops += other.edge_ops;
    }
}

/// What one Push stage did, for the engine's accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PushStats {
    /// Private-table partitions whose masters received mirror
    /// contributions, strictly ascending, each with how many it received
    /// (paper Alg. 2 SortD; a master's own `acc` is not counted).
    pub touched_master_parts: Vec<(PartitionId, u64)>,
    /// Partitions whose mirror slots received their master's new total,
    /// strictly ascending, each with how many it received (SortS).
    pub touched_mirror_parts: Vec<(PartitionId, u64)>,
    /// Synchronization operations: the counts of `touched_master_parts`
    /// and `touched_mirror_parts` summed.
    pub sync_records: u64,
    /// Whether the job converged (nothing active next iteration).
    pub converged: bool,
}

/// Object-safe view of a running job used by every engine in the workspace.
pub trait JobRuntime: Send + Sync {
    /// Engine-assigned id.
    fn id(&self) -> JobId;
    /// The snapshot view the job is bound to.
    fn view(&self) -> &GraphView;
    /// Current iteration number (1-based; 0 before the first activation).
    fn iteration(&self) -> u64;
    /// Active-and-unprocessed partitions in id order.
    fn pending(&self) -> Vec<PartitionId>;
    /// The pending partitions as `(partition, snapshot version)` slot
    /// keys — what the executor's slot planner tracks.  A job's view is
    /// immutable, so each partition's version is fixed for its lifetime.
    fn pending_slots(&self) -> Vec<(PartitionId, VersionId)> {
        let view = self.view();
        self.pending()
            .into_iter()
            .map(|pid| (pid, view.version_of(pid)))
            .collect()
    }
    /// Bytes of this job's private table for `pid`.
    fn private_table_bytes(&self, pid: PartitionId) -> u64;
    /// Processes chunk `chunk` of `nchunks` of partition `pid` (Trigger):
    /// the local vertices `nv * chunk / nchunks .. nv * (chunk + 1) /
    /// nchunks`.  Every engine passes `(0, 1)`, the whole partition.
    fn process_chunk(&self, pid: PartitionId, chunk: usize, nchunks: usize) -> ProcessStats;
    /// Marks `pid` fully processed for this iteration.
    fn mark_processed(&self, pid: PartitionId);
    /// CLIP-style data re-entry (Ai et al., ATC'17): while `pid` is still
    /// loaded, repeatedly fold partition-local contributions (for vertices
    /// whose only replica lives here, so no cross-partition sync is owed)
    /// and reprocess, up to `max_rounds` times.  Returns the extra compute.
    fn reenter_partition(&self, pid: PartitionId, max_rounds: u64) -> ProcessStats;
    /// Whether every pending partition has been processed.
    fn iteration_complete(&self) -> bool;
    /// Push stage: synchronize replicas, compute the next iteration's
    /// active set, and advance the iteration counter.
    fn push_and_advance(&self) -> PushStats;
    /// Whether the job has converged.
    fn is_converged(&self) -> bool;
    /// Average delta magnitude that arrived in `pid` at the last Push —
    /// the per-job contribution to the scheduler's `C(P)` (Eq. 1).
    fn partition_change(&self, pid: PartitionId) -> f64;
    /// Downcast support for typed result extraction.
    fn as_any(&self) -> &dyn Any;
}

/// The typed runtime for one vertex program.
pub struct TypedJob<P: VertexProgram> {
    id: JobId,
    program: P,
    view: GraphView,
    /// Immutable per-partition `VertexInfo` tables (replica-parallel).
    infos: Vec<Vec<VertexInfo>>,
    /// The view's shared replica routing (Push).
    plan: Arc<ReplicaPlan>,
    /// Whether binding `plan` built it (vs. shared a live one).
    plan_built: bool,
    /// `push_mirror_records`, once [`observed`](Self::observed).
    mirror_records: Option<Arc<Counter>>,
    /// Everything the job mutates, behind its one lock.
    state: Mutex<JobState<P::Value>>,
}

/// A job's mutable state: its private tables and the iteration's
/// bookkeeping.
struct JobState<V> {
    /// One private table per partition.
    parts: Vec<PartState<V>>,
    /// Partitions this iteration activated, and which are processed.
    pending: PendingSet,
    /// Average active delta magnitude per partition, as of the last Push.
    change: Vec<f64>,
    /// Current iteration (1-based; 0 before the first activation).
    iteration: u64,
    converged: bool,
}

impl<P: VertexProgram> TypedJob<P> {
    /// Creates the runtime, initializes every replica's state from
    /// [`VertexProgram::init`], and computes the first active set.
    pub fn new(id: JobId, program: P, view: GraphView) -> Self {
        let np = view.num_partitions();
        let identity = program.identity();
        let mut infos = Vec::with_capacity(np);
        let mut parts = Vec::with_capacity(np);
        for pid in 0..np as PartitionId {
            let part = view.partition(pid);
            // Degrees come from the *view*, not the partition metadata:
            // after a snapshot delta, unchanged partitions keep their cache
            // identity while per-vertex degrees may still have moved.
            let info: Vec<VertexInfo> = part
                .vertex_ids()
                .iter()
                .map(|&vid| {
                    let (out_degree, in_degree) = view.degree_of(vid);
                    VertexInfo { vid, out_degree, in_degree }
                })
                .collect();
            let mut st = PartState::new(info.len(), identity);
            for (li, vi) in info.iter().enumerate() {
                let (v, d) = program.init(vi);
                st.values[li] = v;
                st.deltas[li] = d;
            }
            infos.push(info);
            parts.push(st);
        }

        Self::assemble(id, program, view, infos, parts)
    }

    /// Creates the runtime seeded from a prior converged result instead
    /// of [`VertexProgram::init`]: `frontier` vertices (sorted, deduped;
    /// the endpoints of the delta's edges) start at `(bottom, prior)` —
    /// active, re-scattering their prior value along every local edge —
    /// while all other vertices start at `(prior, identity)`, inactive
    /// until an improvement reaches them.  See the [`crate::incr`]
    /// module docs for why this converges to the from-scratch fixpoint
    /// on addition-only deltas.
    pub fn resume_from(
        id: JobId,
        program: P,
        view: GraphView,
        prior: &[P::Value],
        frontier: &[VertexId],
    ) -> Self
    where
        P: crate::incr::IncrementalProgram,
    {
        assert_eq!(
            prior.len(),
            view.num_vertices() as usize,
            "prior result must cover every vertex of the resumed view"
        );
        debug_assert!(
            frontier.windows(2).all(|w| w[0] < w[1]),
            "frontier sorted+deduped"
        );
        let np = view.num_partitions();
        let identity = program.identity();
        let bottom = program.bottom();
        let mut infos = Vec::with_capacity(np);
        let mut parts = Vec::with_capacity(np);
        for pid in 0..np as PartitionId {
            let part = view.partition(pid);
            let info: Vec<VertexInfo> = part
                .vertex_ids()
                .iter()
                .map(|&vid| {
                    let (out_degree, in_degree) = view.degree_of(vid);
                    VertexInfo { vid, out_degree, in_degree }
                })
                .collect();
            let mut st = PartState::new(info.len(), identity);
            for (li, vi) in info.iter().enumerate() {
                if frontier.binary_search(&vi.vid).is_ok() {
                    // Frontier replica: re-derive and re-scatter the prior.
                    st.values[li] = bottom;
                    st.deltas[li] = prior[vi.vid as usize];
                } else {
                    st.values[li] = prior[vi.vid as usize];
                    st.deltas[li] = identity;
                }
            }
            infos.push(info);
            parts.push(st);
        }

        Self::assemble(id, program, view, infos, parts)
    }

    /// The shared tail of the constructors: binds the view's replica
    /// plan and computes the first active set over the seeded tables.
    fn assemble(
        id: JobId,
        program: P,
        view: GraphView,
        infos: Vec<Vec<VertexInfo>>,
        parts: Vec<PartState<P::Value>>,
    ) -> Self {
        let np = parts.len();
        let (plan, plan_built) = view.bind_replica_plan();
        let state = JobState {
            parts,
            pending: PendingSet::new(np),
            change: vec![0.0; np],
            iteration: 0,
            converged: false,
        };
        let job = TypedJob {
            id,
            program,
            view,
            infos,
            plan,
            plan_built,
            mirror_records: None,
            state: Mutex::new(state),
        };
        {
            let mut st = lock(&job.state);
            job.recompute_activation(&mut st, 0..np as PartitionId);
            if st.pending.any_active() {
                st.iteration = 1;
            } else {
                st.converged = true;
            }
        }
        job
    }

    /// The wrapped program.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The replica plan this job routes Push through — the one every
    /// job bound to the same view shares.
    pub fn replica_plan(&self) -> &Arc<ReplicaPlan> {
        &self.plan
    }

    /// Reports this job into `obs`'s registry (nothing when `obs` is
    /// disabled): its plan bind as `replica_plan_builds` or
    /// `replica_plan_hits`, and from here on every Push's mirror
    /// fan-out as `push_mirror_records`.
    pub fn observed(mut self, obs: &Observer) -> Self {
        if obs.is_enabled() {
            let registry = obs.registry();
            let bind = if self.plan_built {
                "replica_plan_builds"
            } else {
                "replica_plan_hits"
            };
            registry.counter(bind).inc();
            self.mirror_records = Some(registry.counter("push_mirror_records"));
        }
        self
    }

    /// Final per-vertex results (replica-consistent; residual deltas are
    /// folded via [`VertexProgram::finalize`]).
    ///
    /// Isolated vertices (no replicas) report their initial finalized state.
    pub fn extract(&self) -> Vec<P::Value> {
        let n = self.view.num_vertices() as usize;
        let st = lock(&self.state);
        let mut out = Vec::with_capacity(n);
        for vid in 0..n as VertexId {
            let (od, id_) = self.view.degree_of(vid);
            let info = VertexInfo { vid, out_degree: od, in_degree: id_ };
            let mp = self.view.master_of(vid);
            if mp == NO_PARTITION {
                let (v, d) = self.program.init(&info);
                out.push(self.program.finalize(&info, v, d));
            } else {
                let part = self.view.partition(mp);
                let li = part.local_of(vid).expect("master replica present") as usize;
                let table = &st.parts[mp as usize];
                out.push(
                    self.program
                        .finalize(&info, table.values[li], table.deltas[li]),
                );
            }
        }
        out
    }

    /// Recounts activation for the given partitions and updates the
    /// pending set and per-partition change averages.
    fn recompute_activation(
        &self,
        st: &mut JobState<P::Value>,
        pids: impl IntoIterator<Item = PartitionId>,
    ) {
        for pid in pids {
            let table = &st.parts[pid as usize];
            let mut count = 0u32;
            let mut mag = 0.0f64;
            for (value, delta) in table.values.iter().zip(&table.deltas) {
                if self.program.is_active(value, delta) {
                    count += 1;
                    mag += self.program.delta_magnitude(delta);
                }
            }
            st.change[pid as usize] = if count == 0 { 0.0 } else { mag / count as f64 };
            if count > 0 {
                st.pending.activate(pid);
            }
        }
    }

    /// Trigger over local vertices `range` of `pid`'s table, in place:
    /// each active vertex folds its delta into its value, then scatters
    /// along its out-edges and then its in-edges, every contribution
    /// folded into `acc` as it is produced.
    fn trigger(
        &self,
        table: &mut PartState<P::Value>,
        pid: PartitionId,
        range: Range<usize>,
    ) -> ProcessStats {
        let part = self.view.partition(pid);
        let infos = &self.infos[pid as usize];
        let identity = self.program.identity();
        let dir = self.program.direction();
        let mut stats = ProcessStats::default();
        for li in range {
            let (value, delta) = (table.values[li], table.deltas[li]);
            if !self.program.is_active(&value, &delta) {
                continue;
            }
            stats.vertex_ops += 1;
            let info = &infos[li];
            let (new_value, basis) = self.program.compute(info, value, delta);
            table.values[li] = new_value;
            table.deltas[li] = identity;
            let Some(basis) = basis else { continue };
            let mut fold = |(t, w): (LocalId, Weight)| {
                stats.edge_ops += 1;
                let contrib = self.program.edge_contrib(basis, w, info);
                let slot = &mut table.acc[t as usize];
                *slot = self.program.acc(*slot, contrib);
            };
            if matches!(dir, EdgeDirection::Out | EdgeDirection::Both) {
                part.out_edges(li as LocalId).for_each(&mut fold);
            }
            if matches!(dir, EdgeDirection::In | EdgeDirection::Both) {
                part.in_edges(li as LocalId).for_each(&mut fold);
            }
        }
        stats
    }
}

impl<P: VertexProgram> JobRuntime for TypedJob<P> {
    fn id(&self) -> JobId {
        self.id
    }

    fn view(&self) -> &GraphView {
        &self.view
    }

    fn iteration(&self) -> u64 {
        lock(&self.state).iteration
    }

    fn pending(&self) -> Vec<PartitionId> {
        lock(&self.state).pending.pending()
    }

    fn private_table_bytes(&self, pid: PartitionId) -> u64 {
        lock(&self.state).parts[pid as usize].table_bytes()
    }

    fn process_chunk(&self, pid: PartitionId, chunk: usize, nchunks: usize) -> ProcessStats {
        let nv = self.view.partition(pid).num_local_vertices();
        let range = nv * chunk / nchunks..nv * (chunk + 1) / nchunks;
        let mut st = lock(&self.state);
        self.trigger(&mut st.parts[pid as usize], pid, range)
    }

    fn mark_processed(&self, pid: PartitionId) {
        lock(&self.state).pending.mark_processed(pid);
    }

    fn reenter_partition(&self, pid: PartitionId, max_rounds: u64) -> ProcessStats {
        let identity = self.program.identity();
        let part = self.view.partition(pid);
        let mut st = lock(&self.state);
        let table = &mut st.parts[pid as usize];
        let mut total = ProcessStats::default();
        for _ in 0..max_rounds {
            let mut any = false;
            for li in 0..table.len() {
                if table.acc[li] == identity {
                    continue;
                }
                let vid = part.global_of(li as u32);
                // Only vertices fully local to this partition may fold
                // early; replicated vertices still owe a Push.
                if self.view.replicas_of(vid) != [pid] {
                    continue;
                }
                let val = table.acc[li];
                table.acc[li] = identity;
                let cur = table.deltas[li];
                table.deltas[li] = self.program.acc(cur, val);
                if self.program.is_active(&table.values[li], &table.deltas[li]) {
                    any = true;
                }
            }
            if !any {
                break;
            }
            total += self.trigger(table, pid, 0..table.len());
        }
        total
    }

    fn iteration_complete(&self) -> bool {
        lock(&self.state).pending.remaining() == 0
    }

    /// The Push stage (paper Alg. 2) as one scan through the view's
    /// [`ReplicaPlan`]; nothing is buffered, sorted or searched.
    ///
    /// - **Fold.**  Visit every slot `(pid, li)` in ascending order and
    ///   drain each non-identity `acc` straight into its master's delta
    ///   through [`ReplicaPlan::master_slot`].  A mirror first drains its
    ///   master's own `acc` if that is still non-identity.  One bit per
    ///   touched master row records the fold.
    /// - **Fan-out.**  Walk the set bits in ascending row order and copy
    ///   each non-identity total to its mirror slots.
    /// - **Recount.**  Recount activation where a delta arrived.
    ///
    /// The fold order is a specification, because float sums (PageRank,
    /// Katz) show it in their bits:
    /// - Trigger folds each contribution into `acc` in ascending local
    ///   index, out-edges before in-edges;
    /// - Push folds each master's own `acc` first, then its mirrors' in
    ///   ascending partition — what a stable sort of mirror→master
    ///   records by `(partition, vertex)` gives;
    /// - `change[pid]` sums in ascending local index.
    ///
    /// The fan-out only assigns, and each mirror slot has one master, so
    /// its order cannot show.
    fn push_and_advance(&self) -> PushStats {
        self.push(&mut lock(&self.state))
    }

    fn is_converged(&self) -> bool {
        lock(&self.state).converged
    }

    fn partition_change(&self, pid: PartitionId) -> f64 {
        lock(&self.state).change[pid as usize]
    }

    fn as_any(&self) -> &dyn Any {
        self.as_any_impl()
    }
}

impl<P: VertexProgram> TypedJob<P> {
    /// [`push_and_advance`](JobRuntime::push_and_advance) on the
    /// locked state.
    fn push(&self, st: &mut JobState<P::Value>) -> PushStats {
        let identity = self.program.identity();
        let plan = &*self.plan;
        let np = st.parts.len();
        let mut touched = vec![0u64; plan.num_rows().div_ceil(64)];
        let mut into_masters = vec![0u64; np];
        for pid in 0..np as PartitionId {
            for li in 0..st.parts[pid as usize].len() as LocalId {
                let slot = &mut st.parts[pid as usize].acc[li as usize];
                if *slot == identity {
                    continue;
                }
                let val = std::mem::replace(slot, identity);
                let (mp, mli) = plan.master_slot(pid, li);
                let master = &mut st.parts[mp as usize];
                let m = mli as usize;
                if mp != pid {
                    // A mirror: its master's own `acc` folds first.
                    let own = std::mem::replace(&mut master.acc[m], identity);
                    if own != identity {
                        master.deltas[m] = self.program.acc(master.deltas[m], own);
                    }
                    into_masters[mp as usize] += 1;
                }
                master.deltas[m] = self.program.acc(master.deltas[m], val);
                let row = plan.row(mp, mli);
                touched[row / 64] |= 1 << (row % 64);
            }
        }

        let mut into_mirrors = vec![0u64; np];
        for (w, &bits) in touched.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let (pid, li) = plan.slot_of(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
                let mirrors = plan.mirrors(pid, li);
                let total = st.parts[pid as usize].deltas[li as usize];
                if mirrors.is_empty() || total == identity {
                    continue;
                }
                for &(q, qli) in mirrors {
                    st.parts[q as usize].deltas[qli as usize] = total;
                    into_mirrors[q as usize] += 1;
                }
            }
        }

        let sent: u64 = into_mirrors.iter().sum();
        if let Some(counter) = &self.mirror_records {
            counter.add(sent);
        }
        let mut stats = PushStats {
            sync_records: into_masters.iter().sum::<u64>() + sent,
            touched_master_parts: nonzero(into_masters),
            touched_mirror_parts: nonzero(into_mirrors),
            converged: false,
        };
        self.advance(st, &mut stats);
        stats
    }

    /// Push's last phase: the next iteration's active set is recounted
    /// in every partition that received a delta or still holds one
    /// (anything processed this round was consumed), then the iteration
    /// advances or the job converges.
    fn advance(&self, st: &mut JobState<P::Value>, stats: &mut PushStats) {
        let identity = self.program.identity();
        let mut recount = vec![false; st.parts.len()];
        for &(p, _) in stats
            .touched_master_parts
            .iter()
            .chain(&stats.touched_mirror_parts)
        {
            recount[p as usize] = true;
        }
        for (p, table) in st.parts.iter().enumerate() {
            recount[p] = recount[p] || table.deltas.iter().any(|d| *d != identity);
        }
        st.pending.reset();
        st.change.fill(0.0);
        let pids = (0..recount.len()).filter(|&p| recount[p]);
        self.recompute_activation(st, pids.map(|p| p as PartitionId));

        let any = st.pending.any_active();
        if any {
            st.iteration += 1;
        } else {
            st.converged = true;
        }
        stats.converged = !any;
    }

    fn as_any_impl(&self) -> &dyn Any {
        self
    }
}

/// Per-partition counts as `(partition, count)` pairs, ascending, the
/// zero counts left out.
fn nonzero(counts: Vec<u64>) -> Vec<(PartitionId, u64)> {
    let pairs = counts.into_iter().enumerate().filter(|&(_, n)| n > 0);
    pairs.map(|(p, n)| (p as PartitionId, n)).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cgraph_graph::snapshot::SnapshotStore;
    use cgraph_graph::vertex_cut::VertexCutPartitioner;
    use cgraph_graph::{generate, Partitioner, Weight};
    use std::sync::Arc;

    /// Min-hop BFS used to exercise the runtime (and the engine's
    /// trigger pass) directly.
    pub(crate) struct Bfs {
        pub(crate) source: VertexId,
    }

    impl VertexProgram for Bfs {
        type Value = u32;

        fn init(&self, info: &VertexInfo) -> (u32, u32) {
            if info.vid == self.source {
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

    fn view(n: u32, parts: usize) -> GraphView {
        let el = generate::cycle(n);
        let ps = VertexCutPartitioner::new(parts).partition(&el);
        let store = Arc::new(SnapshotStore::new(ps));
        store.base_view()
    }

    /// Drives a job to convergence single-threadedly, mimicking the engine.
    fn run_to_convergence(job: &dyn JobRuntime) -> u64 {
        let mut rounds = 0;
        while !job.is_converged() {
            for pid in job.pending() {
                job.process_chunk(pid, 0, 1);
                job.mark_processed(pid);
            }
            assert!(job.iteration_complete());
            job.push_and_advance();
            rounds += 1;
            assert!(rounds < 10_000, "no convergence");
        }
        rounds
    }

    #[test]
    fn bfs_on_cycle_counts_hops() {
        let v = view(8, 3);
        let job = TypedJob::new(0, Bfs { source: 0 }, v);
        run_to_convergence(&job);
        let dist = job.extract();
        for (i, d) in dist.iter().enumerate() {
            assert_eq!(*d, i as u32, "vertex {i}");
        }
    }

    #[test]
    fn initial_activation_only_at_source_partitions() {
        let v = view(12, 4);
        let job = TypedJob::new(0, Bfs { source: 0 }, v);
        assert_eq!(job.iteration(), 1);
        let pending = job.pending();
        assert!(!pending.is_empty());
        // Only partitions holding a replica of vertex 0 start active.
        for pid in &pending {
            assert!(job.view().partition(*pid).local_of(0).is_some());
        }
    }

    #[test]
    fn chunked_processing_matches_whole_partition() {
        let v = view(32, 2);
        let a = TypedJob::new(0, Bfs { source: 0 }, v.clone());
        let b = TypedJob::new(1, Bfs { source: 0 }, v);
        // a: single chunk per partition; b: 4 chunks per partition.
        while !a.is_converged() {
            for pid in a.pending() {
                a.process_chunk(pid, 0, 1);
                a.mark_processed(pid);
            }
            a.push_and_advance();
        }
        while !b.is_converged() {
            for pid in b.pending() {
                for c in 0..4 {
                    b.process_chunk(pid, c, 4);
                }
                b.mark_processed(pid);
            }
            b.push_and_advance();
        }
        assert_eq!(a.extract(), b.extract());
    }

    #[test]
    fn push_stats_report_sorted_touched_partitions() {
        let v = view(16, 4);
        let job = TypedJob::new(0, Bfs { source: 0 }, v);
        let records = |parts: &[(PartitionId, u64)]| parts.iter().map(|&(_, n)| n).sum::<u64>();
        let mut mirror_records = 0;
        while !job.is_converged() {
            for pid in job.pending() {
                job.process_chunk(pid, 0, 1);
                job.mark_processed(pid);
            }
            let stats = job.push_and_advance();
            let mut sorted = stats.touched_master_parts.clone();
            sorted.sort_by_key(|&(p, _)| p);
            assert_eq!(stats.touched_master_parts, sorted);
            let mirrors = &stats.touched_mirror_parts;
            assert!(
                mirrors.windows(2).all(|w| w[0].0 < w[1].0),
                "mirror partitions strictly ascending: {mirrors:?}"
            );
            assert_eq!(
                records(&stats.touched_master_parts) + records(mirrors),
                stats.sync_records
            );
            mirror_records += records(mirrors);
        }
        assert!(mirror_records > 0, "the walk crosses partition boundaries");
    }

    #[test]
    fn unreachable_vertices_stay_at_infinity() {
        // Path 0->1->2 plus isolated universe up to 5.
        let el = cgraph_graph::EdgeList::from_edges(
            vec![
                cgraph_graph::Edge::unit(0, 1),
                cgraph_graph::Edge::unit(1, 2),
                cgraph_graph::Edge::unit(4, 3),
            ],
            6,
        );
        let ps = VertexCutPartitioner::new(2).partition(&el);
        let store = Arc::new(SnapshotStore::new(ps));
        let job = TypedJob::new(0, Bfs { source: 0 }, store.base_view());
        run_to_convergence(&job);
        let d = job.extract();
        assert_eq!(&d[0..3], &[0, 1, 2]);
        assert_eq!(d[3], u32::MAX);
        assert_eq!(d[4], u32::MAX);
        assert_eq!(d[5], u32::MAX); // isolated
    }

    #[test]
    fn converged_job_reports_no_pending() {
        let v = view(4, 2);
        let job = TypedJob::new(0, Bfs { source: 0 }, v);
        run_to_convergence(&job);
        assert!(job.is_converged());
        assert!(job.pending().is_empty());
    }

    // ---- Differential oracles: the copied Trigger and the sorted Push ----

    impl<P: VertexProgram> TypedJob<P> {
        /// The copy-out Trigger that the in-place
        /// [`trigger`](TypedJob::trigger) replaced, kept as its
        /// differential oracle: copies the chunk's `(value, delta)` pairs
        /// out, computes every contribution into a scatter vector, then
        /// writes the pairs back and folds the vector into `acc` in order.
        fn process_chunk_copied(
            &self,
            pid: PartitionId,
            chunk: usize,
            nchunks: usize,
        ) -> ProcessStats {
            let part = self.view.partition(pid);
            let infos = &self.infos[pid as usize];
            let nv = part.num_local_vertices();
            let lo = nv * chunk / nchunks;
            let hi = nv * (chunk + 1) / nchunks;
            let identity = self.program.identity();
            let mut pairs: Vec<(P::Value, P::Value)> = {
                let st = lock(&self.state);
                let table = &st.parts[pid as usize];
                (lo..hi)
                    .map(|li| (table.values[li], table.deltas[li]))
                    .collect()
            };
            let mut stats = ProcessStats::default();
            let mut scatter: Vec<(u32, P::Value)> = Vec::new();
            let dir = self.program.direction();
            for (off, (value, delta)) in pairs.iter_mut().enumerate() {
                let li = (lo + off) as u32;
                if !self.program.is_active(value, delta) {
                    continue;
                }
                stats.vertex_ops += 1;
                let info = &infos[li as usize];
                let (new_value, basis) = self.program.compute(info, *value, *delta);
                *value = new_value;
                *delta = identity;
                if let Some(basis) = basis {
                    if matches!(dir, EdgeDirection::Out | EdgeDirection::Both) {
                        for (t, w) in part.out_edges(li) {
                            stats.edge_ops += 1;
                            scatter.push((t, self.program.edge_contrib(basis, w, info)));
                        }
                    }
                    if matches!(dir, EdgeDirection::In | EdgeDirection::Both) {
                        for (s, w) in part.in_edges(li) {
                            stats.edge_ops += 1;
                            scatter.push((s, self.program.edge_contrib(basis, w, info)));
                        }
                    }
                }
            }
            let mut st = lock(&self.state);
            let table = &mut st.parts[pid as usize];
            for (off, (v, d)) in pairs.into_iter().enumerate() {
                table.values[lo + off] = v;
                table.deltas[lo + off] = d;
            }
            for (t, c) in scatter {
                let cur = table.acc[t as usize];
                table.acc[t as usize] = self.program.acc(cur, c);
            }
            stats
        }

        /// The record-and-sort Push that the one-scan
        /// [`push`](TypedJob::push) replaced, kept as its differential
        /// oracle.  Phase A drains every `acc`: master-local contributions
        /// fold in place, mirror contributions become `(master partition,
        /// vertex, value)` records.  Phase B stably sorts the records by
        /// `(partition, vertex)` and folds each through a search; the
        /// stable sort is what pins the fold order.  Phase C fans the
        /// sorted, deduplicated touched masters out through
        /// [`fan_out_mirrors_sorted`](Self::fan_out_mirrors_sorted), and
        /// the recount is production's.
        fn push_sorted(&self, st: &mut JobState<P::Value>) -> PushStats {
            let identity = self.program.identity();
            let np = self.view.num_partitions();
            let mut records: Vec<(PartitionId, VertexId, P::Value)> = Vec::new();
            let mut touched_masters: Vec<(PartitionId, u32)> = Vec::new();
            for pid in 0..np as PartitionId {
                let part = self.view.partition(pid);
                let table = &mut st.parts[pid as usize];
                for li in 0..table.len() {
                    if table.acc[li] == identity {
                        continue;
                    }
                    let val = table.acc[li];
                    table.acc[li] = identity;
                    let vid = part.global_of(li as u32);
                    let master_partition = self.view.master_of(vid);
                    if master_partition == pid {
                        let cur = table.deltas[li];
                        table.deltas[li] = self.program.acc(cur, val);
                        touched_masters.push((pid, li as u32));
                    } else {
                        records.push((master_partition, vid, val));
                    }
                }
            }

            records.sort_by_key(|&(d, vid, _)| (d, vid));
            let mut stats =
                PushStats { sync_records: records.len() as u64, ..PushStats::default() };
            let mut i = 0;
            while i < records.len() {
                let dpid = records[i].0;
                let start = i;
                let part = self.view.partition(dpid);
                let table = &mut st.parts[dpid as usize];
                while i < records.len() && records[i].0 == dpid {
                    let (_, vid, val) = records[i];
                    let li = part.local_of(vid).expect("master replica present") as usize;
                    let cur = table.deltas[li];
                    table.deltas[li] = self.program.acc(cur, val);
                    touched_masters.push((dpid, li as u32));
                    i += 1;
                }
                stats.touched_master_parts.push((dpid, (i - start) as u64));
            }

            touched_masters.sort_unstable();
            touched_masters.dedup();
            self.fan_out_mirrors_sorted(&mut st.parts, &touched_masters, &mut stats);
            self.advance(st, &mut stats);
            stats
        }

        /// The sort-based Phase C that the plan-routed fan-out replaced:
        /// re-derives each touched master's mirrors from the view, sorts
        /// the records by (partition, vertex) and applies them through a
        /// search per record.
        fn fan_out_mirrors_sorted(
            &self,
            parts: &mut [PartState<P::Value>],
            touched_masters: &[(PartitionId, u32)],
            stats: &mut PushStats,
        ) {
            let identity = self.program.identity();
            let mut mirror_updates: Vec<(PartitionId, VertexId, P::Value)> = Vec::new();
            for &(pid, li) in touched_masters {
                let part = self.view.partition(pid);
                let vid = part.global_of(li);
                let replicas = self.view.replicas_of(vid);
                if replicas.len() <= 1 {
                    continue;
                }
                let total = parts[pid as usize].deltas[li as usize];
                if total == identity {
                    continue;
                }
                for &mp in replicas {
                    if mp != pid {
                        mirror_updates.push((mp, vid, total));
                    }
                }
            }
            mirror_updates.sort_by_key(|&(p, vid, _)| (p, vid));
            stats.sync_records += mirror_updates.len() as u64;
            let mut i = 0;
            while i < mirror_updates.len() {
                let mpid = mirror_updates[i].0;
                let start = i;
                let part = self.view.partition(mpid);
                let table = &mut parts[mpid as usize];
                while i < mirror_updates.len() && mirror_updates[i].0 == mpid {
                    let (_, vid, val) = mirror_updates[i];
                    let li = part.local_of(vid).expect("mirror replica present") as usize;
                    table.deltas[li] = val;
                    i += 1;
                }
                stats.touched_mirror_parts.push((mpid, (i - start) as u64));
            }
        }
    }

    /// The improve-and-propagate programs of `cgraph-algos` (which builds
    /// on this crate, so cannot be linked into its unit tests) as one
    /// table-driven program: a delta is folded when it `improves` the
    /// value, and travels `along` each edge.
    struct Relax<V> {
        source: VertexId,
        dir: EdgeDirection,
        init: fn(VertexId, VertexId) -> (V, V),
        identity: V,
        improves: fn(V, V) -> bool,
        along: fn(V, Weight) -> V,
    }

    impl<V> VertexProgram for Relax<V>
    where
        V: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static,
    {
        type Value = V;

        fn direction(&self) -> EdgeDirection {
            self.dir
        }

        fn init(&self, info: &VertexInfo) -> (V, V) {
            (self.init)(info.vid, self.source)
        }

        fn identity(&self) -> V {
            self.identity
        }

        fn acc(&self, a: V, b: V) -> V {
            if (self.improves)(a, b) {
                a
            } else {
                b
            }
        }

        fn is_active(&self, value: &V, delta: &V) -> bool {
            (self.improves)(*delta, *value)
        }

        fn compute(&self, _i: &VertexInfo, value: V, delta: V) -> (V, Option<V>) {
            if (self.improves)(delta, value) {
                (delta, Some(delta))
            } else {
                (value, None)
            }
        }

        fn edge_contrib(&self, basis: V, w: Weight, _i: &VertexInfo) -> V {
            (self.along)(basis, w)
        }
    }

    fn sssp(source: VertexId) -> Relax<f32> {
        Relax {
            source,
            dir: EdgeDirection::Out,
            init: |v, s| (f32::INFINITY, if v == s { 0.0 } else { f32::INFINITY }),
            identity: f32::INFINITY,
            improves: |d, v| d < v,
            along: |b, w| b + w,
        }
    }

    fn sswp(source: VertexId) -> Relax<f32> {
        Relax {
            source,
            dir: EdgeDirection::Out,
            init: |v, s| (0.0, if v == s { f32::INFINITY } else { 0.0 }),
            identity: 0.0,
            improves: |d, v| d > v,
            along: |b, w| b.min(w),
        }
    }

    fn wcc() -> Relax<u32> {
        Relax {
            source: 0,
            dir: EdgeDirection::Both,
            init: |v, _| (u32::MAX, v),
            identity: u32::MAX,
            improves: |d, v| d < v,
            along: |b, _| b,
        }
    }

    fn reach(source: VertexId) -> Relax<bool> {
        Relax {
            source,
            dir: EdgeDirection::Out,
            init: |v, s| (false, v == s),
            identity: false,
            improves: |d, v| d && !v,
            along: |b, _| b,
        }
    }

    /// Delta-PageRank as in `cgraph-algos`: its `acc` (a float sum)
    /// shows the order Push folds mirrors into their master in.
    struct PageRank;

    impl VertexProgram for PageRank {
        type Value = f64;

        fn init(&self, _i: &VertexInfo) -> (f64, f64) {
            (0.0, 0.15)
        }

        fn identity(&self) -> f64 {
            0.0
        }

        fn acc(&self, a: f64, b: f64) -> f64 {
            a + b
        }

        fn is_active(&self, _value: &f64, delta: &f64) -> bool {
            delta.abs() > 1e-3
        }

        fn compute(&self, _i: &VertexInfo, value: f64, delta: f64) -> (f64, Option<f64>) {
            (value + delta, Some(delta))
        }

        fn edge_contrib(&self, basis: f64, _w: Weight, info: &VertexInfo) -> f64 {
            0.85 * basis / info.out_degree.max(1) as f64
        }

        fn delta_magnitude(&self, delta: &f64) -> f64 {
            delta.abs()
        }
    }

    /// A weighted float diffusion along both edge directions.  A vertex
    /// on a 2-cycle sends its partner one contribution per direction,
    /// differently weighted, so this program's sums show the order
    /// Trigger folds out-edges and in-edges in.
    struct Diffuse;

    impl VertexProgram for Diffuse {
        type Value = f64;

        fn direction(&self) -> EdgeDirection {
            EdgeDirection::Both
        }

        fn init(&self, _i: &VertexInfo) -> (f64, f64) {
            (0.0, 0.15)
        }

        fn identity(&self) -> f64 {
            0.0
        }

        fn acc(&self, a: f64, b: f64) -> f64 {
            a + b
        }

        fn is_active(&self, _value: &f64, delta: &f64) -> bool {
            delta.abs() > 1e-3
        }

        fn compute(&self, _i: &VertexInfo, value: f64, delta: f64) -> (f64, Option<f64>) {
            (value + delta, Some(delta))
        }

        fn edge_contrib(&self, basis: f64, w: Weight, info: &VertexInfo) -> f64 {
            let degree = (info.out_degree + info.in_degree).max(1) as f64;
            0.85 * basis * (w as f64 / 10.0) / degree
        }

        fn delta_magnitude(&self, delta: &f64) -> f64 {
            delta.abs()
        }
    }

    /// The exact bit pattern of a program value.
    trait Bits {
        fn bits(self) -> u64;
    }

    impl Bits for u32 {
        fn bits(self) -> u64 {
            self as u64
        }
    }

    impl Bits for bool {
        fn bits(self) -> u64 {
            self as u64
        }
    }

    impl Bits for f32 {
        fn bits(self) -> u64 {
            self.to_bits() as u64
        }
    }

    impl Bits for f64 {
        fn bits(self) -> u64 {
            self.to_bits()
        }
    }

    /// Runs two copies of one program in lockstep — `routed` through the
    /// production Trigger and Push, `oracle` through the copied Trigger
    /// at `nchunks` chunks per partition and the sorted Push — and
    /// pins them equal after every Trigger (stats) and every Push (stats,
    /// activation, and every private table bit for bit).
    fn assert_fan_out_matches_oracle<P>(
        make: impl Fn() -> P,
        view: &GraphView,
        nchunks: usize,
        what: &str,
    ) where
        P: VertexProgram,
        P::Value: Bits,
    {
        let routed = TypedJob::new(0, make(), view.clone());
        let oracle = TypedJob::new(1, make(), view.clone());
        let np = view.num_partitions() as PartitionId;
        let mut pushes = 0;
        while !routed.is_converged() {
            for pid in routed.pending() {
                let got = routed.process_chunk(pid, 0, 1);
                let mut want = ProcessStats::default();
                for chunk in 0..nchunks {
                    want += oracle.process_chunk_copied(pid, chunk, nchunks);
                }
                assert_eq!(got, want, "{what}: trigger stats of partition {pid}");
                routed.mark_processed(pid);
                oracle.mark_processed(pid);
            }
            let got = routed.push_and_advance();
            let want = oracle.push_sorted(&mut lock(&oracle.state));
            pushes += 1;
            assert_eq!(got, want, "{what}: PushStats at push {pushes}");
            assert_eq!(routed.pending(), oracle.pending(), "{what}: pending");
            for pid in 0..np {
                assert_eq!(
                    routed.partition_change(pid).to_bits(),
                    oracle.partition_change(pid).to_bits(),
                    "{what}: change of partition {pid}"
                );
            }
            let (a, b) = (lock(&routed.state), lock(&oracle.state));
            let bits = |xs: &[P::Value]| xs.iter().map(|x| x.bits()).collect::<Vec<_>>();
            for (pid, (a, b)) in a.parts.iter().zip(&b.parts).enumerate() {
                assert_eq!(bits(&a.values), bits(&b.values), "{what}: values of {pid}");
                assert_eq!(bits(&a.deltas), bits(&b.deltas), "{what}: deltas of {pid}");
            }
            assert!(pushes < 10_000, "{what}: no convergence");
        }
        assert!(oracle.is_converged(), "{what}: oracle still running");
        assert!(pushes > 0, "{what}: nothing to compare");
    }

    /// Three deltas on top of `ps` (whose edges must be distinct, so a
    /// removal names one edge) that reshape the replica topology: ts 10
    /// strips a replicated vertex of every edge its master partition
    /// holds (the master moves), ts 20 fans one vertex out to vertices
    /// its master partition has never seen (new mirrors appear), ts 30
    /// takes half of that fan-out away again.  Returns the store and a
    /// source vertex that keeps out-edges throughout.
    fn reshaped_store(ps: cgraph_graph::PartitionSet) -> (Arc<SnapshotStore>, VertexId) {
        use cgraph_graph::{Edge, GraphDelta};
        let n = ps.num_vertices();
        let np = ps.num_partitions();
        let mover = (0..n).find(|&v| ps.replicas_of(v).len() > 1);
        let removals: Vec<(VertexId, VertexId)> = mover.map_or(Vec::new(), |v| {
            let edges = ps.partition(ps.master_of(v)).edges_global();
            let pairs = edges.iter().map(|e| (e.src, e.dst));
            pairs.filter(|&(s, d)| s == v || d == v).collect()
        });
        let hub = (0..n)
            .filter(|&v| removals.iter().all(|&(s, d)| s != v && d != v))
            .find(|&v| ps.master_of(v) != NO_PARTITION)
            .expect("a placed vertex the removals leave alone");
        let strangers: Vec<VertexId> = (0..n)
            .filter(|&t| t != hub && !ps.replicas_of(t).contains(&ps.master_of(hub)))
            .take(6)
            .collect();
        let fan: Vec<Edge> = strangers
            .iter()
            .map(|&t| Edge::weighted(hub, t, 2.5))
            .collect();

        let mut store = SnapshotStore::new(ps);
        store.apply(10, &GraphDelta::removing(removals)).unwrap();
        store.apply(20, &GraphDelta::adding(fan.clone())).unwrap();
        let back = fan.iter().step_by(2).map(|e| (e.src, e.dst));
        store.apply(30, &GraphDelta::removing(back)).unwrap();
        let store = Arc::new(store);

        if np > 1 {
            let (base, moved, fanned) = (store.base_view(), store.view_at(10), store.view_at(20));
            let v = mover.expect("a multi-partition fixture replicates some vertex");
            assert_ne!(moved.master_of(v), base.master_of(v), "master of {v} moved");
            assert!(
                !strangers.is_empty(),
                "fixture leaves room for new replicas"
            );
            for &t in &strangers {
                let grown = fanned.replicas_of(t).len() > moved.replicas_of(t).len();
                assert!(grown, "vertex {t} gained a replica");
            }
        }
        (store, hub)
    }

    #[test]
    fn routed_fan_out_is_bit_identical_to_the_sorted_oracle() {
        let mut rmat = generate::rmat(8, 6, generate::RmatParams::default(), 11);
        rmat.sort_and_dedup();
        for (graph, el) in [("rmat", rmat), ("cycle", generate::cycle(120))] {
            for np in [1, 3, 8, 40] {
                let ps = VertexCutPartitioner::new(np).partition(&el);
                let (store, src) = reshaped_store(ps);
                let views = [
                    ("base", store.base_view()),
                    ("ts10", store.view_at(10)),
                    ("ts20", store.view_at(20)),
                    ("latest", store.latest()),
                ];
                for ((at, view), n) in views.iter().flat_map(|v| [(v, 1), (v, 4)]) {
                    let what = |prog: &str| {
                        format!("{prog} on {graph}/{np} parts @{at}, {n} oracle chunks")
                    };
                    assert_fan_out_matches_oracle(|| Bfs { source: src }, view, n, &what("BFS"));
                    assert_fan_out_matches_oracle(|| sssp(src), view, n, &what("SSSP"));
                    assert_fan_out_matches_oracle(|| sswp(src), view, n, &what("SSWP"));
                    assert_fan_out_matches_oracle(wcc, view, n, &what("WCC"));
                    assert_fan_out_matches_oracle(|| reach(src), view, n, &what("Reach"));
                    assert_fan_out_matches_oracle(|| PageRank, view, n, &what("PageRank"));
                    assert_fan_out_matches_oracle(|| Diffuse, view, n, &what("Diffuse"));
                }
            }
        }
    }
}
