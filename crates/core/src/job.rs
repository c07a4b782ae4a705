//! Job runtimes: the typed per-job execution state behind the engine's
//! object-safe [`JobRuntime`] interface.
//!
//! The Trigger stage (paper Alg. 1) lives in
//! [`JobRuntime::process_chunk`]; the Push stage (paper Alg. 2) in
//! [`JobRuntime::push_and_advance`].  Baseline engines drive the same
//! runtime with different loading disciplines, so correctness is identical
//! across engines by construction — only access patterns differ.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use cgraph_graph::{GraphView, PartitionId, ReplicaPlan, VersionId, VertexId, NO_PARTITION};

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
    /// Private-table partitions touched while applying mirror→master
    /// records, in sorted order, with record counts (paper Alg. 2 SortD).
    pub touched_master_parts: Vec<(PartitionId, u64)>,
    /// Partitions touched while propagating master state back to mirrors,
    /// strictly ascending by partition, with record counts (SortS).
    pub touched_mirror_parts: Vec<(PartitionId, u64)>,
    /// Total synchronization records handled: the counts of
    /// `touched_master_parts` and `touched_mirror_parts` summed.
    pub sync_records: u64,
    /// Whether the job converged (nothing active next iteration).
    pub converged: bool,
}

/// Object-safe view of a running job used by every engine in the workspace.
pub trait JobRuntime: Send + Sync {
    /// Engine-assigned id.
    fn id(&self) -> JobId;
    /// Job name for reports.
    fn name(&self) -> String;
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
    /// Whether `pid` is active and unprocessed this iteration.
    fn is_pending(&self, pid: PartitionId) -> bool;
    /// Active replicas in `pid` (straggler detection; known from the
    /// previous iteration's Push, as in the paper §3.2.3).
    fn unprocessed_vertices(&self, pid: PartitionId) -> u64;
    /// Bytes of this job's private table for `pid`.
    fn private_table_bytes(&self, pid: PartitionId) -> u64;
    /// Processes chunk `chunk` of `nchunks` of partition `pid` (Trigger).
    /// Chunks of the same partition may run concurrently.
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
    /// The view's shared master→mirror routing (Push, Phase C).
    plan: Arc<ReplicaPlan>,
    /// Whether binding `plan` built it (vs. shared a live one).
    plan_built: bool,
    /// `push_mirror_records`, once [`observed`](Self::observed).
    mirror_records: Option<Arc<Counter>>,
    parts: Vec<Mutex<PartState<P::Value>>>,
    pending: Mutex<PendingSet>,
    change: Mutex<Vec<f64>>,
    iteration: AtomicU64,
    converged: AtomicBool,
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
            parts.push(Mutex::new(st));
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
            parts.push(Mutex::new(st));
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
        parts: Vec<Mutex<PartState<P::Value>>>,
    ) -> Self {
        let np = parts.len();
        let (plan, plan_built) = view.bind_replica_plan();
        let job = TypedJob {
            id,
            program,
            view,
            infos,
            plan,
            plan_built,
            mirror_records: None,
            parts,
            pending: Mutex::new(PendingSet::new(np)),
            change: Mutex::new(vec![0.0; np]),
            iteration: AtomicU64::new(0),
            converged: AtomicBool::new(false),
        };
        job.recompute_activation((0..np as PartitionId).collect());
        if !job.pending.lock().any_active() {
            job.converged.store(true, Ordering::SeqCst);
        } else {
            job.iteration.store(1, Ordering::SeqCst);
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
                let st = self.parts[mp as usize].lock();
                out.push(self.program.finalize(&info, st.values[li], st.deltas[li]));
            }
        }
        out
    }

    /// Recounts activation for the given partitions and updates the
    /// pending set and per-partition change averages.
    fn recompute_activation(&self, pids: Vec<PartitionId>) {
        let mut pending = self.pending.lock();
        let mut change = self.change.lock();
        for pid in pids {
            let st = self.parts[pid as usize].lock();
            let mut count = 0u32;
            let mut mag = 0.0f64;
            for li in 0..st.len() {
                if self.program.is_active(&st.values[li], &st.deltas[li]) {
                    count += 1;
                    mag += self.program.delta_magnitude(&st.deltas[li]);
                }
            }
            change[pid as usize] = if count == 0 { 0.0 } else { mag / count as f64 };
            if count > 0 {
                pending.activate(pid, count);
            }
        }
    }
}

impl<P: VertexProgram> JobRuntime for TypedJob<P> {
    fn id(&self) -> JobId {
        self.id
    }

    fn name(&self) -> String {
        self.program.name()
    }

    fn view(&self) -> &GraphView {
        &self.view
    }

    fn iteration(&self) -> u64 {
        self.iteration.load(Ordering::SeqCst)
    }

    fn pending(&self) -> Vec<PartitionId> {
        self.pending.lock().pending()
    }

    fn is_pending(&self, pid: PartitionId) -> bool {
        self.pending.lock().is_pending(pid)
    }

    fn unprocessed_vertices(&self, pid: PartitionId) -> u64 {
        self.pending.lock().active_counts[pid as usize] as u64
    }

    fn private_table_bytes(&self, pid: PartitionId) -> u64 {
        self.parts[pid as usize].lock().table_bytes()
    }

    fn process_chunk(&self, pid: PartitionId, chunk: usize, nchunks: usize) -> ProcessStats {
        let part = self.view.partition(pid).clone();
        let infos = &self.infos[pid as usize];
        let nv = part.num_local_vertices();
        let lo = nv * chunk / nchunks;
        let hi = nv * (chunk + 1) / nchunks;
        if lo >= hi {
            return ProcessStats::default();
        }

        // Copy out this chunk's (value, delta) pairs under the lock, then
        // compute scatter contributions lock-free.
        let identity = self.program.identity();
        let mut pairs: Vec<(P::Value, P::Value)> = Vec::with_capacity(hi - lo);
        {
            let st = self.parts[pid as usize].lock();
            for li in lo..hi {
                pairs.push((st.values[li], st.deltas[li]));
            }
        }

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

        // Write back the chunk range and fold contributions into `acc`.
        {
            let mut st = self.parts[pid as usize].lock();
            for (off, (v, d)) in pairs.into_iter().enumerate() {
                st.values[lo + off] = v;
                st.deltas[lo + off] = d;
            }
            for (t, c) in scatter {
                let cur = st.acc[t as usize];
                st.acc[t as usize] = self.program.acc(cur, c);
            }
        }
        stats
    }

    fn mark_processed(&self, pid: PartitionId) {
        self.pending.lock().mark_processed(pid);
    }

    fn reenter_partition(&self, pid: PartitionId, max_rounds: u64) -> ProcessStats {
        let identity = self.program.identity();
        let part = self.view.partition(pid).clone();
        let mut total = ProcessStats::default();
        for _ in 0..max_rounds {
            let mut any = false;
            {
                let mut st = self.parts[pid as usize].lock();
                for li in 0..st.len() {
                    if st.acc[li] == identity {
                        continue;
                    }
                    let vid = part.global_of(li as u32);
                    // Only vertices fully local to this partition may fold
                    // early; replicated vertices still owe a Push.
                    if self.view.replicas_of(vid) != [pid] {
                        continue;
                    }
                    let val = st.acc[li];
                    st.acc[li] = identity;
                    let cur = st.deltas[li];
                    st.deltas[li] = self.program.acc(cur, val);
                    if self.program.is_active(&st.values[li], &st.deltas[li]) {
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
            total += self.process_chunk(pid, 0, 1);
        }
        total
    }

    fn iteration_complete(&self) -> bool {
        self.pending.lock().remaining() == 0
    }

    fn push_and_advance(&self) -> PushStats {
        self.push_with(Self::fan_out_mirrors)
    }

    fn is_converged(&self) -> bool {
        self.converged.load(Ordering::SeqCst)
    }

    fn partition_change(&self, pid: PartitionId) -> f64 {
        self.change.lock()[pid as usize]
    }

    fn as_any(&self) -> &dyn Any {
        self.as_any_impl()
    }
}

impl<P: VertexProgram> TypedJob<P> {
    /// The Push stage with its master→mirror half supplied by the
    /// caller: [`fan_out_mirrors`](Self::fan_out_mirrors) in production,
    /// the sort-based oracle in the differential test.
    fn push_with(
        &self,
        fan_out: impl FnOnce(&Self, &[(PartitionId, u32)], &mut PushStats),
    ) -> PushStats {
        let identity = self.program.identity();
        let np = self.view.num_partitions();

        // Phase A: drain accumulation buffers.  Master-local contributions
        // fold directly; mirror contributions become records routed to the
        // master's partition (paper Alg. 1 line 6).
        let mut records: Vec<(PartitionId, VertexId, P::Value)> = Vec::new();
        // Masters that received any new delta: (partition, local index).
        let mut touched_masters: Vec<(PartitionId, u32)> = Vec::new();
        for pid in 0..np as PartitionId {
            let part = self.view.partition(pid).clone();
            let mut st = self.parts[pid as usize].lock();
            for li in 0..st.len() {
                if st.acc[li] == identity {
                    continue;
                }
                let val = st.acc[li];
                st.acc[li] = identity;
                // Master location comes from the view (it may have moved
                // under a snapshot delta while this partition's metadata
                // stayed untouched).
                let vid = part.global_of(li as u32);
                let master_partition = self.view.master_of(vid);
                if master_partition == pid {
                    let cur = st.deltas[li];
                    st.deltas[li] = self.program.acc(cur, val);
                    touched_masters.push((pid, li as u32));
                } else {
                    records.push((master_partition, vid, val));
                }
            }
        }

        // Phase B (SortD): apply mirror→master records in master-partition
        // order, so each private-table partition is loaded once.
        records.sort_unstable_by_key(|&(d, vid, _)| (d, vid));
        let mut stats = PushStats { sync_records: records.len() as u64, ..PushStats::default() };
        {
            let mut i = 0;
            while i < records.len() {
                let dpid = records[i].0;
                let start = i;
                let part = self.view.partition(dpid).clone();
                let mut st = self.parts[dpid as usize].lock();
                while i < records.len() && records[i].0 == dpid {
                    let (_, vid, val) = records[i];
                    let li = part.local_of(vid).expect("master replica present") as usize;
                    let cur = st.deltas[li];
                    st.deltas[li] = self.program.acc(cur, val);
                    touched_masters.push((dpid, li as u32));
                    i += 1;
                }
                stats.touched_master_parts.push((dpid, (i - start) as u64));
            }
        }

        // Phase C (SortS): propagate each touched master's final delta back
        // to its mirror replicas, counted per mirror partition.
        touched_masters.sort_unstable();
        touched_masters.dedup();
        fan_out(self, &touched_masters, &mut stats);
        let mut touched_partitions: Vec<PartitionId> =
            stats.touched_mirror_parts.iter().map(|&(p, _)| p).collect();
        touched_partitions.extend(stats.touched_master_parts.iter().map(|&(p, _)| p));

        // Phase D: next iteration's activation = partitions whose replicas
        // hold fresh deltas (anything processed this round was consumed).
        let mut recount: Vec<PartitionId> = touched_partitions;
        recount.extend((0..np as PartitionId).filter(|&p| {
            // Partitions with direct master-local folds.
            self.parts[p as usize]
                .lock()
                .deltas
                .iter()
                .any(|d| *d != identity)
        }));
        recount.sort_unstable();
        recount.dedup();
        self.pending.lock().reset();
        {
            let mut change = self.change.lock();
            change.iter_mut().for_each(|c| *c = 0.0);
        }
        self.recompute_activation(recount);

        let any = self.pending.lock().any_active();
        if any {
            self.iteration.fetch_add(1, Ordering::SeqCst);
        } else {
            self.converged.store(true, Ordering::SeqCst);
        }
        stats.converged = !any;
        stats
    }

    /// Phase C of Push over the view's [`ReplicaPlan`]: every touched
    /// master's non-identity total is copied into its mirror slots.
    /// Pure assignment — each mirror slot has exactly one master and
    /// master slots are never written here — so the order of the copies
    /// cannot show in any value.
    fn fan_out_mirrors(&self, touched_masters: &[(PartitionId, u32)], stats: &mut PushStats) {
        let identity = self.program.identity();
        // Push runs alone on the main thread once the iteration is
        // complete, so holding every private table at once contends
        // with nothing.
        let mut tables: Vec<_> = self.parts.iter().map(|t| t.lock()).collect();
        let mut records = vec![0u64; tables.len()];
        for &(pid, li) in touched_masters {
            let mirrors = self.plan.mirrors(pid, li);
            if mirrors.is_empty() {
                continue;
            }
            let total = tables[pid as usize].deltas[li as usize];
            if total == identity {
                continue;
            }
            for &(mp, mli) in mirrors {
                tables[mp as usize].deltas[mli as usize] = total;
                records[mp as usize] += 1;
            }
        }
        drop(tables);
        let mut sent = 0;
        for (mp, &n) in records.iter().enumerate() {
            if n > 0 {
                stats.touched_mirror_parts.push((mp as PartitionId, n));
                sent += n;
            }
        }
        stats.sync_records += sent;
        if let Some(counter) = &self.mirror_records {
            counter.add(sent);
        }
    }

    /// The sort-based Phase C that [`fan_out_mirrors`](Self::fan_out_mirrors)
    /// replaced, kept as its differential oracle: re-derives each touched
    /// master's mirrors from the view, sorts the records by (partition,
    /// vertex) and applies them through a search per record.
    #[cfg(test)]
    fn fan_out_mirrors_sorted(
        &self,
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
            let total = self.parts[pid as usize].lock().deltas[li as usize];
            if total == identity {
                continue;
            }
            for &mp in replicas {
                if mp != pid {
                    mirror_updates.push((mp, vid, total));
                }
            }
        }
        mirror_updates.sort_unstable_by_key(|&(p, vid, _)| (p, vid));
        stats.sync_records += mirror_updates.len() as u64;
        let mut i = 0;
        while i < mirror_updates.len() {
            let mpid = mirror_updates[i].0;
            let start = i;
            let part = self.view.partition(mpid).clone();
            let mut st = self.parts[mpid as usize].lock();
            while i < mirror_updates.len() && mirror_updates[i].0 == mpid {
                let (_, vid, val) = mirror_updates[i];
                let li = part.local_of(vid).expect("mirror replica present") as usize;
                st.deltas[li] = val;
                i += 1;
            }
            stats.touched_mirror_parts.push((mpid, (i - start) as u64));
        }
    }

    fn as_any_impl(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cgraph_graph::snapshot::SnapshotStore;
    use cgraph_graph::vertex_cut::VertexCutPartitioner;
    use cgraph_graph::{generate, Partitioner, Weight};
    use std::sync::Arc;

    /// Min-hop BFS used to exercise the runtime (and the engine's
    /// trigger drain) directly.
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

    #[test]
    fn straggler_counts_known_before_processing() {
        let v = view(16, 2);
        let job = TypedJob::new(0, Bfs { source: 0 }, v);
        let pending = job.pending();
        for pid in pending {
            assert!(job.unprocessed_vertices(pid) > 0);
        }
    }

    // ---- Phase C differential: routed fan-out vs. the sort-based oracle ----

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

    /// Delta-PageRank as in `cgraph-algos`: the one program whose `acc`
    /// (a float sum) is sensitive to order — which Phase C never calls.
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
    /// production Push, `sorted` through the oracle Phase C — and pins
    /// them equal after every Push: stats, activation, and every private
    /// table bit for bit.
    fn assert_fan_out_matches_oracle<P>(make: impl Fn() -> P, view: &GraphView, what: &str)
    where
        P: VertexProgram,
        P::Value: Bits,
    {
        let routed = TypedJob::new(0, make(), view.clone());
        let sorted = TypedJob::new(1, make(), view.clone());
        let np = view.num_partitions() as PartitionId;
        let mut pushes = 0;
        while !routed.is_converged() {
            for pid in routed.pending() {
                for job in [&routed, &sorted] {
                    job.process_chunk(pid, 0, 1);
                    job.mark_processed(pid);
                }
            }
            let got = routed.push_and_advance();
            let want = sorted.push_with(TypedJob::fan_out_mirrors_sorted);
            pushes += 1;
            assert_eq!(got, want, "{what}: PushStats at push {pushes}");
            assert_eq!(routed.pending(), sorted.pending(), "{what}: pending");
            for pid in 0..np {
                assert_eq!(
                    routed.unprocessed_vertices(pid),
                    sorted.unprocessed_vertices(pid),
                    "{what}: active replicas of partition {pid}"
                );
                assert_eq!(
                    routed.partition_change(pid).to_bits(),
                    sorted.partition_change(pid).to_bits(),
                    "{what}: change of partition {pid}"
                );
                let (a, b) = (
                    routed.parts[pid as usize].lock(),
                    sorted.parts[pid as usize].lock(),
                );
                let bits = |xs: &[P::Value]| xs.iter().map(|x| x.bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.values), bits(&b.values), "{what}: values of {pid}");
                assert_eq!(bits(&a.deltas), bits(&b.deltas), "{what}: deltas of {pid}");
            }
            assert!(pushes < 10_000, "{what}: no convergence");
        }
        assert!(sorted.is_converged(), "{what}: oracle still running");
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
                for (at, view) in &views {
                    let what = |prog: &str| format!("{prog} on {graph}/{np} parts @{at}");
                    assert_fan_out_matches_oracle(|| Bfs { source: src }, view, &what("BFS"));
                    assert_fan_out_matches_oracle(|| sssp(src), view, &what("SSSP"));
                    assert_fan_out_matches_oracle(|| sswp(src), view, &what("SSWP"));
                    assert_fan_out_matches_oracle(wcc, view, &what("WCC"));
                    assert_fan_out_matches_oracle(|| reach(src), view, &what("Reach"));
                    assert_fan_out_matches_oracle(|| PageRank, view, &what("PageRank"));
                }
            }
        }
    }
}
