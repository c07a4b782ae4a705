//! Per-job private vertex-state tables (the paper's "private tables")
//! and the pending set, which a `TypedJob` keeps together behind its one
//! lock.

use cgraph_graph::PartitionId;

/// One job's state for one partition: replica-parallel `(value, delta)`
/// pairs plus the accumulation buffer new deltas gather in until Push.
#[derive(Clone, Debug)]
pub struct PartState<V> {
    /// Current value per local replica.
    pub values: Vec<V>,
    /// Pending (synchronized) delta per local replica, consumed when the
    /// partition is processed.
    pub deltas: Vec<V>,
    /// Incoming contributions accumulated during the current iteration;
    /// drained by Push.
    pub acc: Vec<V>,
}

impl<V: Copy> PartState<V> {
    /// Creates state for `n` replicas, all slots set to `identity`.
    pub fn new(n: usize, identity: V) -> Self {
        PartState { values: vec![identity; n], deltas: vec![identity; n], acc: vec![identity; n] }
    }

    /// Number of replicas covered.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Approximate bytes of the user-visible state (values + deltas) —
    /// what the memory simulator charges when the private table is loaded.
    pub fn table_bytes(&self) -> u64 {
        (self.len() * 2 * std::mem::size_of::<V>() + 32) as u64
    }
}

/// Which partitions a job must process in the current iteration and which
/// it has already processed.
#[derive(Clone, Debug)]
pub struct PendingSet {
    active: Vec<bool>,
    processed: Vec<bool>,
    remaining: usize,
}

impl PendingSet {
    /// Creates an all-inactive set over `np` partitions.
    pub fn new(np: usize) -> Self {
        PendingSet { active: vec![false; np], processed: vec![false; np], remaining: 0 }
    }

    /// Marks `pid` active (and unprocessed) for this iteration.
    pub fn activate(&mut self, pid: PartitionId) {
        let i = pid as usize;
        if !self.active[i] {
            self.active[i] = true;
            self.remaining += 1;
        }
        self.processed[i] = false;
    }

    /// Clears everything for a new iteration.
    pub fn reset(&mut self) {
        self.active.iter_mut().for_each(|a| *a = false);
        self.processed.iter_mut().for_each(|p| *p = false);
        self.remaining = 0;
    }

    /// Whether `pid` is active and still unprocessed.
    pub fn is_pending(&self, pid: PartitionId) -> bool {
        self.active[pid as usize] && !self.processed[pid as usize]
    }

    /// Marks `pid` processed; returns `true` if it was pending.
    pub fn mark_processed(&mut self, pid: PartitionId) -> bool {
        if self.is_pending(pid) {
            self.processed[pid as usize] = true;
            self.remaining -= 1;
            true
        } else {
            false
        }
    }

    /// All currently pending partitions, in id order.
    pub fn pending(&self) -> Vec<PartitionId> {
        (0..self.active.len() as PartitionId)
            .filter(|&p| self.is_pending(p))
            .collect()
    }

    /// Number of still-unprocessed active partitions.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether any partition is active this iteration.
    pub fn any_active(&self) -> bool {
        self.active.iter().any(|&a| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_state_initialized_to_identity() {
        let s = PartState::new(3, 7u32);
        assert_eq!(s.values, vec![7, 7, 7]);
        assert_eq!(s.deltas, vec![7, 7, 7]);
        assert_eq!(s.acc, vec![7, 7, 7]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn table_bytes_scale_with_replicas() {
        let a = PartState::new(10, 0u64);
        let b = PartState::new(100, 0u64);
        assert!(b.table_bytes() > a.table_bytes());
    }

    #[test]
    fn pending_lifecycle() {
        let mut p = PendingSet::new(4);
        assert_eq!(p.remaining(), 0);
        p.activate(1);
        p.activate(3);
        assert_eq!(p.pending(), vec![1, 3]);
        assert!(p.is_pending(1));
        assert!(!p.is_pending(0));
        assert!(p.mark_processed(1));
        assert!(!p.mark_processed(1), "double processing rejected");
        assert_eq!(p.remaining(), 1);
        p.reset();
        assert_eq!(p.remaining(), 0);
        assert!(!p.any_active());
    }

    #[test]
    fn double_activation_keeps_single_slot() {
        let mut p = PendingSet::new(2);
        p.activate(0);
        p.activate(0);
        assert_eq!(p.remaining(), 1);
        assert_eq!(p.pending(), vec![0]);
    }
}
