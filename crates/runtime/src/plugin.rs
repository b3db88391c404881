//! Plugin state: the glue between engines, schedulers and comm backends.
//!
//! The paper's plugins (§3.2, §5) wrap framework operations into CommTasks
//! and translate completions back. Here the same bookkeeping is split into
//! two state machines the world driver consults:
//!
//! * [`PsPluginState`] — per-(worker, tensor) push/pull progress. Pull
//!   transfers are issued per *partition* as aggregation grants arrive
//!   (each partition is its own PS key, so its pull depends only on its
//!   own push — Theorem 1 condition 3); the layer's engine dependency is
//!   released when the last partition lands.
//! * [`ArPluginState`] — global all-reduce coordination: a tensor's
//!   collective may start only when **all** workers reported it ready
//!   (the master-Core rule of §5 that avoids deadlock), plus
//!   Horovod-style tensor fusion. Both graphs fuse through its one queue:
//!   the baseline queues whole tensors, ByteScheduler the partitions its
//!   master scheduler releases (§5: it wraps Horovod's
//!   `DistributedOptimizer`, so fusion stays and only the coordinator
//!   cycle goes).

use std::collections::{HashMap, VecDeque};

/// Per-(worker, tensor) PS communication progress.
#[derive(Clone, Debug, Default)]
struct TensorComm {
    iter: u64,
    parts: u32,
    push_done: u32,
    pull_done: u32,
    /// Aggregation grants received (baseline tensor-granularity gating).
    granted: u32,
    active: bool,
}

/// PS-side plugin bookkeeping for all workers.
#[derive(Debug)]
pub struct PsPluginState {
    tensors: Vec<Vec<TensorComm>>,
}

impl PsPluginState {
    /// Creates state for `num_workers` workers × `num_tensors` tensors.
    pub fn new(num_workers: usize, num_tensors: usize) -> Self {
        PsPluginState {
            tensors: vec![vec![TensorComm::default(); num_tensors]; num_workers],
        }
    }

    /// Worker `w`'s gradient for `tensor` (iteration `iter`, `parts`
    /// partitions) is ready to push. Panics if the previous iteration's
    /// communication for this tensor has not drained — that would violate
    /// the per-layer gating invariant.
    pub fn on_grad_ready(&mut self, w: usize, tensor: usize, iter: u64, parts: u32) {
        let t = &mut self.tensors[w][tensor];
        assert!(
            !t.active,
            "worker {w} tensor {tensor}: iteration {iter} gradient ready while iteration {} comm still active",
            t.iter
        );
        *t = TensorComm {
            iter,
            parts,
            push_done: 0,
            pull_done: 0,
            granted: 0,
            active: true,
        };
    }

    /// One aggregation grant arrived for (`w`, `tensor`). Returns true
    /// when every partition of the tensor has been granted — the moment a
    /// *baseline* engine's key-level pull dependency clears (§2.2:
    /// "without partitioning, the pull flow of a large tensor can start
    /// only after the push flow of the whole tensor is done").
    /// ByteScheduler pulls per partition instead and never calls this.
    pub fn on_grant_part(&mut self, w: usize, tensor: usize, iter: u64) -> bool {
        let t = &mut self.tensors[w][tensor];
        debug_assert!(t.active && t.iter == iter, "grant out of phase");
        t.granted += 1;
        debug_assert!(t.granted <= t.parts);
        t.granted == t.parts
    }

    /// One push partition of (`w`, `tensor`) completed. Returns true when
    /// the whole tensor has been pushed.
    pub fn on_push_part_done(&mut self, w: usize, tensor: usize, iter: u64) -> bool {
        let t = &mut self.tensors[w][tensor];
        debug_assert!(t.active && t.iter == iter, "push completion out of phase");
        t.push_done += 1;
        debug_assert!(t.push_done <= t.parts);
        t.push_done == t.parts
    }

    /// One pull partition of (`w`, `tensor`) completed. Returns true when
    /// the whole tensor has been pulled — the layer's dependency releases.
    pub fn on_pull_part_done(&mut self, w: usize, tensor: usize, iter: u64) -> bool {
        let t = &mut self.tensors[w][tensor];
        debug_assert!(t.active && t.iter == iter, "pull completion out of phase");
        t.pull_done += 1;
        debug_assert!(t.pull_done <= t.parts);
        if t.pull_done == t.parts {
            t.active = false;
            true
        } else {
            false
        }
    }
}

/// One tensor's global all-reduce state.
#[derive(Clone, Debug, Default)]
struct ArTensor {
    iter: u64,
    ready_workers: u32,
    parts: u32,
    parts_done: u32,
    active: bool,
}

/// All-reduce plugin bookkeeping (shared across workers: the ring is one
/// global resource and ordering decisions are made once, by the master).
#[derive(Debug)]
pub struct ArPluginState {
    num_workers: u32,
    tensors: Vec<ArTensor>,
    /// Fusion buffer: `(token, bytes)` awaiting the ring, FIFO.
    fusion_queue: VecDeque<(u64, u64)>,
    /// In-flight fused batches' members by batch id.
    batches: HashMap<u64, Vec<(u64, u64)>>,
    next_batch: u64,
}

impl ArPluginState {
    /// Creates state for a ring of `num_workers` over `num_tensors`.
    pub fn new(num_workers: usize, num_tensors: usize) -> Self {
        ArPluginState {
            num_workers: num_workers as u32,
            tensors: vec![ArTensor::default(); num_tensors],
            fusion_queue: VecDeque::new(),
            batches: HashMap::new(),
            next_batch: 0,
        }
    }

    /// One worker reported `tensor` ready for iteration `iter`. Returns
    /// true when the *last* worker reports — the moment the master may
    /// schedule the collective.
    pub fn on_worker_ready(&mut self, tensor: usize, iter: u64, parts: u32) -> bool {
        let t = &mut self.tensors[tensor];
        if !t.active {
            assert_eq!(
                t.ready_workers, 0,
                "tensor {tensor}: stale readiness from a previous iteration"
            );
            *t = ArTensor {
                iter,
                ready_workers: 0,
                parts,
                parts_done: 0,
                active: true,
            };
        }
        assert_eq!(
            t.iter, iter,
            "tensor {tensor}: workers disagree on iteration"
        );
        t.ready_workers += 1;
        assert!(
            t.ready_workers <= self.num_workers,
            "tensor {tensor}: more readiness reports than workers"
        );
        t.ready_workers == self.num_workers
    }

    /// One collective partition of `tensor` finished. Returns true when
    /// the whole tensor is reduced.
    pub fn on_part_done(&mut self, tensor: usize, iter: u64) -> bool {
        let t = &mut self.tensors[tensor];
        debug_assert!(
            t.active && t.iter == iter,
            "collective completion out of phase"
        );
        t.parts_done += 1;
        debug_assert!(t.parts_done <= t.parts);
        if t.parts_done == t.parts {
            t.active = false;
            t.ready_workers = 0;
            true
        } else {
            false
        }
    }

    /// Queues a collective (a whole tensor or a released partition)
    /// for fusion.
    pub fn queue_for_fusion(&mut self, token: u64, bytes: u64) {
        self.fusion_queue.push_back((token, bytes));
    }

    /// Pops the next fused batch: FIFO from the head of the queue,
    /// stopping before the total would pass `fusion_bytes`, but always at
    /// least one item, even if oversized — Horovod never splits a tensor.
    /// Returns the batch id and payload, or `None` when the queue is
    /// empty.
    pub fn next_fused_batch(&mut self, fusion_bytes: u64) -> Option<(u64, u64)> {
        let mut members = Vec::new();
        let mut total = 0u64;
        while let Some(&(token, bytes)) = self.fusion_queue.front() {
            if !members.is_empty() && total + bytes > fusion_bytes {
                break;
            }
            self.fusion_queue.pop_front();
            members.push((token, bytes));
            total += bytes;
        }
        if members.is_empty() {
            return None;
        }
        let id = self.next_batch;
        self.next_batch += 1;
        self.batches.insert(id, members);
        Some((id, total))
    }

    /// A fused batch completed; returns its `(token, bytes)` members.
    pub fn take_batch(&mut self, id: u64) -> Vec<(u64, u64)> {
        self.batches.remove(&id).expect("unknown fused batch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_push_and_pull_complete_per_tensor() {
        let mut ps = PsPluginState::new(2, 3);
        ps.on_grad_ready(0, 1, 0, 3);
        assert!(!ps.on_push_part_done(0, 1, 0));
        assert!(!ps.on_push_part_done(0, 1, 0));
        assert!(ps.on_push_part_done(0, 1, 0));
        assert!(!ps.on_pull_part_done(0, 1, 0));
        assert!(!ps.on_pull_part_done(0, 1, 0));
        assert!(ps.on_pull_part_done(0, 1, 0));
        // The tensor can go again next iteration.
        ps.on_grad_ready(0, 1, 1, 3);
    }

    #[test]
    #[should_panic(expected = "still active")]
    fn ps_overlapping_iterations_rejected() {
        let mut ps = PsPluginState::new(1, 1);
        ps.on_grad_ready(0, 0, 0, 2);
        ps.on_grad_ready(0, 0, 1, 2);
    }

    #[test]
    fn ar_requires_every_worker_before_start() {
        let mut ar = ArPluginState::new(3, 2);
        assert!(!ar.on_worker_ready(0, 0, 4));
        assert!(!ar.on_worker_ready(0, 0, 4));
        assert!(ar.on_worker_ready(0, 0, 4));
        // Complete all 4 parts.
        for k in 0..4 {
            assert_eq!(ar.on_part_done(0, 0), k == 3);
        }
        // Next iteration resets.
        assert!(!ar.on_worker_ready(0, 1, 4));
    }

    #[test]
    #[should_panic(expected = "disagree on iteration")]
    fn ar_mixed_iterations_rejected() {
        let mut ar = ArPluginState::new(2, 1);
        ar.on_worker_ready(0, 0, 1);
        ar.on_worker_ready(0, 1, 1);
    }

    #[test]
    fn fusion_coalesces_up_to_threshold() {
        let mut ar = ArPluginState::new(2, 5);
        for (t, b) in [(0u64, 30u64), (1, 30), (2, 30), (3, 10)] {
            ar.queue_for_fusion(t, b);
        }
        // Threshold 64: first batch takes tokens 0 and 1 (60 bytes).
        let (id, bytes) = ar.next_fused_batch(64).unwrap();
        assert_eq!(bytes, 60);
        assert_eq!(ar.take_batch(id), vec![(0, 30), (1, 30)]);
        let (id2, bytes2) = ar.next_fused_batch(64).unwrap();
        assert_eq!(bytes2, 40);
        assert_eq!(ar.take_batch(id2), vec![(2, 30), (3, 10)]);
        assert!(ar.next_fused_batch(64).is_none());
    }

    #[test]
    fn fusion_never_splits_an_oversized_tensor() {
        let mut ar = ArPluginState::new(2, 1);
        ar.queue_for_fusion(0, 1_000);
        let (_, bytes) = ar.next_fused_batch(64).unwrap();
        assert_eq!(bytes, 1_000, "oversized tensor goes alone, unsplit");
    }
}
