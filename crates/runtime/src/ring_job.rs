//! The ring all-reduce backend of a job (§5): the job's private ring
//! stream, the all-reduce plugin's global readiness and Horovod-style
//! fusion, and the completed-op log the span trace and xray read. A lost
//! collective re-runs whole after the plan's backoff, under the same
//! batch id.

use std::collections::{HashMap, VecDeque};

use bs_comm::{AllReduceConfig, CompletedOp, RingAllReduce};
use bs_core::CommKind;
use bs_engine::ExternalRole;
use bs_sim::{SimTime, Trace};
use bs_xray::{RingOp, XrayLog};

use crate::config::WorldConfig;
use crate::job::{JobBackend, JobCore, JobEvent, JobNetStats, Layout};
use crate::token::Token;

/// A ring job's own state. Readiness and fusion are global: the ring is
/// one resource, and the master makes ordering decisions once.
pub(crate) struct RingJob {
    ring: RingAllReduce,
    /// Per-tensor readiness and progress of the current collective.
    tensors: Vec<ArTensor>,
    /// Fusion buffer both graphs launch from: `(token, bytes)`, FIFO.
    fusion_queue: VecDeque<(u64, u64)>,
    /// In-flight fused batches' members by batch id.
    batches: HashMap<u64, Vec<(u64, u64)>>,
    next_batch: u64,
    /// Fusion threshold (bytes): baseline tensors and scheduled
    /// partitions alike fuse up to it; 0 sends each item alone.
    fusion_bytes: u64,
    /// Baseline fusion-cycle launch delay; zero for scheduled runs.
    cycle_delay: SimTime,
    /// True when collectives pass through the master scheduler; the
    /// baseline queues whole tensors for fusion directly, bypassing the
    /// scheduler and the xray log.
    scheduled: bool,
    /// Completed ops in completion order, recorded for the span trace
    /// and xray (`None` when neither records).
    ops: Option<Vec<RingOp>>,
}

impl RingJob {
    /// A ring backend fusing up to `fusion_bytes`, and the layout it
    /// asks of the core.
    pub(crate) fn build(
        cfg: &WorldConfig,
        fusion_bytes: Option<u64>,
        cycle_delay_us: u64,
    ) -> (JobBackend, Layout) {
        assert!(cfg.num_workers >= 2, "a ring needs at least two workers");
        assert!(
            cfg.background.is_none(),
            "background load is modelled for PS runs only"
        );
        // ByteScheduler replaces Horovod's coordinator cycle with
        // event-driven launches but keeps its fusion (§5).
        let scheduled = cfg.scheduler.needs_scheduled_engine();
        let job = RingJob {
            ring: RingAllReduce::new(AllReduceConfig::new(cfg.num_workers, cfg.net)),
            tensors: vec![ArTensor::default(); cfg.model.num_layers()],
            fusion_queue: VecDeque::new(),
            batches: HashMap::new(),
            next_batch: 0,
            fusion_bytes: fusion_bytes.unwrap_or(0),
            cycle_delay: SimTime::from_micros(if scheduled { 0 } else { cycle_delay_us }),
            scheduled,
            ops: (cfg.record_trace || cfg.record_xray).then(Vec::new),
        };
        let layout = Layout {
            scheds: 1,
            transfers_per_part: 1,
            bigarray_servers: None,
        };
        (JobBackend::Ring(job), layout)
    }

    /// When the ring stream next completes an op.
    pub(crate) fn next_event_time(&self) -> SimTime {
        self.ring.next_event_time()
    }

    /// Advances the ring stream to `t`, recording each completed op and
    /// queueing it for [`Self::handle_ring`].
    pub(crate) fn step(&mut self, t: SimTime, queue: &mut Vec<JobEvent>) {
        if self.ring.next_event_time() > t {
            return;
        }
        for c in self.ring.advance(t) {
            if let Some(ops) = &mut self.ops {
                ops.push(RingOp {
                    tag: c.tag,
                    start: c
                        .finished_at
                        .saturating_sub(self.ring.config().op_time(c.bytes)),
                    end: c.finished_at,
                });
            }
            queue.push(JobEvent::Ring(c));
        }
    }

    /// A worker reported tensor `i` ready for all-reduce. When the last
    /// worker reports, the master submits the collective (§5): the
    /// baseline queues the whole tensor for fusion, a scheduling policy
    /// submits its partitions to the master scheduler.
    pub(crate) fn on_grad_ready(&mut self, core: &mut JobCore, i: usize, iter: u64, now: SimTime) {
        let parts = if self.scheduled {
            core.partitions[i].len() as u32
        } else {
            1
        };
        if !self.on_worker_ready(i, iter, parts) {
            return;
        }
        for part in 0..parts {
            let tok = Token {
                iter,
                worker: 0,
                kind: CommKind::AllReduce,
                tensor: i as u32,
                part,
            };
            if self.scheduled {
                core.enqueue(tok, now);
            } else {
                let bytes = core.partitions[i].iter().sum();
                self.fusion_queue.push_back((tok.pack(), bytes));
            }
        }
        if self.scheduled {
            self.drain(core, now);
        }
        self.launch_fused(now);
    }

    /// Queues everything the master scheduler releases for fusion on its
    /// way to the ring (§5: ByteScheduler wraps Horovod's
    /// DistributedOptimizer); FIFO keeps the priority order the scheduler
    /// chose.
    fn drain(&mut self, core: &mut JobCore, now: SimTime) {
        let mut items = core.poll(0, now);
        for item in items.drain(..) {
            self.fusion_queue.push_back((item.token, item.bytes));
        }
        core.recycle(items);
    }

    /// Launches the next fused collective if the ring is idle (ring FIFO
    /// means pre-queueing buys nothing, and waiting maximises fusion). The
    /// baseline batch waits out Horovod's coordinator cycle; a scheduled
    /// one launches at once — event-driven launching is one of
    /// ByteScheduler's implementation advantages.
    fn launch_fused(&mut self, now: SimTime) {
        if self.ring.outstanding() > 0 {
            return;
        }
        if let Some((id, bytes)) = self.next_fused_batch() {
            self.ring.submit_after(now, self.cycle_delay, bytes, id);
        }
    }

    /// A fused batch left the ring: complete its members, or re-run the
    /// whole batch when the loss stream picked it.
    pub(crate) fn handle_ring(
        &mut self,
        core: &mut JobCore,
        c: CompletedOp,
        now: SimTime,
        out: &mut Vec<JobEvent>,
    ) {
        if let Some(f) = core.faults.as_mut() {
            if f.lost(c.tag) {
                // The collective failed: no member completes. Re-run the
                // whole op after backoff — the ring is analytic, so the
                // retry is a fresh submission under the same tag (a batch
                // id, not a token: no `Retransmit` scope event).
                f.dropped_bytes += c.bytes;
                let tag = c.tag;
                let failed = |cap| format!("collective {tag} exceeded {cap} retransmit attempts");
                if let Some((_, backoff)) = core.retry(tag, now, failed) {
                    self.ring.submit_after(now, backoff, c.bytes, tag);
                }
                return;
            }
        }
        let n = core.num_workers;
        let batch = self.batches.remove(&c.tag).expect("unknown fused batch");
        for (token, bytes) in batch {
            let tok = Token::unpack(token);
            let i = tok.tensor as usize;
            if self.scheduled {
                core.scheds[0].complete(now, 0, bytes);
            }
            if self.on_part_done(i, tok.iter) {
                core.finish(0..n, tok.iter, ExternalRole::AllReduce(i), now, out);
            }
        }
        if self.scheduled {
            self.drain(core, now);
        }
        self.launch_fused(now);
    }

    /// One worker reported `tensor` ready for iteration `iter`. Returns
    /// true when the *last* worker reports — the moment the master may
    /// schedule the collective.
    fn on_worker_ready(&mut self, tensor: usize, iter: u64, parts: u32) -> bool {
        let n = self.ring.config().num_workers as u32;
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
            t.ready_workers <= n,
            "tensor {tensor}: more readiness reports than workers"
        );
        t.ready_workers == n
    }

    /// One collective partition of `tensor` finished. Returns true when
    /// the whole tensor is reduced.
    fn on_part_done(&mut self, tensor: usize, iter: u64) -> bool {
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

    /// Pops the next fused batch: FIFO from the head of the queue,
    /// stopping before the total would pass the fusion threshold, but always at
    /// least one item, even if oversized — Horovod never splits a tensor.
    /// Returns the batch id and payload, or `None` when the queue is
    /// empty.
    fn next_fused_batch(&mut self) -> Option<(u64, u64)> {
        let mut members = Vec::new();
        let mut total = 0u64;
        while let Some(&(token, bytes)) = self.fusion_queue.front() {
            if !members.is_empty() && total + bytes > self.fusion_bytes {
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

    /// The job's statistics from its private stream: no point-to-point
    /// traffic, one comm event per reduced op, and the bytes reduced.
    pub(crate) fn stats(&self) -> (JobNetStats, u64) {
        let net = JobNetStats {
            comm_events: self.ring.ops_reduced(),
            ..JobNetStats::default()
        };
        (net, self.ring.bytes_reduced())
    }

    /// Adds the recorded ops and their per-chunk hops to the xray log.
    pub(crate) fn xray_log(&self, log: &mut XrayLog, num_workers: usize) {
        if let Some(ops) = &self.ops {
            log.ring_hops = ops.iter().flat_map(|op| op.hops(num_workers)).collect();
            log.ring_ops = ops.clone();
        }
    }

    /// Appends each ring op: the full op on the `ring` track plus its
    /// reduce-scatter and all-gather halves on phase-colored sub-tracks,
    /// and with `flows` (xray) one causal arrow per chunk across the
    /// op's reduce-scatter → all-gather boundary.
    pub(crate) fn append_trace(
        &self,
        trace: &mut Trace,
        prefix: &str,
        num_workers: usize,
        flows: bool,
    ) {
        let Some(ops) = &self.ops else { return };
        for op in ops {
            let (tag, rs_end) = (op.tag, op.phase_boundary(num_workers));
            // Scheduled batches and baseline fused batches both use
            // opaque batch ids; name them generically.
            trace.push(
                format!("allreduce batch {tag}"),
                format!("{prefix}ring"),
                op.start,
                op.end,
            );
            trace.push(
                format!("reduce_scatter b{tag}"),
                format!("{prefix}ring/reduce_scatter"),
                op.start,
                rs_end,
            );
            trace.push(
                format!("all_gather b{tag}"),
                format!("{prefix}ring/all_gather"),
                rs_end,
                op.end,
            );
            if flows {
                for chunk in 0..num_workers {
                    trace.push_flow(
                        format!("b{tag} chunk{chunk}"),
                        format!("{prefix}ring/reduce_scatter"),
                        rs_end,
                        format!("{prefix}ring/all_gather"),
                        rs_end,
                    );
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use bs_net::{NetConfig, Transport};

    /// A ring of `workers` over `tensors`, fusing up to `fusion_bytes`.
    fn ring(workers: usize, tensors: usize, fusion_bytes: u64) -> RingJob {
        let net = NetConfig::gbps(10.0, Transport::tcp());
        RingJob {
            ring: RingAllReduce::new(AllReduceConfig::new(workers, net)),
            tensors: vec![ArTensor::default(); tensors],
            fusion_queue: VecDeque::new(),
            batches: HashMap::new(),
            next_batch: 0,
            fusion_bytes,
            cycle_delay: SimTime::ZERO,
            scheduled: true,
            ops: None,
        }
    }

    #[test]
    fn ar_requires_every_worker_before_start() {
        let mut ar = ring(3, 2, 0);
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
        let mut ar = ring(2, 1, 64);
        ar.on_worker_ready(0, 0, 1);
        ar.on_worker_ready(0, 1, 1);
    }

    #[test]
    fn fusion_coalesces_up_to_threshold() {
        let mut ar = ring(2, 5, 64);
        for (t, b) in [(0u64, 30u64), (1, 30), (2, 30), (3, 10)] {
            ar.fusion_queue.push_back((t, b));
        }
        // Threshold 64: first batch takes tokens 0 and 1 (60 bytes).
        let (id, bytes) = ar.next_fused_batch().unwrap();
        assert_eq!(bytes, 60);
        assert_eq!(ar.batches.remove(&id).unwrap(), vec![(0, 30), (1, 30)]);
        let (id2, bytes2) = ar.next_fused_batch().unwrap();
        assert_eq!(bytes2, 40);
        assert_eq!(ar.batches.remove(&id2).unwrap(), vec![(2, 30), (3, 10)]);
        assert!(ar.next_fused_batch().is_none());
    }

    #[test]
    fn fusion_never_splits_an_oversized_tensor() {
        let mut ar = ring(2, 1, 64);
        ar.fusion_queue.push_back((0, 1_000));
        let (_, bytes) = ar.next_fused_batch().unwrap();
        assert_eq!(bytes, 1_000, "oversized tensor goes alone, unsplit");
    }
}
