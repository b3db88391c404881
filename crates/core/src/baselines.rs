//! Baseline scheduling policies the paper compares against.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bs_sim::SimTime;

use crate::scheduler::{Scheduler, WorkItem};

/// The vanilla-framework baseline: communication executes in FIFO order of
/// readiness (§2.2 — "ML framework engines execute communication operations
/// in a FIFO order"), with no scheduler-imposed pacing (the engine dumps
/// every ready tensor straight into the network stack).
///
/// `partition` is normally `None` (frameworks transmit whole tensors), but
/// can be set to reproduce Figure 4, which measures FIFO scheduling *with*
/// fixed-size partitioning to isolate the partition-overhead trade-off.
#[derive(Debug)]
pub struct FifoScheduler {
    partition: Option<u64>,
    /// Per-lane FIFO of ready items.
    queues: Vec<VecDeque<WorkItem>>,
}

impl FifoScheduler {
    /// Vanilla baseline: no partitioning, FIFO, `num_lanes` lanes.
    pub fn new(num_lanes: usize) -> Self {
        Self::with_partition(None, num_lanes)
    }

    /// FIFO with fixed partitioning (Figure 4's configuration).
    pub fn with_partition(partition: Option<u64>, num_lanes: usize) -> Self {
        assert!(num_lanes > 0, "need at least one lane");
        if let Some(p) = partition {
            assert!(p > 0, "partition size must be positive");
        }
        FifoScheduler {
            partition,
            queues: (0..num_lanes).map(|_| VecDeque::new()).collect(),
        }
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn partition_size(&self) -> Option<u64> {
        self.partition
    }

    fn submit(&mut self, _now: SimTime, item: WorkItem) {
        self.queues[item.lane].push_back(item);
    }

    fn complete(&mut self, _now: SimTime, _lane: usize, _bytes: u64) {}

    fn poll_into(&mut self, _now: SimTime, out: &mut Vec<WorkItem>) {
        // Everything ready goes straight to the (FIFO) network stack.
        for q in &mut self.queues {
            out.extend(q.drain(..));
        }
    }

    fn num_lanes(&self) -> usize {
        self.queues.len()
    }

    fn queued(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

/// P3 (Jayarajan et al., 2019), as characterised by the paper: per-layer
/// priority scheduling with a fixed 160 KB partition size and stop-and-wait
/// transmission — at most one partition unacknowledged per lane (§2.3,
/// §4.2: "the sender keeps only one tensor unacknowledged and sends the
/// next tensor after receiving the acknowledgement").
#[derive(Debug)]
pub struct P3Scheduler {
    partition: u64,
    lanes: Vec<P3Lane>,
}

#[derive(Debug)]
struct P3Lane {
    queue: BinaryHeap<Reverse<(u64, u64, u64, u64)>>, // (priority, seq, bytes, token)
    in_flight: bool,
    next_seq: u64,
}

impl P3Scheduler {
    /// P3's published default partition size.
    pub const DEFAULT_PARTITION: u64 = 160 * 1024;

    /// Creates P3 with its default 160 KB partitions.
    pub fn new(num_lanes: usize) -> Self {
        Self::with_partition(Self::DEFAULT_PARTITION, num_lanes)
    }

    /// P3 with a non-default partition size (the paper tried others and
    /// "obtained no better results"; so can you).
    pub fn with_partition(partition: u64, num_lanes: usize) -> Self {
        assert!(partition > 0, "partition size must be positive");
        assert!(num_lanes > 0, "need at least one lane");
        P3Scheduler {
            partition,
            lanes: (0..num_lanes)
                .map(|_| P3Lane {
                    queue: BinaryHeap::new(),
                    in_flight: false,
                    next_seq: 0,
                })
                .collect(),
        }
    }
}

impl Scheduler for P3Scheduler {
    fn name(&self) -> &'static str {
        "P3"
    }

    fn partition_size(&self) -> Option<u64> {
        Some(self.partition)
    }

    fn submit(&mut self, _now: SimTime, item: WorkItem) {
        let lane = &mut self.lanes[item.lane];
        let seq = lane.next_seq;
        lane.next_seq += 1;
        lane.queue
            .push(Reverse((item.priority, seq, item.bytes, item.token)));
    }

    fn complete(&mut self, _now: SimTime, lane: usize, _bytes: u64) {
        debug_assert!(self.lanes[lane].in_flight, "completion on idle P3 lane");
        self.lanes[lane].in_flight = false;
    }

    fn poll_into(&mut self, _now: SimTime, out: &mut Vec<WorkItem>) {
        for (lane_idx, lane) in self.lanes.iter_mut().enumerate() {
            if lane.in_flight {
                continue;
            }
            if let Some(Reverse((priority, _, bytes, token))) = lane.queue.pop() {
                lane.in_flight = true;
                out.push(WorkItem {
                    lane: lane_idx,
                    priority,
                    bytes,
                    token,
                });
            }
        }
    }

    fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    fn queued(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    fn credit_on_release(&self) -> bool {
        // P3's sender thread issues the next slice as soon as the stack
        // accepts the current one (ps-lite send-queue semantics), not
        // after an application-level round trip.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(lane: usize, priority: u64, bytes: u64, token: u64) -> WorkItem {
        WorkItem {
            lane,
            priority,
            bytes,
            token,
        }
    }

    fn tokens(items: &[WorkItem]) -> Vec<u64> {
        items.iter().map(|i| i.token).collect()
    }

    #[test]
    fn fifo_ignores_priority() {
        let mut s = FifoScheduler::new(1);
        let now = SimTime::ZERO;
        s.submit(now, item(0, 9, 10, 1));
        s.submit(now, item(0, 1, 10, 2));
        assert_eq!(tokens(&s.poll(now)), vec![1, 2]);
    }

    #[test]
    fn fifo_releases_everything_immediately() {
        let mut s = FifoScheduler::new(2);
        let now = SimTime::ZERO;
        for t in 0..10 {
            s.submit(now, item((t % 2) as usize, t, 1_000_000, t));
        }
        assert_eq!(s.poll(now).len(), 10);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn fifo_default_does_not_partition() {
        assert_eq!(FifoScheduler::new(1).partition_size(), None);
        assert_eq!(
            FifoScheduler::with_partition(Some(4096), 1).partition_size(),
            Some(4096)
        );
    }

    #[test]
    fn p3_is_stop_and_wait() {
        let mut s = P3Scheduler::new(1);
        let now = SimTime::ZERO;
        s.submit(now, item(0, 1, 100, 1));
        s.submit(now, item(0, 2, 100, 2));
        assert_eq!(tokens(&s.poll(now)), vec![1]);
        // Nothing more until the ACK.
        assert!(s.poll(now).is_empty());
        s.complete(now, 0, 100);
        assert_eq!(tokens(&s.poll(now)), vec![2]);
    }

    #[test]
    fn p3_respects_priority_among_waiters() {
        // The §4.2 example under stop-and-wait: while tensor 1 is in
        // flight, 2, 3, 4 arrive (priority 2 < 3 < 4). P3 sends 1→2→3→4 by
        // priority... but if arrival order is 4, 3, 2 the wire order is
        // still priority order 1→2→3→4 — stop-and-wait always picks the
        // best waiter at ACK time.
        let mut s = P3Scheduler::new(1);
        let now = SimTime::ZERO;
        s.submit(now, item(0, 1, 100, 1));
        s.poll(now);
        s.submit(now, item(0, 4, 100, 4));
        s.submit(now, item(0, 3, 100, 3));
        s.submit(now, item(0, 2, 100, 2));
        let mut order = vec![1];
        for _ in 0..3 {
            s.complete(now, 0, 100);
            order.extend(tokens(&s.poll(now)));
        }
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn p3_default_partition_is_160kb() {
        assert_eq!(P3Scheduler::new(1).partition_size(), Some(160 * 1024));
    }

    #[test]
    fn p3_lanes_are_independent() {
        let mut s = P3Scheduler::new(2);
        let now = SimTime::ZERO;
        s.submit(now, item(0, 1, 100, 1));
        s.submit(now, item(1, 1, 100, 2));
        assert_eq!(s.poll(now).len(), 2);
    }

    #[test]
    fn both_baselines_conform_to_scheduler_contract() {
        let items: Vec<WorkItem> = (0..40)
            .map(|i| item((i % 2) as usize, 40 - i, 64 + i, i))
            .collect();
        crate::scheduler::contract::check_no_loss_and_conservation(
            Box::new(FifoScheduler::new(2)),
            items.clone(),
        );
        crate::scheduler::contract::check_no_loss_and_conservation(
            Box::new(P3Scheduler::new(2)),
            items,
        );
    }
}
