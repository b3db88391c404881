//! Algorithm 1: priority queuing with credit-based preemption (§4.2).
//!
//! Recording: each lane keeps one credit-stall recorder, a 0/1 series
//! fed wherever the lane's blocked state can change (submit, complete,
//! poll, teardown). Telemetry exports it as `credit_stalled` with its
//! rising edges as `stall_events`; xray's stall intervals are its runs
//! of 1. Credit occupancy, queue depth and the counters exist only for
//! telemetry.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bs_sim::SimTime;
use bs_telemetry::{Counter, MetricSet, TimeSeries};

use crate::scheduler::{Scheduler, WorkItem};

/// One lane = one independent network resource (PS upload, PS download, or
/// the all-reduce stream), with its own priority queue and credit.
#[derive(Debug)]
struct Lane {
    /// Min-heap on (priority, seq): highest-priority first, FIFO within a
    /// priority level.
    queue: BinaryHeap<Reverse<(u64, u64, StoredItem)>>,
    /// Remaining credit in bytes. Signed: when a single subtask exceeds
    /// the whole credit (mis-tuned δ > c) the lane still makes progress by
    /// letting the credit go negative while that item is alone in flight.
    credit: i64,
    /// Bytes currently on the wire.
    in_flight: u64,
    /// Monotonic sequence for the FIFO tie-break.
    next_seq: u64,
}

/// Heap payload; ordered solely through the wrapping tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct StoredItem {
    bytes: u64,
    token: u64,
}

impl Lane {
    fn new(credit: u64) -> Self {
        Lane {
            queue: BinaryHeap::new(),
            credit: credit as i64,
            in_flight: 0,
            next_seq: 0,
        }
    }

    /// Credit-blocked: work is waiting but the head does not fit the
    /// remaining credit and the anti-stall path is not active. This is
    /// the interval form of the contract check's "stalled with N queued"
    /// condition — here it is a *normal* windowing state whose duration
    /// telemetry accounts, not a bug.
    fn credit_blocked(&self) -> bool {
        match self.queue.peek() {
            Some(&Reverse((_, _, head))) => self.credit < head.bytes as i64 && self.in_flight != 0,
            None => false,
        }
    }
}

/// Per-lane recording state; exists only while telemetry is enabled.
#[derive(Debug, Default)]
struct LaneTelemetry {
    /// Credit bytes committed to the wire window (c − remaining credit).
    credit_in_use: TimeSeries,
    /// Bytes submitted but not yet started.
    queued_bytes: TimeSeries,
    /// Submissions that outranked the queue head (jumped the line).
    preemptions: Counter,
    /// Items handed to the network.
    released: Counter,
    /// Anti-stall releases of items larger than the remaining credit.
    forced: Counter,
    /// Credit bytes reclaimed from lost (never-delivered) items.
    reclaimed: Counter,
}

/// Closed `(start, end)` intervals of a 0/1 stall series, an interval
/// still open at `now` closing there. The series collapses a stall that
/// ends and restarts at one instant, so each interval is one stall.
fn stall_intervals(stalled: &TimeSeries, now: SimTime) -> Vec<(SimTime, SimTime)> {
    let samples = stalled.samples();
    samples
        .iter()
        .enumerate()
        .filter(|(_, &(_, v))| v != 0.0)
        .filter_map(|(i, &(start, _))| {
            let end = samples.get(i + 1).map_or(now, |&(t, _)| t);
            (start < end).then_some((start, end))
        })
        .collect()
}

/// The ByteScheduler policy: Algorithm 1 of the paper.
///
/// * `PARTITION`: tensors are sliced into subtasks of at most
///   [`Self::partition_bytes`] (`unit` in the paper).
/// * `READY`: [`Scheduler::submit`] enqueues by (priority, arrival).
/// * `SCHEDULE`: [`Scheduler::poll`] pops the highest-priority subtask
///   whenever the lane's credit covers its size, deducting the size.
/// * `FINISH`: [`Scheduler::complete`] returns the size to the credit.
///
/// The credit acts as a sliding window (§4.2): with credit ≥ 2δ several
/// subtasks ride the wire back-to-back, filling the send buffer; once an
/// item is handed to the FIFO network stack it can no longer be preempted,
/// so a larger credit trades preemption timeliness for utilisation — the
/// trade-off the auto-tuner (crate `bs-tune`) optimises.
#[derive(Debug)]
pub struct ByteScheduler {
    partition_bytes: u64,
    credit_bytes: u64,
    lanes: Vec<Lane>,
    /// `Some` only while telemetry is recording (one entry per lane);
    /// the disabled path costs one branch per scheduler call.
    telemetry: Option<Vec<LaneTelemetry>>,
    /// `Some` while telemetry or xray records: per lane, 1 while the
    /// lane is credit-blocked, else 0. Telemetry exports it with its
    /// rising edges as `stall_events`; xray reads its intervals.
    stalls: Option<Vec<TimeSeries>>,
    /// Total credit bytes returned through [`Scheduler::reclaim`] — lost
    /// partitions whose credit came back without a delivery. Always
    /// counted (no recording gate): the runtime reports it on
    /// `RunResult` regardless of telemetry.
    reclaimed_bytes: u64,
}

impl ByteScheduler {
    /// Creates the scheduler with partition size δ, credit size c, and the
    /// given number of lanes (2 for PS, 1 for all-reduce).
    pub fn new(partition_bytes: u64, credit_bytes: u64, num_lanes: usize) -> Self {
        assert!(partition_bytes > 0, "partition size must be positive");
        assert!(credit_bytes > 0, "credit size must be positive");
        assert!(num_lanes > 0, "need at least one lane");
        ByteScheduler {
            partition_bytes,
            credit_bytes,
            lanes: (0..num_lanes).map(|_| Lane::new(credit_bytes)).collect(),
            telemetry: None,
            stalls: None,
            reclaimed_bytes: 0,
        }
    }

    /// Total credit bytes reclaimed from lost items so far.
    pub fn reclaimed_bytes(&self) -> u64 {
        self.reclaimed_bytes
    }

    /// Re-examines one lane's blocked state for the stall recorder; a
    /// no-op unless it records.
    fn note_stall(&mut self, lane: usize, now: SimTime) {
        if let Some(stalls) = self.stalls.as_mut() {
            let blocked = self.lanes[lane].credit_blocked();
            stalls[lane].record(now, if blocked { 1.0 } else { 0.0 });
        }
    }

    /// Starts the per-lane stall recorder at `now` (idempotent).
    fn enable_stalls(&mut self, now: SimTime) {
        let n = self.lanes.len();
        for s in self
            .stalls
            .get_or_insert_with(|| vec![TimeSeries::new(); n])
        {
            s.record(now, 0.0);
        }
    }

    /// The configured partition size δ.
    pub fn partition_bytes(&self) -> u64 {
        self.partition_bytes
    }

    /// The configured credit size c.
    pub fn credit_bytes(&self) -> u64 {
        self.credit_bytes
    }
}

impl Scheduler for ByteScheduler {
    fn name(&self) -> &'static str {
        "ByteScheduler"
    }

    fn partition_size(&self) -> Option<u64> {
        Some(self.partition_bytes)
    }

    fn submit(&mut self, now: SimTime, item: WorkItem) {
        let lane = &mut self.lanes[item.lane];
        if let Some(telem) = self.telemetry.as_mut() {
            let t = &mut telem[item.lane];
            if let Some(&Reverse((head_priority, _, _))) = lane.queue.peek() {
                if item.priority < head_priority {
                    t.preemptions.inc();
                }
            }
            t.queued_bytes.step(now, item.bytes as f64);
        }
        let seq = lane.next_seq;
        lane.next_seq += 1;
        lane.queue.push(Reverse((
            item.priority,
            seq,
            StoredItem {
                bytes: item.bytes,
                token: item.token,
            },
        )));
        self.note_stall(item.lane, now);
    }

    fn complete(&mut self, now: SimTime, lane: usize, bytes: u64) {
        let l = &mut self.lanes[lane];
        debug_assert!(l.in_flight >= bytes, "completion exceeds in-flight bytes");
        l.in_flight -= bytes;
        l.credit += bytes as i64;
        debug_assert!(l.credit <= self.credit_bytes as i64);
        if let Some(telem) = self.telemetry.as_mut() {
            let t = &mut telem[lane];
            let l = &self.lanes[lane];
            t.credit_in_use
                .record(now, (self.credit_bytes as i64 - l.credit) as f64);
        }
        self.note_stall(lane, now);
    }

    fn reclaim(&mut self, now: SimTime, lane: usize, bytes: u64) {
        self.reclaimed_bytes += bytes;
        if let Some(telem) = self.telemetry.as_mut() {
            telem[lane].reclaimed.add(bytes);
        }
        // Credit-wise a loss is a completion: the window slot frees and
        // the lane re-evaluates its blocked state.
        self.complete(now, lane, bytes);
    }

    fn teardown(&mut self, now: SimTime) {
        for s in self.stalls.iter_mut().flatten() {
            s.record(now, 0.0);
        }
    }

    fn poll_into(&mut self, now: SimTime, out: &mut Vec<WorkItem>) {
        for lane_idx in 0..self.lanes.len() {
            let lane = &mut self.lanes[lane_idx];
            let mut released = 0u32;
            while let Some(Reverse((priority, _, item))) = lane.queue.peek().copied() {
                let fits = lane.credit >= item.bytes as i64;
                // Anti-stall: a mis-tuned δ > c must not deadlock the lane;
                // send the oversized head alone.
                let force = lane.in_flight == 0;
                if !(fits || force) {
                    break;
                }
                lane.queue.pop();
                lane.credit -= item.bytes as i64;
                lane.in_flight += item.bytes;
                if let Some(telem) = self.telemetry.as_mut() {
                    let t = &mut telem[lane_idx];
                    t.released.inc();
                    if !fits {
                        t.forced.inc();
                    }
                    t.queued_bytes.step(now, -(item.bytes as f64));
                }
                released += 1;
                out.push(WorkItem {
                    lane: lane_idx,
                    priority,
                    bytes: item.bytes,
                    token: item.token,
                });
            }
            if released > 0 {
                if let Some(telem) = self.telemetry.as_mut() {
                    let in_use = self.credit_bytes as i64 - lane.credit;
                    telem[lane_idx].credit_in_use.record(now, in_use as f64);
                }
                self.note_stall(lane_idx, now);
            }
        }
    }

    fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    fn queued(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    fn enable_telemetry(&mut self, now: SimTime) {
        let telem = self.telemetry.get_or_insert_with(|| {
            (0..self.lanes.len())
                .map(|_| LaneTelemetry::default())
                .collect()
        });
        for t in telem.iter_mut() {
            t.credit_in_use.record(now, 0.0);
            t.queued_bytes.record(now, 0.0);
        }
        self.enable_stalls(now);
    }

    fn take_metrics(&mut self, now: SimTime) -> Option<MetricSet> {
        let telem = self.telemetry.take()?;
        let stalls = self.stalls.as_deref().unwrap_or_default();
        let mut set = MetricSet::new();
        set.horizon = now;
        set.gauge("credit_bytes", self.credit_bytes as f64);
        set.gauge("partition_bytes", self.partition_bytes as f64);
        for (i, (t, stalled)) in telem.into_iter().zip(stalls).enumerate() {
            // Entries into the credit-blocked state: the rising edges of
            // the collapsed series, so a zero-duration unblock-and-reblock
            // at one instant is not a new stall.
            let stall_events = stalled.samples().iter().filter(|&&(_, v)| v != 0.0).count();
            set.counter(format!("lane{i}/preemptions"), t.preemptions.get());
            set.counter(format!("lane{i}/released"), t.released.get());
            set.counter(format!("lane{i}/forced_oversize"), t.forced.get());
            set.counter(format!("lane{i}/reclaimed_bytes"), t.reclaimed.get());
            set.counter(format!("lane{i}/stall_events"), stall_events as u64);
            set.series(format!("lane{i}/credit_in_use"), t.credit_in_use);
            set.series(format!("lane{i}/queued_bytes"), t.queued_bytes);
            set.series(format!("lane{i}/credit_stalled"), stalled.clone());
        }
        Some(set)
    }

    fn enable_xray(&mut self, now: SimTime) {
        self.enable_stalls(now);
    }

    fn take_xray(&mut self, now: SimTime) -> Option<Vec<(usize, SimTime, SimTime)>> {
        let stalls = self.stalls.as_ref()?;
        let mut out = Vec::new();
        for (i, stalled) in stalls.iter().enumerate() {
            out.extend(
                stall_intervals(stalled, now)
                    .into_iter()
                    .map(|(s, e)| (i, s, e)),
            );
        }
        Some(out)
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
    fn pops_by_priority_then_fifo() {
        let mut s = ByteScheduler::new(100, 1_000, 1);
        let now = SimTime::ZERO;
        s.submit(now, item(0, 5, 10, 1));
        s.submit(now, item(0, 2, 10, 2));
        s.submit(now, item(0, 2, 10, 3));
        s.submit(now, item(0, 1, 10, 4));
        assert_eq!(tokens(&s.poll(now)), vec![4, 2, 3, 1]);
    }

    /// The paper's §4.2 worked example: credit = 2 tensors; while tensor 1
    /// transmits, tensors 2, 3, 4 arrive in that order with priorities
    /// p1 < p2 < p3 < p4 (1 most urgent). Stop-and-wait would send
    /// 1→4→3→2; the sliding window sends 1→2→4→3, because tensor 2 was
    /// already committed to the FIFO stack when 3 and 4 arrived.
    #[test]
    fn sliding_window_example_from_paper() {
        let sz = 100;
        let mut s = ByteScheduler::new(sz, 2 * sz, 1);
        let now = SimTime::ZERO;
        // Tensor 1 arrives and starts.
        s.submit(now, item(0, 1, sz, 1));
        assert_eq!(tokens(&s.poll(now)), vec![1]);
        // Tensor 2 arrives; credit has one slot left: committed immediately.
        s.submit(now, item(0, 2, sz, 2));
        assert_eq!(tokens(&s.poll(now)), vec![2]);
        // Tensors 3 and 4 arrive; no credit, they wait in priority order.
        s.submit(now, item(0, 3, sz, 3));
        s.submit(now, item(0, 4, sz, 4));
        assert!(s.poll(now).is_empty());
        // Tensor 1 finishes: 4 would be wrong — 3 outranks it.
        s.complete(now, 0, sz);
        assert_eq!(tokens(&s.poll(now)), vec![3]);
        s.complete(now, 0, sz);
        assert_eq!(tokens(&s.poll(now)), vec![4]);
        // Overall wire order: 1, 2, 3, 4? No: 2 jumped ahead of 3 and 4
        // (window), and among the waiters priority won: 1→2→3→4 here since
        // 3 arrived before 4 with better priority. The paper's 1→2→4→3
        // order arises when arrival is 4 before 3; check that too.
        let mut s = ByteScheduler::new(sz, 2 * sz, 1);
        s.submit(now, item(0, 1, sz, 1));
        s.poll(now);
        s.submit(now, item(0, 2, sz, 2));
        s.poll(now);
        s.submit(now, item(0, 4, sz, 4));
        s.submit(now, item(0, 3, sz, 3));
        s.complete(now, 0, sz);
        assert_eq!(tokens(&s.poll(now)), vec![3]);
    }

    #[test]
    fn stop_and_wait_when_credit_equals_partition() {
        // credit == δ degenerates to P3-style stop-and-wait.
        let mut s = ByteScheduler::new(100, 100, 1);
        let now = SimTime::ZERO;
        s.submit(now, item(0, 9, 100, 1));
        s.submit(now, item(0, 1, 100, 2));
        // Both ready; only one slot: the urgent one goes first.
        assert_eq!(tokens(&s.poll(now)), vec![2]);
        assert!(s.poll(now).is_empty());
        s.complete(now, 0, 100);
        assert_eq!(tokens(&s.poll(now)), vec![1]);
    }

    #[test]
    fn credit_meters_bytes_not_items() {
        let mut s = ByteScheduler::new(100, 250, 1);
        let now = SimTime::ZERO;
        for t in 0..5 {
            s.submit(now, item(0, t, 100, t));
        }
        // 250 bytes of credit fit two 100-byte items (not three).
        assert_eq!(tokens(&s.poll(now)), vec![0, 1]);
        s.complete(now, 0, 100);
        assert_eq!(tokens(&s.poll(now)), vec![2]);
    }

    #[test]
    fn lanes_are_independent() {
        let mut s = ByteScheduler::new(100, 100, 2);
        let now = SimTime::ZERO;
        s.submit(now, item(0, 1, 100, 1));
        s.submit(now, item(1, 1, 100, 2));
        let started = s.poll(now);
        assert_eq!(started.len(), 2, "both lanes start concurrently");
    }

    #[test]
    fn oversized_item_does_not_deadlock() {
        // δ mis-tuned above c: the item must still go, alone.
        let mut s = ByteScheduler::new(1_000, 100, 1);
        let now = SimTime::ZERO;
        s.submit(now, item(0, 1, 1_000, 1));
        s.submit(now, item(0, 2, 1_000, 2));
        assert_eq!(tokens(&s.poll(now)), vec![1]);
        assert!(s.poll(now).is_empty(), "second oversized item must wait");
        s.complete(now, 0, 1_000);
        assert_eq!(tokens(&s.poll(now)), vec![2]);
    }

    #[test]
    fn conforms_to_scheduler_contract() {
        let items: Vec<WorkItem> = (0..50)
            .map(|i| item((i % 2) as usize, 50 - i, 64 + i, i))
            .collect();
        crate::scheduler::contract::check_no_loss_and_conservation(
            Box::new(ByteScheduler::new(128, 256, 2)),
            items,
        );
    }

    #[test]
    #[should_panic(expected = "partition size must be positive")]
    fn zero_partition_rejected() {
        ByteScheduler::new(0, 100, 1);
    }

    /// Telemetry records the windowing story without changing it: replay
    /// the paper's §4.2 example and check credit occupancy, the stall
    /// interval while tensors 3/4 wait, and the preemption count.
    #[test]
    fn telemetry_accounts_credit_stalls_and_preemptions() {
        let sz = 100u64;
        let mut s = ByteScheduler::new(sz, 2 * sz, 1);
        s.enable_telemetry(SimTime::ZERO);
        let at = SimTime::from_micros;
        s.submit(at(0), item(0, 2, sz, 1));
        assert_eq!(tokens(&s.poll(at(0))), vec![1]);
        s.submit(at(1), item(0, 3, sz, 2));
        assert_eq!(tokens(&s.poll(at(1))), vec![2]);
        // Queue head priority 4, then 1 jumps it: one preemption; the
        // lane is credit-blocked from t=2 until the first completion.
        s.submit(at(2), item(0, 4, sz, 3));
        s.submit(at(3), item(0, 1, sz, 4));
        assert!(s.poll(at(3)).is_empty());
        s.complete(at(10), 0, sz);
        assert_eq!(tokens(&s.poll(at(10))), vec![4]);

        let m = s.take_metrics(at(20)).expect("telemetry enabled");
        assert_eq!(m.get_counter("lane0/preemptions"), Some(1));
        assert_eq!(m.get_counter("lane0/released"), Some(3));
        assert_eq!(m.get_counter("lane0/stall_events"), Some(1));
        let stalled = m.get_series("lane0/credit_stalled").expect("series");
        // Blocked from t=2 on: tensor 4's release at t=10 re-consumes the
        // returned credit with tensor 3 still waiting, so the stall runs
        // through the whole window: [2, 20)µs = 18µs, one stall event.
        assert!((stalled.integral_secs(at(20)) - 18e-6).abs() < 1e-12);
        let credit = m.get_series("lane0/credit_in_use").expect("series");
        // Both credit slots in use from t=1 (200 bytes), one returned at
        // t=10 and immediately re-consumed by tensor 4 → still 200.
        assert_eq!(credit.last_value(), 200.0);
        assert_eq!(credit.max_value(), 200.0);
        // Second take yields nothing and recording is off again.
        assert!(s.take_metrics(at(20)).is_none());
    }

    /// Regression: a preemption landing *mid-stall* must not split the
    /// stall interval. The higher-priority arrival (and the completion
    /// that immediately re-consumes the freed credit to release it)
    /// transiently re-evaluates the blocked state, but the lane never
    /// actually unblocks — so `comm_stall_secs` integrates the interval
    /// exactly once and both recorders report one continuous stall.
    #[test]
    fn preemption_mid_stall_closes_and_reopens_exactly_once() {
        let sz = 100u64;
        let mut s = ByteScheduler::new(sz, 2 * sz, 1);
        s.enable_telemetry(SimTime::ZERO);
        s.enable_xray(SimTime::ZERO);
        let at = SimTime::from_micros;
        // Fill the credit window: two items on the wire.
        s.submit(at(0), item(0, 2, sz, 1));
        assert_eq!(tokens(&s.poll(at(0))), vec![1]);
        s.submit(at(1), item(0, 3, sz, 2));
        assert_eq!(tokens(&s.poll(at(1))), vec![2]);
        // t=2: a third item arrives — the lane is now credit-blocked.
        s.submit(at(2), item(0, 4, sz, 3));
        assert!(s.poll(at(2)).is_empty());
        // t=3: a preemption arrives mid-stall (priority 1 jumps the head).
        s.submit(at(3), item(0, 1, sz, 4));
        assert!(s.poll(at(3)).is_empty());
        // t=10: a completion frees one credit slot which the preemptor
        // immediately re-consumes — the lane stays blocked throughout.
        s.complete(at(10), 0, sz);
        assert_eq!(tokens(&s.poll(at(10))), vec![4]);
        // t=15: the next completion releases the last item; the queue
        // drains and the stall ends.
        s.complete(at(15), 0, sz);
        assert_eq!(tokens(&s.poll(at(15))), vec![3]);

        let m = s.take_metrics(at(20)).expect("telemetry enabled");
        assert_eq!(m.get_counter("lane0/preemptions"), Some(1));
        // One stall event, not two: the interval survived the preemption.
        assert_eq!(m.get_counter("lane0/stall_events"), Some(1));
        let stalled = m.get_series("lane0/credit_stalled").expect("series");
        // Blocked [2, 15)µs exactly — no double-count from the close/
        // reopen at t=3 or t=10.
        assert!((stalled.integral_secs(at(20)) - 13e-6).abs() < 1e-12);

        // Xray reads the same series: exactly one closed interval
        // [2, 15], and reading leaves the recorder to the other reader.
        let spans = s.take_xray(at(20)).expect("xray enabled");
        assert_eq!(spans, vec![(0, at(2), at(15))]);
        assert_eq!(s.take_xray(at(20)), Some(spans));
    }

    /// A lost item's credit comes back through `reclaim`: the window slot
    /// frees (so the lane unblocks exactly as it would on completion) and
    /// the reclamation is accounted separately from successful releases.
    #[test]
    fn reclaim_returns_credit_and_is_counted() {
        let sz = 100u64;
        let mut s = ByteScheduler::new(sz, 2 * sz, 1);
        s.enable_telemetry(SimTime::ZERO);
        let at = SimTime::from_micros;
        s.submit(at(0), item(0, 1, sz, 1));
        s.submit(at(0), item(0, 2, sz, 2));
        s.submit(at(0), item(0, 3, sz, 3));
        assert_eq!(tokens(&s.poll(at(0))), vec![1, 2], "window fills");
        assert!(s.poll(at(0)).is_empty(), "third item credit-blocked");
        // Item 1 is lost on the wire: reclaiming its credit must unblock
        // the lane just like a completion would.
        s.reclaim(at(5), 0, sz);
        assert_eq!(s.reclaimed_bytes(), sz);
        assert_eq!(tokens(&s.poll(at(5))), vec![3]);
        s.complete(at(9), 0, sz);
        s.complete(at(9), 0, sz);
        let m = s.take_metrics(at(10)).expect("telemetry enabled");
        assert_eq!(m.get_counter("lane0/reclaimed_bytes"), Some(sz));
        assert_eq!(m.get_counter("lane0/released"), Some(3));
    }

    /// Mid-run teardown (a fault-aborted run) closes open stall intervals
    /// at the teardown instant, so stall totals cover only the lane's
    /// lifetime — not the gap between abort and the metrics drain.
    #[test]
    fn teardown_closes_open_stall_intervals() {
        let sz = 100u64;
        let mut s = ByteScheduler::new(sz, 2 * sz, 1);
        s.enable_telemetry(SimTime::ZERO);
        s.enable_xray(SimTime::ZERO);
        let at = SimTime::from_micros;
        s.submit(at(0), item(0, 1, sz, 1));
        s.submit(at(0), item(0, 2, sz, 2));
        assert_eq!(s.poll(at(0)).len(), 2);
        // t=2: a third item blocks on credit, opening a stall.
        s.submit(at(2), item(0, 3, sz, 3));
        assert!(s.poll(at(2)).is_empty());
        // t=5: the run aborts and the lane is torn down mid-stall.
        s.teardown(at(5));
        // Draining later must report the stall as [2, 5), not [2, 20).
        let m = s.take_metrics(at(20)).expect("telemetry enabled");
        let stalled = m.get_series("lane0/credit_stalled").expect("series");
        assert!((stalled.integral_secs(at(20)) - 3e-6).abs() < 1e-12);
        let spans = s.take_xray(at(20)).expect("xray enabled");
        assert_eq!(spans, vec![(0, at(2), at(5))]);
    }
}
