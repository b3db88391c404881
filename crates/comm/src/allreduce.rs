//! Ring all-reduce as a serialised collective stream.
//!
//! NCCL executes collectives on a communicator one at a time, in the order
//! they are submitted on the stream; the scheduler's leverage is therefore
//! exactly (a) the submission order and (b) how large each submitted chunk
//! is — which is why the paper's all-reduce plugin schedules ops *before*
//! handing them to Horovod/NCCL and why the master Core must pick one global
//! order (§5, deadlock avoidance).
//!
//! Cost model for one ring all-reduce of `s` bytes over `n` workers with
//! per-NIC payload bandwidth `B`:
//!
//! ```text
//!   T(s) = sync(n) + 2·(n−1)/n · s / B
//! ```
//!
//! The bandwidth term is the textbook reduce-scatter + all-gather ring. The
//! synchronisation term is the per-operation price (kernel launch, rendezvous
//! of all `n` ranks, per-step latencies around the ring):
//! `sync(n) = base + step · 2(n−1)`, with `step` tied to the transport's
//! per-message overhead (heavily pipelined, hence the 1/8 factor below).
//! This per-op cost is what makes small partitions expensive in all-reduce
//! and pushes Table 1's optimal partition/credit sizes an order of magnitude
//! above the PS ones.
//!
//! The stream keeps no recorders. A completed op's span is
//! `[finished_at − op_time(bytes), finished_at]`; the runtime records it
//! there, and the per-chunk hop decomposition xray attributes is a pure
//! projection of that span (`bs_xray::RingOp::hops`).

use std::collections::VecDeque;

use bs_net::NetConfig;
use bs_sim::SimTime;
use serde::Serialize;

/// Identifies one submitted all-reduce operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct OpId(pub u64);

/// All-reduce deployment configuration.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct AllReduceConfig {
    /// Number of ranks in the ring (one per GPU in the paper's NCCL runs).
    pub num_workers: usize,
    /// Link configuration (bandwidth + transport) of each rank's NIC.
    pub link: NetConfig,
    /// Fixed per-operation launch/rendezvous cost.
    pub sync_base: SimTime,
}

impl AllReduceConfig {
    /// Standard configuration used by the harness.
    pub fn new(num_workers: usize, link: NetConfig) -> Self {
        assert!(num_workers >= 2, "a ring needs at least two ranks");
        AllReduceConfig {
            num_workers,
            link,
            sync_base: SimTime::from_micros(150),
        }
    }

    /// Per-operation synchronisation overhead `sync(n)`.
    pub fn sync_overhead(&self) -> SimTime {
        let steps = 2 * (self.num_workers - 1) as u64;
        // Ring steps are pipelined; each exposes ~1/8 of the transport's
        // composite point-to-point per-message overhead θ.
        let step = SimTime::from_nanos(self.link.transport.total_overhead().as_nanos() / 8);
        self.sync_base + SimTime::from_nanos(step.as_nanos() * steps)
    }

    /// Wall time of one all-reduce of `bytes`.
    pub fn op_time(&self, bytes: u64) -> SimTime {
        let n = self.num_workers as f64;
        let wire = 2.0 * (n - 1.0) / n * bytes as f64 / self.link.bytes_per_sec();
        self.sync_overhead() + SimTime::from_secs_f64(wire)
    }
}

/// One finished all-reduce, reported by [`RingAllReduce::advance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct CompletedOp {
    /// The handle returned by `submit`.
    pub id: OpId,
    /// Payload size.
    pub bytes: u64,
    /// Caller-defined tag, passed through verbatim.
    pub tag: u64,
    /// Virtual time at which every rank holds the reduced result.
    pub finished_at: SimTime,
}

#[derive(Clone, Copy, Debug)]
struct PendingOp {
    id: OpId,
    bytes: u64,
    tag: u64,
    /// The op may not start before this instant (Horovod-style fusion
    /// cycle delay for baseline submissions; zero otherwise).
    earliest: SimTime,
}

/// The collective stream: ops run one at a time in submission order.
#[derive(Clone, Debug)]
pub struct RingAllReduce {
    cfg: AllReduceConfig,
    queue: VecDeque<PendingOp>,
    /// `(op, end time)` of the op currently on the ring.
    active: Option<(PendingOp, SimTime)>,
    /// Instant the ring last became free (a queued op eligible earlier
    /// than `now` starts here, not at the caller's clock).
    free_at: SimTime,
    next_id: u64,
    bytes_reduced: u64,
    ops_reduced: u64,
}

impl RingAllReduce {
    /// Creates an idle stream.
    pub fn new(cfg: AllReduceConfig) -> Self {
        RingAllReduce {
            cfg,
            queue: VecDeque::new(),
            active: None,
            free_at: SimTime::ZERO,
            next_id: 0,
            bytes_reduced: 0,
            ops_reduced: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AllReduceConfig {
        &self.cfg
    }

    /// Submits an all-reduce of `bytes` at time `now`. All ranks are
    /// assumed to submit the same op in the same order — the invariant the
    /// master Core enforces (§5); the runtime asserts it.
    pub fn submit(&mut self, now: SimTime, bytes: u64, tag: u64) -> OpId {
        self.submit_after(now, SimTime::ZERO, bytes, tag)
    }

    /// Like [`Self::submit`], but the op may not start before
    /// `now + delay`. Models Horovod's fusion cycle: a baseline batch
    /// waits for the next coordinator cycle before launching.
    pub fn submit_after(&mut self, now: SimTime, delay: SimTime, bytes: u64, tag: u64) -> OpId {
        let id = OpId(self.next_id);
        self.next_id += 1;
        self.queue.push_back(PendingOp {
            id,
            bytes,
            tag,
            earliest: now + delay,
        });
        self.maybe_start(now);
        id
    }

    /// Earliest instant anything happens: the active op's completion, or
    /// — when idle — the queued head becoming eligible. `MAX` when idle
    /// and empty.
    pub fn next_event_time(&self) -> SimTime {
        if let Some((_, end)) = self.active {
            return end;
        }
        self.queue
            .front()
            .map(|op| op.earliest.max(self.free_at))
            .unwrap_or(SimTime::MAX)
    }

    /// Completes ops ending at or before `now` and starts queued ones.
    pub fn advance(&mut self, now: SimTime) -> Vec<CompletedOp> {
        let mut done = Vec::new();
        self.maybe_start(now);
        while let Some((op, end)) = self.active {
            if end > now {
                break;
            }
            self.active = None;
            self.free_at = end;
            self.bytes_reduced += op.bytes;
            self.ops_reduced += 1;
            done.push(CompletedOp {
                id: op.id,
                bytes: op.bytes,
                tag: op.tag,
                finished_at: end,
            });
            self.maybe_start(now);
        }
        done
    }

    /// Starts the queued head if it can begin by `horizon`. The start
    /// instant is `max(free_at, earliest)` — the ring may have freed in
    /// the past while the head only became eligible later (or vice
    /// versa).
    fn maybe_start(&mut self, horizon: SimTime) {
        if self.active.is_none() {
            let Some(head) = self.queue.front() else {
                return;
            };
            let start = self.free_at.max(head.earliest);
            if start > horizon {
                return; // eligible later; next_event_time reports when
            }
            let op = self.queue.pop_front().expect("head exists");
            let end = start + self.cfg.op_time(op.bytes);
            self.active = Some((op, end));
        }
    }

    /// Ops submitted but not yet finished.
    pub fn outstanding(&self) -> usize {
        self.queue.len() + usize::from(self.active.is_some())
    }

    /// True when nothing is queued or running.
    pub fn is_idle(&self) -> bool {
        self.outstanding() == 0
    }

    /// Total payload bytes reduced so far.
    pub fn bytes_reduced(&self) -> u64 {
        self.bytes_reduced
    }

    /// Collectives completed so far.
    pub fn ops_reduced(&self) -> u64 {
        self.ops_reduced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_net::Transport;

    fn cfg(n: usize) -> AllReduceConfig {
        // 8 Gbps, ideal transport => 1e9 B/s payload, zero θ.
        let link = NetConfig::gbps(8.0, Transport::ideal());
        AllReduceConfig {
            num_workers: n,
            link,
            sync_base: SimTime::from_micros(100),
        }
    }

    #[test]
    fn op_time_matches_ring_formula() {
        let c = cfg(4);
        // 2*(4-1)/4 = 1.5; 4 MB at 1e9 B/s => 6 ms wire + 100us sync.
        let t = c.op_time(4_000_000);
        assert_eq!(t, SimTime::from_micros(6_100));
    }

    #[test]
    fn sync_overhead_grows_with_ring_size() {
        let link = NetConfig::gbps(8.0, Transport::tcp());
        let small = AllReduceConfig::new(4, link);
        let large = AllReduceConfig::new(64, link);
        assert!(large.sync_overhead() > small.sync_overhead());
    }

    #[test]
    fn larger_rings_approach_bandwidth_limit() {
        // The 2(n-1)/n factor tends to 2: per-op wire time grows but stays
        // below 2x the naive size/bandwidth.
        let t4 = cfg(4).op_time(8_000_000).as_secs_f64();
        let t64 = cfg(64).op_time(8_000_000).as_secs_f64();
        assert!(t64 > t4);
        assert!(t64 < 2.0 * 8_000_000.0 / 1e9 + 0.001);
    }

    #[test]
    fn ops_serialise_in_submission_order() {
        let mut ring = RingAllReduce::new(cfg(4));
        ring.submit(SimTime::ZERO, 4_000_000, 1);
        ring.submit(SimTime::ZERO, 4_000_000, 2);
        assert_eq!(ring.outstanding(), 2);
        let done = ring.advance(SimTime::from_micros(6_100));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        assert_eq!(ring.next_event_time(), SimTime::from_micros(12_200));
        let done = ring.advance(SimTime::from_micros(12_200));
        assert_eq!(done[0].tag, 2);
        assert!(ring.is_idle());
    }

    #[test]
    fn advance_drains_multiple_completions() {
        let mut ring = RingAllReduce::new(cfg(4));
        for tag in 0..3 {
            ring.submit(SimTime::ZERO, 1_000_000, tag);
        }
        let done = ring.advance(SimTime::from_secs(1));
        assert_eq!(done.len(), 3);
        assert_eq!(
            done.iter().map(|c| c.tag).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(ring.bytes_reduced(), 3_000_000);
    }

    #[test]
    fn idle_stream_reports_never() {
        let ring = RingAllReduce::new(cfg(2));
        assert!(ring.next_event_time().is_never());
        assert!(ring.is_idle());
    }

    #[test]
    fn delayed_submission_holds_the_ring_until_eligible() {
        // Horovod cycle modelling: a baseline batch submitted with a
        // delay must not start before `now + delay`, and an idle ring
        // reports the eligibility instant as its next event.
        let mut ring = RingAllReduce::new(cfg(4));
        ring.submit_after(SimTime::ZERO, SimTime::from_millis(2), 4_000_000, 9);
        assert_eq!(ring.next_event_time(), SimTime::from_millis(2));
        assert!(ring.advance(SimTime::from_millis(1)).is_empty());
        // At 2 ms it starts; op takes 6.1 ms.
        let done = ring.advance(SimTime::from_micros(8_100));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished_at, SimTime::from_micros(8_100));
    }

    #[test]
    fn delayed_head_blocks_later_ops_fifo() {
        let mut ring = RingAllReduce::new(cfg(4));
        ring.submit_after(SimTime::ZERO, SimTime::from_millis(5), 1_000_000, 1);
        ring.submit(SimTime::ZERO, 1_000_000, 2); // behind the delayed head
        let mut done = Vec::new();
        loop {
            let t = ring.next_event_time();
            if t.is_never() {
                break;
            }
            done.extend(ring.advance(t).into_iter().map(|c| c.tag));
        }
        assert_eq!(done, vec![1, 2], "FIFO stream even with a delayed head");
    }

    #[test]
    fn many_small_ops_cost_more_than_one_big_op() {
        // The §6.3 trade-off: partition overhead penalises small chunks.
        let c = cfg(8);
        let one_big = c.op_time(64_000_000);
        let many_small: u64 = (0..64).map(|_| c.op_time(1_000_000).as_nanos()).sum();
        assert!(SimTime::from_nanos(many_small) > one_big);
    }
}
