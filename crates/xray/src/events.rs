//! Typed lifecycle events for the causal run DAG.
//!
//! Every CommTask partition leaves a [`PartRecord`] behind: the full
//! BP-produced → enqueued → credit-granted → wire-start/wire-end →
//! delivered chain, with the aggregation and dependency-release edges
//! recoverable from the surrounding [`XrayLog`] (compute spans, PS
//! aggregation events, ring ops, scheduler stall intervals). The log is
//! recording-only and assembled by the runtime once per job at teardown
//! from the job's own records: the engines' compute-span logs, the
//! schedulers' stall series, and the aggregation and ring-op records the
//! job keeps itself. Per-hop ring records are a projection of each
//! [`RingOp`] ([`RingOp::hops`]).

use bs_sim::SimTime;

/// One engine compute operation (one forward or backward layer op).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ComputeSpan {
    /// Worker rank the op ran on.
    pub worker: usize,
    /// Training iteration the op belongs to.
    pub iter: u64,
    /// Layer index.
    pub layer: u32,
    /// `true` for the backward pass, `false` for forward.
    pub backward: bool,
    /// Op start instant.
    pub start: SimTime,
    /// Op end instant.
    pub end: SimTime,
}

/// The lifecycle of one CommTask partition on one worker.
///
/// Times are filled in as the partition moves through the stack:
/// `enqueued`/`granted` by the runtime at the scheduler boundary, the
/// `wire_*` fields by the fabric once the transfer is released (matched
/// back by the partition's unique token). A record whose transfer never
/// completed keeps `wire_seen == false`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartRecord {
    /// Training iteration.
    pub iter: u64,
    /// Worker rank.
    pub worker: usize,
    /// Tensor (layer) index.
    pub tensor: u32,
    /// Partition index within the tensor.
    pub part: u32,
    /// Scheduler lane the item occupied.
    pub lane: usize,
    /// `true` for a PS pull, `false` for a push.
    pub pull: bool,
    /// Payload bytes.
    pub bytes: u64,
    /// When the runtime submitted the item to the scheduler: for a push,
    /// the instant BP produced the gradient; for a pull, the aggregation
    /// grant that made it possible.
    pub enqueued: SimTime,
    /// When the scheduler released the item (credit granted).
    pub granted: SimTime,
    /// When the fabric accepted the transfer.
    pub wire_submit: SimTime,
    /// When bytes started moving on the wire.
    pub wire_start: SimTime,
    /// When the wire was released (last byte sent).
    pub wire_end: SimTime,
    /// When the transfer was delivered end-to-end.
    pub delivered: SimTime,
    /// Whether the wire fields were filled from a fabric record.
    pub wire_seen: bool,
}

impl PartRecord {
    /// A fresh record at the enqueue instant; wire fields unset.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueued_at(
        iter: u64,
        worker: usize,
        tensor: u32,
        part: u32,
        lane: usize,
        pull: bool,
        bytes: u64,
        now: SimTime,
    ) -> PartRecord {
        PartRecord {
            iter,
            worker,
            tensor,
            part,
            lane,
            pull,
            bytes,
            enqueued: now,
            granted: now,
            wire_submit: now,
            wire_start: now,
            wire_end: now,
            delivered: now,
            wire_seen: false,
        }
    }
}

/// One closed credit-stall interval on one scheduler lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StallSpan {
    /// Worker rank owning the scheduler.
    pub worker: usize,
    /// Lane index within that scheduler.
    pub lane: usize,
    /// Stall start (lane became credit-blocked).
    pub start: SimTime,
    /// Stall end (credit freed or queue drained).
    pub end: SimTime,
}

/// One parameter-server aggregation completion: the instant a key's
/// partition had been pushed by every worker (sync) or by its sender
/// (async) and pull grants were issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AggEvent {
    /// Training iteration.
    pub iter: u64,
    /// Tensor (layer) index.
    pub tensor: u32,
    /// Partition index within the tensor.
    pub part: u32,
    /// Aggregation-complete instant.
    pub at: SimTime,
}

/// One ring all-reduce operation (a fused batch on the collective stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingOp {
    /// The batch tag.
    pub tag: u64,
    /// Op start instant.
    pub start: SimTime,
    /// Op end instant.
    pub end: SimTime,
}

impl RingOp {
    /// Ring step boundary `t_k = start + D·k/S` over `S = 2(ranks−1)`
    /// equal steps, in integer nanoseconds: monotone, `t_0 == start` and
    /// `t_S == end` exactly.
    fn step(&self, k: u64, ranks: usize) -> SimTime {
        let steps = 2 * (ranks as u64 - 1);
        let d = self.end.as_nanos().saturating_sub(self.start.as_nanos());
        let off = (d as u128 * k as u128 / steps as u128) as u64;
        SimTime::from_nanos(self.start.as_nanos() + off)
    }

    /// The instant reduce-scatter hands over to all-gather: step `n−1`
    /// of a ring of `ranks` ranks.
    pub fn phase_boundary(&self, ranks: usize) -> SimTime {
        self.step(ranks as u64 - 1, ranks)
    }

    /// The op's per-chunk hop records on a ring of `ranks` ranks,
    /// chunk-major: at step `k` every chunk moves one hop concurrently,
    /// so chunk `c`'s hop `h` occupies the step window `[t_h, t_{h+1}]`
    /// and the first `n−1` hops reduce-scatter.
    pub fn hops(&self, ranks: usize) -> impl Iterator<Item = RingHopRecord> + '_ {
        let n = ranks as u32;
        (0..n).flat_map(move |chunk| {
            (0..2 * (n - 1)).map(move |hop| {
                let submit = self.step(hop as u64, ranks);
                RingHopRecord {
                    tag: self.tag,
                    chunk,
                    hop,
                    phase: if hop < n - 1 {
                        RingPhase::ReduceScatter
                    } else {
                        RingPhase::AllGather
                    },
                    // The chunk is ready the instant its previous hop
                    // delivers (the op start for hop 0).
                    enqueue: submit,
                    submit,
                    deliver: self.step(hop as u64 + 1, ranks),
                }
            })
        })
    }
}

/// Which half of the ring algorithm a hop belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RingPhase {
    /// First `n−1` steps: chunks are combined around the ring.
    ReduceScatter,
    /// Last `n−1` steps: reduced chunks are broadcast back.
    AllGather,
}

/// One chunk's traversal of one ring step, per op on the collective
/// stream. Hop windows tile the owning [`RingOp`]'s span exactly
/// (`t_0 == start`, `t_S == end`), which is what lets the analyzer split
/// the op's critical-path time into reduce-scatter and all-gather
/// buckets without breaking the 100% tiling invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingHopRecord {
    /// The batch tag of the owning op.
    pub tag: u64,
    /// Chunk index `0 .. n`.
    pub chunk: u32,
    /// Hop index `0 .. 2(n−1)`.
    pub hop: u32,
    /// Reduce-scatter or all-gather half.
    pub phase: RingPhase,
    /// When the chunk became ready for this hop.
    pub enqueue: SimTime,
    /// When the hop's step window opened.
    pub submit: SimTime,
    /// When the hop's step window closed.
    pub deliver: SimTime,
}

/// The assembled causal event log for one job's run.
#[derive(Clone, Debug, Default)]
pub struct XrayLog {
    /// Scheduler policy label (for the report header).
    pub scheduler: String,
    /// Job start (arrival) instant.
    pub start: SimTime,
    /// Run end (barrier exit of the last iteration).
    pub end: SimTime,
    /// Warm-up iterations excluded from measured totals.
    pub warmup: usize,
    /// Iteration boundary marks: `marks[k]` is the barrier-exit instant
    /// of iteration `k` on worker 0.
    pub marks: Vec<SimTime>,
    /// All engine compute ops.
    pub compute: Vec<ComputeSpan>,
    /// All partition lifecycle records.
    pub parts: Vec<PartRecord>,
    /// All scheduler credit-stall intervals.
    pub stalls: Vec<StallSpan>,
    /// All PS aggregation completions.
    pub aggs: Vec<AggEvent>,
    /// All ring all-reduce ops.
    pub ring_ops: Vec<RingOp>,
    /// Per-chunk per-hop lifecycle records (the [`RingOp::hops`] of every
    /// op; an empty list falls back to coarse [`RingOp`] attribution —
    /// the whole op lands in the aggregation bucket).
    pub ring_hops: Vec<RingHopRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_tile_the_op_span_exactly() {
        let (start, end) = (SimTime::ZERO, SimTime::from_micros(6_100));
        let op = RingOp { tag: 7, start, end };
        let n = 4u32;
        let steps = 2 * (n - 1);
        let hops: Vec<_> = op.hops(n as usize).collect();
        assert_eq!(hops.len(), (n * steps) as usize);
        for chunk in 0..n {
            let mine: Vec<_> = hops.iter().filter(|h| h.chunk == chunk).collect();
            assert_eq!(mine.len(), steps as usize);
            assert_eq!(mine[0].enqueue, start);
            assert_eq!(mine[0].submit, start);
            assert_eq!(mine.last().unwrap().deliver, end);
            for w in mine.windows(2) {
                assert_eq!(w[0].deliver, w[1].submit, "hop windows abut");
                assert_eq!(w[1].enqueue, w[0].deliver, "enqueue chains hops");
            }
            for h in &mine {
                let expect = if h.hop < n - 1 {
                    RingPhase::ReduceScatter
                } else {
                    RingPhase::AllGather
                };
                assert_eq!(h.phase, expect);
            }
        }
        // The phase boundary is the last reduce-scatter hop's deliver.
        let rs_end = hops
            .iter()
            .filter(|h| h.phase == RingPhase::ReduceScatter)
            .map(|h| h.deliver)
            .max()
            .unwrap();
        assert_eq!(op.phase_boundary(n as usize), rs_end);
        assert!(start < rs_end && rs_end < end);
    }

    #[test]
    fn step_boundaries_are_exact_under_integer_division() {
        // A duration not divisible by the step count must still produce
        // t_0 == start and t_S == end with monotone boundaries.
        let op = RingOp {
            tag: 0,
            start: SimTime::from_nanos(13),
            end: SimTime::from_nanos(1_000_000_007),
        };
        let ranks = 4;
        assert_eq!(op.step(0, ranks), op.start);
        assert_eq!(op.step(6, ranks), op.end);
        for k in 0..6 {
            assert!(op.step(k, ranks) <= op.step(k + 1, ranks));
        }
    }
}
