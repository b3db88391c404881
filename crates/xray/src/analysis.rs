//! Critical-path extraction and time attribution.
//!
//! For each iteration window `[start_k, end_k]` (between consecutive
//! barrier-exit marks) the analyzer walks the longest dependency chain
//! *backward* from the barrier exit: the compute op that retired the
//! iteration, the transfer whose delivery unblocked it, the aggregation
//! that granted the transfer, the push behind the aggregation, the
//! backward op that produced the push, and so on. Every step tiles the
//! interval between the walk cursor and the predecessor's finish with a
//! [`Segment`] of exactly one [`Category`], so per-iteration category
//! sums equal the iteration wall time *by construction* — there is no
//! residual bucket, only an explicit `Barrier` category for time the
//! recorded events cannot explain (straggler barriers, warm-up skew).

use std::cell::OnceCell;

use bs_sim::{FastMap, SimTime};

use crate::events::{PartRecord, XrayLog};

/// Where one slice of critical-path time went.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// Forward/backward compute on the critical worker.
    Compute,
    /// Bytes moving on (or latency of) the wire.
    Wire,
    /// Queued behind the scheduler's credit window (lane credit-blocked).
    CreditWait,
    /// Queued but not credit-blocked: scheduler priority queue or fabric
    /// port queue.
    QueueWait,
    /// Waiting for aggregation: PS waiting on other workers' pushes, or
    /// a ring all-reduce op recorded without per-hop detail.
    Aggregation,
    /// The reduce-scatter half of a ring all-reduce (per-hop records
    /// present; otherwise the whole op is [`Category::Aggregation`]).
    ReduceScatter,
    /// The all-gather half of a ring all-reduce.
    AllGather,
    /// Unattributed dependency/barrier time between recorded events.
    Barrier,
}

impl Category {
    /// All categories, in report order.
    pub const ALL: [Category; 8] = [
        Category::Compute,
        Category::Wire,
        Category::CreditWait,
        Category::QueueWait,
        Category::Aggregation,
        Category::ReduceScatter,
        Category::AllGather,
        Category::Barrier,
    ];

    /// Stable snake_case label used in JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Wire => "wire",
            Category::CreditWait => "credit_wait",
            Category::QueueWait => "queue_wait",
            Category::Aggregation => "aggregation",
            Category::ReduceScatter => "reduce_scatter",
            Category::AllGather => "all_gather",
            Category::Barrier => "barrier",
        }
    }
}

/// One contiguous critical-path slice inside an iteration window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Slice start.
    pub start: SimTime,
    /// Slice end.
    pub end: SimTime,
    /// Attributed category.
    pub category: Category,
    /// The tensor responsible, when the slice belongs to a transfer.
    pub tensor: Option<u32>,
}

/// Integer-nanosecond totals per category; exact by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Nanoseconds of [`Category::Compute`].
    pub compute_ns: u64,
    /// Nanoseconds of [`Category::Wire`].
    pub wire_ns: u64,
    /// Nanoseconds of [`Category::CreditWait`].
    pub credit_wait_ns: u64,
    /// Nanoseconds of [`Category::QueueWait`].
    pub queue_wait_ns: u64,
    /// Nanoseconds of [`Category::Aggregation`].
    pub aggregation_ns: u64,
    /// Nanoseconds of [`Category::ReduceScatter`].
    pub reduce_scatter_ns: u64,
    /// Nanoseconds of [`Category::AllGather`].
    pub all_gather_ns: u64,
    /// Nanoseconds of [`Category::Barrier`].
    pub barrier_ns: u64,
}

impl Attribution {
    /// Adds `ns` to the category's bucket.
    pub fn add(&mut self, category: Category, ns: u64) {
        match category {
            Category::Compute => self.compute_ns += ns,
            Category::Wire => self.wire_ns += ns,
            Category::CreditWait => self.credit_wait_ns += ns,
            Category::QueueWait => self.queue_wait_ns += ns,
            Category::Aggregation => self.aggregation_ns += ns,
            Category::ReduceScatter => self.reduce_scatter_ns += ns,
            Category::AllGather => self.all_gather_ns += ns,
            Category::Barrier => self.barrier_ns += ns,
        }
    }

    /// Reads one category's bucket.
    pub fn get(&self, category: Category) -> u64 {
        match category {
            Category::Compute => self.compute_ns,
            Category::Wire => self.wire_ns,
            Category::CreditWait => self.credit_wait_ns,
            Category::QueueWait => self.queue_wait_ns,
            Category::Aggregation => self.aggregation_ns,
            Category::ReduceScatter => self.reduce_scatter_ns,
            Category::AllGather => self.all_gather_ns,
            Category::Barrier => self.barrier_ns,
        }
    }

    /// Sum over all categories.
    pub fn total_ns(&self) -> u64 {
        Category::ALL.iter().map(|&c| self.get(c)).sum()
    }

    /// Accumulates another attribution into this one.
    pub fn absorb(&mut self, other: &Attribution) {
        for c in Category::ALL {
            self.add(c, other.get(c));
        }
    }
}

/// One iteration's critical path: the tiling segments and their totals.
#[derive(Clone, Debug)]
pub struct IterBreakdown {
    /// Iteration index.
    pub iter: u64,
    /// Window start (previous barrier exit, or job start).
    pub start: SimTime,
    /// Window end (this iteration's barrier exit).
    pub end: SimTime,
    /// Per-category totals; sums exactly to `end - start`.
    pub attribution: Attribution,
    /// The tiling, earliest-first.
    pub segments: Vec<Segment>,
}

impl IterBreakdown {
    /// Window wall time in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.end.as_nanos() - self.start.as_nanos()
    }
}

/// Analyzes a log into per-iteration critical-path breakdowns.
pub fn analyze(log: &XrayLog) -> Vec<IterBreakdown> {
    let idx = Index::build(log);
    let mut out = Vec::with_capacity(log.marks.len());
    let mut w_start = log.start;
    for (k, &mark) in log.marks.iter().enumerate() {
        if mark < w_start {
            // Degenerate mark ordering; skip rather than underflow.
            continue;
        }
        out.push(analyze_window(log, &idx, k as u64, w_start, mark));
        w_start = mark;
    }
    out
}

/// Lookup tables over the log. The critical-path walk stays on the
/// worker it starts from: a compute op, the transfer whose delivery
/// unblocked it and the push behind that transfer's aggregation all
/// belong to one worker. So each worker's tables are built on its first
/// lookup, and a walk pays for the workers it visits only.
struct Index<'a> {
    log: &'a XrayLog,
    /// Per worker rank: its tables, once looked up.
    workers: Vec<OnceCell<WorkerIndex>>,
    /// Ring-op indices sorted by end.
    rings_by_end: Vec<usize>,
    /// (batch tag, op end) → reduce-scatter/all-gather boundary, derived
    /// from the per-hop records (absent when only coarse ops were
    /// recorded). Keyed by op end as well so a re-used tag cannot smear
    /// one op's boundary onto another.
    ring_rs_end: FastMap<(u64, SimTime), SimTime>,
}

/// One worker's lookup tables. Rows are filled in record order and
/// every sort is stable, so equal keys keep record order.
#[derive(Default)]
struct WorkerIndex {
    /// Compute-op indices sorted by (end, start).
    compute_by_end: Vec<usize>,
    /// Pull part indices sorted by delivered.
    pulls_by_delivered: Vec<usize>,
    /// Push part indices sorted by delivered.
    pushes_by_delivered: Vec<usize>,
    /// (iter, tensor, part) → push part index; a repeated key keeps its
    /// last record.
    push_by_key: FastMap<(u64, u32, u32), usize>,
    /// Per lane: stall intervals sorted by start.
    stalls: Vec<Vec<(SimTime, SimTime)>>,
}

impl WorkerIndex {
    fn build(log: &XrayLog, worker: usize) -> WorkerIndex {
        let mut compute_by_end: Vec<usize> = (0..log.compute.len())
            .filter(|&i| log.compute[i].worker == worker)
            .collect();
        compute_by_end.sort_by_key(|&i| (log.compute[i].end, log.compute[i].start));
        let mut w = WorkerIndex {
            compute_by_end,
            ..WorkerIndex::default()
        };
        for (i, p) in log.parts.iter().enumerate() {
            if p.worker != worker || !p.wire_seen {
                continue;
            }
            if p.pull {
                w.pulls_by_delivered.push(i);
            } else {
                w.pushes_by_delivered.push(i);
                w.push_by_key.insert((p.iter, p.tensor, p.part), i);
            }
        }
        w.pulls_by_delivered
            .sort_by_key(|&i| log.parts[i].delivered);
        w.pushes_by_delivered
            .sort_by_key(|&i| log.parts[i].delivered);
        for s in log.stalls.iter().filter(|s| s.worker == worker) {
            if w.stalls.len() <= s.lane {
                w.stalls.resize_with(s.lane + 1, Vec::new);
            }
            w.stalls[s.lane].push((s.start, s.end));
        }
        for v in &mut w.stalls {
            v.sort();
        }
        w
    }
}

impl<'a> Index<'a> {
    fn build(log: &'a XrayLog) -> Index<'a> {
        let workers = log
            .compute
            .iter()
            .map(|c| c.worker)
            .chain(log.parts.iter().map(|p| p.worker))
            .chain(log.stalls.iter().map(|s| s.worker))
            .max()
            .map_or(0, |w| w + 1);
        let mut rings_by_end: Vec<usize> = (0..log.ring_ops.len()).collect();
        rings_by_end.sort_by_key(|&i| log.ring_ops[i].end);
        // The phase boundary of an op is its latest reduce-scatter hop
        // delivery; hop windows tile the op span, so everything after it
        // up to the op end is all-gather. Hops arrive grouped per op, so
        // one pass per run of equal tags recovers each op's end and
        // boundary.
        let mut ring_rs_end = FastMap::default();
        let mut i = 0;
        while i < log.ring_hops.len() {
            let tag = log.ring_hops[i].tag;
            let mut end = SimTime::ZERO;
            let mut rs = SimTime::ZERO;
            let mut j = i;
            while j < log.ring_hops.len() && log.ring_hops[j].tag == tag {
                let h = &log.ring_hops[j];
                // `chunk == 0 && hop == 0` opens a fresh op even when the
                // batch tag repeats back-to-back.
                if j > i && (h.chunk, h.hop) == (0, 0) {
                    break;
                }
                end = end.max(h.deliver);
                if h.phase == crate::events::RingPhase::ReduceScatter {
                    rs = rs.max(h.deliver);
                }
                j += 1;
            }
            ring_rs_end.insert((tag, end), rs);
            i = j;
        }
        Index {
            log,
            workers: (0..workers).map(|_| OnceCell::new()).collect(),
            rings_by_end,
            ring_rs_end,
        }
    }

    /// `worker`'s tables (`None` for a rank with no records).
    fn worker(&self, worker: usize) -> Option<&WorkerIndex> {
        let cell = self.workers.get(worker)?;
        Some(cell.get_or_init(|| WorkerIndex::build(self.log, worker)))
    }

    /// The compute op on `worker` ending exactly at `at`, excluding
    /// `not` (so a zero-duration op cannot be its own predecessor).
    /// Ties pick the latest-starting op.
    fn compute_ending_at(&self, worker: usize, at: SimTime, not: Option<usize>) -> Option<usize> {
        let compute = &self.log.compute;
        let v = &self.worker(worker)?.compute_by_end;
        let hi = v.partition_point(|&i| compute[i].end <= at);
        v[..hi]
            .iter()
            .rev()
            .take_while(|&&i| compute[i].end == at)
            .find(|&&i| Some(i) != not)
            .copied()
    }

    /// The latest compute op on `worker` ending at or before `at`.
    fn compute_before(&self, worker: usize, at: SimTime) -> Option<usize> {
        let compute = &self.log.compute;
        let v = &self.worker(worker)?.compute_by_end;
        let hi = v.partition_point(|&i| compute[i].end <= at);
        if hi == 0 {
            None
        } else {
            Some(v[hi - 1])
        }
    }

    /// A pull (or push) on `worker` delivered exactly at `at`, preferring
    /// tensor `hint` (the layer of the op it unblocked).
    fn part_delivered_at(
        &self,
        pull: bool,
        worker: usize,
        at: SimTime,
        hint: u32,
    ) -> Option<usize> {
        let parts = &self.log.parts;
        let w = self.worker(worker)?;
        let v = if pull {
            &w.pulls_by_delivered
        } else {
            &w.pushes_by_delivered
        };
        let hi = v.partition_point(|&i| parts[i].delivered <= at);
        let matching = v[..hi]
            .iter()
            .rev()
            .take_while(|&&i| parts[i].delivered == at);
        let mut fallback = None;
        for &i in matching {
            if parts[i].tensor == hint {
                return Some(i);
            }
            fallback.get_or_insert(i);
        }
        fallback
    }

    /// The push of `(iter, tensor, part)` on `worker`, if it reached the
    /// wire.
    fn push_of(&self, worker: usize, iter: u64, tensor: u32, part: u32) -> Option<usize> {
        self.worker(worker)?
            .push_by_key
            .get(&(iter, tensor, part))
            .copied()
    }

    /// `worker`'s stall intervals on `lane`, sorted by start.
    fn stalls(&self, worker: usize, lane: usize) -> Option<&[(SimTime, SimTime)]> {
        Some(self.worker(worker)?.stalls.get(lane)?)
    }

    /// A ring op ending exactly at `at`.
    fn ring_ending_at(&self, at: SimTime) -> Option<usize> {
        let ops = &self.log.ring_ops;
        let hi = self.rings_by_end.partition_point(|&i| ops[i].end <= at);
        if hi == 0 {
            return None;
        }
        let i = self.rings_by_end[hi - 1];
        (ops[i].end == at).then_some(i)
    }
}

/// Backward walker over one iteration window. Every `emit` moves the
/// cursor down to the segment's (clamped) start, so the produced
/// segments tile `[w_start, w_end]` exactly.
struct Walker<'a> {
    log: &'a XrayLog,
    idx: &'a Index<'a>,
    w_start: SimTime,
    cursor: SimTime,
    segs: Vec<Segment>,
    done: bool,
}

impl<'a> Walker<'a> {
    /// Attributes `[from, cursor]` to `category` and moves the cursor to
    /// `from`, clamping both to the window. Non-monotone inputs (bad or
    /// missing data) clamp to zero length instead of corrupting the
    /// tiling.
    fn emit(&mut self, category: Category, from: SimTime, tensor: Option<u32>) {
        let lo = from.min(self.cursor).max(self.w_start);
        if lo < self.cursor {
            self.segs.push(Segment {
                start: lo,
                end: self.cursor,
                category,
                tensor,
            });
            self.cursor = lo;
        }
        if self.cursor <= self.w_start {
            self.done = true;
        }
    }

    /// Attributes the `[enqueued, cursor]` scheduler wait, splitting it
    /// into credit-blocked and plain queueing time using the lane's
    /// recorded stall intervals.
    fn emit_sched_wait(&mut self, worker: usize, lane: usize, enqueued: SimTime, tensor: u32) {
        let t = Some(tensor);
        if let Some(stalls) = self.idx.stalls(worker, lane) {
            for &(s_start, s_end) in stalls.iter().rev() {
                if self.done || s_end <= enqueued {
                    break;
                }
                if s_start >= self.cursor {
                    continue;
                }
                self.emit(Category::QueueWait, s_end.min(self.cursor), t);
                self.emit(Category::CreditWait, s_start.max(enqueued), t);
            }
        }
        self.emit(Category::QueueWait, enqueued, t);
    }

    /// Attributes one part's transfer pipeline (delivery latency, wire
    /// occupancy, fabric queue, scheduler wait) and returns with the
    /// cursor at the part's enqueue instant.
    fn emit_part(&mut self, p: &PartRecord) {
        let t = Some(p.tensor);
        if p.wire_seen {
            self.emit(Category::Wire, p.wire_end, t);
            self.emit(Category::Wire, p.wire_start, t);
            self.emit(Category::QueueWait, p.granted, t);
            self.emit_sched_wait(p.worker, p.lane, p.enqueued, p.tensor);
        } else {
            self.emit(Category::QueueWait, p.enqueued, t);
        }
    }

    /// Walks a part chain starting at `part` (cursor already at its
    /// delivered instant) and returns the compute op to continue from,
    /// if the chain reaches one.
    fn walk_part(&mut self, part: usize) -> Option<usize> {
        let p = self.log.parts[part];
        self.emit_part(&p);
        if self.done {
            return None;
        }
        if p.pull {
            // The pull was granted by aggregation, which waited on this
            // worker's own push of the same partition: attribute the gap
            // between the push's delivery and the pull grant to
            // aggregation (stragglers + server-side combine).
            if let Some(push_idx) = self.idx.push_of(p.worker, p.iter, p.tensor, p.part) {
                let push = self.log.parts[push_idx];
                self.emit(Category::Aggregation, push.delivered, Some(p.tensor));
                if self.done {
                    return None;
                }
                self.emit_part(&push);
                if self.done {
                    return None;
                }
                return self.compute_producer(&push);
            }
            None
        } else {
            self.compute_producer(&p)
        }
    }

    /// The backward op that produced a push (matched by worker and
    /// retire instant — the engine emits the gradient the moment the
    /// layer's backward op retires).
    fn compute_producer(&self, p: &PartRecord) -> Option<usize> {
        self.idx.compute_ending_at(p.worker, p.enqueued, None)
    }
}

fn analyze_window(
    log: &XrayLog,
    idx: &Index,
    iter: u64,
    w_start: SimTime,
    w_end: SimTime,
) -> IterBreakdown {
    let mut walker = Walker {
        log,
        idx,
        w_start,
        cursor: w_end,
        segs: Vec::new(),
        done: w_end <= w_start,
    };

    // Anchor: the compute op that retired the iteration on worker 0.
    let mut cur = idx.compute_ending_at(0, w_end, None);
    let max_steps = 4 * (log.compute.len() + log.parts.len() + log.ring_ops.len()) + 64;
    let mut steps = 0usize;
    while !walker.done {
        steps += 1;
        if steps > max_steps {
            break;
        }
        let Some(op_idx) = cur else { break };
        let op = log.compute[op_idx];
        walker.emit(Category::Compute, op.start, None);
        if walker.done {
            break;
        }
        let at = walker.cursor;
        // Predecessor preference: an abutting compute op, then the
        // transfer delivery that unblocked this op, then a ring op, then
        // an unattributed gap back to the previous compute op.
        if let Some(prev) = idx.compute_ending_at(op.worker, at, Some(op_idx)) {
            cur = Some(prev);
            continue;
        }
        if let Some(p) = idx.part_delivered_at(true, op.worker, at, op.layer) {
            cur = walker.walk_part(p);
            if cur.is_some() || walker.done {
                continue;
            }
        } else if let Some(p) = idx.part_delivered_at(false, op.worker, at, op.layer) {
            cur = walker.walk_part(p);
            if cur.is_some() || walker.done {
                continue;
            }
        } else if let Some(r) = idx.ring_ending_at(at) {
            let ring = log.ring_ops[r];
            // With per-hop records the op splits at the phase boundary;
            // both emissions together cover exactly the span the single
            // coarse Aggregation emission used to, so per-window tiling
            // is unchanged and rs + ag == the old aggregation share.
            if let Some(&rs_end) = idx.ring_rs_end.get(&(ring.tag, ring.end)) {
                walker.emit(Category::AllGather, rs_end, None);
                walker.emit(Category::ReduceScatter, ring.start, None);
            } else {
                walker.emit(Category::Aggregation, ring.start, None);
            }
            if walker.done {
                break;
            }
            cur = idx.compute_before(op.worker, walker.cursor);
            if let Some(prev) = cur {
                walker.emit(Category::Barrier, log.compute[prev].end, None);
                continue;
            }
            break;
        }
        // Part chain ended without a producing compute op, or nothing
        // explains this instant: bridge to the previous compute op.
        cur = idx.compute_before(op.worker, walker.cursor);
        match cur {
            Some(prev) if log.compute[prev].end < walker.cursor => {
                walker.emit(Category::Barrier, log.compute[prev].end, None);
            }
            Some(_) => {}
            None => break,
        }
    }
    // Whatever the walk could not reach is barrier time.
    walker.emit(Category::Barrier, w_start, None);

    walker.segs.reverse();
    let mut attribution = Attribution::default();
    for s in &walker.segs {
        attribution.add(s.category, s.end.as_nanos() - s.start.as_nanos());
    }
    debug_assert_eq!(
        attribution.total_ns(),
        w_end.as_nanos() - w_start.as_nanos(),
        "critical-path tiling must cover the iteration window exactly"
    );
    IterBreakdown {
        iter,
        start: w_start,
        end: w_end,
        attribution,
        segments: walker.segs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{ComputeSpan, StallSpan};

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    fn compute(
        worker: usize,
        iter: u64,
        layer: u32,
        backward: bool,
        s: u64,
        e: u64,
    ) -> ComputeSpan {
        ComputeSpan {
            worker,
            iter,
            layer,
            backward,
            start: us(s),
            end: us(e),
        }
    }

    /// A single chain of abutting compute ops: the critical path is all
    /// compute and equals the makespan exactly.
    #[test]
    fn single_chain_dag_attributes_everything_to_compute() {
        let log = XrayLog {
            scheduler: "test".into(),
            start: SimTime::ZERO,
            end: us(100),
            marks: vec![us(100)],
            compute: vec![
                compute(0, 0, 2, false, 0, 30),
                compute(0, 0, 1, false, 30, 55),
                compute(0, 0, 0, true, 55, 100),
            ],
            ..Default::default()
        };
        let breakdown = analyze(&log);
        assert_eq!(breakdown.len(), 1);
        let b = &breakdown[0];
        assert_eq!(b.attribution.compute_ns, 100_000);
        assert_eq!(b.attribution.total_ns(), b.wall_ns());
        assert_eq!(b.segments.len(), 3);
        assert!(b.segments.windows(2).all(|w| w[0].end == w[1].start));
    }

    /// A full PS chain: bwd → push (credit wait + wire) → aggregation →
    /// pull (wire) → dependent compute. Categories must tile the window.
    #[test]
    fn ps_chain_attributes_each_stage() {
        let mut push = PartRecord::enqueued_at(0, 0, 2, 0, 0, false, 1000, us(10));
        push.granted = us(18);
        push.wire_submit = us(18);
        push.wire_start = us(20);
        push.wire_end = us(38);
        push.delivered = us(40);
        push.wire_seen = true;
        let mut pull = PartRecord::enqueued_at(0, 0, 2, 0, 1, true, 1000, us(45));
        pull.granted = us(50);
        pull.wire_submit = us(50);
        pull.wire_start = us(50);
        pull.wire_end = us(68);
        pull.delivered = us(70);
        pull.wire_seen = true;
        let log = XrayLog {
            scheduler: "test".into(),
            start: SimTime::ZERO,
            end: us(100),
            marks: vec![us(100)],
            compute: vec![
                compute(0, 0, 2, true, 0, 10),
                compute(0, 0, 0, true, 70, 100),
            ],
            parts: vec![push, pull],
            stalls: vec![StallSpan {
                worker: 0,
                lane: 0,
                start: us(12),
                end: us(18),
            }],
            ..Default::default()
        };
        let b = &analyze(&log)[0];
        let a = &b.attribution;
        assert_eq!(a.total_ns(), 100_000);
        // Compute: [0,10] + [70,100] = 40µs.
        assert_eq!(a.compute_ns, 40_000);
        // Wire: push [20,38]+[38,40], pull [50,68]+[68,70] = 40µs.
        assert_eq!(a.wire_ns, 40_000);
        // Credit wait: the recorded stall [12,18] inside push's wait.
        assert_eq!(a.credit_wait_ns, 6_000);
        // Queue wait: push [10,12] + [18,20], pull [45,50] = 9µs.
        assert_eq!(a.queue_wait_ns, 9_000);
        // Aggregation: push delivered 40 → pull enqueued 45.
        assert_eq!(a.aggregation_ns, 5_000);
        assert_eq!(a.barrier_ns, 0);
    }

    /// A ring op with per-hop records splits into reduce-scatter and
    /// all-gather buckets whose sum equals the coarse aggregation share,
    /// and the window still tiles exactly.
    #[test]
    fn ring_hops_split_aggregation_without_breaking_tiling() {
        use crate::events::{RingHopRecord, RingOp, RingPhase};
        let coarse = XrayLog {
            scheduler: "test".into(),
            start: SimTime::ZERO,
            end: us(100),
            marks: vec![us(100)],
            compute: vec![
                compute(0, 0, 0, true, 0, 10),
                compute(0, 0, 0, false, 70, 100),
            ],
            ring_ops: vec![RingOp {
                tag: 3,
                start: us(10),
                end: us(70),
            }],
            ..Default::default()
        };
        let mut split = coarse.clone();
        split.ring_hops = vec![
            RingHopRecord {
                tag: 3,
                chunk: 0,
                hop: 0,
                phase: RingPhase::ReduceScatter,
                enqueue: us(10),
                submit: us(10),
                deliver: us(45),
            },
            RingHopRecord {
                tag: 3,
                chunk: 0,
                hop: 1,
                phase: RingPhase::AllGather,
                enqueue: us(45),
                submit: us(45),
                deliver: us(70),
            },
        ];
        let a = &analyze(&coarse)[0].attribution;
        let b = &analyze(&split)[0].attribution;
        assert_eq!(a.aggregation_ns, 60_000);
        assert_eq!(a.reduce_scatter_ns + a.all_gather_ns, 0);
        assert_eq!(b.reduce_scatter_ns, 35_000);
        assert_eq!(b.all_gather_ns, 25_000);
        assert_eq!(b.aggregation_ns, 0);
        assert_eq!(
            b.reduce_scatter_ns + b.all_gather_ns + b.aggregation_ns,
            a.reduce_scatter_ns + a.all_gather_ns + a.aggregation_ns,
        );
        assert_eq!(a.compute_ns, b.compute_ns);
        assert_eq!(a.barrier_ns, b.barrier_ns);
        assert_eq!(b.total_ns(), 100_000);
    }

    /// Gaps no recorded event explains become barrier time, never a
    /// panic or a mis-sum.
    #[test]
    fn unexplained_gaps_become_barrier_time() {
        let log = XrayLog {
            scheduler: "test".into(),
            start: SimTime::ZERO,
            end: us(50),
            marks: vec![us(50)],
            compute: vec![
                compute(0, 0, 0, true, 0, 10),
                compute(0, 0, 0, false, 30, 50),
            ],
            ..Default::default()
        };
        let b = &analyze(&log)[0];
        assert_eq!(b.attribution.compute_ns, 30_000);
        assert_eq!(b.attribution.barrier_ns, 20_000);
        assert_eq!(b.attribution.total_ns(), 50_000);
    }

    /// Windows are split on marks and sums stay exact per window.
    #[test]
    fn multiple_iterations_tile_independently() {
        let log = XrayLog {
            scheduler: "test".into(),
            start: SimTime::ZERO,
            end: us(80),
            marks: vec![us(40), us(80)],
            compute: vec![
                compute(0, 0, 0, true, 0, 40),
                compute(0, 1, 0, true, 40, 80),
            ],
            ..Default::default()
        };
        let b = analyze(&log);
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(|x| x.attribution.total_ns() == 40_000));
        let cp_total: u64 = b.iter().map(|x| x.attribution.total_ns()).sum();
        assert!(cp_total <= log.end.as_nanos() - log.start.as_nanos());
    }
}
