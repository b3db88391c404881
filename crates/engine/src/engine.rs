//! The per-worker execution engine: instantiates the [`IterDag`] template
//! iteration by iteration and runs it on a serial GPU.
//!
//! The engine's only recorder is its compute-span log (one entry per
//! retired GPU op, see [`WorkerEngine::spans`]). The span trace, xray's
//! compute spans, and the runtime's GPU-busy / comm-stall figures for
//! metrics and the scope bus are all folds over that one log.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use bs_models::DnnModel;
use bs_sim::{SimRng, SimTime};
use bs_telemetry::TimeSeries;

use crate::dag::{ExternalRole, IterDag, NodeKind, Pass};

/// Events the engine reports to the runtime. In the real system these are
/// the moments where the framework engine invokes plugin callbacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineEvent {
    /// An external node's dependencies are satisfied — the engine
    /// "started" the op. For `ProxyReady` this is `notify_ready()`; for
    /// baseline comm nodes it is the tensor landing in the comm stack.
    ExternalReady {
        /// Iteration the node belongs to.
        iter: u64,
        /// Which node.
        role: ExternalRole,
        /// When it happened.
        at: SimTime,
    },
    /// `bwd_0` of an iteration retired: the compute pass is over. The
    /// steady-state interval between these events is the iteration period
    /// the harness measures.
    ComputeIterDone {
        /// The iteration that finished its backward pass.
        iter: u64,
        /// When.
        at: SimTime,
    },
    /// Every node of every iteration retired.
    AllDone {
        /// When.
        at: SimTime,
    },
}

/// Per-iteration bookkeeping.
#[derive(Debug)]
struct IterState {
    /// Unsatisfied dependency count per template node.
    remaining: Vec<u32>,
    /// Completion flags per template node.
    done: Vec<bool>,
    /// Nodes not yet complete.
    incomplete: usize,
}

/// A worker's engine: executes the iteration template on one serial GPU,
/// lazily instantiating iterations (iteration k+1 materialises when
/// `fwd_0^k` retires — by which point no cross-iteration source into k+1
/// can have fired yet, see the `instantiation_is_early_enough` test).
#[derive(Debug)]
pub struct WorkerEngine {
    dag: IterDag,
    /// Reverse adjacency of the template: node → (dependent, delta).
    dependents: Vec<Vec<(usize, u32)>>,
    /// [`ExternalRole::slot`] → template index for `complete_external`.
    role_index: Vec<Option<usize>>,
    /// Forward/backward durations per layer.
    fp: Vec<SimTime>,
    bp: Vec<SimTime>,
    /// Number of iterations to run.
    max_iters: u64,
    /// Live iterations.
    iters: BTreeMap<u64, IterState>,
    /// Ready-to-run compute nodes, ordered by (iteration, template index).
    ready_compute: BinaryHeap<Reverse<(u64, usize)>>,
    /// The op currently on the GPU: (start, end time, iteration, node).
    gpu: Option<(SimTime, SimTime, u64, usize)>,
    /// Buffered events awaiting the next public call.
    pending: Vec<EngineEvent>,
    /// Optional multiplicative compute-time jitter: (rng, fraction).
    jitter: Option<(SimRng, f64)>,
    /// Deterministic per-iteration compute-time multipliers
    /// `(from_iter, to_iter, factor)`, each applied to every GPU op of
    /// iterations in `[from, to)` — fault-injected stragglers. Empty when
    /// unfaulted.
    straggle: Vec<(u64, u64, f64)>,
    /// Iterations fully retired.
    done_iters: u64,
    all_done_emitted: bool,
    /// When enabled, completed compute spans: (iter, node, start, end).
    /// Every compute-side recorder reads this one log.
    spans: Option<Vec<(u64, usize, SimTime, SimTime)>>,
}

impl WorkerEngine {
    /// Creates an engine for `model` under the given template, running
    /// `max_iters` iterations. `jitter` adds per-op Gaussian noise of the
    /// given fraction to compute times (real GPUs wobble; the auto-tuner
    /// must cope — §4.3 calls BO noise-resilient).
    pub fn new(
        dag: IterDag,
        model: &DnnModel,
        max_iters: u64,
        jitter: Option<(SimRng, f64)>,
    ) -> Self {
        Self::new_at(dag, model, max_iters, jitter, SimTime::ZERO)
    }

    /// Like [`Self::new`] but with the first GPU op starting at `start`
    /// instead of time zero — a job arriving into a running shared
    /// cluster begins computing at its arrival instant.
    pub fn new_at(
        dag: IterDag,
        model: &DnnModel,
        max_iters: u64,
        jitter: Option<(SimRng, f64)>,
        start: SimTime,
    ) -> Self {
        assert_eq!(
            dag.num_layers,
            model.num_layers(),
            "template and model disagree on layer count"
        );
        assert!(max_iters > 0, "need at least one iteration");
        let mut dependents = vec![Vec::new(); dag.len()];
        for (idx, node) in dag.nodes.iter().enumerate() {
            for &(dep, delta) in &node.deps {
                dependents[dep].push((idx, delta));
            }
        }
        let mut role_index = vec![None; ExternalRole::KINDS * dag.num_layers];
        for (idx, node) in dag.nodes.iter().enumerate() {
            if let NodeKind::External(role) = node.kind {
                let slot = role.slot(dag.num_layers).expect("template role in range");
                let prev = role_index[slot].replace(idx);
                assert!(prev.is_none(), "duplicate external role {role:?}");
            }
        }
        let mut engine = WorkerEngine {
            fp: model.layers.iter().map(|l| l.fp_time).collect(),
            bp: model.layers.iter().map(|l| l.bp_time).collect(),
            dependents,
            role_index,
            dag,
            max_iters,
            iters: BTreeMap::new(),
            ready_compute: BinaryHeap::new(),
            gpu: None,
            pending: Vec::new(),
            jitter,
            straggle: Vec::new(),
            done_iters: 0,
            all_done_emitted: false,
            spans: None,
        };
        engine.instantiate(0, start);
        engine.maybe_start_gpu(start);
        engine
    }

    /// The template in use.
    pub fn dag(&self) -> &IterDag {
        &self.dag
    }

    /// Registers a deterministic straggler: every GPU op of iterations in
    /// `[from_iter, to_iter)` runs `factor` × as long. Overlapping ranges
    /// multiply. Intended for setup time; the op already on the GPU is
    /// rescaled in place so a range covering iteration 0 takes effect
    /// from the very first op.
    pub fn add_compute_scale(&mut self, from_iter: u64, to_iter: u64, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "straggler factor must be finite and > 0 (got {factor})"
        );
        self.straggle.push((from_iter, to_iter, factor));
        if let Some((start, end, iter, node)) = self.gpu {
            if iter >= from_iter && iter < to_iter {
                let dur = SimTime::from_secs_f64((end - start).as_secs_f64() * factor);
                self.gpu = Some((start, start + dur, iter, node));
            }
        }
    }

    /// Enables compute-span recording (see [`Self::spans`]).
    pub fn enable_spans(&mut self) {
        if self.spans.is_none() {
            self.spans = Some(Vec::new());
        }
    }

    /// The recorded compute spans so far: `(iteration, template node,
    /// start, end)` per retired GPU op, in retire order.
    pub fn spans(&self) -> &[(u64, usize, SimTime, SimTime)] {
        self.spans.as_deref().unwrap_or_default()
    }

    /// Drains the recorded compute spans (see [`Self::spans`]).
    pub fn take_spans(&mut self) -> Vec<(u64, usize, SimTime, SimTime)> {
        self.spans.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// GPU-busy seconds from the first op up to `until`, which must not
    /// precede the last retired op: `fold` absorbs the spans it has not
    /// seen yet, and the op still on the GPU counts up to `until`.
    pub fn busy_secs(&self, fold: &mut BusyFold, until: SimTime) -> f64 {
        fold.absorb(self.spans());
        fold.secs(until, self.gpu.map(|(start, ..)| start))
    }

    /// The 0/1 GPU-occupancy series from `start`, rendered from the span
    /// log; an op still on the GPU leaves the series at 1.
    pub fn busy_series(&self, start: SimTime) -> TimeSeries {
        let mut s = TimeSeries::new();
        s.record(start, 0.0);
        for &(_, _, a, b) in self.spans() {
            s.record(a, 1.0);
            s.record(b, 0.0);
        }
        if let Some((a, ..)) = self.gpu {
            s.record(a, 1.0);
        }
        s
    }

    /// Iterations fully retired so far.
    pub fn done_iterations(&self) -> u64 {
        self.done_iters
    }

    /// Earliest time the engine has something to do on its own (the end of
    /// the op currently on the GPU), or `MAX` when it is waiting on
    /// external completions.
    pub fn next_event_time(&self) -> SimTime {
        self.gpu.map(|(_, end, _, _)| end).unwrap_or(SimTime::MAX)
    }

    /// Advances to `now`, retiring GPU ops that end at or before it.
    pub fn advance(&mut self, now: SimTime) -> Vec<EngineEvent> {
        self.advance_queued(now);
        std::mem::take(&mut self.pending)
    }

    /// Like [`Self::advance`] but leaves emitted events in the internal
    /// buffer for [`Self::drain_pending`], so a hot event loop can move
    /// them out without surrendering the buffer's allocation.
    pub fn advance_queued(&mut self, now: SimTime) {
        while let Some((start, end, iter, node)) = self.gpu {
            if end > now {
                break;
            }
            self.gpu = None;
            if let Some(spans) = &mut self.spans {
                spans.push((iter, node, start, end));
            }
            self.complete_node(end, iter, node);
            self.maybe_start_gpu(end);
        }
    }

    /// Moves out events emitted by the `*_queued` methods, keeping the
    /// internal buffer's capacity for reuse.
    pub fn drain_pending(&mut self) -> std::vec::Drain<'_, EngineEvent> {
        self.pending.drain(..)
    }

    /// True when emitted events await [`Self::drain_pending`].
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Delivers an external completion signal — the runtime's translation
    /// of a finished transfer, a pull grant chain, or the Core's
    /// `notify_finish` — for `role` of iteration `iter`.
    pub fn complete_external(
        &mut self,
        now: SimTime,
        iter: u64,
        role: ExternalRole,
    ) -> Vec<EngineEvent> {
        self.complete_external_queued(now, iter, role);
        std::mem::take(&mut self.pending)
    }

    /// Like [`Self::complete_external`] but leaves emitted events in the
    /// internal buffer for [`Self::drain_pending`].
    pub fn complete_external_queued(&mut self, now: SimTime, iter: u64, role: ExternalRole) {
        if iter >= self.max_iters {
            // Communication of the final iterations gates nothing.
            return;
        }
        let node = role
            .slot(self.dag.num_layers)
            .and_then(|s| self.role_index[s])
            .unwrap_or_else(|| panic!("role {role:?} not in template"));
        let Some(state) = self.iters.get(&iter) else {
            // The iteration already retired in full (possible only for
            // signals that gate nothing, e.g. a duplicate); ignore.
            return;
        };
        assert!(
            !state.done[node],
            "double completion of {role:?} in iteration {iter}"
        );
        assert_eq!(
            state.remaining[node], 0,
            "external {role:?} completed before the engine started it"
        );
        self.complete_node(now, iter, node);
        self.maybe_start_gpu(now);
    }

    /// Materialises iteration `k`.
    fn instantiate(&mut self, k: u64, now: SimTime) {
        debug_assert!(!self.iters.contains_key(&k));
        let n = self.dag.len();
        let mut remaining = vec![0u32; n];
        for (idx, node) in self.dag.nodes.iter().enumerate() {
            for &(dep, delta) in &node.deps {
                let satisfied = match delta {
                    0 => false,
                    _ => {
                        if k == 0 {
                            true
                        } else {
                            self.iters
                                .get(&(k - 1))
                                .map(|s| s.done[dep])
                                .unwrap_or(true) // k-1 fully retired
                        }
                    }
                };
                if !satisfied {
                    remaining[idx] += 1;
                }
            }
        }
        self.iters.insert(
            k,
            IterState {
                remaining,
                done: vec![false; n],
                incomplete: n,
            },
        );
        // Fire everything that is ready at birth.
        for idx in 0..n {
            if self.iters[&k].remaining[idx] == 0 {
                self.on_node_ready(now, k, idx);
            }
        }
    }

    /// A node's dependencies are all satisfied.
    fn on_node_ready(&mut self, now: SimTime, iter: u64, node: usize) {
        match self.dag.nodes[node].kind {
            NodeKind::Compute { .. } => {
                self.ready_compute.push(Reverse((iter, node)));
            }
            NodeKind::Instant(_) => {
                self.complete_node(now, iter, node);
            }
            NodeKind::External(role) => {
                // ProxyFinish auto-completes in iteration 0: the initial
                // parameters are already on the device.
                if iter == 0 && matches!(role, ExternalRole::ProxyFinish(_)) {
                    self.complete_node(now, iter, node);
                    return;
                }
                self.pending.push(EngineEvent::ExternalReady {
                    iter,
                    role,
                    at: now,
                });
                // ProxyReady gates nothing downstream in the engine; the
                // delaying role is played by the Core's credit scheduling.
                // Retire it so iteration completion stays well-defined.
                if matches!(role, ExternalRole::ProxyReady(_)) {
                    self.complete_node(now, iter, node);
                }
            }
        }
    }

    /// Marks a node complete and propagates to dependents.
    fn complete_node(&mut self, now: SimTime, iter: u64, node: usize) {
        // Whether *this* call retired the iteration's last node. Must be
        // captured before propagation: instant nodes complete recursively
        // and only one frame may run the retire logic.
        let retired = {
            let state = self.iters.get_mut(&iter).expect("iteration live");
            debug_assert!(!state.done[node], "double completion");
            state.done[node] = true;
            state.incomplete -= 1;
            state.incomplete == 0
        };

        // Measurement + instantiation hooks.
        if node == self.dag.bwd(0) {
            self.pending
                .push(EngineEvent::ComputeIterDone { iter, at: now });
        }
        if node == self.dag.fwd(0) && iter + 1 < self.max_iters {
            self.instantiate(iter + 1, now);
        }

        // Propagate within this iteration and into the next.
        for di in 0..self.dependents[node].len() {
            let (dep_node, delta) = self.dependents[node][di];
            let target = iter + delta as u64;
            if target >= self.max_iters {
                continue;
            }
            if let Some(state) = self.iters.get_mut(&target) {
                debug_assert!(state.remaining[dep_node] > 0);
                state.remaining[dep_node] -= 1;
                if state.remaining[dep_node] == 0 {
                    self.on_node_ready(now, target, dep_node);
                }
            }
            // Not yet instantiated: instantiation reads `done` flags.
        }

        // Retire and prune fully-complete iterations.
        if retired {
            self.done_iters += 1;
            let next_exists = iter + 1 >= self.max_iters || self.iters.contains_key(&(iter + 1));
            if next_exists {
                self.iters.remove(&iter);
            }
            if self.done_iters == self.max_iters && !self.all_done_emitted {
                self.all_done_emitted = true;
                self.pending.push(EngineEvent::AllDone { at: now });
            }
        }
    }

    /// Puts the best ready compute node on the idle GPU.
    fn maybe_start_gpu(&mut self, now: SimTime) {
        if self.gpu.is_some() {
            return;
        }
        let Some(Reverse((iter, node))) = self.ready_compute.pop() else {
            return;
        };
        let base = match self.dag.nodes[node].kind {
            NodeKind::Compute { layer, pass } => match pass {
                Pass::Forward => self.fp[layer],
                Pass::Backward => self.bp[layer],
            },
            _ => unreachable!("only compute nodes enter the GPU queue"),
        };
        let dur = match &mut self.jitter {
            Some((rng, frac)) => {
                let factor = (1.0 + *frac * rng.normal()).clamp(0.2, 5.0);
                SimTime::from_secs_f64(base.as_secs_f64() * factor)
            }
            None => base,
        };
        let dur = if self.straggle.is_empty() {
            dur
        } else {
            let mut factor = 1.0;
            for &(from, to, f) in &self.straggle {
                if iter >= from && iter < to {
                    factor *= f;
                }
            }
            if factor == 1.0 {
                dur
            } else {
                SimTime::from_secs_f64(dur.as_secs_f64() * factor)
            }
        };
        self.gpu = Some((now, now + dur, iter, node));
    }
}

/// GPU occupancy as an incremental fold over a compute-span log.
///
/// Back-to-back ops merge into one busy run, as they do in
/// [`WorkerEngine::busy_series`], and closed runs are summed in time
/// order, so [`WorkerEngine::busy_secs`] is bit-identical to that
/// series' integral. A reader that asks once per iteration pays for
/// each span once.
#[derive(Clone, Debug, Default)]
pub struct BusyFold {
    /// Spans absorbed so far.
    seen: usize,
    /// Summed seconds of the closed busy runs.
    closed_secs: f64,
    /// The latest busy run, `(start, end)`; a later op starting at its
    /// end extends it.
    run: Option<(SimTime, SimTime)>,
}

impl BusyFold {
    fn absorb(&mut self, spans: &[(u64, usize, SimTime, SimTime)]) {
        for &(_, _, start, end) in &spans[self.seen..] {
            self.run = match self.run {
                Some((rs, re)) if re == start => Some((rs, end)),
                Some((rs, re)) => {
                    self.closed_secs += (re - rs).as_secs_f64();
                    Some((start, end))
                }
                None => Some((start, end)),
            };
        }
        self.seen = spans.len();
    }

    fn secs(&self, until: SimTime, running: Option<SimTime>) -> f64 {
        let part = |from: SimTime, to: SimTime| {
            let to = to.min(until);
            if to > from {
                (to - from).as_secs_f64()
            } else {
                0.0
            }
        };
        let mut total = self.closed_secs;
        match (self.run, running) {
            (Some((rs, re)), Some(r)) if r == re => total += part(rs, until),
            (run, running) => {
                if let Some((rs, re)) = run {
                    total += part(rs, re);
                }
                if let Some(r) = running {
                    total += part(r, until);
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use bs_models::GpuSpec;
    use bs_models::{ModelBuilder, SampleUnit};

    /// A 3-layer model with 1 ms forward and 2 ms backward per layer.
    fn model3() -> DnnModel {
        let gpu = GpuSpec::custom(1e12, 2.0);
        let mut b = ModelBuilder::new("m3", gpu, 1, SampleUnit::Images);
        for i in 0..3 {
            b = b.explicit(
                format!("l{i}"),
                1_000,
                SimTime::from_millis(1),
                SimTime::from_millis(2),
            );
        }
        b.build()
    }

    /// Drives the engine to quiescence, completing every external signal
    /// instantly (zero-cost communication).
    fn run_with_instant_comm(dag: IterDag, iters: u64) -> Vec<EngineEvent> {
        let model = model3();
        let mut eng = WorkerEngine::new(dag, &model, iters, None);
        let mut events = Vec::new();
        loop {
            let t = eng.next_event_time();
            let batch = if t.is_never() {
                // Only external completions can unblock; handled below by
                // re-processing previous events. If nothing pending, done.
                break;
            } else {
                eng.advance(t)
            };
            let mut queue = batch;
            while let Some(ev) = queue.pop() {
                events.push(ev);
                if let EngineEvent::ExternalReady { iter, role, at } = ev {
                    match role {
                        ExternalRole::ProxyReady(_) => {}
                        ExternalRole::ProxyFinish(_) => {}
                        _ => queue.extend(eng.complete_external(at, iter, role)),
                    }
                }
            }
        }
        events
    }

    #[test]
    fn compute_only_iteration_period_is_fp_plus_bp() {
        let dag = IterDag::build(3, EngineConfig::mxnet_ps());
        let events = run_with_instant_comm(dag, 3);
        let done: Vec<(u64, SimTime)> = events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::ComputeIterDone { iter, at } => Some((*iter, *at)),
                _ => None,
            })
            .collect();
        assert_eq!(done.len(), 3);
        // fp = 3 ms, bp = 6 ms per iteration.
        assert_eq!(done[0], (0, SimTime::from_millis(9)));
        assert_eq!(done[1], (1, SimTime::from_millis(18)));
        assert_eq!(done[2], (2, SimTime::from_millis(27)));
    }

    #[test]
    fn externals_fire_in_backward_order() {
        let dag = IterDag::build(3, EngineConfig::mxnet_ps());
        let model = model3();
        let mut eng = WorkerEngine::new(dag, &model, 1, None);
        let mut pushes = Vec::new();
        loop {
            let t = eng.next_event_time();
            if t.is_never() {
                break;
            }
            for ev in eng.advance(t) {
                if let EngineEvent::ExternalReady {
                    role: ExternalRole::Push(i),
                    ..
                } = ev
                {
                    pushes.push(i);
                }
            }
        }
        // BP retires layer 2 first: FIFO readiness order is 2, 1, 0 — the
        // order Figure 1 shows being sub-optimal.
        assert_eq!(pushes, vec![2, 1, 0]);
    }

    #[test]
    fn per_layer_gating_releases_fwd_layer_by_layer() {
        let dag = IterDag::build(3, EngineConfig::mxnet_ps());
        let model = model3();
        let mut eng = WorkerEngine::new(dag, &model, 2, None);
        // Run iteration 0's compute (pushes fire; we never complete them).
        let mut t;
        loop {
            t = eng.next_event_time();
            if t.is_never() {
                break;
            }
            eng.advance(t);
        }
        // Engine is stalled before fwd_0^1.
        assert_eq!(eng.done_iterations(), 0);
        // Complete layer 0's push + pull only.
        let now = SimTime::from_millis(20);
        eng.complete_external(now, 0, ExternalRole::Push(0));
        let evs = eng.complete_external(now, 0, ExternalRole::Pull(0));
        assert!(evs.is_empty());
        // fwd_0^1 can now run (1 ms) but fwd_1^1 stays blocked on pull_1.
        let end = eng.next_event_time();
        assert_eq!(end, now + SimTime::from_millis(1));
        eng.advance(end);
        assert!(eng.next_event_time().is_never(), "fwd_1 must stay gated");
    }

    #[test]
    fn barrier_gating_blocks_everything_until_all_comm_done() {
        let dag = IterDag::build(3, EngineConfig::tensorflow_ps());
        let model = model3();
        let mut eng = WorkerEngine::new(dag, &model, 2, None);
        loop {
            let t = eng.next_event_time();
            if t.is_never() {
                break;
            }
            eng.advance(t);
        }
        let now = SimTime::from_millis(50);
        // Complete pushes and pulls for layers 0 and 1 — not enough.
        for i in 0..2 {
            eng.complete_external(now, 0, ExternalRole::Push(i));
            eng.complete_external(now, 0, ExternalRole::Pull(i));
        }
        assert!(
            eng.next_event_time().is_never(),
            "barrier must hold with one pull outstanding"
        );
        eng.complete_external(now, 0, ExternalRole::Push(2));
        eng.complete_external(now, 0, ExternalRole::Pull(2));
        assert_eq!(
            eng.next_event_time(),
            now + SimTime::from_millis(1),
            "barrier released: fwd_0^1 starts"
        );
    }

    #[test]
    fn scheduled_engine_gates_fwd_on_proxy_finish() {
        let dag = IterDag::build(3, EngineConfig::mxnet_ps().scheduled());
        let model = model3();
        let mut eng = WorkerEngine::new(dag, &model, 2, None);
        let mut readies = Vec::new();
        loop {
            let t = eng.next_event_time();
            if t.is_never() {
                break;
            }
            for ev in eng.advance(t) {
                if let EngineEvent::ExternalReady {
                    role: ExternalRole::ProxyReady(i),
                    ..
                } = ev
                {
                    readies.push(i);
                }
            }
        }
        assert_eq!(readies, vec![2, 1, 0], "notify_ready follows BP order");
        // Iteration 1 needs ProxyFinish signals (iteration 0's comm).
        let now = SimTime::from_millis(30);
        eng.complete_external(now, 1, ExternalRole::ProxyFinish(0));
        assert_eq!(eng.next_event_time(), now + SimTime::from_millis(1));
        eng.advance(now + SimTime::from_millis(1));
        assert!(eng.next_event_time().is_never(), "fwd_1^1 gated");
        eng.complete_external(
            now + SimTime::from_millis(1),
            1,
            ExternalRole::ProxyFinish(1),
        );
        assert!(!eng.next_event_time().is_never());
    }

    #[test]
    fn crossed_barrier_does_not_stall_bp_to_fp_transition() {
        // TF rewritten by ByteScheduler: the vestigial barrier waits only
        // on instant async launches, so with all ProxyFinish signals in
        // place the next iteration starts immediately after BP.
        let dag = IterDag::build(2, EngineConfig::tensorflow_ps().scheduled());
        let model = {
            let gpu = GpuSpec::custom(1e12, 2.0);
            ModelBuilder::new("m2", gpu, 1, SampleUnit::Images)
                .explicit("a", 100, SimTime::from_millis(1), SimTime::from_millis(1))
                .explicit("b", 100, SimTime::from_millis(1), SimTime::from_millis(1))
                .build()
        };
        let mut eng = WorkerEngine::new(dag, &model, 2, None);
        loop {
            let t = eng.next_event_time();
            if t.is_never() {
                break;
            }
            eng.advance(t);
        }
        // BP of iter 0 retired at 4 ms; grant both finish proxies.
        let now = SimTime::from_millis(4);
        eng.complete_external(now, 1, ExternalRole::ProxyFinish(0));
        eng.complete_external(now, 1, ExternalRole::ProxyFinish(1));
        assert_eq!(eng.next_event_time(), SimTime::from_millis(5));
    }

    #[test]
    fn jitter_preserves_determinism_per_seed() {
        let model = model3();
        let run = |seed: u64| {
            let dag = IterDag::build(3, EngineConfig::mxnet_ps());
            let mut eng = WorkerEngine::new(dag, &model, 2, Some((SimRng::new(seed), 0.05)));
            let mut last = SimTime::ZERO;
            loop {
                let t = eng.next_event_time();
                if t.is_never() {
                    break;
                }
                last = t;
                for ev in eng.advance(t) {
                    if let EngineEvent::ExternalReady { iter, role, at } = ev {
                        if !matches!(
                            role,
                            ExternalRole::ProxyReady(_) | ExternalRole::ProxyFinish(_)
                        ) {
                            eng.complete_external(at, iter, role);
                        }
                    }
                }
            }
            last
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn straggler_scale_slows_only_its_iteration_range() {
        // Completion instants of iterations 0..3 under the given
        // `(from_iter, to_iter, factor)` stragglers.
        let done_at = |scales: &[(u64, u64, f64)]| -> Vec<(u64, SimTime)> {
            let dag = IterDag::build(3, EngineConfig::mxnet_ps());
            let model = model3();
            let mut eng = WorkerEngine::new(dag, &model, 3, None);
            for &(from, to, factor) in scales {
                eng.add_compute_scale(from, to, factor);
            }
            let mut done = Vec::new();
            loop {
                let t = eng.next_event_time();
                if t.is_never() {
                    break;
                }
                let mut queue = eng.advance(t);
                while let Some(ev) = queue.pop() {
                    match ev {
                        EngineEvent::ExternalReady { iter, role, at }
                            if !matches!(
                                role,
                                ExternalRole::ProxyReady(_) | ExternalRole::ProxyFinish(_)
                            ) =>
                        {
                            queue.extend(eng.complete_external(at, iter, role));
                        }
                        EngineEvent::ComputeIterDone { iter, at } => done.push((iter, at)),
                        _ => {}
                    }
                }
            }
            done
        };
        let ms = SimTime::from_millis;
        // fp+bp = 9 ms per clean iteration. Iteration 1 runs 2× slower
        // (18 ms); 0 and 2 are untouched.
        assert_eq!(
            done_at(&[(1, 2, 2.0)]),
            [(0, ms(9)), (1, ms(27)), (2, ms(36))]
        );
        // Overlapping ranges multiply: iteration 1 runs 2 × 1.5 = 3×
        // slower (27 ms) and iteration 2 only 1.5× (13.5 ms).
        assert_eq!(
            done_at(&[(1, 2, 2.0), (1, 3, 1.5)]),
            [(0, ms(9)), (1, ms(36)), (2, SimTime::from_micros(49_500))]
        );
    }

    #[test]
    fn straggler_covering_iteration_zero_rescales_the_op_in_flight() {
        let dag = IterDag::build(3, EngineConfig::mxnet_ps());
        let model = model3();
        let mut eng = WorkerEngine::new(dag, &model, 1, None);
        // fwd_0 (1 ms) is already on the GPU; a 3× straggler must stretch
        // it too.
        eng.add_compute_scale(0, 1, 3.0);
        assert_eq!(eng.next_event_time(), SimTime::from_millis(3));
    }

    /// The busy fold equals the busy series' integral to the bit: back-
    /// to-back ops merge into one run, a stall splits runs, and the op
    /// still on the GPU counts up to the query instant.
    #[test]
    fn busy_fold_matches_the_busy_series_integral() {
        let dag = IterDag::build(3, EngineConfig::mxnet_ps());
        let model = model3();
        let mut eng = WorkerEngine::new(dag, &model, 2, Some((SimRng::new(5), 0.05)));
        eng.enable_spans();
        let mut fold = BusyFold::default();
        let mut check = |eng: &WorkerEngine, until: SimTime| {
            let series = eng.busy_series(SimTime::ZERO).integral_secs(until);
            let folded = eng.busy_secs(&mut fold, until);
            assert_eq!(folded.to_bits(), series.to_bits(), "busy at {until}");
        };
        // Iteration 0's compute runs back to back, then stalls on pulls.
        loop {
            let t = eng.next_event_time();
            if t.is_never() {
                break;
            }
            eng.advance(t);
            check(&eng, t);
        }
        let now = SimTime::from_millis(20);
        eng.complete_external(now, 0, ExternalRole::Push(0));
        eng.complete_external(now, 0, ExternalRole::Pull(0));
        // fwd_0 of iteration 1 is on the GPU; then it retires.
        check(&eng, now + SimTime::from_micros(300));
        let end = eng.next_event_time();
        eng.advance(end);
        check(&eng, end + SimTime::from_millis(3));
        assert_eq!(eng.busy_series(SimTime::ZERO).len(), 4, "two busy runs");
    }

    #[test]
    fn all_done_fires_once_everything_retires() {
        let dag = IterDag::build(3, EngineConfig::mxnet_ps());
        let events = run_with_instant_comm(dag, 2);
        let all_done = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::AllDone { .. }))
            .count();
        assert_eq!(all_done, 1);
    }

    #[test]
    fn single_layer_model_runs_to_completion() {
        let gpu = GpuSpec::custom(1e12, 2.0);
        let model = ModelBuilder::new("m1", gpu, 1, SampleUnit::Images)
            .explicit("only", 64, SimTime::from_millis(1), SimTime::from_millis(1))
            .build();
        let dag = IterDag::build(1, EngineConfig::mxnet_ps());
        let mut eng = WorkerEngine::new(dag, &model, 2, None);
        let mut done = 0;
        loop {
            let t = eng.next_event_time();
            if t.is_never() {
                break;
            }
            let mut queue = eng.advance(t);
            while let Some(ev) = queue.pop() {
                match ev {
                    EngineEvent::ComputeIterDone { .. } => done += 1,
                    EngineEvent::ExternalReady { iter, role, at } => {
                        queue.extend(eng.complete_external(at, iter, role));
                    }
                    EngineEvent::AllDone { .. } => {}
                }
            }
        }
        assert_eq!(done, 2);
        assert_eq!(eng.done_iterations(), 2);
    }

    #[test]
    fn single_iteration_completes_without_cross_iteration_signals() {
        let dag = IterDag::build(3, EngineConfig::mxnet_ps().scheduled());
        let model = model3();
        let mut eng = WorkerEngine::new(dag, &model, 1, None);
        loop {
            let t = eng.next_event_time();
            if t.is_never() {
                break;
            }
            eng.advance(t);
        }
        // ProxyFinish auto-completes in iteration 0; ProxyReady
        // auto-retires after firing — the single iteration is fully done
        // without any runtime signal.
        assert_eq!(eng.done_iterations(), 1);
    }

    #[test]
    fn late_comm_for_final_iterations_is_ignored_gracefully() {
        let dag = IterDag::build(2, EngineConfig::mxnet_ps().scheduled());
        let model = {
            let gpu = GpuSpec::custom(1e12, 2.0);
            ModelBuilder::new("m2", gpu, 1, SampleUnit::Images)
                .explicit("a", 100, SimTime::from_millis(1), SimTime::from_millis(1))
                .explicit("b", 100, SimTime::from_millis(1), SimTime::from_millis(1))
                .build()
        };
        let mut eng = WorkerEngine::new(dag, &model, 1, None);
        loop {
            let t = eng.next_event_time();
            if t.is_never() {
                break;
            }
            eng.advance(t);
        }
        // The last iteration's communication finishes after training ends;
        // its finish signal targets iteration 1 == max_iters and must be a
        // no-op, not a panic.
        let evs = eng.complete_external(SimTime::from_secs(1), 1, ExternalRole::ProxyFinish(0));
        assert!(evs.is_empty());
        assert_eq!(eng.done_iterations(), 1);
    }

    #[test]
    #[should_panic(expected = "double completion")]
    fn double_external_completion_is_rejected() {
        let dag = IterDag::build(3, EngineConfig::mxnet_ps());
        let model = model3();
        let mut eng = WorkerEngine::new(dag, &model, 2, None);
        loop {
            let t = eng.next_event_time();
            if t.is_never() {
                break;
            }
            eng.advance(t);
        }
        let now = SimTime::from_millis(20);
        eng.complete_external(now, 0, ExternalRole::Push(0));
        eng.complete_external(now, 0, ExternalRole::Push(0));
    }
}
