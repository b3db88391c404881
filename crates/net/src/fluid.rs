//! An alternative fabric model: max-min fair fluid sharing.
//!
//! The default [`crate::Network`] serves each NIC direction strictly FIFO,
//! one message at a time — the paper's §2.2 abstraction of the
//! communication stack, and the right model for reasoning about
//! preemption. Real transports, however, multiplex flows: a worker
//! pushing to four shards runs four connections that share its uplink
//! fairly. This module provides that alternative: every submitted
//! transfer becomes a *flow*, flow rates are the max-min fair allocation
//! under per-port capacities (computed by progressive filling), and rates
//! are recomputed whenever a flow starts or finishes.
//!
//! Per-message costs carry over: the wire-overhead component of θ is
//! charged as extra flow volume (`θ · B` bytes), and the latency
//! component delays delivery after the flow drains, exactly as in the
//! FIFO fabric — so schedulers see the same interface and the same knob
//! semantics, only the sharing discipline differs. The fabric-sensitivity
//! ablation (`tests/fabrics.rs`) compares the two.

use std::cell::Cell;
use std::collections::VecDeque;

use bs_sim::SimTime;
use bs_telemetry::{MetricSet, TimeSeries};

use crate::contention::{ContentionLog, ContentionRecorder};
use crate::network::{
    CompletedTransfer, DroppedTransfer, NetEvent, NodeId, TransferId, WireSpan, WireXrayRecord,
};
use crate::scope::{ScopeUtil, ScopeWindow};
use crate::transport::NetConfig;

/// Fault-injection state, allocated lazily on the first fault hook call
/// so unfaulted runs take exactly the original code paths.
#[derive(Clone, Debug)]
struct FaultState {
    /// Per-port capacity scale (up ports 0..n, down ports n..2n),
    /// 1.0 = nominal. A flapped-down node has both scales forced to zero
    /// in the allocator (its flows were killed; late retransmits toward
    /// it idle at rate 0 until the revive).
    port_scale: Vec<f64>,
    /// Nodes currently flapped down.
    down: Vec<bool>,
}

#[derive(Clone, Debug)]
struct Flow {
    src: NodeId,
    dst: NodeId,
    /// Payload bytes (reported on completion).
    bytes: u64,
    tag: u64,
    /// Remaining flow volume (payload + overhead equivalent), fractional
    /// to avoid drift across many rate changes.
    remaining: f64,
    /// Current max-min fair rate, bytes/sec.
    rate: f64,
    /// Submission instant, recorded for flow-span tracing.
    started_at: SimTime,
}

/// A max-min fair fluid fabric with the same event interface as
/// [`crate::Network`].
#[derive(Clone, Debug)]
pub struct FluidNetwork {
    cfg: NetConfig,
    num_nodes: usize,
    /// Flow slot table, indexed by [`TransferId`]. Slots are recycled via
    /// `free_slots`, so the table length is bounded by the *peak* number
    /// of concurrent flows, not by the total ever submitted.
    flows: Vec<Option<Flow>>,
    /// Recycled slot indices (LIFO).
    free_slots: Vec<u64>,
    active: Vec<TransferId>,
    /// Flows per port in submission order, maintained incrementally
    /// (up ports 0..n, down ports n..2n). Mirrors what `reallocate` used
    /// to rebuild from `active` on every call.
    port_flows: Vec<Vec<TransferId>>,
    /// Deliveries pending after their flow drained: (time, completed).
    deliveries: VecDeque<(SimTime, CompletedTransfer)>,
    /// Last instant `remaining` values were integrated to.
    last_update: SimTime,
    /// Memoised earliest flow-drain instant; `None` means stale. Interior
    /// mutability so `next_event_time(&self)` can fill it lazily; cleared
    /// whenever rates, remaining volumes, or the active set change.
    next_drain: Cell<Option<SimTime>>,
    bytes_delivered: u64,
    transfers_delivered: u64,
    /// High-water mark of concurrently active flows.
    peak_in_flight: usize,
    /// When enabled, completed flow spans: `(tag, src, dst, submit,
    /// drain)`. Unlike the FIFO fabric's exclusive wire occupancies,
    /// fluid spans overlap — each covers a flow's whole lifetime.
    trace: Option<Vec<WireSpan>>,
    /// When enabled, full flow lifecycles for causal tracing. A fluid
    /// flow starts at submission, so submitted == wire-start.
    xray: Option<Vec<WireXrayRecord>>,
    /// Scratch buffers reused across `reallocate`/`advance` calls so the
    /// hot path performs no allocation.
    scratch_frozen: Vec<bool>,
    scratch_port_cap: Vec<f64>,
    scratch_port_live: Vec<u32>,
    scratch_ids: Vec<TransferId>,
    scratch_finished: Vec<TransferId>,
    /// `Some` only while metrics recording is enabled.
    telem: Option<FluidTelemetry>,
    /// `Some` only while the scope bus records NIC-utilisation windows.
    scope: Option<Box<ScopeUtil>>,
    /// `Some` only while link-contention recording is enabled.
    contention: Option<Box<ContentionRecorder>>,
    /// `Some` only once a fault hook has been exercised.
    faults: Option<Box<FaultState>>,
}

/// Metric series for the fluid fabric. Per-port utilisation is the
/// allocated-rate sum over capacity (a fraction in `[0, 1]`), resampled
/// after every reallocation — the exact step function the max-min
/// allocator produces, not a polled approximation.
#[derive(Clone, Debug)]
struct FluidTelemetry {
    /// Up ports `0..n`, down ports `n..2n`, matching `port_flows`.
    port_util: Vec<TimeSeries>,
    /// Concurrently active flows.
    active_flows: TimeSeries,
}

impl FluidNetwork {
    /// Creates a fabric of `num_nodes` duplex NICs.
    pub fn new(num_nodes: usize, cfg: NetConfig) -> Self {
        assert!(num_nodes >= 2, "a network needs at least two nodes");
        FluidNetwork {
            cfg,
            num_nodes,
            flows: Vec::new(),
            free_slots: Vec::new(),
            active: Vec::new(),
            port_flows: vec![Vec::new(); 2 * num_nodes],
            deliveries: VecDeque::new(),
            last_update: SimTime::ZERO,
            next_drain: Cell::new(None),
            bytes_delivered: 0,
            transfers_delivered: 0,
            peak_in_flight: 0,
            trace: None,
            xray: None,
            scratch_frozen: Vec::new(),
            scratch_port_cap: Vec::new(),
            scratch_port_live: Vec::new(),
            scratch_ids: Vec::new(),
            scratch_finished: Vec::new(),
            telem: None,
            scope: None,
            contention: None,
            faults: None,
        }
    }

    /// Starts recording per-port utilisation and active-flow series.
    /// Recording never changes fabric behaviour.
    pub fn enable_telemetry(&mut self, now: SimTime) {
        if self.telem.is_none() {
            let mut zero = TimeSeries::new();
            zero.record(now, 0.0);
            self.telem = Some(FluidTelemetry {
                port_util: vec![zero.clone(); 2 * self.num_nodes],
                active_flows: zero,
            });
        }
    }

    /// Starts aggregating NIC utilisation (allocated-rate fractions) into
    /// grid-aligned tumbling windows of `window` for the scope bus, fed
    /// from the same reallocation instants as the telemetry series.
    /// Recording never changes fabric behaviour.
    ///
    /// One aggregate slot, not one per direction: a window's `util_secs`
    /// sums over every port direction anyway, and each flow contributes
    /// its rate to exactly two slots (source up, destination down), so
    /// integrating `2 * total_rate / cap` directly is the same signal at
    /// a fraction of the per-reallocation cost.
    pub fn enable_scope(&mut self, now: SimTime, window: SimTime) {
        if self.scope.is_none() {
            self.scope = Some(Box::new(ScopeUtil::new(now, 1, window)));
        }
    }

    /// Integrates the scope windows up to `now` and closes the final
    /// partial window (publish by draining afterwards).
    pub fn finish_scope(&mut self, now: SimTime) {
        if let Some(sc) = self.scope.as_mut() {
            sc.finish(now);
        }
    }

    /// Moves closed scope windows into `out`, oldest first.
    pub fn drain_scope_windows(&mut self, out: &mut Vec<ScopeWindow>) {
        if let Some(sc) = self.scope.as_mut() {
            sc.drain_into(out);
        }
    }

    /// Takes the recorded metrics with summaries closed at `now`, or
    /// `None` if telemetry was never enabled.
    pub fn take_metrics(&mut self, now: SimTime) -> Option<MetricSet> {
        let t = self.telem.take()?;
        let n = self.num_nodes;
        let mut set = MetricSet::new();
        set.horizon = now;
        set.counter("transfers_delivered", self.transfers_delivered);
        set.counter("bytes_delivered", self.bytes_delivered);
        set.series("active_transfers", t.active_flows);
        // Fluid flows start transmitting on submission; nothing ever
        // queues. Kept as a constant-zero series so both fabrics export
        // the same metric names.
        let mut zero = TimeSeries::new();
        zero.record(SimTime::ZERO, 0.0);
        set.series("queued_transfers", zero);
        let mut ports = t.port_util.into_iter();
        for i in 0..n {
            set.series(
                format!("nic{i}/up_util"),
                ports.next().expect("up port series"),
            );
        }
        for i in 0..n {
            set.series(
                format!("nic{i}/down_util"),
                ports.next().expect("down port series"),
            );
        }
        Some(set)
    }

    /// Starts recording per-NIC-direction active-job sets and flow
    /// spans; `job_of` maps a transfer tag to its job index. Recording
    /// never changes fabric behaviour.
    pub fn enable_contention(&mut self, now: SimTime, job_of: fn(u64) -> usize) {
        if self.contention.is_none() {
            self.contention = Some(Box::new(ContentionRecorder::new(
                now,
                self.num_nodes,
                job_of,
            )));
        }
    }

    /// Drains the contention recording, or `None` if it was never
    /// enabled.
    pub fn take_contention(&mut self) -> Option<ContentionLog> {
        self.contention.as_mut().map(|c| c.take())
    }

    /// The network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Total payload bytes delivered so far.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Transfers delivered end-to-end so far.
    pub fn transfers_delivered(&self) -> u64 {
        self.transfers_delivered
    }

    /// Enables flow-span recording (see [`Self::take_trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Drains the recorded spans: `(tag, src, dst, submit, drain)` per
    /// completed flow, in drain order.
    pub fn take_trace(&mut self) -> Vec<WireSpan> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Enables full-lifecycle flow recording for causal tracing.
    /// Recording never changes fabric behaviour.
    pub fn enable_xray(&mut self) {
        if self.xray.is_none() {
            self.xray = Some(Vec::new());
        }
    }

    /// Drains the recorded flow lifecycles, in drain order.
    pub fn take_xray(&mut self) -> Vec<WireXrayRecord> {
        self.xray.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Number of flows currently transmitting.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Highest number of simultaneously active flows seen so far.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_in_flight
    }

    /// Length of the flow slot table. With slot recycling this is bounded
    /// by [`Self::peak_in_flight`], no matter how many transfers have ever
    /// been submitted — the long-run boundedness tests assert on it.
    pub fn flow_slots(&self) -> usize {
        self.flows.len()
    }

    /// True when no flow is active and no delivery is pending.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.deliveries.is_empty()
    }

    /// Submits a transfer; it starts transmitting immediately at its fair
    /// share.
    pub fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId {
        assert!(src.0 < self.num_nodes, "src {src:?} out of range");
        assert!(dst.0 < self.num_nodes, "dst {dst:?} out of range");
        assert_ne!(src, dst, "loopback transfers are not modelled");
        self.integrate_to(now);
        let overhead_bytes =
            self.cfg.transport.wire_overhead.as_secs_f64() * self.cfg.bytes_per_sec();
        let flow = Flow {
            src,
            dst,
            bytes,
            tag,
            remaining: bytes as f64 + overhead_bytes,
            rate: 0.0,
            started_at: now,
        };
        let id = match self.free_slots.pop() {
            Some(slot) => {
                debug_assert!(self.flows[slot as usize].is_none(), "slot in use");
                self.flows[slot as usize] = Some(flow);
                TransferId(slot)
            }
            None => {
                let id = TransferId(self.flows.len() as u64);
                self.flows.push(Some(flow));
                id
            }
        };
        self.active.push(id);
        self.port_flows[src.0].push(id);
        self.port_flows[self.num_nodes + dst.0].push(id);
        self.peak_in_flight = self.peak_in_flight.max(self.active.len());
        if let Some(c) = self.contention.as_mut() {
            c.on_submit(now, src.0, dst.0, tag);
        }
        self.reallocate();
        id
    }

    /// Earliest instant anything changes: the next flow drain or pending
    /// delivery.
    ///
    /// The drain scan is memoised: flow rates and volumes only change in
    /// `submit`/`advance`, so between state changes the event loop can
    /// poll this in O(1) instead of rescanning every active flow.
    pub fn next_event_time(&self) -> SimTime {
        let delivery = self
            .deliveries
            .front()
            .map(|(d, _)| *d)
            .unwrap_or(SimTime::MAX);
        delivery.min(self.drain_time())
    }

    /// Earliest flow-drain instant, recomputed only when stale.
    fn drain_time(&self) -> SimTime {
        if let Some(t) = self.next_drain.get() {
            return t;
        }
        let mut t = SimTime::MAX;
        for id in &self.active {
            let f = self.flows[id.0 as usize].as_ref().expect("active flow");
            if f.rate > 0.0 {
                // Round the drain ETA *up* to at least 1 ns past the last
                // integration point: a sub-nanosecond residue must not
                // produce a zero-length step (the event loop would spin
                // at the same instant forever).
                let dur = SimTime::from_secs_f64((f.remaining / f.rate).max(0.0))
                    .max(SimTime::from_nanos(1));
                t = t.min(self.last_update + dur);
            }
        }
        self.next_drain.set(Some(t));
        t
    }

    /// True when `advance(now)` could change state or emit events: the
    /// event loop skips the call otherwise. While flows are in flight the
    /// fabric must integrate every tick (the split points of the numeric
    /// integration are part of the deterministic trace), so this only
    /// reports false when nothing is transmitting.
    pub fn wants_advance(&self, now: SimTime) -> bool {
        !self.active.is_empty() || self.next_event_time() <= now
    }

    /// Advances to `now`, draining flows and reporting releases and
    /// deliveries in time order.
    pub fn advance(&mut self, now: SimTime) -> Vec<NetEvent> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Like [`Self::advance`] but appends events into a caller-provided
    /// buffer, so the event loop can reuse one allocation across ticks.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>) {
        loop {
            let next = self.next_event_time();
            if next > now || next.is_never() {
                break;
            }
            // Deliveries strictly before the next drain fire first.
            if let Some(&(dt, _)) = self.deliveries.front() {
                if dt <= next {
                    let (dt, c) = self.deliveries.pop_front().expect("front exists");
                    debug_assert_eq!(dt, c.finished_at);
                    self.bytes_delivered += c.bytes;
                    self.transfers_delivered += 1;
                    if let Some(rec) = self.contention.as_mut() {
                        rec.on_delivered(dt, c.src.0, c.dst.0, c.tag);
                    }
                    out.push(NetEvent::Delivered(c));
                    continue;
                }
            }
            // Drain flows to `next` and complete the ones that hit zero.
            self.integrate_to(next);
            let latency = self.cfg.transport.latency;
            let mut finished = std::mem::take(&mut self.scratch_finished);
            self.active.retain(|id| {
                let f = self.flows[id.0 as usize].as_ref().expect("active");
                // Sub-byte residue counts as drained (float slop from many
                // rate changes; half a byte is far below any payload).
                if f.remaining <= 0.5 {
                    finished.push(*id);
                    false
                } else {
                    true
                }
            });
            for id in finished.drain(..) {
                let f = self.flows[id.0 as usize].take().expect("finishing flow");
                // Retire the slot and drop the flow from its two port
                // lists (order-preserving, so later reallocations iterate
                // exactly as a rebuild from `active` would).
                self.free_slots.push(id.0);
                self.port_flows[f.src.0].retain(|x| *x != id);
                self.port_flows[self.num_nodes + f.dst.0].retain(|x| *x != id);
                if let Some(trace) = &mut self.trace {
                    trace.push((f.tag, f.src.0, f.dst.0, f.started_at, next));
                }
                if let Some(xray) = &mut self.xray {
                    xray.push((
                        f.tag,
                        f.src.0,
                        f.dst.0,
                        f.started_at,
                        f.started_at,
                        next,
                        next + latency,
                    ));
                }
                if let Some(rec) = self.contention.as_mut() {
                    rec.on_wire(f.src.0, f.dst.0, f.tag, f.bytes, f.started_at, next);
                }
                let done = CompletedTransfer {
                    id,
                    src: f.src,
                    dst: f.dst,
                    bytes: f.bytes,
                    tag: f.tag,
                    finished_at: next,
                };
                out.push(NetEvent::Released(done));
                let mut delivered = done;
                delivered.finished_at = next + latency;
                // Keep deliveries time-ordered (latency is constant, so
                // completion order == delivery order).
                self.deliveries.push_back((next + latency, delivered));
            }
            self.scratch_finished = finished;
            self.reallocate();
        }
        self.integrate_to(now);
    }

    /// Lazily materialises the fault state (all scales 1.0, nothing down).
    fn fault_state(&mut self) -> &mut FaultState {
        let ports = 2 * self.num_nodes;
        let n = self.num_nodes;
        self.faults.get_or_insert_with(|| {
            Box::new(FaultState {
                port_scale: vec![1.0; ports],
                down: vec![false; n],
            })
        })
    }

    /// Rescales one NIC direction's capacity to `scale` × nominal at
    /// `now`; all flow rates are refitted immediately (in-flight flows
    /// keep their accumulated progress). Use [`Self::kill_port`] for
    /// outages — a zero scale is rejected.
    pub fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be finite and > 0 (got {scale}); use kill_port for outages"
        );
        assert!(node.0 < self.num_nodes, "node {node:?} out of range");
        self.integrate_to(now);
        let n = self.num_nodes;
        let port = if up { node.0 } else { n + node.0 };
        self.fault_state().port_scale[port] = scale;
        self.reallocate();
    }

    /// Flaps `node` down at `now`: every active flow through either of
    /// its ports is killed — removed without delivering — and returned so
    /// the caller can recover them (reclaim credit, retransmit). Flows
    /// already drained but awaiting delivery still deliver. New flows
    /// submitted toward the node idle at rate 0 until [`Self::revive_port`].
    pub fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
        assert!(node.0 < self.num_nodes, "node {node:?} out of range");
        self.integrate_to(now);
        self.fault_state().down[node.0] = true;
        let mut victims = std::mem::take(&mut self.scratch_finished);
        victims.clear();
        victims.extend(self.active.iter().copied().filter(|id| {
            let f = self.flows[id.0 as usize].as_ref().expect("active flow");
            f.src == node || f.dst == node
        }));
        let mut dropped = Vec::with_capacity(victims.len());
        for id in victims.drain(..) {
            let f = self.flows[id.0 as usize].take().expect("victim flow");
            self.active.retain(|x| *x != id);
            self.free_slots.push(id.0);
            self.port_flows[f.src.0].retain(|x| *x != id);
            self.port_flows[self.num_nodes + f.dst.0].retain(|x| *x != id);
            if let Some(trace) = &mut self.trace {
                trace.push((f.tag, f.src.0, f.dst.0, f.started_at, now));
            }
            if let Some(xray) = &mut self.xray {
                // Killed at now; the retransmit shows up as a separate
                // record.
                xray.push((
                    f.tag,
                    f.src.0,
                    f.dst.0,
                    f.started_at,
                    f.started_at,
                    now,
                    now,
                ));
            }
            if let Some(rec) = self.contention.as_mut() {
                rec.on_wire(f.src.0, f.dst.0, f.tag, f.bytes, f.started_at, now);
                rec.on_dropped(now, f.src.0, f.dst.0, f.tag);
            }
            dropped.push(DroppedTransfer {
                tag: f.tag,
                src: f.src,
                dst: f.dst,
                bytes: f.bytes,
            });
        }
        self.scratch_finished = victims;
        self.reallocate();
        dropped
    }

    /// Cancels every pending transfer whose tag matches `pred` at `now`
    /// — actively draining or awaiting delivery — and returns them. No
    /// port goes down: surviving flows refit to the freed capacity. The
    /// cluster driver purges a checkpointing job's traffic this way
    /// before migrating it.
    pub fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        self.integrate_to(now);
        let mut victims = std::mem::take(&mut self.scratch_finished);
        victims.clear();
        victims.extend(
            self.active
                .iter()
                .copied()
                .filter(|id| pred(self.flows[id.0 as usize].as_ref().expect("active flow").tag)),
        );
        let mut dropped = Vec::with_capacity(victims.len());
        for id in victims.drain(..) {
            let f = self.flows[id.0 as usize].take().expect("victim flow");
            self.active.retain(|x| *x != id);
            self.free_slots.push(id.0);
            self.port_flows[f.src.0].retain(|x| *x != id);
            self.port_flows[self.num_nodes + f.dst.0].retain(|x| *x != id);
            if let Some(trace) = &mut self.trace {
                trace.push((f.tag, f.src.0, f.dst.0, f.started_at, now));
            }
            if let Some(xray) = &mut self.xray {
                xray.push((
                    f.tag,
                    f.src.0,
                    f.dst.0,
                    f.started_at,
                    f.started_at,
                    now,
                    now,
                ));
            }
            if let Some(rec) = self.contention.as_mut() {
                rec.on_wire(f.src.0, f.dst.0, f.tag, f.bytes, f.started_at, now);
                rec.on_dropped(now, f.src.0, f.dst.0, f.tag);
            }
            dropped.push(DroppedTransfer {
                tag: f.tag,
                src: f.src,
                dst: f.dst,
                bytes: f.bytes,
            });
        }
        self.scratch_finished = victims;
        // Drained flows awaiting delivery: their deliveries never fire.
        let mut purged = Vec::new();
        self.deliveries.retain(|(_, c)| {
            if pred(c.tag) {
                purged.push(*c);
                false
            } else {
                true
            }
        });
        for c in purged {
            if let Some(rec) = self.contention.as_mut() {
                rec.on_dropped(now, c.src.0, c.dst.0, c.tag);
            }
            dropped.push(DroppedTransfer {
                tag: c.tag,
                src: c.src,
                dst: c.dst,
                bytes: c.bytes,
            });
        }
        self.reallocate();
        dropped
    }

    /// Brings `node` back up at `now`; stalled flows pick their fair
    /// rates back up. Capacity scales set before or during the outage
    /// persist.
    pub fn revive_port(&mut self, now: SimTime, node: NodeId) {
        assert!(node.0 < self.num_nodes, "node {node:?} out of range");
        self.integrate_to(now);
        self.fault_state().down[node.0] = false;
        self.reallocate();
    }

    /// Integrates `remaining -= rate · dt` for all active flows.
    fn integrate_to(&mut self, now: SimTime) {
        if now <= self.last_update {
            return;
        }
        self.next_drain.set(None);
        let dt = (now - self.last_update).as_secs_f64();
        for id in &self.active {
            let f = self.flows[id.0 as usize].as_mut().expect("active");
            f.remaining = (f.remaining - f.rate * dt).max(0.0);
        }
        self.last_update = now;
    }

    /// Progressive filling: repeatedly find the most-contended port,
    /// freeze its flows at the equal share, remove the port, repeat.
    ///
    /// Runs entirely on persistent state (`port_flows`) and reusable
    /// scratch buffers: cost scales with the *current* number of active
    /// flows and ports, never with the total number of transfers the
    /// fabric has ever carried.
    fn reallocate(&mut self) {
        self.next_drain.set(None);
        let cap = self.cfg.bytes_per_sec();
        // Port index: up ports are 0..n, down ports n..2n.
        let ports = 2 * self.num_nodes;
        self.scratch_port_cap.clear();
        self.scratch_port_cap.resize(ports, cap);
        if let Some(fs) = &self.faults {
            for (p, c) in self.scratch_port_cap.iter_mut().enumerate() {
                let node = p % self.num_nodes;
                *c = if fs.down[node] {
                    0.0
                } else {
                    cap * fs.port_scale[p]
                };
            }
        }
        self.scratch_port_live.clear();
        self.scratch_port_live.resize(ports, 0);
        if self.scratch_frozen.len() < self.flows.len() {
            self.scratch_frozen.resize(self.flows.len(), false);
        }
        // Only active slots are ever read below, so only they need
        // clearing — this keeps the reset O(active), not O(slots).
        for id in &self.active {
            self.scratch_frozen[id.0 as usize] = false;
        }
        // Unfrozen-flow count per port; freezing a flow decrements both
        // ports it traverses, so each round sees the live count without
        // rescanning the port's flow list.
        for (p, flows) in self.port_flows.iter().enumerate() {
            self.scratch_port_live[p] = flows.len() as u32;
        }
        let mut remaining_unfrozen = self.active.len();
        // Total allocated rate, accumulated as flows freeze so the scope
        // hook below never has to rescan the active set.
        let mut total_rate = 0.0;
        let mut assigned = 0usize;
        while remaining_unfrozen > 0 {
            // Bottleneck port: smallest fair share among ports that still
            // carry unfrozen flows.
            let mut best: Option<(f64, usize)> = None;
            for p in 0..ports {
                let live = self.scratch_port_live[p];
                if live == 0 {
                    continue;
                }
                let share = self.scratch_port_cap[p] / live as f64;
                if best.map(|(s, _)| share < s).unwrap_or(true) {
                    best = Some((share, p));
                }
            }
            let Some((share, port)) = best else { break };
            // Freeze that port's unfrozen flows at the share, charging
            // the other port they traverse.
            let mut ids = std::mem::take(&mut self.scratch_ids);
            ids.clear();
            let frozen = &self.scratch_frozen;
            ids.extend(
                self.port_flows[port]
                    .iter()
                    .filter(|id| !frozen[id.0 as usize])
                    .copied(),
            );
            remaining_unfrozen -= ids.len();
            total_rate += share * ids.len() as f64;
            assigned += ids.len();
            for id in ids.drain(..) {
                self.scratch_frozen[id.0 as usize] = true;
                let f = self.flows[id.0 as usize].as_mut().expect("active");
                f.rate = share;
                let (a, b) = (f.src.0, self.num_nodes + f.dst.0);
                let other = if a == port { b } else { a };
                self.scratch_port_cap[other] = (self.scratch_port_cap[other] - share).max(0.0);
                self.scratch_port_live[a] -= 1;
                self.scratch_port_live[b] -= 1;
            }
            self.scratch_port_cap[port] = 0.0;
            self.scratch_ids = ids;
        }
        if let Some(te) = self.telem.as_mut() {
            // `last_update` is the allocation instant: every caller
            // integrates to "now" before reallocating.
            let at = self.last_update;
            for (p, flows) in self.port_flows.iter().enumerate() {
                let rate: f64 = flows
                    .iter()
                    .map(|id| self.flows[id.0 as usize].as_ref().expect("active").rate)
                    .sum();
                te.port_util[p].record(at, rate / cap);
            }
            te.active_flows.record(at, self.active.len() as f64);
        }
        if let Some(sc) = self.scope.as_mut() {
            // Every flow's rate lands on exactly two port directions (see
            // `enable_scope`), so the waterfill's running total is the
            // whole signal. The rescan fallback only covers the defensive
            // break above, where flows may keep an older rate.
            let total = if assigned == self.active.len() {
                total_rate
            } else {
                self.active
                    .iter()
                    .map(|id| self.flows[id.0 as usize].as_ref().expect("active").rate)
                    .sum()
            };
            sc.record(self.last_update, 0, 2.0 * total / cap);
        }
    }
}

impl crate::port::NetPort for FluidNetwork {
    #[inline]
    fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId {
        FluidNetwork::submit(self, now, src, dst, bytes, tag)
    }

    #[inline]
    fn next_event_time(&self) -> SimTime {
        FluidNetwork::next_event_time(self)
    }

    #[inline]
    fn wants_advance(&self, now: SimTime) -> bool {
        FluidNetwork::wants_advance(self, now)
    }

    #[inline]
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>) {
        FluidNetwork::advance_into(self, now, out)
    }

    fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
        FluidNetwork::set_port_scale(self, now, node, up, scale)
    }

    fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
        FluidNetwork::kill_port(self, now, node)
    }

    fn revive_port(&mut self, now: SimTime, node: NodeId) {
        FluidNetwork::revive_port(self, now, node)
    }

    fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        FluidNetwork::cancel_where(self, now, pred)
    }

    fn in_flight(&self) -> usize {
        FluidNetwork::in_flight(self)
    }

    fn drain_scope_windows(&mut self, out: &mut Vec<ScopeWindow>) {
        FluidNetwork::drain_scope_windows(self, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    /// 8 Gbps ideal transport: 1e9 B/s, zero overheads.
    fn net(n: usize) -> FluidNetwork {
        FluidNetwork::new(n, NetConfig::gbps(8.0, Transport::ideal()))
    }

    fn mb(x: u64) -> u64 {
        x * 1_000_000
    }

    fn drain(n: &mut FluidNetwork) -> Vec<(u64, SimTime)> {
        let mut out = Vec::new();
        loop {
            let t = n.next_event_time();
            if t.is_never() {
                break;
            }
            out.extend(n.advance(t).into_iter().filter_map(|e| match e {
                NetEvent::Delivered(c) => Some((c.tag, c.finished_at)),
                NetEvent::Released(_) => None,
            }));
        }
        out
    }

    #[test]
    fn single_flow_gets_the_full_rate() {
        let mut n = net(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        let done = drain(&mut n);
        assert_eq!(done, vec![(1, SimTime::from_millis(1))]);
        assert!(n.is_idle());
    }

    #[test]
    fn two_flows_share_a_common_uplink_fairly() {
        let mut n = net(3);
        // Same source, different destinations: uplink is the bottleneck.
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(1), 2);
        let done = drain(&mut n);
        // Each at 0.5e9 B/s: both finish at 2 ms (no FIFO serialisation).
        assert_eq!(done.len(), 2);
        for (_, t) in done {
            assert_eq!(t, SimTime::from_millis(2));
        }
    }

    #[test]
    fn departures_speed_up_survivors() {
        let mut n = net(3);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(3), 2);
        let done = drain(&mut n);
        // Both run at 0.5 GB/s; flow 1 drains at 2 ms; flow 2 then gets
        // the full rate for its remaining 2 MB: 2 + 2 = 4 ms.
        assert_eq!(done[0], (1, SimTime::from_millis(2)));
        assert_eq!(done[1], (2, SimTime::from_millis(4)));
    }

    #[test]
    fn incast_shares_the_downlink() {
        let mut n = net(5);
        for w in 0..4usize {
            n.submit(SimTime::ZERO, NodeId(w), NodeId(4), mb(1), w as u64);
        }
        let done = drain(&mut n);
        // Four flows at 0.25 GB/s each: all finish at 4 ms — same
        // aggregate as FIFO, but simultaneous.
        assert_eq!(done.len(), 4);
        for (_, t) in &done {
            assert_eq!(*t, SimTime::from_millis(4));
        }
    }

    #[test]
    fn max_min_gives_unbottlenecked_flows_the_leftovers() {
        let mut n = net(4);
        // Flows A (0→2) and B (1→2) share node 2's downlink; flow C (1→3)
        // shares node 1's uplink with B. Max-min: A = B = 0.5 at the
        // downlink; C gets node 1's remaining 0.5.
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(2), 10);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(2), mb(2), 11);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(3), mb(2), 12);
        // All three at 0.5 GB/s -> all complete at 4 ms.
        let done = drain(&mut n);
        assert_eq!(done.len(), 3);
        for (_, t) in &done {
            assert_eq!(*t, SimTime::from_millis(4));
        }
    }

    #[test]
    fn wire_overhead_charges_extra_volume_and_latency_delays_delivery() {
        let cfg = NetConfig::gbps(
            8.0,
            Transport::custom(
                "t",
                SimTime::from_micros(100),
                SimTime::from_micros(400),
                1.0,
            ),
        );
        let mut n = FluidNetwork::new(2, cfg);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        // Volume = 1 MB + 100 µs · 1e9 B/s = 1.1 MB -> drains at 1.1 ms;
        // delivery 400 µs later.
        let done = drain(&mut n);
        assert_eq!(done, vec![(1, SimTime::from_micros(1_500))]);
    }

    #[test]
    fn staggered_arrival_reallocates_mid_flight() {
        let mut n = net(3);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(2), 1);
        // After 1 ms (1 MB sent), a competitor arrives on the uplink.
        n.advance(SimTime::from_millis(1));
        n.submit(SimTime::from_millis(1), NodeId(0), NodeId(2), mb(1), 2);
        let done = drain(&mut n);
        // Both now at 0.5 GB/s with 1 MB remaining each: finish at 3 ms.
        assert_eq!(done[0].1, SimTime::from_millis(3));
        assert_eq!(done[1].1, SimTime::from_millis(3));
    }

    #[test]
    fn degraded_port_slows_flows_mid_flight() {
        let mut n = net(2);
        // 2 MB at 1 GB/s: would drain at 2 ms.
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(2), 1);
        // At 1 ms (1 MB left) the downlink degrades 4×: the remaining
        // 1 MB trickles at 0.25 GB/s → 4 more ms, drain at 5 ms.
        n.advance(SimTime::from_millis(1));
        n.set_port_scale(SimTime::from_millis(1), NodeId(1), false, 0.25);
        let done = drain(&mut n);
        assert_eq!(done, vec![(1, SimTime::from_millis(5))]);
    }

    #[test]
    fn kill_port_drops_flows_and_revive_resumes_stalled_ones() {
        let mut n = net(3);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(2), 1);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(2), mb(2), 2);
        // Incast at 0.5 GB/s each; node 2 flaps at 1 ms with 1.5 MB left
        // in each flow.
        n.advance(SimTime::from_millis(1));
        let dropped = n.kill_port(SimTime::from_millis(1), NodeId(2));
        assert_eq!(dropped.len(), 2);
        assert_eq!(dropped[0].tag, 1);
        assert_eq!(dropped[1].tag, 2);
        assert!(n.is_idle(), "killed flows vacate the fabric");
        // A retransmit submitted during the outage idles at rate 0...
        n.submit(SimTime::from_millis(2), NodeId(0), NodeId(2), mb(1), 3);
        assert!(n.next_event_time().is_never());
        // ...and picks up the full rate on revive at 10 ms.
        n.revive_port(SimTime::from_millis(10), NodeId(2));
        let done = drain(&mut n);
        assert_eq!(done, vec![(3, SimTime::from_millis(11))]);
    }

    #[test]
    fn kill_port_spares_flows_not_touching_the_node() {
        let mut n = net(4);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(2), NodeId(3), mb(1), 2);
        let dropped = n.kill_port(SimTime::ZERO, NodeId(1));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].tag, 1);
        let done = drain(&mut n);
        assert_eq!(done, vec![(2, SimTime::from_millis(1))]);
    }

    #[test]
    fn cancel_where_drops_matching_flows_and_refits_survivors() {
        let mut n = net(3);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(2), 1);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(2), mb(2), 2);
        // Incast at 0.5 GB/s each; at 1 ms each flow has 1.5 MB left.
        n.advance(SimTime::from_millis(1));
        let dropped = n.cancel_where(SimTime::from_millis(1), &mut |tag| tag == 1);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].tag, 1);
        // The survivor refits to the full rate: 1.5 ms more.
        let done = drain(&mut n);
        assert_eq!(done, vec![(2, SimTime::from_micros(2_500))]);
        assert!(n.is_idle());
    }

    #[test]
    fn conserves_bytes() {
        let mut n = net(4);
        for s in 0..3usize {
            for d in 0..4usize {
                if s != d {
                    n.submit(SimTime::ZERO, NodeId(s), NodeId(d), mb(1), 0);
                }
            }
        }
        drain(&mut n);
        assert_eq!(n.bytes_delivered(), mb(9));
        assert!(n.is_idle());
    }
}
