//! An alternative fabric model: max-min fair fluid sharing.
//!
//! The default [`crate::Network`] serves each NIC direction strictly FIFO,
//! one message at a time — the paper's §2.2 abstraction of the
//! communication stack, and the right model for reasoning about
//! preemption. Real transports, however, multiplex flows: a worker
//! pushing to four shards runs four connections that share its uplink
//! fairly. This module provides that alternative: every submitted
//! transfer becomes a *flow*, and flow rates are the max-min fair
//! allocation under per-port capacities (computed by progressive
//! filling). Rates are recomputed once per simulated instant at which
//! the flow set or a port capacity changed: changes only mark the
//! allocation dirty, and the first reader after them (an integration to
//! a later instant, a clock query, a recorder) runs one waterfill over
//! the final flow set of that instant.
//!
//! Per-message costs carry over: the wire-overhead component of θ is
//! charged as extra flow volume (`θ · B` bytes), and the latency
//! component delays delivery after the flow drains, exactly as in the
//! FIFO fabric — so schedulers see the same interface and the same knob
//! semantics, only the sharing discipline differs. The fabric-sensitivity
//! ablation (`tests/fabrics.rs`) compares the two.
//!
//! Its operations are its [`NetPort`] impl. Recording and counting go
//! through the fabric's one [`Tap`], reached through
//! [`FluidNetwork::tap`]: submit, flow drain (wire end), delivered and
//! dropped are lifecycle calls, and each waterfill samples its new rates
//! into the tap. The tap lives in the allocation cell next to the rates,
//! because a waterfill may run from `&self`; the accessor flushes a
//! pending waterfill first.

use std::cell::{Ref, RefCell};
use std::collections::VecDeque;

use bs_sim::SimTime;

use crate::network::{CompletedTransfer, DroppedTransfer, NetEvent, NodeId, TransferId};
use crate::port::NetPort;
use crate::scope::ScopeWindow;
use crate::tap::Tap;
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

/// A flow's cold fields. Its hot ones — remaining volume and rate — live
/// in dense per-slot vectors (`FluidNetwork::remaining`, `Alloc::rate`).
#[derive(Clone, Debug)]
struct Flow {
    src: NodeId,
    dst: NodeId,
    /// Payload bytes (reported on completion).
    bytes: u64,
    tag: u64,
    /// Submission instant, which is also the flow's wire start.
    started_at: SimTime,
}

/// The flows between one (src, dst) pair. They cross the same two ports,
/// so the waterfill always freezes them together at one rate: it works
/// on pairs with a multiplicity instead of on single flows.
#[derive(Clone, Debug)]
struct Pair {
    /// Up port (the source node).
    up: usize,
    /// Down port (`n` + the destination node).
    down: usize,
    /// Active flows on the pair; a pair with none is freed.
    flows: u32,
}

/// The max-min allocation and everything the waterfill writes, behind
/// one `RefCell` so that `next_event_time(&self)` can flush a pending
/// waterfill. The `&mut self` paths reach it through `get_mut()`. The
/// fabric's recorder tap lives here too, because the waterfill samples
/// its rates into it.
#[derive(Clone, Debug)]
struct Alloc {
    /// Set by every change to the flow set or to a port capacity; the
    /// next flush runs the waterfill and clears it.
    dirty: bool,
    /// Current max-min fair rate per flow slot, bytes/sec.
    rate: Vec<f64>,
    /// Earliest flow-drain instant under `rate`, from `last_update`.
    drain: SimTime,
    scratch: Box<Scratch>,
    /// Every recorder and every counter; boxed so that `Fabric`'s two
    /// variants stay close in size.
    tap: Box<Tap>,
}

/// Waterfill scratch, reused so the hot path performs no allocation.
#[derive(Clone, Debug, Default)]
struct Scratch {
    port_cap: Vec<f64>,
    port_live: Vec<u32>,
    port_share: Vec<f64>,
    /// Rate per pair slot, `None` until the pair freezes.
    pair_rate: Vec<Option<f64>>,
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
    /// Remaining flow volume per slot (payload + overhead equivalent),
    /// fractional to avoid drift across many rate changes.
    remaining: Vec<f64>,
    /// Recycled slot indices (LIFO).
    free_slots: Vec<u64>,
    active: Vec<TransferId>,
    /// Flows per port in submission order, maintained incrementally
    /// (up ports 0..n, down ports n..2n): the waterfill's live counts and
    /// the telemetry's per-port rate sums.
    port_flows: Vec<Vec<TransferId>>,
    /// Pair slot table, recycled through `free_pairs` like flow slots.
    pairs: Vec<Pair>,
    free_pairs: Vec<usize>,
    /// Pair of each flow slot.
    pair_of: Vec<usize>,
    /// Pairs per port.
    port_pairs: Vec<Vec<usize>>,
    /// Deliveries pending after their flow drained: (time, completed).
    deliveries: VecDeque<(SimTime, CompletedTransfer)>,
    /// Last instant `remaining` values were integrated to.
    last_update: SimTime,
    alloc: RefCell<Alloc>,
    /// Flows removed by the last `remove_flows`, reused across calls.
    scratch_removed: Vec<(TransferId, Flow)>,
    /// `Some` only once a fault hook has been exercised.
    faults: Option<Box<FaultState>>,
}

/// The earliest drain instant from `from`, given the smallest
/// `remaining / rate` over the flows with a positive rate (`INFINITY`
/// when there is none).
///
/// Per flow, the drain ETA is `from + max(from_secs_f64(q), 1 ns)`:
/// `from_secs_f64` rounds to the nearest nanosecond, and the 1 ns floor
/// keeps a sub-nanosecond residue from producing a zero-length step (the
/// event loop would spin at the same instant forever). That map is
/// monotone non-decreasing in `q` (`from_secs_f64` is, and so are `max`
/// and the saturating add), so the minimum of the per-flow ETAs is the
/// ETA of the minimum `q`: one conversion instead of one per flow.
fn drain_at(from: SimTime, q_min: f64) -> SimTime {
    from + SimTime::from_secs_f64(q_min).max(SimTime::from_nanos(1))
}

/// `cap` split equally over `live` unfrozen flows; `INFINITY` (never the
/// bottleneck) when none is left.
fn fair_share(cap: f64, live: u32) -> f64 {
    if live == 0 {
        f64::INFINITY
    } else {
        cap / live as f64
    }
}

impl FluidNetwork {
    /// Creates a fabric of `num_nodes` duplex NICs.
    pub fn new(num_nodes: usize, cfg: NetConfig) -> Self {
        assert!(num_nodes >= 2, "a network needs at least two nodes");
        FluidNetwork {
            cfg,
            num_nodes,
            flows: Vec::new(),
            remaining: Vec::new(),
            free_slots: Vec::new(),
            active: Vec::new(),
            port_flows: vec![Vec::new(); 2 * num_nodes],
            pairs: Vec::new(),
            free_pairs: Vec::new(),
            pair_of: Vec::new(),
            port_pairs: vec![Vec::new(); 2 * num_nodes],
            deliveries: VecDeque::new(),
            last_update: SimTime::ZERO,
            alloc: RefCell::new(Alloc {
                dirty: false,
                rate: Vec::new(),
                drain: SimTime::MAX,
                scratch: Box::default(),
                tap: Box::new(Tap::fluid(num_nodes)),
            }),
            scratch_removed: Vec::new(),
            faults: None,
        }
    }

    /// The fabric's recorders (see [`Tap`]), after flushing a pending
    /// waterfill so its rate sample is in. Per-port utilisation is the
    /// allocated-rate sum over capacity (a fraction in `[0, 1]`),
    /// resampled after every waterfill — the exact step function the
    /// max-min allocator produces, not a polled approximation. Flow
    /// spans overlap: each covers a flow's whole lifetime.
    pub fn tap(&mut self) -> &mut Tap {
        self.flush();
        &mut self.alloc.get_mut().tap
    }

    /// Read access to the tap, for the counters, without flushing a
    /// pending waterfill (no counter depends on it).
    pub(crate) fn ledger(&self) -> Ref<'_, Tap> {
        Ref::map(self.alloc.borrow(), |a| &*a.tap)
    }

    /// Length of the flow slot table. With slot recycling this is bounded
    /// by the tap's peak in-flight count, no matter how many transfers have ever
    /// been submitted — the long-run boundedness tests assert on it.
    pub fn flow_slots(&self) -> usize {
        self.flows.len()
    }

    /// True when no flow is active and no delivery is pending.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.deliveries.is_empty()
    }

    /// Earliest pending delivery instant.
    fn next_delivery(&self) -> SimTime {
        self.deliveries.front().map_or(SimTime::MAX, |(d, _)| *d)
    }

    /// Earliest flow-drain instant, flushing a pending waterfill first.
    fn drain_time(&self) -> SimTime {
        self.flush();
        self.alloc.borrow().drain
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

    /// Kills every active flow `victim` selects at `now`, in `active`
    /// order, and reports them as dropped.
    fn drop_flows(
        &mut self,
        now: SimTime,
        mut victim: impl FnMut(&Flow) -> bool,
    ) -> Vec<DroppedTransfer> {
        let mut removed = self.remove_flows(|f, _| victim(f));
        let mut dropped = Vec::with_capacity(removed.len());
        for (_, f) in removed.drain(..) {
            // Killed at now; a retransmit shows up as a separate record.
            self.record_flow_end(&f, now, now);
            let tap = &mut self.alloc.get_mut().tap;
            tap.dropped(now, f.src.0, f.dst.0, f.tag, false);
            dropped.push(DroppedTransfer {
                tag: f.tag,
                src: f.src,
                dst: f.dst,
                bytes: f.bytes,
            });
        }
        self.scratch_removed = removed;
        dropped
    }

    /// Removes every active flow that `pick(flow, remaining)` selects, in
    /// one pass over `active`: frees its slot, unlinks it from its two
    /// port lists (order-preserving, so later waterfills and telemetry
    /// sums iterate in submission order) and marks the allocation dirty.
    /// Returns the removed flows in `active` order, in the reusable
    /// scratch buffer the caller hands back to `scratch_removed`.
    fn remove_flows(
        &mut self,
        mut pick: impl FnMut(&Flow, f64) -> bool,
    ) -> Vec<(TransferId, Flow)> {
        let mut removed = std::mem::take(&mut self.scratch_removed);
        let mut active = std::mem::take(&mut self.active);
        active.retain(|&id| {
            let slot = id.0 as usize;
            let f = self.flows[slot].as_ref().expect("active flow");
            if !pick(f, self.remaining[slot]) {
                return true;
            }
            let f = self.flows[slot].take().expect("active flow");
            let (up, down) = (f.src.0, self.num_nodes + f.dst.0);
            self.free_slots.push(id.0);
            self.port_flows[up].retain(|x| *x != id);
            self.port_flows[down].retain(|x| *x != id);
            let g = self.pair_of[slot];
            self.pairs[g].flows -= 1;
            if self.pairs[g].flows == 0 {
                self.port_pairs[up].retain(|x| *x != g);
                self.port_pairs[down].retain(|x| *x != g);
                self.free_pairs.push(g);
            }
            removed.push((id, f));
            false
        });
        self.active = active;
        self.alloc.get_mut().dirty = true;
        removed
    }

    /// Adds a flow to the (`up`, `down`) port pair, creating the pair if
    /// it has no flow yet, and returns its index.
    fn join_pair(&mut self, up: usize, down: usize) -> usize {
        let pairs = &mut self.pairs;
        if let Some(&g) = self.port_pairs[up].iter().find(|&&g| pairs[g].down == down) {
            pairs[g].flows += 1;
            return g;
        }
        let pair = Pair { up, down, flows: 1 };
        let g = match self.free_pairs.pop() {
            Some(g) => {
                pairs[g] = pair;
                g
            }
            None => {
                pairs.push(pair);
                pairs.len() - 1
            }
        };
        self.port_pairs[up].push(g);
        self.port_pairs[down].push(g);
        g
    }

    /// Reports a flow that left the wire at `drained` (delivering at
    /// `delivered`) to the tap.
    fn record_flow_end(&mut self, f: &Flow, drained: SimTime, delivered: SimTime) {
        let (src, dst, start) = (f.src.0, f.dst.0, f.started_at);
        let rec = (f.tag, src, dst, start, start, drained, delivered);
        self.alloc.get_mut().tap.wire_end(rec, f.bytes);
    }

    /// Runs a pending waterfill.
    fn flush(&self) {
        let mut a = self.alloc.borrow_mut();
        if a.dirty {
            self.waterfill(&mut a);
        }
    }

    /// Integrates `remaining -= rate · dt` for all active flows under the
    /// allocation in force since `last_update`, and in the same pass
    /// finds the next drain instant under those rates.
    fn integrate_to(&mut self, now: SimTime) {
        if now <= self.last_update {
            return;
        }
        self.flush();
        let a = self.alloc.get_mut();
        let dt = (now - self.last_update).as_secs_f64();
        let mut q_min = f64::INFINITY;
        for id in &self.active {
            let slot = id.0 as usize;
            let rate = a.rate[slot];
            let r = (self.remaining[slot] - rate * dt).max(0.0);
            self.remaining[slot] = r;
            if rate > 0.0 {
                q_min = q_min.min(r / rate);
            }
        }
        self.last_update = now;
        a.drain = drain_at(now, q_min);
    }

    /// Progressive filling: repeatedly find the most-contended port,
    /// freeze its flows at the equal share, remove the port, repeat.
    /// Also refreshes the drain instant and samples the rates into the
    /// tap at `last_update`, the instant the allocation takes effect
    /// (nothing integrates while it is pending).
    ///
    /// Runs entirely on persistent state (`port_pairs`, `port_flows`)
    /// and reusable scratch buffers: cost scales with the *current*
    /// number of active flows and ports, never with the total number of
    /// transfers the fabric has ever carried. It reads no `remaining` except for the
    /// drain instant and overwrites every active flow's rate, so one
    /// waterfill over an instant's final flow set gives the same rates
    /// as one after each change at that instant.
    fn waterfill(&self, a: &mut Alloc) {
        a.dirty = false;
        let cap = self.cfg.bytes_per_sec();
        // Port index: up ports are 0..n, down ports n..2n.
        let ports = 2 * self.num_nodes;
        let Scratch {
            port_cap,
            port_live,
            port_share,
            pair_rate,
        } = &mut *a.scratch;
        port_cap.clear();
        port_cap.resize(ports, cap);
        if let Some(fs) = &self.faults {
            for (p, c) in port_cap.iter_mut().enumerate() {
                let node = p % self.num_nodes;
                *c = if fs.down[node] {
                    0.0
                } else {
                    cap * fs.port_scale[p]
                };
            }
        }
        pair_rate.clear();
        pair_rate.resize(self.pairs.len(), None);
        // Unfrozen-flow count per port; freezing a pair decrements both
        // ports it traverses, so each round sees the live count without
        // rescanning the port's pair list.
        port_live.clear();
        port_live.extend(self.port_flows.iter().map(|flows| flows.len() as u32));
        // Fair share per port, `INFINITY` once no unfrozen flow crosses
        // it. A round only changes the shares of the ports it charges, so
        // only those are recomputed.
        port_share.clear();
        port_share.extend(
            port_cap
                .iter()
                .zip(port_live.iter())
                .map(|(&cap, &live)| fair_share(cap, live)),
        );
        // The rounds below index the buffers only: slices keep their
        // bounds in registers.
        let (port_cap, port_live) = (&mut port_cap[..], &mut port_live[..]);
        let (port_share, pair_rate) = (&mut port_share[..], &mut pair_rate[..]);
        let mut remaining_unfrozen = self.active.len();
        // Total allocated rate, accumulated as flows freeze so the rate
        // sample below never has to rescan the active set.
        let mut total_rate = 0.0;
        while remaining_unfrozen > 0 {
            // Bottleneck port: smallest fair share, first port on ties.
            // Every unfrozen flow keeps its two ports live (and their
            // shares finite), so there always is one.
            let mut share = f64::INFINITY;
            let mut port = usize::MAX;
            for (p, &s) in port_share.iter().enumerate() {
                if s < share {
                    (share, port) = (s, p);
                }
            }
            // Freeze that port's unfrozen pairs at the share, charging
            // the other port they traverse once per flow: `m` subtractions
            // of `share`, not one of `m · share`, give the same float
            // result as freezing the flows one by one.
            let mut frozen_now = 0u32;
            for &g in &self.port_pairs[port] {
                if pair_rate[g].is_some() {
                    continue;
                }
                pair_rate[g] = Some(share);
                let Pair { up, down, flows } = self.pairs[g];
                let other = if up == port { down } else { up };
                for _ in 0..flows {
                    port_cap[other] = (port_cap[other] - share).max(0.0);
                }
                port_live[up] -= flows;
                port_live[down] -= flows;
                port_share[other] = fair_share(port_cap[other], port_live[other]);
                frozen_now += flows;
            }
            remaining_unfrozen -= frozen_now as usize;
            total_rate += share * frozen_now as f64;
            port_share[port] = f64::INFINITY;
        }
        let mut q_min = f64::INFINITY;
        for id in &self.active {
            let slot = id.0 as usize;
            let rate = pair_rate[self.pair_of[slot]].expect("every pair froze");
            a.rate[slot] = rate;
            if rate > 0.0 {
                q_min = q_min.min(self.remaining[slot] / rate);
            }
        }
        a.drain = drain_at(self.last_update, q_min);
        let rate = &a.rate;
        let port_rate = |p: usize| -> f64 {
            self.port_flows[p]
                .iter()
                .map(|id| rate[id.0 as usize])
                .sum()
        };
        let active = self.active.len();
        a.tap
            .rate_sample(self.last_update, cap, active, total_rate, port_rate);
    }
}

impl NetPort for FluidNetwork {
    /// The flow starts transmitting immediately at its fair share.
    fn submit(
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
            started_at: now,
        };
        let volume = bytes as f64 + overhead_bytes;
        let pair = self.join_pair(src.0, self.num_nodes + dst.0);
        let a = self.alloc.get_mut();
        let id = match self.free_slots.pop() {
            Some(slot) => {
                debug_assert!(self.flows[slot as usize].is_none(), "slot in use");
                self.flows[slot as usize] = Some(flow);
                self.remaining[slot as usize] = volume;
                self.pair_of[slot as usize] = pair;
                TransferId(slot)
            }
            None => {
                let id = TransferId(self.flows.len() as u64);
                self.flows.push(Some(flow));
                self.remaining.push(volume);
                self.pair_of.push(pair);
                a.rate.push(0.0);
                id
            }
        };
        a.dirty = true;
        self.active.push(id);
        self.port_flows[src.0].push(id);
        self.port_flows[self.num_nodes + dst.0].push(id);
        a.tap.submit(now, src.0, dst.0, tag);
        id
    }

    /// The next flow drain or pending delivery. The drain instant is kept
    /// up to date by the integration and the waterfill, so between state
    /// changes the event loop polls this in O(1); only the first poll
    /// after a change flushes the waterfill.
    fn next_event_time(&self) -> SimTime {
        self.next_delivery().min(self.drain_time())
    }

    /// While flows are in flight the fabric must integrate every tick (the
    /// split points of the numeric integration are part of the
    /// deterministic trace), so this only reports false when nothing is
    /// transmitting.
    fn wants_advance(&self, now: SimTime) -> bool {
        !self.active.is_empty() || self.next_event_time() <= now
    }

    /// Drains flows and reports releases and deliveries in time order.
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>) {
        let latency = self.cfg.transport.latency;
        // Once flows drained at `now`, every later drain ETA is at least
        // 1 ns past it (see `drain_at`): only deliveries can still be
        // due, so the waterfill stays pending for the next reader.
        let mut drained_at_now = false;
        loop {
            let delivery = self.next_delivery();
            let drain = if drained_at_now {
                SimTime::MAX
            } else {
                self.drain_time()
            };
            let next = delivery.min(drain);
            if next > now || next.is_never() {
                break;
            }
            // Deliveries at or before the next drain fire first.
            if delivery <= next {
                let (dt, c) = self.deliveries.pop_front().expect("front exists");
                debug_assert_eq!(dt, c.finished_at);
                let tap = &mut self.alloc.get_mut().tap;
                tap.delivered(dt, c.src.0, c.dst.0, c.tag, c.bytes);
                out.push(NetEvent::Delivered(c));
                continue;
            }
            // Drain flows to `next` and complete the ones that hit zero.
            // Sub-byte residue counts as drained (float slop from many
            // rate changes; half a byte is far below any payload).
            self.integrate_to(next);
            let mut finished = self.remove_flows(|_, remaining| remaining <= 0.5);
            for (id, f) in finished.drain(..) {
                self.record_flow_end(&f, next, next + latency);
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
            self.scratch_removed = finished;
            drained_at_now = next == now;
        }
        self.integrate_to(now);
    }

    /// All flow rates are refitted; in-flight flows keep their
    /// accumulated progress.
    fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be finite and > 0 (got {scale}); use kill_port for outages"
        );
        assert!(node.0 < self.num_nodes, "node {node:?} out of range");
        self.integrate_to(now);
        let n = self.num_nodes;
        let port = if up { node.0 } else { n + node.0 };
        self.fault_state().port_scale[port] = scale;
        self.alloc.get_mut().dirty = true;
    }

    /// Every active flow through either of its ports is removed without
    /// delivering; flows already drained still deliver. New flows
    /// submitted toward the node idle at rate 0 until the revive.
    fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
        assert!(node.0 < self.num_nodes, "node {node:?} out of range");
        self.integrate_to(now);
        self.fault_state().down[node.0] = true;
        self.drop_flows(now, |f| f.src == node || f.dst == node)
    }

    /// Surviving flows refit to the freed capacity.
    fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        self.integrate_to(now);
        let mut dropped = self.drop_flows(now, |f| pred(f.tag));
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
            let tap = &mut self.alloc.get_mut().tap;
            tap.dropped(now, c.src.0, c.dst.0, c.tag, false);
            dropped.push(DroppedTransfer {
                tag: c.tag,
                src: c.src,
                dst: c.dst,
                bytes: c.bytes,
            });
        }
        dropped
    }

    /// Stalled flows pick their fair rates back up.
    fn revive_port(&mut self, now: SimTime, node: NodeId) {
        assert!(node.0 < self.num_nodes, "node {node:?} out of range");
        self.integrate_to(now);
        self.fault_state().down[node.0] = false;
        self.alloc.get_mut().dirty = true;
    }

    fn in_flight(&self) -> usize {
        self.ledger().in_flight()
    }

    fn drain_scope_windows(&mut self, out: &mut Vec<ScopeWindow>) {
        self.tap().drain_scope_windows(out)
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
    fn same_instant_submits_leave_one_sample_of_the_final_allocation() {
        let mut n = net(4);
        n.tap().enable_telemetry(SimTime::ZERO);
        let t = SimTime::from_millis(1);
        n.advance(t);
        // Three flows out of node 0 arrive at one instant: one waterfill
        // runs, over all three, when the metrics are read.
        for d in 1..4usize {
            n.submit(t, NodeId(0), NodeId(d), mb(1), d as u64);
        }
        let m = n.tap().take_metrics(t).expect("telemetry on");
        let samples = |name: &str| m.get_series(name).expect(name).samples().to_vec();
        // Each flow gets a third of node 0's uplink.
        let cap = n.cfg.bytes_per_sec();
        let share = cap / 3.0;
        assert_eq!(
            samples("nic0/up_util"),
            vec![(SimTime::ZERO, 0.0), (t, (share + share + share) / cap)]
        );
        for d in 1..4 {
            assert_eq!(
                samples(&format!("nic{d}/down_util")),
                vec![(SimTime::ZERO, 0.0), (t, share / cap)]
            );
        }
        assert_eq!(
            samples("active_transfers"),
            vec![(SimTime::ZERO, 0.0), (t, 3.0)]
        );
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
        assert_eq!(n.tap().bytes_delivered(), mb(9));
        assert!(n.is_idle());
    }
}
