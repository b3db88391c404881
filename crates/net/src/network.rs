//! The point-to-point network state machine: the FIFO fabric.
//!
//! Its operations are its [`NetPort`] impl, with no inherent twin.
//! Every recorder and counter of the fabric sits behind its
//! one [`Tap`], reached through [`Network::tap`]. The state machine calls
//! it at each lifecycle point — submit, wire start, wire end, delivered,
//! dropped — and all three ways a transfer leaves the wire (release,
//! [`NetPort::kill_port`], [`NetPort::cancel_where`]) end its occupancy
//! through one helper, so the wire-end fan-out exists once.

use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};

use bs_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::port::NetPort;
use crate::scope::ScopeWindow;
use crate::tap::Tap;
use crate::transport::NetConfig;

/// Index of a node (worker or parameter-server shard) in the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Handle for a submitted transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TransferId(pub u64);

/// An event reported by [`NetPort::advance_into`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetEvent {
    /// The message's wire occupancy ended: ports freed, the sender-side
    /// stack accepted it in full. This is what a ps-lite-style sender
    /// thread observes — P3's stop-and-wait advances on this signal.
    Released(CompletedTransfer),
    /// The message was delivered end-to-end (occupancy + latency): the
    /// receiver can act (aggregate, grant a pull) and the sender's
    /// application-level acknowledgement arrives.
    Delivered(CompletedTransfer),
}

/// A transfer milestone, reported by [`NetPort::advance_into`] inside
/// [`NetEvent`]; `finished_at` is the release or delivery instant
/// respectively.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompletedTransfer {
    /// The handle returned by `submit`.
    pub id: TransferId,
    /// Sender node.
    pub src: NodeId,
    /// Receiver node.
    pub dst: NodeId,
    /// Payload size.
    pub bytes: u64,
    /// Caller-defined tag, passed through verbatim.
    pub tag: u64,
    /// Virtual time of the milestone.
    pub finished_at: SimTime,
}

/// A transfer that was killed mid-flight by a port outage
/// ([`NetPort::kill_port`]): the payload never arrived and the caller
/// must recover it (reclaim credit, retransmit).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DroppedTransfer {
    /// Caller-defined tag, passed through verbatim.
    pub tag: u64,
    /// Sender node.
    pub src: NodeId,
    /// Receiver node.
    pub dst: NodeId,
    /// Payload size.
    pub bytes: u64,
}

#[derive(Clone, Debug)]
struct Transfer {
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    tag: u64,
    /// True once the transfer occupies its two ports.
    started: bool,
    /// Wire-occupancy start.
    started_at: SimTime,
    /// Submission instant, for the wire lifecycle log.
    submitted_at: SimTime,
    /// Scheduled wire-release instant (valid while on the wire); kept so
    /// fault rescaling can find and move the `releases` entry.
    release_at: SimTime,
    /// Scheduled delivery instant (valid while on the wire).
    deliver_at: SimTime,
    /// Effective capacity scale the occupancy was computed at:
    /// `min(up_scale[src], down_scale[dst])`, 1.0 when unfaulted.
    eff: f64,
}

/// Fault-injection state, allocated lazily on the first fault hook call
/// so unfaulted runs take exactly the original code paths.
#[derive(Clone, Debug)]
struct FaultState {
    /// Per-node uplink capacity scale (1.0 = nominal).
    up_scale: Vec<f64>,
    /// Per-node downlink capacity scale.
    down_scale: Vec<f64>,
    /// Nodes currently flapped down: no transfer may start or continue
    /// on either of their ports.
    down: Vec<bool>,
}

/// One node's NIC state.
///
/// The uplink keeps one FIFO queue **per destination** — one ps-lite
/// connection per server — and serves them round-robin: while shard A's
/// downlink is busy with another worker, this worker's messages for
/// shard B proceed. Within a connection, order is strict FIFO (the
/// non-preemptible stack the scheduler schedules around). The downlink
/// serves one message at a time; blocked senders queue FIFO per
/// destination.
#[derive(Clone, Debug, Default)]
struct Nic {
    /// Transfer currently occupying the uplink.
    up_current: Option<TransferId>,
    /// Transfer currently occupying the downlink.
    down_current: Option<TransferId>,
    /// Per-destination FIFO connection queues (index = destination node).
    up_queues: Vec<VecDeque<TransferId>>,
    /// Round-robin cursor over destinations.
    rr_cursor: usize,
    /// Senders whose connection to *this* node is blocked on its busy
    /// downlink, in arrival order.
    down_waiters: VecDeque<NodeId>,
}

/// The network fabric: `n` nodes, each with a duplex NIC at the
/// configured bandwidth; per-connection FIFO with round-robin service at
/// the uplink and head-of-line blocking only *within* a connection.
///
/// A message's life has two phases, matching [`NetConfig`]:
///
/// 1. **Occupancy** — the sender uplink and receiver downlink are held for
///    `wire_overhead + size/bandwidth`; when it ends, both ports free and
///    the next queued messages start (pipelining).
/// 2. **Delivery** — `latency` later the message is *complete*: only now
///    does [`NetPort::advance_into`] report it (credits return, aggregation
///    fires). Stop-and-wait senders therefore pay the full round trip per
///    message; windowed senders hide it — the paper's §4.2 trade-off.
#[derive(Clone, Debug)]
pub struct Network {
    cfg: NetConfig,
    nics: Vec<Nic>,
    transfers: Vec<Transfer>,
    /// Wire-occupancy ends, ordered: ports free at these instants.
    releases: BTreeSet<(SimTime, TransferId)>,
    /// Delivery instants, ordered: completions reported at these.
    deliveries: BTreeSet<(SimTime, TransferId)>,
    /// Memoised `min(releases.first, deliveries.first)`; `None` when
    /// stale. Filled lazily so idle polls from the event loop are O(1).
    next_event: Cell<Option<SimTime>>,
    /// Every recorder and every counter. Each NIC direction is busy (1)
    /// or idle (0), so its utilisation series integrates to exactly the
    /// tap's accumulated busy time.
    tap: Tap,
    /// `Some` only once a fault hook has been exercised.
    faults: Option<Box<FaultState>>,
}

impl Network {
    /// Creates a fabric of `num_nodes` NICs.
    pub fn new(num_nodes: usize, cfg: NetConfig) -> Self {
        assert!(num_nodes >= 2, "a network needs at least two nodes");
        let nic = Nic {
            up_queues: vec![VecDeque::new(); num_nodes],
            ..Nic::default()
        };
        Network {
            cfg,
            nics: vec![nic; num_nodes],
            transfers: Vec::new(),
            releases: BTreeSet::new(),
            deliveries: BTreeSet::new(),
            next_event: Cell::new(None),
            tap: Tap::fifo(num_nodes),
            faults: None,
        }
    }

    /// The fabric's recorders and counters (see [`Tap`]).
    pub fn tap(&mut self) -> &mut Tap {
        &mut self.tap
    }

    /// Read access to the tap, for the counters.
    pub(crate) fn ledger(&self) -> &Tap {
        &self.tap
    }

    /// Picks the next startable connection head at `src`'s uplink,
    /// scanning destinations round-robin from the cursor; registers
    /// interest in busy downlinks along the way.
    fn try_start(&mut self, now: SimTime, src: NodeId) {
        if self.nics[src.0].up_current.is_some() {
            return;
        }
        if self.port_down(src) {
            return;
        }
        let n = self.nics.len();
        let start = self.nics[src.0].rr_cursor;
        for k in 0..n {
            let dst = (start + k) % n;
            let Some(&head) = self.nics[src.0].up_queues[dst].front() else {
                continue;
            };
            if self.transfers[head.0 as usize].started {
                continue;
            }
            if self.port_down(NodeId(dst)) {
                // Down destination: hold the connection; a revive re-kicks
                // every sender, so no waiter registration is needed.
                continue;
            }
            if self.nics[dst].down_current.is_some() {
                // Blocked connection: register interest exactly once.
                if !self.nics[dst].down_waiters.contains(&src) {
                    self.nics[dst].down_waiters.push_back(src);
                }
                continue;
            }
            self.nics[src.0].rr_cursor = (dst + 1) % n;
            self.start(now, head);
            return;
        }
    }

    /// When `dst`'s downlink frees, offer it to blocked senders in FIFO
    /// arrival order. A registered sender whose uplink is momentarily
    /// busy keeps its place in line (dropping it would let a
    /// phase-locked competitor starve the connection forever); senders
    /// with nothing left for this destination are dropped as stale.
    fn serve_down_waiters(&mut self, now: SimTime, dst: NodeId) {
        if self.port_down(dst) {
            return;
        }
        let mut rotations = self.nics[dst.0].down_waiters.len();
        while self.nics[dst.0].down_current.is_none() && rotations > 0 {
            rotations -= 1;
            let Some(waiter) = self.nics[dst.0].down_waiters.pop_front() else {
                return;
            };
            let head = self.nics[waiter.0].up_queues[dst.0].front().copied();
            match head {
                Some(h) if !self.transfers[h.0 as usize].started => {
                    if self.port_down(waiter) {
                        // Down sender: drop the reservation; a revive
                        // re-kicks every sender.
                        continue;
                    }
                    if self.nics[waiter.0].up_current.is_none() {
                        self.nics[waiter.0].rr_cursor = (dst.0 + 1) % self.nics.len();
                        self.start(now, h);
                    } else {
                        // Sender busy right now: keep the reservation.
                        self.nics[dst.0].down_waiters.push_back(waiter);
                    }
                }
                _ => {
                    // Stale entry (served elsewhere); let the sender look
                    // for other work.
                    self.try_start(now, waiter);
                }
            }
        }
    }

    fn start(&mut self, now: SimTime, id: TransferId) {
        let bytes = self.transfers[id.0 as usize].bytes;
        let (tsrc, tdst) = {
            let t = &self.transfers[id.0 as usize];
            (t.src, t.dst)
        };
        let eff = self.effective_scale(tsrc, tdst);
        let occ = self.cfg.occupancy(bytes);
        // Unfaulted paths keep the exact integer arithmetic; only a
        // degraded link pays the float division.
        let occ = if eff == 1.0 {
            occ
        } else {
            SimTime::from_secs_f64(occ.as_secs_f64() / eff)
        };
        let release = now + occ;
        let deliver = release + self.cfg.transport.latency;
        let t = &mut self.transfers[id.0 as usize];
        t.started = true;
        t.started_at = now;
        t.release_at = release;
        t.deliver_at = deliver;
        t.eff = eff;
        let (src, dst) = (t.src, t.dst);
        debug_assert!(self.nics[src.0].up_current.is_none());
        debug_assert!(self.nics[dst.0].down_current.is_none());
        self.nics[src.0].up_current = Some(id);
        self.nics[dst.0].down_current = Some(id);
        self.releases.insert((release, id));
        self.deliveries.insert((deliver, id));
        self.next_event.set(None);
        self.tap.wire_start(now, src.0, dst.0);
    }

    /// Ends on-wire transfer `id`'s occupancy at `end` (delivering at
    /// `delivered`): frees both ports, pops its connection head, charges
    /// the busy time and reports the wire end to the tap. The caller
    /// owns the scheduled release and delivery and re-kicks the ports.
    fn end_occupancy(&mut self, id: TransferId, end: SimTime, delivered: SimTime) {
        let t = &self.transfers[id.0 as usize];
        let (src, dst) = (t.src, t.dst);
        let rec = (
            t.tag,
            src.0,
            dst.0,
            t.submitted_at,
            t.started_at,
            end,
            delivered,
        );
        let bytes = t.bytes;
        debug_assert_eq!(self.nics[src.0].up_current, Some(id));
        debug_assert_eq!(self.nics[dst.0].down_current, Some(id));
        self.nics[src.0].up_current = None;
        self.nics[dst.0].down_current = None;
        let popped = self.nics[src.0].up_queues[dst.0].pop_front();
        debug_assert_eq!(popped, Some(id));
        self.tap.wire_end(rec, bytes);
    }

    /// Evicts on-wire transfer `id` at `now` without delivering it: its
    /// release and delivery never fire, the aborted occupancy still
    /// counts as busy until `now`, and both freed ports take other work
    /// (the `port_down` guards skip a flapped node).
    fn evict(&mut self, now: SimTime, id: TransferId) -> DroppedTransfer {
        let t = &self.transfers[id.0 as usize];
        let dropped = DroppedTransfer {
            tag: t.tag,
            src: t.src,
            dst: t.dst,
            bytes: t.bytes,
        };
        let (release_at, deliver_at) = (t.release_at, t.deliver_at);
        let had_release = self.releases.remove(&(release_at, id));
        let had_delivery = self.deliveries.remove(&(deliver_at, id));
        debug_assert!(
            had_release && had_delivery,
            "on-wire victim must be scheduled"
        );
        // A killed transfer releases and "delivers" (dies) at now; a
        // retransmit shows up as a separate record.
        self.end_occupancy(id, now, now);
        let DroppedTransfer { tag, src, dst, .. } = dropped;
        self.tap.dropped(now, src.0, dst.0, tag, false);
        self.try_start(now, src);
        self.serve_down_waiters(now, dst);
        dropped
    }

    /// True when `node` is currently flapped down.
    fn port_down(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| f.down[node.0])
    }

    /// Effective capacity scale for a `src → dst` occupancy.
    fn effective_scale(&self, src: NodeId, dst: NodeId) -> f64 {
        match &self.faults {
            None => 1.0,
            Some(f) => f.up_scale[src.0].min(f.down_scale[dst.0]),
        }
    }

    /// Lazily materialises the fault state (all scales 1.0, nothing down).
    fn fault_state(&mut self) -> &mut FaultState {
        let n = self.nics.len();
        self.faults.get_or_insert_with(|| {
            Box::new(FaultState {
                up_scale: vec![1.0; n],
                down_scale: vec![1.0; n],
                down: vec![false; n],
            })
        })
    }

    /// True when nothing is queued, in flight, or awaiting delivery.
    pub fn is_idle(&self) -> bool {
        self.in_flight() == 0 && self.queued() == 0 && self.deliveries.is_empty()
    }
}

impl NetPort for Network {
    /// The transfer joins the `src → dst` connection queue and starts
    /// once it reaches that queue's head, the uplink picks the connection
    /// (round-robin) and `dst`'s downlink is free.
    fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId {
        assert!(src.0 < self.nics.len(), "src {src:?} out of range");
        assert!(dst.0 < self.nics.len(), "dst {dst:?} out of range");
        assert_ne!(src, dst, "loopback transfers are not modelled");
        let id = TransferId(self.transfers.len() as u64);
        self.transfers.push(Transfer {
            src,
            dst,
            bytes,
            tag,
            started: false,
            started_at: SimTime::ZERO,
            submitted_at: now,
            release_at: SimTime::ZERO,
            deliver_at: SimTime::ZERO,
            eff: 1.0,
        });
        self.nics[src.0].up_queues[dst.0].push_back(id);
        self.tap.submit(now, src.0, dst.0, tag);
        self.try_start(now, src);
        id
    }

    /// A port frees or a message delivers. Memoised, so idle polls from
    /// the event loop are O(1).
    #[inline]
    fn next_event_time(&self) -> SimTime {
        if let Some(t) = self.next_event.get() {
            return t;
        }
        let r = self
            .releases
            .first()
            .map(|(t, _)| *t)
            .unwrap_or(SimTime::MAX);
        let d = self
            .deliveries
            .first()
            .map(|(t, _)| *t)
            .unwrap_or(SimTime::MAX);
        let t = r.min(d);
        self.next_event.set(Some(t));
        t
    }

    /// Frees ports whose occupancy ended (starting queued successors,
    /// reported as [`NetEvent::Released`]) and reports messages delivered
    /// at or before `now` as [`NetEvent::Delivered`]; at equal instants
    /// releases come first.
    fn advance_into(&mut self, now: SimTime, done: &mut Vec<NetEvent>) {
        loop {
            let next_release = self.releases.first().copied();
            let next_delivery = self.deliveries.first().copied();
            // Process in time order; at equal instants, releases first so
            // freed ports start successors before completions cascade.
            let take_release = match (next_release, next_delivery) {
                (Some((rt, _)), Some((dt, _))) => rt <= dt,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_release {
                let (t, id) = next_release.expect("present");
                if t > now {
                    break;
                }
                self.releases.pop_first();
                self.next_event.set(None);
                let tr = &self.transfers[id.0 as usize];
                let (src, dst, bytes, tag) = (tr.src, tr.dst, tr.bytes, tr.tag);
                self.end_occupancy(id, t, t + self.cfg.transport.latency);
                self.try_start(t, src);
                self.serve_down_waiters(t, dst);
                done.push(NetEvent::Released(CompletedTransfer {
                    id,
                    src,
                    dst,
                    bytes,
                    tag,
                    finished_at: t,
                }));
            } else {
                let (t, id) = next_delivery.expect("present");
                if t > now {
                    break;
                }
                self.deliveries.pop_first();
                self.next_event.set(None);
                let tr = &self.transfers[id.0 as usize];
                self.tap.delivered(t, tr.src.0, tr.dst.0, tr.tag, tr.bytes);
                done.push(NetEvent::Delivered(CompletedTransfer {
                    id,
                    src: tr.src,
                    dst: tr.dst,
                    bytes: tr.bytes,
                    tag: tr.tag,
                    finished_at: t,
                }));
            }
        }
    }

    /// The direction's current occupant (if any) keeps its progress: the
    /// remaining occupancy stretches or shrinks by `old_eff / new_eff`.
    fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be finite and > 0 (got {scale}); use kill_port for outages"
        );
        let fs = self.fault_state();
        let vec = if up {
            &mut fs.up_scale
        } else {
            &mut fs.down_scale
        };
        if vec[node.0] == scale {
            return;
        }
        vec[node.0] = scale;
        // FIFO service: at most one transfer occupies the direction.
        let occupant = if up {
            self.nics[node.0].up_current
        } else {
            self.nics[node.0].down_current
        };
        let Some(id) = occupant else { return };
        let (src, dst, old_eff, release_at, deliver_at) = {
            let t = &self.transfers[id.0 as usize];
            (t.src, t.dst, t.eff, t.release_at, t.deliver_at)
        };
        let new_eff = self.effective_scale(src, dst);
        if new_eff == old_eff {
            return;
        }
        let left = release_at.saturating_sub(now);
        let left = SimTime::from_secs_f64(left.as_secs_f64() * old_eff / new_eff);
        let release = now + left;
        let deliver = release + self.cfg.transport.latency;
        let had_release = self.releases.remove(&(release_at, id));
        let had_delivery = self.deliveries.remove(&(deliver_at, id));
        debug_assert!(had_release && had_delivery, "occupant must be scheduled");
        self.releases.insert((release, id));
        self.deliveries.insert((deliver, id));
        let t = &mut self.transfers[id.0 as usize];
        t.release_at = release;
        t.deliver_at = deliver;
        t.eff = new_eff;
        self.next_event.set(None);
    }

    /// Both NIC directions stop carrying traffic and their occupants are
    /// removed from the wire without delivering. Transfers in the latency
    /// phase still deliver: the receiver's stack accepted them. Queued
    /// transfers stay queued until the revive.
    fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
        self.fault_state().down[node.0] = true;
        let victims: Vec<TransferId> =
            [self.nics[node.0].up_current, self.nics[node.0].down_current]
                .into_iter()
                .flatten()
                .collect();
        let dropped = victims.into_iter().map(|id| self.evict(now, id)).collect();
        self.next_event.set(None);
        dropped
    }

    /// Queued transfers go first, so a wire freed by a cancelled
    /// occupant cannot restart a transfer that is itself cancelled.
    fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        let mut dropped = Vec::new();
        // Queued-but-unstarted transfers first, so the wires freed below
        // cannot restart a transfer that is itself being cancelled.
        for src in 0..self.nics.len() {
            for dst in 0..self.nics.len() {
                let mut q = std::mem::take(&mut self.nics[src].up_queues[dst]);
                q.retain(|id| {
                    let t = &self.transfers[id.0 as usize];
                    if t.started || !pred(t.tag) {
                        return true;
                    }
                    self.tap.dropped(now, t.src.0, t.dst.0, t.tag, true);
                    dropped.push(DroppedTransfer {
                        tag: t.tag,
                        src: t.src,
                        dst: t.dst,
                        bytes: t.bytes,
                    });
                    false
                });
                self.nics[src].up_queues[dst] = q;
            }
        }
        // On-wire occupants: every started transfer is some NIC's
        // up_current, so scanning uplinks visits each exactly once.
        let victims: Vec<TransferId> = self
            .nics
            .iter()
            .filter_map(|n| n.up_current)
            .filter(|id| pred(self.transfers[id.0 as usize].tag))
            .collect();
        for id in victims {
            dropped.push(self.evict(now, id));
        }
        // Latency-phase transfers (past wire release): their deliveries
        // simply never fire.
        let purge: Vec<(SimTime, TransferId)> = self
            .deliveries
            .iter()
            .filter(|(_, id)| pred(self.transfers[id.0 as usize].tag))
            .copied()
            .collect();
        for (t, id) in purge {
            self.deliveries.remove(&(t, id));
            let tr = &self.transfers[id.0 as usize];
            self.tap.dropped(now, tr.src.0, tr.dst.0, tr.tag, false);
            dropped.push(DroppedTransfer {
                tag: tr.tag,
                src: tr.src,
                dst: tr.dst,
                bytes: tr.bytes,
            });
        }
        self.next_event.set(None);
        dropped
    }

    /// Restarts service on every connection the outage was blocking.
    fn revive_port(&mut self, now: SimTime, node: NodeId) {
        self.fault_state().down[node.0] = false;
        for s in 0..self.nics.len() {
            self.try_start(now, NodeId(s));
        }
        self.next_event.set(None);
    }

    fn in_flight(&self) -> usize {
        self.tap.in_flight()
    }

    fn queued(&self) -> usize {
        self.nics
            .iter()
            .flat_map(|n| n.up_queues.iter())
            .flatten()
            .filter(|id| !self.transfers[id.0 as usize].started)
            .count()
    }

    fn drain_scope_windows(&mut self, out: &mut Vec<ScopeWindow>) {
        self.tap.drain_scope_windows(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    /// 8 Gbps, perfect efficiency (1e9 B/s), 100 µs wire overhead, no
    /// latency: easy arithmetic for occupancy-oriented tests.
    fn net(n: usize) -> Network {
        let cfg = NetConfig::gbps(
            8.0,
            Transport::custom("t", SimTime::from_micros(100), SimTime::ZERO, 1.0),
        );
        Network::new(n, cfg)
    }

    /// Same wire but with 400 µs overlappable latency.
    fn net_lat(n: usize) -> Network {
        let cfg = NetConfig::gbps(
            8.0,
            Transport::custom(
                "t",
                SimTime::from_micros(100),
                SimTime::from_micros(400),
                1.0,
            ),
        );
        Network::new(n, cfg)
    }

    fn mb(x: u64) -> u64 {
        x * 1_000_000
    }

    fn drain(n: &mut Network) -> Vec<(u64, SimTime)> {
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
    fn single_transfer_takes_overhead_plus_serialisation() {
        let mut n = net(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 7);
        assert_eq!(n.next_event_time(), SimTime::from_micros(1_100));
        let done = n.advance(SimTime::from_micros(1_100));
        // One release + one delivery (zero latency: same instant).
        assert_eq!(done.len(), 2);
        assert!(matches!(done[0], NetEvent::Released(c) if c.tag == 7));
        assert!(matches!(done[1], NetEvent::Delivered(c) if c.tag == 7));
        assert!(n.is_idle());
    }

    #[test]
    fn latency_delays_delivery_but_not_the_next_start() {
        let mut n = net_lat(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 2);
        let done = drain(&mut n);
        // Deliveries at 1.5 ms and 2.6 ms: the second message started at
        // 1.1 ms (port release), not at 1.5 ms (delivery) — pipelined.
        assert_eq!(
            done,
            vec![
                (1, SimTime::from_micros(1_500)),
                (2, SimTime::from_micros(2_600)),
            ]
        );
    }

    #[test]
    fn connection_queue_is_fifo() {
        let mut n = net(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 2);
        let done = drain(&mut n);
        assert_eq!(done[0].0, 1);
        assert_eq!(done[1], (2, SimTime::from_micros(2_200)));
    }

    #[test]
    fn uplink_round_robins_across_connections() {
        let mut n = net(4);
        // Two messages per destination; service should interleave
        // 1,2,3,1,2,3 rather than draining one connection first.
        for round in 0..2u64 {
            for d in 1..4u64 {
                n.submit(
                    SimTime::ZERO,
                    NodeId(0),
                    NodeId(d as usize),
                    mb(1),
                    d * 10 + round,
                );
            }
        }
        let order: Vec<u64> = drain(&mut n).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![10, 20, 30, 11, 21, 31]);
    }

    #[test]
    fn incast_serialises_on_receiver_downlink_in_fifo_order() {
        let mut n = net(4);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(3), mb(1), 10);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(3), mb(1), 11);
        n.submit(SimTime::ZERO, NodeId(2), NodeId(3), mb(1), 12);
        assert_eq!(n.in_flight(), 1);
        let done = drain(&mut n);
        assert_eq!(
            done.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![10, 11, 12]
        );
        assert_eq!(done[2].1, SimTime::from_micros(3_300));
    }

    #[test]
    fn duplex_directions_are_independent() {
        let mut n = net(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(0), mb(1), 2);
        assert_eq!(n.in_flight(), 2);
        let evs = n.advance(SimTime::from_micros(1_100));
        let delivered = evs
            .iter()
            .filter(|e| matches!(e, NetEvent::Delivered(_)))
            .count();
        assert_eq!(delivered, 2);
    }

    #[test]
    fn no_convoy_across_connections() {
        // The fix this design exists for: node 2 occupies node 3's
        // downlink; node 0 has messages for both 3 and 1. The message to
        // the *free* node 1 must not wait behind the blocked connection.
        let mut n = net(4);
        n.submit(SimTime::ZERO, NodeId(2), NodeId(3), mb(10), 1);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(3), mb(1), 2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 3);
        assert_eq!(n.in_flight(), 2, "0→1 starts despite 0→3 being blocked");
        let order: Vec<u64> = drain(&mut n).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }

    #[test]
    fn bytes_delivered_accumulates() {
        let mut n = net(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(2), 0);
        n.advance(SimTime::from_secs(1));
        assert_eq!(n.tap().bytes_delivered(), mb(2));
    }

    #[test]
    fn staggered_submissions_start_when_wire_frees() {
        let mut n = net(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        let delivered = n
            .advance(SimTime::from_micros(1_100))
            .iter()
            .filter(|e| matches!(e, NetEvent::Delivered(_)))
            .count();
        assert_eq!(delivered, 1);
        n.submit(SimTime::from_micros(1_500), NodeId(0), NodeId(1), mb(1), 2);
        assert_eq!(n.next_event_time(), SimTime::from_micros(2_600));
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        let mut n = net(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(0), 1, 0);
    }

    #[test]
    fn many_to_many_conserves_work() {
        let mut n = net_lat(4);
        for s in 0..4usize {
            for d in 0..4usize {
                if s != d {
                    n.submit(
                        SimTime::ZERO,
                        NodeId(s),
                        NodeId(d),
                        mb(1),
                        (s * 4 + d) as u64,
                    );
                }
            }
        }
        let done = drain(&mut n);
        assert_eq!(done.len(), 12);
        assert!(n.is_idle());
        assert_eq!(n.tap().bytes_delivered(), mb(12));
    }

    #[test]
    fn is_idle_accounts_for_undelivered_messages() {
        let mut n = net_lat(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.advance(SimTime::from_micros(1_200));
        assert_eq!(n.in_flight(), 0);
        assert!(!n.is_idle(), "delivery still pending");
        n.advance(SimTime::from_micros(1_500));
        assert!(n.is_idle());
    }

    #[test]
    fn xray_records_full_transfer_lifecycle() {
        let mut n = net_lat(2);
        n.tap().enable_wire_log();
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 2);
        drain(&mut n);
        let us = SimTime::from_micros;
        let recs = n.tap().take_wire_log();
        // (tag, src, dst, submitted, wire_start, released, delivered):
        // the second message queued behind the first from submission at
        // t=0 until the port freed at 1.1 ms.
        assert_eq!(
            recs,
            vec![
                (1, 0, 1, us(0), us(0), us(1_100), us(1_500)),
                (2, 0, 1, us(0), us(1_100), us(2_200), us(2_600)),
            ]
        );
        assert!(n.tap().take_wire_log().is_empty(), "take drains the log");
    }

    #[test]
    fn degraded_uplink_stretches_the_occupant_mid_flight() {
        let mut n = net(2);
        // 1 MB at 1e9 B/s + 100 µs overhead: release at 1.1 ms unfaulted.
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 7);
        // At 0.5 ms, 0.6 ms of occupancy remains; a 4× degradation
        // stretches it to 2.4 ms → release at 2.9 ms.
        n.advance(SimTime::from_micros(500));
        n.set_port_scale(SimTime::from_micros(500), NodeId(0), true, 0.25);
        assert_eq!(n.next_event_time(), SimTime::from_micros(2_900));
        // Restoring mid-flight shrinks the remainder: at 1.9 ms, 1.0 ms
        // remains at 0.25× ≡ 0.25 ms at full rate → release at 2.15 ms.
        n.advance(SimTime::from_micros(1_900));
        n.set_port_scale(SimTime::from_micros(1_900), NodeId(0), true, 1.0);
        assert_eq!(n.next_event_time(), SimTime::from_micros(2_150));
        let done = drain(&mut n);
        assert_eq!(done, vec![(7, SimTime::from_micros(2_150))]);
    }

    #[test]
    fn degraded_link_slows_new_transfers() {
        let mut n = net(2);
        n.set_port_scale(SimTime::ZERO, NodeId(1), false, 0.5);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        // Occupancy doubles: (100 µs + 1 ms) / 0.5 = 2.2 ms.
        let done = drain(&mut n);
        assert_eq!(done, vec![(1, SimTime::from_micros(2_200))]);
    }

    #[test]
    fn kill_port_drops_in_flight_and_revive_restarts_queued() {
        let mut n = net(3);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(2), mb(1), 2);
        // Node 2 flaps at 0.3 ms: tag 1 (on the wire) is killed; tag 2
        // (queued behind the busy downlink) stays queued.
        let dropped = n.kill_port(SimTime::from_micros(300), NodeId(2));
        assert_eq!(
            dropped,
            vec![DroppedTransfer {
                tag: 1,
                src: NodeId(0),
                dst: NodeId(2),
                bytes: mb(1),
            }]
        );
        assert_eq!(n.in_flight(), 0);
        assert_eq!(n.queued(), 1);
        // Nothing can start while the node is down.
        assert!(n.next_event_time().is_never());
        // Revive at 10 ms: tag 2 starts and completes 1.1 ms later.
        n.revive_port(SimTime::from_millis(10), NodeId(2));
        let done = drain(&mut n);
        assert_eq!(done, vec![(2, SimTime::from_micros(11_100))]);
    }

    #[test]
    fn kill_port_lets_the_survivor_take_other_work() {
        let mut n = net(3);
        // 0 → 1 occupies node 0's uplink; 0 → 2 queues behind it.
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(10), 1);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(1), 2);
        // Node 1 flaps: the killed transfer frees node 0's uplink, which
        // immediately starts the transfer to the healthy node 2.
        let dropped = n.kill_port(SimTime::from_micros(200), NodeId(1));
        assert_eq!(dropped.len(), 1);
        assert_eq!(n.in_flight(), 1);
        let done = drain(&mut n);
        assert_eq!(done, vec![(2, SimTime::from_micros(1_300))]);
    }

    #[test]
    fn latency_phase_transfers_survive_a_flap() {
        let mut n = net_lat(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        // Past release (1.1 ms) but before delivery (1.5 ms): the stack
        // accepted the message, so a flap must not kill it.
        n.advance(SimTime::from_micros(1_200));
        let dropped = n.kill_port(SimTime::from_micros(1_200), NodeId(1));
        assert!(dropped.is_empty());
        let done = drain(&mut n);
        assert_eq!(done, vec![(1, SimTime::from_micros(1_500))]);
    }

    #[test]
    fn cancel_where_purges_queued_wire_and_latency_phases() {
        let mut n = net_lat(3);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(2), mb(1), 3);
        n.submit(SimTime::ZERO, NodeId(1), NodeId(2), mb(1), 2);
        // At 1.2 ms: tag 1 released (delivery pending at 1.5 ms), tag 3
        // on the wire since 1.1 ms, tag 2 queued behind the downlink.
        n.advance(SimTime::from_micros(1_200));
        let at = SimTime::from_micros(1_200);
        let dropped = n.cancel_where(at, &mut |tag| tag % 2 == 1);
        assert_eq!(
            dropped.iter().map(|d| d.tag).collect::<Vec<_>>(),
            vec![3, 1],
            "on-wire tag 3 then latency-phase tag 1"
        );
        // The freed downlink immediately serves the surviving tag 2.
        assert_eq!(n.in_flight(), 1);
        assert_eq!(n.queued(), 0);
        let done = drain(&mut n);
        assert_eq!(done, vec![(2, SimTime::from_micros(2_700))]);
        assert!(n.is_idle());
    }

    #[test]
    fn cancel_where_removes_queued_transfers_mid_queue() {
        let mut n = net(2);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 1);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 4);
        n.submit(SimTime::ZERO, NodeId(0), NodeId(1), mb(1), 2);
        // Cancel the middle queued transfer; FIFO order of the rest holds.
        let dropped = n.cancel_where(SimTime::ZERO, &mut |tag| tag == 4);
        assert_eq!(dropped.len(), 1);
        let order: Vec<u64> = drain(&mut n).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn parallel_destinations_fill_the_fabric() {
        // 2 workers × 2 shards: with per-connection queues and symmetric
        // schedules, both shards receive concurrently — aggregate
        // completes in ~half the serialised time.
        let mut n = net(4);
        // workers 0,1; shards 2,3. Each worker sends 1 MB to each shard.
        for w in 0..2usize {
            for s in 2..4usize {
                n.submit(
                    SimTime::ZERO,
                    NodeId(w),
                    NodeId(s),
                    mb(1),
                    (w * 10 + s) as u64,
                );
            }
        }
        let done = drain(&mut n);
        let last = done.iter().map(|(_, t)| *t).max().unwrap();
        // Total 4 MB over 2 downlinks at 1 ms+θ each: ~2.2–2.4 ms, not
        // the ~4.4 ms a convoying fabric would take.
        assert!(
            last <= SimTime::from_micros(2_500),
            "fabric convoyed: finished at {last}"
        );
    }
}
