//! A fabric is either the FIFO network or the fluid network, behind one
//! dispatching wrapper so the runtime can switch sharing disciplines with
//! a config flag. Recorders are not dispatched method by method: both
//! variants expose their one [`Tap`], and [`Fabric::tap`] returns it.

use bs_sim::SimTime;
use serde::Serialize;

use crate::fluid::FluidNetwork;
use crate::network::{DroppedTransfer, NetEvent, Network, NodeId, TransferId};
use crate::tap::Tap;
use crate::transport::NetConfig;

/// Which sharing discipline the point-to-point fabric uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum FabricModel {
    /// Strict FIFO service per NIC direction with head-of-line blocking —
    /// the paper's §2.2 abstraction of the communication stack (default).
    SerialFifo,
    /// Max-min fair fluid multiplexing — how multi-connection transports
    /// actually share a NIC; see [`crate::fluid`].
    FairShare,
}

/// A point-to-point fabric of either discipline.
#[derive(Clone, Debug)]
pub enum Fabric {
    /// FIFO fabric.
    Fifo(Network),
    /// Fluid fabric.
    Fluid(FluidNetwork),
}

impl Fabric {
    /// Creates the fabric selected by `model`.
    pub fn new(model: FabricModel, num_nodes: usize, cfg: NetConfig) -> Fabric {
        match model {
            FabricModel::SerialFifo => Fabric::Fifo(Network::new(num_nodes, cfg)),
            FabricModel::FairShare => Fabric::Fluid(FluidNetwork::new(num_nodes, cfg)),
        }
    }

    /// Submits a transfer (see the variants' docs for semantics).
    #[inline]
    pub fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId {
        match self {
            Fabric::Fifo(n) => n.submit(now, src, dst, bytes, tag),
            Fabric::Fluid(n) => n.submit(now, src, dst, bytes, tag),
        }
    }

    /// Earliest instant anything changes.
    #[inline]
    pub fn next_event_time(&self) -> SimTime {
        match self {
            Fabric::Fifo(n) => n.next_event_time(),
            Fabric::Fluid(n) => n.next_event_time(),
        }
    }

    /// Processes everything up to `now`.
    pub fn advance(&mut self, now: SimTime) -> Vec<NetEvent> {
        match self {
            Fabric::Fifo(n) => n.advance(now),
            Fabric::Fluid(n) => n.advance(now),
        }
    }

    /// Like [`Self::advance`] but appends into a caller-provided buffer.
    #[inline]
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>) {
        match self {
            Fabric::Fifo(n) => n.advance_into(now, out),
            Fabric::Fluid(n) => n.advance_into(now, out),
        }
    }

    /// True when `advance(now)` could change fabric state or emit events;
    /// the event loop skips the call otherwise. The fluid fabric must
    /// still integrate every tick while flows are active (see
    /// [`FluidNetwork::wants_advance`]); the FIFO fabric only changes at
    /// its scheduled release/delivery instants.
    #[inline]
    pub fn wants_advance(&self, now: SimTime) -> bool {
        match self {
            Fabric::Fifo(n) => n.next_event_time() <= now,
            Fabric::Fluid(n) => n.wants_advance(now),
        }
    }

    /// Total payload bytes delivered so far.
    pub fn bytes_delivered(&self) -> u64 {
        match self {
            Fabric::Fifo(n) => n.bytes_delivered(),
            Fabric::Fluid(n) => n.bytes_delivered(),
        }
    }

    /// Transfers currently occupying wires.
    pub fn in_flight(&self) -> usize {
        match self {
            Fabric::Fifo(n) => n.in_flight(),
            Fabric::Fluid(n) => n.in_flight(),
        }
    }

    /// Transfers delivered end-to-end so far.
    pub fn transfers_delivered(&self) -> u64 {
        match self {
            Fabric::Fifo(n) => n.transfers_delivered(),
            Fabric::Fluid(n) => n.transfers_delivered(),
        }
    }

    /// Highest number of simultaneously active transfers seen so far.
    pub fn peak_in_flight(&self) -> usize {
        match self {
            Fabric::Fifo(n) => n.peak_in_flight(),
            Fabric::Fluid(n) => n.peak_in_flight(),
        }
    }

    /// Peak port utilisation over `makespan`: the busiest single NIC
    /// direction's busy fraction (FIFO fabric; the fluid fabric does not
    /// track occupancy). Identifies the bottleneck resource of a run.
    pub fn peak_port_utilisation(&self, makespan: bs_sim::SimTime) -> f64 {
        let Fabric::Fifo(n) = self else { return 0.0 };
        if makespan.as_nanos() == 0 {
            return 0.0;
        }
        let m = makespan.as_secs_f64();
        n.uplink_busy()
            .iter()
            .chain(n.downlink_busy())
            .map(|b| b.as_secs_f64() / m)
            .fold(0.0, f64::max)
    }

    /// The fabric's recorders (see [`Tap`]). On the fluid fabric this
    /// flushes a pending waterfill first, so its rate sample is in.
    pub fn tap(&mut self) -> &mut Tap {
        match self {
            Fabric::Fifo(n) => n.tap(),
            Fabric::Fluid(n) => n.tap(),
        }
    }

    /// Rescales one NIC direction's capacity to `scale` × nominal at
    /// `now`. In-flight transfers keep their progress: the FIFO fabric
    /// stretches the occupant's remaining occupancy, the fluid fabric
    /// refits all flow rates. Use [`Self::kill_port`] for outages — a
    /// zero scale is rejected.
    pub fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
        match self {
            Fabric::Fifo(n) => n.set_port_scale(now, node, up, scale),
            Fabric::Fluid(n) => n.set_port_scale(now, node, up, scale),
        }
    }

    /// Flaps `node` down at `now`, killing the transfers currently on its
    /// ports; returns them so the caller can recover (reclaim credit,
    /// retransmit). Transfers past wire release / drain still deliver.
    pub fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
        match self {
            Fabric::Fifo(n) => n.kill_port(now, node),
            Fabric::Fluid(n) => n.kill_port(now, node),
        }
    }

    /// Brings `node` back up at `now` and resumes service through it.
    pub fn revive_port(&mut self, now: SimTime, node: NodeId) {
        match self {
            Fabric::Fifo(n) => n.revive_port(now, node),
            Fabric::Fluid(n) => n.revive_port(now, node),
        }
    }

    /// Cancels every pending transfer whose tag matches `pred` — queued,
    /// on the wire, or awaiting delivery — and returns them; no port
    /// goes down. The cluster driver purges a migrating job's traffic
    /// this way.
    pub fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        match self {
            Fabric::Fifo(n) => n.cancel_where(now, pred),
            Fabric::Fluid(n) => n.cancel_where(now, pred),
        }
    }

    /// Transfers submitted but not yet on the wire.
    pub fn queued(&self) -> usize {
        match self {
            Fabric::Fifo(n) => n.queued(),
            // Fluid flows start immediately; nothing ever queues.
            Fabric::Fluid(_) => 0,
        }
    }
}

impl crate::port::NetPort for Fabric {
    #[inline]
    fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId {
        Fabric::submit(self, now, src, dst, bytes, tag)
    }

    #[inline]
    fn next_event_time(&self) -> SimTime {
        Fabric::next_event_time(self)
    }

    #[inline]
    fn wants_advance(&self, now: SimTime) -> bool {
        Fabric::wants_advance(self, now)
    }

    #[inline]
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>) {
        Fabric::advance_into(self, now, out)
    }

    fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
        Fabric::set_port_scale(self, now, node, up, scale)
    }

    fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
        Fabric::kill_port(self, now, node)
    }

    fn revive_port(&mut self, now: SimTime, node: NodeId) {
        Fabric::revive_port(self, now, node)
    }

    fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        Fabric::cancel_where(self, now, pred)
    }

    fn in_flight(&self) -> usize {
        Fabric::in_flight(self)
    }

    fn queued(&self) -> usize {
        Fabric::queued(self)
    }

    fn drain_scope_windows(&mut self, out: &mut Vec<crate::scope::ScopeWindow>) {
        self.tap().drain_scope_windows(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    /// Both disciplines move the same bytes; the fluid one finishes an
    /// incast no later than FIFO (work conservation), and both report the
    /// identical unloaded single-transfer time.
    #[test]
    fn disciplines_agree_on_unloaded_transfers_and_totals() {
        for model in [FabricModel::SerialFifo, FabricModel::FairShare] {
            let cfg = NetConfig::gbps(8.0, Transport::ideal());
            let mut f = Fabric::new(model, 3, cfg);
            f.submit(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000, 1);
            let mut last = SimTime::ZERO;
            loop {
                let t = f.next_event_time();
                if t.is_never() {
                    break;
                }
                for e in f.advance(t) {
                    if let NetEvent::Delivered(c) = e {
                        last = c.finished_at;
                    }
                }
            }
            assert_eq!(last, SimTime::from_millis(1), "{model:?}");
            assert_eq!(f.bytes_delivered(), 1_000_000);
        }
    }
}
