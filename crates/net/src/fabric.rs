//! A fabric is either the FIFO network or the fluid network, behind one
//! dispatching wrapper so the runtime can switch sharing disciplines with
//! a config flag. The wrapper's operations are its [`NetPort`] impl, one
//! `match` per trait method; the driver loop bypasses even that by
//! monomorphising over the variant. Recorders and counters are not
//! dispatched method by method: both variants expose their one [`Tap`],
//! and [`Fabric::tap`] returns it. The four counter reads below are
//! views of that tap that need only `&self`.

use bs_sim::SimTime;
use serde::Serialize;

use crate::fluid::FluidNetwork;
use crate::network::{DroppedTransfer, NetEvent, Network, NodeId, TransferId};
use crate::port::NetPort;
use crate::scope::ScopeWindow;
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

/// Runs `$body` with `$n` bound to the variant.
macro_rules! each {
    ($fabric:expr, $n:ident => $body:expr) => {
        match $fabric {
            Fabric::Fifo($n) => $body,
            Fabric::Fluid($n) => $body,
        }
    };
}

impl Fabric {
    /// Creates the fabric selected by `model`.
    pub fn new(model: FabricModel, num_nodes: usize, cfg: NetConfig) -> Fabric {
        match model {
            FabricModel::SerialFifo => Fabric::Fifo(Network::new(num_nodes, cfg)),
            FabricModel::FairShare => Fabric::Fluid(FluidNetwork::new(num_nodes, cfg)),
        }
    }

    /// The fabric's recorders and counters (see [`Tap`]). On the fluid
    /// fabric this flushes a pending waterfill first, so its rate sample
    /// is in.
    pub fn tap(&mut self) -> &mut Tap {
        each!(self, n => n.tap())
    }

    /// Reads the tap without flushing anything.
    fn ledger<R>(&self, read: impl FnOnce(&Tap) -> R) -> R {
        match self {
            Fabric::Fifo(n) => read(n.ledger()),
            Fabric::Fluid(n) => read(&n.ledger()),
        }
    }

    /// Total payload bytes delivered so far.
    pub fn bytes_delivered(&self) -> u64 {
        self.ledger(Tap::bytes_delivered)
    }

    /// Transfers delivered end-to-end so far.
    pub fn transfers_delivered(&self) -> u64 {
        self.ledger(Tap::transfers_delivered)
    }

    /// Highest number of transfers simultaneously on the wire so far.
    pub fn peak_in_flight(&self) -> usize {
        self.ledger(Tap::peak_in_flight)
    }

    /// Peak port utilisation over `makespan` (see
    /// [`Tap::peak_port_utilisation`]; 0 on the fluid fabric).
    pub fn peak_port_utilisation(&self, makespan: SimTime) -> f64 {
        self.ledger(|t| t.peak_port_utilisation(makespan))
    }
}

impl NetPort for Fabric {
    #[inline]
    fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId {
        each!(self, n => n.submit(now, src, dst, bytes, tag))
    }

    #[inline]
    fn next_event_time(&self) -> SimTime {
        each!(self, n => n.next_event_time())
    }

    #[inline]
    fn wants_advance(&self, now: SimTime) -> bool {
        each!(self, n => n.wants_advance(now))
    }

    #[inline]
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>) {
        each!(self, n => n.advance_into(now, out))
    }

    fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
        each!(self, n => n.set_port_scale(now, node, up, scale))
    }

    fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
        each!(self, n => n.kill_port(now, node))
    }

    fn revive_port(&mut self, now: SimTime, node: NodeId) {
        each!(self, n => n.revive_port(now, node))
    }

    fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        each!(self, n => n.cancel_where(now, pred))
    }

    fn in_flight(&self) -> usize {
        each!(self, n => n.in_flight())
    }

    fn queued(&self) -> usize {
        each!(self, n => n.queued())
    }

    fn drain_scope_windows(&mut self, out: &mut Vec<ScopeWindow>) {
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

    /// The tap's ledger: delivered bytes per NIC direction, the on-wire
    /// peak (FIFO serialises `0 → 3` behind `0 → 1` on node 0's uplink;
    /// fluid flows are all on the wire at once) and per-port busy time,
    /// whose peak fills the whole FIFO makespan and reads 0 on fluid.
    #[test]
    fn tap_ledger_counts_bytes_peaks_and_busy_time() {
        for (model, peak, util) in [
            (FabricModel::SerialFifo, 2, 1.0),
            (FabricModel::FairShare, 3, 0.0),
        ] {
            let cfg = NetConfig::gbps(8.0, Transport::ideal());
            let mut f = Fabric::new(model, 4, cfg);
            for (src, dst) in [(0, 1), (2, 3), (0, 3)] {
                f.submit(SimTime::ZERO, NodeId(src), NodeId(dst), 1_000_000, 0);
            }
            let mut end = SimTime::ZERO;
            while !f.next_event_time().is_never() {
                end = f.next_event_time();
                f.advance(end);
            }
            assert_eq!(end, SimTime::from_millis(2), "{model:?}");
            assert_eq!(f.peak_in_flight(), peak, "{model:?}");
            assert_eq!(f.in_flight(), 0, "{model:?}");
            assert_eq!(f.peak_port_utilisation(end), util, "{model:?}");
            let tap = f.tap();
            assert_eq!(tap.node_bytes(0), (2_000_000, 0), "{model:?}");
            assert_eq!(tap.node_bytes(3), (0, 2_000_000), "{model:?}");
        }
    }

    /// Outages nest: a port killed twice (a flap over a machine failure)
    /// stays down through the first revive, and queued work restarts
    /// only when the second one ends it.
    #[test]
    fn port_stays_down_until_its_last_outage_ends() {
        for model in [FabricModel::SerialFifo, FabricModel::FairShare] {
            let cfg = NetConfig::gbps(8.0, Transport::ideal());
            let mut f = Fabric::new(model, 2, cfg);
            f.kill_port(SimTime::ZERO, NodeId(1));
            f.kill_port(SimTime::from_millis(1), NodeId(1));
            f.submit(SimTime::from_millis(2), NodeId(0), NodeId(1), 1_000_000, 7);
            f.revive_port(SimTime::from_millis(3), NodeId(1));
            assert!(f.next_event_time().is_never(), "{model:?}: one outage left");
            f.revive_port(SimTime::from_millis(10), NodeId(1));
            let mut done = Vec::new();
            while !f.next_event_time().is_never() {
                let t = f.next_event_time();
                for e in f.advance(t) {
                    if let NetEvent::Delivered(c) = e {
                        done.push((c.tag, c.finished_at));
                    }
                }
            }
            assert_eq!(done, vec![(7, SimTime::from_millis(11))], "{model:?}");
        }
    }
}
