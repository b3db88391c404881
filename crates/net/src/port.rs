//! The fabric interface: every fabric operation, declared once.
//!
//! [`NetPort`] is each fabric's only API for traffic, time and faults.
//! The FIFO [`Network`] and the fluid [`FluidNetwork`] implement it
//! directly (their state machines live in the impl blocks), and the
//! runtime-selected [`Fabric`] implements it by dispatching to its
//! variant. The driver loop is generic over the trait and monomorphises
//! its hot loop over the concrete fabric, so per-event calls inline
//! instead of matching on the [`Fabric`] enum on every submit and
//! advance. Recorders and counters are not part of the trait: each
//! fabric exposes its one [`Tap`](crate::tap::Tap).
//!
//! [`Network`]: crate::network::Network
//! [`FluidNetwork`]: crate::fluid::FluidNetwork
//! [`Fabric`]: crate::fabric::Fabric

use bs_sim::SimTime;

use crate::network::{DroppedTransfer, NetEvent, NodeId, TransferId};
use crate::scope::ScopeWindow;

/// A point-to-point fabric as seen by the driver's event loop: transfer
/// submission, clock queries, event draining, and the link-fault hooks.
///
/// Implementations: [`Network`](crate::network::Network) (FIFO),
/// [`FluidNetwork`](crate::fluid::FluidNetwork) (max-min fair), and
/// [`Fabric`](crate::fabric::Fabric) (runtime-selected).
pub trait NetPort {
    /// Submits a transfer of `bytes` from `src` to `dst` at `now`; `tag`
    /// comes back verbatim on its events. Loopback transfers are
    /// rejected.
    fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId;

    /// Earliest instant anything changes, `MAX`/never when idle.
    fn next_event_time(&self) -> SimTime;

    /// True when `advance_into(now)` could change state or emit events;
    /// the event loop skips the call otherwise. By default that is when
    /// the next event is due.
    #[inline]
    fn wants_advance(&self, now: SimTime) -> bool {
        self.next_event_time() <= now
    }

    /// Processes everything up to `now`, appending the emitted releases
    /// and deliveries in time order.
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>);

    /// [`Self::advance_into`] into a fresh buffer.
    fn advance(&mut self, now: SimTime) -> Vec<NetEvent> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Rescales one NIC direction's capacity to `scale` × nominal at
    /// `now`; in-flight transfers keep their progress. Use
    /// [`Self::kill_port`] for outages: a zero scale is rejected.
    fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64);

    /// Flaps `node` down at `now`, killing the transfers on its ports
    /// and returning them so the caller can recover (reclaim credit,
    /// retransmit). Transfers past wire release still deliver. Outages
    /// nest: each kill is one more outage the port waits out.
    fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer>;

    /// Ends one of `node`'s outages at `now`; once its last one ends
    /// (a flap that outlives a machine failure, or the reverse), service
    /// through it resumes. A revive of a port that is up does nothing.
    /// Capacity scales set before or during the outage persist.
    fn revive_port(&mut self, now: SimTime, node: NodeId);

    /// Cancels every pending transfer whose tag matches `pred` — queued,
    /// on the wire, or awaiting delivery — and returns them. Unlike
    /// [`Self::kill_port`] the ports stay up, so freed wires immediately
    /// serve surviving work. The cluster driver purges a migrating job's
    /// traffic this way.
    fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer>;

    /// Transfers currently occupying wires (diagnostics only).
    fn in_flight(&self) -> usize {
        0
    }

    /// Transfers submitted but not yet on the wire (diagnostics only).
    fn queued(&self) -> usize {
        0
    }

    /// Unused: no fabric implements it and no driver calls it. It stays
    /// only so that existing implementors outside the workspace still
    /// compile.
    fn for_each_pending_tag(&self, f: &mut dyn FnMut(u64)) {
        let _ = f;
    }

    /// Moves closed scope NIC-utilisation windows into `out`, oldest
    /// first (observation only; no-op unless the fabric's tap records
    /// scope windows).
    fn drain_scope_windows(&mut self, _out: &mut Vec<ScopeWindow>) {}
}
