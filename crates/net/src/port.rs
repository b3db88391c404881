//! The fabric interface the runtime's event loop is generic over.
//!
//! The driver loop talks to the network through [`NetPort`]. The trait
//! exists for speed: the driver monomorphises its hot loop over the
//! concrete fabric ([`Network`] or [`FluidNetwork`]), so per-event calls
//! inline instead of dispatching through the [`Fabric`] enum on every
//! submit and advance.
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
    /// Submits a transfer at `now`.
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

    /// True when `advance_into(now)` could change state or emit events.
    fn wants_advance(&self, now: SimTime) -> bool;

    /// Processes everything up to `now`, appending emitted events.
    fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>);

    /// Rescales one NIC direction's capacity (fault injection).
    fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64);

    /// Flaps `node` down, killing in-flight transfers on its ports.
    fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer>;

    /// Brings `node` back up.
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
