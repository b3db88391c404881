//! The engine-facing scheduler contract.
//!
//! The paper's Core exposes `enqueue(CommTask)` to plugins and drives the
//! four CommTask verbs (`partition`, `notify_ready`, `start`,
//! `notify_finish`). In this reproduction the whole system is a pull-based
//! discrete-event co-simulation, so the contract is recast as a state
//! machine with the same information flow:
//!
//! | paper                       | here                                     |
//! |-----------------------------|------------------------------------------|
//! | `CommTask.partition(size)`  | [`Scheduler::partition_size`] + [`crate::task::partition_tensor`] |
//! | `CommTask.notify_ready()`   | [`Scheduler::submit`]                    |
//! | `CommTask.start()`          | items returned by [`Scheduler::poll`]    |
//! | `CommTask.notify_finish()`  | [`Scheduler::complete`]                  |
//!
//! The runtime plugin translates engine and network events into these
//! calls; the policy (ByteScheduler, FIFO, P3, …) decides only *order and
//! pacing*. That separation is exactly what makes the scheduler generic
//! across engines, architectures and transports.

use bs_sim::SimTime;
use serde::Serialize;

/// One ready-to-send unit of work: a subtask that has cleared all engine
/// dependencies and awaits a transmission slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct WorkItem {
    /// Which network lane the item occupies (see [`crate::task::CommKind::lane`]).
    pub lane: usize,
    /// Scheduling priority: lower is more urgent. Plugins set this to the
    /// layer index (§3.2: topological order / creation order).
    pub priority: u64,
    /// Payload size in bytes — what the credit system meters.
    pub bytes: u64,
    /// Opaque token the runtime uses to identify the subtask on completion;
    /// the scheduler passes it through untouched.
    pub token: u64,
}

/// A communication-scheduling policy.
///
/// Implementations must uphold two contracts the runtime depends on:
///
/// 1. **No loss**: every submitted item is eventually returned by `poll`
///    (given that completions keep arriving).
/// 2. **Work conservation**: if a lane has queued items and no in-flight
///    bytes, `poll` returns at least one item for that lane.
pub trait Scheduler: Send {
    /// Human-readable policy name for result tables.
    fn name(&self) -> &'static str;

    /// Partition size δ this policy wants tensors sliced into
    /// (`None` = do not partition).
    fn partition_size(&self) -> Option<u64>;

    /// A subtask became ready (the paper's `notify_ready`).
    fn submit(&mut self, now: SimTime, item: WorkItem);

    /// A previously started item finished transmitting; its bytes return
    /// to the lane's credit (the paper's `notify_finish` / Algorithm 1
    /// FINISH).
    fn complete(&mut self, now: SimTime, lane: usize, bytes: u64);

    /// A previously started item was *lost* (transfer dropped or killed
    /// by a link fault) and its payload never arrived. The bytes must
    /// still return to the lane's credit — a lost partition that kept its
    /// credit would shrink the window forever and eventually deadlock the
    /// lane — but the policy may account the reclamation separately from
    /// a successful `complete`. The default treats loss like completion.
    fn reclaim(&mut self, now: SimTime, lane: usize, bytes: u64) {
        self.complete(now, lane, bytes);
    }

    /// The lane set is being torn down mid-run (e.g. a fault-aborted
    /// run): close any open recording intervals at `now` so stall totals
    /// cover only the time the lanes actually existed. Policies without
    /// instrumentation ignore this; it never changes scheduling state.
    fn teardown(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Appends the items to hand to the network *now*, in order (the
    /// paper's `start()` calls made by the SCHEDULE loop), to `out`. The
    /// runtime's event loop reuses one buffer across the millions of
    /// polls a long run performs.
    fn poll_into(&mut self, now: SimTime, out: &mut Vec<WorkItem>);

    /// [`Self::poll_into`] into a fresh vector.
    fn poll(&mut self, now: SimTime) -> Vec<WorkItem> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// Number of lanes this scheduler manages.
    fn num_lanes(&self) -> usize;

    /// When the runtime should call [`Scheduler::complete`]: `false`
    /// (default) on end-to-end delivery — the paper's `notify_finish`,
    /// which includes the transport's acknowledgement latency; `true` on
    /// wire release — what a ps-lite-style sender thread observes the
    /// moment the stack accepts the message. P3's stop-and-wait advances
    /// on the latter; ByteScheduler's credits deliberately account for
    /// the full round trip and hide it behind the window (§4.2).
    fn credit_on_release(&self) -> bool {
        false
    }

    /// Queued (submitted but not yet started) items across lanes.
    fn queued(&self) -> usize;

    /// Starts recording per-lane telemetry (credit occupancy, queue
    /// depth, stall intervals). Policies without instrumentation ignore
    /// this; recording never changes scheduling decisions.
    fn enable_telemetry(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Takes the recorded metrics with summaries closed at `now`.
    /// `None` if telemetry was never enabled or the policy has none.
    fn take_metrics(&mut self, now: SimTime) -> Option<bs_telemetry::MetricSet> {
        let _ = now;
        None
    }

    /// Starts recording causal-tracing (xray) state: per-lane
    /// credit-stall intervals. Like telemetry, recording never changes
    /// scheduling decisions; policies without instrumentation ignore it.
    /// Policies keep one stall recorder that both readers share.
    fn enable_xray(&mut self, now: SimTime) {
        let _ = now;
    }

    /// The recorded credit-stall intervals as `(lane, start, end)`
    /// tuples, closing any open interval at `now`. Reading leaves the
    /// recorder intact for [`Scheduler::take_metrics`]. `None` if no
    /// stall recorder runs or the policy has no instrumentation.
    fn take_xray(&mut self, now: SimTime) -> Option<Vec<(usize, SimTime, SimTime)>> {
        let _ = now;
        None
    }
}

#[cfg(test)]
pub(crate) mod contract {
    //! Shared conformance checks run against every `Scheduler` impl.

    use super::*;

    /// Drives a scheduler through a submit/poll/complete cycle and checks
    /// the no-loss and work-conservation contracts.
    pub fn check_no_loss_and_conservation(mut s: Box<dyn Scheduler>, items: Vec<WorkItem>) {
        let now = SimTime::ZERO;
        let total = items.len();
        let mut started = 0usize;
        let mut in_flight: Vec<WorkItem> = Vec::new();
        for it in items {
            s.submit(now, it);
        }
        // Repeatedly poll and complete until everything drains.
        let mut guard = 0;
        loop {
            let polled = s.poll(now);
            started += polled.len();
            in_flight.extend(polled);
            if started == total && in_flight.is_empty() {
                break;
            }
            if in_flight.is_empty() {
                panic!(
                    "{}: stalled with {} queued and nothing in flight",
                    s.name(),
                    s.queued()
                );
            }
            let done = in_flight.remove(0);
            s.complete(now, done.lane, done.bytes);
            guard += 1;
            assert!(guard < 100_000, "{}: did not drain", s.name());
        }
        assert_eq!(s.queued(), 0, "{}: items lost", s.name());
    }
}
