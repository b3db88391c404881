//! Grid-aligned tumbling NIC-utilisation windows for the observation bus.
//!
//! bs-telemetry records per-direction utilisation as full time series and
//! summarises them after the run; the scope bus needs the opposite shape
//! — a bounded stream of pre-aggregated windows it can surface *during*
//! the run. [`ScopeUtil`] is one of the folds inside the fabric's
//! [`Tap`](crate::tap::Tap), fed at the same lifecycle calls as the
//! telemetry series (FIFO wire start and end, fluid rate samples) with
//! one number: the utilisation summed over every port direction (on the
//! FIFO fabric twice the tap's on-wire count, on the fluid one twice the
//! waterfill's total rate over port capacity). So a
//! window's `util_secs` integrates the sum of the piecewise-constant
//! utilisation functions the telemetry series describe: the sum of
//! windowed integrals equals the sum of `TimeSeries::integral_secs` over
//! every port direction (up to float associativity from splitting
//! segments at window boundaries — pinned by proptest in
//! `tests/scope_schema.rs`).
//!
//! Like the telemetry it mirrors, this is recording-only: values flow in,
//! nothing flows back into the allocator.

use bs_sim::SimTime;

/// One closed tumbling window of summed NIC utilisation, over every port
/// direction of the fabric. `util_secs` is the exact integral of summed
/// utilisation over [`start`, `end`); `mean_util` divides it by the
/// window duration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScopeWindow {
    /// Window start (grid-aligned).
    pub start: SimTime,
    /// Window end (grid-aligned, or the finish instant for the final
    /// partial window).
    pub end: SimTime,
    /// Port-seconds of utilisation inside the window.
    pub util_secs: f64,
    /// `util_secs` divided by the window duration.
    pub mean_util: f64,
}

/// Streaming utilisation integrator: integrates the fabric's summed
/// utilisation and closes a [`ScopeWindow`] every time the clock crosses
/// a grid boundary. Zero-utilisation windows are skipped so idle
/// stretches cost nothing.
#[derive(Clone, Debug)]
pub(crate) struct ScopeUtil {
    /// Window width in nanoseconds (grid anchored at t=0).
    width: u64,
    /// Current summed utilisation, as last recorded.
    cur: f64,
    /// The load being integrated: `cur`, updated by differences and
    /// reset to `cur` at window boundaries, so float drift from the
    /// incremental updates stays window-local.
    load: f64,
    /// Instant the integration has reached.
    last: SimTime,
    /// Index of the open window (`last` is inside it).
    win: u64,
    /// Utilisation-seconds accumulated in the open window.
    acc: f64,
    /// Closed windows awaiting a drain.
    done: Vec<ScopeWindow>,
}

impl ScopeUtil {
    /// An idle integrator starting at `now`, with grid-aligned windows
    /// of `width`.
    pub(crate) fn new(now: SimTime, width: SimTime) -> ScopeUtil {
        let width = width.as_nanos().max(1);
        ScopeUtil {
            width,
            cur: 0.0,
            load: 0.0,
            last: now,
            win: now.as_nanos() / width,
            acc: 0.0,
            done: Vec::new(),
        }
    }

    /// Integrates the current load up to `now`, closing every window
    /// boundary crossed on the way.
    fn advance(&mut self, now: SimTime) {
        let end = now.as_nanos();
        let mut t = self.last.as_nanos();
        while t < end {
            let boundary = self.win.saturating_add(1).saturating_mul(self.width);
            let stop = boundary.min(end);
            self.acc += self.load * (stop - t) as f64 * 1e-9;
            if stop == boundary {
                self.close(SimTime::from_nanos(boundary));
                self.win += 1;
                self.load = self.cur;
            }
            t = stop;
        }
        self.last = now;
    }

    /// Closes the open window ending at `end`, skipping idle windows.
    fn close(&mut self, end: SimTime) {
        if self.acc > 0.0 {
            let start = SimTime::from_nanos(self.win.saturating_mul(self.width));
            let dur = (end - start).as_secs_f64();
            self.done.push(ScopeWindow {
                start,
                end,
                util_secs: self.acc,
                mean_util: if dur > 0.0 { self.acc / dur } else { 0.0 },
            });
        }
        self.acc = 0.0;
    }

    /// Records the summed utilisation switching to `v` at `now` — called
    /// from the same sites that feed the fabric telemetry series.
    pub(crate) fn record(&mut self, now: SimTime, v: f64) {
        self.advance(now);
        self.load += v - self.cur;
        self.cur = v;
    }

    /// Integrates to `now` and closes the final partial window.
    pub(crate) fn finish(&mut self, now: SimTime) {
        self.advance(now);
        if now > SimTime::from_nanos(self.win.saturating_mul(self.width)) {
            self.close(now);
        }
    }

    /// Moves every closed window into `out`, oldest first.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<ScopeWindow>) {
        out.append(&mut self.done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn windows_integrate_the_step_function_exactly() {
        let mut u = ScopeUtil::new(SimTime::ZERO, SimTime::from_millis(100));
        u.record(SimTime::from_nanos(10 * MS), 1.0);
        u.record(SimTime::from_nanos(30 * MS), 2.0); // load 2 from 30ms
        u.record(SimTime::from_nanos(50 * MS), 1.0); // load 1 from 50ms
        u.finish(SimTime::from_nanos(250 * MS));
        let mut out = Vec::new();
        u.drain_into(&mut out);
        // Window 0: 20ms@1 + 20ms@2 + 50ms@1 = 0.110 port-seconds.
        // Window 1: 100ms@1. Window 2 (partial to 250ms): 50ms@1.
        assert_eq!(out.len(), 3);
        assert!((out[0].util_secs - 0.110).abs() < 1e-12, "{out:?}");
        assert!((out[1].util_secs - 0.100).abs() < 1e-12);
        assert!((out[2].util_secs - 0.050).abs() < 1e-12);
        assert_eq!(out[2].end, SimTime::from_nanos(250 * MS));
        assert!(
            (out[2].mean_util - 1.0).abs() < 1e-12,
            "partial window mean"
        );
        let total: f64 = out.iter().map(|w| w.util_secs).sum();
        assert!((total - 0.260).abs() < 1e-12);
    }

    #[test]
    fn idle_windows_are_skipped() {
        let mut u = ScopeUtil::new(SimTime::ZERO, SimTime::from_millis(10));
        u.record(SimTime::from_nanos(2 * MS), 1.0);
        u.record(SimTime::from_nanos(4 * MS), 0.0);
        // A long idle gap crossing many boundaries…
        u.record(SimTime::from_secs(2), 1.0);
        u.finish(SimTime::from_secs(2) + SimTime::from_millis(1));
        let mut out = Vec::new();
        u.drain_into(&mut out);
        assert_eq!(out.len(), 2, "only the two busy windows: {out:?}");
        assert_eq!(out[0].start, SimTime::ZERO);
        assert_eq!(out[1].start, SimTime::from_secs(2));
    }
}
