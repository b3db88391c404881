//! The fabric's one recorder value and its one ledger: every observer
//! of the wire, and every counter a run reports about it, fed from one
//! lifecycle stream.
//!
//! Each fabric owns exactly one [`Tap`] and calls it at a handful of
//! lifecycle points:
//!
//! * **submit** — a transfer entered the fabric;
//! * **wire start** — it began occupying its two ports (FIFO only: a
//!   fluid flow is on the wire from submission);
//! * **wire end** — it left the wire, by release, drain, kill or cancel;
//! * **delivered** / **dropped** — its end-to-end fate;
//! * **rate sample** — the fluid waterfill's new allocation.
//!
//! The ledger is folded unconditionally at those calls: delivered
//! transfers and bytes, delivered bytes per NIC direction (the cluster's
//! link utilisation and NIC-share denominators), the on-wire count and
//! its peak, and each FIFO port's busy time (the peak port
//! utilisation). No fabric or driver keeps a second copy of any of them.
//!
//! Every recorder is a fold over the same stream: the wire lifecycle log
//! (one [`WireXrayRecord`] per wire end; xray reads it and the span trace
//! projects fields 0, 1, 2, 4 and 5 of it), the per-port metric series,
//! the scope bus's utilisation windows and the contention recorder. Each
//! recorder is an `Option` that is `None` until enabled, so with every
//! recorder off a lifecycle call costs one branch per recorder it could
//! feed. Nothing flows back from the tap into the fabric, so recording
//! cannot change a simulation event; `tests/telemetry_properties.rs`
//! proves it once, for the tap, fault hooks included.
//!
//! The two fabrics differ in how utilisation is observed, not in what is
//! recorded. The FIFO fabric's ports are busy or idle, so its wire start
//! and wire end are the utilisation edges, its queue is the transfers
//! between submit and wire start, and a port's busy time is the sum of
//! its occupancies. The fluid fabric shares ports at max-min rates, so
//! its utilisation and active-flow count are sampled after every
//! waterfill, nothing ever queues, a flow is on the wire from submit to
//! drain, and no port is ever "busy" (its peak port utilisation reads 0).

use bs_sim::SimTime;
use bs_telemetry::{MetricSet, TimeSeries};

use crate::contention::{ContentionLog, ContentionRecorder};
use crate::scope::{ScopeUtil, ScopeWindow};

/// A recorded full transfer lifecycle:
/// `(tag, src, dst, submitted, wire_start, released, delivered)`. A fluid
/// flow starts at submission (`submitted == wire_start`); a killed or
/// cancelled transfer releases and "delivers" (dies) at the kill instant.
pub type WireXrayRecord = (u64, usize, usize, SimTime, SimTime, SimTime, SimTime);

/// Per-port utilisation series (up ports `0..n`, down ports `n..2n`)
/// plus the active and queued transfer counts.
#[derive(Clone, Debug)]
struct NetTelemetry {
    port_util: Vec<TimeSeries>,
    active: TimeSeries,
    queued: TimeSeries,
}

/// The recorder value of one fabric; see the module docs.
#[derive(Clone, Debug)]
pub struct Tap {
    /// Fabric size: ports are `2 * nodes`.
    nodes: usize,
    /// True when utilisation comes from wire start/end edges (FIFO),
    /// false when it comes from rate samples (fluid).
    edges: bool,
    bytes_delivered: u64,
    transfers_delivered: u64,
    /// Delivered payload bytes per port (up `0..n`, down `n..2n`).
    port_bytes: Vec<u64>,
    /// Wire-busy time per port, FIFO only (ended occupancies).
    port_busy: Vec<SimTime>,
    /// Transfers on the wire now, and the most there have been.
    on_wire: usize,
    peak_on_wire: usize,
    /// Wire lifecycle log, in wire-end order.
    wire: Option<Vec<WireXrayRecord>>,
    telem: Option<Box<NetTelemetry>>,
    scope: Option<Box<ScopeUtil>>,
    contention: Option<Box<ContentionRecorder>>,
}

impl Tap {
    /// The tap of a FIFO fabric of `nodes` NICs: utilisation from wire
    /// edges, queue depth from submit and wire start.
    pub(crate) fn fifo(nodes: usize) -> Tap {
        Tap::new(nodes, true)
    }

    /// The tap of a fluid fabric of `nodes` NICs: utilisation from the
    /// waterfill's rate samples.
    pub(crate) fn fluid(nodes: usize) -> Tap {
        Tap::new(nodes, false)
    }

    fn new(nodes: usize, edges: bool) -> Tap {
        Tap {
            nodes,
            edges,
            bytes_delivered: 0,
            transfers_delivered: 0,
            port_bytes: vec![0; 2 * nodes],
            port_busy: vec![SimTime::ZERO; 2 * nodes],
            on_wire: 0,
            peak_on_wire: 0,
            wire: None,
            telem: None,
            scope: None,
            contention: None,
        }
    }

    /// Starts recording the per-port utilisation and the active and
    /// queued transfer series. Both disciplines export the same metric
    /// names; FIFO port utilisation is busy/idle (0 or 1), fluid port
    /// utilisation is the allocated-rate fraction.
    pub fn enable_telemetry(&mut self, now: SimTime) {
        if self.telem.is_none() {
            let mut zero = TimeSeries::new();
            zero.record(now, 0.0);
            self.telem = Some(Box::new(NetTelemetry {
                port_util: vec![zero.clone(); 2 * self.nodes],
                active: zero.clone(),
                queued: zero,
            }));
        }
    }

    /// Takes the recorded metrics with summaries closed at `now`, or
    /// `None` if telemetry was never enabled.
    pub fn take_metrics(&mut self, now: SimTime) -> Option<MetricSet> {
        let t = self.telem.take()?;
        let mut set = MetricSet::new();
        set.horizon = now;
        set.counter("transfers_delivered", self.transfers_delivered);
        set.counter("bytes_delivered", self.bytes_delivered);
        set.series("active_transfers", t.active);
        set.series("queued_transfers", t.queued);
        let mut ports = t.port_util.into_iter();
        for (i, s) in ports.by_ref().take(self.nodes).enumerate() {
            set.series(format!("nic{i}/up_util"), s);
        }
        for (i, s) in ports.enumerate() {
            set.series(format!("nic{i}/down_util"), s);
        }
        Some(set)
    }

    /// Starts aggregating NIC utilisation into grid-aligned tumbling
    /// windows of `window` for the scope bus, from the same lifecycle
    /// points as the telemetry series. Call before the first submission:
    /// the windows start idle.
    pub fn enable_scope(&mut self, now: SimTime, window: SimTime) {
        if self.scope.is_none() {
            self.scope = Some(Box::new(ScopeUtil::new(now, window)));
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

    /// Starts the wire lifecycle log that xray and the span trace read.
    pub fn enable_wire_log(&mut self) {
        if self.wire.is_none() {
            self.wire = Some(Vec::new());
        }
    }

    /// True while the wire lifecycle log records.
    pub fn logs_wire(&self) -> bool {
        self.wire.is_some()
    }

    /// Drains the wire lifecycle log, in wire-end order (release order
    /// on the FIFO fabric, drain order on the fluid one).
    pub fn take_wire_log(&mut self) -> Vec<WireXrayRecord> {
        self.wire.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Starts recording per-NIC-direction active-job sets and occupancy
    /// spans; `job_of` maps a transfer tag to its job index (the cluster
    /// driver passes the driver loop's wire-tag owner).
    pub fn enable_contention(&mut self, now: SimTime, job_of: fn(u64) -> usize) {
        if self.contention.is_none() {
            self.contention = Some(Box::new(ContentionRecorder::new(now, self.nodes, job_of)));
        }
    }

    /// Drains the contention recording, or `None` if it was never
    /// enabled.
    pub fn take_contention(&mut self) -> Option<ContentionLog> {
        self.contention.as_mut().map(|c| c.take())
    }

    /// Payload bytes delivered since construction.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Transfers delivered since construction.
    pub fn transfers_delivered(&self) -> u64 {
        self.transfers_delivered
    }

    /// Payload bytes delivered out of and into `node` since
    /// construction: `(up, down)`.
    pub fn node_bytes(&self, node: usize) -> (u64, u64) {
        (self.port_bytes[node], self.port_bytes[self.nodes + node])
    }

    /// Transfers on the wire now.
    pub fn in_flight(&self) -> usize {
        self.on_wire
    }

    /// Highest number of transfers simultaneously on the wire so far.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_on_wire
    }

    /// Accumulated wire-busy time per port (up `0..n`, down `n..2n`),
    /// aborted occupancies included; all zero on the fluid fabric.
    pub fn port_busy(&self) -> &[SimTime] {
        &self.port_busy
    }

    /// The busiest single port's busy fraction of `makespan`: the
    /// bottleneck resource of a run (0 on the fluid fabric).
    pub fn peak_port_utilisation(&self, makespan: SimTime) -> f64 {
        if makespan.as_nanos() == 0 {
            return 0.0;
        }
        let m = makespan.as_secs_f64();
        self.port_busy
            .iter()
            .map(|b| b.as_secs_f64() / m)
            .fold(0.0, f64::max)
    }

    /// One more transfer on the wire.
    #[inline]
    fn wire_on(&mut self) {
        self.on_wire += 1;
        self.peak_on_wire = self.peak_on_wire.max(self.on_wire);
    }

    /// A transfer entered the fabric at `now`.
    #[inline]
    pub(crate) fn submit(&mut self, now: SimTime, src: usize, dst: usize, tag: u64) {
        if !self.edges {
            self.wire_on();
        } else if let Some(t) = self.telem.as_mut() {
            t.queued.step(now, 1.0);
        }
        if let Some(c) = self.contention.as_mut() {
            c.on_submit(now, src, dst, tag);
        }
    }

    /// A queued transfer began occupying `src`'s uplink and `dst`'s
    /// downlink at `now` (FIFO fabric).
    #[inline]
    pub(crate) fn wire_start(&mut self, now: SimTime, src: usize, dst: usize) {
        self.wire_on();
        if let Some(t) = self.telem.as_mut() {
            t.queued.step(now, -1.0);
            t.active.step(now, 1.0);
            t.port_util[src].record(now, 1.0);
            t.port_util[self.nodes + dst].record(now, 1.0);
        }
        if let Some(sc) = self.scope.as_mut() {
            sc.record(now, 2.0 * self.on_wire as f64);
        }
    }

    /// A transfer of `bytes` left the wire: `rec` is its full lifecycle,
    /// with the wire end at `rec.5`.
    #[inline]
    pub(crate) fn wire_end(&mut self, rec: WireXrayRecord, bytes: u64) {
        let (tag, src, dst, _, start, end, _) = rec;
        if let Some(log) = &mut self.wire {
            log.push(rec);
        }
        self.on_wire -= 1;
        if self.edges {
            let occ = end.saturating_sub(start);
            self.port_busy[src] += occ;
            self.port_busy[self.nodes + dst] += occ;
            if let Some(t) = self.telem.as_mut() {
                t.active.step(end, -1.0);
                t.port_util[src].record(end, 0.0);
                t.port_util[self.nodes + dst].record(end, 0.0);
            }
            if let Some(sc) = self.scope.as_mut() {
                sc.record(end, 2.0 * self.on_wire as f64);
            }
        }
        if let Some(c) = self.contention.as_mut() {
            c.on_wire(src, dst, tag, bytes, start, end);
        }
    }

    /// A transfer of `bytes` was delivered end-to-end at `now`.
    #[inline]
    pub(crate) fn delivered(&mut self, now: SimTime, src: usize, dst: usize, tag: u64, bytes: u64) {
        self.bytes_delivered += bytes;
        self.transfers_delivered += 1;
        self.port_bytes[src] += bytes;
        self.port_bytes[self.nodes + dst] += bytes;
        if let Some(c) = self.contention.as_mut() {
            c.on_delivered(now, src, dst, tag);
        }
    }

    /// A transfer was dropped at `now` and will never deliver; `queued`
    /// when it had not reached the wire yet.
    #[inline]
    pub(crate) fn dropped(&mut self, now: SimTime, src: usize, dst: usize, tag: u64, queued: bool) {
        if queued {
            if let Some(t) = self.telem.as_mut() {
                t.queued.step(now, -1.0);
            }
        }
        if let Some(c) = self.contention.as_mut() {
            c.on_dropped(now, src, dst, tag);
        }
    }

    /// The fluid waterfill's allocation, in force from `at`: `active`
    /// flows, `port_rate(p)` allocated on port `p`, `total_rate` over all
    /// flows, against per-port capacity `cap`.
    ///
    /// The scope bus takes the aggregate: a window's `util_secs` sums
    /// over every port direction, and each flow's rate lands on exactly
    /// two directions, so `2 * total_rate / cap` is the whole signal at
    /// a fraction of the per-port cost.
    #[inline]
    pub(crate) fn rate_sample(
        &mut self,
        at: SimTime,
        cap: f64,
        active: usize,
        total_rate: f64,
        port_rate: impl Fn(usize) -> f64,
    ) {
        if let Some(t) = self.telem.as_mut() {
            for (p, s) in t.port_util.iter_mut().enumerate() {
                s.record(at, port_rate(p) / cap);
            }
            t.active.record(at, active as f64);
        }
        if let Some(sc) = self.scope.as_mut() {
            sc.record(at, 2.0 * total_rate / cap);
        }
    }
}
