//! The traced single-job run: the benchmark's own copy of the runtime's
//! single-job event loop, driven through the public API (`Fabric::new`,
//! `JobState::build`, `seed_background`, `advance`, `handle`,
//! `next_event_time`, `into_result`), with a span around every call into
//! a layer and the fabric wrapped in a timing [`NetPort`].
//!
//! Nothing inside the program is instrumented: a span covers one call
//! made from this file, and a layer's self time is its spans' duration
//! minus their child spans. The loop is only trusted while it reproduces
//! `bs_runtime::run` — the caller compares digests before reporting.

use std::cell::RefCell;
use std::time::Instant;

use bs_net::{DroppedTransfer, Fabric, NetEvent, NetPort, NodeId, TransferId};
use bs_runtime::{JobEvent, JobNetStats, JobState, NodeMap, RunResult, WorldConfig};
use bs_sim::SimTime;

/// The layer a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// The whole traced pass; its self time is the driver loop itself.
    Loop,
    /// `Fabric::new` + `JobState::build`.
    Build,
    /// `JobState::into_result` and the fabric's closing counters.
    Finish,
    /// `JobState::handle` of a fabric delivery (PS comm, scheduler).
    HandleNet,
    /// `JobState::handle` of an engine event (plugin, scheduler submit).
    HandleEngine,
    /// `JobState::handle` of a ring completion (ring comm).
    HandleRing,
    /// `JobState::advance` (GPU-op retire, ring stream, bursts).
    Advance,
    /// `JobState::next_event_time`.
    NextEvent,
    /// `NetPort::submit` on the fabric.
    NetSubmit,
    /// `NetPort::advance_into` on the fabric.
    NetAdvance,
    /// `NetPort::next_event_time` and `wants_advance` (clock queries).
    NetNextEvent,
    /// `ReplayService::submit_batch` of one what-if batch.
    Batch,
}

pub const LAYERS: [Layer; 12] = [
    Layer::Loop,
    Layer::Build,
    Layer::Finish,
    Layer::HandleNet,
    Layer::HandleEngine,
    Layer::HandleRing,
    Layer::Advance,
    Layer::NextEvent,
    Layer::NetSubmit,
    Layer::NetAdvance,
    Layer::NetNextEvent,
    Layer::Batch,
];

impl Layer {
    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Loop => "runtime.loop",
            Layer::Build => "runtime.build",
            Layer::Finish => "runtime.finish",
            Layer::HandleNet => "runtime.handle_net",
            Layer::HandleEngine => "runtime.handle_engine",
            Layer::HandleRing => "runtime.handle_ring",
            Layer::Advance => "runtime.advance",
            Layer::NextEvent => "runtime.next_event",
            Layer::NetSubmit => "net.submit",
            Layer::NetAdvance => "net.advance",
            Layer::NetNextEvent => "net.next_event",
            Layer::Batch => "replay.batch",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One timed call. `parent` is the enclosing span (the benchmark-side
/// call that made it); `req` is the job iteration the call served.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span still open on the tracer's stack.
struct Open {
    layer: Layer,
    /// Index of the stored span, or [`NO_PARENT`] past the store's cap.
    idx: u32,
    start_ns: u64,
    /// Summed duration of the closed direct children.
    child_ns: u64,
}

/// Per-layer totals of the spans a [`Tracer`] has closed.
#[derive(Clone, Debug, Default)]
pub struct PassProfile {
    /// Calls per layer, indexed like [`LAYERS`].
    pub calls: [u64; LAYERS.len()],
    /// Self nanoseconds per layer, indexed like [`LAYERS`].
    pub self_ns: [u64; LAYERS.len()],
    /// Summed duration of the root spans.
    pub wall_ns: u64,
    /// Fabric deliveries, payload bytes and in-flight high-water mark.
    pub deliveries: u64,
    pub bytes: u64,
    pub peak_in_flight: u64,
}

/// Span timer. Every closed span is folded into a [`PassProfile`] at
/// once, so memory stays flat however many calls a pass makes; only the
/// first `keep` spans are stored, for writing out.
pub struct Tracer {
    t0: Instant,
    keep: usize,
    spans: Vec<Span>,
    open: Vec<Open>,
    req: u32,
    profile: PassProfile,
}

impl Tracer {
    /// A tracer that stores at most `keep` spans.
    pub fn new(keep: usize) -> Tracer {
        Tracer {
            t0: Instant::now(),
            keep,
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
            profile: PassProfile::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter_at(&mut self, layer: Layer, start_ns: u64) {
        let parent = self.open.last().map_or(NO_PARENT, |o| o.idx);
        let idx = if self.spans.len() < self.keep {
            self.spans.push(Span {
                layer,
                parent,
                req: self.req,
                start_ns,
                end_ns: start_ns,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.open.push(Open {
            layer,
            idx,
            start_ns,
            child_ns: 0,
        });
    }

    fn exit_at(&mut self, layer: Layer, end_ns: u64) {
        let o = self.open.pop().expect("a span to close");
        assert_eq!(o.layer, layer, "spans must close innermost first");
        let dur = end_ns - o.start_ns;
        let i = layer as usize;
        self.profile.calls[i] += 1;
        self.profile.self_ns[i] += dur - o.child_ns;
        match self.open.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => self.profile.wall_ns += dur,
        }
        if o.idx != NO_PARENT {
            self.spans[o.idx as usize].end_ns = end_ns;
        }
    }

    /// Tags subsequently opened spans with request `req`.
    pub fn set_req(&mut self, req: u32) {
        self.req = req;
    }

    pub fn profile(&self) -> &PassProfile {
        &self.profile
    }

    /// The stored spans and the folded profile.
    pub fn finish(self) -> (Vec<Span>, PassProfile) {
        assert!(self.open.is_empty(), "every span must be closed");
        (self.spans, self.profile)
    }
}

/// Times `f` as one span of `layer`. The span closes even when `f`
/// panics, so a contained panic leaves the tracer usable.
pub fn span<T>(tr: &RefCell<Tracer>, layer: Layer, f: impl FnOnce() -> T) -> T {
    {
        let mut t = tr.borrow_mut();
        let start = t.now_ns();
        t.enter_at(layer, start);
    }
    let _close = Close(tr, layer);
    f()
}

/// Closes the innermost span on drop. Guards drop innermost first, so
/// the span it closes is its own.
struct Close<'a>(&'a RefCell<Tracer>, Layer);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        // A drop must not panic: a tracer still borrowed here (only if a
        // panic unwound from inside the tracer itself) is left open.
        if let Ok(mut t) = self.0.try_borrow_mut() {
            let end = t.now_ns();
            t.exit_at(self.1, end);
        }
    }
}

/// A [`NetPort`] that forwards to a real fabric and spans the calls the
/// single-job loop makes. The fault hooks are forwarded untimed: no
/// benchmark workload carries a fault plan.
struct TimedPort<'a, P> {
    inner: &'a mut P,
    tr: &'a RefCell<Tracer>,
}

impl<P: NetPort> NetPort for TimedPort<'_, P> {
    fn submit(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
    ) -> TransferId {
        let inner = &mut *self.inner;
        span(self.tr, Layer::NetSubmit, || {
            inner.submit(now, src, dst, bytes, tag)
        })
    }

    fn next_event_time(&self) -> SimTime {
        span(self.tr, Layer::NetNextEvent, || {
            self.inner.next_event_time()
        })
    }

    fn wants_advance(&self, now: SimTime) -> bool {
        span(self.tr, Layer::NetNextEvent, || {
            self.inner.wants_advance(now)
        })
    }

    fn advance_into(&mut self, now: SimTime, out: &mut Vec<NetEvent>) {
        let inner = &mut *self.inner;
        span(self.tr, Layer::NetAdvance, || inner.advance_into(now, out))
    }

    fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
        self.inner.set_port_scale(now, node, up, scale)
    }

    fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
        self.inner.kill_port(now, node)
    }

    fn revive_port(&mut self, now: SimTime, node: NodeId) {
        self.inner.revive_port(now, node)
    }

    fn cancel_where(
        &mut self,
        now: SimTime,
        pred: &mut dyn FnMut(u64) -> bool,
    ) -> Vec<DroppedTransfer> {
        self.inner.cancel_where(now, pred)
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn queued(&self) -> usize {
        self.inner.queued()
    }

    fn for_each_pending_tag(&self, f: &mut dyn FnMut(u64)) {
        self.inner.for_each_pending_tag(f)
    }
}

/// Runs `cfg` (recorders off) through the traced loop, storing at most
/// `keep` spans. Returns the result, the folded profile, and the stored
/// spans. The root span covers the whole call but the tracer's own
/// creation, including dropping the fabric and the job.
pub fn run_traced(cfg: &WorldConfig, keep: usize) -> (RunResult, PassProfile, Vec<Span>) {
    assert!(
        !cfg.record_trace && !cfg.record_metrics && !cfg.record_xray,
        "the traced loop reproduces the recorders-off run only"
    );
    let tr = RefCell::new(Tracer::new(keep));
    let (result, counters) = span(&tr, Layer::Loop, || {
        let (mut fabric, mut job) = span(&tr, Layer::Build, || {
            let nodes = JobState::fabric_nodes_needed(cfg);
            let fabric = Fabric::new(cfg.fabric, nodes.max(2), cfg.net);
            (fabric, JobState::build(cfg, NodeMap::identity(nodes)))
        });
        let now = match &mut fabric {
            Fabric::Fifo(n) => drive(&mut job, n, &tr),
            Fabric::Fluid(n) => drive(&mut job, n, &tr),
        };
        span(&tr, Layer::Finish, || {
            let net = JobNetStats {
                p2p_bytes: fabric.bytes_delivered(),
                comm_events: fabric.transfers_delivered(),
                peak_in_flight: fabric.peak_in_flight(),
                peak_port_utilisation: fabric.peak_port_utilisation(now),
            };
            let counters = (net.comm_events, net.p2p_bytes, net.peak_in_flight as u64);
            (job.into_result(cfg, now, net), counters)
        })
    });
    let (spans, mut profile) = tr.into_inner().finish();
    (profile.deliveries, profile.bytes, profile.peak_in_flight) = counters;
    (result, profile, spans)
}

/// The single-job loop, call for call as the runtime's own: drain the
/// cascade at the current instant, stop when done, jump to the earliest
/// job or fabric event, advance the job, then the fabric.
fn drive<P: NetPort>(job: &mut JobState, fabric: &mut P, tr: &RefCell<Tracer>) -> SimTime {
    let mut port = TimedPort { inner: fabric, tr };
    let mut now = SimTime::ZERO;
    job.seed_background(now, &mut port);
    let mut queue: Vec<JobEvent> = Vec::new();
    let mut net_events: Vec<NetEvent> = Vec::new();
    loop {
        tr.borrow_mut().set_req(job.completed_iterations() as u32);
        while let Some(ev) = queue.pop() {
            let layer = match ev {
                JobEvent::Net(_) => Layer::HandleNet,
                JobEvent::Engine(..) => Layer::HandleEngine,
                JobEvent::Ring(_) => Layer::HandleRing,
            };
            span(tr, layer, || job.handle(ev, now, &mut port, &mut queue));
        }
        if job.done() {
            return now;
        }
        let t = span(tr, Layer::NextEvent, || job.next_event_time()).min(port.next_event_time());
        assert!(!t.is_never(), "traced simulation stalled at {now}");
        now = t;
        span(tr, Layer::Advance, || job.advance(t, &mut port, &mut queue));
        if port.wants_advance(t) {
            port.advance_into(t, &mut net_events);
            queue.extend(net_events.drain(..).map(JobEvent::Net));
        }
    }
}

/// Renders spans as JSON lines, one span per line, in start order.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"id\":{i},\"layer\":\"{}\",\"parent\":{parent},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.layer.name(),
            s.req,
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays (layer, enter?, ns) steps through a tracer with a fake
    /// clock.
    fn replay(keep: usize, steps: &[(Layer, bool, u64)]) -> Tracer {
        let mut t = Tracer::new(keep);
        for &(layer, enter, ns) in steps {
            if enter {
                t.enter_at(layer, ns);
            } else {
                t.exit_at(layer, ns);
            }
        }
        t
    }

    const PASS: [(Layer, bool, u64); 10] = [
        (Layer::Loop, true, 0),
        (Layer::HandleNet, true, 10),
        (Layer::NetSubmit, true, 20),
        (Layer::NetSubmit, false, 30),
        (Layer::NetSubmit, true, 35),
        (Layer::NetSubmit, false, 40),
        (Layer::HandleNet, false, 50),
        (Layer::Advance, true, 60),
        (Layer::Advance, false, 70),
        (Layer::Loop, false, 100),
    ];

    #[test]
    fn self_times_are_duration_minus_direct_children() {
        let (spans, p) = replay(usize::MAX, &PASS).finish();
        assert_eq!(p.wall_ns, 100);
        assert_eq!(p.self_ns.iter().sum::<u64>(), 100);
        assert_eq!(p.self_ns[Layer::HandleNet as usize], 25);
        assert_eq!(p.self_ns[Layer::NetSubmit as usize], 15);
        assert_eq!(p.calls[Layer::NetSubmit as usize], 2);
        assert_eq!(p.self_ns[Layer::Loop as usize], 50);
        assert_eq!(spans.len(), 5);
        assert_eq!(
            (spans[2].parent, spans[2].start_ns, spans[2].end_ns),
            (1, 20, 30)
        );
        assert_eq!(spans[4].parent, 0);
    }

    #[test]
    fn the_span_store_is_capped_but_the_profile_is_not() {
        let (spans, p) = replay(2, &PASS).finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(p.calls[Layer::NetSubmit as usize], 2);
        assert_eq!(p.wall_ns, 100);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_must_nest() {
        replay(
            8,
            &[
                (Layer::Loop, true, 0),
                (Layer::HandleNet, true, 10),
                (Layer::Loop, false, 20),
            ],
        );
    }

    #[test]
    fn layer_table_is_indexed_by_discriminant() {
        for (i, l) in LAYERS.iter().enumerate() {
            assert_eq!(*l as usize, i);
        }
    }
}
