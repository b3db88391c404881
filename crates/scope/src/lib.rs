//! In-run observation bus: live structured lifecycle events on the
//! simulation clock.
//!
//! Everything observability-shaped before this crate was *post hoc*:
//! bs-telemetry summarises time series after the run, bs-xray analyses a
//! causal log after the run, the contention observatory reduces spans
//! after the run. The paper's §3.5 adaptation loop — and every adaptive
//! follow-up on the roadmap (AutoByte-style online re-tuning, reactive
//! cluster operations) — needs the opposite: signals *while the run is
//! in progress*, at the simulated instant they happen.
//!
//! [`ScopeBus`] is that substrate. Run loops publish [`ScopeEvent`]s as
//! they occur (iteration boundaries with their wall/stall split,
//! retransmits, fault firings, replay wave admissions, what-if batches);
//! the bus keeps a bounded ring of recent events, derives **windowed
//! rollups** online (iteration-time EMA, tumbling comm-stall windows;
//! NIC-utilisation windows arrive pre-aggregated from the fabrics), and
//! fans everything out to subscribers: the [`FlightRecorder`] serialises
//! a schema-versioned `events.jsonl`, the [`WatchTable`] prints a live
//! progress/anomaly table, and bs-tune's live drift detector turns
//! iteration events into mid-run `Drift` events.
//!
//! Ordering contract: publishers deliver events in exact simulation
//! order per job, and a derived event is dispatched immediately after
//! the event that caused it, so the recorded stream is byte-deterministic
//! for a given seed.
//!
//! Like every recording layer in this repo the bus is off by default and
//! recording-only: it borrows copies of values the run loops already
//! compute and never feeds anything back, so enabling it cannot change a
//! result (pinned by equality tests in bs-runtime and bs-cluster).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use bs_sim::SimTime;
use serde_json::Value;

/// Schema version stamped on every flight-recorder row (`"v"`).
pub const EVENTS_SCHEMA_VERSION: u64 = 1;

/// The committed `events.jsonl` row schema, embedded so validation never
/// depends on the working directory. Byte-identity with the committed
/// file is pinned by test.
pub const EVENTS_SCHEMA: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/events.schema.json"
));

/// EMA weight of the newest iteration in the online iteration-time
/// rollup — the same smoothing horizon as `DriftDetector::paper_default`.
pub const EMA_ALPHA: f64 = 0.3;

/// Default tumbling-window width for the online stall rollup.
pub const DEFAULT_WINDOW: SimTime = SimTime::from_millis(100);

/// Default bound on the in-memory ring of recent events.
pub const DEFAULT_RING: usize = 1024;

/// One structured lifecycle event on the simulation clock.
///
/// Events are small `Copy` rows; `at` is the simulated instant the event
/// happened (after the publishing bus applied its epoch offset).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScopeEvent {
    /// Worker 0 finished an iteration: the per-iteration progress pulse.
    /// `iter` is the 0-based iteration mark index (warmup included),
    /// `wall_secs` the time since the previous mark, split into GPU-busy
    /// and communication-stall seconds exactly as bs-telemetry accounts
    /// them. `retries` counts retransmits scheduled during the iteration.
    IterDone {
        job: usize,
        at: SimTime,
        iter: u64,
        wall_secs: f64,
        busy_secs: f64,
        stall_secs: f64,
        retries: u64,
    },
    /// A lost partition was scheduled for retransmission (bs-faults).
    Retransmit {
        job: usize,
        at: SimTime,
        worker: usize,
        tensor: u32,
        part: u32,
        iter: u64,
        bytes: u64,
        attempt: u32,
        rerouted: bool,
    },
    /// A timed link event from the fault plan fired on the fabric.
    FaultFired {
        job: usize,
        at: SimTime,
        kind: &'static str,
        node: usize,
        scale: f64,
    },
    /// Tumbling-window NIC utilisation, pre-aggregated by the fabric:
    /// `util_secs` is the exact port-seconds of utilisation inside
    /// [`start`, `at`), `mean_util` that integral divided by the window
    /// width (utilisation is summed over all port directions).
    NetWindow {
        start: SimTime,
        at: SimTime,
        util_secs: f64,
        mean_util: f64,
    },
    /// Tumbling-window communication-stall fraction for one job, derived
    /// online from `IterDone` events (an iteration is attributed to the
    /// window containing its completion).
    StallWindow {
        job: usize,
        start: SimTime,
        at: SimTime,
        wall_secs: f64,
        stall_secs: f64,
        stall_frac: f64,
    },
    /// Online iteration-time EMA, updated on every `IterDone`.
    IterEma {
        job: usize,
        at: SimTime,
        iter: u64,
        ema_secs: f64,
    },
    /// A live drift subscriber detected a throughput shift mid-run.
    Drift {
        job: usize,
        at: SimTime,
        iter: u64,
        baseline: f64,
        observed: f64,
    },
    /// A replay wave was admitted to the cluster (bs-replay).
    WaveAdmitted {
        wave: usize,
        at: SimTime,
        jobs: usize,
    },
    /// A replay wave drained; JCT summary over its jobs.
    WaveDone {
        wave: usize,
        at: SimTime,
        jobs: usize,
        jct_mean_secs: f64,
        jct_max_secs: f64,
    },
    /// One what-if batch answered by the `ReplayService` (the service
    /// runs on the wall clock, so `at` is the bus offset — zero unless
    /// the publisher set one).
    WhatIfBatch {
        batch: u64,
        at: SimTime,
        queries: usize,
        computed: usize,
        cache_hits: usize,
        batch_dedup: usize,
    },
    /// A machine failure forced the job to checkpoint: `iter` is the
    /// iteration barrier it checkpointed at, `machine` the failed machine,
    /// `cost_secs` the §7 checkpoint-restart price it will pay before
    /// resuming.
    Checkpoint {
        job: usize,
        at: SimTime,
        machine: usize,
        iter: u64,
        cost_secs: f64,
    },
    /// One of a checkpointed job's nodes was remapped onto a surviving
    /// machine: job-local `node` moves `from_machine` → `to_machine`.
    Migrate {
        job: usize,
        at: SimTime,
        node: usize,
        from_machine: usize,
        to_machine: usize,
    },
    /// A checkpointed job resumed on its new placement: `iter` is the
    /// barrier it restarts from, `lost_iters` the iterations it re-runs.
    Resume {
        job: usize,
        at: SimTime,
        iter: u64,
        lost_iters: u64,
    },
}

impl ScopeEvent {
    /// The `"type"` discriminator used in flight-recorder rows.
    pub fn kind(&self) -> &'static str {
        match self {
            ScopeEvent::IterDone { .. } => "iter_done",
            ScopeEvent::Retransmit { .. } => "retransmit",
            ScopeEvent::FaultFired { .. } => "fault_fired",
            ScopeEvent::NetWindow { .. } => "net_window",
            ScopeEvent::StallWindow { .. } => "stall_window",
            ScopeEvent::IterEma { .. } => "iter_ema",
            ScopeEvent::Drift { .. } => "drift",
            ScopeEvent::WaveAdmitted { .. } => "wave_admitted",
            ScopeEvent::WaveDone { .. } => "wave_done",
            ScopeEvent::WhatIfBatch { .. } => "whatif_batch",
            ScopeEvent::Checkpoint { .. } => "checkpoint",
            ScopeEvent::Migrate { .. } => "migrate",
            ScopeEvent::Resume { .. } => "resume",
        }
    }

    /// The simulated instant of the event.
    pub fn at(&self) -> SimTime {
        match *self {
            ScopeEvent::IterDone { at, .. }
            | ScopeEvent::Retransmit { at, .. }
            | ScopeEvent::FaultFired { at, .. }
            | ScopeEvent::NetWindow { at, .. }
            | ScopeEvent::StallWindow { at, .. }
            | ScopeEvent::IterEma { at, .. }
            | ScopeEvent::Drift { at, .. }
            | ScopeEvent::WaveAdmitted { at, .. }
            | ScopeEvent::WaveDone { at, .. }
            | ScopeEvent::WhatIfBatch { at, .. }
            | ScopeEvent::Checkpoint { at, .. }
            | ScopeEvent::Migrate { at, .. }
            | ScopeEvent::Resume { at, .. } => at,
        }
    }

    /// The job the event belongs to, if it is job-scoped.
    pub fn job(&self) -> Option<usize> {
        match *self {
            ScopeEvent::IterDone { job, .. }
            | ScopeEvent::Retransmit { job, .. }
            | ScopeEvent::FaultFired { job, .. }
            | ScopeEvent::StallWindow { job, .. }
            | ScopeEvent::IterEma { job, .. }
            | ScopeEvent::Drift { job, .. }
            | ScopeEvent::Checkpoint { job, .. }
            | ScopeEvent::Migrate { job, .. }
            | ScopeEvent::Resume { job, .. } => Some(job),
            _ => None,
        }
    }

    /// Shifts every timestamp by `off` — how a bus with a nonzero epoch
    /// offset maps run-relative events to absolute trace time.
    fn shift(mut self, off: SimTime) -> ScopeEvent {
        if off == SimTime::ZERO {
            return self;
        }
        let add = |t: SimTime| SimTime::from_nanos(t.as_nanos().saturating_add(off.as_nanos()));
        match &mut self {
            ScopeEvent::IterDone { at, .. }
            | ScopeEvent::Retransmit { at, .. }
            | ScopeEvent::FaultFired { at, .. }
            | ScopeEvent::IterEma { at, .. }
            | ScopeEvent::Drift { at, .. }
            | ScopeEvent::WaveAdmitted { at, .. }
            | ScopeEvent::WaveDone { at, .. }
            | ScopeEvent::WhatIfBatch { at, .. }
            | ScopeEvent::Checkpoint { at, .. }
            | ScopeEvent::Migrate { at, .. }
            | ScopeEvent::Resume { at, .. } => *at = add(*at),
            ScopeEvent::NetWindow { start, at, .. } | ScopeEvent::StallWindow { start, at, .. } => {
                *start = add(*start);
                *at = add(*at);
            }
        }
        self
    }

    /// Serialises the event as one flat flight-recorder row:
    /// `{"v": 1, "type": ..., "t_ns": ..., <variant fields>}`, matching
    /// `results/events.schema.json`.
    pub fn to_json(&self) -> Value {
        let mut row = vec![
            ("v".to_string(), Value::U64(EVENTS_SCHEMA_VERSION)),
            ("type".to_string(), Value::Str(self.kind().to_string())),
            ("t_ns".to_string(), Value::U64(self.at().as_nanos())),
        ];
        let mut put = |k: &str, v: Value| row.push((k.to_string(), v));
        let u = |x: u64| Value::U64(x);
        let f = Value::F64;
        match *self {
            ScopeEvent::IterDone {
                job,
                at: _,
                iter,
                wall_secs,
                busy_secs,
                stall_secs,
                retries,
            } => {
                put("job", u(job as u64));
                put("iter", u(iter));
                put("wall_secs", f(wall_secs));
                put("busy_secs", f(busy_secs));
                put("stall_secs", f(stall_secs));
                put("retries", u(retries));
            }
            ScopeEvent::Retransmit {
                job,
                at: _,
                worker,
                tensor,
                part,
                iter,
                bytes,
                attempt,
                rerouted,
            } => {
                put("job", u(job as u64));
                put("worker", u(worker as u64));
                put("tensor", u(tensor as u64));
                put("part", u(part as u64));
                put("iter", u(iter));
                put("bytes", u(bytes));
                put("attempt", u(attempt as u64));
                put("rerouted", Value::Bool(rerouted));
            }
            ScopeEvent::FaultFired {
                job,
                at: _,
                kind,
                node,
                scale,
            } => {
                put("job", u(job as u64));
                put("kind", Value::Str(kind.to_string()));
                put("node", u(node as u64));
                put("scale", f(scale));
            }
            ScopeEvent::NetWindow {
                start,
                at: _,
                util_secs,
                mean_util,
            } => {
                put("start_ns", u(start.as_nanos()));
                put("util_secs", f(util_secs));
                put("mean_util", f(mean_util));
            }
            ScopeEvent::StallWindow {
                job,
                start,
                at: _,
                wall_secs,
                stall_secs,
                stall_frac,
            } => {
                put("job", u(job as u64));
                put("start_ns", u(start.as_nanos()));
                put("wall_secs", f(wall_secs));
                put("stall_secs", f(stall_secs));
                put("stall_frac", f(stall_frac));
            }
            ScopeEvent::IterEma {
                job,
                at: _,
                iter,
                ema_secs,
            } => {
                put("job", u(job as u64));
                put("iter", u(iter));
                put("ema_secs", f(ema_secs));
            }
            ScopeEvent::Drift {
                job,
                at: _,
                iter,
                baseline,
                observed,
            } => {
                put("job", u(job as u64));
                put("iter", u(iter));
                put("baseline", f(baseline));
                put("observed", f(observed));
            }
            ScopeEvent::WaveAdmitted { wave, at: _, jobs } => {
                put("wave", u(wave as u64));
                put("jobs", u(jobs as u64));
            }
            ScopeEvent::WaveDone {
                wave,
                at: _,
                jobs,
                jct_mean_secs,
                jct_max_secs,
            } => {
                put("wave", u(wave as u64));
                put("jobs", u(jobs as u64));
                put("jct_mean_secs", f(jct_mean_secs));
                put("jct_max_secs", f(jct_max_secs));
            }
            ScopeEvent::WhatIfBatch {
                batch,
                at: _,
                queries,
                computed,
                cache_hits,
                batch_dedup,
            } => {
                put("batch", u(batch));
                put("queries", u(queries as u64));
                put("computed", u(computed as u64));
                put("cache_hits", u(cache_hits as u64));
                put("batch_dedup", u(batch_dedup as u64));
            }
            ScopeEvent::Checkpoint {
                job,
                at: _,
                machine,
                iter,
                cost_secs,
            } => {
                put("job", u(job as u64));
                put("machine", u(machine as u64));
                put("iter", u(iter));
                put("cost_secs", f(cost_secs));
            }
            ScopeEvent::Migrate {
                job,
                at: _,
                node,
                from_machine,
                to_machine,
            } => {
                put("job", u(job as u64));
                put("node", u(node as u64));
                put("from_machine", u(from_machine as u64));
                put("to_machine", u(to_machine as u64));
            }
            ScopeEvent::Resume {
                job,
                at: _,
                iter,
                lost_iters,
            } => {
                put("job", u(job as u64));
                put("iter", u(iter));
                put("lost_iters", u(lost_iters));
            }
        }
        Value::Object(row)
    }
}

/// A bus subscriber. `on_event` sees every event (published and derived)
/// in dispatch order and may emit *derived* events by pushing onto
/// `out`; derived events are dispatched — to every subscriber and the
/// ring — immediately after the batch containing their cause, in push
/// order. Timestamps pushed onto `out` must already be absolute (the
/// bus's epoch offset is applied only to externally published events).
pub trait ScopeSubscriber: Send {
    /// Handles one event; may push derived events onto `out`.
    fn on_event(&mut self, ev: &ScopeEvent, out: &mut Vec<ScopeEvent>);
    /// Called once when the publisher closes the stream at `now`.
    fn on_finish(&mut self, _now: SimTime, _out: &mut Vec<ScopeEvent>) {}
}

/// Per-job state of the built-in rollups.
#[derive(Default)]
struct JobRoll {
    /// Iteration-time EMA.
    ema: Option<f64>,
    /// Open stall window: (window index, wall seconds, stall seconds).
    win: Option<(u64, f64, f64)>,
}

/// The observation bus: bounded ring of recent events, built-in windowed
/// rollups, and fan-out to subscribers. See the module docs for the
/// ordering and recording-only contracts.
pub struct ScopeBus {
    capacity: usize,
    ring: VecDeque<ScopeEvent>,
    subs: Vec<Box<dyn ScopeSubscriber>>,
    /// Epoch offset added to every published event's timestamps — how
    /// bs-replay maps per-wave run-relative clocks onto trace time.
    offset: SimTime,
    /// Tumbling-window width of the stall and NIC rollups.
    window: SimTime,
    rolls: Vec<JobRoll>,
    scratch: Vec<ScopeEvent>,
    published: u64,
}

impl Default for ScopeBus {
    fn default() -> ScopeBus {
        ScopeBus::new()
    }
}

impl ScopeBus {
    /// A bus with the default ring bound and window width.
    pub fn new() -> ScopeBus {
        ScopeBus::with_capacity(DEFAULT_RING)
    }

    /// A bus whose ring keeps at most `capacity` recent events.
    pub fn with_capacity(capacity: usize) -> ScopeBus {
        ScopeBus {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            subs: Vec::new(),
            offset: SimTime::ZERO,
            window: DEFAULT_WINDOW,
            rolls: Vec::new(),
            scratch: Vec::new(),
            published: 0,
        }
    }

    /// Attaches a subscriber; it sees every subsequent event.
    pub fn subscribe(&mut self, sub: Box<dyn ScopeSubscriber>) {
        self.subs.push(sub);
    }

    /// Sets the epoch offset applied to subsequently published events.
    pub fn set_offset(&mut self, offset: SimTime) {
        self.offset = offset;
    }

    /// The tumbling-window width rollups (and fabric NIC windows) use.
    pub fn window(&self) -> SimTime {
        self.window
    }

    /// Publishes one event: applies the epoch offset, feeds the rollups,
    /// fans out to subscribers (dispatching any derived events in
    /// order), and records everything in the ring.
    pub fn publish(&mut self, ev: ScopeEvent) {
        let ev = ev.shift(self.offset);
        self.dispatch(ev);
    }

    /// Closes the stream at `now` (absolute time; the offset is not
    /// applied): flushes open rollup windows and lets every subscriber
    /// emit its final derived events.
    pub fn finish(&mut self, now: SimTime) {
        let window = self.window;
        let mut flush = Vec::new();
        for (job, roll) in self.rolls.iter_mut().enumerate() {
            if let Some(win) = roll.win.take() {
                flush.push(close_window(job, win, window, Some(now)));
            }
        }
        let mut subs = std::mem::take(&mut self.subs);
        for s in &mut subs {
            s.on_finish(now, &mut flush);
        }
        self.subs = subs;
        for ev in flush {
            self.dispatch(ev);
        }
    }

    /// The most recent events, oldest first (bounded by the ring size).
    pub fn recent(&self) -> impl Iterator<Item = &ScopeEvent> {
        self.ring.iter()
    }

    /// Total events dispatched (published + derived), ignoring the ring
    /// bound.
    pub fn events_seen(&self) -> u64 {
        self.published
    }

    /// Worklist dispatch: processes `first` and then, in FIFO order,
    /// every event derived from it (transitively).
    fn dispatch(&mut self, first: ScopeEvent) {
        let mut queue = std::mem::take(&mut self.scratch);
        queue.clear();
        queue.push(first);
        let mut i = 0;
        while i < queue.len() {
            let e = queue[i];
            i += 1;
            self.rollup(&e, &mut queue);
            for s in &mut self.subs {
                s.on_event(&e, &mut queue);
            }
            if self.ring.len() == self.capacity {
                self.ring.pop_front();
            }
            self.ring.push_back(e);
            self.published += 1;
        }
        queue.clear();
        self.scratch = queue;
    }

    /// Built-in rollups: iteration-time EMA and per-job tumbling stall
    /// windows, both derived from `IterDone`.
    fn rollup(&mut self, ev: &ScopeEvent, out: &mut Vec<ScopeEvent>) {
        let ScopeEvent::IterDone {
            job,
            at,
            iter,
            wall_secs,
            stall_secs,
            ..
        } = *ev
        else {
            return;
        };
        if self.rolls.len() <= job {
            self.rolls.resize_with(job + 1, JobRoll::default);
        }
        let window = self.window;
        let roll = &mut self.rolls[job];

        let ema = match roll.ema {
            None => wall_secs,
            Some(prev) => EMA_ALPHA * wall_secs + (1.0 - EMA_ALPHA) * prev,
        };
        roll.ema = Some(ema);
        out.push(ScopeEvent::IterEma {
            job,
            at,
            iter,
            ema_secs: ema,
        });

        let idx = at.as_nanos() / window.as_nanos().max(1);
        match &mut roll.win {
            Some((open, wall, stall)) if *open == idx => {
                *wall += wall_secs;
                *stall += stall_secs;
            }
            other => {
                if let Some(win) = other.take() {
                    out.push(close_window(job, win, window, None));
                }
                *other = Some((idx, wall_secs, stall_secs));
            }
        }
    }
}

/// Closes a stall window accumulator into its event. `now` clamps the
/// window end when the stream finishes mid-window.
fn close_window(
    job: usize,
    (idx, wall, stall): (u64, f64, f64),
    window: SimTime,
    now: Option<SimTime>,
) -> ScopeEvent {
    let w = window.as_nanos().max(1);
    let start = SimTime::from_nanos(idx.saturating_mul(w));
    let mut end = SimTime::from_nanos(idx.saturating_add(1).saturating_mul(w));
    if let Some(now) = now {
        if now > start && now < end {
            end = now;
        }
    }
    ScopeEvent::StallWindow {
        job,
        start,
        at: end,
        wall_secs: wall,
        stall_secs: stall,
        stall_frac: if wall > 0.0 { stall / wall } else { 0.0 },
    }
}

/// Shared view of a [`FlightRecorder`]'s rows, alive after the recorder
/// itself was boxed into the bus.
#[derive(Clone, Default)]
pub struct FlightHandle {
    rows: Arc<Mutex<Vec<String>>>,
}

impl FlightHandle {
    /// Rows recorded so far, one compact-JSON event per row.
    pub fn rows(&self) -> Vec<String> {
        self.rows.lock().expect("flight recorder lock").clone()
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.rows.lock().expect("flight recorder lock").len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole stream as `events.jsonl` text (one row per line,
    /// newline-terminated; empty stream ⇒ empty string).
    pub fn to_jsonl(&self) -> String {
        let rows = self.rows.lock().expect("flight recorder lock");
        let mut out = String::new();
        for r in rows.iter() {
            out.push_str(r);
            out.push('\n');
        }
        out
    }
}

/// Flight-recorder sink: serialises every event — published and derived
/// — as one schema-versioned JSON row, in dispatch order.
#[derive(Default)]
pub struct FlightRecorder {
    handle: FlightHandle,
}

impl FlightRecorder {
    /// A recorder plus the handle that can read its rows later.
    pub fn new() -> (FlightRecorder, FlightHandle) {
        let rec = FlightRecorder::default();
        let handle = rec.handle.clone();
        (rec, handle)
    }
}

impl ScopeSubscriber for FlightRecorder {
    fn on_event(&mut self, ev: &ScopeEvent, _out: &mut Vec<ScopeEvent>) {
        let row = serde_json::to_string(&ev.to_json()).expect("event rows serialise");
        self.handle
            .rows
            .lock()
            .expect("flight recorder lock")
            .push(row);
    }
}

/// Shared view of a [`Collector`]'s captured events (tests and
/// experiments poke at the typed stream instead of JSON).
#[derive(Clone, Default)]
pub struct EventLog {
    events: Arc<Mutex<Vec<ScopeEvent>>>,
}

impl EventLog {
    /// Everything captured so far, in dispatch order.
    pub fn events(&self) -> Vec<ScopeEvent> {
        self.events.lock().expect("collector lock").clone()
    }

    /// Events captured so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("collector lock").len()
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Capture-everything sink for tests and experiments.
#[derive(Default)]
pub struct Collector {
    log: EventLog,
}

impl Collector {
    /// A collector plus the handle that can read its events later.
    pub fn new() -> (Collector, EventLog) {
        let col = Collector::default();
        let log = col.log.clone();
        (col, log)
    }
}

impl ScopeSubscriber for Collector {
    fn on_event(&mut self, ev: &ScopeEvent, _out: &mut Vec<ScopeEvent>) {
        self.log.events.lock().expect("collector lock").push(*ev);
    }
}

/// Formats the live `--watch` line for an event, or `None` for the
/// high-frequency rollup rows the table elides.
pub fn watch_line(ev: &ScopeEvent) -> Option<String> {
    let secs = |t: SimTime| t.as_secs_f64();
    Some(match *ev {
        ScopeEvent::IterDone {
            job,
            at,
            iter,
            wall_secs,
            stall_secs,
            retries,
            ..
        } => {
            let stall_pct = if wall_secs > 0.0 {
                100.0 * stall_secs / wall_secs
            } else {
                0.0
            };
            format!(
                "watch job{job} iter {iter:>3}  t={:>9.4}s  wall {:>8.2} ms  stall {stall_pct:>5.1}%  retries {retries}",
                secs(at),
                wall_secs * 1e3,
            )
        }
        ScopeEvent::Retransmit {
            job,
            at,
            tensor,
            part,
            attempt,
            bytes,
            rerouted,
            ..
        } => format!(
            "watch job{job} RETRANSMIT  t={:>9.4}s  tensor {tensor} part {part} attempt {attempt} ({:.1} MB{})",
            secs(at),
            bytes as f64 / 1e6,
            if rerouted { ", rerouted" } else { "" },
        ),
        ScopeEvent::FaultFired {
            job,
            at,
            kind,
            node,
            scale,
        } => format!(
            "watch job{job} FAULT      t={:>9.4}s  {kind} node {node} scale {scale:.2}",
            secs(at)
        ),
        ScopeEvent::Drift {
            job,
            at,
            iter,
            baseline,
            observed,
        } => format!(
            "watch job{job} DRIFT      t={:>9.4}s  iter {iter}: observed {observed:.1} vs baseline {baseline:.1} iters/s",
            secs(at)
        ),
        ScopeEvent::WaveAdmitted { wave, at, jobs } => {
            format!("watch wave {wave} admitted  t={:>9.4}s  {jobs} jobs", secs(at))
        }
        ScopeEvent::WaveDone {
            wave,
            at,
            jobs,
            jct_mean_secs,
            jct_max_secs,
        } => format!(
            "watch wave {wave} done      t={:>9.4}s  {jobs} jobs, jct mean {jct_mean_secs:.2}s max {jct_max_secs:.2}s",
            secs(at)
        ),
        ScopeEvent::WhatIfBatch {
            batch,
            queries,
            computed,
            cache_hits,
            batch_dedup,
            ..
        } => format!(
            "watch batch {batch}: {queries} queries ({computed} computed, {cache_hits} cache hits, {batch_dedup} dedup)"
        ),
        ScopeEvent::Checkpoint {
            job,
            at,
            machine,
            iter,
            cost_secs,
        } => format!(
            "watch job{job} CHECKPOINT t={:>9.4}s  machine {machine} down, barrier iter {iter}, restart {cost_secs:.1}s",
            secs(at)
        ),
        ScopeEvent::Migrate {
            job,
            at,
            node,
            from_machine,
            to_machine,
        } => format!(
            "watch job{job} MIGRATE    t={:>9.4}s  node {node}: machine {from_machine} -> {to_machine}",
            secs(at)
        ),
        ScopeEvent::Resume {
            job,
            at,
            iter,
            lost_iters,
        } => format!(
            "watch job{job} RESUME     t={:>9.4}s  from iter {iter} ({lost_iters} iters re-run)",
            secs(at)
        ),
        ScopeEvent::NetWindow { .. }
        | ScopeEvent::StallWindow { .. }
        | ScopeEvent::IterEma { .. } => return None,
    })
}

/// Live progress/anomaly table: prints one `watch ...` line per
/// iteration, retransmit, fault, drift, wave, and what-if batch.
#[derive(Default)]
pub struct WatchTable;

impl WatchTable {
    /// A table printing to stdout.
    pub fn new() -> WatchTable {
        WatchTable
    }
}

impl ScopeSubscriber for WatchTable {
    fn on_event(&mut self, ev: &ScopeEvent, _out: &mut Vec<ScopeEvent>) {
        if let Some(line) = watch_line(ev) {
            println!("{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter_done(job: usize, at_ms: u64, wall: f64, stall: f64) -> ScopeEvent {
        ScopeEvent::IterDone {
            job,
            at: SimTime::from_millis(at_ms),
            iter: 0,
            wall_secs: wall,
            busy_secs: wall - stall,
            stall_secs: stall,
            retries: 0,
        }
    }

    #[test]
    fn rows_are_flat_versioned_and_typed() {
        let ev = iter_done(2, 150, 0.010, 0.004);
        let row = serde_json::to_string(&ev.to_json()).expect("row serialises");
        assert!(
            row.starts_with(r#"{"v":1,"type":"iter_done","t_ns":150000000"#),
            "{row}"
        );
        assert!(row.contains(r#""job":2"#), "{row}");
        assert!(row.contains(r#""stall_secs":0.004"#), "{row}");
    }

    #[test]
    fn derived_events_follow_their_cause_in_order() {
        let mut bus = ScopeBus::new();
        let (col, log) = Collector::new();
        bus.subscribe(Box::new(col));
        bus.publish(iter_done(0, 10, 0.010, 0.002));
        let kinds: Vec<_> = log.events().iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, ["iter_done", "iter_ema"]);
    }

    #[test]
    fn ema_matches_the_closed_form() {
        let mut bus = ScopeBus::new();
        let (col, log) = Collector::new();
        bus.subscribe(Box::new(col));
        bus.publish(iter_done(0, 10, 0.010, 0.0));
        bus.publish(iter_done(0, 30, 0.020, 0.0));
        let emas: Vec<f64> = log
            .events()
            .iter()
            .filter_map(|e| match *e {
                ScopeEvent::IterEma { ema_secs, .. } => Some(ema_secs),
                _ => None,
            })
            .collect();
        assert_eq!(emas[0], 0.010);
        assert_eq!(emas[1], EMA_ALPHA * 0.020 + (1.0 - EMA_ALPHA) * 0.010);
    }

    #[test]
    fn stall_windows_tumble_and_flush() {
        let mut bus = ScopeBus::new(); // 100 ms windows
        let (col, log) = Collector::new();
        bus.subscribe(Box::new(col));
        bus.publish(iter_done(0, 40, 0.040, 0.010));
        bus.publish(iter_done(0, 80, 0.040, 0.010));
        bus.publish(iter_done(0, 140, 0.060, 0.030)); // rolls the window
        bus.finish(SimTime::from_millis(150));
        let wins: Vec<ScopeEvent> = log
            .events()
            .into_iter()
            .filter(|e| matches!(e, ScopeEvent::StallWindow { .. }))
            .collect();
        assert_eq!(wins.len(), 2);
        match wins[0] {
            ScopeEvent::StallWindow {
                start,
                at,
                wall_secs,
                stall_secs,
                stall_frac,
                ..
            } => {
                assert_eq!(start, SimTime::ZERO);
                assert_eq!(at, SimTime::from_millis(100));
                assert_eq!(wall_secs, 0.080);
                assert_eq!(stall_secs, 0.020);
                assert_eq!(stall_frac, 0.25);
            }
            _ => unreachable!(),
        }
        match wins[1] {
            ScopeEvent::StallWindow { start, at, .. } => {
                assert_eq!(start, SimTime::from_millis(100));
                assert_eq!(at, SimTime::from_millis(150), "flush clamps to now");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn ring_is_bounded_but_counts_everything() {
        let mut bus = ScopeBus::with_capacity(3);
        for i in 0..10 {
            bus.publish(iter_done(0, 10 * (i + 1), 0.010, 0.0));
        }
        assert_eq!(bus.recent().count(), 3);
        assert_eq!(
            bus.events_seen(),
            21,
            "10 published + 10 derived EMAs + the stall window the 100 ms event closed"
        );
    }

    #[test]
    fn offset_shifts_published_but_not_derived_anchors() {
        let mut bus = ScopeBus::new();
        let (col, log) = Collector::new();
        bus.subscribe(Box::new(col));
        bus.set_offset(SimTime::from_millis(1000));
        bus.publish(iter_done(0, 40, 0.040, 0.010));
        let evs = log.events();
        assert_eq!(evs[0].at(), SimTime::from_millis(1040));
        // The derived EMA anchors to the already-shifted instant.
        assert_eq!(evs[1].at(), SimTime::from_millis(1040));
    }

    #[test]
    fn watch_lines_cover_anomalies_and_elide_rollups() {
        let ev = iter_done(1, 40, 0.040, 0.010);
        let line = watch_line(&ev).expect("iterations are watched");
        assert!(line.starts_with("watch job1 iter"), "{line}");
        assert!(line.contains("stall  25.0%"), "{line}");
        let ema = ScopeEvent::IterEma {
            job: 0,
            at: SimTime::ZERO,
            iter: 0,
            ema_secs: 0.01,
        };
        assert!(watch_line(&ema).is_none());
    }
}
