//! The repository benchmark: end-to-end metrics of four workloads
//! (`--trace 0`) and a traced run's per-layer split (`--trace 1`), with
//! output checks on every operation.
//!
//! ```text
//! cargo --config 'build.rustflags=["-C", "llvm-args=-align-all-functions=6"]' \
//!     run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train_ring --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The function alignment keeps code layout from deciding timings; see
//! `perfbench/README.md`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod gen;
mod pins;
mod stats;
mod traced;
mod workloads;

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bs_cluster::{run_cluster, ClusterResult};
use bs_replay::{load_trace, replay_trace, AnswerSource, ReplayService, TraceFormat, TraceJob};
use bs_runtime::{run as run_job, run_observed, RunResult, WorldConfig};
use bs_scope::{FlightRecorder, ScopeBus};
use bs_sim::WorkerPool;

use crate::gen::{config_query, QueryGen, CONFIG_SPACE};
use crate::stats::{median, percentile, percentile_valid, quartiles, sorted};
use crate::traced::{run_traced, span, Layer, PassProfile, Tracer, LAYERS};
use crate::workloads::*;

/// Samples a run collects at least, so that a 90th percentile has ten
/// samples beyond it.
const MIN_SAMPLES: usize = 100;
/// Variant cycles a traced run collects at least.
const MIN_CYCLES: usize = 5;
/// Host seconds of set-up repetitions timed before the first pass.
const SETUP_FIRST_S: f64 = 0.05;
/// Share of each timed pass's host time spent repeating the set-up
/// after it, so that `setup_s` samples the host across the whole run
/// and not inside one burst of host noise at its start.
const SETUP_SHARE: f64 = 0.02;
/// Host seconds after which a measuring loop stops even short of its
/// sample target, keeping every run well inside its time limit.
const HARD_CAP_S: f64 = 60.0;
/// Spans stored, and written, per traced run at most.
const SPANS_WRITTEN: usize = 20_000;
/// Share of an externally timed traced pass its root span must cover
/// (median over the run): the rest is the tracer's own creation and the
/// call's return.
const ROOT_COVER: f64 = 0.95;
/// Queries in the unit of work `wall_s` times on `whatif_service`.
const WHATIF_BLOCK: u64 = 100;

/// End-to-end metrics, reported with `--trace 0`, as (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("batch_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`, as (name, unit). A
/// layer a workload does not run reads 0 there.
const PER_LAYER: [(&str, &str); 42] = [
    ("net.submit.calls", "count"),
    ("net.submit.self_s", "s"),
    ("net.advance.calls", "count"),
    ("net.advance.self_s", "s"),
    ("net.next_event.calls", "count"),
    ("net.next_event.self_s", "s"),
    ("net.deliveries", "count"),
    ("net.bytes", "B"),
    ("net.peak_in_flight", "count"),
    ("runtime.handle_net.calls", "count"),
    ("runtime.handle_net.self_s", "s"),
    ("runtime.handle_engine.calls", "count"),
    ("runtime.handle_engine.self_s", "s"),
    ("runtime.handle_ring.calls", "count"),
    ("runtime.handle_ring.self_s", "s"),
    ("runtime.advance.calls", "count"),
    ("runtime.advance.self_s", "s"),
    ("runtime.next_event.calls", "count"),
    ("runtime.next_event.self_s", "s"),
    ("runtime.build.self_s", "s"),
    ("runtime.finish.self_s", "s"),
    ("runtime.loop.self_s", "s"),
    ("runtime.traced_wall_s", "s"),
    ("recorders.all_s", "s"),
    ("recorders.xray_s", "s"),
    ("recorders.metrics_s", "s"),
    ("recorders.scope_s", "s"),
    ("scope.events", "count"),
    ("cluster.seq_wall_s", "s"),
    ("cluster.par_speedup", "ratio"),
    ("cluster.fabric_events", "count"),
    ("cluster.events_per_s", "1/s"),
    ("replay.load_trace_s", "s"),
    ("replay.fingerprint.self_s", "s"),
    ("replay.hit_frac", "ratio"),
    ("replay.cache_hits", "count"),
    ("replay.batch_dedup", "count"),
    ("replay.executed", "count"),
    ("replay.evictions", "count"),
    ("replay.replay_trace_s", "s"),
    ("replay.pool_busy_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        let k = k
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {k:?}"))?;
        flags.insert(k, v);
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".to_string());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if flags.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds, --trace".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Operation accounting: every sim pass and every query is attempted
/// under `catch_unwind`; a panic or a wrong output fails it.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Ops {
    /// Attempts `n` operations performed by `f`; a panic fails all `n`
    /// and records its message.
    fn attempt<T>(&mut self, n: u64, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += n;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_string());
                self.failed += n;
                self.notes.push(format!("{what}: panicked: {msg}"));
                None
            }
        }
    }

    /// Fails one attempted operation whose output was wrong.
    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// Fails one operation unless `got == want`.
    fn expect_eq(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.fail(format!("{what}: digest {got:#018x}, expected {want:#018x}"));
        }
    }
}

/// Everything one run measured.
struct Run {
    args: Args,
    ops: Ops,
    metrics: BTreeMap<&'static str, f64>,
    /// Extra report lines (sample counts, percentiles actually valid).
    info: Vec<String>,
    spans: Vec<traced::Span>,
}

impl Run {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Repeated timings of a workload's set-up; `setup_s` is their median.
struct Setup<F> {
    f: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Times repetitions of `f` for [`SETUP_FIRST_S`]; returns the timer
    /// and the last repetition's output, which the run then uses.
    fn new(f: F) -> (Setup<F>, T) {
        let mut setup = Setup {
            f,
            times: Vec::new(),
        };
        let out = setup.repeat(SETUP_FIRST_S);
        (setup, out)
    }

    /// Times repetitions of the set-up for `budget_s` host seconds (at
    /// least one); returns the last output.
    fn repeat(&mut self, budget_s: f64) -> T {
        let started = Instant::now();
        loop {
            let t0 = Instant::now();
            let out = std::hint::black_box((self.f)());
            self.times.push(t0.elapsed().as_secs_f64());
            if started.elapsed().as_secs_f64() >= budget_s {
                return out;
            }
        }
    }

    /// Repeats the set-up for [`SETUP_SHARE`] of a pass that took `dt`.
    fn after_pass(&mut self, dt: f64) {
        self.repeat(SETUP_SHARE * dt);
    }

    fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// Calls `step` until it has reported `seconds` of measured time and
/// `min_steps` steps, or [`HARD_CAP_S`] of host time has passed; returns
/// the measured time. `step` returns the host seconds it measured
/// (verification it does after the measured call is not counted).
fn measure(seconds: f64, min_steps: usize, mut step: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let (mut measured, mut steps) = (0.0, 0);
    while (measured < seconds || steps < min_steps) && started.elapsed().as_secs_f64() < HARD_CAP_S
    {
        measured += step();
        steps += 1;
    }
    measured
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records `wall_s`, the mean host seconds per unit of the workload's
/// fixed work over the `measured` seconds, and prints the simulated
/// iterations per host second with it. A mean, not a median: on a host
/// whose speed flips between two modes the median lands in one mode or
/// the other, while the mean moves only with the time spent in each.
fn report_rate(run: &mut Run, measured: f64, units: f64, sim_iters: u64) {
    run.set("wall_s", measured / units);
    run.info.push(format!(
        "{sim_iters} simulated iterations in {measured:.3} s: {:.3} sim_iters_per_s",
        sim_iters as f64 / measured
    ));
}

/// Records `batch_p90_ms` from `lat` (host seconds per operation the
/// client waits on: a sim pass, or a what-if batch) and reports the
/// sample count, quartiles and median with it.
fn report_tail(run: &mut Run, what: &str, lat: &[f64]) {
    let s = sorted(lat);
    let n = s.len();
    if n == 0 {
        run.ops.fail("no successful operation to time".to_string());
        return;
    }
    run.set("batch_p90_ms", 1e3 * percentile(&s, 90.0));
    let tail = stats::highest_valid_percentile(n).unwrap_or(0.0);
    let (q1, q3) = if n >= 2 { quartiles(&s) } else { (s[0], s[0]) };
    run.info.push(format!(
        "{what} {n}: p50 {:.3} ms, quartiles {:.3} / {:.3} ms; p90 {}; highest valid percentile p{tail:.1} = {:.3} ms",
        1e3 * median(&s),
        1e3 * q1,
        1e3 * q3,
        if percentile_valid(n, 90.0) {
            "valid"
        } else {
            "NOT valid: fewer than 100 samples"
        },
        1e3 * percentile(&s, tail),
    ));
}

/// Fails the run unless the traced passes' root spans cover at least
/// [`ROOT_COVER`] of the same calls timed from outside (medians).
fn check_root_cover(run: &mut Run, root: &[f64], outside: &[f64]) {
    let cover = median(root) / median(outside);
    run.info
        .push(format!("traced root span covers {cover:.4} of the call"));
    if !(ROOT_COVER..=1.0).contains(&cover) {
        run.ops.fail(format!(
            "traced root span covers {cover:.4} of the externally timed call, outside [{ROOT_COVER}, 1]"
        ));
    }
}

/// Median of per-pass values.
fn med_of(xs: impl Iterator<Item = f64>) -> f64 {
    median(&xs.collect::<Vec<_>>())
}

/// Records the traced passes' per-layer medians.
fn report_profiles(run: &mut Run, profiles: &[PassProfile]) {
    for layer in LAYERS {
        let i = layer as usize;
        let calls = med_of(profiles.iter().map(|p| p.calls[i] as f64));
        let self_s = med_of(profiles.iter().map(|p| p.self_ns[i] as f64 * 1e-9));
        match layer {
            Layer::Loop => run.set("runtime.loop.self_s", self_s),
            Layer::Build => run.set("runtime.build.self_s", self_s),
            Layer::Finish => run.set("runtime.finish.self_s", self_s),
            Layer::Batch => {}
            _ => {
                let name = layer.name();
                run.set(layer_metric(format!("{name}.calls")), calls);
                run.set(layer_metric(format!("{name}.self_s")), self_s);
            }
        }
    }
    run.set(
        "runtime.traced_wall_s",
        med_of(profiles.iter().map(|p| p.wall_ns as f64 * 1e-9)),
    );
    run.set(
        "net.deliveries",
        med_of(profiles.iter().map(|p| p.deliveries as f64)),
    );
    run.set("net.bytes", med_of(profiles.iter().map(|p| p.bytes as f64)));
    run.set(
        "net.peak_in_flight",
        med_of(profiles.iter().map(|p| p.peak_in_flight as f64)),
    );
}

/// The `'static` per-layer table key equal to a formatted name.
fn layer_metric(name: String) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the per-layer table"))
}

/// `train_ps_observed` and `train_ring`.
fn single_job(run: &mut Run, ps: bool) {
    let seed = run.args.seed;
    let (mut setup, (timed_cfg, off_cfg)) = Setup::new(|| {
        if ps {
            (ps_config(seed, true), ps_config(seed, false))
        } else {
            let c = ring_config(seed);
            (c.clone(), c)
        }
    });

    // The timed pass: recorders on and a scope bus with a flight
    // recorder for the PS workload; the plain run for the ring.
    let pass = |cfg: &WorldConfig| -> (RunResult, u64) {
        if ps {
            let mut bus = ScopeBus::new();
            let (rec, handle) = FlightRecorder::new();
            bus.subscribe(Box::new(rec));
            let r = run_observed(cfg, Some(&mut bus));
            let events = bus.events_seen();
            assert_eq!(events, handle.len() as u64, "flight recorder missed events");
            (r, events)
        } else {
            (run_job(cfg), 0)
        }
    };
    let digest = |(r, events): &(RunResult, u64)| pass_digest(r, *events);

    // Warm-up and the per-run checks: recorders off matches on, the
    // traced loop matches `run`, and the default seed matches its pins.
    let Some(reference) = run.ops.attempt(1, "warm-up pass", || pass(&timed_cfg)) else {
        return;
    };
    let ref_digest = digest(&reference);
    let ref_run = run_digest(&reference.0);
    if ps {
        if let Some(off) = run
            .ops
            .attempt(1, "recorders-off pass", || run_job(&off_cfg))
        {
            run.ops
                .expect_eq("recorders-off vs on", run_digest(&off), ref_run);
        }
    }
    if let Some((r, _, _)) = run
        .ops
        .attempt(1, "traced pass", || run_traced(&off_cfg, 0))
    {
        run.ops.expect_eq("traced vs run", run_digest(&r), ref_run);
    }
    if seed == pins::DEFAULT_SEED {
        let pin = if ps { pins::PS_PASS } else { pins::RING_PASS };
        run.ops
            .expect_eq("pinned default-seed pass", ref_digest, pin);
    }

    if !run.args.trace {
        let mut lat = Vec::new();
        let mut passes = 0u64;
        let seconds = run.args.seconds;
        let measured = measure(seconds, MIN_SAMPLES, || {
            let t0 = Instant::now();
            let out = run.ops.attempt(1, "timed pass", || pass(&timed_cfg));
            let dt = t0.elapsed().as_secs_f64();
            if let Some(out) = out {
                run.ops.expect_eq("repeat pass", digest(&out), ref_digest);
                lat.push(dt);
                passes += 1;
            }
            setup.after_pass(dt);
            dt
        });
        run.set("setup_s", setup.median());
        report_rate(run, measured, passes as f64, passes * timed_cfg.iters);
        report_tail(run, "passes", &lat);
        return;
    }

    // Traced run: cycle the recorders-off pass, the traced pass and (PS
    // only) each recorder alone and all together, so every difference
    // is between neighbouring measurements of one config.
    let variants: Vec<(&str, WorldConfig)> = if ps {
        let mut xray = off_cfg.clone();
        xray.record_xray = true;
        let mut metrics = off_cfg.clone();
        metrics.record_metrics = true;
        vec![
            ("all", timed_cfg.clone()),
            ("xray", xray),
            ("metrics", metrics),
        ]
    } else {
        Vec::new()
    };
    let mut off_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut scope_wall = Vec::new();
    let mut scope_events = 0u64;
    let mut var_wall: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut profiles = Vec::new();
    let mut last_spans = Vec::new();
    let seconds = run.args.seconds;
    measure(seconds, MIN_CYCLES, || {
        let mut cycle = 0.0;
        let (dt, off) = timed(|| {
            run.ops
                .attempt(1, "recorders-off pass", || run_job(&off_cfg))
        });
        cycle += dt;
        if let Some(r) = off {
            run.ops
                .expect_eq("recorders-off pass", run_digest(&r), ref_run);
            off_wall.push(dt);
        }
        let (dt, tr) = timed(|| {
            run.ops
                .attempt(1, "traced pass", || run_traced(&off_cfg, SPANS_WRITTEN))
        });
        cycle += dt;
        if let Some((r, profile, spans)) = tr {
            run.ops.expect_eq("traced vs run", run_digest(&r), ref_run);
            traced_wall.push(dt);
            profiles.push(profile);
            last_spans = spans;
        }
        for (i, (name, cfg)) in variants.iter().enumerate() {
            let (dt, out) = timed(|| run.ops.attempt(1, name, || run_job(cfg)));
            cycle += dt;
            if let Some(r) = out {
                run.ops.expect_eq(name, run_digest(&r), ref_run);
                var_wall[i].push(dt);
            }
        }
        if ps {
            let (dt, out) = timed(|| {
                run.ops.attempt(1, "scope pass", || {
                    let mut bus = ScopeBus::new();
                    let r = run_observed(&off_cfg, Some(&mut bus));
                    (r, bus.events_seen())
                })
            });
            cycle += dt;
            if let Some((r, events)) = out {
                run.ops.expect_eq("scope pass", run_digest(&r), ref_run);
                scope_wall.push(dt);
                scope_events = events;
            }
        }
        cycle
    });
    report_profiles(run, &profiles);
    let roots: Vec<f64> = profiles.iter().map(|p| p.wall_ns as f64 * 1e-9).collect();
    check_root_cover(run, &roots, &traced_wall);
    run.spans = last_spans;
    let off = median(&off_wall);
    run.set("trace.overhead_frac", median(&traced_wall) / off - 1.0);
    if ps {
        run.set("recorders.all_s", median(&var_wall[0]) - off);
        run.set("recorders.xray_s", median(&var_wall[1]) - off);
        run.set("recorders.metrics_s", median(&var_wall[2]) - off);
        run.set("recorders.scope_s", median(&scope_wall) - off);
        run.set("scope.events", scope_events as f64);
    }
    run.info.push(format!(
        "traced cycles {} (recorders-off pass median {:.3} ms)",
        profiles.len(),
        off * 1e3
    ));
}

/// `cluster_mixed`.
fn cluster_mixed(run: &mut Run) {
    let seed = run.args.seed;
    let (mut setup, (specs, par, seq)) = Setup::new(|| {
        (
            cluster_specs(seed),
            cluster_config(CLUSTER_THREADS),
            cluster_config(1),
        )
    });
    let iters = specs_iters(&specs);
    let pass = |cfg| -> ClusterResult { run_cluster(cfg, &specs) };

    let Some(reference) = run.ops.attempt(1, "warm-up pass", || pass(&par)) else {
        return;
    };
    let ref_digest = cluster_digest(&reference);
    if let Some(r) = run.ops.attempt(1, "sequential pass", || pass(&seq)) {
        run.ops
            .expect_eq("1 thread vs 2 threads", cluster_digest(&r), ref_digest);
    }
    if seed == pins::DEFAULT_SEED {
        run.ops
            .expect_eq("pinned default-seed pass", ref_digest, pins::CLUSTER_PASS);
    }

    let seconds = run.args.seconds;
    let mut par_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut seq_wall = Vec::new();
    let mut roots = Vec::new();
    let tr = RefCell::new(Tracer::new(SPANS_WRITTEN));
    let measured = measure(
        seconds,
        if run.args.trace {
            MIN_CYCLES
        } else {
            MIN_SAMPLES
        },
        || {
            let mut step = 0.0;
            let (dt, out) = timed(|| run.ops.attempt(1, "timed pass", || pass(&par)));
            step += dt;
            if let Some(r) = out {
                run.ops
                    .expect_eq("repeat pass", cluster_digest(&r), ref_digest);
                par_wall.push(dt);
            }
            setup.after_pass(dt);
            if run.args.trace {
                // The traced pass is the same call inside one span: the
                // cluster driver's internals are not traced.
                tr.borrow_mut().set_req(traced_wall.len() as u32);
                let root_before = tr.borrow().profile().wall_ns;
                let (dt, out) = timed(|| {
                    run.ops
                        .attempt(1, "traced pass", || span(&tr, Layer::Loop, || pass(&par)))
                });
                step += dt;
                if let Some(r) = out {
                    run.ops
                        .expect_eq("traced pass", cluster_digest(&r), ref_digest);
                    traced_wall.push(dt);
                    roots.push((tr.borrow().profile().wall_ns - root_before) as f64 * 1e-9);
                }
                let (dt, out) = timed(|| run.ops.attempt(1, "sequential pass", || pass(&seq)));
                step += dt;
                if let Some(r) = out {
                    run.ops
                        .expect_eq("1 thread vs 2 threads", cluster_digest(&r), ref_digest);
                    seq_wall.push(dt);
                }
            }
            step
        },
    );
    if !run.args.trace {
        run.set("setup_s", setup.median());
        let n = par_wall.len() as u64;
        report_rate(run, measured, n as f64, n * iters);
        report_tail(run, "passes", &par_wall);
        return;
    }
    let par_med = median(&par_wall);
    let seq_med = median(&seq_wall);
    run.set("cluster.seq_wall_s", seq_med);
    run.set("cluster.par_speedup", seq_med / par_med);
    run.set("cluster.fabric_events", reference.fabric_events as f64);
    run.set(
        "cluster.events_per_s",
        reference.fabric_events as f64 / par_med,
    );
    run.set("trace.overhead_frac", median(&traced_wall) / par_med - 1.0);
    check_root_cover(run, &roots, &traced_wall);
    run.spans = tr.into_inner().finish().0;
    run.info.push(format!(
        "cluster cycles {} at {} threads (available parallelism {})",
        par_wall.len(),
        CLUSTER_THREADS,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    ));
}

/// What the what-if client knows about one config index: its report
/// digest from a direct `replay_trace` call and that call's host seconds.
struct Known {
    digest: u64,
    direct_s: f64,
}

/// `whatif_service`.
fn whatif_service(run: &mut Run) {
    let seed = run.args.seed;
    let load_times = RefCell::new(Vec::new());
    let (mut setup, first) = Setup::new(|| -> Result<_, String> {
        let _ = WorkerPool::shared();
        let (dt, jobs) = timed(|| -> Result<Vec<TraceJob>, String> {
            let text = std::fs::read_to_string(WHATIF_TRACE)
                .map_err(|e| format!("{WHATIF_TRACE}: {e}"))?;
            load_trace(&text, TraceFormat::detect(WHATIF_TRACE, &text))
        });
        load_times.borrow_mut().push(dt);
        let jobs = jobs?;
        let service = ReplayService::new(jobs.clone(), whatif_base(seed), WHATIF_CACHE);
        Ok((jobs, service, QueryGen::new(seed)))
    });
    let (jobs, mut service, mut gen) = match first {
        Ok(s) => s,
        Err(e) => {
            run.ops.attempted += 1;
            run.ops.fail(format!("set-up: {e}"));
            return;
        }
    };
    let base = whatif_base(seed);
    let threads = WorkerPool::shared().workers() + 1;

    let tracing = run.args.trace;
    let tr = RefCell::new(Tracer::new(SPANS_WRITTEN));
    let mut known: Vec<Option<Known>> = (0..CONFIG_SPACE).map(|_| None).collect();
    let mut lat = Vec::new();
    let mut direct = Vec::new();
    let mut fingerprint = Vec::new();
    let mut roots = Vec::new();
    let (mut queries, mut sim_iters, mut batches) = (0u64, 0u64, 0u32);
    let (mut miss_s, mut pool_s) = (0.0, 0.0);
    let mut stats_at_min = None;
    let seconds = run.args.seconds;
    let measured = measure(seconds, MIN_SAMPLES, || {
        let idxs = gen.next_batch(WHATIF_BATCH);
        let qs: Vec<_> = idxs.iter().map(|&i| config_query(i)).collect();
        tr.borrow_mut().set_req(batches);
        let svc = &mut service;
        let root_before = tr.borrow().profile().wall_ns;
        let (dt, answers) = timed(|| {
            run.ops.attempt(qs.len() as u64, "what-if batch", || {
                if tracing {
                    span(&tr, Layer::Batch, || svc.submit_batch(&qs))
                } else {
                    svc.submit_batch(&qs)
                }
            })
        });
        batches += 1;
        setup.after_pass(dt);
        if batches as usize == MIN_SAMPLES {
            stats_at_min = Some(service.stats());
        }
        if tracing {
            // `submit_batch` fingerprints each query inside; the same
            // public call, made here on the batch's queries, is its
            // proxy.
            let (t, _) = timed(|| {
                qs.iter()
                    .map(|q| service.fingerprint(q))
                    .collect::<Vec<_>>()
            });
            fingerprint.push(t);
        }
        let Some(answers) = answers else {
            return dt;
        };
        lat.push(dt);
        if tracing {
            roots.push((tr.borrow().profile().wall_ns - root_before) as f64 * 1e-9);
        }
        queries += qs.len() as u64;
        pool_s += dt * threads as f64;
        // Check every answer against a direct replay of its config.
        for ((a, q), &idx) in answers.iter().zip(&qs).zip(&idxs) {
            if known[idx].is_none() {
                let opts = q.resolve(&base);
                let (t, r) = timed(|| {
                    run.ops.attempt(1, "direct replay", || {
                        report_digest(&replay_trace(&jobs, &opts))
                    })
                });
                let Some(digest) = r else { continue };
                direct.push(t);
                if seed == pins::DEFAULT_SEED {
                    run.ops.expect_eq(
                        "pinned default-seed answer",
                        digest,
                        pins::WHATIF_REPORTS[idx],
                    );
                }
                known[idx] = Some(Known {
                    digest,
                    direct_s: t,
                });
            }
            let k = known[idx].as_ref().expect("filled above");
            run.ops.expect_eq(
                "answer vs direct replay",
                report_digest(&a.report),
                k.digest,
            );
            if a.source == AnswerSource::Computed {
                sim_iters += report_iters(&a.report);
                miss_s += k.direct_s;
            }
        }
        dt
    });
    run.info.push(format!(
        "queries {queries} in {measured:.3} s: {:.3} queries/s",
        queries as f64 / measured
    ));
    if !tracing {
        run.set("setup_s", setup.median());
        report_rate(
            run,
            measured,
            queries as f64 / WHATIF_BLOCK as f64,
            sim_iters,
        );
        report_tail(run, "batches", &lat);
        return;
    }
    run.set("replay.load_trace_s", median(&load_times.borrow()));
    let st = stats_at_min.unwrap_or_else(|| service.stats());
    run.info.push(format!(
        "service counters over the first {} queries: {:?}",
        st.queries, st
    ));
    run.set("replay.cache_hits", st.cache_hits as f64);
    run.set("replay.batch_dedup", st.batch_dedup as f64);
    run.set("replay.executed", st.executed as f64);
    run.set("replay.evictions", st.evictions as f64);
    run.set(
        "replay.hit_frac",
        (st.cache_hits + st.batch_dedup) as f64 / st.queries.max(1) as f64,
    );
    run.set("replay.replay_trace_s", median(&direct));
    run.set("replay.pool_busy_frac", miss_s / pool_s);
    run.set("replay.fingerprint.self_s", median(&fingerprint));
    check_root_cover(run, &roots, &lat);
    // A traced batch is the untraced call inside one span, so tracing
    // costs only the span's own bookkeeping: what the call timed from
    // outside adds over its span.
    run.set(
        "trace.overhead_frac",
        med_of(lat.iter().zip(&roots).map(|(l, r)| l / r - 1.0)),
    );
    run.spans = tr.into_inner().finish().0;
}

/// Writes the traced run's spans (at most [`SPANS_WRITTEN`]) under
/// `.bench_spans/` at the checkout root.
fn write_spans(run: &Run) -> Option<String> {
    if run.spans.is_empty() {
        return None;
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_spans");
    let path = format!("{dir}/{}-seed{}.jsonl", run.args.workload, run.args.seed);
    let keep = &run.spans[..run.spans.len().min(SPANS_WRITTEN)];
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, traced::spans_jsonl(keep)))
        .map(|()| format!("spans: {} of {} -> {path}", keep.len(), run.spans.len()))
        .ok()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-pins") {
        pins::print();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut run = Run {
        args,
        ops: Ops::default(),
        metrics: BTreeMap::new(),
        info: Vec::new(),
        spans: Vec::new(),
    };
    match run.args.workload.as_str() {
        "train_ps_observed" => single_job(&mut run, true),
        "train_ring" => single_job(&mut run, false),
        "cluster_mixed" => cluster_mixed(&mut run),
        "whatif_service" => whatif_service(&mut run),
        _ => unreachable!("workload validated by parse_args"),
    }
    run.set("peak_rss_mb", peak_rss_mb());
    if let Some(line) = write_spans(&run) {
        run.info.push(line);
    }

    let table: &[(&str, &str)] = if run.args.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    println!(
        "perfbench {} seed {} trace {}",
        run.args.workload,
        run.args.seed,
        u8::from(run.args.trace)
    );
    for line in &run.info {
        println!("  {line}");
    }
    for note in run.ops.notes.iter().take(20) {
        println!("  FAILED {note}");
    }
    let mut missing = Vec::new();
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = run.metrics.get(name).copied();
        if value.is_none() && !run.args.trace {
            missing.push(name);
        }
        // A layer the workload does not run reads 0.
        let value = value.unwrap_or(0.0);
        println!("  {name:<32} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct =
        run.ops.failed == 0 && missing.is_empty() && run.metrics.values().all(|v| v.is_finite());
    if !missing.is_empty() {
        println!("  MISSING end-to-end metrics: {missing:?}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.ops.attempted.max(1),
        run.ops.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &serde_json::Value, key: &str) -> Vec<(String, String)> {
        let Some(serde_json::Value::Array(items)) = v.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k| match m.get(k) {
                    Some(serde_json::Value::Str(s)) => s.clone(),
                    _ => panic!("{key} entry without {k}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let v = serde_json::from_str(text).expect("BENCHMARK.json parses");
        assert_eq!(names(&v, "end_to_end"), table(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), table(&PER_LAYER));
        let Some(serde_json::Value::Array(ws)) = v.get("workloads") else {
            panic!("BENCHMARK.json has no workloads");
        };
        let listed: Vec<String> = ws
            .iter()
            .map(|w| match w.get("name") {
                Some(serde_json::Value::Str(s)) => s.clone(),
                _ => panic!("workload without a name"),
            })
            .collect();
        assert_eq!(listed, WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn traced_layers_have_table_entries() {
        for layer in LAYERS {
            match layer {
                Layer::Loop | Layer::Build | Layer::Finish | Layer::Batch => {}
                _ => {
                    layer_metric(format!("{}.calls", layer.name()));
                    layer_metric(format!("{}.self_s", layer.name()));
                }
            }
        }
    }

    #[test]
    fn arguments_are_validated() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&a("--workload train_ring --seed 3 --seconds 10 --trace 1")).is_ok());
        assert!(parse_args(&a("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&a("--workload train_ring --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&a("--workload train_ring --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&a("--workload train_ring --seed 3 --trace 0")).is_err());
    }

    #[test]
    fn a_panicking_operation_is_counted_not_fatal() {
        let mut ops = Ops::default();
        assert_eq!(ops.attempt(1, "ok", || 7), Some(7));
        assert_eq!(ops.attempt(4, "bad", || -> u32 { panic!("boom") }), None);
        assert_eq!((ops.attempted, ops.failed), (5, 4));
        assert!(ops.notes[0].contains("boom"));
    }
}
