//! Replays a cluster trace through the shared-fabric simulator and
//! exercises the what-if query service (`BS_QUICK=1` truncates for
//! smoke runs).
//!
//! `--trace FILE` selects the trace (Philly-style `.json` or PAI-style
//! `.csv`; default: the committed `philly_day.json` fixture).
//!
//! `--serve N` drives `N` what-if queries through a [`ReplayService`]
//! in batches (default 16), printing throughput, per-batch latency and
//! the cache/dedup counters; with enough repeats the run asserts the
//! LRU actually hit.
//!
//! `--metrics` re-replays the trace with per-wave recorders on and
//! prints, for every wave, the cluster metrics summary (per-job stall
//! breakdown, per-NIC utilisation, per-job NIC shares) and the wave's
//! link-contention matrix — the same tables `cluster --metrics` /
//! `cluster --contention` print for a single cluster run. Recording is
//! observation-only; the binary asserts the recorded replay's aggregate
//! report is byte-identical to the plain one.
//!
//! `--watch` re-replays the trace with the scope bus attached and
//! prints one live `watch` line per wave admission/completion and
//! per-job iteration as the replay publishes them; `--events FILE`
//! additionally writes the full event stream as schema-versioned JSONL
//! (results/events.schema.json). Timestamps are absolute cluster time
//! (each wave's events are offset by its admission epoch).
//!
//! `--faults PLAN.json` applies a cluster-scope fault plan (JSON per
//! results/fault_plan.schema.json, schema v2) to **every wave**: each
//! wave is one independent cluster run, so the plan's machine indices
//! name replay-cluster machines and its times are wave-relative. Machine
//! failures trigger the cluster driver's checkpoint/migrate/resume
//! reaction inside each wave; the determinism assertions below hold
//! unchanged.
//!
//! `--serve-stdin` turns the binary into a long-running what-if query
//! service: each stdin line is one batch — a JSON query object, or an
//! array of them — and each batch prints one JSON answer line on
//! stdout. Query fields (all optional overlays on the base options):
//!
//! ```text
//! {"bandwidth_gbps": 10,
//!  "placement": "packed" | "round-robin" | "network-aware",
//!  "scheduler": "baseline" | {"partition_mb": 4, "credit_mb": 16},
//!  "truncate": 8}
//! ```
//!
//! Malformed lines, and lines longer than 1 MiB, answer
//! `{"error": ...}` and keep the service alive.
//! `--watch` / `--events` compose: every batch publishes a
//! `whatif_batch` scope event.
//!
//! The binary also re-replays the trace and asserts the two reports
//! serialize to identical bytes — the determinism contract CI leans on.
//!
//! Any other argument, or a `--serve` that is not a number, exits 2
//! with a message before any study runs.

use std::io::{BufRead, Read};

use bs_cluster::PlacementPolicy;
use bs_faults::{FaultPlan, PlanTarget};
use bs_harness::cli::{Arity, Flags};
use bs_harness::experiments::replay;
use bs_harness::{metrics_report, report, Fidelity};
use bs_replay::TraceJob;
use bs_replay::{
    replay_trace, replay_trace_observed, replay_trace_recorded, ReplayOptions, ReplayService,
    WhatIfAnswer, WhatIfQuery,
};
use bs_runtime::SchedulerKind;
use bs_scope::{FlightHandle, FlightRecorder, ScopeBus, WatchTable};
use serde_json::Value;

/// Builds the scope bus for `--watch` / `--events`, returning the
/// flight-recorder handle when an events file was requested.
fn scope_bus(watch: bool, events: bool) -> (ScopeBus, Option<FlightHandle>) {
    let mut bus = ScopeBus::new();
    if watch {
        bus.subscribe(Box::new(WatchTable::new()));
    }
    let flight = events.then(|| {
        let (rec, handle) = FlightRecorder::new();
        bus.subscribe(Box::new(rec));
        handle
    });
    (bus, flight)
}

fn write_events(path: &str, handle: &FlightHandle) {
    match std::fs::write(path, handle.to_jsonl()) {
        Ok(()) => println!("events: {} rows -> {path}", handle.len()),
        Err(e) => eprintln!("replay: cannot write events to {path}: {e}"),
    }
}

/// Maps one JSON object onto a [`WhatIfQuery`], rejecting unknown keys
/// and mistyped values so a client typo cannot silently run the base
/// config.
fn parse_query(v: &Value) -> Result<WhatIfQuery, String> {
    let Value::Object(fields) = v else {
        return Err("each query must be a JSON object".into());
    };
    let num = |v: &Value| match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(x) => Some(x),
        _ => None,
    };
    let mut q = WhatIfQuery::default();
    for (key, val) in fields {
        match key.as_str() {
            "bandwidth_gbps" => {
                q.bandwidth_gbps = Some(num(val).ok_or("bandwidth_gbps: expected a number")?);
            }
            "placement" => {
                let Value::Str(s) = val else {
                    return Err("placement: expected a string".into());
                };
                q.placement = Some(match s.as_str() {
                    "packed" => PlacementPolicy::Packed,
                    "round-robin" => PlacementPolicy::RoundRobinSpread,
                    "network-aware" => PlacementPolicy::NetworkAware,
                    other => return Err(format!("placement: unknown policy {other:?}")),
                });
            }
            "scheduler" => {
                q.scheduler = Some(match val {
                    Value::Str(s) if s == "baseline" => SchedulerKind::Baseline,
                    Value::Object(_) => {
                        let mb = |name: &str| {
                            val.get(name)
                                .and_then(num)
                                .map(|f| (f * 1e6) as u64)
                                .ok_or(format!("scheduler.{name}: expected a number"))
                        };
                        SchedulerKind::ByteScheduler {
                            partition: mb("partition_mb")?,
                            credit: mb("credit_mb")?,
                        }
                    }
                    _ => {
                        return Err(
                            "scheduler: expected \"baseline\" or {partition_mb, credit_mb}".into(),
                        )
                    }
                });
            }
            "truncate" => {
                q.truncate = Some(
                    num(val)
                        .filter(|x| *x >= 1.0)
                        .ok_or("truncate: expected a count")? as usize,
                );
            }
            other => return Err(format!("unknown query field {other:?}")),
        }
    }
    Ok(q)
}

/// Parses one stdin line: a single query object, or an array of them.
fn parse_batch(line: &str) -> Result<Vec<WhatIfQuery>, String> {
    let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
    match &v {
        Value::Array(items) => items.iter().map(parse_query).collect(),
        Value::Object(_) => Ok(vec![parse_query(&v)?]),
        _ => Err("expected a query object or an array of them".into()),
    }
}

/// One JSON answer line per batch: per-query source + headline numbers,
/// plus the service's cumulative counters.
fn answer_line(answers: &[WhatIfAnswer], svc: &ReplayService) -> String {
    let rows: Vec<Value> = answers
        .iter()
        .map(|a| {
            let source = match a.source {
                bs_replay::AnswerSource::Computed => "computed",
                bs_replay::AnswerSource::Cache => "cache",
                bs_replay::AnswerSource::BatchDedup => "batch_dedup",
            };
            Value::Object(vec![
                ("source".into(), Value::Str(source.into())),
                ("jobs".into(), Value::U64(a.report.jobs.len() as u64)),
                ("waves".into(), Value::U64(a.report.waves as u64)),
                ("makespan_secs".into(), Value::F64(a.report.makespan_secs)),
                ("jct_mean_secs".into(), Value::F64(a.report.jct.mean)),
                ("jct_p95_secs".into(), Value::F64(a.report.jct.p95)),
            ])
        })
        .collect();
    let s = svc.stats();
    let doc = Value::Object(vec![
        ("answers".into(), Value::Array(rows)),
        (
            "stats".into(),
            Value::Object(vec![
                ("queries".into(), Value::U64(s.queries)),
                ("executed".into(), Value::U64(s.executed)),
                ("cache_hits".into(), Value::U64(s.cache_hits)),
                ("batch_dedup".into(), Value::U64(s.batch_dedup)),
            ]),
        ),
    ]);
    serde_json::to_string(&doc).expect("answer serializes")
}

/// The longest `--serve-stdin` line read, in bytes. A query object
/// with every field set and each number written at full `f64` precision
/// is under 256 bytes, so 1 MiB holds a batch of 4096 of them, 128 times
/// the service's 32-entry answer cache. It also stays above the 200,000
/// bytes of a line nested past the JSON parser's depth cap, which the
/// parser answers itself.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads the next line of `input`, without its newline, into `line`.
/// Returns `None` at EOF, else whether the line fit in
/// [`MAX_LINE_BYTES`]; the rest of a longer line is read and discarded.
fn read_line(input: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<Option<bool>> {
    line.clear();
    let cap = MAX_LINE_BYTES as u64 + 1;
    if input.by_ref().take(cap).read_until(b'\n', line)? == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_LINE_BYTES {
        input.skip_until(b'\n')?;
        return Ok(Some(false));
    }
    Ok(Some(true))
}

/// The `--serve-stdin` loop: one batch per line until EOF.
fn serve_stdin(jobs: Vec<TraceJob>, opts: ReplayOptions, watch: bool, events_path: Option<&str>) {
    let (mut bus, flight) = scope_bus(watch, events_path.is_some());
    let mut svc = ReplayService::new(jobs, opts, 32);
    eprintln!("serve-stdin: one JSON query object or array per line; EOF ends the service");
    let mut stdin = std::io::stdin().lock();
    let mut line = Vec::new();
    loop {
        let fits = match read_line(&mut stdin, &mut line) {
            Ok(Some(fits)) => fits,
            Ok(None) => break,
            Err(e) => fail(&format!("cannot read stdin: {e}")),
        };
        let batch = if fits {
            std::str::from_utf8(&line)
                .map_err(|e| format!("line is not UTF-8: {e}"))
                .map(str::trim)
        } else {
            Err(format!("line longer than {MAX_LINE_BYTES} bytes"))
        };
        if batch.as_ref().is_ok_and(|text| text.is_empty()) {
            continue;
        }
        match batch.and_then(parse_batch) {
            Ok(queries) => {
                let answers = svc.submit_batch_observed(&queries, Some(&mut bus));
                println!("{}", answer_line(&answers, &svc));
            }
            Err(e) => {
                let doc = Value::Object(vec![("error".into(), Value::Str(e))]);
                println!("{}", serde_json::to_string(&doc).expect("error serializes"));
            }
        }
    }
    bus.finish(bs_sim::SimTime::ZERO);
    if let (Some(path), Some(handle)) = (events_path, &flight) {
        write_events(path, handle);
    }
    let s = svc.stats();
    eprintln!(
        "serve-stdin: {} queries -> {} executed, {} cache hits, {} batch-dedup",
        s.queries, s.executed, s.cache_hits, s.batch_dedup
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("replay: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = Flags::from_env(
        &[
            ("trace", Arity::Value),
            ("serve", Arity::Value),
            ("serve-stdin", Arity::Switch),
            ("metrics", Arity::Switch),
            ("watch", Arity::Switch),
            ("events", Arity::Value),
            ("faults", Arity::Value),
        ],
        fail,
    );
    let trace_arg = args.value("trace");
    let n_queries: usize = args.num("serve", 16);
    let watch = args.has("watch");
    let events_file = args.value("events");

    let fid = Fidelity::from_env();
    let mut opts = replay::base_options(fid);
    if let Some(path) = args.value("faults") {
        let plan = FaultPlan::from_file(path).unwrap_or_else(|e| fail(&e));
        let target = PlanTarget::Cluster {
            machines: opts.machines,
        };
        plan.check_fits(target)
            .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        println!(
            "faults: applying {path} to every wave ({} machine failures, {} link events, loss {})",
            plan.machine_failures.len(),
            plan.link_events.len(),
            plan.loss_rate
        );
        opts.faults = Some(plan);
    }

    let jobs = replay::load_trace_file(trace_arg.unwrap_or(replay::DEFAULT_TRACE))
        .unwrap_or_else(|e| fail(&e));
    let trace = trace_arg.unwrap_or(replay::DEFAULT_TRACE_NAME);
    if args.has("serve-stdin") {
        serve_stdin(jobs, opts, watch, events_file);
        return;
    }

    println!(
        "replaying {trace} (wave {}, arrival scale {}, iters cap {}, seed {})",
        opts.wave, opts.arrival_scale, opts.iters_cap, opts.seed
    );

    let (s, timing) = replay::run_experiment(&jobs, trace, &opts, n_queries);
    print!("{}", replay::render(&s, &timing));
    report::write_json("replay", &s);

    // Determinism: the same trace under the same options must serialize
    // to byte-identical reports.
    let a = serde_json::to_string(&replay_trace(&jobs, &opts)).expect("report serializes");
    let b = serde_json::to_string(&replay_trace(&jobs, &opts)).expect("report serializes");
    assert_eq!(a, b, "same trace + seed must give a byte-identical report");
    println!(
        "determinism: re-replay produced a byte-identical report ({} bytes)",
        a.len()
    );

    if args.has("metrics") {
        let (recorded, waves) = replay_trace_recorded(&jobs, &opts, true, true);
        assert_eq!(
            serde_json::to_string(&recorded).expect("report serializes"),
            a,
            "per-wave recording must not change the replay"
        );
        for w in &waves {
            println!(
                "\n=== wave {} (epoch {:.3} s, {} jobs) ===",
                w.wave,
                w.epoch_secs,
                w.result.jobs.len()
            );
            print!("{}", metrics_report::render_cluster_metrics(&w.result));
            if let Some(m) = &w.result.contention {
                println!();
                print!("{}", metrics_report::render_contention(m));
            }
        }
    }

    if watch || events_file.is_some() {
        let (mut bus, flight) = scope_bus(watch, events_file.is_some());
        let (observed, _) = replay_trace_observed(&jobs, &opts, false, false, Some(&mut bus));
        assert_eq!(
            serde_json::to_string(&observed).expect("report serializes"),
            a,
            "scope recording must not change the replay"
        );
        println!(
            "watch: replay published {} events across {} waves",
            bus.events_seen(),
            observed.waves
        );
        if let (Some(path), Some(handle)) = (events_file, &flight) {
            write_events(path, handle);
        }
    }

    // Service contract: with more queries than unique configs, repeats
    // must be answered from the cache (or collapse inside a batch).
    if n_queries > s.serve.unique_configs {
        assert!(
            s.serve.cache_hits > 0,
            "repeat queries must hit the LRU cache: {:?}",
            s.serve
        );
        assert_eq!(
            s.serve.executed as usize, s.serve.unique_configs,
            "every duplicate must be served without re-execution"
        );
    }
    println!(
        "service: {} queries -> {} executed, {} cache hits, {} batch-dedup",
        s.serve.queries, s.serve.executed, s.serve.cache_hits, s.serve.batch_dedup
    );
}
