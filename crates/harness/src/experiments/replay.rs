//! Production-trace replay study: the §7 shared-cluster question asked
//! against real arrival processes instead of hand-built mixes.
//!
//! Two parts, mirroring the two layers of `bs-replay`:
//!
//! 1. **JCT study** — replay a normalized trace once under ByteScheduler
//!    and once under the FIFO baseline (same arrivals, same placement,
//!    same seeds) and compare the *distributions*: p50/p95/p99/max JCT,
//!    split into queueing delay and run time. Tail percentiles are the
//!    point — a scheduler that wins means but loses p99 is not a win in
//!    a cluster.
//! 2. **Service study** — stand up a [`ReplayService`] over the same
//!    trace and drive `N` what-if queries through it in batches,
//!    measuring throughput and per-batch latency. The query mix cycles
//!    a small set of unique configs, so the run demonstrates (and the
//!    smoke test asserts) batch dedup and LRU cache hits.

use bs_cluster::{DistSummary, PlacementPolicy};
use bs_replay::{
    load_trace, replay_trace, ReplayOptions, ReplayReport, ReplayService, TraceFormat, TraceJob,
    WhatIfQuery,
};
use bs_runtime::SchedulerKind;
use serde::Serialize;

use crate::fidelity::Fidelity;
use crate::report::Table;

macro_rules! default_trace {
    () => {
        "tests/fixtures/traces/philly_day.json"
    };
}

/// The committed trace fixture the binary defaults to, as reports name
/// it: relative to the repository root, so a report reads the same on
/// every checkout.
pub const DEFAULT_TRACE_NAME: &str = default_trace!();

/// Where [`DEFAULT_TRACE_NAME`] loads from (manifest-anchored so it
/// resolves from any working directory).
pub const DEFAULT_TRACE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../", default_trace!());

/// One scheduler's replay outcome.
#[derive(Clone, Debug, Serialize)]
pub struct JctRow {
    /// Scheduler label.
    pub scheduler: &'static str,
    /// Jobs replayed.
    pub jobs: usize,
    /// Admission waves.
    pub waves: usize,
    /// Full JCT distribution, seconds.
    pub jct: DistSummary,
    /// Queueing-delay distribution, seconds.
    pub queueing: DistSummary,
    /// Run-time distribution, seconds.
    pub run: DistSummary,
    /// Absolute finish of the last wave, seconds.
    pub makespan_secs: f64,
}

impl JctRow {
    fn from_report(scheduler: &'static str, r: &ReplayReport) -> JctRow {
        JctRow {
            scheduler,
            jobs: r.jobs.len(),
            waves: r.waves,
            jct: r.jct,
            queueing: r.queueing,
            run: r.run,
            makespan_secs: r.makespan_secs,
        }
    }
}

/// The service half's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct ServeStudy {
    /// Queries driven through the service.
    pub queries: usize,
    /// Unique configs in the mix.
    pub unique_configs: usize,
    /// Batch size used.
    pub batch: usize,
    /// Answers served from the LRU cache.
    pub cache_hits: u64,
    /// Answers collapsed inside a batch.
    pub batch_dedup: u64,
    /// Replays actually executed.
    pub executed: u64,
}

/// The service half's host timings: printed, never serialized, so the
/// committed study stays a render of the code.
#[derive(Clone, Debug)]
pub struct ServeTiming {
    /// Total wall time, seconds.
    pub wall_secs: f64,
    /// Queries answered per wall second.
    pub queries_per_sec: f64,
    /// Per-batch wall-latency distribution, seconds.
    pub batch_latency: DistSummary,
}

/// The whole experiment.
#[derive(Clone, Debug, Serialize)]
pub struct ReplayStudy {
    /// Trace file replayed.
    pub trace: String,
    /// Jobs in the (possibly truncated) replay.
    pub jobs: usize,
    /// BS vs FIFO distribution rows.
    pub rows: Vec<JctRow>,
    /// Service throughput/latency outcome.
    pub serve: ServeStudy,
}

/// Base replay options at the given fidelity: quick mode truncates the
/// trace and caps iterations harder so smoke runs stay fast.
pub fn base_options(fid: Fidelity) -> ReplayOptions {
    let quick = fid.iters < Fidelity::full().iters;
    ReplayOptions {
        iters_cap: if quick { 3 } else { 8 },
        truncate: if quick { Some(12) } else { None },
        ..ReplayOptions::default()
    }
}

/// Loads a trace file from disk, detecting the dialect by extension.
pub fn load_trace_file(path: &str) -> Result<Vec<TraceJob>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    load_trace(&text, TraceFormat::detect(path, &text))
}

/// The BS-vs-FIFO distribution comparison.
pub fn jct_study(jobs: &[TraceJob], opts: &ReplayOptions) -> Vec<JctRow> {
    let bs = replay_trace(jobs, opts);
    let fifo = replay_trace(
        jobs,
        &ReplayOptions {
            scheduler: SchedulerKind::Baseline,
            ..opts.clone()
        },
    );
    vec![
        JctRow::from_report("ByteScheduler", &bs),
        JctRow::from_report("Baseline", &fifo),
    ]
}

/// The what-if query mix the service study cycles: bandwidth ×
/// placement variations plus a FIFO row — 6 unique configs.
pub fn query_mix() -> Vec<WhatIfQuery> {
    let mut mix = Vec::new();
    for b in [10.0, 25.0, 40.0] {
        mix.push(WhatIfQuery {
            bandwidth_gbps: Some(b),
            ..WhatIfQuery::default()
        });
    }
    for p in [PlacementPolicy::Packed, PlacementPolicy::NetworkAware] {
        mix.push(WhatIfQuery {
            placement: Some(p),
            ..WhatIfQuery::default()
        });
    }
    mix.push(WhatIfQuery {
        scheduler: Some(SchedulerKind::Baseline),
        ..WhatIfQuery::default()
    });
    mix
}

/// Drives `n_queries` through a fresh service in batches of `batch`,
/// cycling [`query_mix`] so repeats are guaranteed once
/// `n_queries > unique configs`.
pub fn serve_study(
    jobs: &[TraceJob],
    opts: &ReplayOptions,
    n_queries: usize,
    batch: usize,
) -> (ServeStudy, ServeTiming) {
    let mix = query_mix();
    let mut svc = ReplayService::new(jobs.to_vec(), opts.clone(), 8);
    let queries: Vec<WhatIfQuery> = (0..n_queries).map(|i| mix[i % mix.len()].clone()).collect();
    let mut latencies = Vec::new();
    let t0 = std::time::Instant::now();
    for chunk in queries.chunks(batch.max(1)) {
        let b0 = std::time::Instant::now();
        let answers = svc.submit_batch(chunk);
        latencies.push(b0.elapsed().as_secs_f64());
        assert_eq!(answers.len(), chunk.len(), "one answer per query");
    }
    let wall = t0.elapsed().as_secs_f64();
    let stats = svc.stats();
    let study = ServeStudy {
        queries: n_queries,
        unique_configs: mix.len().min(n_queries),
        batch: batch.max(1),
        cache_hits: stats.cache_hits,
        batch_dedup: stats.batch_dedup,
        executed: stats.executed,
    };
    let timing = ServeTiming {
        wall_secs: wall,
        queries_per_sec: n_queries as f64 / wall.max(1e-9),
        batch_latency: DistSummary::from_unsorted(latencies),
    };
    (study, timing)
}

/// Runs both halves over the jobs of the trace named `trace` under
/// `opts` (for the binary: [`base_options`] plus any fault plan it was
/// given).
pub fn run_experiment(
    jobs: &[TraceJob],
    trace: &str,
    opts: &ReplayOptions,
    n_queries: usize,
) -> (ReplayStudy, ServeTiming) {
    let rows = jct_study(jobs, opts);
    let (serve, timing) = serve_study(jobs, opts, n_queries, 4);
    let study = ReplayStudy {
        trace: trace.to_string(),
        jobs: rows[0].jobs,
        rows,
        serve,
    };
    (study, timing)
}

/// Renders both tables, the service's with its host timings.
pub fn render(s: &ReplayStudy, timing: &ServeTiming) -> String {
    let mut out = String::new();
    let mut t = Table::new(
        format!(
            "trace replay — {} ({} jobs, {} waves): JCT distribution, seconds",
            s.trace, s.jobs, s.rows[0].waves
        ),
        &[
            "scheduler",
            "p50",
            "p95",
            "p99",
            "max",
            "queue p50",
            "run p50",
            "makespan",
        ],
    );
    for r in &s.rows {
        t.row(vec![
            r.scheduler.to_string(),
            format!("{:.2}", r.jct.p50),
            format!("{:.2}", r.jct.p95),
            format!("{:.2}", r.jct.p99),
            format!("{:.2}", r.jct.max),
            format!("{:.2}", r.queueing.p50),
            format!("{:.2}", r.run.p50),
            format!("{:.2}", r.makespan_secs),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    let v = &s.serve;
    let mut t = Table::new(
        format!(
            "what-if service — {} queries over {} unique configs, batches of {}",
            v.queries, v.unique_configs, v.batch
        ),
        &[
            "executed",
            "cache hits",
            "batch dedup",
            "queries/s",
            "batch p50 (ms)",
            "batch max (ms)",
        ],
    );
    t.row(vec![
        v.executed.to_string(),
        v.cache_hits.to_string(),
        v.batch_dedup.to_string(),
        format!("{:.2}", timing.queries_per_sec),
        format!("{:.1}", timing.batch_latency.p50 * 1e3),
        format!("{:.1}", timing.batch_latency.max * 1e3),
    ]);
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_runs_and_service_reuses_results() {
        let jobs = load_trace_file(DEFAULT_TRACE).expect("committed trace loads");
        let (s, _) = run_experiment(
            &jobs,
            DEFAULT_TRACE_NAME,
            &base_options(Fidelity::quick()),
            16,
        );
        assert_eq!(s.rows.len(), 2);
        for r in &s.rows {
            assert!(r.jct.p50 <= r.jct.p95 && r.jct.p95 <= r.jct.p99);
            assert!(r.jct.p99 <= r.jct.max);
            assert!(r.makespan_secs > 0.0);
        }
        // 16 queries over 6 unique configs: repeats must hit the cache
        // (or collapse inside a batch), and only the unique set executes.
        assert_eq!(s.serve.executed as usize, s.serve.unique_configs);
        assert!(
            s.serve.cache_hits + s.serve.batch_dedup >= 10,
            "16 queries / 6 configs must reuse at least 10 answers: {:?}",
            s.serve
        );
        assert!(s.serve.cache_hits > 0, "repeat batches must hit the LRU");
    }
}
