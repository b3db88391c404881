//! CI performance regression gate.
//!
//! Re-times the tracked macro scenarios (full sizes, shared with
//! `bin/perf_baseline` via [`bs_bench::baseline`]) and compares
//! events/sec against the newest committed `BENCH_<n>.json` at the
//! repository root. Any scenario more than the tolerance below its
//! baseline fails the process with exit code 1 and a line naming the
//! scenario, so CI blocks simulator-performance regressions instead of
//! discovering them at the next baseline refresh.
//!
//! ```text
//! cargo run --release -p bs-bench --bin perf_gate
//! ```
//!
//! Environment knobs:
//!
//! - `BS_GATE_BASELINE`  — baseline path (default: the `BENCH_<n>.json`
//!   with the highest `n` in the working directory, falling back to the
//!   repository root this crate was built from).
//! - `BS_GATE_TOLERANCE` — allowed fractional regression (default 0.15,
//!   i.e. fail when events/sec drops more than 15%).
//! - `BS_BENCH_REPS`     — repetitions per scenario, min wall (default 3).
//! - `BS_BENCH_SCOPE`    — when set (and not `0`), every timed rep runs
//!   with a subscriber-less scope observation bus attached. The fresh
//!   numbers still gate against the same committed floors, which is the
//!   CI proof that recording costs less than the gate tolerance.
//!
//! Only the scenarios re-timed here gate: the single-job ones and the
//! `_seq` cluster mixes. The `_par` entries of older `BENCH_*.json` files
//! have no fresh counterpart and are ignored.

use std::path::PathBuf;

use bs_bench::baseline::{
    cluster_4job_macro, cluster_mixed_macro, gate_failures, get_f64, macro_events_per_sec,
    macro_scenarios, replay_service_macro, run_cluster_macro, run_macro, run_replay_macro,
    scope_enabled,
};
use serde::Value;

/// The committed baseline with the highest `BENCH_<n>.json` index in
/// `dir`, if any.
fn newest_bench_file(dir: &std::path::Path) -> Option<PathBuf> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(idx) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| idx > *b) {
            best = Some((idx, entry.path()));
        }
    }
    best.map(|(_, p)| p)
}

fn find_baseline() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("BS_GATE_BASELINE") {
        return Some(PathBuf::from(p));
    }
    newest_bench_file(std::path::Path::new(".")).or_else(|| {
        let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        root.pop();
        root.pop();
        newest_bench_file(&root)
    })
}

fn main() {
    let tolerance: f64 = std::env::var("BS_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.15);
    let reps: usize = std::env::var("BS_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);

    let Some(baseline_path) = find_baseline() else {
        eprintln!("error: no BENCH_<n>.json baseline found and BS_GATE_BASELINE unset");
        std::process::exit(2);
    };
    let baseline_doc: Value = match std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: reading {}: {e}", baseline_path.display());
            std::process::exit(2);
        }
    };
    let baseline = macro_events_per_sec(&baseline_doc);
    if baseline.is_empty() {
        eprintln!(
            "error: {} has no macro entries with events_per_sec",
            baseline_path.display()
        );
        std::process::exit(2);
    }

    eprintln!(
        "perf gate: {} vs fresh run, {:.0}% tolerance, {reps} rep(s){}:",
        baseline_path.display(),
        tolerance * 100.0,
        if scope_enabled() {
            ", scope bus attached"
        } else {
            ""
        },
    );

    let mut fresh: Vec<(String, f64)> = Vec::new();
    let mut record = |name: &str, entry: &Value| {
        if let Some(eps) = get_f64(entry, "events_per_sec") {
            fresh.push((name.to_string(), eps));
        }
    };
    for s in macro_scenarios(false) {
        let entry = run_macro(&s, reps);
        record(s.name, &entry);
    }
    {
        let m = cluster_4job_macro(false);
        let entry = run_cluster_macro(&m, reps);
        record(&m.name, &entry);
    }
    for (name, n_ps, n_ar) in [
        ("cluster_8job_mixed_seq", 3usize, 5usize),
        ("cluster_16job_mixed_seq", 6, 10),
    ] {
        let m = cluster_mixed_macro(name, n_ps, n_ar, false);
        let entry = run_cluster_macro(&m, reps);
        record(&m.name, &entry);
    }
    {
        let m = replay_service_macro(false);
        let entry = run_replay_macro(&m, reps);
        record(&m.name, &entry);
    }

    let failures = gate_failures(&baseline, &fresh, tolerance);
    if failures.is_empty() {
        eprintln!(
            "perf gate passed: {} scenario(s) within tolerance",
            fresh.len()
        );
    } else {
        for f in &failures {
            eprintln!("perf gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}
