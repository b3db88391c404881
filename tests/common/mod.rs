//! Golden-scenario helpers shared by the trace and telemetry test
//! binaries: the comm-heavy toy model, its pinned `WorldConfig`, and the
//! fingerprint rendering that `tests/fixtures/golden_comm_heavy.json`
//! stores. Kept here so `metrics_schema.rs` can prove telemetry-on runs
//! reproduce the *same* fixture `golden_trace.rs` pins for plain runs.

pub mod schema;

use bs_engine::EngineConfig;
use bs_models::{DnnModel, GpuSpec, ModelBuilder, SampleUnit};
use bs_net::{FabricModel, NetConfig, Transport};
use bs_runtime::{run, Arch, RunResult, SchedulerKind, WorldConfig};
use bs_sim::SimTime;
use serde_json::Value;

/// The comm-heavy toy shared with the runtime tests and every root
/// golden: a big first tensor so scheduling order matters.
pub fn comm_heavy() -> DnnModel {
    let gpu = GpuSpec::custom(1e12, 2.0);
    ModelBuilder::new("toy", gpu, 8, SampleUnit::Images)
        .explicit(
            "l0",
            40_000_000,
            SimTime::from_millis(4),
            SimTime::from_millis(8),
        )
        .explicit(
            "l1",
            5_000_000,
            SimTime::from_millis(4),
            SimTime::from_millis(8),
        )
        .explicit(
            "l2",
            5_000_000,
            SimTime::from_millis(4),
            SimTime::from_millis(8),
        )
        .explicit(
            "l3",
            1_000_000,
            SimTime::from_millis(4),
            SimTime::from_millis(8),
        )
        .build()
}

/// The pinned golden configuration on the given fabric.
pub fn scenario(fabric: FabricModel) -> WorldConfig {
    let mut c = WorldConfig::new(
        comm_heavy(),
        2,
        Arch::ps(2),
        NetConfig::gbps(10.0, Transport::tcp()),
        EngineConfig::mxnet_ps(),
        SchedulerKind::ByteScheduler {
            partition: 1_000_000,
            credit: 4_000_000,
        },
    );
    c.fabric = fabric;
    c.iters = 8;
    c.warmup = 2;
    // Non-zero jitter so the fixture also pins the RNG stream.
    c.jitter = 0.02;
    c.seed = 7;
    c
}

/// The determinism-relevant surface of a run, rendered to JSON. Includes
/// every quantity a fabric or event-loop change could disturb: virtual
/// end time in nanoseconds, the full per-iteration timing vector, byte
/// and event counts.
pub fn fingerprint(label: &str, r: &RunResult) -> Value {
    let fields = vec![
        ("scenario".to_string(), Value::Str(label.to_string())),
        ("scheduler".to_string(), Value::Str(r.scheduler.to_string())),
        (
            "finished_at_ns".to_string(),
            Value::U64(r.finished_at.as_nanos()),
        ),
        (
            "iter_times".to_string(),
            Value::Array(r.iter_times.iter().map(|t| Value::F64(*t)).collect()),
        ),
        ("speed".to_string(), Value::F64(r.speed)),
        ("p2p_bytes".to_string(), Value::U64(r.p2p_bytes)),
        ("comm_events".to_string(), Value::U64(r.comm_events)),
        (
            "peak_in_flight".to_string(),
            Value::U64(r.peak_in_flight as u64),
        ),
    ];
    Value::Object(fields)
}

/// Where the committed fixture lives.
#[allow(dead_code)]
pub fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_comm_heavy.json")
}

/// Renders both-fabric fingerprints, optionally with telemetry recording
/// on. Telemetry is recording-only, so the rendered bytes must be the
/// same either way — `metrics_schema.rs` asserts exactly that.
// Each test binary compiles its own copy of this module; not all of them
// call the render helpers (`faults.rs` fingerprints custom configs).
#[allow(dead_code)]
pub fn render(record_metrics: bool) -> String {
    render_with(record_metrics, false)
}

/// [`render`] with independent control of both recording subsystems.
/// Xray is recording-only too, so `xray_schema.rs` demands the same
/// fixture bytes with `record_xray` on.
#[allow(dead_code)]
pub fn render_with(record_metrics: bool, record_xray: bool) -> String {
    let mut fifo_cfg = scenario(FabricModel::SerialFifo);
    let mut fluid_cfg = scenario(FabricModel::FairShare);
    for cfg in [&mut fifo_cfg, &mut fluid_cfg] {
        cfg.record_metrics = record_metrics;
        cfg.record_xray = record_xray;
    }
    let fifo = run(&fifo_cfg);
    let fluid = run(&fluid_cfg);
    let doc = Value::Array(vec![
        fingerprint("comm_heavy_ps_fifo", &fifo),
        fingerprint("comm_heavy_ps_fluid", &fluid),
    ]);
    serde_json::to_string_pretty(&doc).expect("render fingerprint") + "\n"
}
