//! Pins the co-tenant (`BackgroundLoad`) traffic model to a committed
//! fixture. The fixture was captured *before* the burst logic moved from
//! `World` into the shared [`bs_runtime`] traffic-source abstraction that
//! the cluster subsystem also uses, so it proves the rewire is
//! behaviour-preserving: the synthetic co-tenant's bursts, jittered gaps
//! and their interleaving with the job's transfers are bit-identical on
//! both fabrics.
//!
//! Regenerate (only for an *intentional* co-tenant model change) with:
//!
//! ```text
//! BS_UPDATE_GOLDEN=1 cargo test --test background_pin
//! ```

#[allow(dead_code)]
mod common;

use bs_engine::EngineConfig;
use bs_net::{FabricModel, NetConfig, Transport};
use bs_runtime::{run, Arch, BackgroundLoad, RunResult, SchedulerKind, WorldConfig};
use serde_json::Value;

fn scenario(fabric: FabricModel, sched: SchedulerKind, gap_us: u64) -> WorldConfig {
    let mut c = WorldConfig::new(
        common::comm_heavy(),
        2,
        Arch::ps(2),
        NetConfig::gbps(10.0, Transport::tcp()),
        EngineConfig::mxnet_ps(),
        sched,
    );
    c.fabric = fabric;
    c.background = Some(BackgroundLoad {
        burst_bytes: 4 << 20,
        gap_us,
    });
    c.iters = 8;
    c.warmup = 2;
    // Jitter exercises the engine RNG stream; the burst-gap RNG runs
    // regardless, and the fixture pins both.
    c.jitter = 0.02;
    c.seed = 7;
    c
}

fn fingerprint(label: &str, r: &RunResult) -> Value {
    Value::Object(vec![
        ("scenario".to_string(), Value::Str(label.to_string())),
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
    ])
}

fn render() -> String {
    let bs = SchedulerKind::ByteScheduler {
        partition: 1_000_000,
        credit: 4_000_000,
    };
    let cases = [
        (
            "bg_fifo_bytescheduler_gap500",
            scenario(FabricModel::SerialFifo, bs, 500),
        ),
        (
            "bg_fifo_baseline_gap500",
            scenario(FabricModel::SerialFifo, SchedulerKind::Baseline, 500),
        ),
        (
            "bg_fluid_bytescheduler_gap500",
            scenario(FabricModel::FairShare, bs, 500),
        ),
        (
            "bg_fifo_bytescheduler_saturating",
            scenario(FabricModel::SerialFifo, bs, 0),
        ),
    ];
    let doc = Value::Array(
        cases
            .iter()
            .map(|(label, cfg)| fingerprint(label, &run(cfg)))
            .collect(),
    );
    serde_json::to_string_pretty(&doc).expect("render fingerprint") + "\n"
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_background.json")
}

#[test]
fn background_load_matches_committed_fixture() {
    let actual = render();
    let path = fixture_path();
    if std::env::var("BS_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, &actual).expect("write fixture");
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with BS_UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "co-tenant traffic diverged from the golden fixture; if the \
         behaviour change is intentional, regenerate with BS_UPDATE_GOLDEN=1 \
         and review the diff"
    );
}
