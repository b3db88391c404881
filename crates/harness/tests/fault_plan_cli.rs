//! Bad input never panics a CLI: a fault plan that does not fit the
//! run, a plan or trace file that cannot be read or parsed, or a run too
//! short to measure is reported with a message and exit code 2 instead
//! of a backtrace (exit code 101). Every case here fails before any
//! simulation runs.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    root.join(name).display().to_string()
}

/// Writes `plan` to a scratch file and returns its path.
fn plan_file(name: &str, plan: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, plan).expect("write plan");
    path.display().to_string()
}

fn assert_rejected(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: expected {needle:?} in {stderr}"
    );
}

const FAR_LINK: &str = r#"{"schema_version": 2, "link_events": [
    {"at_us": 1000, "node": 500, "dir": "Up", "scale": 0.5}]}"#;

#[test]
fn simctl_reports_plans_that_do_not_fit_the_run() {
    let simctl = env!("CARGO_BIN_EXE_simctl");
    let small = ["--gpus", "8", "--iters", "4", "--warmup", "1"];
    // 8 GPUs make one worker; the committed fixture straggles worker 1.
    let fixture = fixture("fault_plan.json");
    let args = [&small[..], &["--faults", &fixture]].concat();
    assert_rejected(
        simctl,
        &args,
        "straggler worker 1 outside this job's 1 workers",
    );
    let far = plan_file("far_link.json", FAR_LINK);
    let args = [&small[..], &["--faults", &far]].concat();
    assert_rejected(simctl, &args, "link event on node 500");
    // All-reduce collectives ride a private stream: no link to fault.
    let link = plan_file(
        "ring_link.json",
        r#"{"schema_version": 1, "link_events": [
            {"at_us": 1000, "node": 0, "dir": "Up", "scale": 0.5}]}"#,
    );
    let args = [
        &small[..],
        &["--setup", "mxnet-nccl-rdma", "--faults", &link],
    ]
    .concat();
    assert_rejected(simctl, &args, "occupies none");
    let args = [&small[..], &["--faults", "no/such/plan.json"]].concat();
    assert_rejected(simctl, &args, "cannot read fault plan");
}

#[test]
fn cluster_and_replay_report_bad_plan_files() {
    let broken = plan_file("broken.json", "{\"schema_version\": ");
    let far = plan_file("far_link_cluster.json", FAR_LINK);
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_cluster"), "cluster"),
        (env!("CARGO_BIN_EXE_replay"), "replay"),
    ] {
        assert_rejected(
            bin,
            &["--faults", "no/such/plan.json"],
            &format!("{name}: cannot read fault plan"),
        );
        assert_rejected(bin, &["--faults", &broken], &broken);
        assert_rejected(bin, &["--faults", &far], "link event on node 500");
    }
}

#[test]
fn simctl_reports_runs_too_short_to_measure() {
    let args: Vec<&str> = "--gpus 16 --iters 2 --warmup 1 --scheduler baseline"
        .split(' ')
        .collect();
    assert_rejected(
        env!("CARGO_BIN_EXE_simctl"),
        &args,
        "need at least two measured iterations after warmup",
    );
}

#[test]
fn replay_reports_unreadable_traces() {
    let replay = env!("CARGO_BIN_EXE_replay");
    for extra in [&[][..], &["--serve-stdin"][..]] {
        let args = [&["--trace", "/nonexistent.json"][..], extra].concat();
        assert_rejected(replay, &args, "replay: cannot read trace /nonexistent.json");
    }
}
