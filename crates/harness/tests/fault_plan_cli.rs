//! Bad input never panics a CLI nor runs on defaults: an unknown flag,
//! a stray value, a missing value or an unparsable number, a fault plan
//! that does not fit the run, a plan or trace file that cannot be read or parsed (nested past
//! the parser's depth cap included), a run too short to measure or
//! longer than a token can count, or a GPU count the setup cannot place
//! is reported with a message and exit code 2 instead of a backtrace
//! (exit code 101) or a stack overflow (134). A bad `--serve-stdin` line
//! gets an error document and the service answers the next line. Every
//! case here fails before any simulation runs.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

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
fn simctl_reports_plans_nested_past_the_depth_cap() {
    let deep = plan_file("deep.json", &"[".repeat(200_000));
    let args = [
        "--gpus", "8", "--iters", "4", "--warmup", "1", "--faults", &deep,
    ];
    assert_rejected(
        env!("CARGO_BIN_EXE_simctl"),
        &args,
        "nesting deeper than 128 levels",
    );
}

/// Feeds `input` to `replay --serve-stdin` and returns its stdout lines
/// once it exits cleanly.
fn serve_stdin(input: &[u8]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args([
            "--trace",
            &fixture("traces/philly_day.json"),
            "--serve-stdin",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("replay starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input)
        .expect("write queries");
    let out = child.wait_with_output().expect("replay exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    stdout.lines().map(str::to_string).collect()
}

/// Asserts each line is an error document containing its needle.
fn assert_errors(lines: &[String], needles: &[&str]) {
    assert_eq!(lines.len(), needles.len(), "{lines:?}");
    for (line, needle) in lines.iter().zip(needles) {
        assert!(line.starts_with("{\"error\":"), "{line}");
        assert!(line.contains(needle), "expected {needle:?} in {line}");
    }
}

#[test]
fn replay_service_answers_hostile_lines_with_error_documents() {
    let mut input = "[".repeat(200_000).into_bytes();
    input.extend_from_slice(b"\n\xff\xfe\n{\"threads\": 2}\n");
    assert_errors(
        &serve_stdin(&input),
        &[
            "nesting deeper than 128 levels",
            "line is not UTF-8",
            "unknown query field",
        ],
    );
}

#[test]
fn replay_service_discards_the_rest_of_an_over_long_line() {
    // Past the 1 MiB cap; were its tail read as a line of its own, it
    // would get an error document of its own.
    let mut input = "[".repeat(1_200_000).into_bytes();
    input.extend_from_slice(b"\n{\"threads\": 2}\n");
    assert_errors(
        &serve_stdin(&input),
        &["line longer than 1048576 bytes", "unknown query field"],
    );
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
fn simctl_reports_runs_past_the_iteration_budget() {
    let args: Vec<&str> = "--gpus 8 --iters 32769 --warmup 1 --scheduler baseline"
        .split(' ')
        .collect();
    assert_rejected(
        env!("CARGO_BIN_EXE_simctl"),
        &args,
        "--iters 32769: a run trains at most 32768 iterations",
    );
}

#[test]
fn simctl_reports_gpu_counts_that_do_not_fit_the_setup() {
    let simctl = env!("CARGO_BIN_EXE_simctl");
    for (setup, gpus, needle) in [
        ("mxnet-ps-tcp", "2", "not a positive multiple of 8"),
        ("mxnet-ps-rdma", "0", "not a positive multiple of 8"),
        ("pytorch-nccl-tcp", "1", "need at least 2 GPUs for a ring"),
    ] {
        let args = [
            "--setup",
            setup,
            "--gpus",
            gpus,
            "--iters",
            "4",
            "--warmup",
            "1",
            "--scheduler",
            "baseline",
        ];
        assert_rejected(simctl, &args, needle);
    }
}

#[test]
fn replay_reports_unreadable_traces() {
    let replay = env!("CARGO_BIN_EXE_replay");
    for extra in [&[][..], &["--serve-stdin"][..]] {
        let args = [&["--trace", "/nonexistent.json"][..], extra].concat();
        assert_rejected(replay, &args, "replay: cannot read trace /nonexistent.json");
    }
}

#[test]
fn bad_arguments_are_rejected_before_any_study() {
    let simctl = env!("CARGO_BIN_EXE_simctl");
    let cluster = env!("CARGO_BIN_EXE_cluster");
    let replay = env!("CARGO_BIN_EXE_replay");
    for (bin, args, needle) in [
        (simctl, &["--gpu", "8"][..], "simctl: unknown flag --gpu"),
        (simctl, &["vgg16"], "simctl: unexpected argument \"vgg16\""),
        (simctl, &["--watch", "yes"], "unexpected argument \"yes\""),
        (simctl, &["--gpus"], "simctl: --gpus needs a value"),
        (simctl, &["--gpus", "many"], "--gpus: cannot parse \"many\""),
        (
            cluster,
            &["--seed", "abc"],
            "cluster: --seed: cannot parse \"abc\"",
        ),
        (cluster, &["--seed"], "cluster: --seed needs a value"),
        (cluster, &["--sed", "3"], "cluster: unknown flag --sed"),
        (
            cluster,
            &["--metrics", "m.json", "x"],
            "unexpected argument \"x\"",
        ),
        (
            replay,
            &["--serve", "abc"],
            "replay: --serve: cannot parse \"abc\"",
        ),
        (replay, &["--trace"], "replay: --trace needs a value"),
        (replay, &["--serve-stdin", "4"], "unexpected argument \"4\""),
        (
            replay,
            &["--threads", "2"],
            "replay: unknown flag --threads",
        ),
    ] {
        assert_rejected(bin, args, needle);
    }
    // The study binaries read no flags at all.
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_fig02"), "fig02"),
        (env!("CARGO_BIN_EXE_fig04"), "fig04"),
        (env!("CARGO_BIN_EXE_fig09"), "fig09"),
        (env!("CARGO_BIN_EXE_fig10"), "fig10"),
        (env!("CARGO_BIN_EXE_fig11"), "fig11"),
        (env!("CARGO_BIN_EXE_fig12"), "fig12"),
        (env!("CARGO_BIN_EXE_fig13"), "fig13"),
        (env!("CARGO_BIN_EXE_fig14"), "fig14"),
        (env!("CARGO_BIN_EXE_table1"), "table1"),
        (env!("CARGO_BIN_EXE_all"), "all"),
        (env!("CARGO_BIN_EXE_ablations"), "ablations"),
        (env!("CARGO_BIN_EXE_coschedule"), "coschedule"),
        (env!("CARGO_BIN_EXE_dynamic"), "dynamic"),
        (env!("CARGO_BIN_EXE_faults"), "faults"),
    ] {
        assert_rejected(bin, &["--bogus"], &format!("{name}: unknown flag --bogus"));
    }
}
