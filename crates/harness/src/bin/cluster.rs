//! Runs the multi-job cluster experiment (`BS_QUICK=1` smoke), then
//! verifies the two cluster-mode invariants the simulator promises:
//! same seed ⇒ bit-identical trace, and a single-job cluster reproduces
//! the standalone `World` run exactly.
//!
//! `--metrics [FILE]` additionally records run telemetry on the 2-job
//! reference cluster, prints the cluster metrics summary (per-job stall
//! breakdown, per-NIC utilisation, per-job NIC shares) and, when FILE is
//! given, writes the machine-readable metrics.json there.
//!
//! `--xray [FILE]` records the causal event log on the same reference
//! cluster, prints each job's critical-path attribution (per-category
//! breakdown, top critical tensors) and, when FILE is given, writes the
//! lead job's schema-versioned critical_path.json there.
//!
//! `--contention [FILE]` runs the 4-tenant contention reference (three
//! PS tenants + one burst tenant, packed) with the link-contention
//! observatory recording, asserts the matrix is byte-deterministic,
//! prints the per-link tenant shares and pairwise phase-collision tables
//! and, when FILE is given, writes the schema-versioned contention.json
//! there.
//!
//! `--watch [FILE]` reruns the 2-job reference cluster with the scope
//! bus attached: prints one live `watch` line per iteration, retransmit
//! and wave event as the driver publishes them (with a drift bank
//! listening), and, when FILE is given, writes the full event stream as
//! schema-versioned JSONL (results/events.schema.json) there.
//!
//! `--faults [PLAN.json]` runs the machine-failure reaction study on the
//! 2-job reference pair (plus one spare machine) under the given
//! cluster-scope fault plan (default: the committed
//! `tests/fixtures/cluster_fault_plan.json`), on both fabrics: once
//! riding out the outage and once with the driver's reactive
//! checkpoint/migrate/resume loop. The binary asserts every reactive arm
//! migrated at least once and finished `DegradedCompleted`, asserts
//! checkpoint+migrate beats no-reaction on makespan on both fabrics
//! (exit 2 with the reason when a plan breaks one of these), and, for the
//! committed fixture only, writes the machine-readable study to
//! results/cluster_faults.json.
//!
//! `--seed N` sets the base jitter seed of the synthetic job mixes
//! (default 21, the committed-artefact value), so any mix reported here
//! is reproducible from the CLI alone. The seed is printed in the result
//! header.
//!
//! Only a run with none of the study flags above writes the cluster
//! tables to results/cluster.json.
//!
//! Any other argument, or a `--seed` that is not a number, exits 2 with
//! a message before any study runs.

use bs_cluster::{run_cluster, ClusterConfig, JobSpec, PlacementPolicy};
use bs_faults::{FaultPlan, PlanTarget};
use bs_harness::cli::{Arity, Flags};
use bs_harness::experiments::cluster;
use bs_harness::{metrics_report, report, xray_report, Fidelity, Setup};
use bs_runtime::SchedulerKind;

fn fail(msg: &str) -> ! {
    eprintln!("cluster: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = Flags::from_env(
        &[
            ("metrics", Arity::Optional),
            ("xray", Arity::Optional),
            ("contention", Arity::Optional),
            ("watch", Arity::Optional),
            ("faults", Arity::Optional),
            ("seed", Arity::Value),
        ],
        fail,
    );
    let flag_file = |flag: &str| (args.has(flag), args.value(flag));
    let (metrics_on, metrics_file) = flag_file("metrics");
    let (xray_on, xray_file) = flag_file("xray");
    let (contention_on, contention_file) = flag_file("contention");
    let (watch_on, watch_file) = flag_file("watch");
    let (faults_on, faults_file) = flag_file("faults");
    let seed: u64 = args.num("seed", cluster::DEFAULT_SEED);

    let fid = Fidelity::from_env();
    // A plan that cannot run fails before any study does.
    let fault_plan = faults_on.then(|| {
        let plan = match faults_file {
            Some(path) => FaultPlan::from_file(path).unwrap_or_else(|e| fail(&e)),
            None => cluster::cluster_fault_fixture(),
        };
        let machines = cluster::migration_machines(fid);
        plan.check_fits(PlanTarget::Cluster { machines })
            .unwrap_or_else(|e| fail(&e));
        // Only the committed fixture's study is the committed render.
        let fixture = plan == cluster::cluster_fault_fixture();
        let label = match faults_file {
            Some(path) if !fixture => format!("plan {path}"),
            _ => "committed cluster fault fixture".to_string(),
        };
        (plan, fixture, label)
    });
    println!(
        "cluster study seed: {seed} (co-tenants {seed}/{}, placement base {})",
        seed + 1,
        seed + 79
    );
    let r = cluster::run_experiment(fid, seed);
    print!("{}", cluster::render(&r));
    // A study run leaves the committed tables alone.
    if !(metrics_on || xray_on || contention_on || watch_on || faults_on) {
        report::write_json("cluster", &r);
    }

    // Determinism: the same 2-job cluster twice, traces recorded, must
    // serialise to the same bytes.
    let a = cluster::reference_run(fid, metrics_on, xray_on);
    let b = cluster::reference_run(fid, metrics_on, xray_on);
    let (ta, tb) = (
        a.trace.as_ref().expect("trace recorded").to_chrome_json(),
        b.trace.as_ref().expect("trace recorded").to_chrome_json(),
    );
    assert_eq!(ta, tb, "same seed must give a bit-identical cluster trace");
    println!(
        "determinism: 2-job rerun produced a bit-identical trace ({} bytes)",
        ta.len()
    );

    if metrics_on {
        println!();
        print!("{}", metrics_report::render_cluster_metrics(&a));
        if let (Some(path), Some(ms)) = (metrics_file, &a.metrics) {
            metrics_report::write_metrics_json(path, ms);
            println!("metrics: {} entries -> {path}", ms.entries().len());
        }
    }

    if xray_on {
        println!();
        print!("{}", xray_report::render_cluster_xray(&a));
        if let (Some(path), Some(x)) = (
            xray_file,
            a.jobs.first().and_then(|j| j.result.xray.as_ref()),
        ) {
            xray_report::write_critical_path_json(path, x);
            println!("xray: critical path of {} -> {path}", a.jobs[0].name);
        }
    }

    if contention_on {
        let r = cluster::contention_reference(fid);
        let m = r.contention.as_ref().expect("contention recorded");
        let json = serde_json::to_string_pretty(m).expect("contention serialises");
        // The observatory's export contract: a rerun renders the same bytes.
        let again = cluster::contention_reference(fid);
        assert_eq!(
            json,
            serde_json::to_string_pretty(again.contention.as_ref().unwrap())
                .expect("contention serialises"),
            "contention matrix must be byte-deterministic"
        );
        println!();
        print!("{}", metrics_report::render_contention(m));
        println!(
            "determinism: contention rerun produced a byte-identical matrix ({} bytes)",
            json.len()
        );
        if let Some(path) = contention_file {
            metrics_report::write_contention_json(path, m);
            println!(
                "contention: {} links, {} pairs -> {path}",
                m.links.len(),
                m.pairs.len()
            );
        }
    }

    if watch_on {
        use bs_scope::{FlightRecorder, ScopeBus, WatchTable};
        println!();
        let mut bus = ScopeBus::new();
        bus.subscribe(Box::new(bs_tune::LiveDrift::new(fid.warmup)));
        bus.subscribe(Box::new(WatchTable::new()));
        let flight = watch_file.map(|_| {
            let (rec, handle) = FlightRecorder::new();
            bus.subscribe(Box::new(rec));
            handle
        });
        let r = cluster::observed_reference(fid, &mut bus);
        bus.finish(r.makespan);
        println!(
            "watch: 2-job reference cluster published {} events",
            bus.events_seen()
        );
        if let (Some(path), Some(handle)) = (watch_file, &flight) {
            match std::fs::write(path, handle.to_jsonl()) {
                Ok(()) => println!("events: {} rows -> {path}", handle.len()),
                Err(e) => eprintln!("cluster: cannot write events to {path}: {e}"),
            }
        }
    }

    if let Some((plan, fixture, label)) = fault_plan {
        let m = cluster::migration_study(fid, &plan);
        println!();
        print!("{}", cluster::render_migration(&m, &label));
        // A plan the study's claims do not hold under is reported, not
        // a crash.
        for r in &m.rows {
            if r.outcomes.iter().any(|o| o.starts_with("FAILED")) {
                fail(&format!(
                    "{}/{}: a job failed: {:?}",
                    r.fabric, r.reaction, r.outcomes
                ));
            }
            if r.reaction == "checkpoint+migrate" {
                if r.migrations == 0 {
                    fail(&format!(
                        "{}: the machine failure must trigger a migration",
                        r.fabric
                    ));
                }
                if !r.outcomes.iter().all(|o| o.starts_with("degraded")) {
                    fail(&format!(
                        "{}: migrated jobs must finish DegradedCompleted: {:?}",
                        r.fabric, r.outcomes
                    ));
                }
            }
        }
        for s in &m.savings {
            if s.saved_secs <= 0.0 {
                fail(&format!(
                    "{}: checkpoint+migrate must beat no-reaction on makespan \
                     ({:.2} s vs {:.2} s)",
                    s.fabric, s.migrate_secs, s.no_reaction_secs
                ));
            }
        }
        let verdict = "faults: checkpoint+migrate beat no-reaction on both fabrics";
        if fixture {
            report::write_json("cluster_faults", &m);
            println!("{verdict} -> results/cluster_faults.json");
        } else {
            println!("{verdict} (not the committed fixture: nothing written)");
        }
    }

    // Degenerate case: a 1-job cluster is the standalone simulator.
    let cfg = Setup::MxnetPsRdma.config(
        bs_models::zoo::resnet50(),
        16,
        25.0,
        SchedulerKind::ByteScheduler {
            partition: 4_000_000,
            credit: 16_000_000,
        },
    );
    let mut cfg = cfg;
    fid.apply(&mut cfg);
    let solo = bs_runtime::run(&cfg);
    let one = run_cluster(
        &ClusterConfig {
            placement: PlacementPolicy::Packed,
            ..ClusterConfig::new(cfg.num_workers * 2, cfg.net)
        },
        &[JobSpec::train("solo", cfg.clone())],
    );
    let in_cluster = &one.jobs[0].result;
    assert_eq!(solo.finished_at, in_cluster.finished_at, "finish time");
    assert_eq!(solo.speed, in_cluster.speed, "training speed");
    assert_eq!(solo.p2p_bytes, in_cluster.p2p_bytes, "fabric bytes");
    assert_eq!(solo.comm_events, in_cluster.comm_events, "fabric events");
    println!(
        "degenerate case: 1-job cluster matches World::run exactly ({:.0} {} at t={:?})",
        solo.speed, solo.speed_unit, solo.finished_at
    );
}
