//! `simctl` — run one training simulation from the command line.
//!
//! ```text
//! cargo run --release -p bs-harness --bin simctl -- \
//!     --model vgg16 --setup mxnet-ps-rdma --gpus 32 --gbps 100 \
//!     --scheduler bytescheduler --partition-mb 6 --credit-mb 21
//! ```
//!
//! Flags (all optional, shown with defaults):
//!
//! ```text
//! --model vgg16|vgg19|alexnet|resnet50|transformer|
//!         inception_v3|bert_base                     (vgg16)
//! --setup mxnet-ps-tcp|mxnet-ps-rdma|tf-ps-tcp|
//!         mxnet-nccl-rdma|pytorch-nccl-tcp           (mxnet-ps-rdma)
//! --gpus N                                           (32)
//! --gbps F                                           (100)
//! --scheduler baseline|p3|bytescheduler|tuned        (tuned)
//! --partition-mb F  --credit-mb F    (bytescheduler only)
//! --fabric fifo|fluid                                (fifo)
//! --iters N --warmup N --seed N --jitter F
//! --faults FILE     inject the fault plan in FILE (JSON per
//!                   results/fault_plan.schema.json): link degradations
//!                   and flaps, seeded transfer loss, stragglers; the
//!                   run's outcome line then reports Completed /
//!                   DegradedCompleted / Failed with retry counts
//! --trace FILE      write a chrome://tracing JSON of the run
//! --metrics FILE    record run telemetry: print the summary tables
//!                   (per-worker stall breakdown, per-lane credit
//!                   occupancy, per-NIC utilisation) and write the
//!                   machine-readable metrics.json to FILE ("-" prints
//!                   the tables only)
//! --xray FILE       record the causal event log: print the
//!                   critical-path attribution (per-category breakdown
//!                   summing exactly to the measured wall time, top-10
//!                   critical tensors) and write the schema-versioned
//!                   critical_path.json to FILE ("-" prints the tables
//!                   only)
//! --watch           attach the scope bus and print one live `watch`
//!                   line per iteration, retransmit, fault, and drift
//!                   detection as the simulation publishes them
//! --events FILE     attach the scope flight recorder and write the
//!                   run's full event stream as schema-versioned JSONL
//!                   (results/events.schema.json)
//! ```
//!
//! `--scheduler tuned` auto-tunes (δ, c) with BO before the measured run
//! (`--trials N` samples). Any other argument exits 2 with a message.

use bs_faults::{FaultPlan, PlanTarget};
use bs_harness::cli::{Arity, Flags};
use bs_harness::{tune, Fidelity, Setup};
use bs_models::DnnModel;
use bs_net::FabricModel;
use bs_runtime::token::ITER_LIMIT;
use bs_runtime::{run, run_observed, JobState, SchedulerKind};
use bs_scope::{FlightRecorder, ScopeBus, WatchTable};
use bs_tune::LiveDrift;

fn fail(msg: &str) -> ! {
    eprintln!("simctl: {msg}\nrun with no arguments for defaults; see the module docs for flags");
    std::process::exit(2);
}

/// Every flag simctl reads; see the module docs.
const FLAGS: &[(&str, Arity)] = &[
    ("model", Arity::Value),
    ("setup", Arity::Value),
    ("gpus", Arity::Value),
    ("gbps", Arity::Value),
    ("scheduler", Arity::Value),
    ("partition-mb", Arity::Value),
    ("credit-mb", Arity::Value),
    ("trials", Arity::Value),
    ("fabric", Arity::Value),
    ("iters", Arity::Value),
    ("warmup", Arity::Value),
    ("seed", Arity::Value),
    ("jitter", Arity::Value),
    ("faults", Arity::Value),
    ("trace", Arity::Value),
    ("metrics", Arity::Value),
    ("xray", Arity::Value),
    ("watch", Arity::Switch),
    ("events", Arity::Value),
];

fn main() {
    let args = Flags::from_env(FLAGS, fail);
    let model: DnnModel = match args.value("model").unwrap_or("vgg16") {
        "vgg16" => bs_models::zoo::vgg16(),
        "vgg19" => bs_models::zoo::vgg19(),
        "alexnet" => bs_models::zoo::alexnet(),
        "resnet50" => bs_models::zoo::resnet50(),
        "transformer" => bs_models::zoo::transformer(),
        "inception_v3" => bs_models::zoo::inception_v3(),
        "bert_base" => bs_models::zoo::bert_base(),
        other => fail(&format!("unknown model {other:?}")),
    };
    let setup = match args.value("setup").unwrap_or("mxnet-ps-rdma") {
        "mxnet-ps-tcp" => Setup::MxnetPsTcp,
        "mxnet-ps-rdma" => Setup::MxnetPsRdma,
        "tf-ps-tcp" => Setup::TfPsTcp,
        "mxnet-nccl-rdma" => Setup::MxnetNcclRdma,
        "pytorch-nccl-tcp" => Setup::PytorchNcclTcp,
        other => fail(&format!("unknown setup {other:?}")),
    };
    let gpus: u64 = args.num("gpus", 32);
    setup
        .check_gpus(gpus)
        .unwrap_or_else(|e| fail(&format!("--gpus {gpus}: {e}")));
    let gbps: f64 = args.num("gbps", 100.0);

    let mut cfg = setup.config(model, gpus, gbps, SchedulerKind::Baseline);
    cfg.iters = args.num("iters", Fidelity::full().iters);
    cfg.warmup = args.num("warmup", Fidelity::full().warmup);
    if cfg.warmup + 2 > cfg.iters {
        fail(&format!(
            "--iters {} with --warmup {}: need at least two measured iterations after warmup",
            cfg.iters, cfg.warmup
        ));
    }
    if cfg.iters > ITER_LIMIT {
        fail(&format!(
            "--iters {}: a run trains at most {ITER_LIMIT} iterations",
            cfg.iters
        ));
    }
    cfg.seed = args.num("seed", 1);
    cfg.jitter = args.num("jitter", 0.01);
    cfg.fabric = match args.value("fabric").unwrap_or("fifo") {
        "fifo" => FabricModel::SerialFifo,
        "fluid" => FabricModel::FairShare,
        other => fail(&format!("unknown fabric {other:?}")),
    };

    // The plan is checked against the run before any simulation (the
    // tuner's included); it applies to the measured run only.
    let faults = args.value("faults").map(|path| {
        let plan = FaultPlan::from_file(path).unwrap_or_else(|e| fail(&e));
        let target = PlanTarget::Job {
            workers: cfg.num_workers,
            nodes: JobState::fabric_nodes_needed(&cfg),
        };
        plan.check_fits(target)
            .unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        plan
    });

    let mb = |f: f64| (f * 1e6) as u64;
    cfg.scheduler = match args.value("scheduler").unwrap_or("tuned") {
        "baseline" => SchedulerKind::Baseline,
        "p3" => SchedulerKind::P3,
        "bytescheduler" => SchedulerKind::ByteScheduler {
            partition: mb(args.num("partition-mb", 4.0)),
            credit: mb(args.num("credit-mb", 16.0)),
        },
        "tuned" => {
            let out = tune(
                &cfg,
                setup.search_space(),
                args.num("trials", Fidelity::full().tune_trials),
                cfg.seed,
            );
            eprintln!(
                "tuned: partition {:.1} MB, credit {:.1} MB ({} trials)",
                out.partition as f64 / 1e6,
                out.credit as f64 / 1e6,
                out.trials
            );
            SchedulerKind::ByteScheduler {
                partition: out.partition,
                credit: out.credit,
            }
        }
        other => fail(&format!("unknown scheduler {other:?}")),
    };

    cfg.faults = faults;

    let trace_path = args.value("trace");
    cfg.record_trace = trace_path.is_some();
    let metrics_path = args.value("metrics");
    cfg.record_metrics = metrics_path.is_some();
    let xray_path = args.value("xray");
    cfg.record_xray = xray_path.is_some();
    let watch = args.has("watch");
    let events_path = args.value("events");

    let linear = cfg.linear_scaling_speed();
    let r = if watch || events_path.is_some() {
        let mut bus = ScopeBus::new();
        bus.subscribe(Box::new(LiveDrift::new(cfg.warmup)));
        if watch {
            bus.subscribe(Box::new(WatchTable::new()));
        }
        let flight = events_path.as_ref().map(|_| {
            let (rec, handle) = FlightRecorder::new();
            bus.subscribe(Box::new(rec));
            handle
        });
        let r = run_observed(&cfg, Some(&mut bus));
        if let (Some(path), Some(handle)) = (&events_path, &flight) {
            match std::fs::write(path, handle.to_jsonl()) {
                Ok(()) => println!("events      {:>12} rows -> {path}", handle.len()),
                Err(e) => eprintln!("simctl: cannot write events to {path}: {e}"),
            }
        }
        r
    } else {
        run(&cfg)
    };
    println!(
        "{} | {} | {} GPUs | {:.0} Gbps | {}",
        cfg.model.name,
        setup.label(),
        gpus,
        gbps,
        r.scheduler
    );
    println!(
        "speed       {:>12.0} {} ({:.1}% of linear {:.0})",
        r.speed,
        r.speed_unit,
        100.0 * r.speed / linear,
        linear
    );
    println!(
        "iteration   {:>12.2} ms (± {:.2} ms over {} measured)",
        r.iteration_period * 1e3,
        r.iter_time_std * 1e3,
        r.iter_times.len()
    );
    println!(
        "wire bytes  {:>12} p2p, {} collective",
        r.p2p_bytes, r.collective_bytes
    );
    if cfg.faults.is_some() {
        use bs_runtime::RunOutcome;
        let line = match &r.outcome {
            RunOutcome::Completed => "Completed (no recovery needed)".to_string(),
            RunOutcome::DegradedCompleted { retries, reroutes } => {
                format!("DegradedCompleted ({retries} retries, {reroutes} reroutes)")
            }
            RunOutcome::Failed { reason } => format!("Failed: {reason}"),
        };
        println!("outcome     {line:>12}");
    }
    if let (Some(path), Some(trace)) = (trace_path, &r.trace) {
        match std::fs::write(path, trace.to_chrome_json()) {
            Ok(()) => println!(
                "trace       {:>12} spans -> {path} (open in chrome://tracing)",
                trace.len()
            ),
            Err(e) => eprintln!("simctl: cannot write trace to {path}: {e}"),
        }
    }
    if let (Some(path), Some(ms)) = (metrics_path, &r.metrics) {
        println!();
        print!("{}", bs_harness::metrics_report::render_run_metrics(ms));
        if path != "-" {
            bs_harness::metrics_report::write_metrics_json(path, ms);
            println!("metrics     {:>12} entries -> {path}", ms.entries().len());
        }
    }
    if let (Some(path), Some(x)) = (xray_path, &r.xray) {
        println!();
        print!("{}", bs_harness::xray_report::render_xray(x));
        if path != "-" {
            bs_harness::xray_report::write_critical_path_json(path, x);
            println!(
                "xray        {:>12} events -> {path}",
                x.counts.parts + x.counts.compute_spans
            );
        }
    }
}
