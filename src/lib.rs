//! ByteScheduler-rs: a Rust reproduction of *"A Generic Communication
//! Scheduler for Distributed DNN Training Acceleration"* (SOSP 2019).
//!
//! This facade crate re-exports the workspace so that downstream users (and
//! the examples and integration tests in this repository) can depend on a
//! single crate:
//!
//! ```
//! use bytescheduler::models::zoo::vgg16;
//!
//! let model = vgg16();
//! assert_eq!(model.name, "VGG16");
//! ```
//!
//! The crates, bottom-up:
//!
//! * [`sim`] — simulation kernel (virtual time, seeded RNG, online stats).
//! * [`telemetry`] — simulation-clock metrics: counters, gauges,
//!   piecewise-constant time series with time-weighted summaries.
//! * [`models`] — DNN zoo with per-layer tensor sizes and compute times.
//! * [`net`] — duplex FIFO network ports with per-message overhead; TCP/RDMA.
//! * [`comm`] — Parameter Server and ring all-reduce architectures.
//! * [`engine`] — framework-engine simulator (declarative / imperative,
//!   global barrier, Dependency Proxies).
//! * [`core`] — the paper's contribution: the generic scheduler Core
//!   (CommTask abstraction, tensor partitioning, priority queue with
//!   credit-based preemption) plus the FIFO and P3 baselines.
//! * [`faults`] — deterministic fault injection: JSON fault plans (link
//!   degradation, flaps, transfer loss, stragglers) and the recovery
//!   policy (timeout, exponential backoff, retry cap) the runtime applies.
//! * [`runtime`] — the world driver wiring all of the above into a
//!   multi-worker training simulation.
//! * [`cluster`] — multi-job cluster simulation: N concurrent training
//!   jobs contending on one shared fabric, placement policies, and
//!   cluster-level metrics (JCT, makespan, Jain's fairness).
//! * [`scope`] — in-run observation bus: live structured lifecycle
//!   events on the simulation clock, windowed rollups, the flight
//!   recorder behind `events.jsonl` and the `--watch` live table.
//! * [`xray`] — causal event tracing and critical-path attribution:
//!   per-partition lifecycle records analyzed into per-iteration
//!   {compute, wire, credit-wait, queue-wait, aggregation, barrier}
//!   breakdowns (`critical_path.json`).
//! * [`tune`] — Bayesian-Optimization auto-tuning of partition and credit
//!   sizes, with grid / random / SGD-momentum comparison tuners.
//! * [`harness`] — one experiment runner per paper table and figure.

pub use bs_cluster as cluster;
pub use bs_comm as comm;
pub use bs_core as core;
pub use bs_engine as engine;
pub use bs_faults as faults;
pub use bs_harness as harness;
pub use bs_models as models;
pub use bs_net as net;
pub use bs_runtime as runtime;
pub use bs_scope as scope;
pub use bs_sim as sim;
pub use bs_telemetry as telemetry;
pub use bs_tune as tune;
pub use bs_xray as xray;
