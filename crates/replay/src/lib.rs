//! Cluster-trace replay and the batched what-if query service.
//!
//! The cluster simulator (`bs-cluster`) answers "how do N concurrent
//! jobs share one fabric?" for hand-built job mixes. This crate scales
//! that question to *production-shaped* workloads and turns it into a
//! query engine, in two layers:
//!
//! * **Trace ingestion** ([`trace`]) — loaders for two public job-trace
//!   dialects (Philly-style JSON, Alibaba-PAI-style CSV), validated
//!   against committed schemas by the shared draft-07-subset validator
//!   ([`schema`]) and normalized into one [`TraceJob`] stream: arrival
//!   time, GPU demand, a model class mapped onto the `crates/models` zoo,
//!   and an iteration count derived from recorded duration.
//! * **Replay** ([`replay`]) — feeds that stream through
//!   [`bs_cluster::run_cluster`] as FCFS waves of staggered arrivals
//!   (one cluster run per wave), reporting full
//!   JCT distributions — p50/p95/p99/max via nearest-rank percentiles —
//!   split into queueing delay and run time. Byte-deterministic: one
//!   seed reproduces the whole replay.
//! * **What-if service** ([`service`]) — a long-running batched
//!   request/response engine: concurrent [`WhatIfQuery`]s (bandwidth,
//!   placement, scheduler/credit config, truncation) are fingerprinted
//!   by canonical config JSON, deduplicated within a batch, answered
//!   from an LRU result cache on repeat, and executed on the persistent
//!   process-wide [`bs_sim::WorkerPool`] on miss.
//!
//! DESIGN.md §14 documents the trace schemas, normalization rules, the
//! wave admission model, and the service's batching/caching semantics.

pub mod replay;
pub mod schema;
pub mod service;
pub mod trace;

pub use replay::{
    replay_trace, replay_trace_observed, replay_trace_recorded, ReplayOptions, ReplayReport,
    ReplayWave, ReplayedJob,
};
pub use service::{AnswerSource, ReplayService, ServiceStats, WhatIfAnswer, WhatIfQuery};
pub use trace::{load_trace, ModelClass, TraceFormat, TraceJob};
