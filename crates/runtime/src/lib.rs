//! The world driver: one complete distributed-training simulation.
//!
//! This crate composes everything below it into the system the paper
//! evaluates: `n` workers, each with a [`bs_engine::WorkerEngine`] running
//! the iteration DAG on a serial GPU; a gradient-synchronisation backend
//! (sharded PS over the [`bs_net::Network`], or a ring all-reduce stream);
//! and a [`bs_core::Scheduler`] policy per worker (or one master scheduler
//! for all-reduce, §5). Each job ([`job`]) is a shared core plus one
//! architecture backend holding the glue the paper's plugins are (§3):
//! it translates engine events into `CommTask` submissions and
//! communication completions back into engine dependency grants.
//!
//! [`world::run`] executes one configuration to completion and reports the
//! steady-state training speed — the number every figure in the paper
//! plots.

pub mod config;
pub mod driver;
pub mod job;
pub mod partlog;
mod ps_job;
pub mod result;
mod ring_job;
pub mod token;
pub mod traffic;
pub mod world;

pub use config::{Arch, BackgroundLoad, SchedulerKind, WorldConfig};
pub use driver::{DriverHooks, Tenant};
pub use job::{JobEvent, JobNetStats, JobState, NodeMap};
pub use partlog::PartLog;
pub use result::{RunOutcome, RunResult};
pub use world::{run, run_observed};
