//! Discrete-event simulation kernel for the ByteScheduler reproduction.
//!
//! This crate is deliberately free of any domain knowledge. It provides the
//! three primitives every other crate in the workspace builds on:
//!
//! * [`SimTime`] — virtual time with nanosecond resolution and saturating
//!   arithmetic, so that a mis-configured experiment degrades into an
//!   obviously-wrong huge time instead of a panic deep inside a binary heap.
//! * [`EventQueue`] — a deterministic calendar queue. Events that share a
//!   timestamp fire in insertion order (FIFO tie-break by sequence number),
//!   which is what makes every experiment in the repository exactly
//!   reproducible from a seed.
//! * [`rng`] and [`stats`] — a tiny deterministic PRNG (SplitMix64 core with
//!   Box–Muller normals) and online statistics (Welford mean/variance,
//!   percentiles), used for workload jitter and for the measurement side of
//!   the harness.
//! * [`FastMap`] — a `HashMap` with a small deterministic hasher for the
//!   integer keys on the per-transfer path.
//!
//! The simulation style used across the workspace is *pull-based
//! co-simulation*: each subsystem (network, engine, parameter server, …) is a
//! plain state machine exposing `next_time()`/`advance()`-style methods, and
//! the runtime driver advances whichever subsystem owns the earliest event.
//! [`EventQueue`] is the building block those subsystems use internally.

pub mod hash;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use hash::{FastHasher, FastMap};
pub use pool::WorkerPool;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{OnlineStats, Percentiles};
pub use time::SimTime;
pub use trace::{CounterTrack, Span, Trace};
