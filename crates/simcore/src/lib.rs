//! Discrete-event simulation kernel for the ByteScheduler reproduction.
//!
//! This crate is deliberately free of any domain knowledge. It provides the
//! primitives every other crate in the workspace builds on:
//!
//! * [`SimTime`] — virtual time with nanosecond resolution and saturating
//!   arithmetic, so that a mis-configured experiment degrades into an
//!   obviously-wrong huge time instead of a panic deep inside a run.
//! * [`rng`] and [`stats`] — a tiny deterministic PRNG (SplitMix64 core with
//!   Box–Muller normals) and online statistics (Welford mean/variance),
//!   used for workload jitter and for the measurement side of the harness.
//! * [`FastMap`] — a `HashMap` with a small deterministic hasher for the
//!   integer keys on the per-transfer path.
//! * [`WorkerPool`] — a persistent thread pool for running independent
//!   simulations side by side (what-if batches, harness sweeps).
//! * [`Trace`] — Chrome trace-event spans and counter tracks.
//!
//! The simulation style used across the workspace is *pull-based
//! co-simulation*: each subsystem (network, engine, parameter server, …) is a
//! plain state machine exposing `next_event_time()`/`advance()`-style
//! methods, and the one driver loop in `bs-runtime` advances whichever
//! subsystem owns the earliest event. Runs are exactly reproducible from a
//! seed because that loop visits the subsystems due at one instant in a
//! fixed order and every random draw comes from a seeded [`SimRng`] stream;
//! there is no global event queue.

pub mod hash;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use hash::{FastHasher, FastMap};
pub use pool::WorkerPool;
pub use rng::SimRng;
pub use stats::OnlineStats;
pub use time::SimTime;
pub use trace::{CounterTrack, Span, Trace};
