//! Framework-engine simulator.
//!
//! The paper's central systems challenge (§3.3–§3.4) is that every ML
//! framework *engine* — the component that decides execution order — is
//! different: MXNet and TensorFlow are declarative (dependency-graph
//! driven), PyTorch is imperative (FIFO), and TensorFlow/PyTorch insert a
//! global barrier between iterations that defeats naive communication
//! scheduling. ByteScheduler's answer is to reshape the engine's dependency
//! structure from the outside, with two devices:
//!
//! * **Dependency Proxy** — an operation posted into the engine that (a)
//!   fires `CommTask.notify_ready()` when the engine starts it, and (b)
//!   refuses to finish until the Core calls `CommTask.start()`, thereby
//!   delaying the communication without breaking engine dependencies
//!   (Figure 6).
//! * **Layer-wise out-of-engine dependencies** — for barrier engines, the
//!   in-graph communication is replaced by an async no-op so the barrier
//!   passes immediately, the real transfer runs outside the engine under
//!   the Core, and a second Proxy in front of each next-iteration forward
//!   op re-imposes the per-layer dependency the engine can no longer see
//!   (Figures 7–8).
//!
//! This crate makes those structures literal: [`dag::IterDag`] builds the
//! per-iteration dependency template for each (communication pattern ×
//! gating) combination — the baseline graphs *and* the ByteScheduler-
//! rewritten graphs — and [`engine::WorkerEngine`] executes the template on
//! a serial GPU, emitting [`engine::EngineEvent`]s where the real system
//! would invoke plugin callbacks.

pub mod config;
pub mod dag;
pub mod engine;

pub use config::{CommPattern, EngineConfig, EngineKind, Gating};
pub use dag::{ExternalRole, InstantRole, IterDag, NodeKind, Pass};
pub use engine::{BusyFold, EngineEvent, WorkerEngine};
