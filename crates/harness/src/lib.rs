//! Experiment harness: one runner per table and figure of the paper.
//!
//! Each experiment in §6 of the paper has a module under [`experiments`]
//! that regenerates it — same benchmark models, same setups, same axes —
//! and a binary (`cargo run -p bs-harness --release --bin fig10`) that
//! prints the rows and writes machine-readable JSON under `results/`.
//!
//! | binary  | reproduces |
//! |---------|------------|
//! | `fig02` | Figure 2 — contrived 3-layer example, FIFO vs better schedule |
//! | `fig04` | Figure 4 — FIFO training speed vs partition / credit size |
//! | `fig09` | Figure 9 — BO posterior after 7 samples (credit tuning) |
//! | `fig10` | Figure 10 — VGG16 speed vs #GPUs, 5 setups (+P3 in (a)) |
//! | `fig11` | Figure 11 — ResNet-50, same grid |
//! | `fig12` | Figure 12 — Transformer, same grid |
//! | `fig13` | Figure 13 — bandwidth sweep, baseline / fixed / tuned |
//! | `fig14` | Figure 14 — tuner search-cost comparison |
//! | `table1`| Table 1 — best (partition, credit) per model × arch |
//! | `all`   | everything above, sequentially |
//!
//! Use `Fidelity::quick()` (or the `BS_QUICK=1` environment variable with
//! the binaries) for fast smoke runs; `Fidelity::full()` for the numbers
//! recorded in EXPERIMENTS.md.

pub mod autotune;
pub mod cli;
pub mod experiments;
pub mod fidelity;
pub mod metrics_report;
pub mod parallel;
pub mod report;
pub mod setups;
pub mod xray_report;

pub use autotune::{tune, TuneOutcome};
pub use fidelity::Fidelity;
pub use setups::Setup;
