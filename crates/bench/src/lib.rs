//! Performance tooling: shared macro-scenario definitions and timing
//! loops for the tracked runner (`bin/perf_baseline`) and the CI
//! regression gate (`bin/perf_gate`).

pub mod baseline;
