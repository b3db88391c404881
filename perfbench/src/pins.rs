//! Output digests pinned at the default seed. A run at
//! [`DEFAULT_SEED`] fails every operation whose output differs from
//! these. Regenerate with `perfbench --print-pins` only when a change to
//! the simulator is meant to change its results.

use bs_cluster::run_cluster;
use bs_replay::{load_trace, replay_trace, TraceFormat};

use crate::gen::{config_query, CONFIG_SPACE};
use crate::workloads::*;

/// The seed the pins below were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// `train_ps_observed`: the observed pass (run digest + scope events).
pub const PS_PASS: u64 = 0x051bb459f10ae797;
/// `train_ring`: one pass.
pub const RING_PASS: u64 = 0x1b649d3c145ca97d;
/// `cluster_mixed`: one pass.
pub const CLUSTER_PASS: u64 = 0xa74c1d07eae92308;
/// `whatif_service`: every configuration's report, by config index.
pub const WHATIF_REPORTS: [u64; CONFIG_SPACE] = [
    0xe5d0702af19ab4aa,
    0xc3971cc8a24a2389,
    0x4ed5c19b31efe733,
    0xd0ec11396c4a8ebc,
    0x6dc9605316ced824,
    0x7d26d28ebd78ca54,
    0xc90502aec38ad180,
    0xee0af68f807d0d95,
    0xd2458159f2673c32,
    0xf8605594d5bd3a74,
    0xb8c7910d65d60b8a,
    0x0a70223255408a0c,
    0x17a1f58f297fead7,
    0x59382486a95c9248,
    0x19d34c69014475b9,
    0x28d1a7834e9a1429,
    0x8bb22e62d77bcf3e,
    0xb0411c67e6564d9c,
    0x8754ac838fdb755f,
    0xd5c5501ed4a172a2,
    0xf6c2a8df883ab64f,
    0x9cad846c6a8319b2,
    0x7327bc66b662bd5d,
    0x8008ed0f61a02887,
    0xfe2e138dfcb61f19,
    0x5da28793bb4f56d1,
    0x3f349c16b8c466d4,
    0x36fdcf0d902209c5,
    0xda7308ee0eb783c7,
    0xaed72fffc8b047ce,
    0x430e69748ce9642d,
    0x3eb83999a668e471,
    0xfc07d19f68713bab,
    0x4a7b172337e89215,
    0x0648ec3de2aad322,
    0xb9b1fa12ec44811d,
    0x1490e5d39c2c53dc,
    0xb7d7989c8cd26425,
    0x8a6d4984e487f507,
    0x552129db6324545b,
    0x1595952772be728b,
    0x73c95a9b3b087b10,
    0x6f2dcdefc06df131,
    0x9125137a73e91f34,
    0xec56ca29dc61b9af,
    0xba31db34d07b9e3b,
    0xd4824afd035e3896,
    0x69a4182035a43726,
    0xf7de9cd1bdfc98df,
    0x2ed2fb10df950f16,
    0xf97bb0afd902b56b,
    0x444d26e2a3fd7998,
    0xe4a9fd4e9faeb57b,
    0x548373ef33636a31,
    0xf019b678fc9d73c9,
    0xf561a79893220a77,
    0x952181b9d8152565,
    0x57599bd6e89f3e89,
    0x4c3717ac74550584,
    0x12ac89c9be19964b,
    0x28e67e8eac8b7ce6,
    0xcd5a226fdfda4132,
    0xd751059f623b4664,
    0x92f4f5d48da4a187,
    0x465e6455950b2be6,
    0x3fdf397bf717e62d,
    0xc5531a415d70f3a9,
    0x7fbcd92f488e3770,
    0x6a81039b066c5ce7,
    0x4de77d09c96cb83e,
    0x20586daf3f611ade,
    0x078003ed330a4eaf,
];

/// Prints the pins for [`DEFAULT_SEED`] as Rust source.
pub fn print() {
    let seed = DEFAULT_SEED;
    let mut bus = bs_scope::ScopeBus::new();
    let r = bs_runtime::run_observed(&ps_config(seed, true), Some(&mut bus));
    let ps = pass_digest(&r, bus.events_seen());
    println!("pub const PS_PASS: u64 = {ps:#018x};");
    let ring = pass_digest(&bs_runtime::run(&ring_config(seed)), 0);
    println!("pub const RING_PASS: u64 = {ring:#018x};");
    let cluster = cluster_digest(&run_cluster(
        &cluster_config(CLUSTER_THREADS),
        &cluster_specs(seed),
    ));
    println!("pub const CLUSTER_PASS: u64 = {cluster:#018x};");
    let text = std::fs::read_to_string(WHATIF_TRACE).expect("what-if trace readable");
    let jobs =
        load_trace(&text, TraceFormat::detect(WHATIF_TRACE, &text)).expect("what-if trace parses");
    let base = whatif_base(seed);
    println!("pub const WHATIF_REPORTS: [u64; CONFIG_SPACE] = [");
    for idx in 0..CONFIG_SPACE {
        let opts = config_query(idx).resolve(&base);
        println!("    {:#018x},", report_digest(&replay_trace(&jobs, &opts)));
    }
    println!("];");
}
