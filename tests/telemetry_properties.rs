//! Property tests for the telemetry layer: the recorded per-port
//! utilisation series must account for every byte the fabric moved.
//!
//! With an ideal transport (no per-message wire overhead), a port that is
//! busy for `T` seconds at capacity `C` bytes/sec moves exactly `T·C`
//! bytes — so for *any* workload, on *both* fabric disciplines,
//! `∫ util dt × capacity` per port must equal the bytes that crossed it:
//! exactly for the FIFO fabric's 0/1 busy series, and up to f64 rate
//! accumulation for the fluid fabric's allocated-rate fraction.

use bytescheduler::net::{
    DroppedTransfer, Fabric, FabricModel, NetConfig, NetEvent, NetPort, NodeId, Transport,
};
use bytescheduler::sim::SimTime;
use bytescheduler::telemetry::MetricSet;
use proptest::prelude::*;

const NODES: usize = 5;

/// Runs a workload to completion with telemetry on; returns the closed
/// metrics and per-node (sent, received) byte totals.
fn run_workload(
    model: FabricModel,
    flows: &[(usize, usize, u64, u64)],
) -> (MetricSet, [u64; NODES], [u64; NODES]) {
    let cfg = NetConfig::gbps(8.0, Transport::ideal()); // 1e9 B/s
    let mut fabric = Fabric::new(model, NODES, cfg);
    fabric.tap().enable_telemetry(SimTime::ZERO);
    let mut sent = [0u64; NODES];
    let mut recv = [0u64; NODES];
    let mut events: Vec<NetEvent> = Vec::new();
    let mut end = SimTime::ZERO;

    // Submissions in time order (the fabrics expect a monotone clock).
    let mut flows: Vec<_> = flows.to_vec();
    flows.sort_by_key(|&(_, _, _, start_us)| start_us);
    for (i, &(src, dst, bytes, start_us)) in flows.iter().enumerate() {
        if src == dst {
            continue;
        }
        let at = SimTime::from_micros(start_us);
        while fabric.next_event_time() <= at && !fabric.next_event_time().is_never() {
            let t = fabric.next_event_time();
            fabric.advance_into(t, &mut events);
            events.clear();
            end = end.max(t);
        }
        fabric.submit(at, NodeId(src), NodeId(dst), bytes, i as u64);
        sent[src] += bytes;
        recv[dst] += bytes;
        end = end.max(at);
    }
    let mut guard = 0;
    loop {
        let t = fabric.next_event_time();
        if t.is_never() {
            break;
        }
        fabric.advance_into(t, &mut events);
        events.clear();
        end = end.max(t);
        guard += 1;
        assert!(guard < 2_000_000, "fabric did not drain");
    }
    let ms = fabric.tap().take_metrics(end).expect("telemetry enabled");
    (ms, sent, recv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `∫ util dt × capacity == bytes through the port`, per port and
    /// direction, on both fabric disciplines, for any workload.
    #[test]
    fn utilisation_integrals_account_for_every_byte(
        flows in proptest::collection::vec(
            (0usize..NODES, 0usize..NODES, 1u64..10_000_000, 0u64..3_000), 1..24),
    ) {
        let cap = NetConfig::gbps(8.0, Transport::ideal()).bytes_per_sec();
        for model in [FabricModel::SerialFifo, FabricModel::FairShare] {
            let (ms, sent, recv) = run_workload(model, &flows);
            for n in 0..NODES {
                let horizon = ms.horizon;
                let up = ms
                    .get_series(&format!("nic{n}/up_util"))
                    .expect("up series")
                    .integral_secs(horizon) * cap;
                let down = ms
                    .get_series(&format!("nic{n}/down_util"))
                    .expect("down series")
                    .integral_secs(horizon) * cap;
                // Tolerance: one SimTime tick of quantisation per busy
                // segment (≤ 1 byte at this capacity), plus f64 rate
                // accumulation on the fluid fabric.
                let tol = 8.0 + 1e-6 * sent[n] as f64;
                prop_assert!(
                    (up - sent[n] as f64).abs() <= tol,
                    "{model:?} nic{n} up: ∫util·C = {up:.1}, sent {}",
                    sent[n]
                );
                let tol = 8.0 + 1e-6 * recv[n] as f64;
                prop_assert!(
                    (down - recv[n] as f64).abs() <= tol,
                    "{model:?} nic{n} down: ∫util·C = {down:.1}, received {}",
                    recv[n]
                );
            }
            // And the fabric's own byte counter agrees with the series.
            let delivered: u64 = sent.iter().sum();
            prop_assert_eq!(ms.get_counter("bytes_delivered"), Some(delivered));
        }
    }
}

/// One timed input of a fault-interleaved workload.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Submit `bytes` from `src` to `dst`.
    Flow(usize, usize, u64),
    /// Flap a node down.
    Kill(usize),
    /// Bring a node back up.
    Revive(usize),
    /// Rescale one NIC direction: `(node, up, scale)`.
    Scale(usize, bool, f64),
    /// Cancel every pending transfer whose tag has this parity.
    Cancel(u64),
}

/// Half the ops are flows; the rest spread over the four fault hooks.
fn op() -> impl Strategy<Value = Op> {
    (
        0u8..8,
        0usize..NODES,
        0usize..NODES,
        1u64..4_000_000,
        any::<bool>(),
        0.25f64..4.0,
    )
        .prop_map(|(kind, a, b, bytes, up, scale)| match kind {
            0..=3 => Op::Flow(a, b, bytes),
            4 => Op::Kill(a),
            5 => Op::Revive(a),
            6 => Op::Scale(a, up, scale),
            _ => Op::Cancel(bytes % 2),
        })
}

/// Everything a fault-interleaved run emits, plus (when recording) the
/// closed metrics and the FIFO fabric's per-uplink busy time.
struct Observed {
    events: Vec<NetEvent>,
    dropped: Vec<DroppedTransfer>,
    metrics: Option<MetricSet>,
    up_busy: Option<Vec<SimTime>>,
}

/// Contention job extractor for the test's tags.
fn job_of(tag: u64) -> usize {
    (tag % 4) as usize
}

/// Switches on every fabric recorder: telemetry, scope windows, the
/// wire lifecycle log (xray and trace) and contention.
fn record_everything(fabric: &mut Fabric) {
    let tap = fabric.tap();
    tap.enable_telemetry(SimTime::ZERO);
    tap.enable_scope(SimTime::ZERO, SimTime::from_micros(250));
    tap.enable_wire_log();
    tap.enable_contention(SimTime::ZERO, job_of);
}

/// Closes every recorder at `end` and returns the metrics.
fn close_recorders(fabric: &mut Fabric, end: SimTime) -> MetricSet {
    let tap = fabric.tap();
    tap.finish_scope(end);
    let mut windows = Vec::new();
    tap.drain_scope_windows(&mut windows);
    let _ = (tap.take_wire_log(), tap.take_contention());
    tap.take_metrics(end).expect("telemetry enabled")
}

/// Runs timed `ops` to completion, with every recorder on or none.
fn run_faulted(model: FabricModel, ops: &[(u64, Op)], record: bool) -> Observed {
    let cfg = NetConfig::gbps(8.0, Transport::ideal());
    let mut fabric = Fabric::new(model, NODES, cfg);
    if record {
        record_everything(&mut fabric);
    }
    let mut events: Vec<NetEvent> = Vec::new();
    let mut dropped: Vec<DroppedTransfer> = Vec::new();
    let mut windows = Vec::new();
    let mut end = SimTime::ZERO;
    let mut ops = ops.to_vec();
    ops.sort_by_key(|&(at, _)| at);
    let mut advance_to = |fabric: &mut Fabric, at: SimTime, end: &mut SimTime| {
        while fabric.next_event_time() <= at && !fabric.next_event_time().is_never() {
            let t = fabric.next_event_time();
            fabric.advance_into(t, &mut events);
            fabric.tap().drain_scope_windows(&mut windows);
            *end = (*end).max(t);
        }
    };
    for (i, &(at_us, op)) in ops.iter().enumerate() {
        let at = SimTime::from_micros(at_us);
        advance_to(&mut fabric, at, &mut end);
        end = end.max(at);
        match op {
            Op::Flow(s, d, bytes) if s != d => {
                fabric.submit(at, NodeId(s), NodeId(d), bytes, i as u64);
            }
            Op::Flow(..) => {}
            Op::Kill(n) => dropped.extend(fabric.kill_port(at, NodeId(n))),
            Op::Revive(n) => fabric.revive_port(at, NodeId(n)),
            Op::Scale(n, up, s) => fabric.set_port_scale(at, NodeId(n), up, s),
            Op::Cancel(parity) => {
                dropped.extend(fabric.cancel_where(at, &mut |tag| tag % 2 == parity))
            }
        }
    }
    // Revive every node so queued work can drain, then run dry.
    let last = end;
    for n in 0..NODES {
        fabric.revive_port(last, NodeId(n));
    }
    advance_to(&mut fabric, SimTime::MAX, &mut end);
    let up_busy =
        matches!(fabric, Fabric::Fifo(_)).then(|| fabric.tap().port_busy()[..NODES].to_vec());
    let metrics = record.then(|| close_recorders(&mut fabric, end));
    Observed {
        events,
        dropped,
        metrics,
        up_busy,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recording changes nothing, fault hooks included: with every
    /// recorder on, both fabrics emit the same events and drop the same
    /// transfers as with none, under interleaved flaps, rescales and
    /// cancellations; and on the FIFO fabric each uplink's utilisation
    /// series integrates to exactly its accumulated busy time, killed and
    /// cancelled occupancies included.
    #[test]
    fn recording_changes_nothing_under_fault_hooks(
        ops in proptest::collection::vec((0u64..6_000, op()), 1..40),
    ) {
        for model in [FabricModel::SerialFifo, FabricModel::FairShare] {
            let bare = run_faulted(model, &ops, false);
            let seen = run_faulted(model, &ops, true);
            prop_assert_eq!(&bare.events, &seen.events, "{:?} events", model);
            prop_assert_eq!(&bare.dropped, &seen.dropped, "{:?} drops", model);
            let Some(busy) = seen.up_busy else { continue };
            let ms = seen.metrics.expect("recorded");
            for (n, b) in busy.iter().enumerate() {
                let util = ms
                    .get_series(&format!("nic{n}/up_util"))
                    .expect("up series")
                    .integral_secs(ms.horizon);
                prop_assert!(
                    (util - b.as_secs_f64()).abs() <= 1e-9,
                    "nic{} up: ∫util = {}, busy {}", n, util, b.as_secs_f64()
                );
            }
        }
    }
}
