//! Long-run boundedness of the fluid fabric's flow table.
//!
//! `FluidNetwork` recycles flow slots through a free list, so the slot
//! table must stay bounded by the *peak concurrency* of the workload —
//! not grow with the total number of transfers ever carried. Before the
//! PR-1 refactor every submission appended a fresh slot, which made
//! `reallocate()`'s per-call scratch scale with simulation length.

use bytescheduler::net::{FluidNetwork, NetConfig, NetPort, NodeId, Transport};
use bytescheduler::sim::SimTime;

fn net(nodes: usize) -> FluidNetwork {
    FluidNetwork::new(nodes, NetConfig::gbps(8.0, Transport::ideal()))
}

/// Runs the fabric until silent, returning the last delivery time.
fn drain(n: &mut FluidNetwork) -> SimTime {
    let mut last = SimTime::ZERO;
    loop {
        let t = n.next_event_time();
        if t.is_never() {
            return last;
        }
        n.advance(t);
        last = t;
    }
}

#[test]
fn sequential_transfers_reuse_one_slot() {
    let mut n = net(2);
    let mut now = SimTime::ZERO;
    for i in 0..12_000u64 {
        n.submit(now, NodeId(0), NodeId(1), 1_000_000, i);
        now = drain(&mut n);
    }
    assert_eq!(n.tap().transfers_delivered(), 12_000);
    assert_eq!(n.tap().peak_in_flight(), 1);
    assert_eq!(
        n.flow_slots(),
        1,
        "12k sequential transfers must recycle a single slot"
    );
}

#[test]
fn flow_table_is_bounded_by_peak_concurrency() {
    // Waves of 16 concurrent flows, 200 rounds: 3 200 transfers total,
    // but never more than 16 at once.
    let mut n = net(17);
    let mut now = SimTime::ZERO;
    for round in 0..200u64 {
        for w in 0..16u64 {
            n.submit(now, NodeId(w as usize), NodeId(16), 500_000, round * 16 + w);
        }
        now = drain(&mut n);
    }
    assert_eq!(n.tap().transfers_delivered(), 3_200);
    assert_eq!(n.tap().peak_in_flight(), 16);
    assert!(
        n.flow_slots() <= n.tap().peak_in_flight(),
        "flow table ({} slots) must not exceed peak concurrency ({})",
        n.flow_slots(),
        n.tap().peak_in_flight()
    );
}

#[test]
fn staggered_churn_stays_bounded() {
    // Keep a rolling window in flight: submit two flows, drain to the
    // next event (not to silence), submit two more, and so on. The slot
    // table must track the high-water mark, not the running total.
    let mut n = net(6);
    let mut now = SimTime::ZERO;
    for i in 0..5_000u64 {
        let src = (i % 4) as usize;
        n.submit(now, NodeId(src), NodeId(5), 200_000, 2 * i);
        n.submit(now, NodeId(src), NodeId(4), 200_000, 2 * i + 1);
        // Drain down to a rolling window of 8 before the next burst.
        while n.in_flight() >= 8 {
            let next = n.next_event_time();
            n.advance(next);
            now = next;
        }
    }
    drain(&mut n);
    assert_eq!(n.tap().transfers_delivered(), 10_000);
    assert!(
        n.flow_slots() <= n.tap().peak_in_flight(),
        "flow table ({} slots) grew past peak concurrency ({})",
        n.flow_slots(),
        n.tap().peak_in_flight()
    );
    assert!(
        n.tap().peak_in_flight() <= 10,
        "windowed workload should stay near the window size, not the 10k total"
    );
}
