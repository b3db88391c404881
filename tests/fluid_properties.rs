//! Property tests for the max-min fair fluid fabric.

use bytescheduler::net::{FluidNetwork, NetConfig, NetEvent, NetPort, NodeId, Transport};
use bytescheduler::sim::SimTime;
use proptest::prelude::*;

fn drain(n: &mut FluidNetwork) -> Vec<(u64, SimTime)> {
    let mut out = Vec::new();
    let mut guard = 0;
    loop {
        let t = n.next_event_time();
        if t.is_never() {
            break;
        }
        out.extend(n.advance(t).into_iter().filter_map(|e| match e {
            NetEvent::Delivered(c) => Some((c.tag, c.finished_at)),
            NetEvent::Released(_) => None,
        }));
        guard += 1;
        assert!(guard < 2_000_000, "fluid fabric did not drain");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every random workload drains: all submissions deliver exactly once,
    /// bytes are conserved, and no delivery beats the physically possible
    /// minimum (size / link rate).
    #[test]
    fn random_workloads_drain_and_conserve(
        flows in proptest::collection::vec(
            (0usize..6, 0usize..6, 1u64..20_000_000, 0u64..5_000), 1..40),
    ) {
        let cfg = NetConfig::gbps(8.0, Transport::ideal()); // 1e9 B/s
        let mut n = FluidNetwork::new(6, cfg);
        let mut total = 0u64;
        let mut submitted = 0usize;
        let mut done = Vec::new();
        for (i, &(src, dst, bytes, start_us)) in flows.iter().enumerate() {
            if src == dst {
                continue;
            }
            let at = SimTime::from_micros(start_us);
            // Anything delivered before this submission instant counts too.
            done.extend(n.advance(at).into_iter().filter_map(|e| match e {
                NetEvent::Delivered(c) => Some((c.tag, c.finished_at)),
                NetEvent::Released(_) => None,
            }));
            n.submit(at, NodeId(src), NodeId(dst), bytes, i as u64);
            total += bytes;
            submitted += 1;
        }
        done.extend(drain(&mut n));
        prop_assert_eq!(done.len(), submitted);
        prop_assert_eq!(n.tap().bytes_delivered(), total);
        // No flow can beat its solo wire time.
        for &(tag, at) in &done {
            let (_, _, bytes, start_us) = flows[tag as usize];
            let min_end = SimTime::from_micros(start_us)
                + SimTime::from_secs_f64(bytes as f64 / 1e9);
            prop_assert!(
                at >= min_end,
                "flow {tag} delivered at {at}, before physical minimum {min_end}"
            );
        }
        prop_assert!(n.is_idle());
    }

    /// Work conservation on a single bottleneck: k same-size flows through
    /// one downlink finish exactly when the serialised schedule would.
    #[test]
    fn incast_aggregate_is_work_conserving(k in 1usize..5, mb in 1u64..8) {
        let cfg = NetConfig::gbps(8.0, Transport::ideal());
        let mut n = FluidNetwork::new(6, cfg);
        let bytes = mb * 1_000_000;
        for w in 0..k {
            n.submit(SimTime::ZERO, NodeId(w), NodeId(5), bytes, w as u64);
        }
        let done = drain(&mut n);
        let last = done.iter().map(|(_, t)| *t).max().unwrap();
        let expect = SimTime::from_secs_f64(k as f64 * bytes as f64 / 1e9);
        let diff = last.saturating_sub(expect).max(expect.saturating_sub(last));
        prop_assert!(
            diff < SimTime::from_micros(5),
            "aggregate finished at {last}, expected {expect}"
        );
    }
}

/// The eager fluid fabric, kept as a reference: every change to the flow
/// set or a port capacity integrates to its instant and runs a full
/// progressive-filling waterfill right away, and every clock query
/// rescans every active flow for its own drain instant. Recorders are
/// left out; `FluidNetwork` must match it event for event.
mod eager {
    use std::collections::VecDeque;

    use bytescheduler::net::{
        CompletedTransfer, DroppedTransfer, NetConfig, NetEvent, NodeId, TransferId,
    };
    use bytescheduler::sim::SimTime;

    struct Flow {
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        tag: u64,
        remaining: f64,
        rate: f64,
    }

    pub struct EagerFluid {
        cfg: NetConfig,
        n: usize,
        flows: Vec<Option<Flow>>,
        free_slots: Vec<u64>,
        active: Vec<TransferId>,
        port_flows: Vec<Vec<TransferId>>,
        deliveries: VecDeque<(SimTime, CompletedTransfer)>,
        last_update: SimTime,
        port_scale: Vec<f64>,
        /// Outages in progress per node; down while above zero.
        down: Vec<u32>,
    }

    impl EagerFluid {
        pub fn new(n: usize, cfg: NetConfig) -> Self {
            EagerFluid {
                cfg,
                n,
                flows: Vec::new(),
                free_slots: Vec::new(),
                active: Vec::new(),
                port_flows: vec![Vec::new(); 2 * n],
                deliveries: VecDeque::new(),
                last_update: SimTime::ZERO,
                port_scale: vec![1.0; 2 * n],
                down: vec![0; n],
            }
        }

        pub fn submit(
            &mut self,
            now: SimTime,
            src: NodeId,
            dst: NodeId,
            bytes: u64,
            tag: u64,
        ) -> TransferId {
            self.integrate_to(now);
            let overhead =
                self.cfg.transport.wire_overhead.as_secs_f64() * self.cfg.bytes_per_sec();
            let flow = Flow {
                src,
                dst,
                bytes,
                tag,
                remaining: bytes as f64 + overhead,
                rate: 0.0,
            };
            let id = match self.free_slots.pop() {
                Some(slot) => {
                    self.flows[slot as usize] = Some(flow);
                    TransferId(slot)
                }
                None => {
                    self.flows.push(Some(flow));
                    TransferId(self.flows.len() as u64 - 1)
                }
            };
            self.active.push(id);
            self.port_flows[src.0].push(id);
            self.port_flows[self.n + dst.0].push(id);
            self.reallocate();
            id
        }

        pub fn next_event_time(&self) -> SimTime {
            let delivery = self.deliveries.front().map_or(SimTime::MAX, |(d, _)| *d);
            delivery.min(self.drain_time())
        }

        fn drain_time(&self) -> SimTime {
            let mut t = SimTime::MAX;
            for id in &self.active {
                let f = self.flows[id.0 as usize].as_ref().unwrap();
                if f.rate > 0.0 {
                    let dur = SimTime::from_secs_f64((f.remaining / f.rate).max(0.0))
                        .max(SimTime::from_nanos(1));
                    t = t.min(self.last_update + dur);
                }
            }
            t
        }

        pub fn advance(&mut self, now: SimTime) -> Vec<NetEvent> {
            let mut out = Vec::new();
            loop {
                let next = self.next_event_time();
                if next > now || next.is_never() {
                    break;
                }
                if let Some(&(dt, _)) = self.deliveries.front() {
                    if dt <= next {
                        let (_, c) = self.deliveries.pop_front().unwrap();
                        out.push(NetEvent::Delivered(c));
                        continue;
                    }
                }
                self.integrate_to(next);
                let latency = self.cfg.transport.latency;
                let finished: Vec<TransferId> = self
                    .active
                    .iter()
                    .copied()
                    .filter(|id| self.flows[id.0 as usize].as_ref().unwrap().remaining <= 0.5)
                    .collect();
                for id in finished {
                    let f = self.remove(id);
                    let done = CompletedTransfer {
                        id,
                        src: f.src,
                        dst: f.dst,
                        bytes: f.bytes,
                        tag: f.tag,
                        finished_at: next,
                    };
                    out.push(NetEvent::Released(done));
                    let mut delivered = done;
                    delivered.finished_at = next + latency;
                    self.deliveries.push_back((next + latency, delivered));
                }
                self.reallocate();
            }
            self.integrate_to(now);
            out
        }

        pub fn set_port_scale(&mut self, now: SimTime, node: NodeId, up: bool, scale: f64) {
            self.integrate_to(now);
            let port = if up { node.0 } else { self.n + node.0 };
            self.port_scale[port] = scale;
            self.reallocate();
        }

        pub fn kill_port(&mut self, now: SimTime, node: NodeId) -> Vec<DroppedTransfer> {
            self.integrate_to(now);
            self.down[node.0] += 1;
            let dropped = self.drop_where(|f| f.src == node || f.dst == node);
            self.reallocate();
            dropped
        }

        pub fn revive_port(&mut self, now: SimTime, node: NodeId) {
            self.integrate_to(now);
            self.down[node.0] = self.down[node.0].saturating_sub(1);
            self.reallocate();
        }

        pub fn cancel_where(
            &mut self,
            now: SimTime,
            pred: &mut dyn FnMut(u64) -> bool,
        ) -> Vec<DroppedTransfer> {
            self.integrate_to(now);
            let mut dropped = self.drop_where(|f| pred(f.tag));
            let mut kept = VecDeque::new();
            for (t, c) in self.deliveries.drain(..) {
                if pred(c.tag) {
                    dropped.push(DroppedTransfer {
                        tag: c.tag,
                        src: c.src,
                        dst: c.dst,
                        bytes: c.bytes,
                    });
                } else {
                    kept.push_back((t, c));
                }
            }
            self.deliveries = kept;
            self.reallocate();
            dropped
        }

        fn drop_where(&mut self, mut victim: impl FnMut(&Flow) -> bool) -> Vec<DroppedTransfer> {
            let victims: Vec<TransferId> = self
                .active
                .iter()
                .copied()
                .filter(|id| victim(self.flows[id.0 as usize].as_ref().unwrap()))
                .collect();
            victims
                .into_iter()
                .map(|id| {
                    let f = self.remove(id);
                    DroppedTransfer {
                        tag: f.tag,
                        src: f.src,
                        dst: f.dst,
                        bytes: f.bytes,
                    }
                })
                .collect()
        }

        fn remove(&mut self, id: TransferId) -> Flow {
            let f = self.flows[id.0 as usize].take().unwrap();
            self.active.retain(|x| *x != id);
            self.free_slots.push(id.0);
            self.port_flows[f.src.0].retain(|x| *x != id);
            self.port_flows[self.n + f.dst.0].retain(|x| *x != id);
            f
        }

        fn integrate_to(&mut self, now: SimTime) {
            if now <= self.last_update {
                return;
            }
            let dt = (now - self.last_update).as_secs_f64();
            for id in &self.active {
                let f = self.flows[id.0 as usize].as_mut().unwrap();
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
            self.last_update = now;
        }

        fn reallocate(&mut self) {
            let cap = self.cfg.bytes_per_sec();
            let ports = 2 * self.n;
            let mut port_cap: Vec<f64> = (0..ports)
                .map(|p| {
                    if self.down[p % self.n] > 0 {
                        0.0
                    } else {
                        cap * self.port_scale[p]
                    }
                })
                .collect();
            let mut live: Vec<usize> = self.port_flows.iter().map(Vec::len).collect();
            let mut frozen = vec![false; self.flows.len()];
            let mut unfrozen = self.active.len();
            while unfrozen > 0 {
                let mut best: Option<(f64, usize)> = None;
                for p in 0..ports {
                    if live[p] == 0 {
                        continue;
                    }
                    let share = port_cap[p] / live[p] as f64;
                    if best.is_none_or(|(s, _)| share < s) {
                        best = Some((share, p));
                    }
                }
                let (share, port) = best.unwrap();
                let ids: Vec<TransferId> = self.port_flows[port]
                    .iter()
                    .copied()
                    .filter(|id| !frozen[id.0 as usize])
                    .collect();
                unfrozen -= ids.len();
                for id in ids {
                    frozen[id.0 as usize] = true;
                    let f = self.flows[id.0 as usize].as_mut().unwrap();
                    f.rate = share;
                    let (a, b) = (f.src.0, self.n + f.dst.0);
                    let other = if a == port { b } else { a };
                    port_cap[other] = (port_cap[other] - share).max(0.0);
                    live[a] -= 1;
                    live[b] -= 1;
                }
                port_cap[port] = 0.0;
            }
        }
    }
}

/// A `NetEvent` as plain integers, so equality is exact to the nanosecond.
fn key(e: &NetEvent) -> (bool, u64, u64, usize, usize, u64, u64) {
    let (delivered, c) = match e {
        NetEvent::Released(c) => (false, c),
        NetEvent::Delivered(c) => (true, c),
    };
    (
        delivered,
        c.id.0,
        c.tag,
        c.src.0,
        c.dst.0,
        c.bytes,
        c.finished_at.as_nanos(),
    )
}

const ORACLE_NODES: usize = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The lazy fabric (one waterfill per instant, fused integration and
    /// drain scan) is bit-identical to the eager reference under random
    /// operation sequences: same-instant submit bursts with repeated
    /// (src, dst) pairs, advances to the next event and to arbitrary
    /// instants, port rescales, flaps and cancellations. Every event,
    /// every dropped transfer and every `next_event_time()` answer must
    /// match exactly.
    #[test]
    fn lazy_fabric_matches_the_eager_reference(
        ops in proptest::collection::vec(
            (0u8..12, 0usize..ORACLE_NODES, 0usize..ORACLE_NODES, 1u64..4_000_000, 0u64..3_000),
            1..120),
        latency_us in 0u64..50,
        overhead_us in 0u64..20,
    ) {
        let transport = Transport::custom(
            "t",
            SimTime::from_micros(overhead_us),
            SimTime::from_micros(latency_us),
            0.9,
        );
        let cfg = NetConfig::gbps(25.0, transport);
        let mut lazy = FluidNetwork::new(ORACLE_NODES, cfg);
        let mut eager = eager::EagerFluid::new(ORACLE_NODES, cfg);
        let mut now = SimTime::ZERO;
        let mut tag = 0u64;
        let mut pair = (NodeId(0), NodeId(1));
        for &(op, a, b, bytes, dt_us) in &ops {
            match op {
                // Submits at the current instant, so consecutive ones form
                // a burst; `a == b` repeats the previous (src, dst) pair.
                0..=5 => {
                    if a != b {
                        pair = (NodeId(a), NodeId(b));
                    }
                    tag += 1;
                    let x = lazy.submit(now, pair.0, pair.1, bytes, tag);
                    let y = eager.submit(now, pair.0, pair.1, bytes, tag);
                    prop_assert_eq!(x, y);
                }
                // Advance to the next event.
                6..=7 => {
                    let t = eager.next_event_time();
                    prop_assert_eq!(lazy.next_event_time(), t);
                    if !t.is_never() {
                        now = t;
                    }
                    let x: Vec<_> = lazy.advance(now).iter().map(key).collect();
                    let y: Vec<_> = eager.advance(now).iter().map(key).collect();
                    prop_assert_eq!(x, y);
                }
                // Move to an arbitrary later instant without asking for the
                // next event first: advance there, or (odd `b`) leave it to
                // the next submit or fault hook to integrate.
                8 => {
                    now += SimTime::from_micros(dt_us);
                    if b % 2 == 0 {
                        let x: Vec<_> = lazy.advance(now).iter().map(key).collect();
                        let y: Vec<_> = eager.advance(now).iter().map(key).collect();
                        prop_assert_eq!(x, y);
                    }
                }
                9 => {
                    let scale = 0.1 + (bytes % 20) as f64 / 10.0;
                    let up = b % 2 == 0;
                    lazy.set_port_scale(now, NodeId(a), up, scale);
                    eager.set_port_scale(now, NodeId(a), up, scale);
                }
                10 => {
                    if b % 2 == 0 {
                        prop_assert_eq!(lazy.kill_port(now, NodeId(a)), eager.kill_port(now, NodeId(a)));
                    } else {
                        lazy.revive_port(now, NodeId(a));
                        eager.revive_port(now, NodeId(a));
                    }
                }
                _ => {
                    let m = bytes % 3;
                    let x = lazy.cancel_where(now, &mut |t| t % 3 == m);
                    let y = eager.cancel_where(now, &mut |t| t % 3 == m);
                    prop_assert_eq!(x, y);
                }
            }
        }
        // Revive everything (outages nest, so once per op covers every
        // kill) and run both to completion in lockstep.
        for node in 0..ORACLE_NODES {
            for _ in 0..ops.len() {
                lazy.revive_port(now, NodeId(node));
                eager.revive_port(now, NodeId(node));
            }
        }
        loop {
            let t = eager.next_event_time();
            prop_assert_eq!(lazy.next_event_time(), t);
            if t.is_never() {
                break;
            }
            let x: Vec<_> = lazy.advance(t).iter().map(key).collect();
            let y: Vec<_> = eager.advance(t).iter().map(key).collect();
            prop_assert_eq!(x, y);
        }
        prop_assert!(lazy.is_idle());
    }
}
