//! The driver loop: N tenants, one fabric, one clock — the simulator's
//! only event loop.
//!
//! A solo run ([`crate::world::run`]) is this loop with one training
//! tenant (job 0, identity [`NodeMap`]); `bs-cluster` runs it over a
//! placed fleet. Per instant it (1) drains the LIFO cascade queue,
//! routing each event to its owning tenant, (2) finds the earliest next
//! event across the fault timeline, every tenant and the fabric, (3)
//! applies the fault entries due then, (4) advances each tenant's own
//! sources (co-tenant bursts, GPU ops, private ring streams) in tenant
//! order, and (5) advances the fabric last, routing each of its events to
//! the tenant that submitted the transfer.
//!
//! Tenants never call the fabric: they buffer [`Submit`] effects under
//! job-local tags, which the loop applies after each `handle` or
//! `advance` call, in emission order. The loop alone owns the wire-tag
//! format ([`WireTags`]). Fabric events, killed transfers and the
//! close-out wire log translate back through it, so tenants and
//! recorders only ever see job-local tags.
//!
//! Link faults are driver-applied on both paths: a job's private link
//! events and flaps are hoisted onto a [`ClusterFaultInjector`] with
//! [`hoist_job_links`] before the job is built, and the loop applies each
//! to the fabric exactly once. Machine edges are cluster business; the
//! loop hands them to [`DriverHooks::on_machine_edge`].

use bs_faults::{
    ClusterChange, ClusterFaultEntry, ClusterFaultInjector, LinkChange, LinkDir, PlanTarget,
};
use bs_net::{
    CompletedTransfer, DroppedTransfer, Fabric, NetEvent, NetPort, NodeId, ScopeWindow,
    WireXrayRecord,
};
use bs_scope::{ScopeBus, ScopeEvent};
use bs_sim::SimTime;

use crate::config::WorldConfig;
use crate::job::{JobEvent, JobState, NodeMap, Submit};
use crate::traffic::BurstSource;

/// Low bits of a wire tag that name its tenant; the rest index [`WireTags`].
const OWNER_BITS: u32 = 24;
const OWNER_MASK: u64 = (1 << OWNER_BITS) - 1;

/// The tenant that submitted the transfer travelling under `wire`: a
/// plain `fn`, as the contention recorder's job extractor needs.
pub fn wire_owner(wire: u64) -> usize {
    (wire & OWNER_MASK) as usize
}

/// The driver's wire-tag table: a transfer of tenant `j` travels under
/// wire tag `n << 24 | j`, and slot `n` holds its job-local tag. While
/// the fabric keeps a wire log, which close-out translates, the table is
/// append-only; otherwise finished transfers' slots are reused.
#[derive(Debug)]
pub struct WireTags {
    inner: Vec<u64>,
    /// Slots free for reuse; `None` when the table is append-only.
    free: Option<Vec<usize>>,
}

impl WireTags {
    /// Submits every transfer `tenant` (tenant number `j`) buffered
    /// since the last call, in emission order.
    pub fn apply<P: NetPort>(
        &mut self,
        tenant: &mut Tenant,
        j: usize,
        now: SimTime,
        fabric: &mut P,
    ) {
        let submits = match tenant {
            Tenant::Train { state, .. } => &mut state.core.submits,
            Tenant::Burst { submits, .. } => submits,
        };
        if submits.is_empty() {
            return;
        }
        for s in submits.drain(..) {
            let slot = match self.free.as_mut().and_then(Vec::pop) {
                Some(slot) => slot,
                None => {
                    self.inner.push(0);
                    self.inner.len() - 1
                }
            };
            self.inner[slot] = s.tag;
            let wire = (slot as u64) << OWNER_BITS | j as u64;
            fabric.submit(now, s.src, s.dst, s.bytes, wire);
        }
    }

    /// Replaces wire tag `tag` with its job-local tag; returns the owner.
    fn resolve(&self, tag: &mut u64) -> usize {
        let j = wire_owner(*tag);
        *tag = self.inner[(*tag >> OWNER_BITS) as usize];
        j
    }

    /// [`Self::resolve`] for a transfer's last event: frees its slot.
    fn retire(&mut self, tag: &mut u64) -> usize {
        if let Some(free) = self.free.as_mut() {
            free.push((*tag >> OWNER_BITS) as usize);
        }
        self.resolve(tag)
    }

    /// Translates a fabric wire log back to job-local tags, in log
    /// order, pairing each record with its owning tenant: the one
    /// translation solo and cluster close-out share.
    pub fn resolve_log(
        &self,
        log: Vec<WireXrayRecord>,
    ) -> impl Iterator<Item = (usize, WireXrayRecord)> + '_ {
        log.into_iter()
            .map(|mut rec| (self.resolve(&mut rec.0), rec))
    }
}

/// One tenant's live state.
#[allow(clippy::large_enum_variant)]
pub enum Tenant {
    /// A training job.
    Train {
        /// The job's simulation state.
        state: JobState,
        /// The job's configuration, link faults hoisted: checkpoint
        /// rebuilds and result assembly read it.
        cfg: WorldConfig,
        /// The instant the job's compute begins.
        arrival: SimTime,
        /// The instant the loop first saw the job done.
        finished: Option<SimTime>,
    },
    /// Cross traffic: one looping burst per node pair in each direction.
    Burst {
        /// The burst generator.
        src: BurstSource,
        /// The tenant's fabric nodes: "workers" `0..pairs`, "servers"
        /// `pairs..2 * pairs`.
        nodes: NodeMap,
        /// Worker/server pairs.
        pairs: usize,
        /// The instant the first bursts go out.
        seed_at: SimTime,
        /// True once the first bursts went out.
        seeded: bool,
        /// Bursts emitted since the driver last applied them.
        submits: Vec<Submit>,
    },
}

impl Tenant {
    /// A training tenant that has not finished.
    pub fn train(state: JobState, cfg: WorldConfig, arrival: SimTime) -> Tenant {
        Tenant::Train {
            state,
            cfg,
            arrival,
            finished: None,
        }
    }

    fn next_event_time(&self) -> SimTime {
        match self {
            Tenant::Train { state, .. } => state.next_event_time(),
            Tenant::Burst {
                src,
                seed_at,
                seeded,
                ..
            } => {
                if *seeded {
                    src.next_time()
                } else {
                    *seed_at
                }
            }
        }
    }

    fn advance(&mut self, t: SimTime, out: &mut Vec<JobEvent>) {
        match self {
            Tenant::Train { state, .. } => state.step(t, out),
            Tenant::Burst {
                src,
                nodes,
                pairs,
                seed_at,
                seeded,
                submits,
            } => {
                if !*seeded && *seed_at <= t {
                    // First activation: one burst per pair in each
                    // direction, mirroring the single-job co-tenant model.
                    for w in 0..*pairs {
                        src.seed_pair(w, nodes.node(w), nodes.node(*pairs + w), submits);
                    }
                    *seeded = true;
                }
                src.fire_due(t, submits);
            }
        }
    }

    fn handle(&mut self, ev: JobEvent, now: SimTime, out: &mut Vec<JobEvent>) {
        match self {
            Tenant::Train { state, .. } => state.react(ev, now, out),
            Tenant::Burst { src, .. } => {
                // A burst tenant only ever sees its own wire milestones:
                // re-arm on delivery, ignore releases.
                if let JobEvent::Net(NetEvent::Delivered(c)) = ev {
                    src.requeue(now, c.src, c.dst, c.tag);
                }
            }
        }
    }

    /// Publishes every buffered scope event.
    pub fn publish_scope(&mut self, bus: &mut ScopeBus) {
        if let Tenant::Train { state, .. } = self {
            state.publish_scope(bus);
        }
    }

    /// True unless this is a training tenant still running.
    fn done(&self) -> bool {
        match self {
            Tenant::Train { state, .. } => state.done(),
            Tenant::Burst { .. } => true,
        }
    }
}

/// What a driver adds to the loop beyond the tenants themselves. The
/// unit type adds nothing: a solo run has no per-tenant accounting and
/// no machines to fail.
pub trait DriverHooks {
    /// Tenant `job` had `c` delivered (under its job-local tag).
    fn on_delivered(&mut self, job: usize, c: &CompletedTransfer) {
        let _ = (job, c);
    }

    /// A `MachineDown`/`MachineUp` entry of the fault timeline is due.
    /// `timeline` is the whole sealed timeline (it never rewinds); killed
    /// transfers route back through `wires` ([`route_drop`]).
    fn on_machine_edge<P: NetPort>(
        &mut self,
        change: ClusterChange,
        now: SimTime,
        timeline: &[ClusterFaultEntry],
        tenants: &mut [Tenant],
        wires: &mut WireTags,
        fabric: &mut P,
    ) {
        let _ = (now, timeline, tenants, wires, fabric);
        unreachable!("{change:?} fell due but this driver has no machines to fail");
    }
}

impl DriverHooks for () {}

/// Moves the job-private link events and flaps of `cfg`'s fault plan
/// onto `injector`, translated to fabric nodes through `nodes` (whose
/// job id becomes the entries' owner), and clears them from the plan.
/// The job's own injector keeps only its loss stream, stragglers and
/// recovery policy.
///
/// Panics on a plan that does not fit the job, as [`JobState::build`]
/// does; CLIs check [`bs_faults::FaultPlan::check_fits`] first.
pub fn hoist_job_links(
    injector: &mut ClusterFaultInjector,
    cfg: &mut WorldConfig,
    nodes: &NodeMap,
) {
    let workers = cfg.num_workers;
    let Some(plan) = cfg.faults.as_mut().filter(|p| p.has_links()) else {
        return;
    };
    let target = PlanTarget::Job {
        workers,
        nodes: nodes.len(),
    };
    if let Err(e) = plan.check_fits(target) {
        panic!("invalid fault plan: {e}");
    }
    injector.add_job_links(nodes.job(), plan, &|local| nodes.node(local).0);
    plan.link_events.clear();
    plan.flaps.clear();
}

/// Routes a transfer the driver killed on the fabric into its owning
/// tenant — a training job's recovery machinery, or a burst tenant's
/// re-arm queue — and submits whatever the tenant sends in response.
pub fn route_drop<P: NetPort>(
    tenants: &mut [Tenant],
    wires: &mut WireTags,
    mut d: DroppedTransfer,
    now: SimTime,
    fabric: &mut P,
) {
    let j = wires.retire(&mut d.tag);
    match &mut tenants[j] {
        Tenant::Train { state, .. } => state.route_fabric_drop(d, now),
        Tenant::Burst { src, .. } => src.requeue(now, d.src, d.dst, d.tag),
    }
    wires.apply(&mut tenants[j], j, now, fabric);
}

/// Buffers a `FaultFired` event on the affected tenants' scope streams:
/// on the owning job alone for a hoisted job-private change (with the
/// job-local node index its plan wrote), or on every unfinished training
/// job placed on the machine for a cluster-scope change.
pub fn push_fault_event(
    tenants: &mut [Tenant],
    owner: Option<usize>,
    machine: usize,
    local_node: usize,
    kind: &'static str,
    scale: f64,
    now: SimTime,
) {
    let event = |job, node| ScopeEvent::FaultFired {
        job,
        at: now,
        kind,
        node,
        scale,
    };
    match owner {
        Some(j) => {
            if let Tenant::Train { state, .. } = &mut tenants[j] {
                state.scope_push(event(j, local_node));
            }
        }
        None => {
            for (j, tenant) in tenants.iter_mut().enumerate() {
                if let Tenant::Train {
                    state,
                    finished: None,
                    ..
                } = tenant
                {
                    if state.nodes().fabric_nodes().iter().any(|n| n.0 == machine) {
                        state.scope_push(event(j, machine));
                    }
                }
            }
        }
    }
}

/// Applies one due link change. A hoisted change is skipped once every
/// training tenant is done: its owner failed earlier at this instant and
/// no one is left to run, so the loop ends at its next done check, just
/// as a solo run stops its timeline when it fails. While another tenant
/// still runs, the change fires: the fabric is shared, and a flapped port
/// must come back. Cluster-scope changes always fire.
fn apply_link<P: NetPort>(
    entry: &ClusterFaultEntry,
    change: LinkChange,
    now: SimTime,
    tenants: &mut [Tenant],
    wires: &mut WireTags,
    fabric: &mut P,
) {
    if entry.owner.is_some() && tenants.iter().all(Tenant::done) {
        return;
    }
    push_fault_event(
        tenants,
        entry.owner,
        change.node(),
        entry.local_node,
        change.kind(),
        change.capacity_fraction(),
        now,
    );
    match change {
        LinkChange::Scale { node, dir, scale } => {
            fabric.set_port_scale(now, NodeId(node), matches!(dir, LinkDir::Up), scale);
        }
        LinkChange::FlapDown { node } => {
            for d in fabric.kill_port(now, NodeId(node)) {
                route_drop(tenants, wires, d, now, fabric);
            }
        }
        LinkChange::FlapUp { node } => fabric.revive_port(now, NodeId(node)),
    }
}

/// Runs `tenants` on `fabric` until every training tenant is done and
/// returns that instant, with the wire tags close-out translates by.
/// `faults` is the sealed fault timeline (`None` when nothing can fire).
/// Training tenants' co-tenant bursts start with the simulation.
/// Monomorphises the loop over the concrete fabric, so per-event fabric
/// calls inline instead of dispatching through the enum.
///
/// Panics with every tenant's progress if the run deadlocks.
pub fn drive<H: DriverHooks>(
    tenants: &mut [Tenant],
    fabric: &mut Fabric,
    faults: Option<&mut ClusterFaultInjector>,
    hooks: &mut H,
    scope: Option<&mut ScopeBus>,
) -> (SimTime, WireTags) {
    assert!(
        tenants.len() as u64 <= OWNER_MASK,
        "more tenants than wire tags name"
    );
    let mut wires = WireTags {
        inner: Vec::new(),
        free: (!fabric.tap().logs_wire()).then(Vec::new),
    };
    let end = match fabric {
        Fabric::Fifo(n) => drive_on(tenants, n, &mut wires, faults, hooks, scope),
        Fabric::Fluid(n) => drive_on(tenants, n, &mut wires, faults, hooks, scope),
    };
    (end, wires)
}

fn drive_on<P: NetPort, H: DriverHooks>(
    tenants: &mut [Tenant],
    fabric: &mut P,
    wires: &mut WireTags,
    mut faults: Option<&mut ClusterFaultInjector>,
    hooks: &mut H,
    mut scope: Option<&mut ScopeBus>,
) -> SimTime {
    for (j, tenant) in tenants.iter_mut().enumerate() {
        if let Tenant::Train { state, .. } = tenant {
            state.emit_background();
            wires.apply(tenant, j, SimTime::ZERO, fabric);
        }
    }
    let mut now = SimTime::ZERO;
    let mut queue: Vec<JobEvent> = Vec::new();
    // The owning tenant of each queued event, index for index.
    let mut owners: Vec<usize> = Vec::new();
    let mut net_events: Vec<NetEvent> = Vec::new();
    let mut scope_windows: Vec<ScopeWindow> = Vec::new();
    let mut spins_at_same_instant: u64 = 0;
    let mut last_now = SimTime::ZERO;
    loop {
        if now == last_now {
            spins_at_same_instant += 1;
            assert!(
                spins_at_same_instant < 1_000_000,
                "event loop spinning at {now} without progress"
            );
        } else {
            last_now = now;
            spins_at_same_instant = 0;
        }
        // Drain all cascades at the current instant; follow-on events are
        // appended in emission order, so each tenant sees LIFO cascades.
        while let Some(ev) = queue.pop() {
            let j = owners.pop().expect("queued event without owner");
            tenants[j].handle(ev, now, &mut queue);
            owners.resize(queue.len(), j);
            wires.apply(&mut tenants[j], j, now, fabric);
            if let Some(bus) = scope.as_deref_mut() {
                tenants[j].publish_scope(bus);
            }
        }
        let mut all_done = true;
        let mut t = SimTime::MAX;
        for tenant in tenants.iter_mut() {
            if let Tenant::Train {
                state, finished, ..
            } = tenant
            {
                if finished.is_none() {
                    if state.done() {
                        *finished = Some(now);
                    } else {
                        all_done = false;
                    }
                }
            }
            t = t.min(tenant.next_event_time());
        }
        if all_done {
            return now;
        }
        t = t.min(fabric.next_event_time());
        if let Some(inj) = faults.as_deref() {
            t = t.min(inj.next_change_time());
        }
        if t.is_never() {
            stalled(tenants, now);
        }
        now = t;
        // Faults fire before any tenant advances at this instant, so a
        // retransmit timer due now sees the post-change fabric.
        if let Some(inj) = faults.as_deref_mut() {
            while let Some(entry) = inj.pop_due(now) {
                match entry.change {
                    ClusterChange::Link(c) => apply_link(&entry, c, now, tenants, wires, fabric),
                    m => hooks.on_machine_edge(m, now, inj.timeline(), tenants, wires, fabric),
                }
            }
        }
        for (j, tenant) in tenants.iter_mut().enumerate() {
            tenant.advance(t, &mut queue);
            owners.resize(queue.len(), j);
            wires.apply(tenant, j, t, fabric);
            if let Some(bus) = scope.as_deref_mut() {
                tenant.publish_scope(bus);
            }
        }
        if fabric.wants_advance(t) {
            fabric.advance_into(t, &mut net_events);
            for mut ev in net_events.drain(..) {
                // Route to the submitting tenant under its job-local tag,
                // so tenants' handlers are oblivious to co-tenancy.
                let j = match &mut ev {
                    NetEvent::Released(c) => wires.resolve(&mut c.tag),
                    NetEvent::Delivered(c) => {
                        let j = wires.retire(&mut c.tag);
                        hooks.on_delivered(j, c);
                        j
                    }
                };
                queue.push(JobEvent::Net(ev));
                owners.push(j);
            }
        }
        if let Some(bus) = scope.as_deref_mut() {
            fabric.drain_scope_windows(&mut scope_windows);
            for w in scope_windows.drain(..) {
                bus.publish(net_window_event(&w));
            }
        }
    }
}

/// Maps a fabric NIC-utilisation window onto its bus event.
fn net_window_event(w: &ScopeWindow) -> ScopeEvent {
    ScopeEvent::NetWindow {
        start: w.start,
        at: w.end,
        util_secs: w.util_secs,
        mean_util: w.mean_util,
    }
}

#[cold]
fn stalled(tenants: &[Tenant], now: SimTime) -> ! {
    let progress: Vec<String> = tenants
        .iter()
        .enumerate()
        .map(|(j, tenant)| match tenant {
            Tenant::Train { state, .. } => format!(
                "job{j}: iterations done {:?}, queued work {:?}",
                state.debug_iterations(),
                state.debug_sched_queues()
            ),
            Tenant::Burst { src, .. } => format!("job{j}: burst timers {}", src.pending()),
        })
        .collect();
    panic!("simulation stalled at {now}: {}", progress.join("; "));
}

/// Closes a run's scope stream at `end`: the fabric's partial
/// utilisation window, then every tenant's straggling events. The bus
/// itself stays open.
pub fn finish_scope(fabric: &mut Fabric, tenants: &mut [Tenant], end: SimTime, bus: &mut ScopeBus) {
    let tap = fabric.tap();
    tap.finish_scope(end);
    let mut wins = Vec::new();
    tap.drain_scope_windows(&mut wins);
    for w in &wins {
        bus.publish(net_window_event(w));
    }
    for tenant in tenants.iter_mut() {
        tenant.publish_scope(bus);
    }
}
