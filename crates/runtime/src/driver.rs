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
//! order, and (5) advances the fabric last, demultiplexing its events by
//! the job-id bits of each transfer tag.
//!
//! Link faults are driver-applied on both paths: a job's private link
//! events and flaps are hoisted onto a [`ClusterFaultInjector`] with
//! [`hoist_job_links`] before the job is built, and the loop applies each
//! to the fabric exactly once. Machine edges are cluster business; the
//! loop hands them to [`DriverHooks::on_machine_edge`].

use bs_faults::{
    ClusterChange, ClusterFaultEntry, ClusterFaultInjector, LinkChange, LinkDir, PlanTarget,
};
use bs_net::{CompletedTransfer, DroppedTransfer, Fabric, NetEvent, NetPort, NodeId, ScopeWindow};
use bs_scope::{ScopeBus, ScopeEvent};
use bs_sim::SimTime;

use crate::config::WorldConfig;
use crate::job::{inner_tag, job_of_tag, JobEvent, JobState, NodeMap};
use crate::traffic::{BurstSource, BG_TAG};

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

    fn advance<P: NetPort>(&mut self, t: SimTime, fabric: &mut P, out: &mut Vec<JobEvent>) {
        match self {
            Tenant::Train { state, .. } => state.advance(t, fabric, out),
            Tenant::Burst {
                src,
                nodes,
                pairs,
                seed_at,
                seeded,
            } => {
                if !*seeded && *seed_at <= t {
                    // First activation: one burst per pair in each
                    // direction, mirroring the single-job co-tenant model.
                    for w in 0..*pairs {
                        let worker = nodes.node(w);
                        let server = nodes.node(*pairs + w);
                        src.seed(t, fabric, nodes, server, worker, BG_TAG | (2 * w as u64));
                        src.seed(
                            t,
                            fabric,
                            nodes,
                            worker,
                            server,
                            BG_TAG | (2 * w as u64 + 1),
                        );
                    }
                    *seeded = true;
                }
                src.fire_due(t, fabric, nodes);
            }
        }
    }

    fn handle<P: NetPort>(
        &mut self,
        ev: JobEvent,
        now: SimTime,
        fabric: &mut P,
        out: &mut Vec<JobEvent>,
    ) {
        match self {
            Tenant::Train { state, .. } => state.handle(ev, now, fabric, out),
            Tenant::Burst { src, .. } => {
                // A burst tenant only ever sees its own wire milestones:
                // re-arm on delivery, ignore releases.
                if let JobEvent::Net(NetEvent::Delivered(c)) = ev {
                    src.on_delivered(now, &c);
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
    /// Tenant `job` had `c` delivered (tag already stripped).
    fn on_delivered(&mut self, job: usize, c: &CompletedTransfer) {
        let _ = (job, c);
    }

    /// A `MachineDown`/`MachineUp` entry of the fault timeline is due.
    /// `timeline` is the whole sealed timeline (it never rewinds).
    fn on_machine_edge<P: NetPort>(
        &mut self,
        change: ClusterChange,
        now: SimTime,
        timeline: &[ClusterFaultEntry],
        tenants: &mut [Tenant],
        fabric: &mut P,
    ) {
        let _ = (now, timeline, tenants, fabric);
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
/// tenant: a training job's recovery machinery, or a burst tenant's
/// re-arm queue.
pub fn route_drop<P: NetPort>(
    tenants: &mut [Tenant],
    d: DroppedTransfer,
    now: SimTime,
    fabric: &mut P,
) {
    match &mut tenants[job_of_tag(d.tag)] {
        Tenant::Train { state, .. } => state.route_fabric_drop(d, now, fabric),
        Tenant::Burst { src, .. } => src.requeue(now, d.src, d.dst, inner_tag(d.tag)),
    }
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
                route_drop(tenants, d, now, fabric);
            }
        }
        LinkChange::FlapUp { node } => fabric.revive_port(now, NodeId(node)),
    }
}

/// Runs `tenants` on `fabric` until every training tenant is done and
/// returns that instant. `faults` is the sealed fault timeline (`None`
/// when nothing can fire). Training tenants' co-tenant bursts start with
/// the simulation. Monomorphises the loop over the concrete fabric, so
/// per-event fabric calls inline instead of dispatching through the enum.
///
/// Panics with every tenant's progress if the run deadlocks.
pub fn drive<H: DriverHooks>(
    tenants: &mut [Tenant],
    fabric: &mut Fabric,
    faults: Option<&mut ClusterFaultInjector>,
    hooks: &mut H,
    scope: Option<&mut ScopeBus>,
) -> SimTime {
    match fabric {
        Fabric::Fifo(n) => drive_on(tenants, n, faults, hooks, scope),
        Fabric::Fluid(n) => drive_on(tenants, n, faults, hooks, scope),
    }
}

fn drive_on<P: NetPort, H: DriverHooks>(
    tenants: &mut [Tenant],
    fabric: &mut P,
    mut faults: Option<&mut ClusterFaultInjector>,
    hooks: &mut H,
    mut scope: Option<&mut ScopeBus>,
) -> SimTime {
    for tenant in tenants.iter_mut() {
        if let Tenant::Train { state, .. } = tenant {
            state.seed_background(SimTime::ZERO, fabric);
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
            tenants[j].handle(ev, now, fabric, &mut queue);
            owners.resize(queue.len(), j);
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
                    ClusterChange::Link(change) => apply_link(&entry, change, now, tenants, fabric),
                    machine => hooks.on_machine_edge(machine, now, inj.timeline(), tenants, fabric),
                }
            }
        }
        for (j, tenant) in tenants.iter_mut().enumerate() {
            tenant.advance(t, fabric, &mut queue);
            owners.resize(queue.len(), j);
            if let Some(bus) = scope.as_deref_mut() {
                tenant.publish_scope(bus);
            }
        }
        if fabric.wants_advance(t) {
            fabric.advance_into(t, &mut net_events);
            for ev in net_events.drain(..) {
                // Demultiplex by the tag's job-id bits; tenants see their
                // own tag namespace (stripped tags), so their handlers are
                // oblivious to co-tenancy.
                let (j, stripped) = match ev {
                    NetEvent::Released(mut c) => {
                        let j = job_of_tag(c.tag);
                        c.tag = inner_tag(c.tag);
                        (j, NetEvent::Released(c))
                    }
                    NetEvent::Delivered(mut c) => {
                        let j = job_of_tag(c.tag);
                        c.tag = inner_tag(c.tag);
                        hooks.on_delivered(j, &c);
                        (j, NetEvent::Delivered(c))
                    }
                };
                queue.push(JobEvent::Net(stripped));
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
