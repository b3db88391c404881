//! Deterministic fault injection for degraded-fabric experiments.
//!
//! ByteScheduler's paper argues the scheduler must keep working when the
//! environment shifts (§3.5 re-runs Bayesian Optimization "when the
//! environment changes"; §6 evaluates under varying bandwidth). This crate
//! is the vocabulary for *making* the environment shift, reproducibly:
//!
//! * [`FaultPlan`] — a declarative, JSON-(de)serialisable schedule of
//!   seeded fault events: link bandwidth degradation/restoration, link
//!   flaps (down intervals that kill in-flight transfers), per-transfer
//!   Bernoulli loss, and per-iteration worker compute stragglers, plus
//!   the [`RecoveryPolicy`] (retransmit timeout, exponential backoff,
//!   retry cap) the runtime applies when transfers are lost.
//! * [`FaultInjector`] — a job's view of its plan: a seeded loss stream
//!   on its own RNG (forked from the world seed with a constant distinct
//!   from the co-tenant burst stream's, so recorded runs stay
//!   bit-identical), straggler lookups and the recovery policy.
//! * [`ClusterFaultInjector`] — the driver's merged, time-sorted
//!   timeline of [`ClusterChange`]s: link changes (a cluster plan's and
//!   every job's hoisted private ones) and machine failures.
//!
//! The empty plan is the identity: it schedules nothing, its injector
//! never draws from its RNG, and it scales nothing — runs with
//! `faults: Some(empty)` are bit-identical to runs with `faults: None`,
//! the "empty-plan-only" extension of the recording-only guarantee,
//! pinned by `tests/faults.rs`.

use bs_sim::{SimRng, SimTime};
use serde::Serialize;
use serde_json::Value;

/// Schema version stamped into serialised plans; bump on breaking change.
/// v2 added `machine_failures` (cluster-scope machine outages). v1
/// documents are still accepted: every v2 field is optional.
pub const FAULT_PLAN_SCHEMA_VERSION: u64 = 2;

/// Oldest plan schema version still accepted by [`FaultPlan::from_json`].
pub const FAULT_PLAN_MIN_SCHEMA_VERSION: u64 = 1;

/// XOR constant folding the world seed into the loss RNG stream. Distinct
/// from the co-tenant burst stream's `0xB6_0000` so enabling faults never
/// perturbs background traffic (and vice versa).
const LOSS_SEED_XOR: u64 = 0xFA_0000;

/// Splits one world seed into per-job fault-stream seeds with the 64-bit
/// golden-ratio multiplier, the same discipline every other per-entity
/// stream in the workspace uses. Job 0 (and therefore every single-job
/// run) keeps the unsplit seed, so solo fault plans replay bit-identically
/// at cluster scope.
pub fn job_seed(seed: u64, job: usize) -> u64 {
    seed ^ (job as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One direction of a NIC port.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum LinkDir {
    /// The node's uplink (sender side).
    Up,
    /// The node's downlink (receiver side).
    Down,
}

/// A scheduled bandwidth change on one NIC direction: at `at_us`, the
/// port's capacity becomes `scale` × nominal. `scale` 1.0 restores the
/// link; 0.25 models a 4× degradation. Scales must be positive — a dead
/// link is a [`LinkFlap`], not a zero scale, because flaps also kill
/// in-flight transfers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct LinkEvent {
    /// Virtual time of the change, microseconds.
    pub at_us: u64,
    /// Machine whose NIC changes.
    pub node: usize,
    /// Which direction of the NIC.
    pub dir: LinkDir,
    /// New capacity as a fraction of nominal (> 0).
    pub scale: f64,
}

/// A link-down interval on one machine's NIC (both directions): in-flight
/// transfers occupying the port at `from_us` are killed, no new transfer
/// starts until `to_us`, then the link restores to nominal.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct LinkFlap {
    /// Machine whose link goes down.
    pub node: usize,
    /// Start of the down interval, microseconds.
    pub from_us: u64,
    /// End of the down interval, microseconds (exclusive; must be
    /// > `from_us`).
    pub to_us: u64,
}

/// A compute slowdown on one worker over an iteration range: the GPU time
/// of iterations in `[from_iter, to_iter)` is multiplied by `factor`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct StragglerSpec {
    /// The straggling worker.
    pub worker: usize,
    /// First slowed iteration (inclusive).
    pub from_iter: u64,
    /// End of the slowed range (exclusive).
    pub to_iter: u64,
    /// Compute-time multiplier (> 0; > 1 slows the worker down).
    pub factor: f64,
}

/// A whole-machine outage at cluster scope: at `at_us` the machine's NIC
/// goes down (killing in-flight transfers of every tenant on its ports)
/// and the machine stops hosting placements; at `restore_us` (exclusive,
/// like flap ends) it returns to the healthy pool. `None` means the
/// machine never comes back. Machine failures are only meaningful to the
/// cluster driver — job-private plans must not carry them.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct MachineFailure {
    /// The failing machine (cluster machine index = fabric node index).
    pub machine: usize,
    /// Failure instant, microseconds.
    pub at_us: u64,
    /// Restore instant, microseconds (exclusive; must be > `at_us`), or
    /// `None` for a permanent loss.
    pub restore_us: Option<u64>,
}

/// How the runtime recovers lost transfers: a lost partition is
/// retransmitted after `timeout_us × 2^attempt` (exponential backoff),
/// up to `max_retries` attempts per partition; exceeding the cap fails
/// the run with `RunOutcome::Failed`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct RecoveryPolicy {
    /// Base retransmit timeout, microseconds.
    pub timeout_us: u64,
    /// Maximum retransmit attempts per partition.
    pub max_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            timeout_us: 50_000,
            max_retries: 8,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff delay before retransmit attempt number `attempt` (1-based):
    /// `timeout × 2^(attempt-1)`, saturating.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        let factor = 1u64 << (attempt.saturating_sub(1)).min(20);
        SimTime::from_micros(self.timeout_us.saturating_mul(factor))
    }
}

/// The run a [`FaultPlan`] is checked against ([`FaultPlan::check_fits`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanTarget {
    /// One job's private plan: its worker count and the fabric nodes it
    /// occupies (none for all-reduce, whose collectives are private).
    Job {
        /// Workers in the job.
        workers: usize,
        /// Fabric nodes the job occupies; its link faults name these.
        nodes: usize,
    },
    /// A cluster-scope plan over shared machines.
    Cluster {
        /// Machines in the cluster; link faults and failures name these.
        machines: usize,
    },
}

/// A deterministic, seeded schedule of faults for one run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FaultPlan {
    /// Scheduled bandwidth changes.
    pub link_events: Vec<LinkEvent>,
    /// Link-down intervals.
    pub flaps: Vec<LinkFlap>,
    /// Per-transfer Bernoulli drop probability at delivery, in `[0, 1)`.
    pub loss_rate: f64,
    /// Worker compute slowdowns.
    pub stragglers: Vec<StragglerSpec>,
    /// Whole-machine outages (cluster scope only; schema v2).
    pub machine_failures: Vec<MachineFailure>,
    /// Recovery policy applied to lost transfers.
    pub recovery: RecoveryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::empty()
    }
}

impl FaultPlan {
    /// The identity plan: injects nothing, draws nothing.
    pub fn empty() -> Self {
        FaultPlan {
            link_events: Vec::new(),
            flaps: Vec::new(),
            loss_rate: 0.0,
            stragglers: Vec::new(),
            machine_failures: Vec::new(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// True when the plan schedules no fault of any kind.
    pub fn is_empty(&self) -> bool {
        !self.has_links()
            && self.loss_rate == 0.0
            && self.stragglers.is_empty()
            && self.machine_failures.is_empty()
    }

    /// True when the plan changes links: scale events or flaps.
    pub fn has_links(&self) -> bool {
        !(self.link_events.is_empty() && self.flaps.is_empty())
    }

    /// Validates invariants, returning the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.loss_rate) {
            return Err(format!("loss_rate {} outside [0, 1)", self.loss_rate));
        }
        for e in &self.link_events {
            if e.scale <= 0.0 || !e.scale.is_finite() {
                return Err(format!(
                    "link event at {}us on node {}: scale {} must be finite and > 0 \
                     (use a flap for a dead link)",
                    e.at_us, e.node, e.scale
                ));
            }
        }
        for f in &self.flaps {
            if f.to_us <= f.from_us {
                return Err(format!(
                    "flap on node {}: empty interval [{}us, {}us)",
                    f.node, f.from_us, f.to_us
                ));
            }
        }
        for s in &self.stragglers {
            if s.factor <= 0.0 || !s.factor.is_finite() {
                return Err(format!(
                    "straggler on worker {}: factor {} must be finite and > 0",
                    s.worker, s.factor
                ));
            }
            if s.to_iter <= s.from_iter {
                return Err(format!(
                    "straggler on worker {}: empty iteration range [{}, {})",
                    s.worker, s.from_iter, s.to_iter
                ));
            }
        }
        for m in &self.machine_failures {
            if let Some(restore) = m.restore_us {
                if restore <= m.at_us {
                    return Err(format!(
                        "machine failure on machine {}: empty interval [{}us, {}us)",
                        m.machine, m.at_us, restore
                    ));
                }
            }
        }
        if self.recovery.timeout_us == 0 {
            return Err("recovery timeout must be positive".into());
        }
        Ok(())
    }

    /// Checks that the plan is valid and fits the run it is meant for,
    /// returning the first violation: every straggler, link event and
    /// flap names a worker or node the run has, a job's private plan
    /// takes down no machines and changes links only if the job occupies
    /// fabric nodes, and a cluster plan fails only machines it has.
    /// Drivers reject a plan that fails this; CLIs report it.
    pub fn check_fits(&self, target: PlanTarget) -> Result<(), String> {
        self.validate()?;
        let (nodes, what) = match target {
            PlanTarget::Job { workers, nodes } => {
                if !self.machine_failures.is_empty() {
                    return Err("machine failures are cluster-scope faults; a job-private \
                                plan cannot take down shared machines"
                        .into());
                }
                if self.has_links() && nodes == 0 {
                    return Err("link faults need fabric nodes, but this job occupies none \
                                (all-reduce collectives are private: they model loss and \
                                stragglers only)"
                        .into());
                }
                if let Some(s) = self.stragglers.iter().find(|s| s.worker >= workers) {
                    return Err(format!(
                        "straggler worker {} outside this job's {workers} workers",
                        s.worker
                    ));
                }
                (nodes, "this job's fabric nodes")
            }
            PlanTarget::Cluster { machines } => {
                if let Some(m) = self.machine_failures.iter().find(|m| m.machine >= machines) {
                    return Err(format!(
                        "machine failure on machine {} outside the cluster's {machines} machines",
                        m.machine
                    ));
                }
                (machines, "the cluster's machines")
            }
        };
        let links = self.link_events.iter().map(|e| ("link event", e.node));
        let flaps = self.flaps.iter().map(|f| ("flap", f.node));
        if let Some((kind, node)) = links.chain(flaps).find(|&(_, node)| node >= nodes) {
            return Err(format!("{kind} on node {node} outside {what} ({nodes})"));
        }
        Ok(())
    }

    /// Renders the plan as the schema-versioned JSON document
    /// `results/fault_plan.schema.json` describes.
    pub fn to_json(&self) -> String {
        let mut fields = vec![(
            "schema_version".to_string(),
            Value::U64(FAULT_PLAN_SCHEMA_VERSION),
        )];
        if let Value::Object(body) = self.to_value() {
            fields.extend(body);
        }
        serde_json::to_string_pretty(&Value::Object(fields)).expect("plan renders") + "\n"
    }

    /// Parses a plan from its JSON form. Every field except
    /// `schema_version` is optional and defaults to the empty plan's
    /// value, so `{"schema_version": 1}` is the identity plan.
    pub fn from_json(text: &str) -> Result<FaultPlan, String> {
        let doc = serde_json::from_str(text).map_err(|e| format!("fault plan: {e}"))?;
        Self::from_value(&doc)
    }

    /// Reads and parses the plan in the file at `path`; errors name the
    /// file.
    pub fn from_file(path: &str) -> Result<FaultPlan, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fault plan {path}: {e}"))?;
        Self::from_json(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses a plan from an already-decoded JSON tree.
    pub fn from_value(doc: &Value) -> Result<FaultPlan, String> {
        let version = get_u64(doc, "schema_version")?
            .ok_or("fault plan: missing schema_version".to_string())?;
        if !(FAULT_PLAN_MIN_SCHEMA_VERSION..=FAULT_PLAN_SCHEMA_VERSION).contains(&version) {
            return Err(format!(
                "fault plan: schema_version {version} unsupported (expected \
                 {FAULT_PLAN_MIN_SCHEMA_VERSION}..={FAULT_PLAN_SCHEMA_VERSION})"
            ));
        }
        let mut plan = FaultPlan::empty();
        if let Some(rate) = get_f64(doc, "loss_rate")? {
            plan.loss_rate = rate;
        }
        if let Some(items) = get_array(doc, "link_events")? {
            for (i, item) in items.iter().enumerate() {
                let dir = match get_str(item, "dir")? {
                    Some("Up") => LinkDir::Up,
                    Some("Down") => LinkDir::Down,
                    Some(s) => return Err(format!("link_events[{i}]: bad dir {s:?}")),
                    None => return Err(format!("link_events[{i}]: missing dir")),
                };
                plan.link_events.push(LinkEvent {
                    at_us: require_u64(item, "at_us", &format!("link_events[{i}]"))?,
                    node: require_u64(item, "node", &format!("link_events[{i}]"))? as usize,
                    dir,
                    scale: require_f64(item, "scale", &format!("link_events[{i}]"))?,
                });
            }
        }
        if let Some(items) = get_array(doc, "flaps")? {
            for (i, item) in items.iter().enumerate() {
                plan.flaps.push(LinkFlap {
                    node: require_u64(item, "node", &format!("flaps[{i}]"))? as usize,
                    from_us: require_u64(item, "from_us", &format!("flaps[{i}]"))?,
                    to_us: require_u64(item, "to_us", &format!("flaps[{i}]"))?,
                });
            }
        }
        if let Some(items) = get_array(doc, "stragglers")? {
            for (i, item) in items.iter().enumerate() {
                plan.stragglers.push(StragglerSpec {
                    worker: require_u64(item, "worker", &format!("stragglers[{i}]"))? as usize,
                    from_iter: require_u64(item, "from_iter", &format!("stragglers[{i}]"))?,
                    to_iter: require_u64(item, "to_iter", &format!("stragglers[{i}]"))?,
                    factor: require_f64(item, "factor", &format!("stragglers[{i}]"))?,
                });
            }
        }
        if let Some(items) = get_array(doc, "machine_failures")? {
            for (i, item) in items.iter().enumerate() {
                plan.machine_failures.push(MachineFailure {
                    machine: require_u64(item, "machine", &format!("machine_failures[{i}]"))?
                        as usize,
                    at_us: require_u64(item, "at_us", &format!("machine_failures[{i}]"))?,
                    restore_us: get_u64(item, "restore_us")?,
                });
            }
        }
        if let Some(rec) = doc.get("recovery") {
            plan.recovery = RecoveryPolicy {
                timeout_us: require_u64(rec, "timeout_us", "recovery")?,
                max_retries: require_u64(rec, "max_retries", "recovery")? as u32,
            };
        }
        plan.validate()?;
        Ok(plan)
    }
}

fn get_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::U64(n)) => Ok(Some(*n)),
        Some(Value::I64(n)) if *n >= 0 => Ok(Some(*n as u64)),
        Some(Value::F64(x)) if *x >= 0.0 && x.trunc() == *x => Ok(Some(*x as u64)),
        Some(other) => Err(format!(
            "fault plan: {key} must be a non-negative integer, got {other:?}"
        )),
    }
}

fn get_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::F64(x)) => Ok(Some(*x)),
        Some(Value::U64(n)) => Ok(Some(*n as f64)),
        Some(Value::I64(n)) => Ok(Some(*n as f64)),
        Some(other) => Err(format!("fault plan: {key} must be a number, got {other:?}")),
    }
}

fn get_str<'v>(v: &'v Value, key: &str) -> Result<Option<&'v str>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(other) => Err(format!("fault plan: {key} must be a string, got {other:?}")),
    }
}

fn get_array<'v>(v: &'v Value, key: &str) -> Result<Option<&'v [Value]>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Array(items)) => Ok(Some(items)),
        Some(other) => Err(format!("fault plan: {key} must be an array, got {other:?}")),
    }
}

fn require_u64(v: &Value, key: &str, at: &str) -> Result<u64, String> {
    get_u64(v, key)?.ok_or_else(|| format!("fault plan: {at}: missing {key}"))
}

fn require_f64(v: &Value, key: &str, at: &str) -> Result<f64, String> {
    get_f64(v, key)?.ok_or_else(|| format!("fault plan: {at}: missing {key}"))
}

/// One link change on the fabric, an entry of the
/// [`ClusterFaultInjector`] timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkChange {
    /// Scale one NIC direction's capacity to `scale` × nominal.
    Scale {
        /// Affected machine.
        node: usize,
        /// Affected direction.
        dir: LinkDir,
        /// New capacity fraction.
        scale: f64,
    },
    /// Take a machine's link down (both directions): kill in-flight
    /// transfers on its ports and admit no new ones.
    FlapDown {
        /// Affected machine.
        node: usize,
    },
    /// Restore a flapped link to nominal capacity.
    FlapUp {
        /// Affected machine.
        node: usize,
    },
}

impl LinkChange {
    /// Stable label for observation streams (`"scale"`, `"flap_down"`,
    /// `"flap_up"` — the discriminators of `results/events.schema.json`).
    pub fn kind(&self) -> &'static str {
        match self {
            LinkChange::Scale { .. } => "scale",
            LinkChange::FlapDown { .. } => "flap_down",
            LinkChange::FlapUp { .. } => "flap_up",
        }
    }

    /// The machine the change hits.
    pub fn node(&self) -> usize {
        match *self {
            LinkChange::Scale { node, .. }
            | LinkChange::FlapDown { node }
            | LinkChange::FlapUp { node } => node,
        }
    }

    /// The resulting capacity fraction: the `Scale` factor, `0.0` for a
    /// flap down, `1.0` for a flap up.
    pub fn capacity_fraction(&self) -> f64 {
        match *self {
            LinkChange::Scale { scale, .. } => scale,
            LinkChange::FlapDown { .. } => 0.0,
            LinkChange::FlapUp { .. } => 1.0,
        }
    }
}

/// A job's own view of its [`FaultPlan`]: the seeded loss stream and the
/// recovery policy. Link events and flaps are not read here — the driver
/// applies them from a [`ClusterFaultInjector`] — nor are stragglers,
/// which the job hands to each worker's engine at setup.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    loss_rate: f64,
    rng: SimRng,
    policy: RecoveryPolicy,
}

impl FaultInjector {
    /// Builds the injector for `plan`, with the loss stream forked from
    /// the world `seed`. Panics on an invalid plan — validate at the
    /// parse boundary for recoverable errors.
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        FaultInjector {
            loss_rate: plan.loss_rate,
            rng: SimRng::new(seed ^ LOSS_SEED_XOR),
            policy: plan.recovery,
        }
    }

    /// The recovery policy in force.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// True when the plan can lose transfers at all. When false,
    /// [`Self::should_drop`] is never called and the RNG never advances —
    /// the empty-plan identity depends on this.
    pub fn has_loss(&self) -> bool {
        self.loss_rate > 0.0
    }

    /// Draws the Bernoulli loss stream: true = drop this delivery. Call
    /// exactly once per candidate delivery, in delivery order, so the
    /// stream is reproducible.
    pub fn should_drop(&mut self) -> bool {
        debug_assert!(self.loss_rate > 0.0, "loss draw on a lossless plan");
        self.rng.next_f64() < self.loss_rate
    }
}

/// A change due on the *shared* cluster fabric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClusterChange {
    /// A link change; its node index addresses fabric machines.
    Link(LinkChange),
    /// A whole machine fails: its port goes down (killing every tenant's
    /// in-flight transfers there) and it leaves the healthy pool, so the
    /// driver checkpoints and migrates the jobs placed on it.
    MachineDown {
        /// The failing machine.
        machine: usize,
    },
    /// A failed machine restores: port revived, healthy pool rejoined.
    MachineUp {
        /// The restored machine.
        machine: usize,
    },
}

impl ClusterChange {
    /// Stable label for observation streams, extending [`LinkChange::kind`]
    /// with `"machine_down"` / `"machine_up"`.
    pub fn kind(&self) -> &'static str {
        match self {
            ClusterChange::Link(c) => c.kind(),
            ClusterChange::MachineDown { .. } => "machine_down",
            ClusterChange::MachineUp { .. } => "machine_up",
        }
    }

    /// The machine the change hits.
    pub fn machine(&self) -> usize {
        match *self {
            ClusterChange::Link(c) => c.node(),
            ClusterChange::MachineDown { machine } | ClusterChange::MachineUp { machine } => {
                machine
            }
        }
    }

    /// The resulting capacity fraction (see
    /// [`LinkChange::capacity_fraction`]; machine edges behave like flaps).
    pub fn capacity_fraction(&self) -> f64 {
        match *self {
            ClusterChange::Link(c) => c.capacity_fraction(),
            ClusterChange::MachineDown { .. } => 0.0,
            ClusterChange::MachineUp { .. } => 1.0,
        }
    }
}

/// One entry of the cluster fault timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterFaultEntry {
    /// The instant the change fires.
    pub at: SimTime,
    /// The job whose private plan the change was hoisted from, or `None`
    /// for cluster-scope changes that hit every tenant.
    pub owner: Option<usize>,
    /// The node index as the owning job's plan wrote it (job-local), kept
    /// so the owner's observation stream matches its solo run exactly.
    /// Cluster-scope entries carry the machine index here.
    pub local_node: usize,
    /// The change itself; link-change node indices are machine indices.
    pub change: ClusterChange,
}

/// The driver's fault timeline: one merged, time-sorted cursor over a
/// cluster plan's link changes and machine failures *plus* every job's
/// hoisted private link events and flaps, so each change applies to the
/// fabric exactly once. A solo run is the one-job case.
///
/// Per-job loss and straggler streams stay in the jobs' own
/// [`FaultInjector`]s (seeded via [`job_seed`]) — only link-level
/// changes, which touch fabric ports, are hoisted here. Build order is
/// the replay contract: cluster-plan entries first, then each job's
/// entries in job order, each group in plan order (link events, then
/// flap edge pairs); [`Self::seal`] stable-sorts by time, so
/// same-instant changes fire in that order.
#[derive(Clone, Debug, Default)]
pub struct ClusterFaultInjector {
    timeline: Vec<ClusterFaultEntry>,
    cursor: usize,
    sealed: bool,
}

impl ClusterFaultInjector {
    /// An empty injector; add plans, then [`Self::seal`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a cluster-scope plan: link events and flaps address machines
    /// directly, and machine failures contribute their down/up edges.
    /// Loss, stragglers, and recovery are *not* consumed here — the
    /// caller projects them into per-job plans.
    pub fn add_plan(&mut self, plan: &FaultPlan) {
        self.push_links(None, plan, &|machine| machine);
        for m in &plan.machine_failures {
            self.push(
                None,
                m.machine,
                SimTime::from_micros(m.at_us),
                ClusterChange::MachineDown { machine: m.machine },
            );
            if let Some(restore) = m.restore_us {
                self.push(
                    None,
                    m.machine,
                    SimTime::from_micros(restore),
                    ClusterChange::MachineUp { machine: m.machine },
                );
            }
        }
    }

    /// Hoists `job`'s private link events and flaps onto the timeline,
    /// translating job-local node indices to machines via `machine_of`.
    pub fn add_job_links(
        &mut self,
        job: usize,
        plan: &FaultPlan,
        machine_of: &dyn Fn(usize) -> usize,
    ) {
        self.push_links(Some(job), plan, machine_of);
    }

    /// Link events, then each flap's down/up edge pair, in plan order.
    fn push_links(
        &mut self,
        owner: Option<usize>,
        plan: &FaultPlan,
        machine_of: &dyn Fn(usize) -> usize,
    ) {
        assert!(!self.sealed, "cluster fault timeline already sealed");
        for e in &plan.link_events {
            self.push(owner, e.node, SimTime::from_micros(e.at_us), {
                ClusterChange::Link(LinkChange::Scale {
                    node: machine_of(e.node),
                    dir: e.dir,
                    scale: e.scale,
                })
            });
        }
        for f in &plan.flaps {
            let machine = machine_of(f.node);
            self.push(
                owner,
                f.node,
                SimTime::from_micros(f.from_us),
                ClusterChange::Link(LinkChange::FlapDown { node: machine }),
            );
            self.push(
                owner,
                f.node,
                SimTime::from_micros(f.to_us),
                ClusterChange::Link(LinkChange::FlapUp { node: machine }),
            );
        }
    }

    fn push(
        &mut self,
        owner: Option<usize>,
        local_node: usize,
        at: SimTime,
        change: ClusterChange,
    ) {
        self.timeline.push(ClusterFaultEntry {
            at,
            owner,
            local_node,
            change,
        });
    }

    /// Freezes the timeline: stable time sort, then cursor playback only.
    pub fn seal(&mut self) {
        assert!(!self.sealed, "cluster fault timeline already sealed");
        self.timeline.sort_by_key(|e| e.at);
        self.sealed = true;
    }

    /// True when no change was ever added.
    pub fn is_empty(&self) -> bool {
        self.timeline.is_empty()
    }

    /// Earliest pending change, or `MAX` when the timeline is spent.
    pub fn next_change_time(&self) -> SimTime {
        debug_assert!(self.sealed, "seal the timeline before playback");
        self.timeline
            .get(self.cursor)
            .map(|e| e.at)
            .unwrap_or(SimTime::MAX)
    }

    /// Pops the next change due at or before `now`, if any.
    pub fn pop_due(&mut self, now: SimTime) -> Option<ClusterFaultEntry> {
        debug_assert!(self.sealed, "seal the timeline before playback");
        match self.timeline.get(self.cursor) {
            Some(e) if e.at <= now => {
                self.cursor += 1;
                Some(*e)
            }
            _ => None,
        }
    }

    /// The full sealed timeline (static, never rewinds) — the driver
    /// scans it to price deferred placements after a capacity shortage.
    pub fn timeline(&self) -> &[ClusterFaultEntry] {
        &self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            link_events: vec![
                LinkEvent {
                    at_us: 1_000_000,
                    node: 2,
                    dir: LinkDir::Up,
                    scale: 0.25,
                },
                LinkEvent {
                    at_us: 3_000_000,
                    node: 2,
                    dir: LinkDir::Up,
                    scale: 1.0,
                },
            ],
            flaps: vec![LinkFlap {
                node: 1,
                from_us: 2_000_000,
                to_us: 2_200_000,
            }],
            loss_rate: 0.001,
            stragglers: vec![StragglerSpec {
                worker: 0,
                from_iter: 3,
                to_iter: 5,
                factor: 2.5,
            }],
            machine_failures: vec![MachineFailure {
                machine: 3,
                at_us: 4_000_000,
                restore_us: Some(9_000_000),
            }],
            recovery: RecoveryPolicy {
                timeout_us: 100_000,
                max_retries: 6,
            },
        }
    }

    #[test]
    fn plans_are_checked_against_the_run_they_target() {
        let plan = sample_plan();
        // Machine 3 fails; links touch nodes 1 and 2.
        assert_eq!(plan.check_fits(PlanTarget::Cluster { machines: 4 }), Ok(()));
        let err = plan
            .check_fits(PlanTarget::Cluster { machines: 3 })
            .unwrap_err();
        assert!(err.contains("machine 3"), "{err}");
        let err = plan
            .check_fits(PlanTarget::Job {
                workers: 2,
                nodes: 4,
            })
            .unwrap_err();
        assert!(err.contains("cluster-scope"), "{err}");

        let job_plan = FaultPlan {
            machine_failures: Vec::new(),
            ..sample_plan()
        };
        let job = |workers, nodes| job_plan.check_fits(PlanTarget::Job { workers, nodes });
        assert_eq!(job(1, 3), Ok(()));
        assert!(job(1, 2).unwrap_err().contains("link event on node 2"));
        assert!(job(1, 0).unwrap_err().contains("occupies none"));
        let stragglers_only = FaultPlan {
            stragglers: job_plan.stragglers.clone(),
            ..FaultPlan::empty()
        };
        assert_eq!(
            stragglers_only.check_fits(PlanTarget::Job {
                workers: 1,
                nodes: 0
            }),
            Ok(())
        );
        let late = FaultPlan {
            stragglers: vec![StragglerSpec {
                worker: 1,
                ..job_plan.stragglers[0]
            }],
            ..FaultPlan::empty()
        };
        let err = late
            .check_fits(PlanTarget::Job {
                workers: 1,
                nodes: 2,
            })
            .unwrap_err();
        assert_eq!(err, "straggler worker 1 outside this job's 1 workers");
    }

    #[test]
    fn json_round_trip_preserves_the_plan() {
        let plan = sample_plan();
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).expect("parses");
        assert_eq!(back, plan);
    }

    #[test]
    fn minimal_document_is_the_empty_plan() {
        let plan = FaultPlan::from_json("{\"schema_version\": 1}").expect("parses");
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::empty());
    }

    #[test]
    fn bad_documents_are_rejected_with_context() {
        for (doc, needle) in [
            ("{}", "schema_version"),
            ("{\"schema_version\": 3}", "unsupported"),
            (
                "{\"schema_version\": 2, \"machine_failures\": [{\"machine\": 0, \
                 \"at_us\": 7, \"restore_us\": 7}]}",
                "empty interval",
            ),
            ("{\"schema_version\": 1, \"loss_rate\": 1.5}", "loss_rate"),
            (
                "{\"schema_version\": 1, \"flaps\": [{\"node\": 0, \"from_us\": 5, \"to_us\": 5}]}",
                "empty interval",
            ),
            (
                "{\"schema_version\": 1, \"link_events\": [{\"at_us\": 0, \"node\": 0, \
                 \"dir\": \"Sideways\", \"scale\": 0.5}]}",
                "bad dir",
            ),
            (
                "{\"schema_version\": 1, \"link_events\": [{\"at_us\": 0, \"node\": 0, \
                 \"dir\": \"Up\", \"scale\": 0.0}]}",
                "scale",
            ),
            (
                "{\"schema_version\": 1, \"stragglers\": [{\"worker\": 0, \"from_iter\": 2, \
                 \"to_iter\": 2, \"factor\": 2.0}]}",
                "iteration range",
            ),
            (
                "{\"schema_version\": 1, \"recovery\": {\"timeout_us\": 0, \"max_retries\": 3}}",
                "timeout",
            ),
        ] {
            let err = FaultPlan::from_json(doc).expect_err(doc);
            assert!(err.contains(needle), "{doc}: {err:?} lacks {needle:?}");
        }
    }

    /// A job's hoisted links with machine `local + 4`.
    fn hoisted(plan: &FaultPlan) -> ClusterFaultInjector {
        let mut inj = ClusterFaultInjector::new();
        inj.add_job_links(0, plan, &|local| local + 4);
        inj.seal();
        inj
    }

    #[test]
    fn injector_timeline_is_time_sorted_and_single_pass() {
        let mut inj = hoisted(&sample_plan());
        let mut entries = Vec::new();
        loop {
            let t = inj.next_change_time();
            if t == SimTime::MAX {
                break;
            }
            entries.push(inj.pop_due(t).expect("due change"));
        }
        // Only link-level changes hoist: no machine edges, no loss.
        let changes: Vec<(u64, ClusterChange)> = entries
            .iter()
            .map(|e| (e.at.as_nanos() / 1_000, e.change))
            .collect();
        let scale = |node, scale| {
            ClusterChange::Link(LinkChange::Scale {
                node,
                dir: LinkDir::Up,
                scale,
            })
        };
        assert_eq!(
            changes,
            vec![
                (1_000_000, scale(6, 0.25)),
                (
                    2_000_000,
                    ClusterChange::Link(LinkChange::FlapDown { node: 5 })
                ),
                (
                    2_200_000,
                    ClusterChange::Link(LinkChange::FlapUp { node: 5 })
                ),
                (3_000_000, scale(6, 1.0)),
            ],
            "flap edges sit between the 1s degrade and 3s restore, on machines"
        );
        assert!(entries.iter().all(|e| e.owner == Some(0)));
        let local: Vec<usize> = entries.iter().map(|e| e.local_node).collect();
        assert_eq!(local, vec![2, 1, 1, 2], "the owner sees its own nodes");
        assert!(inj.pop_due(SimTime::MAX).is_none(), "timeline spent");
    }

    #[test]
    fn pop_due_holds_future_changes_back() {
        let mut inj = hoisted(&sample_plan());
        assert_eq!(inj.next_change_time(), SimTime::from_micros(1_000_000));
        assert!(inj.pop_due(SimTime::from_micros(999_999)).is_none());
        assert!(inj.pop_due(SimTime::from_micros(1_000_000)).is_some());
        assert_eq!(inj.next_change_time(), SimTime::from_micros(2_000_000));
    }

    #[test]
    fn loss_stream_is_seed_deterministic_and_seed_sensitive() {
        let plan = FaultPlan {
            loss_rate: 0.5,
            ..FaultPlan::empty()
        };
        let draw = |seed: u64| -> Vec<bool> {
            let mut inj = FaultInjector::new(&plan, seed);
            (0..64).map(|_| inj.should_drop()).collect()
        };
        assert_eq!(draw(1), draw(1), "same seed, same stream");
        assert_ne!(draw(1), draw(2), "different seed, different stream");
        let hits = draw(3).iter().filter(|&&d| d).count();
        assert!(
            (16..=48).contains(&hits),
            "rate roughly honoured: {hits}/64"
        );
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let p = RecoveryPolicy {
            timeout_us: 100,
            max_retries: 4,
        };
        assert_eq!(p.backoff(1), SimTime::from_micros(100));
        assert_eq!(p.backoff(2), SimTime::from_micros(200));
        assert_eq!(p.backoff(3), SimTime::from_micros(400));
        // Deep attempts clamp the shift instead of overflowing.
        assert_eq!(p.backoff(80), SimTime::from_micros(100 << 20));
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        let inj = FaultInjector::new(&plan, 9);
        assert!(!inj.has_loss());
        assert!(hoisted(&plan).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn injector_rejects_invalid_plans() {
        let plan = FaultPlan {
            loss_rate: 2.0,
            ..FaultPlan::empty()
        };
        FaultInjector::new(&plan, 1);
    }

    #[test]
    fn v1_and_v2_documents_both_parse() {
        let v1 = FaultPlan::from_json("{\"schema_version\": 1}").expect("v1 parses");
        assert!(v1.is_empty());
        let v2 = FaultPlan::from_json(
            "{\"schema_version\": 2, \"machine_failures\": [{\"machine\": 1, \"at_us\": 50}]}",
        )
        .expect("v2 parses");
        assert_eq!(
            v2.machine_failures,
            vec![MachineFailure {
                machine: 1,
                at_us: 50,
                restore_us: None,
            }]
        );
        assert!(!v2.is_empty());
    }

    #[test]
    fn job_seed_is_identity_for_job_zero_and_splits_otherwise() {
        assert_eq!(job_seed(42, 0), 42, "job 0 keeps the solo seed");
        let seeds: Vec<u64> = (0..8).map(|j| job_seed(42, j)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b, "split seeds collide");
            }
        }
    }

    #[test]
    fn cluster_injector_merges_machine_edges_into_the_timeline() {
        let mut inj = ClusterFaultInjector::new();
        inj.add_plan(&sample_plan());
        inj.seal();
        let mut entries = Vec::new();
        loop {
            let t = inj.next_change_time();
            if t == SimTime::MAX {
                break;
            }
            entries.push(inj.pop_due(t).expect("due"));
        }
        // 2 link events + flap pair + machine down/up edges.
        assert_eq!(entries.len(), 6);
        assert!(entries.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(entries.iter().all(|e| e.owner.is_none()));
        assert_eq!(
            entries[4].change,
            ClusterChange::MachineDown { machine: 3 },
            "machine failure fires at 4s, after the 3s link restore"
        );
        assert_eq!(entries[4].change.kind(), "machine_down");
        assert_eq!(entries[4].change.capacity_fraction(), 0.0);
        assert_eq!(
            entries[5].change,
            ClusterChange::MachineUp { machine: 3 },
            "restore edge lands last at 9s"
        );
        assert!(inj.pop_due(SimTime::MAX).is_none(), "timeline spent");
    }

    #[test]
    fn cluster_injector_orders_same_instant_changes_by_insertion() {
        // A cluster-scope change and a hoisted job change at the same
        // instant fire in build order: cluster plan first, then jobs.
        let cluster_plan = FaultPlan {
            machine_failures: vec![MachineFailure {
                machine: 0,
                at_us: 100,
                restore_us: None,
            }],
            ..FaultPlan::empty()
        };
        let job_plan = FaultPlan {
            link_events: vec![LinkEvent {
                at_us: 100,
                node: 1,
                dir: LinkDir::Down,
                scale: 0.5,
            }],
            ..FaultPlan::empty()
        };
        let mut inj = ClusterFaultInjector::new();
        inj.add_plan(&cluster_plan);
        inj.add_job_links(2, &job_plan, &|n| n + 4);
        inj.seal();
        let t = SimTime::from_micros(100);
        let first = inj.pop_due(t).expect("first");
        assert_eq!(first.change, ClusterChange::MachineDown { machine: 0 });
        let second = inj.pop_due(t).expect("second");
        assert_eq!(second.owner, Some(2));
        assert_eq!(second.local_node, 1, "owner sees its job-local node");
        assert_eq!(
            second.change,
            ClusterChange::Link(LinkChange::Scale {
                node: 5,
                dir: LinkDir::Down,
                scale: 0.5,
            }),
            "fabric sees the translated machine index"
        );
        assert!(inj.pop_due(SimTime::MAX).is_none());
    }
}
