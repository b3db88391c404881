//! The parameter-server backend of a job (§2.2, §3.2): the shard map and
//! aggregation state, the PS plugin's per-(worker, tensor) progress, the
//! co-tenant bursts and the pull gating the engine graph implies. Lost
//! deliveries and transfers a fault killed on the fabric reclaim their
//! credit and re-enter the scheduler after the plan's backoff.

use bs_comm::{ParamServer, PartitionKey, PsConfig, PsMode, ShardAssign};
use bs_core::CommKind;
use bs_engine::ExternalRole;
use bs_net::{DroppedTransfer, NetEvent};
use bs_scope::ScopeEvent;
use bs_sim::SimTime;
use bs_xray::AggEvent;

use crate::config::{SchedulerKind, WorldConfig};
use crate::job::{JobBackend, JobCore, JobEvent, Layout, Submit};
use crate::token::Token;
use crate::traffic::{is_burst_tag, BurstSource};

/// A PS job's own state.
pub(crate) struct PsJob {
    ps: ParamServer,
    plug: PsPluginState,
    /// Co-tenant traffic source.
    burst: Option<BurstSource>,
    num_servers: usize,
    /// The baseline pulls a tensor only once every slice of it is
    /// aggregated (§2.2); a scheduling policy pulls each partition as
    /// soon as its own push is (Theorem 1 condition 3).
    key_level_pulls: bool,
}

impl PsJob {
    /// A PS backend with `num_servers` shards, and its core layout.
    pub(crate) fn build(
        cfg: &WorldConfig,
        mode: PsMode,
        num_servers: usize,
        bigarray_split: bool,
    ) -> (JobBackend, Layout) {
        let baseline = cfg.scheduler == SchedulerKind::Baseline;
        let bigarray_servers = (baseline && bigarray_split).then_some(num_servers as u64);
        // Scheduling policies and the split baseline spread partition
        // keys round-robin (balanced); the unsplit baseline places whole
        // tensors round-robin — the naive assignment whose imbalance §6.2
        // calls out.
        let assign = if baseline && bigarray_servers.is_none() {
            ShardAssign::PerTensor
        } else {
            ShardAssign::PerPartition
        };
        let job = PsJob {
            ps: ParamServer::new(PsConfig {
                num_workers: cfg.num_workers,
                num_servers,
                assign,
                mode,
            }),
            plug: PsPluginState::new(cfg.num_workers, cfg.model.num_layers()),
            burst: cfg
                .background
                .map(|bg| BurstSource::new(bg, cfg.seed ^ 0xB6_0000)),
            num_servers,
            key_level_pulls: !cfg.scheduler.needs_scheduled_engine(),
        };
        let layout = Layout {
            scheds: cfg.num_workers,
            transfers_per_part: 2 * cfg.num_workers,
            bigarray_servers,
        };
        (JobBackend::Ps(job), layout)
    }

    /// Emits the co-tenant's initial bursts: one per worker NIC in each
    /// direction, looped on delivery.
    pub(crate) fn emit_background(&self, core: &mut JobCore) {
        let Some(burst) = &self.burst else { return };
        let n = core.num_workers;
        for w in 0..n {
            let server = core.nodes.node(n + (w % self.num_servers));
            burst.seed_pair(w, core.nodes.node(w), server, &mut core.submits);
        }
    }

    /// Earliest retransmit or co-tenant burst.
    pub(crate) fn next_event_time(&self, core: &JobCore) -> SimTime {
        let burst = self
            .burst
            .as_ref()
            .map_or(SimTime::MAX, BurstSource::next_time);
        let timer = core.faults.as_ref().and_then(|f| f.next_timer());
        burst.min(timer.unwrap_or(SimTime::MAX))
    }

    /// Re-drives every lost partition whose backoff is due at `t`, then
    /// fires due co-tenant bursts. The driver applies link changes due at
    /// `t` first, so a retransmit sees the post-change fabric.
    pub(crate) fn step(&mut self, core: &mut JobCore, t: SimTime) {
        while let Some(token) = core.faults.as_mut().and_then(|f| f.pop_due(t)) {
            // Same token, same priority: recovery rides the normal grant
            // path and shows up as an extra wire span.
            let tok = Token::unpack(token);
            core.resubmit(tok, t);
            self.drain(core, tok.worker, t);
        }
        if let Some(b) = &mut self.burst {
            b.fire_due(t, &mut core.submits);
        }
    }

    /// Worker `w`'s gradient for tensor `i` is ready: BP produced it this
    /// instant, and its push partitions are enqueued in the same instant.
    pub(crate) fn on_grad_ready(
        &mut self,
        core: &mut JobCore,
        w: usize,
        i: usize,
        iter: u64,
        now: SimTime,
    ) {
        let parts = core.partitions[i].len() as u32;
        self.plug.on_grad_ready(w, i, iter, parts);
        for part in 0..parts {
            core.enqueue(part_token(CommKind::Push, w, i, iter, part), now);
        }
        self.drain(core, w, now);
    }

    /// Hands everything worker `s`'s scheduler releases to the fabric.
    fn drain(&mut self, core: &mut JobCore, s: usize, now: SimTime) {
        let mut items = core.poll(s, now);
        for item in items.drain(..) {
            let tok = Token::unpack(item.token);
            let key = PartitionKey {
                tensor: tok.tensor,
                part: tok.part,
            };
            let shard = core.nodes.node(self.ps.shard_of(key).0);
            let worker = core.nodes.node(tok.worker);
            let (src, dst) = match tok.kind {
                CommKind::Push => (worker, shard),
                CommKind::Pull => (shard, worker),
                CommKind::AllReduce => unreachable!("all-reduce token on PS backend"),
            };
            core.submits.push(Submit {
                src,
                dst,
                bytes: item.bytes,
                tag: item.token,
            });
        }
        core.recycle(items);
    }

    /// Routes one fabric milestone under its job-local tag.
    pub(crate) fn handle_net(
        &mut self,
        core: &mut JobCore,
        ev: NetEvent,
        now: SimTime,
        out: &mut Vec<JobEvent>,
    ) {
        let c = match ev {
            // Co-tenant bursts loop forever: when one delivers, schedule
            // the next after the configured gap. Releases are ignored.
            NetEvent::Delivered(c) if is_burst_tag(c.tag) => {
                let burst = self.burst.as_mut().expect("bg transfer without config");
                burst.requeue(now, c.src, c.dst, c.tag);
                return;
            }
            NetEvent::Released(c) if is_burst_tag(c.tag) => return,
            NetEvent::Released(c) => {
                // Wire accepted the message: release-gated schedulers
                // (P3's stop-and-wait) get their credit back now.
                let tok = Token::unpack(c.tag);
                if core.scheds[tok.worker].credit_on_release() {
                    core.scheds[tok.worker].complete(now, tok.kind.lane(), c.bytes);
                    self.drain(core, tok.worker, now);
                }
                return;
            }
            NetEvent::Delivered(c) => c,
        };
        if core.faults.as_mut().is_some_and(|f| f.lost(c.tag)) {
            self.on_delivery_lost(core, c.tag, c.bytes, now);
            return;
        }
        let tok = Token::unpack(c.tag);
        let (w, i) = (tok.worker, tok.tensor as usize);
        if !core.scheds[w].credit_on_release() {
            core.scheds[w].complete(now, tok.kind.lane(), c.bytes);
            self.drain(core, w, now);
        }
        if tok.kind == CommKind::Pull {
            if self.plug.on_pull_part_done(w, i, tok.iter) {
                core.finish(w..w + 1, tok.iter, ExternalRole::Pull(i), now, out);
            }
            return;
        }
        if self.plug.on_push_part_done(w, i, tok.iter) {
            core.finish(w..w + 1, tok.iter, ExternalRole::Push(i), now, out);
        }
        // Aggregation bookkeeping: which pulls became legal?
        let key = PartitionKey {
            tensor: tok.tensor,
            part: tok.part,
        };
        let grants = self.ps.on_push_complete(tok.iter, key, w);
        if let (Some(x), false) = (core.xray.as_mut(), grants.is_empty()) {
            x.aggs.push(AggEvent {
                iter: tok.iter,
                tensor: key.tensor,
                part: key.part,
                at: now,
            });
        }
        for g in grants {
            let parts = if !self.key_level_pulls {
                g.key.part..g.key.part + 1
            } else if self.plug.on_grant_part(g.worker, i, tok.iter) {
                0..core.partitions[i].len() as u32
            } else {
                continue;
            };
            for part in parts {
                core.enqueue(part_token(CommKind::Pull, g.worker, i, tok.iter, part), now);
            }
            self.drain(core, g.worker, now);
        }
    }

    /// A delivered transfer was picked by the Bernoulli loss stream: the
    /// payload is gone before any completion bookkeeping ran. Return the
    /// credit the lane still holds for it and book the retransmit.
    fn on_delivery_lost(&mut self, core: &mut JobCore, tag: u64, bytes: u64, now: SimTime) {
        let tok = Token::unpack(tag);
        let f = core.faults.as_mut().expect("loss without fault state");
        f.dropped_bytes += bytes;
        // Release-gated schedulers (P3) already took their credit back
        // when the wire released the message; delivery-gated ones still
        // hold it and must reclaim, or the lane leaks and deadlocks.
        if !core.scheds[tok.worker].credit_on_release() {
            f.reclaimed_bytes += bytes;
            core.scheds[tok.worker].reclaim(now, tok.kind.lane(), bytes);
            self.drain(core, tok.worker, now);
        }
        schedule_retransmit(core, tag, bytes, false, now);
    }

    /// Routes a transfer the driver killed on the fabric (a link flap or
    /// a machine failure) into recovery. Co-tenant bursts simply re-arm
    /// (the tenant tries again next cycle); the job's own partitions
    /// reclaim their credit — the wire never released them, so it is
    /// still out under either credit-timing discipline — and enter
    /// retransmit backoff.
    pub(crate) fn route_fabric_drop(
        &mut self,
        core: &mut JobCore,
        d: DroppedTransfer,
        now: SimTime,
    ) {
        if is_burst_tag(d.tag) {
            if let Some(b) = self.burst.as_mut() {
                b.requeue(now, d.src, d.dst, d.tag);
            }
            return;
        }
        let f = core.faults_mut();
        f.dropped_bytes += d.bytes;
        f.reclaimed_bytes += d.bytes;
        let tok = Token::unpack(d.tag);
        core.scheds[tok.worker].reclaim(now, tok.kind.lane(), d.bytes);
        self.drain(core, tok.worker, now);
        schedule_retransmit(core, d.tag, d.bytes, true, now);
    }
}

/// The token of partition `part` of worker `worker`'s tensor `tensor`.
fn part_token(kind: CommKind, worker: usize, tensor: usize, iter: u64, part: u32) -> Token {
    Token {
        iter,
        worker,
        kind,
        tensor: tensor as u32,
        part,
    }
}

/// Books a retransmit for a lost partition after the policy backoff,
/// failing the run when the partition's retry budget is exhausted.
fn schedule_retransmit(core: &mut JobCore, token: u64, bytes: u64, flap: bool, now: SimTime) {
    let tok = Token::unpack(token);
    let Some((attempt, backoff)) = core.retry(token, now, |cap| {
        format!(
            "tensor {} part {} (iter {}, worker {}) exceeded {cap} retransmit attempts",
            tok.tensor, tok.part, tok.iter, tok.worker
        )
    }) else {
        return;
    };
    let f = core.faults.as_mut().expect("retry without fault state");
    if flap {
        f.reroutes += 1;
    }
    f.defer(now + backoff, token);
    if let Some(sc) = core.scope.as_mut() {
        sc.pending.push(ScopeEvent::Retransmit {
            job: sc.job,
            at: now,
            worker: tok.worker,
            tensor: tok.tensor,
            part: tok.part,
            iter: tok.iter,
            bytes,
            attempt,
            rerouted: flap,
        });
    }
}

/// Per-(worker, tensor) PS communication progress.
#[derive(Clone, Debug, Default)]
struct TensorComm {
    iter: u64,
    parts: u32,
    push_done: u32,
    pull_done: u32,
    /// Aggregation grants received (baseline tensor-granularity gating).
    granted: u32,
    active: bool,
}

/// PS-side plugin bookkeeping for all workers.
#[derive(Debug)]
pub struct PsPluginState {
    tensors: Vec<Vec<TensorComm>>,
}

impl PsPluginState {
    /// Creates state for `num_workers` workers × `num_tensors` tensors.
    pub fn new(num_workers: usize, num_tensors: usize) -> Self {
        PsPluginState {
            tensors: vec![vec![TensorComm::default(); num_tensors]; num_workers],
        }
    }

    /// Worker `w`'s gradient for `tensor` (iteration `iter`, `parts`
    /// partitions) is ready to push. Panics if the previous iteration's
    /// communication for this tensor has not drained — that would violate
    /// the per-layer gating invariant.
    pub fn on_grad_ready(&mut self, w: usize, tensor: usize, iter: u64, parts: u32) {
        let t = &mut self.tensors[w][tensor];
        assert!(
            !t.active,
            "worker {w} tensor {tensor}: iteration {iter} gradient ready while iteration {} comm still active",
            t.iter
        );
        *t = TensorComm {
            iter,
            parts,
            push_done: 0,
            pull_done: 0,
            granted: 0,
            active: true,
        };
    }

    /// One aggregation grant arrived for (`w`, `tensor`). Returns true
    /// when every partition of the tensor has been granted — the moment a
    /// *baseline* engine's key-level pull dependency clears (§2.2:
    /// "without partitioning, the pull flow of a large tensor can start
    /// only after the push flow of the whole tensor is done").
    /// ByteScheduler pulls per partition instead and never calls this.
    pub fn on_grant_part(&mut self, w: usize, tensor: usize, iter: u64) -> bool {
        let t = &mut self.tensors[w][tensor];
        debug_assert!(t.active && t.iter == iter, "grant out of phase");
        t.granted += 1;
        debug_assert!(t.granted <= t.parts);
        t.granted == t.parts
    }

    /// One push partition of (`w`, `tensor`) completed. Returns true when
    /// the whole tensor has been pushed.
    pub fn on_push_part_done(&mut self, w: usize, tensor: usize, iter: u64) -> bool {
        let t = &mut self.tensors[w][tensor];
        debug_assert!(t.active && t.iter == iter, "push completion out of phase");
        t.push_done += 1;
        debug_assert!(t.push_done <= t.parts);
        t.push_done == t.parts
    }

    /// One pull partition of (`w`, `tensor`) completed. Returns true when
    /// the whole tensor has been pulled — the layer's dependency releases.
    pub fn on_pull_part_done(&mut self, w: usize, tensor: usize, iter: u64) -> bool {
        let t = &mut self.tensors[w][tensor];
        debug_assert!(t.active && t.iter == iter, "pull completion out of phase");
        t.pull_done += 1;
        debug_assert!(t.pull_done <= t.parts);
        if t.pull_done == t.parts {
            t.active = false;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_push_and_pull_complete_per_tensor() {
        let mut ps = PsPluginState::new(2, 3);
        ps.on_grad_ready(0, 1, 0, 3);
        assert!(!ps.on_push_part_done(0, 1, 0));
        assert!(!ps.on_push_part_done(0, 1, 0));
        assert!(ps.on_push_part_done(0, 1, 0));
        assert!(!ps.on_pull_part_done(0, 1, 0));
        assert!(!ps.on_pull_part_done(0, 1, 0));
        assert!(ps.on_pull_part_done(0, 1, 0));
        // The tensor can go again next iteration.
        ps.on_grad_ready(0, 1, 1, 3);
    }

    #[test]
    #[should_panic(expected = "still active")]
    fn ps_overlapping_iterations_rejected() {
        let mut ps = PsPluginState::new(1, 1);
        ps.on_grad_ready(0, 0, 0, 2);
        ps.on_grad_ready(0, 0, 1, 2);
    }
}
