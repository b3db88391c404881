//! Sharded Parameter Server bookkeeping.
//!
//! Data parallelism with a PS (§2.1): every worker `push`es each gradient
//! partition to the shard owning it; the shard sums the copies (`update`);
//! workers then `pull` the fresh parameters. This module tracks aggregation
//! state per `(iteration, partition)` and answers the one question the
//! runtime needs: *which pulls became legal after this push completed?*
//!
//! Condition 3 of Theorem 1 — "if the push flow in a layer is only
//! partially done, the done part can be pulled" — holds here by
//! construction because aggregation state is tracked per *partition*, not
//! per tensor.
//!
//! The server keeps no recorders: a push completion that grants pulls is
//! the partition's aggregation instant, and the runtime records it there
//! for xray.

use bs_net::NodeId;
use bs_sim::FastMap;
use serde::Serialize;

/// Identifies one partition of one tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct PartitionKey {
    /// Tensor (layer) index within the model.
    pub tensor: u32,
    /// Partition index within the tensor.
    pub part: u32,
}

/// How partitions are placed onto PS shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ShardAssign {
    /// All partitions of a tensor land on the tensor's shard
    /// (round-robin by tensor index) — MXNet's default key placement.
    /// With VGG16 this puts the 411 MB `fc6` on one shard: the load
    /// imbalance the paper blames for baseline slowness (§6.2).
    PerTensor,
    /// Each partition is an independent key, round-robin by a global
    /// partition counter — the placement that emerges when ByteScheduler
    /// repartitions tensors into many keys, balancing shard load.
    PerPartition,
}

/// Synchronisation mode (§2.1; the paper reports synchronous numbers and
/// notes asynchronous speed-ups are similar).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum PsMode {
    /// A partition becomes pullable only after *all* workers pushed it.
    Synchronous,
    /// A worker may pull a partition right after its own push (stale
    /// gradients permitted).
    Asynchronous,
}

/// PS deployment configuration.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct PsConfig {
    /// Number of workers pushing gradients.
    pub num_workers: usize,
    /// Number of PS shards. The paper co-deploys one server per worker
    /// machine, so harness configs use `num_servers == num_workers`.
    pub num_servers: usize,
    /// Placement policy.
    pub assign: ShardAssign,
    /// Synchronisation mode.
    pub mode: PsMode,
}

/// A pull that became legal: `worker` may now fetch `key` from `shard`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct PullGrant {
    /// The worker allowed to pull.
    pub worker: usize,
    /// The partition that is ready.
    pub key: PartitionKey,
}

/// Parameter-server control plane: shard placement + aggregation counting.
///
/// Node-id convention (shared with the runtime): workers occupy network
/// nodes `0..num_workers`, shards occupy `num_workers..num_workers +
/// num_servers`.
#[derive(Clone, Debug)]
pub struct ParamServer {
    cfg: PsConfig,
    /// Pushes received per (iteration, key).
    arrived: FastMap<(u64, PartitionKey), u32>,
    /// Shard of each key under `PerPartition`, assigned on first sight.
    partition_shard: FastMap<PartitionKey, usize>,
    /// Next shard for the global per-partition round-robin.
    next_shard: usize,
}

impl ParamServer {
    /// Creates the control plane.
    pub fn new(cfg: PsConfig) -> Self {
        assert!(cfg.num_workers > 0, "need at least one worker");
        assert!(cfg.num_servers > 0, "need at least one server");
        ParamServer {
            cfg,
            arrived: FastMap::default(),
            partition_shard: FastMap::default(),
            next_shard: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PsConfig {
        &self.cfg
    }

    /// Network node hosting `key`'s shard.
    pub fn shard_of(&mut self, key: PartitionKey) -> NodeId {
        let shard = match self.cfg.assign {
            ShardAssign::PerTensor => key.tensor as usize % self.cfg.num_servers,
            ShardAssign::PerPartition => {
                let next = &mut self.next_shard;
                let n = self.cfg.num_servers;
                *self.partition_shard.entry(key).or_insert_with(|| {
                    let s = *next;
                    *next = (*next + 1) % n;
                    s
                })
            }
        };
        NodeId(self.cfg.num_workers + shard)
    }

    /// Records that `worker`'s push of `key` for `iter` finished arriving
    /// at its shard. Returns the pulls that this completion makes legal:
    /// in synchronous mode, all workers' pulls once the last copy
    /// arrives; in asynchronous mode, just this worker's own pull. A
    /// non-empty answer is the key's aggregation-complete instant, which
    /// the runtime records for xray.
    pub fn on_push_complete(
        &mut self,
        iter: u64,
        key: PartitionKey,
        worker: usize,
    ) -> Vec<PullGrant> {
        assert!(
            worker < self.cfg.num_workers,
            "worker {worker} out of range"
        );
        match self.cfg.mode {
            PsMode::Asynchronous => vec![PullGrant { worker, key }],
            PsMode::Synchronous => {
                let count = self.arrived.entry((iter, key)).or_insert(0);
                *count += 1;
                debug_assert!(
                    *count <= self.cfg.num_workers as u32,
                    "more pushes than workers for {key:?}"
                );
                if *count == self.cfg.num_workers as u32 {
                    self.arrived.remove(&(iter, key));
                    (0..self.cfg.num_workers)
                        .map(|w| PullGrant { worker: w, key })
                        .collect()
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Number of partitions still mid-aggregation (sync mode only).
    pub fn pending_aggregations(&self) -> usize {
        self.arrived.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workers: usize, servers: usize, assign: ShardAssign, mode: PsMode) -> PsConfig {
        PsConfig {
            num_workers: workers,
            num_servers: servers,
            assign,
            mode,
        }
    }

    fn key(tensor: u32, part: u32) -> PartitionKey {
        PartitionKey { tensor, part }
    }

    #[test]
    fn per_tensor_assignment_is_round_robin_by_tensor() {
        let mut ps = ParamServer::new(cfg(2, 3, ShardAssign::PerTensor, PsMode::Synchronous));
        assert_eq!(ps.shard_of(key(0, 0)), NodeId(2));
        assert_eq!(ps.shard_of(key(0, 5)), NodeId(2)); // same tensor, same shard
        assert_eq!(ps.shard_of(key(1, 0)), NodeId(3));
        assert_eq!(ps.shard_of(key(2, 0)), NodeId(4));
        assert_eq!(ps.shard_of(key(3, 0)), NodeId(2)); // wraps
    }

    #[test]
    fn per_partition_assignment_spreads_one_tensor() {
        let mut ps = ParamServer::new(cfg(2, 3, ShardAssign::PerPartition, PsMode::Synchronous));
        let shards: Vec<_> = (0..6).map(|p| ps.shard_of(key(0, p)).0).collect();
        assert_eq!(shards, vec![2, 3, 4, 2, 3, 4]);
        // Assignment is sticky.
        assert_eq!(ps.shard_of(key(0, 0)), NodeId(2));
    }

    #[test]
    fn sync_mode_grants_pulls_only_after_all_pushes() {
        let mut ps = ParamServer::new(cfg(3, 1, ShardAssign::PerTensor, PsMode::Synchronous));
        assert!(ps.on_push_complete(0, key(0, 0), 0).is_empty());
        assert!(ps.on_push_complete(0, key(0, 0), 1).is_empty());
        let grants = ps.on_push_complete(0, key(0, 0), 2);
        assert_eq!(grants.len(), 3);
        assert!(grants.iter().all(|g| g.key == key(0, 0)));
        let workers: Vec<_> = grants.iter().map(|g| g.worker).collect();
        assert_eq!(workers, vec![0, 1, 2]);
        assert_eq!(ps.pending_aggregations(), 0);
    }

    #[test]
    fn partitions_aggregate_independently() {
        // Theorem 1 condition 3: a done partition is pullable even while
        // the rest of the tensor is still in flight.
        let mut ps = ParamServer::new(cfg(2, 1, ShardAssign::PerTensor, PsMode::Synchronous));
        ps.on_push_complete(0, key(0, 0), 0);
        ps.on_push_complete(0, key(0, 1), 0);
        let g = ps.on_push_complete(0, key(0, 0), 1);
        assert_eq!(g.len(), 2, "partition 0 ready while partition 1 pending");
        assert_eq!(ps.pending_aggregations(), 1);
    }

    #[test]
    fn iterations_do_not_interfere() {
        let mut ps = ParamServer::new(cfg(2, 1, ShardAssign::PerTensor, PsMode::Synchronous));
        ps.on_push_complete(0, key(0, 0), 0);
        // Same key, next iteration: separate aggregation.
        assert!(ps.on_push_complete(1, key(0, 0), 0).is_empty());
        assert_eq!(ps.pending_aggregations(), 2);
    }

    #[test]
    fn async_mode_grants_own_pull_immediately() {
        let mut ps = ParamServer::new(cfg(3, 1, ShardAssign::PerTensor, PsMode::Asynchronous));
        let g = ps.on_push_complete(0, key(2, 1), 1);
        assert_eq!(
            g,
            vec![PullGrant {
                worker: 1,
                key: key(2, 1)
            }]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bogus_worker_rejected() {
        let mut ps = ParamServer::new(cfg(2, 1, ShardAssign::PerTensor, PsMode::Synchronous));
        ps.on_push_complete(0, key(0, 0), 5);
    }
}
