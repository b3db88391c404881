//! Gradient-synchronisation architectures: sharded Parameter Server and
//! ring all-reduce.
//!
//! The paper treats both architectures through the same DAG lens (§2.1):
//! a PS replaces each gradient exchange by a `push` (worker → server,
//! aggregate) followed by a `pull` (server → worker), while all-reduce is a
//! single collective op per tensor. This crate provides both as state
//! machines the runtime drives:
//!
//! * [`ps::ParamServer`] — key bookkeeping: which shard owns which
//!   partition (round-robin per tensor, the naïve baseline placement the
//!   paper calls out, or per partition, which is what ByteScheduler's
//!   repartitioning produces), and when a partition's aggregation is
//!   complete so pulls may begin. Synchronous and asynchronous modes.
//!   The actual bytes move over [`bs_net::Network`]; the PS only decides
//!   *what* may move *when*.
//! * [`allreduce::RingAllReduce`] — a serialised collective stream (NCCL
//!   semantics: one op at a time per communicator, in submission order)
//!   with the standard ring cost `2(n−1)/n · size / bandwidth` plus a
//!   per-operation synchronisation overhead that grows with the worker
//!   count — the reason all-reduce wants much larger partitions than PS
//!   (§6.3, Table 1).

pub mod allreduce;
pub mod ps;

pub use allreduce::{AllReduceConfig, CompletedOp, OpId, RingAllReduce};
pub use ps::{ParamServer, PartitionKey, PsConfig, PsMode, PullGrant, ShardAssign};
