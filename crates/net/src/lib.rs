//! Network substrate: the paper's analytical network model made executable.
//!
//! §4.1 of the paper models the network exactly as this crate implements it:
//!
//! * each message takes `size / bandwidth` to transmit, **plus** a constant
//!   per-message *partition overhead* θ (RPC serialisation, ACKs,
//!   synchronisation — ≈ 300 µs on their TCP testbed, much lower on RDMA);
//! * the communication stack underneath the framework is a **FIFO queue**:
//!   once a tensor is handed to the stack it cannot be preempted, which is
//!   the entire reason the scheduler partitions tensors and meters them out
//!   with credits.
//!
//! Topology is the paper's testbed: a full-bisection fabric where each node
//! (worker or parameter server) is limited by its own NIC, full duplex.
//! A point-to-point transfer therefore occupies two resources: the sender's
//! **uplink** and the receiver's **downlink**. Transfers submitted to a
//! sender are serviced strictly FIFO (that is what the scheduler schedules
//! *around*); a transfer at the head of its sender queue additionally waits
//! for the receiver's downlink — head-of-line blocking, which reproduces
//! incast serialisation at a hot parameter-server shard.

pub mod contention;
pub mod fabric;
pub mod fluid;
pub mod network;
pub mod port;
pub mod scope;
pub mod tap;
pub mod transport;

pub use contention::{ContentionLog, ContentionRecorder, OccupancySpan, CONTENTION_JOB_LIMIT};
pub use fabric::{Fabric, FabricModel};
pub use fluid::FluidNetwork;
pub use network::{CompletedTransfer, DroppedTransfer, NetEvent, Network, NodeId, TransferId};
pub use port::NetPort;
pub use scope::ScopeWindow;
pub use tap::{Tap, WireXrayRecord};
pub use transport::{NetConfig, Transport};
