//! The paper's five evaluated system setups (§6.1).

use bs_engine::EngineConfig;
use bs_models::DnnModel;
use bs_net::{NetConfig, Transport};
use bs_runtime::{Arch, SchedulerKind, WorldConfig};
use bs_tune::SearchSpace;
use serde::Serialize;

/// GPUs per machine on the paper's testbed.
pub const GPUS_PER_MACHINE: u64 = 8;

/// One of the paper's framework × architecture × transport combinations.
/// ("Due to space limit, we only show results in 5 setups" — these five.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Setup {
    /// MXNet, parameter server, TCP — the only setup P3 supports.
    MxnetPsTcp,
    /// MXNet, parameter server, RDMA.
    MxnetPsRdma,
    /// TensorFlow, parameter server, TCP (global barrier).
    TfPsTcp,
    /// MXNet, Horovod/NCCL all-reduce, RDMA.
    MxnetNcclRdma,
    /// PyTorch, Horovod/NCCL all-reduce, TCP (global barrier).
    PytorchNcclTcp,
}

impl Setup {
    /// All five, in the paper's panel order (a)–(e).
    pub fn all() -> [Setup; 5] {
        [
            Setup::MxnetPsTcp,
            Setup::MxnetPsRdma,
            Setup::TfPsTcp,
            Setup::MxnetNcclRdma,
            Setup::PytorchNcclTcp,
        ]
    }

    /// Display label matching the paper's sub-captions.
    pub fn label(self) -> &'static str {
        match self {
            Setup::MxnetPsTcp => "MXNet, PS, TCP",
            Setup::MxnetPsRdma => "MXNet, PS, RDMA",
            Setup::TfPsTcp => "TensorFlow, PS, TCP",
            Setup::MxnetNcclRdma => "MXNet, NCCL, RDMA",
            Setup::PytorchNcclTcp => "PyTorch, NCCL, TCP",
        }
    }

    /// Whether this is a parameter-server setup (as opposed to all-reduce).
    pub fn is_ps(self) -> bool {
        matches!(
            self,
            Setup::MxnetPsTcp | Setup::MxnetPsRdma | Setup::TfPsTcp
        )
    }

    /// The transport in use. PS setups ride the ps-lite RPC stack
    /// (CPU-capped TCP); the NCCL TCP setup uses NCCL's multi-socket
    /// transport with a higher ceiling.
    pub fn transport(self) -> Transport {
        match self {
            Setup::MxnetPsTcp | Setup::TfPsTcp => Transport::tcp(),
            Setup::PytorchNcclTcp => Transport::tcp_nccl(),
            Setup::MxnetPsRdma | Setup::MxnetNcclRdma => Transport::rdma(),
        }
    }

    /// The simulated engine flavour.
    pub fn engine(self) -> EngineConfig {
        match self {
            Setup::MxnetPsTcp | Setup::MxnetPsRdma => EngineConfig::mxnet_ps(),
            Setup::TfPsTcp => EngineConfig::tensorflow_ps(),
            Setup::MxnetNcclRdma => EngineConfig::mxnet_allreduce(),
            Setup::PytorchNcclTcp => EngineConfig::pytorch_allreduce(),
        }
    }

    /// Checks that `gpus` fits this setup: a PS run needs whole 8-GPU
    /// machines, a ring at least two ranks.
    pub fn check_gpus(self, gpus: u64) -> Result<(), String> {
        if self.is_ps() && (gpus == 0 || !gpus.is_multiple_of(GPUS_PER_MACHINE)) {
            Err(format!(
                "{} runs need whole machines: {gpus} GPUs is not a positive multiple of \
                 {GPUS_PER_MACHINE}",
                self.label()
            ))
        } else if !self.is_ps() && gpus < 2 {
            Err(format!(
                "{} runs need at least 2 GPUs for a ring, got {gpus}",
                self.label()
            ))
        } else {
            Ok(())
        }
    }

    /// Workers needed for a GPU count: PS counts 8-GPU machines,
    /// all-reduce counts single-GPU ranks (§6.1). Panics on a count
    /// [`Self::check_gpus`] rejects.
    pub fn workers_for_gpus(self, gpus: u64) -> usize {
        if let Err(e) = self.check_gpus(gpus) {
            panic!("{e}");
        }
        if self.is_ps() {
            (gpus / GPUS_PER_MACHINE) as usize
        } else {
            gpus as usize
        }
    }

    /// The gradient-synchronisation architecture for `gpus` total GPUs.
    ///
    /// Baseline placement is transport-specific, mirroring the paper's
    /// software stacks: the TCP path is upstream ps-lite/MXNet, whose
    /// big-array bound slices large tensors across shards (balanced);
    /// the RDMA path is the authors' in-house ps-lite port (§5 "we added
    /// RDMA support to ps-lite"), modelled with the naive whole-tensor
    /// round-robin placement whose load imbalance §6.2 reports.
    pub fn arch(self, gpus: u64) -> Arch {
        if self.is_ps() {
            let workers = self.workers_for_gpus(gpus);
            Arch::Ps {
                mode: bs_comm::PsMode::Synchronous,
                num_servers: workers,
                baseline_bigarray_split: matches!(self, Setup::MxnetPsTcp | Setup::TfPsTcp),
            }
        } else {
            Arch::allreduce()
        }
    }

    /// The (δ, c) search space appropriate for this setup's architecture.
    pub fn search_space(self) -> SearchSpace {
        if self.is_ps() {
            SearchSpace::ps()
        } else {
            SearchSpace::allreduce()
        }
    }

    /// Builds a full run configuration.
    pub fn config(
        self,
        model: DnnModel,
        gpus: u64,
        bandwidth_gbps: f64,
        scheduler: SchedulerKind,
    ) -> WorldConfig {
        WorldConfig::new(
            model,
            self.workers_for_gpus(gpus),
            self.arch(gpus),
            NetConfig::gbps(bandwidth_gbps, self.transport()),
            self.engine(),
            scheduler,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_setups_count_machines() {
        assert_eq!(Setup::MxnetPsTcp.workers_for_gpus(64), 8);
        assert_eq!(Setup::MxnetNcclRdma.workers_for_gpus(64), 64);
    }

    #[test]
    #[should_panic(expected = "whole machines")]
    fn partial_machines_rejected() {
        Setup::TfPsTcp.workers_for_gpus(12);
    }

    #[test]
    fn configs_carry_the_right_transport_and_engine() {
        let cfg = Setup::TfPsTcp.config(
            bs_models::zoo::resnet50(),
            16,
            100.0,
            SchedulerKind::Baseline,
        );
        assert_eq!(cfg.net.transport.name, "TCP");
        assert_eq!(cfg.engine, EngineConfig::tensorflow_ps());
        assert_eq!(cfg.total_gpus(), 16);
        let cfg = Setup::MxnetNcclRdma.config(
            bs_models::zoo::resnet50(),
            16,
            100.0,
            SchedulerKind::Baseline,
        );
        assert_eq!(cfg.net.transport.name, "RDMA");
        assert_eq!(cfg.num_workers, 16);
    }

    #[test]
    fn search_spaces_differ_by_architecture() {
        // Table 1: NCCL optima are an order of magnitude above PS ones;
        // the spaces must allow that.
        let ps = Setup::MxnetPsRdma.search_space();
        let ar = Setup::MxnetNcclRdma.search_space();
        assert!(ar.partition.1 > ps.partition.1);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Setup::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}
