//! Per-iteration dependency templates: Figures 1, 3, 6, 7 and 8 as data.
//!
//! An [`IterDag`] describes one training iteration's operations and edges.
//! Edges carry an *iteration delta*: `(src, 1)` means "depends on `src`
//! from the previous iteration" (e.g. `fwd_i^{k}` depends on
//! `pull_i^{k-1}`). Instantiating the template per iteration and chaining
//! the deltas yields the unbounded training DAG.

use serde::Serialize;

use crate::config::{CommPattern, EngineConfig, Gating};

/// Which half of the compute pass a node belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum Pass {
    /// Forward propagation.
    Forward,
    /// Backward propagation.
    Backward,
}

/// Roles of nodes that complete through an *external* signal — real
/// communication, or a Dependency Proxy waiting on the Core.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum ExternalRole {
    /// Baseline in-graph push of layer `i`'s gradients.
    Push(usize),
    /// Baseline in-graph pull of layer `i`'s parameters.
    Pull(usize),
    /// Baseline in-graph all-reduce of layer `i`'s gradients.
    AllReduce(usize),
    /// Dependency Proxy ahead of layer `i`'s communication: the engine
    /// starting it *is* `CommTask.notify_ready()` (Figure 6).
    ProxyReady(usize),
    /// Dependency Proxy ahead of layer `i`'s forward op: blocks until the
    /// Core delivers `CommTask.notify_finish()` — the layer-wise
    /// out-of-engine dependency (Figure 8). Auto-completes in iteration 0,
    /// where parameters are already in place.
    ProxyFinish(usize),
}

impl ExternalRole {
    /// Number of role kinds: [`Self::slot`] ranges over
    /// `0..KINDS * num_layers`.
    pub(crate) const KINDS: usize = 5;

    /// Dense index of the role in a template of `num_layers` layers
    /// (kind-major, then layer), or `None` for a layer out of range.
    pub(crate) fn slot(self, num_layers: usize) -> Option<usize> {
        let (kind, layer) = match self {
            ExternalRole::Push(i) => (0, i),
            ExternalRole::Pull(i) => (1, i),
            ExternalRole::AllReduce(i) => (2, i),
            ExternalRole::ProxyReady(i) => (3, i),
            ExternalRole::ProxyFinish(i) => (4, i),
        };
        (layer < num_layers).then_some(kind * num_layers + layer)
    }
}

/// Roles of nodes that complete instantly once their dependencies do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum InstantRole {
    /// The asynchronous no-op that replaces in-graph communication when
    /// ByteScheduler crosses a global barrier (§3.4): returns immediately,
    /// letting the barrier pass.
    AsyncLaunch(usize),
    /// The engine's global barrier between iterations (Figure 3).
    Barrier,
}

/// What a template node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum NodeKind {
    /// GPU compute: `fwd_i` or `bwd_i`, serial on the worker's GPU.
    Compute {
        /// Layer index.
        layer: usize,
        /// Forward or backward.
        pass: Pass,
    },
    /// Completes via [`crate::engine::WorkerEngine::complete_external`].
    External(ExternalRole),
    /// Completes the moment its dependencies are satisfied.
    Instant(InstantRole),
}

/// One node of the per-iteration template.
#[derive(Clone, Debug, Serialize)]
pub struct TemplateNode {
    /// The node's kind.
    pub kind: NodeKind,
    /// Dependencies: `(template node index, iteration delta ∈ {0, 1})`.
    /// Delta-1 edges are auto-satisfied in iteration 0.
    pub deps: Vec<(usize, u32)>,
}

/// The per-iteration dependency template for one engine configuration.
#[derive(Clone, Debug, Serialize)]
pub struct IterDag {
    /// Nodes; index order is also the GPU tie-break order.
    pub nodes: Vec<TemplateNode>,
    /// Number of model layers.
    pub num_layers: usize,
    /// The configuration this template encodes.
    pub config: EngineConfig,
}

impl IterDag {
    /// Builds the template for `config` over `num_layers` layers. This is
    /// where the paper's graph surgery happens: baselines get in-graph
    /// comm nodes (and a barrier, if the engine has one); the scheduled
    /// variant gets proxies and out-of-engine communication.
    pub fn build(num_layers: usize, config: EngineConfig) -> IterDag {
        assert!(num_layers > 0, "need at least one layer");
        let n = num_layers;
        let mut nodes: Vec<TemplateNode> = Vec::new();
        fn push(nodes: &mut Vec<TemplateNode>, kind: NodeKind, deps: Vec<(usize, u32)>) -> usize {
            nodes.push(TemplateNode { kind, deps });
            nodes.len() - 1
        }

        // Compute chain. fwd[0] picks up cross-iteration deps below.
        let mut fwd = Vec::with_capacity(n);
        for i in 0..n {
            let deps = if i == 0 {
                vec![]
            } else {
                vec![(fwd[i - 1], 0)]
            };
            fwd.push(push(
                &mut nodes,
                NodeKind::Compute {
                    layer: i,
                    pass: Pass::Forward,
                },
                deps,
            ));
        }
        let mut bwd = vec![usize::MAX; n];
        for i in (0..n).rev() {
            let deps = if i == n - 1 {
                vec![(fwd[n - 1], 0)]
            } else {
                vec![(bwd[i + 1], 0)]
            };
            bwd[i] = push(
                &mut nodes,
                NodeKind::Compute {
                    layer: i,
                    pass: Pass::Backward,
                },
                deps,
            );
        }

        // The serial GPU stream: the next iteration's first forward op
        // follows this iteration's last backward op.
        nodes[fwd[0]].deps.push((bwd[0], 1));

        match config.gating {
            Gating::PerLayer => match config.pattern {
                CommPattern::PushPull => {
                    for i in 0..n {
                        let p = push(
                            &mut nodes,
                            NodeKind::External(ExternalRole::Push(i)),
                            vec![(bwd[i], 0)],
                        );
                        let q = push(
                            &mut nodes,
                            NodeKind::External(ExternalRole::Pull(i)),
                            vec![(p, 0)],
                        );
                        nodes[fwd[i]].deps.push((q, 1));
                    }
                }
                CommPattern::Collective => {
                    for i in 0..n {
                        let a = push(
                            &mut nodes,
                            NodeKind::External(ExternalRole::AllReduce(i)),
                            vec![(bwd[i], 0)],
                        );
                        nodes[fwd[i]].deps.push((a, 1));
                    }
                }
            },
            Gating::GlobalBarrier => {
                let mut comm_done = Vec::with_capacity(n);
                match config.pattern {
                    CommPattern::PushPull => {
                        for (i, &b) in bwd.iter().enumerate() {
                            let p = push(
                                &mut nodes,
                                NodeKind::External(ExternalRole::Push(i)),
                                vec![(b, 0)],
                            );
                            let q = push(
                                &mut nodes,
                                NodeKind::External(ExternalRole::Pull(i)),
                                vec![(p, 0)],
                            );
                            comm_done.push(q);
                        }
                    }
                    CommPattern::Collective => {
                        for (i, &b) in bwd.iter().enumerate() {
                            let a = push(
                                &mut nodes,
                                NodeKind::External(ExternalRole::AllReduce(i)),
                                vec![(b, 0)],
                            );
                            comm_done.push(a);
                        }
                    }
                }
                let barrier = push(
                    &mut nodes,
                    NodeKind::Instant(InstantRole::Barrier),
                    comm_done.iter().map(|&c| (c, 0)).collect(),
                );
                // The barrier gates the whole next iteration; gating the
                // head of the forward chain suffices.
                nodes[fwd[0]].deps.push((barrier, 1));
            }
            Gating::Scheduled { crossed_barrier } => {
                for i in 0..n {
                    // Proxy ahead of the communication: fires notify_ready.
                    push(
                        &mut nodes,
                        NodeKind::External(ExternalRole::ProxyReady(i)),
                        vec![(bwd[i], 0)],
                    );
                    // Proxy ahead of fwd_i: out-of-engine finish dependency.
                    let pf = push(
                        &mut nodes,
                        NodeKind::External(ExternalRole::ProxyFinish(i)),
                        vec![],
                    );
                    nodes[fwd[i]].deps.push((pf, 0));
                }
                if crossed_barrier {
                    // The barrier remains but now waits only on instant
                    // async launches — it passes as soon as BP retires.
                    let launches: Vec<usize> = (0..n)
                        .map(|i| {
                            push(
                                &mut nodes,
                                NodeKind::Instant(InstantRole::AsyncLaunch(i)),
                                vec![(bwd[i], 0)],
                            )
                        })
                        .collect();
                    let barrier = push(
                        &mut nodes,
                        NodeKind::Instant(InstantRole::Barrier),
                        launches.iter().map(|&l| (l, 0)).collect(),
                    );
                    nodes[fwd[0]].deps.push((barrier, 1));
                }
            }
        }

        let dag = IterDag {
            nodes,
            num_layers: n,
            config,
        };
        dag.validate();
        dag
    }

    /// Template index of `fwd_i`.
    pub fn fwd(&self, layer: usize) -> usize {
        layer
    }

    /// Template index of `bwd_i`.
    pub fn bwd(&self, layer: usize) -> usize {
        // Backward nodes were pushed in reverse layer order right after
        // the n forward nodes: bwd[n-1] is at n, bwd[0] at 2n-1.
        self.num_layers + (self.num_layers - 1 - layer)
    }

    /// Number of nodes per iteration.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the template is empty (never: `build` requires ≥ 1 layer).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Internal consistency checks: every delta is 0 or 1, every dep index
    /// in range, compute nodes form the expected chain.
    fn validate(&self) {
        for (idx, node) in self.nodes.iter().enumerate() {
            for &(dep, delta) in &node.deps {
                assert!(dep < self.nodes.len(), "node {idx}: dep {dep} out of range");
                assert!(delta <= 1, "node {idx}: delta {delta} unsupported");
                assert!(
                    dep != idx || delta != 0,
                    "node {idx}: self-dependency within an iteration"
                );
            }
        }
        for i in 0..self.num_layers {
            assert!(matches!(
                self.nodes[self.fwd(i)].kind,
                NodeKind::Compute {
                    layer,
                    pass: Pass::Forward
                } if layer == i
            ));
            assert!(matches!(
                self.nodes[self.bwd(i)].kind,
                NodeKind::Compute {
                    layer,
                    pass: Pass::Backward
                } if layer == i
            ));
        }
    }

    /// All external roles present in the template (for runtime wiring
    /// checks and tests).
    pub fn external_roles(&self) -> Vec<ExternalRole> {
        self.nodes
            .iter()
            .filter_map(|n| match n.kind {
                NodeKind::External(r) => Some(r),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineKind;

    fn cfg(pattern: CommPattern, gating: Gating) -> EngineConfig {
        EngineConfig {
            kind: EngineKind::Declarative,
            pattern,
            gating,
        }
    }

    #[test]
    fn mxnet_ps_template_matches_figure_1() {
        let d = IterDag::build(3, EngineConfig::mxnet_ps());
        // fwd chain, bwd chain, 3 push, 3 pull.
        assert_eq!(d.len(), 3 + 3 + 3 + 3);
        let roles = d.external_roles();
        assert!(roles.contains(&ExternalRole::Push(0)));
        assert!(roles.contains(&ExternalRole::Pull(2)));
        // fwd_1 depends on fwd_0 (same iter) and pull_1 (previous iter).
        let f1 = &d.nodes[d.fwd(1)];
        assert!(f1.deps.iter().any(|&(dep, delta)| {
            delta == 1 && matches!(d.nodes[dep].kind, NodeKind::External(ExternalRole::Pull(1)))
        }));
    }

    #[test]
    fn barrier_template_matches_figure_3() {
        let d = IterDag::build(3, EngineConfig::tensorflow_ps());
        // The barrier depends on all pulls; fwd_0 depends on it with delta 1.
        let barrier = d
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Instant(InstantRole::Barrier)))
            .expect("barrier present");
        assert_eq!(d.nodes[barrier].deps.len(), 3);
        let f0 = &d.nodes[d.fwd(0)];
        assert!(f0.deps.contains(&(barrier, 1)));
        // And fwd_1 has no per-layer comm dependency.
        let f1 = &d.nodes[d.fwd(1)];
        assert!(f1
            .deps
            .iter()
            .all(|&(dep, _)| matches!(d.nodes[dep].kind, NodeKind::Compute { .. })));
    }

    #[test]
    fn scheduled_template_matches_figures_6_and_8() {
        let d = IterDag::build(3, EngineConfig::mxnet_ps().scheduled());
        let roles = d.external_roles();
        for i in 0..3 {
            assert!(roles.contains(&ExternalRole::ProxyReady(i)));
            assert!(roles.contains(&ExternalRole::ProxyFinish(i)));
        }
        // No in-graph comm nodes remain.
        assert!(!roles.iter().any(|r| matches!(
            r,
            ExternalRole::Push(_) | ExternalRole::Pull(_) | ExternalRole::AllReduce(_)
        )));
        // Every fwd_i is gated by its ProxyFinish within the same iteration.
        for i in 0..3 {
            let f = &d.nodes[d.fwd(i)];
            assert!(f.deps.iter().any(|&(dep, delta)| {
                delta == 0
                    && matches!(
                        d.nodes[dep].kind,
                        NodeKind::External(ExternalRole::ProxyFinish(l)) if l == i
                    )
            }));
        }
        // MXNet had no barrier: none appears.
        assert!(!d
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::Instant(InstantRole::Barrier))));
    }

    #[test]
    fn crossed_barrier_keeps_vestigial_barrier_on_async_launches() {
        let d = IterDag::build(2, EngineConfig::tensorflow_ps().scheduled());
        let barrier = d
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Instant(InstantRole::Barrier)))
            .expect("crossed barrier still present");
        // Its deps are instant async launches, not external comm.
        for &(dep, _) in &d.nodes[barrier].deps {
            assert!(matches!(
                d.nodes[dep].kind,
                NodeKind::Instant(InstantRole::AsyncLaunch(_))
            ));
        }
    }

    #[test]
    fn collective_templates_use_allreduce_nodes() {
        let d = IterDag::build(4, cfg(CommPattern::Collective, Gating::PerLayer));
        let roles = d.external_roles();
        assert_eq!(roles.len(), 4);
        assert!(roles
            .iter()
            .all(|r| matches!(r, ExternalRole::AllReduce(_))));
    }

    #[test]
    fn scheduled_collective_template_has_proxies_only() {
        // The all-reduce rewrite: same proxy structure as PS, no
        // in-graph collectives left.
        let d = IterDag::build(3, EngineConfig::mxnet_allreduce().scheduled());
        let roles = d.external_roles();
        assert_eq!(roles.len(), 6, "3 ready + 3 finish proxies");
        assert!(!roles
            .iter()
            .any(|r| matches!(r, ExternalRole::AllReduce(_))));
    }

    #[test]
    fn gpu_stream_edge_links_iterations() {
        let d = IterDag::build(2, EngineConfig::mxnet_ps());
        let f0 = &d.nodes[d.fwd(0)];
        assert!(
            f0.deps.contains(&(d.bwd(0), 1)),
            "fwd_0^k after bwd_0^(k-1)"
        );
    }

    #[test]
    fn fwd_bwd_indexing_is_consistent() {
        let d = IterDag::build(5, EngineConfig::mxnet_ps());
        for i in 0..5 {
            match d.nodes[d.fwd(i)].kind {
                NodeKind::Compute { layer, pass } => {
                    assert_eq!((layer, pass), (i, Pass::Forward))
                }
                _ => panic!("fwd index broken"),
            }
            match d.nodes[d.bwd(i)].kind {
                NodeKind::Compute { layer, pass } => {
                    assert_eq!((layer, pass), (i, Pass::Backward))
                }
                _ => panic!("bwd index broken"),
            }
        }
    }
}
