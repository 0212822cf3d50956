//! Execution backends: *where* a plan's waves run, and what gets metered.
//!
//! The paper executes cluster-mapped plans on a 4-node Spark deployment and
//! driver-only plans in a single JVM (Appendix D). This module makes that
//! split explicit: a [`Backend`] value selects between the in-process
//! [`Local`](Backend::Local) runtime and a deterministic
//! [`SimulatedCluster`](Backend::SimulatedCluster) — N simulated nodes with
//! round-robin partition placement and a broadcast/aggregate step per
//! compute wave. The simulated cluster never changes *what* executes (the
//! math and its RNG streams are backend-invariant, bit for bit); it adds a
//! **usage meter** ([`crate::ledger::UsageMeter`]: tuples scanned, bytes
//! shuffled, busy seconds per node, waves) so a run yields a measured cost
//! vector beside the modelled one — the raw material of the conformance
//! harness.

use std::num::NonZeroUsize;

use crate::cluster::ClusterSpec;

/// Which backend executes a plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Backend {
    /// In-process execution at the driver (the paper's "Java" side): the
    /// shared worker pool runs the waves, nothing is metered.
    #[default]
    Local,
    /// Deterministic simulated cluster (the paper's "Spark" side) of
    /// `nodes` nodes, partition `pi` placed on node `pi % nodes`: waves
    /// still execute on the shared pool — placement is an accounting
    /// overlay, so results stay bit-identical to [`Backend::Local`] — but
    /// every wave meters tuples scanned, bytes shuffled (model broadcast +
    /// partial aggregation), and busy seconds per node.
    SimulatedCluster {
        /// Simulated node count.
        nodes: NonZeroUsize,
    },
}

impl Backend {
    /// A simulated cluster with the node count of `spec` (at least one).
    pub fn simulated_cluster(spec: &ClusterSpec) -> Self {
        Self::SimulatedCluster {
            nodes: NonZeroUsize::new(spec.nodes).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// `true` for the simulated-cluster backend.
    pub fn is_cluster(&self) -> bool {
        matches!(self, Self::SimulatedCluster { .. })
    }

    /// Stable backend label used in reports and summaries.
    pub fn name(&self) -> &'static str {
        Self::label(self.is_cluster())
    }

    /// The label [`Backend::name`] reports for the local (`false`) or the
    /// simulated-cluster (`true`) backend, without building one — what a
    /// prediction keys on before the run it predicts exists.
    pub fn label(cluster: bool) -> &'static str {
        if cluster {
            "simulated-cluster"
        } else {
            "local"
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    /// Busy seconds per node after one wave of `units` at one second each.
    fn placed(backend: Backend, units: &[u64]) -> Vec<f64> {
        let mut env = crate::SimEnv::new(ClusterSpec::paper_testbed()).with_backend(backend);
        env.meter_cluster_wave(units, 1.0, 8);
        env.ledger.usage().node_compute_s.clone()
    }

    #[test]
    fn placement_is_round_robin_over_nodes() {
        let cluster = Backend::simulated_cluster(&ClusterSpec::paper_testbed());
        assert_eq!(cluster, Backend::SimulatedCluster { nodes: nodes(4) });
        // Partition `pi` lands on node `pi % 4`.
        let units = [1, 2, 4, 8, 16, 32, 64, 128];
        assert_eq!(
            placed(cluster.clone(), &units),
            vec![17.0, 34.0, 68.0, 136.0]
        );
        // Two partitions occupy only two nodes.
        assert_eq!(placed(cluster, &[1, 2]), vec![1.0, 2.0]);
    }

    #[test]
    fn single_node_spec_still_has_one_node() {
        let cluster = Backend::simulated_cluster(&ClusterSpec::local(4));
        assert_eq!(cluster, Backend::SimulatedCluster { nodes: nodes(1) });
        assert_eq!(placed(cluster, &[1, 2, 4]), vec![7.0]);
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Local.name(), "local");
        let cluster = Backend::simulated_cluster(&ClusterSpec::paper_testbed());
        assert_eq!(cluster.name(), "simulated-cluster");
        assert!(cluster.is_cluster());
        assert!(!Backend::default().is_cluster());
        assert_eq!(format!("{cluster}"), "simulated-cluster");
    }
}
