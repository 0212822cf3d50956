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
//! per-node **usage meter** ([`crate::ledger::UsageMeter`]) so a run yields
//! a measured cost vector beside the modelled one — the raw material of
//! the conformance harness.

use crate::cluster::ClusterSpec;

/// Deterministic fault injection for the simulated cluster: scripted
/// node losses and stragglers, applied as an accounting overlay by
/// [`crate::SimEnv::meter_cluster_wave`]. Faults never change *what*
/// executes — the math and RNG streams stay bit-identical to a
/// fault-free run — they change where partitions are placed and what the
/// usage meter records, so `explain`'s measured column shows what a
/// failure costs. An empty schedule meters exactly like before.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    /// `(wave, node)`: the node dies during that 1-based compute wave.
    /// Its in-flight work is lost and its partitions re-place onto the
    /// survivors from that wave onward.
    node_losses: Vec<(u64, usize)>,
    /// `(node, slowdown)`: the node computes `slowdown`× slower than its
    /// peers for the whole run.
    stragglers: Vec<(usize, u32)>,
}

impl FaultSchedule {
    /// An empty schedule (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Script node `node` to die during 1-based wave `wave`.
    pub fn lose_node(mut self, wave: u64, node: usize) -> Self {
        self.node_losses.push((wave.max(1), node));
        self
    }

    /// Script node `node` as a straggler computing `slowdown`× slower.
    pub fn straggler(mut self, node: usize, slowdown: u32) -> Self {
        self.stragglers.push((node, slowdown.max(1)));
        self
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.node_losses.is_empty() && self.stragglers.is_empty()
    }

    /// Nodes scripted to die during exactly wave `wave`.
    pub fn losses_at(&self, wave: u64) -> Vec<usize> {
        self.node_losses
            .iter()
            .filter(|(w, _)| *w == wave)
            .map(|(_, n)| *n)
            .collect()
    }

    /// `true` when `node` is dead as of wave `wave` (it died during this
    /// wave or an earlier one).
    pub fn is_dead_at(&self, node: usize, wave: u64) -> bool {
        self.node_losses
            .iter()
            .any(|(w, n)| *n == node && *w <= wave)
    }

    /// The straggler slowdown factor for `node` (1 when not a straggler).
    pub fn straggler_factor(&self, node: usize) -> u32 {
        self.stragglers
            .iter()
            .find(|(n, _)| *n == node)
            .map_or(1, |(_, s)| *s)
    }
}

/// Deterministic placement of partitions onto simulated cluster nodes.
///
/// Placement is round-robin by partition index — the statistical analog of
/// HDFS block assignment — so it depends only on the partition count and
/// the node count, never on worker identity or execution order. With a
/// [`FaultSchedule`] attached, partitions of dead nodes re-place
/// round-robin over the survivors — still a pure function of `(partition,
/// wave)`, so fault-injected runs stay deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTopology {
    nodes: usize,
    faults: FaultSchedule,
}

impl ClusterTopology {
    /// Topology with the node count of `spec` (at least one node).
    pub fn new(spec: &ClusterSpec) -> Self {
        Self {
            nodes: spec.nodes.max(1),
            faults: FaultSchedule::default(),
        }
    }

    /// Attach a fault schedule (builder-style).
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// The attached fault schedule (empty by default).
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// Number of simulated nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node hosting partition `pi` in a fault-free cluster.
    pub fn node_of(&self, pi: usize) -> usize {
        pi % self.nodes
    }

    /// The node hosting partition `pi` as of 1-based wave `wave`, with
    /// the fault schedule applied: partitions of dead nodes re-place
    /// round-robin over the surviving nodes. Falls back to the fault-free
    /// placement when no nodes survive (a degenerate schedule).
    pub fn node_of_at(&self, pi: usize, wave: u64) -> usize {
        let base = self.node_of(pi);
        if self.faults.node_losses.is_empty() || !self.faults.is_dead_at(base, wave) {
            return base;
        }
        let survivors: Vec<usize> = (0..self.nodes)
            .filter(|&n| !self.faults.is_dead_at(n, wave))
            .collect();
        if survivors.is_empty() {
            return base;
        }
        survivors[pi % survivors.len()]
    }

    /// Nodes that hold at least one of `partitions` partitions.
    pub fn active_nodes(&self, partitions: usize) -> usize {
        partitions.min(self.nodes)
    }
}

/// Which backend executes a plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Backend {
    /// In-process execution at the driver (the paper's "Java" side): the
    /// shared worker pool runs the waves, nothing is metered.
    #[default]
    Local,
    /// Deterministic simulated cluster (the paper's "Spark" side): waves
    /// still execute on the shared pool — placement is an accounting
    /// overlay, so results stay bit-identical to [`Backend::Local`] — but
    /// every wave meters tuples scanned, bytes shuffled (model broadcast +
    /// partial aggregation), and busy seconds per node.
    SimulatedCluster(ClusterTopology),
}

impl Backend {
    /// A simulated cluster with the node count of `spec`.
    pub fn simulated_cluster(spec: &ClusterSpec) -> Self {
        Self::SimulatedCluster(ClusterTopology::new(spec))
    }

    /// A simulated cluster with a [`FaultSchedule`] attached.
    pub fn simulated_cluster_with_faults(spec: &ClusterSpec, faults: FaultSchedule) -> Self {
        Self::SimulatedCluster(ClusterTopology::new(spec).with_faults(faults))
    }

    /// `true` for the simulated-cluster backend.
    pub fn is_cluster(&self) -> bool {
        matches!(self, Self::SimulatedCluster(_))
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

    #[test]
    fn placement_is_round_robin_over_nodes() {
        let topo = ClusterTopology::new(&ClusterSpec::paper_testbed());
        assert_eq!(topo.nodes(), 4);
        assert_eq!(topo.node_of(0), 0);
        assert_eq!(topo.node_of(5), 1);
        assert_eq!(topo.node_of(7), 3);
        assert_eq!(topo.active_nodes(2), 2);
        assert_eq!(topo.active_nodes(100), 4);
    }

    #[test]
    fn single_node_spec_still_has_one_node() {
        let topo = ClusterTopology::new(&ClusterSpec::local(4));
        assert_eq!(topo.nodes(), 1);
        assert_eq!(topo.node_of(9), 0);
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
