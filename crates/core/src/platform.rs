//! Platform mapping (Appendix D): ML4all maps each GD operator of a plan
//! to either the **local Java executor** (driver) or **Spark** (cluster),
//! producing "mix-based" plans — e.g. SGD typically transforms and samples
//! on Spark but computes and updates at the driver.
//!
//! The rule the paper describes: an operator runs distributed only when its
//! input spans more than one data partition; otherwise distributing it
//! "would just add a processing overhead". This module makes that mapping
//! explicit and reportable; when the executor charges costs it calls the
//! same functions (`DatasetDescriptor::fits_one_partition`, through
//! `SimEnv`'s price list).

use ml4all_dataflow::{ClusterSpec, DatasetDescriptor, SamplingMethod};
use ml4all_gd::{GdPlan, GdVariant, TransformPolicy};
use serde::{Deserialize, Serialize};

/// Where an operator executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Platform {
    /// Single-process execution at the driver (the paper's "Java").
    Java,
    /// Distributed execution on the cluster (the paper's "Spark").
    Spark,
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Java => f.write_str("Java"),
            Self::Spark => f.write_str("Spark"),
        }
    }
}

/// The per-operator platform assignment of one plan on one dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformMapping {
    /// `Transform` placement.
    pub transform: Platform,
    /// `Stage` placement (always driver-side parameter setup).
    pub stage: Platform,
    /// `Sample` placement (absent for BGD).
    pub sample: Option<Platform>,
    /// `Compute` placement.
    pub compute: Platform,
    /// `Update` placement (always a single node).
    pub update: Platform,
    /// `Converge` placement.
    pub converge: Platform,
    /// `Loop` placement.
    pub loop_op: Platform,
}

impl PlatformMapping {
    /// `true` when the mapping mixes both platforms (the paper: "ML4all
    /// can produce a GD plan as a mixture of Java and Spark").
    pub fn is_mixed(&self) -> bool {
        let anchor = self.transform;
        let rest = [
            self.stage,
            self.compute,
            self.update,
            self.converge,
            self.loop_op,
        ];
        rest.into_iter().any(|p| p != anchor) || self.sample.is_some_and(|p| p != anchor)
    }

    /// `true` when any operator of this mapping executes on the cluster —
    /// the routing predicate for the simulated-cluster backend: a plan
    /// whose mapping touches Spark anywhere executes (and is metered)
    /// through it, a pure-Java plan stays on the local runtime.
    pub fn uses_cluster(&self) -> bool {
        let ops = [
            self.transform,
            self.stage,
            self.compute,
            self.update,
            self.converge,
            self.loop_op,
        ];
        ops.into_iter()
            .chain(self.sample)
            .any(|p| p == Platform::Spark)
    }

    /// Short report string, e.g.
    /// `transform=Spark sample=Spark compute=Java update=Java`.
    pub fn describe(&self) -> String {
        let mut out = format!("transform={} stage={}", self.transform, self.stage);
        if let Some(s) = self.sample {
            out.push_str(&format!(" sample={s}"));
        }
        out.push_str(&format!(
            " compute={} update={} converge={} loop={}",
            self.compute, self.update, self.converge, self.loop_op
        ));
        out
    }
}

/// Compute the Appendix D mapping for a plan over a dataset.
pub fn map_plan(plan: &GdPlan, desc: &DatasetDescriptor, cluster: &ClusterSpec) -> PlatformMapping {
    let distributed = !desc.fits_one_partition(cluster);
    let data_side = if distributed {
        Platform::Spark
    } else {
        Platform::Java
    };
    // Sampled compute ships a small batch to the driver (hybrid mode);
    // batch compute runs where the data lives.
    let compute = match plan.variant {
        GdVariant::Batch => data_side,
        _ => Platform::Java,
    };
    // Transform placement follows the data it touches: eager transform
    // scans the whole dataset; lazy transform touches only the sampled
    // units, already at the driver.
    let transform = match plan.transform {
        TransformPolicy::Eager => data_side,
        TransformPolicy::Lazy => Platform::Java,
    };
    // Bernoulli sampling scans everything; the other samplers fetch
    // blocks/units and serve them locally.
    let sample = plan.sampling.map(|s| match s {
        SamplingMethod::Bernoulli => data_side,
        SamplingMethod::RandomPartition | SamplingMethod::ShuffledPartition => {
            if distributed {
                Platform::Spark
            } else {
                Platform::Java
            }
        }
    });
    PlatformMapping {
        transform,
        stage: Platform::Java,
        sample,
        compute,
        update: Platform::Java,
        converge: Platform::Java,
        loop_op: Platform::Java,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::paper_testbed()
    }

    fn small() -> DatasetDescriptor {
        DatasetDescriptor::new("adult", 100_827, 123, 7 * 1024 * 1024, 0.11)
    }

    fn large() -> DatasetDescriptor {
        DatasetDescriptor::new("svm1", 5_516_800, 100, 10 * 1024 * 1024 * 1024, 1.0)
    }

    #[test]
    fn small_datasets_run_entirely_in_java() {
        let plan = GdPlan::bgd();
        let m = map_plan(&plan, &small(), &cluster());
        assert!(!m.is_mixed());
        assert_eq!(m.compute, Platform::Java);
        assert!(!m.uses_cluster());
    }

    #[test]
    fn uses_cluster_detects_any_spark_operator() {
        // Every plan on a large dataset touches Spark somewhere; lazy
        // plans only through their sampler.
        for plan in [
            GdPlan::bgd(),
            GdPlan::sgd(TransformPolicy::Lazy, SamplingMethod::RandomPartition).unwrap(),
            GdPlan::mgd(1000, TransformPolicy::Eager, SamplingMethod::Bernoulli).unwrap(),
        ] {
            assert!(
                map_plan(&plan, &large(), &cluster()).uses_cluster(),
                "{plan} should map onto the cluster"
            );
            assert!(
                !map_plan(&plan, &small(), &cluster()).uses_cluster(),
                "{plan} should stay at the driver"
            );
        }
    }

    #[test]
    fn sgd_on_large_data_is_a_mix_based_plan() {
        // The paper: "ML4all indeed produces a mix-based plan for SGD".
        let plan = GdPlan::sgd(TransformPolicy::Eager, SamplingMethod::ShuffledPartition).unwrap();
        let m = map_plan(&plan, &large(), &cluster());
        assert!(m.is_mixed());
        assert_eq!(m.transform, Platform::Spark); // whole-dataset scan
        assert_eq!(m.sample, Some(Platform::Spark));
        assert_eq!(m.compute, Platform::Java); // 1-unit batch at driver
        assert_eq!(m.update, Platform::Java);
    }

    #[test]
    fn bgd_on_large_data_computes_on_spark() {
        let m = map_plan(&GdPlan::bgd(), &large(), &cluster());
        assert_eq!(m.compute, Platform::Spark);
        assert_eq!(m.update, Platform::Java); // aggregation lands at one node
        assert!(m.is_mixed());
    }

    #[test]
    fn lazy_transform_moves_to_the_driver() {
        let eager = GdPlan::sgd(TransformPolicy::Eager, SamplingMethod::RandomPartition).unwrap();
        let lazy = GdPlan::sgd(TransformPolicy::Lazy, SamplingMethod::RandomPartition).unwrap();
        let d = large();
        assert_eq!(map_plan(&eager, &d, &cluster()).transform, Platform::Spark);
        assert_eq!(map_plan(&lazy, &d, &cluster()).transform, Platform::Java);
    }

    #[test]
    fn is_mixed_handles_the_sample_absent_case() {
        // BGD has no Sample operator: a uniform mapping with `sample:
        // None` is pure, and mixing must still be detected through the
        // remaining six operators.
        let uniform = PlatformMapping {
            transform: Platform::Java,
            stage: Platform::Java,
            sample: None,
            compute: Platform::Java,
            update: Platform::Java,
            converge: Platform::Java,
            loop_op: Platform::Java,
        };
        assert!(!uniform.is_mixed());
        let mut compute_remote = uniform.clone();
        compute_remote.compute = Platform::Spark;
        assert!(compute_remote.is_mixed());
        // And a lone divergent Sample placement is still a mix.
        let mut sample_remote = uniform;
        sample_remote.sample = Some(Platform::Spark);
        assert!(sample_remote.is_mixed());
    }

    #[test]
    fn describe_mentions_every_operator() {
        let plan = GdPlan::mgd(1000, TransformPolicy::Eager, SamplingMethod::Bernoulli).unwrap();
        let s = map_plan(&plan, &large(), &cluster()).describe();
        for op in [
            "transform",
            "stage",
            "sample",
            "compute",
            "update",
            "converge",
            "loop",
        ] {
            assert!(s.contains(op), "{s} missing {op}");
        }
    }
}
