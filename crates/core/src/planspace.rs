//! The GD plan search space of Figure 5.
//!
//! BGD admits a single plan (eager transformation, no sampling — it needs
//! every unit every iteration). SGD and MGD each admit eager × {Bernoulli,
//! random-partition, shuffled-partition} plus lazy × {random-partition,
//! shuffled-partition} — lazy + Bernoulli is pruned because Bernoulli scans
//! everything anyway. Total: **11 plans**.

use ml4all_dataflow::SamplingMethod;
use ml4all_gd::{GdPlan, GdVariant, TransformPolicy};

/// Enumerate the full Figure 5 search space for a given mini-batch size.
pub fn enumerate_plans(batch_size: usize) -> Vec<GdPlan> {
    enumerate_plans_for_variants(&[
        GdVariant::Batch,
        GdVariant::Stochastic,
        GdVariant::MiniBatch { batch: batch_size },
    ])
}

/// Enumerate the search space over an arbitrary set of GD algorithms —
/// the paper: "there could be tens of GD algorithms that the user might
/// want to evaluate ... our search space size is fully parameterized based
/// on the number of GD algorithms and optimizations". Batch-style
/// algorithms contribute one plan each; sampling algorithms contribute the
/// five eager/lazy × sampler combinations (lazy + Bernoulli pruned,
/// Section 6).
pub fn enumerate_plans_for_variants(variants: &[GdVariant]) -> Vec<GdPlan> {
    let mut plans = Vec::with_capacity(1 + 5 * variants.len());
    for &variant in variants {
        match variant {
            GdVariant::Batch => plans.push(GdPlan::bgd()),
            _ => {
                for transform in [TransformPolicy::Eager, TransformPolicy::Lazy] {
                    for sampling in [
                        SamplingMethod::Bernoulli,
                        SamplingMethod::RandomPartition,
                        SamplingMethod::ShuffledPartition,
                    ] {
                        if transform == TransformPolicy::Lazy
                            && sampling == SamplingMethod::Bernoulli
                        {
                            continue; // pruned (Section 6)
                        }
                        plans.push(GdPlan {
                            variant,
                            transform,
                            sampling: Some(sampling),
                        });
                    }
                }
            }
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_space_has_exactly_eleven_plans() {
        let plans = enumerate_plans(1000);
        assert_eq!(plans.len(), 11, "Figure 5: 1 BGD + 5 SGD + 5 MGD");
        let count = |of: fn(GdVariant) -> bool| plans.iter().filter(|p| of(p.variant)).count();
        assert_eq!(count(|v| v == GdVariant::Batch), 1);
        assert_eq!(count(|v| v == GdVariant::Stochastic), 5);
        assert_eq!(
            count(|v| matches!(v, GdVariant::MiniBatch { batch: 1000 })),
            5
        );
    }

    #[test]
    fn plans_are_distinct() {
        let plans = enumerate_plans(1000);
        let names: std::collections::HashSet<String> = plans.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), plans.len());
    }

    #[test]
    fn no_lazy_bernoulli_plan_exists() {
        for p in enumerate_plans(1000) {
            assert!(
                !(p.transform == TransformPolicy::Lazy
                    && p.sampling == Some(SamplingMethod::Bernoulli)),
                "pruned plan leaked: {}",
                p.name()
            );
        }
    }

    #[test]
    fn exactly_one_bgd_plan() {
        let bgd: Vec<_> = enumerate_plans(1000)
            .into_iter()
            .filter(|p| p.variant == GdVariant::Batch)
            .collect();
        assert_eq!(bgd.len(), 1);
        assert_eq!(bgd[0].transform, TransformPolicy::Eager);
        assert!(bgd[0].sampling.is_none());
    }

    #[test]
    fn mgd_plans_carry_the_requested_batch() {
        for p in enumerate_plans(777) {
            if let GdVariant::MiniBatch { batch } = p.variant {
                assert_eq!(batch, 777);
            }
        }
    }

    #[test]
    fn search_space_grows_proportionally_with_algorithms() {
        // The paper's extensibility claim: adding a sampled algorithm adds
        // five plans; adding a batch algorithm adds one.
        let base = enumerate_plans_for_variants(&[GdVariant::Batch, GdVariant::Stochastic]);
        assert_eq!(base.len(), 6);
        let two_batches = enumerate_plans_for_variants(&[
            GdVariant::Batch,
            GdVariant::Stochastic,
            GdVariant::MiniBatch { batch: 100 },
            GdVariant::MiniBatch { batch: 10_000 },
        ]);
        assert_eq!(two_batches.len(), 16);
        assert!(enumerate_plans_for_variants(&[]).is_empty());
    }
}
