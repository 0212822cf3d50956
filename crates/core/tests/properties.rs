//! Property-based tests for the optimizer: curve-fit recovery, cost-model
//! monotonicity, plan-space invariants, and parser robustness.

use ml4all_core::cost::PlanCostModel;
use ml4all_core::curvefit::{running_min_error_seq, CurveFit};
use ml4all_core::lang::parse_query;
use ml4all_core::planspace::enumerate_plans;
use ml4all_dataflow::{ClusterSpec, DatasetDescriptor};
use ml4all_gd::{GdPlan, TransformPolicy};
use proptest::prelude::*;

fn arb_descriptor() -> impl Strategy<Value = DatasetDescriptor> {
    (
        100u64..100_000_000,
        1usize..10_000,
        (1024u64 * 1024)..(256u64 * 1024 * 1024 * 1024),
        0.001f64..1.0,
    )
        .prop_map(|(n, dims, bytes, density)| {
            DatasetDescriptor::new("prop", n, dims, bytes, density)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn curve_fit_recovers_coefficient(a_true in 1.0f64..1e6, points in 5usize..200) {
        let pairs: Vec<(u64, f64)> = (1..=points as u64)
            .map(|i| (i, a_true / i as f64))
            .collect();
        let fit = CurveFit::fit(&pairs).unwrap();
        prop_assert!((fit.a - a_true).abs() / a_true < 1e-6);
        prop_assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn iterations_for_is_antitone_in_tolerance(
        a in 1.0f64..1e5,
        eps_lo in 1e-6f64..1e-2,
        factor in 1.5f64..100.0,
    ) {
        let fit = CurveFit { a, r_squared: 1.0, points: 10 };
        let eps_hi = eps_lo * factor;
        // Tighter tolerance never needs fewer iterations.
        prop_assert!(fit.iterations_for(eps_lo) >= fit.iterations_for(eps_hi));
    }

    #[test]
    fn running_min_is_sorted_strictly_decreasing(errors in prop::collection::vec(1e-6f64..10.0, 0..100)) {
        // Error sequences come from the executor ordered by iteration.
        let raw: Vec<(u64, f64)> = errors
            .into_iter()
            .enumerate()
            .map(|(i, e)| (i as u64 + 1, e))
            .collect();
        let cleaned = running_min_error_seq(&raw);
        for w in cleaned.windows(2) {
            prop_assert!(w[0].1 > w[1].1, "errors strictly decrease");
            prop_assert!(w[0].0 < w[1].0, "iterations strictly increase");
        }
        // The cleaned sequence starts at the first raw entry and ends at
        // the global minimum.
        if let Some(first) = raw.first() {
            prop_assert_eq!(cleaned[0], *first);
            let global_min = raw.iter().map(|(_, e)| *e).fold(f64::INFINITY, f64::min);
            prop_assert_eq!(cleaned.last().unwrap().1, global_min);
        }
    }

    #[test]
    fn plan_space_has_eleven_unique_plans_for_any_batch(batch in 1usize..100_000) {
        let plans = enumerate_plans(batch);
        prop_assert_eq!(plans.len(), 11);
        let names: std::collections::HashSet<String> =
            plans.iter().map(|p| p.name()).collect();
        prop_assert_eq!(names.len(), 11);
    }

    #[test]
    fn total_cost_is_monotone_in_iterations(desc in arb_descriptor(), t in 1u64..100_000) {
        let spec = ClusterSpec::paper_testbed();
        let model = PlanCostModel::new(&spec, &desc);
        for plan in enumerate_plans(1000) {
            let c1 = model.total_s(&plan, t);
            let c2 = model.total_s(&plan, t + 1);
            prop_assert!(c2 >= c1, "{}: {c1} -> {c2}", plan.name());
            prop_assert!(c1.is_finite() && c1 > 0.0);
        }
    }

    #[test]
    fn eager_preparation_dominates_lazy(desc in arb_descriptor()) {
        let spec = ClusterSpec::paper_testbed();
        let model = PlanCostModel::new(&spec, &desc);
        let eager = GdPlan::sgd(
            TransformPolicy::Eager,
            ml4all_dataflow::SamplingMethod::ShuffledPartition,
        )
        .unwrap();
        let lazy = GdPlan::sgd(
            TransformPolicy::Lazy,
            ml4all_dataflow::SamplingMethod::ShuffledPartition,
        )
        .unwrap();
        prop_assert!(model.preparation_s(&eager) >= model.preparation_s(&lazy));
        // And per-iteration the order flips (lazy pays per-unit transform).
        prop_assert!(model.per_iteration_s(&lazy) >= model.per_iteration_s(&eager) - 1e-12);
    }

    #[test]
    fn total_cost_is_monotone_in_dataset_size(
        n in 1_000u64..10_000_000,
        dims in 1usize..5_000,
        unit_bytes in 16u64..4_096,
        density in 0.01f64..1.0,
        factor in 1.0f64..500.0,
        t in 1u64..10_000,
    ) {
        // Scale points and bytes together (fixed bytes-per-unit, so the
        // per-partition unit count k stays put): a strictly larger dataset
        // must never be modelled as cheaper, for any plan in the space.
        let spec = ClusterSpec::paper_testbed();
        let small = DatasetDescriptor::new("small", n, dims, n * unit_bytes, density);
        let big = DatasetDescriptor::new(
            "big",
            (n as f64 * factor) as u64,
            dims,
            ((n as f64 * factor) as u64) * unit_bytes,
            density,
        );
        let small_model = PlanCostModel::new(&spec, &small);
        let big_model = PlanCostModel::new(&spec, &big);
        for plan in enumerate_plans(1000) {
            let c_small = small_model.total_s(&plan, t);
            let c_big = big_model.total_s(&plan, t);
            prop_assert!(
                c_big >= c_small * (1.0 - 1e-9),
                "{}: {c_small} -> {c_big} under ×{factor}",
                plan.name()
            );
        }
    }

    #[test]
    fn bernoulli_simulated_scan_cost_equals_modelled_scan_cost(
        n in 32usize..1_500,
        partitions in 1u64..8,
        seed in 0u64..1_000,
    ) {
        // The Bernoulli sampler *simulates* a full scan per draw; its
        // ledger charge must be identical to the cost model's Sample
        // operator (cSP, Equation 8) — the executed and the modelled
        // Figure 4 cost profile are the same quantity. m = n pins the
        // inclusion probability at 1, so exactly one scan happens.
        use ml4all_core::cost::OperatorCosts;
        use ml4all_dataflow::{PartitionScheme, PartitionedDataset, SamplerState, SimEnv};
        use rand::SeedableRng;

        let spec = ClusterSpec::paper_testbed();
        let points = (0..n)
            .map(|i| (1.0, [i as f64]))
            .collect();
        let desc = DatasetDescriptor::new(
            "prop",
            n as u64,
            1,
            partitions * spec.partition_bytes,
            1.0,
        );
        let data =
            PartitionedDataset::with_descriptor(desc, &points, PartitionScheme::RoundRobin, &spec)
                .unwrap();
        let mut env = SimEnv::new(spec.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut sampler = SamplerState::new(ml4all_dataflow::SamplingMethod::Bernoulli);
        let drawn = sampler.draw(&data, n, &mut env, &mut rng).unwrap();
        prop_assert_eq!(drawn.len(), n, "probability 1 includes every unit");
        let modelled = OperatorCosts::new(&spec, data.descriptor())
            .sample_cost(ml4all_dataflow::SamplingMethod::Bernoulli, n as u64)
            .total_s();
        let measured = env.elapsed_s();
        prop_assert!(
            (measured - modelled).abs() <= 1e-12 * modelled.max(1.0),
            "measured {measured} vs modelled {modelled}"
        );
    }

    #[test]
    fn parser_accepts_generated_valid_queries(
        eps in 1e-6f64..1.0,
        iters in 1u64..1_000_000,
        hours in 0u64..100,
        algo_ix in 0usize..3,
        task_ix in 0usize..3,
    ) {
        let task = ["classification", "regression", "logistic()"][task_ix];
        let algo = ["BGD", "SGD", "MGD"][algo_ix];
        let q = format!(
            "run {task} on some_data.txt having time {hours}h30m, epsilon {eps}, \
             max iter {iters} using algorithm {algo}, step 1;"
        );
        let parsed = parse_query(&q);
        prop_assert!(parsed.is_ok(), "{q}: {parsed:?}");
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,200}") {
        // Robustness: junk must produce Err, never a panic.
        let _ = parse_query(&input);
    }
}
