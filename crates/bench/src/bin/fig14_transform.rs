//! **Figure 14(a/b)** — transformation effect with the sampling fixed to
//! shuffled-partition: eager vs lazy for (a) SGD and (b) MGD(1k)
//! (Section 8.6.2).

use ml4all_dataflow::SamplingMethod;
use ml4all_gd::GdVariant;

fn main() {
    ml4all_bench::runs::transform_figure(
        SamplingMethod::ShuffledPartition,
        [
            ("a/SGD", GdVariant::Stochastic),
            ("b/MGD", GdVariant::MiniBatch { batch: 1000 }),
        ],
        "fig14",
        "Figure 14",
        "transformation effect (shuffled-partition)",
        "Figure 14: transformation effect with shuffled-partition sampling",
    );
}
