//! **Figure 18(a/b), Appendix E** — transformation effect with the
//! sampling fixed to random-partition: eager vs lazy for (a) MGD(1k) and
//! (b) SGD.

use ml4all_dataflow::SamplingMethod;
use ml4all_gd::GdVariant;

fn main() {
    ml4all_bench::runs::transform_figure(
        SamplingMethod::RandomPartition,
        [
            ("a/MGD", GdVariant::MiniBatch { batch: 1000 }),
            ("b/SGD", GdVariant::Stochastic),
        ],
        "fig18",
        "Figure 18",
        "transformation effect (random-partition)",
        "Figure 18 (Appendix E): transformation effect with random-partition sampling",
    );
}
