//! **Figure 17(a/b), Appendix E** — sampling effect in SGD under (a)
//! eager and (b) lazy transformation, across the adult…svm2 datasets.

use ml4all_gd::GdVariant;

fn main() {
    ml4all_bench::runs::sampling_figure(
        GdVariant::Stochastic,
        "fig17",
        "Figure 17",
        "sampling effect in SGD",
        "Figure 17 (Appendix E): SGD sampling effect, eager and lazy",
    );
}
