//! **Figure 13(a/b)** — sampling effect in MGD(1k) under (a) eager and
//! (b) lazy transformation, across the adult…svm2 datasets
//! (Section 8.6.1). Tolerance 0.001, max 1 000 iterations.

use ml4all_gd::GdVariant;

fn main() {
    ml4all_bench::runs::sampling_figure(
        GdVariant::MiniBatch { batch: 1000 },
        "fig13",
        "Figure 13",
        "sampling effect in MGD(1k)",
        "Figure 13: MGD sampling effect, eager and lazy",
    );
}
