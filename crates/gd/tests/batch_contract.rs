//! The batch contract, pinned through the surfaces that outlive a change to
//! the operator traits (`execute_plan`, `execute_svrg`,
//! `execute_line_search_bgd`, `Model::predict_batch`): rows are scored in
//! octets, then one quad, then singly — cut from the start of a partition
//! (a scan), of a wave's draw list (a sampled wave) or of the input order
//! (`predict_batch`) — all-dense batches through `simd::dot8`/`dot4`, CSR
//! quads through `simd::sparse_dot4`, singles through the sequential dot;
//! everything after scoring runs in row order.
//!
//! The reference below is composed from those kernels at those cut points
//! and nothing else of `ml4all-gd`. The sum of losses has no surface of its
//! own: it decides every accept/shrink of a line search, so whole line-search
//! trajectories are compared instead.

use ml4all::Model;
use ml4all_dataflow::{
    ClusterSpec, ColumnStore, ColumnarBuilder, DatasetDescriptor, PartitionScheme,
    PartitionedDataset, SamplerState, SamplingMethod, SimEnv,
};
use ml4all_gd::linesearch::execute_line_search_bgd;
use ml4all_gd::svrg::execute_svrg;
use ml4all_gd::{execute_plan, GdPlan, GradientKind, TrainParams, TransformPolicy};
use ml4all_linalg::{simd, DenseVector, FeatureView, PointView};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KINDS: [GradientKind; 3] = [
    GradientKind::LinearRegression,
    GradientKind::LogisticRegression,
    GradientKind::Svm,
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    /// 11 columns, every one stored: not a multiple of the four-wide block,
    /// so the blocked and the sequential dot round differently.
    Dense,
    /// 96 columns, one to six stored per row: narrow enough against the
    /// model for one-row waves to take the support-proportional tail.
    Csr,
}

impl Layout {
    fn dims(self) -> usize {
        match self {
            Self::Dense => 11,
            Self::Csr => 96,
        }
    }
}

/// splitmix64: the rows must not move when the vendored `rand` does.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn rows(n: usize, layout: Layout, seed: u64) -> ColumnStore {
    let mut gen = Gen(seed);
    let dims = layout.dims();
    let mut b = ColumnarBuilder::new();
    for _ in 0..n {
        match layout {
            Layout::Dense => {
                let xs: Vec<f64> = (0..dims).map(|_| gen.unit()).collect();
                let label = if xs.iter().sum::<f64>() > 0.0 {
                    1.0
                } else {
                    -1.0
                };
                b.push_dense(label, &xs);
            }
            Layout::Csr => {
                let nnz = 1 + (gen.next() % 6) as usize;
                let mut idx: Vec<u32> = (0..nnz).map(|_| (gen.next() % 96) as u32).collect();
                idx.sort_unstable();
                idx.dedup();
                let vals: Vec<f64> = idx.iter().map(|_| gen.unit()).collect();
                let label = if vals.iter().sum::<f64>() > 0.0 {
                    1.0
                } else {
                    -1.0
                };
                b.push_sparse(label, &idx, &vals).unwrap();
            }
        }
    }
    b.finish_with_dims(dims)
}

fn cluster() -> ClusterSpec {
    ClusterSpec::paper_testbed()
}

/// `points` dealt round-robin into `partitions` physical partitions.
fn dataset(points: ColumnStore, layout: Layout, partitions: u64) -> PartitionedDataset {
    let spec = cluster();
    let desc = DatasetDescriptor::new(
        "batch-contract",
        points.len() as u64,
        layout.dims(),
        partitions * spec.partition_bytes,
        1.0,
    );
    PartitionedDataset::with_descriptor(desc, &points, PartitionScheme::RoundRobin, &spec).unwrap()
}

fn params(kind: GradientKind, max_iter: u64) -> TrainParams {
    let mut p = TrainParams::paper_defaults(kind);
    p.tolerance = 0.0;
    p.max_iter = max_iter;
    p.seed = 29;
    p
}

// ---------------------------------------------------------------------
// The reference: kernels at cut points, Table 3 after the score.
// ---------------------------------------------------------------------

fn dense_rows<'a, const N: usize>(rows: &[PointView<'a>], w: &[f64]) -> Option<[&'a [f64]; N]> {
    let mut out: [&[f64]; N] = [&[]; N];
    for (slot, row) in out.iter_mut().zip(rows) {
        match row.features {
            FeatureView::Dense(r) if r.len() == w.len() => *slot = r,
            _ => return None,
        }
    }
    Some(out)
}

fn quad_scores(w: &[f64], quad: &[PointView<'_>], out: &mut Vec<f64>) {
    if let Some(r) = dense_rows::<4>(quad, w) {
        out.extend(simd::dot4(r, w));
        return;
    }
    let mut indices: [&[u32]; 4] = [&[]; 4];
    let mut values: [&[f64]; 4] = [&[]; 4];
    for (k, row) in quad.iter().enumerate() {
        match row.features {
            FeatureView::Sparse {
                dim,
                indices: i,
                values: v,
            } if dim == w.len() => {
                indices[k] = i;
                values[k] = v;
            }
            _ => return out.extend(quad.iter().map(|r| r.features.dot(w))),
        }
    }
    out.extend(simd::sparse_dot4(indices, values, w));
}

/// `w·x` for every row of one cut unit, in row order.
fn scores(w: &[f64], rows: &[PointView<'_>]) -> Vec<f64> {
    let mut out = Vec::with_capacity(rows.len());
    let mut rest = rows;
    while rest.len() >= 8 {
        let (octet, tail) = rest.split_at(8);
        match dense_rows::<8>(octet, w) {
            Some(r) => out.extend(simd::dot8(r, w)),
            None => {
                quad_scores(w, &octet[..4], &mut out);
                quad_scores(w, &octet[4..], &mut out);
            }
        }
        rest = tail;
    }
    if rest.len() >= 4 {
        quad_scores(w, &rest[..4], &mut out);
        rest = &rest[4..];
    }
    out.extend(rest.iter().map(|r| r.features.dot(w)));
    out
}

/// The coefficient on `x` in the point's gradient, `None` where Table 3
/// adds nothing.
fn gradient_factor(kind: GradientKind, score: f64, y: f64) -> Option<f64> {
    match kind {
        GradientKind::LinearRegression => Some(2.0 * (score - y)),
        GradientKind::LogisticRegression => {
            let margin = y * score;
            let factor = if margin > 35.0 {
                0.0
            } else if margin < -35.0 {
                -y
            } else {
                -y / (1.0 + margin.exp())
            };
            (factor != 0.0).then_some(factor)
        }
        GradientKind::Svm => (y * score < 1.0).then_some(-y),
    }
}

fn loss(kind: GradientKind, score: f64, y: f64) -> f64 {
    match kind {
        GradientKind::LinearRegression => (score - y) * (score - y),
        GradientKind::LogisticRegression => {
            let margin = y * score;
            if margin > 35.0 {
                0.0
            } else if margin < -35.0 {
                -margin
            } else {
                (1.0 + (-margin).exp()).ln()
            }
        }
        GradientKind::Svm => (1.0 - y * score).max(0.0),
    }
}

/// What one wave sums: per cut unit a partial from zero (gradient and
/// loss, both in row order), partials folded in unit order.
struct Wave {
    gradient: DenseVector,
    loss: f64,
    count: u64,
}

fn wave(kind: GradientKind, w: &[f64], units: &[Vec<PointView<'_>>], with_gradient: bool) -> Wave {
    let mut total = Wave {
        gradient: DenseVector::zeros(w.len()),
        loss: 0.0,
        count: 0,
    };
    for unit in units {
        let mut partial = DenseVector::zeros(w.len());
        let mut partial_loss = 0.0;
        for (score, row) in scores(w, unit).into_iter().zip(unit) {
            if with_gradient {
                if let Some(factor) = gradient_factor(kind, score, row.label) {
                    row.features.axpy_into(partial.as_mut_slice(), factor);
                }
            }
            partial_loss += loss(kind, score, row.label);
        }
        total.gradient.add_assign(&partial);
        total.loss += partial_loss;
        total.count += unit.len() as u64;
    }
    total
}

/// A scan's cut units: each partition's rows from its start.
fn scan_units(data: &PartitionedDataset) -> Vec<Vec<PointView<'_>>> {
    data.partitions()
        .iter()
        .map(|p| p.iter().collect())
        .collect()
}

/// Listing 3 with no regularizer: `w ← w − α_i Σg / count`.
fn step(w: &mut [f64], p: &TrainParams, iteration: u64, sum: &Wave) {
    let scale = -p.step.at(iteration) / sum.count as f64;
    for (wi, gi) in w.iter_mut().zip(sum.gradient.as_slice()) {
        *wi += scale * gi;
    }
}

fn reference_bgd(data: &PartitionedDataset, p: &TrainParams) -> Vec<f64> {
    let mut w = vec![0.0; data.descriptor().dims];
    let units = scan_units(data);
    for iteration in 1..=p.max_iter {
        let sum = wave(p.gradient, &w, &units, true);
        step(&mut w, p, iteration, &sum);
    }
    w
}

/// A sampled run: the executor's own sampler and RNG stream decide the
/// rows; the draw list is one cut unit.
fn reference_sampled(
    data: &PartitionedDataset,
    p: &TrainParams,
    method: SamplingMethod,
    batch: usize,
) -> Vec<f64> {
    let mut w = vec![0.0; data.descriptor().dims];
    let mut env = SimEnv::new(cluster());
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut sampler = SamplerState::new(method);
    let mut coords = Vec::new();
    for iteration in 1..=p.max_iter {
        sampler
            .draw_into(data, batch, &mut env, &mut rng, &mut coords)
            .unwrap();
        let drawn: Vec<PointView<'_>> = coords
            .iter()
            .map(|&(pi, oi)| data.view(pi, oi).unwrap())
            .collect();
        let sum = wave(p.gradient, &w, &[drawn], true);
        step(&mut w, p, iteration, &sum);
    }
    w
}

/// Listings 9–10 as `linesearch.rs` flattens them: a gradient phase (fused
/// gradient + loss at `w`), then probe phases (loss at `w − αg`) that accept
/// on Armijo's sufficient decrease or shrink `α ← βα`. `max_iter` counts
/// phases.
fn reference_line_search(
    data: &PartitionedDataset,
    p: &TrainParams,
    step0: f64,
    beta: f64,
) -> Vec<f64> {
    let units = scan_units(data);
    let mut w = DenseVector::zeros(data.descriptor().dims);
    let mut alpha = step0;
    // `(f(w), g, ‖g‖², probe point)` while probing.
    let mut probing: Option<(f64, DenseVector, f64, DenseVector)> = None;
    for _ in 0..p.max_iter {
        probing = match probing.take() {
            None => {
                let sum = wave(p.gradient, w.as_slice(), &units, true);
                let inv = 1.0 / sum.count as f64;
                let mut g = sum.gradient;
                g.scale(inv);
                let mut probe = w.clone();
                probe.axpy(-alpha, &g);
                let norm2 = g.l2_norm_squared();
                Some((sum.loss * inv, g, norm2, probe))
            }
            Some((f_w, g, norm2, probe)) => {
                let sum = wave(p.gradient, probe.as_slice(), &units, false);
                let f_probe = sum.loss * (1.0 / sum.count as f64);
                if f_w - f_probe >= 1e-4 * alpha * norm2 || alpha <= 1e-12 || norm2 == 0.0 {
                    w = probe;
                    alpha = step0;
                    None
                } else {
                    alpha *= beta;
                    let mut probe = w.clone();
                    probe.axpy(-alpha, &g);
                    Some((f_w, g, norm2, probe))
                }
            }
        };
    }
    w.into_vec()
}

fn reference_predictions(kind: GradientKind, w: &[f64], data: &PartitionedDataset) -> Vec<f64> {
    let input: Vec<PointView<'_>> = data.iter_views_input_order().collect();
    scores(w, &input)
        .into_iter()
        .map(|s| match kind {
            GradientKind::LinearRegression => s,
            _ if s >= 0.0 => 1.0,
            _ => -1.0,
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn run(plan: &GdPlan, data: &PartitionedDataset, p: &TrainParams) -> Vec<f64> {
    let mut env = SimEnv::new(cluster());
    execute_plan(plan, data, p, &mut env)
        .unwrap()
        .weights
        .into_vec()
}

// ---------------------------------------------------------------------
// (a) every cut configuration against the reference
// ---------------------------------------------------------------------

#[test]
fn an_empty_row_set_is_refused_before_any_batch_is_cut() {
    assert!(PartitionedDataset::from_columns(
        "empty",
        &ColumnStore::empty(),
        PartitionScheme::RoundRobin,
        &cluster()
    )
    .is_err());
}

#[test]
fn scans_waves_losses_and_predictions_follow_the_cut_rule_for_every_row_count() {
    for layout in [Layout::Dense, Layout::Csr] {
        for kind in KINDS {
            for n in 1..=40usize {
                for partitions in [1u64, 3] {
                    let label = format!("{layout:?} {kind:?} n={n} partitions={partitions}");
                    let data = dataset(rows(n, layout, 1000 + n as u64), layout, partitions);
                    let p = params(kind, 3);

                    let scanned = run(&GdPlan::bgd(), &data, &p);
                    assert_eq!(
                        bits(&scanned),
                        bits(&reference_bgd(&data, &p)),
                        "{label}: scan"
                    );

                    let method = SamplingMethod::RandomPartition;
                    let plan = GdPlan::mgd(n, TransformPolicy::Eager, method).unwrap();
                    assert_eq!(
                        bits(&run(&plan, &data, &p)),
                        bits(&reference_sampled(&data, &p, method, n)),
                        "{label}: sampled wave"
                    );

                    let p = params(kind, 8);
                    let mut env = SimEnv::new(cluster());
                    let searched = execute_line_search_bgd(&data, 1.0, 0.5, &p, &mut env).unwrap();
                    assert_eq!(
                        bits(searched.weights.as_slice()),
                        bits(&reference_line_search(&data, &p, 1.0, 0.5)),
                        "{label}: line search"
                    );

                    let model = Model::new(kind, DenseVector::new(scanned.clone()));
                    assert_eq!(
                        bits(&model.predict_batch(&data)),
                        bits(&reference_predictions(kind, &scanned, &data)),
                        "{label}: predict_batch"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// (b) goldens
// ---------------------------------------------------------------------

fn fnv(weights: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in weights {
        for byte in w.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a of the final weights of every algorithm on 37 rows in three
/// partitions (13 + 12 + 12: an octet, a quad and a single per scan).
fn golden_run(layout: Layout) -> Vec<(&'static str, u64)> {
    let data = dataset(rows(37, layout, 37), layout, 3);
    let kind = GradientKind::LogisticRegression;
    let p = params(kind, 25);
    let mut out = vec![("bgd", fnv(&run(&GdPlan::bgd(), &data, &p)))];
    for (name, method) in [
        ("mgd-bernoulli", SamplingMethod::Bernoulli),
        ("mgd-random", SamplingMethod::RandomPartition),
        ("mgd-shuffle", SamplingMethod::ShuffledPartition),
    ] {
        let plan = GdPlan::mgd(13, TransformPolicy::Eager, method).unwrap();
        let weights = run(&plan, &data, &p);
        assert_eq!(
            bits(&weights),
            bits(&reference_sampled(&data, &p, method, 13)),
            "{layout:?} {name}"
        );
        out.push((name, fnv(&weights)));
    }
    let sgd = GdPlan::sgd(TransformPolicy::Eager, SamplingMethod::ShuffledPartition).unwrap();
    out.push(("sgd", fnv(&run(&sgd, &data, &p))));
    let mut env = SimEnv::new(cluster());
    let svrg = execute_svrg(
        &data,
        SamplingMethod::RandomPartition,
        5,
        0.05,
        &p,
        &mut env,
    )
    .unwrap();
    out.push(("svrg", fnv(svrg.weights.as_slice())));
    let mut env = SimEnv::new(cluster());
    let searched = execute_line_search_bgd(&data, 1.0, 0.5, &p, &mut env).unwrap();
    out.push(("line-search", fnv(searched.weights.as_slice())));
    out
}

#[test]
fn final_weights_of_every_algorithm_match_their_goldens() {
    let dense: &[(&str, u64)] = &[
        ("bgd", 0x24db_c090_9293_5fab),
        ("mgd-bernoulli", 0x561c_8f53_2ac0_c04c),
        ("mgd-random", 0x7bd5_88a9_d25c_9f02),
        ("mgd-shuffle", 0xc694_fcfb_248c_e2d1),
        ("sgd", 0x3d4d_92e4_baf4_b1cb),
        ("svrg", 0x33d6_f1fa_13e6_b798),
        ("line-search", 0x0450_9ac0_ccc0_f34f),
    ];
    let csr: &[(&str, u64)] = &[
        ("bgd", 0xdab1_f7ba_ca01_1cfb),
        ("mgd-bernoulli", 0xf8e3_7548_02c6_94d1),
        ("mgd-random", 0xe3d8_9e4a_9cba_2d05),
        ("mgd-shuffle", 0x7902_5ccc_aaff_f4c7),
        ("sgd", 0x4792_70e4_7099_fe52),
        ("svrg", 0xba9a_d467_9763_db50),
        ("line-search", 0x0d92_c0ea_289a_e7fa),
    ];
    for (layout, golden) in [(Layout::Dense, dense), (Layout::Csr, csr)] {
        let got = golden_run(layout);
        assert_eq!(got, golden, "{layout:?}: {got:#x?}");
    }
}
