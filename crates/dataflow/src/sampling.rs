//! The three sampling strategies of Figure 4, with their distinct cost
//! profiles (Section 6, "Efficient data skipping"):
//!
//! - **Bernoulli** — include every data unit with probability `m/n` (what
//!   MLlib does). The *simulated* cost is a full scan per draw; the
//!   machine implementation uses geometric skip sampling (jump straight
//!   to the next included unit) so the real work is proportional to the
//!   included count, not the dataset size.
//! - **Random-partition** — for each of the `m` requested units, pick a
//!   random partition, then a random unit inside it. Cost: `m` random page
//!   reads (seek + page each).
//! - **Shuffled-partition** — shuffle one randomly-picked partition once,
//!   then serve samples *sequentially* from it, reshuffling a fresh
//!   partition on exhaustion. Cost: an amortized partition read + cheap
//!   sequential page access; the trade-off is intra-partition sample
//!   correlation, which can increase iterations to converge (and distorts
//!   models on partition-skewed data — the paper's rcv1 caveat).
//!
//! All three samplers are **index-based**: a draw yields `(partition,
//! offset)` coordinates into the columnar storage — no point is ever
//! cloned — and [`SamplerState::draw_into`] writes them into a
//! caller-owned buffer so the training loop allocates nothing per
//! iteration.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dataset::PartitionedDataset;
use crate::env::SimEnv;
use crate::DataflowError;

/// Which sampling strategy a GD plan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SamplingMethod {
    /// Full-scan probabilistic inclusion.
    Bernoulli,
    /// Random partition + random offset per draw.
    RandomPartition,
    /// One shuffled partition served sequentially.
    ShuffledPartition,
}

impl SamplingMethod {
    /// Short label used in plan names (`eager-bernoulli`, `lazy-shuffle`, …).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Bernoulli => "bernoulli",
            Self::RandomPartition => "random",
            Self::ShuffledPartition => "shuffle",
        }
    }
}

impl std::fmt::Display for SamplingMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cursor into the currently-shuffled partition. `order[..pos]` holds the
/// units served so far (in served order); `order[pos..]` the not-yet-served
/// remainder, permuted lazily by one forward Fisher–Yates step per serve.
/// The buffer is reused across reshuffles.
#[derive(Debug, Clone)]
struct ShuffleCursor {
    partition: usize,
    order: Vec<u32>,
    pos: usize,
}

/// Stateful sampler living across the iterations of one GD run.
#[derive(Debug, Clone)]
pub struct SamplerState {
    method: SamplingMethod,
    cursor: Option<ShuffleCursor>,
    /// Partitions shuffled so far (exposed for tests/diagnostics; the paper
    /// notes reshuffling kicks in when a partition runs out of units).
    shuffles: usize,
}

/// A serializable snapshot of a [`SamplerState`] mid-run, captured for
/// checkpointing. Restoring it (plus the RNG stream position) puts the
/// sampler back exactly where the snapshot interrupted it, so the
/// resumed draw sequence is bit-identical to the uninterrupted one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplerSnapshot {
    /// The strategy in use.
    pub method: SamplingMethod,
    /// Partitions shuffled so far.
    pub shuffles: u64,
    /// Shuffled-partition cursor, when one exists: `(partition, pos,
    /// order)` with `order[..pos]` already served.
    pub cursor: Option<(u64, u64, Vec<u32>)>,
}

impl SamplerState {
    /// Bernoulli retries before force-picking a unit (an empty Bernoulli
    /// sample would otherwise stall the iteration — the paper discusses
    /// MLlib's workaround of inflating the fraction).
    const MAX_BERNOULLI_RETRIES: usize = 64;

    /// New sampler for a given method.
    pub fn new(method: SamplingMethod) -> Self {
        Self {
            method,
            cursor: None,
            shuffles: 0,
        }
    }

    /// The strategy this sampler implements.
    pub fn method(&self) -> SamplingMethod {
        self.method
    }

    /// Number of partition shuffles performed so far.
    pub fn shuffles(&self) -> usize {
        self.shuffles
    }

    /// Capture the sampler's full mutable state for a checkpoint.
    pub fn snapshot(&self) -> SamplerSnapshot {
        SamplerSnapshot {
            method: self.method,
            shuffles: self.shuffles as u64,
            cursor: self
                .cursor
                .as_ref()
                .map(|c| (c.partition as u64, c.pos as u64, c.order.clone())),
        }
    }

    /// Rebuild a sampler at a previously captured state.
    pub fn restore(snapshot: &SamplerSnapshot) -> Self {
        Self {
            method: snapshot.method,
            cursor: snapshot
                .cursor
                .as_ref()
                .map(|(partition, pos, order)| ShuffleCursor {
                    partition: *partition as usize,
                    order: order.clone(),
                    pos: *pos as usize,
                }),
            shuffles: snapshot.shuffles as usize,
        }
    }

    /// Draw (approximately, for Bernoulli; exactly, otherwise) `m` sample
    /// coordinates `(partition, offset)` from `data`, charging the
    /// strategy's per-iteration cost to `env`. Allocating convenience
    /// wrapper around [`SamplerState::draw_into`].
    pub fn draw(
        &mut self,
        data: &PartitionedDataset,
        m: usize,
        env: &mut SimEnv,
        rng: &mut StdRng,
    ) -> Result<Vec<(usize, usize)>, DataflowError> {
        let mut out = Vec::new();
        self.draw_into(data, m, env, rng, &mut out)?;
        Ok(out)
    }

    /// Draw sample coordinates into `out` (cleared first). The buffer is
    /// caller-owned so repeated draws reuse its allocation.
    pub fn draw_into(
        &mut self,
        data: &PartitionedDataset,
        m: usize,
        env: &mut SimEnv,
        rng: &mut StdRng,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<(), DataflowError> {
        out.clear();
        if data.physical_n() == 0 {
            return Err(DataflowError::NothingToSample);
        }
        if m == 0 {
            return Ok(());
        }
        match self.method {
            SamplingMethod::Bernoulli => self.draw_bernoulli(data, m, env, rng, out),
            SamplingMethod::RandomPartition => self.draw_random_partition(data, m, env, rng, out),
            SamplingMethod::ShuffledPartition => {
                self.draw_shuffled_partition(data, m, env, rng, out)
            }
        }
    }

    /// Bernoulli via geometric skip sampling: instead of flipping a coin
    /// per unit, jump directly to the next included unit (the skip length
    /// is geometrically distributed with the same inclusion probability),
    /// so a draw costs O(included) instead of O(n). Each partition tests
    /// its units with an RNG seeded from (draw, partition index) and
    /// partitions emit in index order, so the drawn sample is identical at
    /// any worker count. The *simulated* cost stays a full scan — that is
    /// the strategy's cost profile, regardless of how fast the machine
    /// executes it.
    fn draw_bernoulli(
        &mut self,
        data: &PartitionedDataset,
        m: usize,
        env: &mut SimEnv,
        rng: &mut StdRng,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<(), DataflowError> {
        let desc = data.descriptor();
        let n_phys = data.physical_n();
        let prob = (m as f64 / n_phys as f64).min(1.0);
        for _ in 0..Self::MAX_BERNOULLI_RETRIES {
            // Every retry is charged as a whole-dataset scan: that is the
            // cost profile that makes Bernoulli a poor fit for small
            // samples.
            env.charge_sample(SamplingMethod::Bernoulli, desc, m as u64);
            let draw_seed = rng.next_u64();
            for (pi, part) in data.partitions().iter().enumerate() {
                let mut prng =
                    StdRng::seed_from_u64(ml4all_runtime::derive_seed(draw_seed, pi as u64));
                if prob >= 1.0 {
                    out.extend((0..part.len()).map(|oi| (pi, oi)));
                    continue;
                }
                let ln_q = (1.0 - prob).ln();
                let mut oi = 0usize;
                loop {
                    // `1 - u ∈ (0, 1]` keeps ln() finite; the skip length
                    // floor(ln(u')/ln(1-p)) is Geometric(p).
                    let u = 1.0 - prng.gen::<f64>();
                    let skip = u.ln() / ln_q;
                    if skip >= (part.len() - oi) as f64 {
                        break;
                    }
                    oi += skip as usize;
                    out.push((pi, oi));
                    oi += 1;
                    if oi >= part.len() {
                        break;
                    }
                }
            }
            if !out.is_empty() {
                return Ok(());
            }
        }
        // Degenerate fallback: force one uniformly random unit.
        out.push(random_coordinate(data, rng));
        Ok(())
    }

    fn draw_random_partition(
        &mut self,
        data: &PartitionedDataset,
        m: usize,
        env: &mut SimEnv,
        rng: &mut StdRng,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<(), DataflowError> {
        env.charge_sample(SamplingMethod::RandomPartition, data.descriptor(), m as u64);
        out.extend((0..m).map(|_| random_coordinate(data, rng)));
        Ok(())
    }

    fn draw_shuffled_partition(
        &mut self,
        data: &PartitionedDataset,
        m: usize,
        env: &mut SimEnv,
        rng: &mut StdRng,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<(), DataflowError> {
        // The reshuffle is priced amortized at logical scale, so the
        // physical reshuffles below are already paid for.
        env.charge_sample(
            SamplingMethod::ShuffledPartition,
            data.descriptor(),
            m as u64,
        );
        out.reserve(m);
        while out.len() < m {
            let need_shuffle = match &self.cursor {
                None => true,
                Some(c) => c.pos >= c.order.len(),
            };
            if need_shuffle {
                // Physical reshuffle (its cost is amortized): pick a
                // fresh partition and reset the cursor to the identity
                // order. The permutation itself is produced *incrementally*
                // below — one forward Fisher–Yates step per served unit —
                // so a reshuffle costs O(partition) cheap sequential writes
                // and zero RNG draws, and a draw of `m` units costs exactly
                // `m` `gen_range` calls however large the partition is.
                let pi = rng.gen_range(0..data.num_partitions());
                let part = data.partition(pi)?;
                let cursor = self.cursor.get_or_insert_with(|| ShuffleCursor {
                    partition: 0,
                    order: Vec::new(),
                    pos: 0,
                });
                cursor.partition = pi;
                cursor.pos = 0;
                cursor.order.clear();
                cursor.order.extend(0..part.len() as u32);
                self.shuffles += 1;
            }
            let cursor = self.cursor.as_mut().expect("cursor just ensured");
            while out.len() < m && cursor.pos < cursor.order.len() {
                // Forward Fisher–Yates step: every not-yet-served unit is
                // equally likely to be served next, so a full epoch walks a
                // uniformly random permutation — exactly the distribution
                // of the old upfront shuffle (RNG stream v3; the upfront
                // variant was v2).
                let j = rng.gen_range(cursor.pos..cursor.order.len());
                cursor.order.swap(cursor.pos, j);
                out.push((cursor.partition, cursor.order[cursor.pos] as usize));
                cursor.pos += 1;
            }
        }
        Ok(())
    }
}

fn random_coordinate(data: &PartitionedDataset, rng: &mut StdRng) -> (usize, usize) {
    loop {
        let pi = rng.gen_range(0..data.num_partitions());
        let part = &data.partitions()[pi];
        if !part.is_empty() {
            return (pi, rng.gen_range(0..part.len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::dataset::PartitionScheme;
    use crate::descriptor::DatasetDescriptor;
    use rand::SeedableRng;

    fn dataset(n: usize, partitions: u64) -> PartitionedDataset {
        let rows = (0..n).map(|i| (1.0, [i as f64])).collect();
        let spec = ClusterSpec::paper_testbed();
        let desc = DatasetDescriptor::new("s", n as u64, 1, partitions * spec.partition_bytes, 1.0);
        PartitionedDataset::with_descriptor(desc, &rows, PartitionScheme::RoundRobin, &spec)
            .unwrap()
    }

    fn env() -> SimEnv {
        SimEnv::new(ClusterSpec::paper_testbed())
    }

    #[test]
    fn bernoulli_returns_roughly_m_units() {
        let data = dataset(10_000, 1);
        let mut env = env();
        let mut rng = StdRng::seed_from_u64(7);
        let mut sampler = SamplerState::new(SamplingMethod::Bernoulli);
        let s = sampler.draw(&data, 1000, &mut env, &mut rng).unwrap();
        assert!(s.len() > 700 && s.len() < 1300, "got {}", s.len());
    }

    #[test]
    fn bernoulli_skip_sampling_draws_m_in_expectation() {
        // Average over many draws: the geometric-skip implementation must
        // keep the Bernoulli mean inclusion count at m.
        let data = dataset(5_000, 4);
        let mut env = env();
        let mut rng = StdRng::seed_from_u64(11);
        let mut sampler = SamplerState::new(SamplingMethod::Bernoulli);
        let m = 100usize;
        let draws = 200;
        let mut total = 0usize;
        for _ in 0..draws {
            total += sampler.draw(&data, m, &mut env, &mut rng).unwrap().len();
        }
        let mean = total as f64 / draws as f64;
        assert!(
            (mean - m as f64).abs() < 0.08 * m as f64,
            "mean inclusion {mean} vs requested {m}"
        );
    }

    #[test]
    fn bernoulli_with_m_at_least_n_includes_everything() {
        let data = dataset(64, 4);
        let mut env = env();
        let mut rng = StdRng::seed_from_u64(5);
        let mut sampler = SamplerState::new(SamplingMethod::Bernoulli);
        let s = sampler.draw(&data, 64, &mut env, &mut rng).unwrap();
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn bernoulli_never_returns_empty() {
        let data = dataset(5000, 1);
        let mut env = env();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sampler = SamplerState::new(SamplingMethod::Bernoulli);
        for _ in 0..50 {
            let s = sampler.draw(&data, 1, &mut env, &mut rng).unwrap();
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn bernoulli_coordinates_are_valid_and_strictly_increasing_per_partition() {
        let data = dataset(2000, 4);
        let mut env = env();
        let mut rng = StdRng::seed_from_u64(17);
        let mut sampler = SamplerState::new(SamplingMethod::Bernoulli);
        let s = sampler.draw(&data, 200, &mut env, &mut rng).unwrap();
        for w in s.windows(2) {
            let ((p0, o0), (p1, o1)) = (w[0], w[1]);
            assert!(
                p0 < p1 || (p0 == p1 && o0 < o1),
                "skip sampling emits in order"
            );
        }
        for (pi, oi) in s {
            assert!(data.view(pi, oi).is_some());
        }
    }

    #[test]
    fn draw_into_reuses_the_coordinate_buffer() {
        let data = dataset(1000, 2);
        let mut env = env();
        let mut rng = StdRng::seed_from_u64(23);
        let mut sampler = SamplerState::new(SamplingMethod::RandomPartition);
        let mut buf = Vec::new();
        sampler
            .draw_into(&data, 64, &mut env, &mut rng, &mut buf)
            .unwrap();
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        for _ in 0..10 {
            sampler
                .draw_into(&data, 64, &mut env, &mut rng, &mut buf)
                .unwrap();
            assert_eq!(buf.len(), 64);
        }
        assert_eq!(buf.capacity(), cap, "no buffer growth across draws");
        assert_eq!(buf.as_ptr(), ptr, "no reallocation across draws");
    }

    #[test]
    fn random_partition_returns_exactly_m() {
        let data = dataset(1000, 4);
        let mut env = env();
        let mut rng = StdRng::seed_from_u64(1);
        let mut sampler = SamplerState::new(SamplingMethod::RandomPartition);
        let s = sampler.draw(&data, 64, &mut env, &mut rng).unwrap();
        assert_eq!(s.len(), 64);
        for (pi, oi) in s {
            assert!(data.view(pi, oi).is_some());
        }
    }

    #[test]
    fn shuffled_partition_serves_sequentially_and_reshuffles() {
        let data = dataset(100, 4); // 25 points per partition
        let mut env = env();
        let mut rng = StdRng::seed_from_u64(2);
        let mut sampler = SamplerState::new(SamplingMethod::ShuffledPartition);
        let first = sampler.draw(&data, 10, &mut env, &mut rng).unwrap();
        assert_eq!(first.len(), 10);
        assert_eq!(sampler.shuffles(), 1);
        // All ten from the same partition.
        let p0 = first[0].0;
        assert!(first.iter().all(|(p, _)| *p == p0));
        // Drawing 20 more exhausts the 25-unit partition → reshuffle.
        let _ = sampler.draw(&data, 20, &mut env, &mut rng).unwrap();
        assert_eq!(sampler.shuffles(), 2);
    }

    #[test]
    fn shuffled_partition_covers_whole_partition_without_repeats() {
        let data = dataset(40, 1);
        let mut env = env();
        let mut rng = StdRng::seed_from_u64(9);
        let mut sampler = SamplerState::new(SamplingMethod::ShuffledPartition);
        let s = sampler.draw(&data, 40, &mut env, &mut rng).unwrap();
        let mut offsets: Vec<usize> = s.iter().map(|(_, o)| *o).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(
            offsets.len(),
            40,
            "each unit served exactly once per shuffle"
        );
    }

    #[test]
    fn bernoulli_costs_a_full_scan_but_random_does_not() {
        let data = dataset(100_000, 8);
        let mut rng = StdRng::seed_from_u64(5);

        let mut env_b = env();
        let mut bernoulli = SamplerState::new(SamplingMethod::Bernoulli);
        bernoulli.draw(&data, 10, &mut env_b, &mut rng).unwrap();

        let mut env_r = env();
        let mut random = SamplerState::new(SamplingMethod::RandomPartition);
        random.draw(&data, 10, &mut env_r, &mut rng).unwrap();

        assert!(
            env_b.elapsed_s() > 3.0 * env_r.elapsed_s(),
            "bernoulli {} vs random {}",
            env_b.elapsed_s(),
            env_r.elapsed_s()
        );
    }

    #[test]
    fn shuffle_amortizes_below_random_partition_over_many_draws() {
        let data = dataset(100_000, 8);
        let mut rng = StdRng::seed_from_u64(6);

        let mut env_s = env();
        let mut shuffled = SamplerState::new(SamplingMethod::ShuffledPartition);
        for _ in 0..500 {
            shuffled.draw(&data, 1, &mut env_s, &mut rng).unwrap();
        }

        let mut env_r = env();
        let mut random = SamplerState::new(SamplingMethod::RandomPartition);
        for _ in 0..500 {
            random.draw(&data, 1, &mut env_r, &mut rng).unwrap();
        }

        assert!(
            env_s.elapsed_s() < env_r.elapsed_s(),
            "shuffle {} vs random {}",
            env_s.elapsed_s(),
            env_r.elapsed_s()
        );
    }

    #[test]
    fn zero_sample_is_free_and_empty() {
        let data = dataset(10, 1);
        let mut env = env();
        let mut rng = StdRng::seed_from_u64(0);
        let mut sampler = SamplerState::new(SamplingMethod::RandomPartition);
        let s = sampler.draw(&data, 0, &mut env, &mut rng).unwrap();
        assert!(s.is_empty());
        assert_eq!(env.elapsed_s(), 0.0);
    }
}
