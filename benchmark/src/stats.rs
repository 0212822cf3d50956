//! Order statistics and the speed-correction arithmetic.
//!
//! A run alternates floor slices with work slices:
//! `F0 W0 F1 W1 … Wn-1 Fn`. Work slice `i` is corrected by the mean of
//! the two floor slices that bracket it, so a host whose core speed
//! steps mid-window moves numerator and denominator together and the
//! ratio stays put; the reported value is the median ratio times
//! [`crate::floor::FLOOR_NOMINAL_MS`].

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the rule the acceptance check applies to ten runs.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the
/// median: the spread every bound in `BENCHMARK.json` is compared with.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The `p`-th percentile (nearest rank) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles a tail may be reported at, ascending, in per-mille (whole
/// numbers keep the ten-sample rule exact at n = 100, 1 000, 10 000).
pub const TAIL_CANDIDATES_PERMILLE: [u64; 5] = [500, 750, 900, 990, 999];

/// The highest candidate percentile that still has at least ten samples
/// beyond it in a sample of `n` — a tail read off fewer than ten points is
/// an anecdote. Falls back to the median for small samples.
pub fn highest_supported_percentile(n: usize) -> f64 {
    let permille = TAIL_CANDIDATES_PERMILLE
        .iter()
        .copied()
        .filter(|pm| n as u64 * (1000 - pm) >= 10_000)
        .max()
        .unwrap_or(TAIL_CANDIDATES_PERMILLE[0]);
    permille as f64 / 10.0
}

/// Per-slice ratios `r_i = per_job_s[i] ÷ mean(floor_s[i], floor_s[i+1])`:
/// seconds per job over seconds per floor-op, i.e. floor-ops per job.
///
/// # Panics
///
/// Panics unless there is exactly one more floor slice than work slices.
pub fn bracket_ratios(per_job_s: &[f64], floor_s: &[f64]) -> Vec<f64> {
    assert_eq!(
        floor_s.len(),
        per_job_s.len() + 1,
        "every work slice needs a floor slice on both sides"
    );
    per_job_s
        .iter()
        .enumerate()
        .map(|(i, w)| w / ((floor_s[i] + floor_s[i + 1]) / 2.0))
        .collect()
}

/// The speed-corrected value of a timed quantity: median bracket ratio
/// scaled to the defining host's floor-op time. The unit of the result is
/// the unit of `nominal` per job (milliseconds for `job_ms`).
pub fn corrected(per_job_s: &[f64], floor_s: &[f64], nominal: f64) -> f64 {
    median(&bracket_ratios(per_job_s, floor_s)) * nominal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3.0, 1.0, 2.0], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_speed_step_mid_window_leaves_the_corrected_value_in_place() {
        // 40 slices at 1.2 floor-ops per job; the host runs 1.7x slower
        // from slice 17 on, the step landing inside work slice 17 (its
        // first 30% at the old speed).
        let floor_fast = 3.6e-3;
        let slow = 1.7;
        let true_ratio = 1.2;
        let n = 40;
        let step = 17;
        let floors: Vec<f64> = (0..=n)
            .map(|i| {
                if i <= step {
                    floor_fast
                } else {
                    floor_fast * slow
                }
            })
            .collect();
        let work: Vec<f64> = (0..n)
            .map(|i| {
                let speed = match i.cmp(&step) {
                    std::cmp::Ordering::Less => 1.0,
                    std::cmp::Ordering::Equal => 0.3 + 0.7 * slow,
                    std::cmp::Ordering::Greater => slow,
                };
                true_ratio * floor_fast * speed
            })
            .collect();
        let raw = median(&work) / floor_fast;
        assert!(
            (raw / true_ratio - 1.0).abs() > 0.3,
            "the raw median must move"
        );
        let value = corrected(&work, &floors, 3.6);
        assert!(
            (value / (true_ratio * 3.6) - 1.0).abs() < 0.02,
            "corrected {value} vs {}",
            true_ratio * 3.6
        );
        // Only the slice the step landed in reads off; its neighbours do not.
        let ratios = bracket_ratios(&work, &floors);
        assert!((ratios[step - 1] / true_ratio - 1.0).abs() < 1e-12);
        assert!((ratios[step + 1] / true_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bracket_ratio_uses_both_neighbours() {
        let r = bracket_ratios(&[6.0], &[2.0, 4.0]);
        assert_eq!(r, vec![2.0]);
    }

    #[test]
    fn the_tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
        assert_eq!(highest_supported_percentile(99), 75.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(999), 90.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
    }
}
