//! Summary statistics: pass timings and their spread, and latency tails.

/// A timing over several passes: the median and quartiles with min, max
/// and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Timing {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` has fewer than two samples.
    pub fn of(samples: &[f64]) -> Timing {
        let [q1, median, q3] = quartiles(samples);
        Timing {
            median,
            q1,
            q3,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
        }
    }

    /// Distance between the quartiles as a share of the median: the
    /// pass-to-pass spread.
    pub fn rel_iqr(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (the default, exclusive method), so
/// spreads computed here match the ones computed from the printed values.
///
/// # Panics
///
/// Panics if `xs` has fewer than two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1i64..) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        let j = j as usize;
        *slot = (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0;
    }
    out
}

/// The 1-based nearest rank of the `p`-th percentile (`p` in percent,
/// resolved to 0.1%) among `n` samples. Integer arithmetic, so 99.9% of
/// 10,000 samples is rank 9,990 exactly.
fn rank(p: f64, n: u64) -> u64 {
    let per_mille = (p.clamp(0.0, 100.0) * 10.0).round() as u64;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The nearest-rank `p`-th percentile (`p` in percent) of ascending
/// `sorted` samples, with the number of samples beyond it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[u64], p: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let r = rank(p, sorted.len() as u64) as usize;
    (sorted[r - 1], sorted.len() - r)
}

/// Samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank p99 of ascending `sorted` samples, refused unless at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_p99(sorted: &[u64]) -> Result<u64, String> {
    if sorted.is_empty() {
        return Err("no samples".into());
    }
    match nearest_rank(sorted, 99.0) {
        (value, beyond) if beyond >= MIN_BEYOND => Ok(value),
        (_, beyond) => Err(format!(
            "{} samples leave {beyond} beyond the p99; it needs {MIN_BEYOND}",
            sorted.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqms_sim::stats::Log2Histogram;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn timing_keeps_quartiles_extremes_and_count() {
        let t = Timing::of(&[4.0, 10.0, 2.0, 8.0]);
        assert_eq!(
            t,
            Timing {
                median: 6.0,
                q1: 2.5,
                q3: 9.5,
                min: 2.0,
                max: 10.0,
                n: 4
            }
        );
        assert_eq!(t.rel_iqr(), 7.0 / 6.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 99.0), (99, 1));
        assert_eq!(nearest_rank(&v, 50.0), (50, 50));
        assert_eq!(nearest_rank(&v, 100.0), (100, 0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(supported_p99(&v), Ok(990));
        let v: Vec<u64> = (1..=999).collect();
        assert!(supported_p99(&v).is_err());
        assert!(supported_p99(&[]).is_err());
    }

    /// The per-call p50 and p99 come from `Log2Histogram::percentile`: the
    /// upper edge of the exact value's power-of-two bucket, so above the
    /// exact value and at most twice it.
    #[test]
    fn log2_histogram_percentiles_bound_the_sorted_oracle() {
        let mut rng = fqms_sim::rng::SimRng::new(7);
        for round in 0..20u64 {
            let mut h = Log2Histogram::new();
            let mut samples: Vec<u64> = (0..5_000)
                .map(|_| {
                    // Mix scales so the tail spans several buckets.
                    let scale = 1 << rng.next_below(12 + round % 4);
                    rng.next_below(scale) + 1
                })
                .collect();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            for p in [50.0, 99.0] {
                let (exact, _) = nearest_rank(&samples, p);
                let estimate = h.percentile(p / 100.0);
                assert!(
                    exact < estimate && estimate <= 2 * exact,
                    "p{p}: histogram {estimate} vs exact {exact}"
                );
            }
        }
    }
}
