//! Order statistics over latency samples and the deterministic shuffle
//! that turns `--seed` into pass orders.

/// Percentiles the report can name, ascending.
pub const PERCENTILES: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples needed before the p99 has ten samples beyond it.
pub const MIN_TAIL_SAMPLES: usize = 1000;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=100).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// 1-based nearest rank of the `q` percentile among `n` samples. The
/// epsilon keeps `99.9 × 10000 / 100` from rounding up past 9990.
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// The highest of [`PERCENTILES`] with at least ten samples beyond it,
/// `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&q| n > 0 && samples_beyond(n, q) >= 10)
}

/// Median of unsorted values (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Splits a run's window among its activities by time share, always
/// running the one furthest behind its share. Each activity's samples then
/// spread over the whole window instead of one burst: on a shared virtual
/// machine the host's speed drifts over seconds (a `service-hot` cold pass
/// reads about 11 ms in some stretches and 17 ms in others), and a burst
/// catches only the stretch it falls in.
pub struct Shares {
    weights: Vec<f64>,
    spent: Vec<f64>,
}

impl Shares {
    /// One activity per weight; the weights need not sum to one.
    pub fn new(weights: &[f64]) -> Self {
        Shares {
            weights: weights.to_vec(),
            spent: vec![0.0; weights.len()],
        }
    }

    /// The activity furthest behind its share.
    pub fn next(&self) -> usize {
        let behind = |i: usize| self.spent[i] / self.weights[i];
        (0..self.weights.len())
            .min_by(|&a, &b| behind(a).total_cmp(&behind(b)))
            .expect("at least one activity")
    }

    /// Charges `secs` of the window to activity `i`.
    pub fn charge(&mut self, i: usize, secs: f64) {
        self.spent[i] += secs;
    }
}

/// splitmix64: a tiny, well-mixed generator, so the benchmark needs no
/// random-number crate.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    /// A shuffled `0..n`.
    pub fn order(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(MIN_TAIL_SAMPLES), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        for n in [20usize, 100, 1000, 5000, 10_000, 123_456] {
            let q = tail_percentile(n).expect("enough samples");
            assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn shares_interleave_by_weight() {
        let mut shares = Shares::new(&[1.0, 3.0]);
        let mut picks = Vec::new();
        for _ in 0..8 {
            let i = shares.next();
            shares.charge(i, 1.0);
            picks.push(i);
        }
        assert_eq!(picks.iter().filter(|&&i| i == 0).count(), 2);
        // Interleaved, not one burst per activity.
        assert_ne!(picks[..4], [1, 1, 1, 1]);
        assert_ne!(picks[4..], [1, 1, 1, 1]);
    }

    #[test]
    fn shuffle_is_seeded() {
        let a = SplitMix::new(7).order(50);
        assert_eq!(a, SplitMix::new(7).order(50));
        assert_ne!(a, SplitMix::new(8).order(50));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
