//! Exact quantiles over latency samples.
//!
//! Every latency the benchmark reports is a nearest-rank quantile of the
//! samples actually recorded — never a histogram bucket bound. Samples
//! below [`FINE_NS`] are kept as per-nanosecond counts (a sample *is* an
//! integer number of nanoseconds, so this loses nothing and keeps memory
//! constant for the sub-microsecond demand path); longer ones are kept
//! verbatim.

/// Samples below this many nanoseconds are counted per nanosecond.
pub const FINE_NS: usize = 1 << 16;

/// An exact multiset of nanosecond samples.
#[derive(Clone, Debug)]
pub struct Samples {
    fine: Vec<u32>,
    over: Vec<u64>,
    n: u64,
    sorted: bool,
}

impl Default for Samples {
    fn default() -> Self {
        Samples {
            fine: vec![0; FINE_NS],
            over: Vec::new(),
            n: 0,
            sorted: true,
        }
    }
}

impl Samples {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.fine.get_mut(ns as usize) {
            Some(count) => *count += 1,
            None => {
                self.over.push(ns);
                self.sorted = false;
            }
        }
        self.n += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Samples) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.n += other.n;
        self.sorted = false;
    }

    /// Forgets every sample, keeping the buffers.
    pub fn clear(&mut self) {
        self.fine.fill(0);
        self.over.clear();
        self.n = 0;
        self.sorted = true;
    }

    /// `[p50, p90, p99, p99.9]`, if any sample was recorded.
    pub fn quantiles(&mut self) -> Option<[u64; 4]> {
        Some([
            self.quantile(0.5)?,
            self.quantile(0.9)?,
            self.quantile(0.99)?,
            self.quantile(0.999)?,
        ])
    }

    /// The smallest sample, if any.
    pub fn min(&mut self) -> Option<u64> {
        self.quantile(0.0)
    }

    /// The nearest-rank `q`-quantile: the smallest sample such that at
    /// least `q · n` samples are at or below it (`q = 0` gives the
    /// minimum). `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        let rank = nearest_rank(self.n, q)?;
        let mut seen = 0u64;
        for (ns, &count) in self.fine.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return Some(ns as u64);
            }
        }
        if !self.sorted {
            self.over.sort_unstable();
            self.sorted = true;
        }
        Some(self.over[(rank - seen - 1) as usize])
    }
}

/// The 1-based rank of the nearest-rank `q`-quantile of `n` samples.
pub fn nearest_rank(n: u64, q: f64) -> Option<u64> {
    if n == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as u64;
    Some(rank.clamp(1, n))
}

/// Median of a list of measurements (mean of the middle pair when even).
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

/// Mean of the middle half of `values` (the interquartile mean): as
/// robust as the median to a few disturbed slices, but it averages more
/// of the undisturbed ones.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "interquartile mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_quantile(values: &mut [u64], q: f64) -> u64 {
        values.sort_unstable();
        values[nearest_rank(values.len() as u64, q).unwrap() as usize - 1]
    }

    #[test]
    fn nearest_rank_selects_exact_order_statistics() {
        assert_eq!(nearest_rank(0, 0.5), None);
        assert_eq!(nearest_rank(1, 0.99), Some(1));
        assert_eq!(nearest_rank(10, 0.0), Some(1));
        assert_eq!(nearest_rank(10, 0.5), Some(5));
        assert_eq!(nearest_rank(10, 0.9), Some(9));
        assert_eq!(nearest_rank(10, 0.91), Some(10));
        assert_eq!(nearest_rank(1000, 0.999), Some(999));
        assert_eq!(nearest_rank(10, 1.0), Some(10));
    }

    #[test]
    fn quantiles_match_sorting_across_the_fine_overflow_boundary() {
        let mut raw: Vec<u64> = Vec::new();
        let mut s = Samples::default();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Half the samples land past the per-nanosecond range.
            let v = x % (2 * FINE_NS as u64);
            raw.push(v);
            s.record(v);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(s.quantile(q), Some(sorted_quantile(&mut raw, q)), "q={q}");
        }
        assert_eq!(s.min(), raw.iter().copied().min());
    }

    #[test]
    fn merge_is_the_union_of_samples() {
        let mut a = Samples::default();
        let mut b = Samples::default();
        for v in [5, 7, 100_000] {
            a.record(v);
        }
        for v in [6, 200_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.quantile(0.5), Some(7));
        assert_eq!(a.quantile(0.8), Some(100_000));
        assert_eq!(a.quantile(1.0), Some(200_000));
        assert_eq!(a.quantiles(), Some([7, 200_000, 200_000, 200_000]));
        a.clear();
        assert_eq!(a.quantile(0.5), None);
        a.record(3);
        assert_eq!(a.quantiles(), Some([3; 4]));
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[1.0, 3.0, 2.0]), 2.0);
        // 8 values: the two lowest and two highest are dropped.
        let v = [100.0, 1.0, 4.0, 5.0, 6.0, 7.0, -50.0, 2.0];
        assert_eq!(interquartile_mean(&v), (2.0 + 4.0 + 5.0 + 6.0) / 4.0);
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
