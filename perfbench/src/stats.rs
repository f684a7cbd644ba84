//! Order statistics, the percentile rule, and the output digest.

/// Percentiles the tail rule may report, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.5, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0–100, in steps of 0.1) in
/// `n` samples, in integer arithmetic so that e.g. p99.9 of 10 000 is
/// exactly rank 9 990.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000)
}

/// Nearest-rank percentile `p` (0–100) of `sorted`, which must be sorted
/// ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile of [`TAIL_PERCENTILES`] that leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, if any does.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// A sorted sample with its median and tail.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarises `values` (any order).
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Summary { sorted: values }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile; 0 for an empty sample.
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile(&self.sorted, p)
        }
    }

    /// Human-readable `p50 / p99 (n=…, tail rule: …)` line.
    pub fn describe(&self, unit: &str) -> String {
        let rule = match highest_supported_percentile(self.len()) {
            Some(p) => format!("p{p} = {:.4} {unit}", self.pct(p)),
            None => "none".to_string(),
        };
        let p99_ok =
            if beyond(self.len(), 99.0) >= MIN_BEYOND { "" } else { " [p99 under-sampled]" };
        format!(
            "p50 {:.4} / p99 {:.4} {unit} (n={}; highest percentile with >= {MIN_BEYOND} beyond: {rule}){p99_ok}",
            self.pct(50.0),
            self.pct(99.0),
            self.len()
        )
    }
}

/// 64-bit FNV-1a, the digest every session's output is folded into. Stable
/// across toolchains, unlike `std`'s default hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a number in (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(beyond(10_000, 99.9), 10);
        assert_eq!(highest_supported_percentile(2000), Some(99.5));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        // Whatever the rule picks really has >= 10 samples beyond it.
        for n in 1..3000 {
            if let Some(p) = highest_supported_percentile(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let a = Fnv::default().bytes(b"ab").finish();
        let b = Fnv::default().bytes(b"ba").finish();
        assert_ne!(a, b);
        // Reference value of FNV-1a("a").
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
