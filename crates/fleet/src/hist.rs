//! Fixed-bucket log2 latency histogram.
//!
//! The fleet benchmark records thousands of cycle samples
//! and must serialise byte-identical `BENCH_fleet.json` across runs, so
//! the histogram is all-integer: no floats anywhere in the record or
//! quantile paths. Buckets are logarithmic with four linear sub-buckets
//! per octave (two mantissa bits below the leading one), bounding the
//! quantile error at ~12.5% while keeping the whole table at 256
//! counters regardless of sample range.

use lz_machine::fields;
use lz_machine::json::{Json, Object};

/// Number of buckets: values 0..4 exact, then 4 sub-buckets per octave
/// up to 2^63.
const BUCKETS: usize = 256;

/// Log2 histogram with 4 sub-buckets per octave.
#[derive(Debug, Clone)]
pub struct Log2Hist {
    counts: [u64; BUCKETS],
    total: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist { counts: [0; BUCKETS], total: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// Bucket index for a value: exact below 4, then `(exponent-1)*4 +
/// two-mantissa-bits` (so 4..8 is still exact).
fn bucket_of(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize; // >= 2
    let m = ((v >> (e - 2)) & 3) as usize;
    (e - 1) * 4 + m
}

/// Lower bound of a bucket (its reported representative value).
fn bucket_floor(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let e = idx / 4 + 1;
    let m = (idx % 4) as u64;
    (1u64 << e) + (m << (e - 2))
}

impl Log2Hist {
    pub fn new() -> Self {
        Log2Hist::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn samples(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Integer mean (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.total).unwrap_or(0)
    }

    /// The `num/den` quantile as the floor of the first bucket whose
    /// cumulative count reaches it — e.g. `quantile(999, 1000)` is p999.
    /// All-integer: `cum * den >= total * num` avoids division entirely.
    pub fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let threshold = self.total as u128 * num as u128;
        let mut cum: u128 = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c as u128 * den as u128;
            if cum >= threshold {
                return bucket_floor(idx).max(self.min).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(50, 100)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(99, 100)
    }

    pub fn p999(&self) -> u64 {
        self.quantile(999, 1000)
    }
}

/// A serialisable percentile summary of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatSummary {
    pub p50: u64,
    pub p99: u64,
    pub p999: u64,
    pub max: u64,
    pub mean: u64,
    pub samples: u64,
}

impl LatSummary {
    pub fn of(h: &Log2Hist) -> Self {
        LatSummary { p50: h.p50(), p99: h.p99(), p999: h.p999(), max: h.max(), mean: h.mean(), samples: h.samples() }
    }
}

impl Json for LatSummary {
    fn write_json(&self, out: &mut String) {
        fields!(Object::new(), self; p50, p99, p999, max, mean, samples).write_json(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_floor(bucket_of(v)), v, "v = {v}");
        }
    }

    #[test]
    fn buckets_are_monotone_and_bounded() {
        let mut last = 0;
        for shift in 2..63 {
            for m in 0..4u64 {
                let v = (1u64 << shift) + (m << (shift - 2));
                let idx = bucket_of(v);
                assert!(idx >= last, "bucket index regressed at {v}");
                assert!(idx < BUCKETS);
                assert_eq!(bucket_floor(idx), v, "floor of an exact boundary");
                last = idx;
            }
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Any value maps to a bucket floor within 1/4 of itself.
        for v in [5u64, 100, 1000, 12_345, 1 << 20, (1 << 40) + 12_345] {
            let f = bucket_floor(bucket_of(v));
            assert!(f <= v && (v - f) * 4 <= v, "v = {v}, floor = {f}");
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Log2Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.p50();
        let p99 = h.p99();
        let p999 = h.p999();
        assert!((375..=500).contains(&p50), "p50 = {p50}");
        assert!((750..=990).contains(&p99), "p99 = {p99}");
        assert!(p999 >= p99 && p999 <= 1000, "p999 = {p999}");
        assert_eq!(h.max(), 1000);
        assert_eq!(h.samples(), 1000);
    }

    #[test]
    fn single_sample_quantiles_collapse() {
        let mut h = Log2Hist::new();
        h.record(777);
        assert_eq!(h.p50(), h.p999());
        assert!(h.p50() <= 777 && h.p50() >= 777 - 777 / 4);
        assert_eq!(h.max(), 777);
        assert_eq!(h.mean(), 777);
    }

    #[test]
    fn empty_hist_is_all_zero() {
        let h = Log2Hist::new();
        assert_eq!((h.p50(), h.p99(), h.p999(), h.max(), h.mean(), h.samples()), (0, 0, 0, 0, 0, 0));
    }

    #[test]
    fn summary_json_is_deterministic() {
        let mut h = Log2Hist::new();
        for v in [10u64, 20, 30, 1000] {
            h.record(v);
        }
        let a = LatSummary::of(&h).to_json();
        let b = LatSummary::of(&h).to_json();
        assert_eq!(a, b);
        assert!(a.starts_with(r#"{"p50":"#));
    }
}
