//! Open-loop arrival generation.
//!
//! A *closed-loop* driver issues the next request when the previous one
//! completes, which hides queueing delay exactly where tail latency
//! lives (coordinated omission). The fleet benchmark instead draws a
//! request arrival schedule up front from a seeded integer LCG — the
//! arrival process never looks at completions, so a saturated core
//! shows up as unbounded queue wait in p99/p999 rather than as a
//! silently reduced request rate.
//!
//! Inter-arrival gaps approximate an exponential distribution with
//! integer arithmetic only (the BENCH files must be byte-deterministic):
//! a geometric octave count from the draw's trailing zeros plus 16
//! uniform mantissa bits, scaled by `ln 2 ~= 710/1024`.

/// Deterministic 64-bit LCG (Knuth's MMIX multiplier); the high 32 bits
/// of the state are the usable draw.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point of the low bits.
        Lcg { state: seed ^ 0x9e37_79b9_7f4a_7c15 }
    }

    /// Next 32 uniform bits.
    pub fn next_u32(&mut self) -> u32 {
        self.state = lz_machine::rng::lcg(self.state);
        (self.state >> 32) as u32
    }

    /// Uniform draw in `0..n` (n > 0) via a 64-bit multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u32() as u64 * n) >> 32).min(n - 1)
    }
}

/// Open-loop arrival generator with a target mean inter-arrival gap in
/// cycles.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    lcg: Lcg,
    mean_gap: u64,
    /// Cumulative arrival clock.
    now: u64,
}

impl OpenLoop {
    pub fn new(seed: u64, mean_gap: u64) -> Self {
        OpenLoop { lcg: Lcg::new(seed), mean_gap, now: 0 }
    }

    /// Next inter-arrival gap: `(k + u) * ln2 * mean` where `k` is
    /// geometric (P(k) = 2^-(k+1), mean 1) and `u` is 16 uniform bits —
    /// an integer-only exponential approximation with mean ~= mean_gap.
    pub fn next_gap(&mut self) -> u64 {
        let r = self.lcg.next_u32();
        let k = (r | 0x8000_0000).trailing_zeros() as u64; // 0..=31, P(k)=2^-(k+1)
        let frac = (self.lcg.next_u32() >> 16) as u64; // 16 uniform bits
        let units = (k << 16) + frac; // (k + u) in 2^-16 units
        ((units as u128 * 710 * self.mean_gap as u128) >> 26) as u64
    }

    /// Absolute arrival time of the next request.
    pub fn next_arrival(&mut self) -> u64 {
        self.now += self.next_gap();
        self.now
    }

    /// Draw the full schedule for `n` requests (non-decreasing times).
    pub fn schedule(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_arrival()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = OpenLoop::new(42, 10_000).schedule(500);
        let b = OpenLoop::new(42, 10_000).schedule(500);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = OpenLoop::new(1, 10_000).schedule(100);
        let b = OpenLoop::new(2, 10_000).schedule(100);
        assert_ne!(a, b);
    }

    #[test]
    fn mean_gap_is_near_target() {
        let mut ol = OpenLoop::new(7, 10_000);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| ol.next_gap()).sum();
        let mean = total / n;
        // (k + u) has mean 1.5; times ln2 gives ~1.04 of the target.
        assert!((9_000..12_500).contains(&mean), "mean gap = {mean}");
    }

    #[test]
    fn gaps_have_an_exponential_tail() {
        let mut ol = OpenLoop::new(7, 10_000);
        let gaps: Vec<u64> = (0..20_000).map(|_| ol.next_gap()).collect();
        let long = gaps.iter().filter(|&&g| g > 30_000).count();
        let short = gaps.iter().filter(|&&g| g < 5_000).count();
        // A uniform distribution would have no 3x-mean outliers at all.
        assert!(long > 100, "tail beyond 3x mean: {long}");
        assert!(short > 4_000, "mass below half mean: {short}");
    }

    #[test]
    fn schedule_is_monotone() {
        let s = OpenLoop::new(3, 1_000).schedule(1_000);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn below_is_in_range_and_deterministic() {
        let mut a = Lcg::new(5);
        let mut b = Lcg::new(5);
        for _ in 0..1000 {
            let x = a.below(33);
            assert!(x < 33);
            assert_eq!(x, b.below(33));
        }
    }
}
