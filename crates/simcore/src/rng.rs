//! A small deterministic PRNG.
//!
//! The simulation crates avoid a dependency on `rand` so that the exact bit
//! stream backing every experiment is pinned by this repository, not by an
//! external crate version. SplitMix64 is statistically strong enough for
//! workload jitter and tuner seeding, passes BigCrush when used this way,
//! and is four lines of code.

/// Deterministic PRNG (SplitMix64) with convenience samplers.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
    /// Cached second output of the last Box–Muller transform.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        SimRng {
            // Avoid the all-zero fixed point without changing other seeds.
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            spare_normal: None,
        }
    }

    /// Derives an independent child generator; used to give each worker or
    /// each tuner trial its own stream without coupling their consumption.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(base ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "SimRng::below(0)");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * n which is
        // immaterial for simulation workloads.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // u1 in (0,1] so ln() is finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * core::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds_and_empty_range() {
        let mut r = SimRng::new(9);
        for _ in 0..1000 {
            let x = r.uniform(3.0, 5.0);
            assert!((3.0..5.0).contains(&x));
        }
        assert_eq!(r.uniform(5.0, 3.0), 5.0);
    }

    #[test]
    fn below_covers_range_roughly_uniformly() {
        let mut r = SimRng::new(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for c in counts {
            // Each bucket should get ~10k; allow generous slack.
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut r = SimRng::new(13);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let z = r.normal();
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn fork_produces_decoupled_streams() {
        let mut parent = SimRng::new(5);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
