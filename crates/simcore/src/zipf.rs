//! Zipfian key-popularity generator.
//!
//! YCSB selects keys with a Zipfian distribution (§IV-A cites Cooper et
//! al. \[11]); the synthetic µbenchmarks in this reproduction use the same
//! generator so that repeated updates exhibit the locality HOOP's GC
//! coalescing exploits (Table IV). The implementation follows the classic
//! Gray et al. rejection-free method used by YCSB itself.

use crate::rng::SimRng;

/// Default YCSB skew constant.
pub const YCSB_THETA: f64 = 0.99;

/// A Zipfian-distributed generator over `0..n`.
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
    /// `1 + 0.5^theta`: draws with `u * zetan` below it (and at least 1)
    /// return item 1.
    second_cut: f64,
}

impl Zipfian {
    /// Creates a generator over the item space `0..n` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "empty item space");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
            second_cut: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// Creates a generator with the standard YCSB skew of 0.99.
    pub fn ycsb(n: u64) -> Self {
        Self::new(n, YCSB_THETA)
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Exact sum for small n, Euler–Maclaurin style approximation beyond,
        // keeping construction O(1)-ish for the multi-gigabyte key spaces of
        // Fig. 11/12 while staying within 0.1 % of the exact value.
        const EXACT_LIMIT: u64 = 100_000;
        if n <= EXACT_LIMIT {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=EXACT_LIMIT)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum();
            let a = EXACT_LIMIT as f64;
            let b = n as f64;
            // integral of x^-theta from a to b
            head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
        }
    }

    /// Number of items in the space.
    pub fn items(&self) -> u64 {
        self.n
    }

    /// Skew constant.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws the next item index in `0..n`, most popular first.
    pub fn next(&self, rng: &mut SimRng) -> u64 {
        let u = rng.unit_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.second_cut {
            return 1;
        }
        let spread = (self.eta * u - self.eta + 1.0).max(f64::MIN_POSITIVE);
        // lint:allow(sim-state-float): the Zipf inverse-CDF is inherently
        // float math; it is a pure function of the seeded SimRng draw, so
        // results are deterministic and host-identical.
        let idx = (self.n as f64 * spread.powf(self.alpha)) as u64;
        idx.min(self.n - 1)
    }

    /// Draws an item and scrambles it across the space (YCSB's
    /// `ScrambledZipfian`), so popular items are spread over the address
    /// space instead of clustering at low indices.
    pub fn next_scrambled(&self, rng: &mut SimRng) -> u64 {
        let raw = self.next(rng);
        // Fibonacci hashing keeps the mapping bijective enough in practice
        // for popularity spreading (collisions merely merge popularity).
        raw.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.n
    }

    /// The probability of the most popular item (useful in tests).
    pub fn p_first(&self) -> f64 {
        1.0 / self.zetan
    }

    /// Internal zeta(2) accessor kept for diagnostics.
    #[doc(hidden)]
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_is_heavy() {
        let z = Zipfian::ycsb(1000);
        let mut rng = SimRng::seed(9);
        let mut head = 0u64;
        const DRAWS: u64 = 20_000;
        for _ in 0..DRAWS {
            if z.next(&mut rng) < 10 {
                head += 1;
            }
        }
        // With theta=0.99 and n=1000 the top-10 mass is roughly 40-50 %.
        let frac = head as f64 / DRAWS as f64;
        assert!(frac > 0.30 && frac < 0.65, "head mass {frac}");
    }

    #[test]
    fn all_draws_in_range() {
        let z = Zipfian::new(37, 0.5);
        let mut rng = SimRng::seed(2);
        for _ in 0..5000 {
            assert!(z.next(&mut rng) < 37);
            assert!(z.next_scrambled(&mut rng) < 37);
        }
    }

    #[test]
    fn p_first_matches_empirical() {
        let z = Zipfian::ycsb(100);
        let mut rng = SimRng::seed(5);
        const DRAWS: u64 = 50_000;
        let zeros = (0..DRAWS).filter(|_| z.next(&mut rng) == 0).count();
        let emp = zeros as f64 / DRAWS as f64;
        assert!((emp - z.p_first()).abs() < 0.02, "{emp} vs {}", z.p_first());
    }

    #[test]
    fn approximate_zeta_is_close() {
        // Compare the approximated zeta for a value just above the exact
        // limit with a brute-force sum.
        let n = 120_000u64;
        let theta = 0.99;
        let exact: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let approx = Zipfian::zeta(n, theta);
        assert!((exact - approx).abs() / exact < 1e-3);
    }

    /// The exact normalisation is the plain left-to-right sum, bit for bit.
    #[test]
    fn zetan_is_the_direct_sum() {
        for (n, theta) in [(32_768u64, 0.99), (4096, 0.99), (37, 0.5)] {
            let direct: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let z = Zipfian::new(n, theta);
            assert_eq!(z.zetan.to_bits(), direct.to_bits(), "n={n}");
            assert_eq!(z.p_first().to_bits(), (1.0 / direct).to_bits());
        }
    }

    /// A clone of a used generator draws exactly what a freshly
    /// normalised one draws: the generator keeps no state between draws.
    #[test]
    fn clone_draws_like_a_fresh_generator() {
        let shared = Zipfian::ycsb(32_768);
        let mut warm = SimRng::seed(1);
        for _ in 0..100 {
            shared.next(&mut warm);
        }
        let clone = shared.clone();
        let fresh = Zipfian::ycsb(32_768);
        let (mut a, mut b) = (SimRng::seed(11), SimRng::seed(11));
        for _ in 0..10_000 {
            assert_eq!(clone.next(&mut a), fresh.next(&mut b));
        }
    }

    #[test]
    #[should_panic]
    fn zero_items_panics() {
        let _ = Zipfian::new(0, 0.5);
    }
}
