//! Deterministic random number generation and sampling.
//!
//! A self-contained xoshiro256++ implementation (seeded through SplitMix64)
//! keeps the whole workspace deterministic and independent of external RNG
//! crate version bumps. The distributions provided are exactly those the
//! paper's workloads need:
//!
//! * uniform integers/floats — object selection, port selection;
//! * exponential — Poisson inter-arrival times for offered-load sweeps;
//! * [`EmpiricalCdf`] — message-size sampling from application CDF profiles
//!   (the paper's §A.3.4 trace-generation method);
//! * Zipf — skewed key popularity for the YCSB key-value workloads.

use crate::time::Duration;

/// A seedable xoshiro256++ pseudo-random generator.
///
/// ```
/// use edm_sim::Rng;
/// let mut a = Rng::seed_from(42);
/// let mut b = Rng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Creates the generator for one *substream* of a seed: a splittable
    /// stream derivation that depends only on `(seed, stream)`, never on
    /// draw order or on how many sibling streams exist.
    ///
    /// This is what keeps parallel or sharded generation deterministic:
    /// give each independent entity (a workload's source node, a fabric
    /// link) its own stream index and the generated sequence is
    /// identical no matter how the entities are chunked across threads
    /// or shards.
    ///
    /// ```
    /// use edm_sim::Rng;
    /// let mut a = Rng::stream(42, 3);
    /// let mut b = Rng::stream(42, 3);
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// assert_ne!(Rng::stream(42, 3).next_u64(), Rng::stream(42, 4).next_u64());
    /// ```
    pub fn stream(seed: u64, stream: u64) -> Self {
        // Decorrelate the stream index through one SplitMix64 round
        // before folding it into the seed, so adjacent indices land in
        // unrelated regions of the seed space.
        let mut sm = stream.wrapping_add(0xA0761D6478BD642F);
        Rng::seed_from(seed ^ splitmix64(&mut sm))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`, bias-free via rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's method with rejection to remove modulo bias.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Avoid ln(0) by using (1 - u) in (0, 1].
        -mean * (1.0 - self.f64()).ln()
    }

    /// Exponentially distributed duration (Poisson inter-arrival gap).
    pub fn exp_duration(&mut self, mean: Duration) -> Duration {
        Duration::from_ps(self.exponential(mean.as_ps() as f64).round() as u64)
    }

    /// Random permutation index sequence (Fisher–Yates shuffle).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.below(items.len() as u64) as usize]
    }
}

/// An inverse-transform sampler over an empirical CDF of message sizes.
///
/// This mirrors the paper's trace-generation method (§A.3.4): given CDF
/// control points `(size, cumulative_probability)`, samples are drawn by
/// inverting the CDF with log-linear interpolation between points, which is
/// the standard approach for heavy-tailed flow-size CDFs.
///
/// ```
/// use edm_sim::rng::{EmpiricalCdf, Rng};
/// let cdf = EmpiricalCdf::new(vec![(64, 0.5), (1024, 0.9), (65536, 1.0)]).unwrap();
/// let mut rng = Rng::seed_from(1);
/// let s = cdf.sample(&mut rng);
/// assert!((64..=65536).contains(&s));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    /// (value, cumulative probability), strictly increasing in both fields,
    /// last probability == 1.0.
    points: Vec<(u64, f64)>,
}

/// Error constructing an [`EmpiricalCdf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdfError {
    /// No control points were supplied.
    Empty,
    /// Values or probabilities are not strictly increasing.
    NotMonotone,
    /// The final cumulative probability is not 1.0.
    DoesNotReachOne,
}

impl std::fmt::Display for CdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CdfError::Empty => write!(f, "empirical CDF needs at least one point"),
            CdfError::NotMonotone => write!(f, "CDF points must be strictly increasing"),
            CdfError::DoesNotReachOne => write!(f, "final CDF probability must be 1.0"),
        }
    }
}

impl std::error::Error for CdfError {}

impl EmpiricalCdf {
    /// Builds a CDF from `(value, cumulative_probability)` control points.
    ///
    /// # Errors
    ///
    /// Returns an error if points are empty, not strictly increasing, or the
    /// final probability is not 1.0.
    pub fn new(points: Vec<(u64, f64)>) -> Result<Self, CdfError> {
        if points.is_empty() {
            return Err(CdfError::Empty);
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 || w[1].1 <= w[0].1 {
                return Err(CdfError::NotMonotone);
            }
        }
        if (points.last().unwrap().1 - 1.0).abs() > 1e-9 {
            return Err(CdfError::DoesNotReachOne);
        }
        Ok(EmpiricalCdf { points })
    }

    /// Draws one sample by inverse-transform with log-linear interpolation.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        self.quantile(u)
    }

    /// The value at cumulative probability `u` (clamped to `[0, 1]`).
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let mut prev = (self.points[0].0, 0.0f64);
        for &(v, p) in &self.points {
            if u <= p {
                let (v0, p0) = prev;
                if p <= p0 + 1e-12 || v0 == v {
                    return v;
                }
                let frac = (u - p0) / (p - p0);
                // Log-linear interpolation in value space (sizes span orders
                // of magnitude in heavy-tailed workloads).
                let lv0 = (v0.max(1)) as f64;
                let lv1 = v as f64;
                let val = (lv0.ln() + frac * (lv1.ln() - lv0.ln())).exp();
                return val.round().max(1.0) as u64;
            }
            prev = (v, p);
        }
        self.points.last().unwrap().0
    }

    /// Mean of the distribution, estimated by trapezoidal integration of the
    /// quantile function (adequate for load calibration).
    pub fn mean(&self) -> f64 {
        let steps = 10_000;
        let mut acc = 0.0;
        for i in 0..steps {
            let u = (i as f64 + 0.5) / steps as f64;
            acc += self.quantile(u) as f64;
        }
        acc / steps as f64
    }

    /// The maximum value in the support.
    pub fn max_value(&self) -> u64 {
        self.points.last().unwrap().0
    }
}

/// A Zipf-distributed sampler over `[0, n)` with exponent `theta`.
///
/// Used for skewed key popularity in the YCSB workloads. Implements the
/// rejection-inversion method of Hörmann–Derflinger, which needs no O(n)
/// precomputation.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: u64,
    theta: f64,
    // Precomputed constants for rejection-inversion.
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    /// Creates a Zipf sampler over `n` items with skew `theta` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0,1), got {theta}"
        );
        let h = |x: f64| ((1.0 - theta) * x.ln()).exp() / (1.0 - theta) * x.powf(-theta) * x;
        // Standard helper: H(x) = x^(1-theta) / (1-theta)
        let cap_h = |x: f64| x.powf(1.0 - theta) / (1.0 - theta);
        let _ = h;
        let h_x1 = cap_h(1.5) - 1.0;
        let h_n = cap_h(n as f64 + 0.5);
        let s = 2.0 - {
            // H^-1(H(2.5) - 2^-theta) (constant from the algorithm)
            let x = cap_h(2.5) - (2.0f64).powf(-theta);
            (x * (1.0 - theta)).powf(1.0 / (1.0 - theta))
        };
        Zipf {
            n,
            theta,
            h_x1,
            h_n,
            s,
        }
    }

    /// Draws a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let cap_h_inv = |x: f64| (x * (1.0 - self.theta)).powf(1.0 / (1.0 - self.theta));
        let cap_h = |x: f64| x.powf(1.0 - self.theta) / (1.0 - self.theta);
        loop {
            let u = self.h_x1 + rng.f64() * (self.h_n - self.h_x1);
            let x = cap_h_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if (k - x).abs() <= self.s || u >= cap_h(k + 0.5) - (-(k.ln() * self.theta)).exp() {
                return k as u64 - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::seed_from(7);
        let mut b = Rng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_stays_in_bounds_and_covers() {
        let mut rng = Rng::seed_from(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from(2);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = Rng::seed_from(3);
        let n = 200_000;
        let mean = 50.0;
        let total: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let emp = total / n as f64;
        assert!(
            (emp - mean).abs() / mean < 0.02,
            "empirical mean {emp} too far from {mean}"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(4);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn cdf_validation() {
        assert_eq!(EmpiricalCdf::new(vec![]).unwrap_err(), CdfError::Empty);
        assert_eq!(
            EmpiricalCdf::new(vec![(10, 0.5), (5, 1.0)]).unwrap_err(),
            CdfError::NotMonotone
        );
        assert_eq!(
            EmpiricalCdf::new(vec![(10, 0.5), (20, 0.8)]).unwrap_err(),
            CdfError::DoesNotReachOne
        );
        assert!(EmpiricalCdf::new(vec![(10, 1.0)]).is_ok());
    }

    #[test]
    fn cdf_sample_within_support() {
        let cdf = EmpiricalCdf::new(vec![(64, 0.3), (512, 0.7), (16384, 1.0)]).unwrap();
        let mut rng = Rng::seed_from(5);
        for _ in 0..10_000 {
            let s = cdf.sample(&mut rng);
            assert!((1..=16384).contains(&s));
        }
    }

    #[test]
    fn cdf_quantile_hits_control_points() {
        let cdf = EmpiricalCdf::new(vec![(64, 0.25), (1024, 1.0)]).unwrap();
        assert_eq!(cdf.quantile(0.25), 64);
        assert_eq!(cdf.quantile(1.0), 1024);
        assert_eq!(cdf.quantile(0.0), 64);
        let mid = cdf.quantile(0.625); // halfway between control points
        assert!(mid > 64 && mid < 1024);
    }

    #[test]
    fn cdf_mean_reasonable() {
        // Single-point CDF: all mass at 100.
        let cdf = EmpiricalCdf::new(vec![(100, 1.0)]).unwrap();
        assert!((cdf.mean() - 100.0).abs() < 1.0);
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = Rng::seed_from(6);
        let n = 100_000;
        let mut top10 = 0u32;
        for _ in 0..n {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                top10 += 1;
            }
        }
        // With theta=0.9 the top-10 of 1000 items should draw a large share.
        assert!(
            top10 as f64 / n as f64 > 0.3,
            "top-10 share {} too small",
            top10 as f64 / n as f64
        );
    }

    #[test]
    fn exp_duration_zero_mean_guard() {
        let mut rng = Rng::seed_from(9);
        let d = rng.exp_duration(crate::time::Duration::from_ns(100));
        assert!(d.as_ps() < 10_000_000); // sanity: not absurd
    }
}
