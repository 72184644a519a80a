//! YCSB key-value workload definitions (Figures 6 and 7).
//!
//! The cloud-serving benchmark of Cooper et al. \[18\], as the paper uses
//! it: workload A is 50% updates, B is 5%, F is read-modify-write (which
//! the paper counts as 33% writes). Reads fetch 1 KB objects with an 8 B
//! request; updates carry 100 B. Key popularity is Zipf-skewed, matching
//! YCSB's default request distribution.
//!
//! A definition is data only: ops are sampled from it by the closed
//! loop's [`crate::OpMix::sample`], the one YCSB sampler.

/// A YCSB workload definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YcsbWorkload {
    /// Workload label, e.g. `"A"`.
    pub name: &'static str,
    /// Fraction of operations that are updates.
    pub update_fraction: f64,
    /// Number of distinct keys.
    pub keys: u64,
    /// Object size returned by reads (1 KB in §4.2.2).
    pub object_bytes: u32,
    /// Update payload size (100 B in §4.2.2).
    pub update_bytes: u32,
    /// Zipf skew (YCSB default 0.99 is outside our sampler's (0,1) range;
    /// 0.9 preserves the hot-key behaviour).
    pub zipf_theta: f64,
}

impl YcsbWorkload {
    fn base(name: &'static str, update_fraction: f64) -> Self {
        YcsbWorkload {
            name,
            update_fraction,
            keys: 100_000,
            object_bytes: 1024,
            update_bytes: 100,
            zipf_theta: 0.9,
        }
    }

    /// Workload A: 50% reads / 50% updates.
    pub fn a() -> Self {
        Self::base("A", 0.5)
    }

    /// Workload B: 95% reads / 5% updates.
    pub fn b() -> Self {
        Self::base("B", 0.05)
    }

    /// Workload F: read-modify-write; the paper counts it as 33% writes.
    pub fn f() -> Self {
        Self::base("F", 0.33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpKind, OpMix, TenantOp};
    use edm_sim::rng::Zipf;
    use edm_sim::Rng;

    /// Samples `count` ops of `wl` as a fully-remote mix, from `seed`.
    fn sample(wl: YcsbWorkload, count: usize, seed: u64) -> Vec<TenantOp> {
        let mix = OpMix::remote(wl);
        let zipf = Zipf::new(wl.keys, wl.zipf_theta);
        let mut rng = Rng::seed_from(seed);
        (0..count).map(|_| mix.sample(&zipf, &mut rng)).collect()
    }

    #[test]
    fn mix_fractions_match_definitions() {
        for (wl, want) in [
            (YcsbWorkload::a(), 0.5),
            (YcsbWorkload::b(), 0.05),
            (YcsbWorkload::f(), 0.33),
        ] {
            let ops = sample(wl, 20_000, 1);
            let updates = ops.iter().filter(|o| o.kind == OpKind::Update).count();
            let frac = updates as f64 / ops.len() as f64;
            assert!(
                (frac - want).abs() < 0.02,
                "workload {}: update fraction {frac} vs {want}",
                wl.name
            );
        }
    }

    #[test]
    fn keys_are_zipf_skewed() {
        let ops = sample(YcsbWorkload::a(), 50_000, 2);
        let hot = ops.iter().filter(|o| o.key < 100).count();
        // Top-100 of 100k keys must receive far more than the uniform
        // share (0.1%).
        assert!(
            hot as f64 / ops.len() as f64 > 0.05,
            "hot-key share {}",
            hot as f64 / ops.len() as f64
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = sample(YcsbWorkload::f(), 100, 3);
        let b = sample(YcsbWorkload::f(), 100, 3);
        assert_eq!(a, b);
        assert_ne!(a, sample(YcsbWorkload::f(), 100, 4));
    }

    #[test]
    fn keys_in_range() {
        let wl = YcsbWorkload::b();
        for op in sample(wl, 10_000, 5) {
            assert!(op.key < wl.keys);
        }
    }
}
