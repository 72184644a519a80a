//! A minimal FxHash-style hasher for the decomposition hot maps.
//!
//! The decomposition front-end performs several hash-map operations per
//! flow crossing, and sweep caches hash entire member lists per cluster
//! per scenario; std's SipHash dominates those paths. This is the usual
//! multiply-rotate word hash (as used by rustc's `FxHashMap`) — not
//! DoS-resistant, which is fine for keys derived from simulation state.
//!
//! Kept on a measurement (PR 16, after the sweep cache went from four
//! hashes per profile to one): with this module's two names aliased to
//! std's `DefaultHasher` / `HashMap`, `approx_grid_1024` reads
//! `host_ns_per_unit` 354.0 [347.9, 368.6] → 409.4 [403.7, 415.0] ns
//! (+15.7 %, std wins 0 of 10 alternating pairs, `tools/ab.sh`, seed 42;
//! the medians are 55 ns apart against an inter-quartile range of 21).
//! Profiles are still hashed once per rebuilt link per scenario, and the
//! mini-simulations look a baseline up per member.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_ne_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // Pad the tail and fold the length in so "ab" and "ab\0"
            // differ.
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_ne_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed by simulation-derived data on the hot path.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_hash_distinctly() {
        let mut m: FxHashMap<(u32, u32, bool), usize> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i * 7, i % 2 == 0), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(41, 287, false)], 41);
    }

    #[test]
    fn byte_slices_hash_consistently() {
        use std::hash::Hash;
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        "same-key".hash(&mut a);
        "same-key".hash(&mut b);
        assert_eq!(a.finish(), b.finish());
    }
}
