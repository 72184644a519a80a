//! Representative clustering: one replay serves every link whose flow
//! profile falls in the same quantized feature bucket.
//!
//! Exact-equality dedup ([`crate::decompose::bucket`]) finds almost
//! nothing to share on a busy fabric — two links' member lists must agree
//! crossing for crossing — so a scenario replays nearly one
//! mini-simulation per populated directed link. Parsimon makes clustering
//! pluggable (`ClusteringAlgo`), with the 1:1 link→cluster map only its
//! default; this module is EDM's non-trivial one.
//!
//! A cluster's [`RepKey`] keeps exact what sets a crossing's unloaded
//! service (the crossing triple and the largest message) and quantizes
//! what sets its queueing: member count, distinct source and destination
//! ports, and mean arrival gap on a log scale, the trunk-limit share in
//! quarters. The key's representative is a synthetic
//! profile built from the key *alone* ([`RepKey::profile`], every draw
//! seeded by the key's hash), replayed once through the unchanged
//! [`crate::linksim`] path. A member then reads the representative's
//! excess at its own arrival rank, scaled ([`by_rank`]).
//!
//! Building the representative from the key, not from whichever real
//! cluster first landed in the bucket, keeps an estimate a pure function
//! of its scenario: a cluster's delays depend on its own profile, never on
//! which scenarios a [`crate::SweepCache`] served before. Fixed buckets
//! rather than greedy grouping keep that order-independence too — a
//! greedy pass that grows groups around the profiles seen so far assigns
//! a profile to a different group depending on arrival order.

use std::hash::{Hash, Hasher};

use crate::decompose::{ClusterProfile, LinkFlow};
use crate::fxhash::FxHasher;
use edm_sim::{Bandwidth, Duration, Rng, Time};
use edm_topo::{TopoEdmConfig, TRUNK_MAX_ACTIVE_PER_PAIR};

/// Sub-buckets per octave for the member and port counts; the mean gap
/// is bucketed at half of it. Chosen from the measured curve (replays
/// per grid rep and overlap-point p99 error at exact, 16, 8, 4 and 2 —
/// see the ignored `resolution_curve` test in the crate root).
pub(crate) const RESOLUTION: u32 = 4;

/// The floor of `x`'s bucket at `r` sub-buckets per octave (`r` a power
/// of two), and the bucket's width. An octave narrower than `r` units
/// has one-unit buckets, so small counts stay exact.
fn quantize(x: u64, r: u32) -> (u64, u64) {
    debug_assert!(r.is_power_of_two());
    if x == 0 {
        return (0, 1);
    }
    let octave = 1u64 << (63 - x.leading_zeros());
    let width = (octave >> r.trailing_zeros()).max(1);
    (x & !(width - 1), width)
}

/// `count` of `of` members in quarters, rounded to the nearest.
fn quarters(count: usize, of: usize) -> u8 {
    ((8 * count + of) / (2 * of)) as u8
}

/// A cluster's quantized features: profiles with equal keys share one
/// representative replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RepKey {
    sched_bandwidth: Bandwidth,
    link_bandwidth: Bandwidth,
    latency: Duration,
    /// Largest member message, exact.
    bytes: u32,
    /// Bucket floors of the member, source-port and destination-port
    /// counts.
    members: u32,
    srcs: u16,
    dsts: u16,
    /// Centre of the mean arrival gap's bucket, in ps.
    mean_gap_ps: u64,
    /// Members with the trunk per-pair limit, in quarters of the
    /// cluster.
    trunk: u8,
}

impl RepKey {
    /// `profile`'s key at `resolution` sub-buckets per octave. A member
    /// counts as trunk-limited when its limit is the trunk limit.
    pub(crate) fn of(profile: &ClusterProfile, resolution: u32) -> Self {
        let m = profile.members.len();
        let trunk_limit = TRUNK_MAX_ACTIVE_PER_PAIR as u32;
        let (mut first, mut last) = (Time::MAX, Time::ZERO);
        let (mut bytes, mut trunk) = (0, 0);
        for lf in &profile.members {
            first = first.min(lf.arrival);
            last = last.max(lf.arrival);
            bytes = bytes.max(lf.bytes);
            trunk += (lf.limit == trunk_limit) as usize;
        }
        let gap = match m {
            0 | 1 => 0,
            _ => last.saturating_since(first).as_ps() / (m as u64 - 1),
        };
        let count = |x: usize| quantize(x as u64, resolution).0;
        let (gap_floor, gap_width) = quantize(gap, (resolution / 2).max(1));
        RepKey {
            sched_bandwidth: profile.sched_bandwidth,
            link_bandwidth: profile.link_bandwidth,
            latency: profile.latency,
            bytes,
            members: count(m) as u32,
            srcs: count(profile.srcs as usize) as u16,
            dsts: count(profile.dsts as usize) as u16,
            mean_gap_ps: gap_floor + gap_width / 2,
            trunk: quarters(trunk, m),
        }
    }

    /// The synthetic profile this key stands for, built from the key
    /// alone: bucket-floor member and port counts; the first `srcs` /
    /// `dsts` members take distinct ports, the rest uniform draws;
    /// exponential gaps scaled to span `members − 1` times the mean
    /// gap; the trunk-limit share as quartered, on random members.
    /// Arrivals never decrease, so member order is arrival rank.
    ///
    /// The gaps are scaled because the key holds the cluster's mean gap
    /// over its own first-to-last span: a Poisson stream conditioned on
    /// its first and last arrival has exactly these normalized
    /// exponential spacings. Unscaled draws vary more than that and
    /// queue more — with every feature exact, they put the mean excess
    /// of the 288-node, 4 KiB, load-0.7 overlap point 40–70 % above the
    /// replayed clusters', the scaled ones within 10 %.
    pub(crate) fn profile(&self, cfg: &TopoEdmConfig) -> ClusterProfile {
        let mut h = FxHasher::default();
        self.hash(&mut h);
        // The key once ended in a §3.1.2 batching share that was always
        // 0: hashing that 0 keeps every representative's seed, and so
        // its draws, as they were.
        h.write_u8(0);
        let mut rng = Rng::seed_from(h.finish());
        let m = self.members as usize;
        let (srcs, dsts) = (self.srcs as u64, self.dsts as u64);
        let span = self.mean_gap_ps as f64 * m.saturating_sub(1) as f64;
        let gaps: Vec<f64> = (1..m).map(|_| rng.exponential(1.0)).collect();
        let total: f64 = gaps.iter().sum();
        let mut sum = 0.0;
        let mut members: Vec<LinkFlow> = (0..m as u64)
            .map(|i| {
                if i > 0 {
                    sum += gaps[i as usize - 1];
                }
                let offset = if span > 0.0 { sum / total * span } else { 0.0 };
                let port = |rng: &mut Rng, n: u64| (if i < n { i } else { rng.below(n) }) as u16;
                LinkFlow {
                    arrival: Time::ZERO + Duration::from_ps(offset.round() as u64),
                    bytes: self.bytes,
                    src: port(&mut rng, srcs),
                    dst: port(&mut rng, dsts),
                    limit: cfg.max_active_per_pair as u32,
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..m).collect();
        rng.shuffle(&mut order);
        let share = |q: u8| (q as usize * m + 2) / 4;
        for &i in &order[..share(self.trunk)] {
            members[i].limit = TRUNK_MAX_ACTIVE_PER_PAIR as u32;
        }
        ClusterProfile {
            sched_bandwidth: self.sched_bandwidth,
            link_bandwidth: self.link_bandwidth,
            latency: self.latency,
            srcs: self.srcs,
            dsts: self.dsts,
            members,
        }
    }
}

/// `profile`'s per-member excesses read off a representative's
/// (`rep`, in arrival-rank order): members sorted by `(arrival, index)`,
/// the one of rank `k` reads `rep[⌊k·m̂/m⌋]`.
pub(crate) fn by_rank(profile: &ClusterProfile, rep: &[Duration]) -> Box<[Duration]> {
    let m = profile.members.len();
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_unstable_by_key(|&i| (profile.members[i as usize].arrival, i));
    let mut excess = vec![Duration::ZERO; m].into_boxed_slice();
    for (k, &i) in order.iter().enumerate() {
        excess[i as usize] = rep[k * rep.len() / m];
    }
    excess
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_below_the_resolution_and_log_above() {
        for x in 0..8 {
            assert_eq!(quantize(x, 4), (x, 1));
        }
        // Octave [8, 16) at 4 per octave: widths of 2.
        assert_eq!(quantize(9, 4), (8, 2));
        assert_eq!(quantize(15, 4), (14, 2));
        // Octave [4096, 8192): widths of 1024.
        assert_eq!(quantize(4096 + 1500, 4), (4096 + 1024, 1024));
        // One sub-bucket per octave: the power of two below.
        assert_eq!(quantize(100, 1), (64, 64));
        assert_eq!(quarters(1, 10), 0);
        assert_eq!(quarters(2, 10), 1);
        assert_eq!(quarters(10, 10), 4);
    }

    fn member(at_ns: u64, src: u16, dst: u16, limit: u32) -> LinkFlow {
        LinkFlow {
            arrival: Time::ZERO + Duration::from_ns(at_ns),
            bytes: 64,
            src,
            dst,
            limit,
        }
    }

    fn profile(members: Vec<LinkFlow>) -> ClusterProfile {
        let srcs = members.iter().map(|m| m.src).max().unwrap_or(0) + 1;
        let dsts = members.iter().map(|m| m.dst).max().unwrap_or(0) + 1;
        ClusterProfile {
            sched_bandwidth: Bandwidth::from_gbps(100),
            link_bandwidth: Bandwidth::from_gbps(100),
            latency: Duration::from_ns(10),
            srcs,
            dsts,
            members,
        }
    }

    #[test]
    fn representative_honours_its_key() {
        let cfg = TopoEdmConfig::default();
        let members: Vec<LinkFlow> = (0..37u16)
            .map(|i| {
                member(
                    i as u64 * 30,
                    i % 11,
                    i % 5,
                    if i % 2 == 0 { 16 } else { 3 },
                )
            })
            .collect();
        let key = RepKey::of(&profile(members), 4);
        // 37 → 32, 11 → 10, 5 stays; gap 30 ns at 2 per octave lands in
        // [24 576, 32 768) ps; 19 of 37 trunk-limited is two quarters.
        assert_eq!((key.members, key.srcs, key.dsts), (32, 10, 5));
        assert_eq!(key.mean_gap_ps, 24_576 + 4_096);
        assert_eq!(key.trunk, 2);
        let rep = key.profile(&cfg);
        assert_eq!(rep.members.len(), 32);
        assert_eq!((rep.srcs, rep.dsts), (10, 5));
        assert!(rep.members.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let trunk = rep.members.iter().filter(|m| m.limit == 16).count();
        assert_eq!(trunk, 16);
        // Built from the key alone: the same key, the same profile.
        assert_eq!(key.profile(&cfg), rep);
        assert_eq!(RepKey::of(&rep, 4).members, key.members);
    }

    #[test]
    fn members_read_the_representative_by_arrival_rank() {
        // Arrivals out of index order, one tie: rank follows (arrival, index).
        let p = profile(vec![
            member(50, 0, 0, 3),
            member(10, 0, 0, 3),
            member(30, 0, 0, 3),
            member(10, 0, 0, 3),
        ]);
        let rep: Vec<Duration> = (0..2).map(Duration::from_ns).collect();
        let got = by_rank(&p, &rep);
        // Ranks: idx1 → 0, idx3 → 1, idx2 → 2, idx0 → 3; ⌊k·2/4⌋.
        let ns: Vec<u64> = got.iter().map(|d| d.as_ns()).collect();
        assert_eq!(ns, vec![1, 0, 1, 0]);
    }
}
