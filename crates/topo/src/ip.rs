//! Background IP traffic sharing egress ports with memory traffic.
//!
//! EDM multiplexes scheduled memory blocks with regular Ethernet frames on
//! the same links (§3.2.3): with intra-frame preemption, a memory block
//! waits at most one 66-bit block time behind an in-flight IP frame. This
//! module models that interference deterministically: each link carries
//! an independent Poisson process of MTU-sized IP frames at a configured
//! fraction of its capacity ([`crate::TopoEdmConfig::ip`]), realized
//! lazily from a per-link RNG stream, and each memory-chunk crossing is
//! charged the residual occupancy it observes, cut at the next block
//! boundary. (Plain priority queueing, which waits out the frame, is
//! contrasted with preemption at the PHY by the `preemption` experiment.)
//!
//! The model is interference-only in the memory→IP direction: memory
//! chunks never push IP frames back (under preemption EDM wins the link by
//! construction; the IP goodput loss is reported by the §4.2.1 preemption
//! harness instead).
//!
//! Lanes are *directional on trunks*: a full-duplex inter-switch link
//! carries an independent frame process per direction, keyed by the
//! granting switch's side. This is both physically faithful and what
//! makes the model shard-partitionable — each directional lane is only
//! ever touched by the one switch (hence one shard) that grants onto
//! it. Host access links keep a single lane (both its crossings are
//! charged by the same leaf switch).

use edm_sim::{Bandwidth, Duration, Rng, Time};

/// IP frame size in bytes: MTU-sized.
const FRAME_BYTES: u64 = 1500;

/// Seed for the per-link frame processes.
const SEED: u64 = 0x1b;

/// Lazily-materialized per-link frame process.
#[derive(Debug, Clone)]
struct Lane {
    rng: Rng,
    next_frame: Time,
    busy_until: Time,
}

/// The fabric-wide interference model: one independent lane per
/// (link, direction).
#[derive(Debug)]
pub(crate) struct IpModel {
    /// Fraction of each link's capacity offered as IP frames.
    fraction: f64,
    /// Two lane slots per link (`link * 2 + side`); access links only
    /// ever use side 0, trunk sides are keyed by the granting switch.
    lanes: Vec<Option<Lane>>,
    frames: u64,
    delayed: u64,
}

impl IpModel {
    pub(crate) fn new(fraction: f64, link_count: usize) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "IP fraction must be in [0, 1), got {fraction}"
        );
        IpModel {
            fraction,
            lanes: vec![None; link_count * 2],
            frames: 0,
            delayed: 0,
        }
    }

    /// IP frames generated so far (on lanes this model instance owns).
    pub(crate) fn frames(&self) -> u64 {
        self.frames
    }

    /// Chunk crossings that hit an in-flight frame.
    pub(crate) fn delayed(&self) -> u64 {
        self.delayed
    }

    /// The extra latency a memory chunk crossing `link` (direction
    /// `side`) at `at` observes. The lane's frame stream is a pure
    /// function of `(link, side)`, never of which model instance
    /// or shard materializes it.
    pub(crate) fn crossing_delay(
        &mut self,
        link: u32,
        side: u8,
        at: Time,
        bw: Bandwidth,
    ) -> Duration {
        if self.fraction <= 0.0 {
            return Duration::ZERO;
        }
        let frame_tx = bw.tx_time_bytes(FRAME_BYTES);
        // Offered fraction f at mean inter-arrival gap = frame_tx / f.
        let gap = Duration::from_ps((frame_tx.as_ps() as f64 / self.fraction).round() as u64);
        let lane = self.lanes[link as usize * 2 + side as usize].get_or_insert_with(|| {
            let stream = (link as u64) << 1 | side as u64;
            let mut rng = Rng::stream(SEED, stream);
            let first = Time::ZERO + rng.exp_duration(gap);
            Lane {
                rng,
                next_frame: first,
                busy_until: Time::ZERO,
            }
        });
        while lane.next_frame <= at {
            lane.busy_until = lane.busy_until.max(lane.next_frame) + frame_tx;
            lane.next_frame += lane.rng.exp_duration(gap);
            self.frames += 1;
        }
        if lane.busy_until > at {
            self.delayed += 1;
            // Preempt at the next 66-bit block boundary.
            lane.busy_until
                .saturating_since(at)
                .min(bw.tx_time_bits(66))
        } else {
            Duration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fraction_is_free() {
        let mut m = IpModel::new(0.0, 4);
        let bw = Bandwidth::from_gbps(100);
        assert_eq!(m.crossing_delay(0, 0, Time::from_us(3), bw), Duration::ZERO);
        assert_eq!(m.frames(), 0);
    }

    #[test]
    fn preemption_bounds_delay_to_one_block() {
        let mut m = IpModel::new(0.8, 1);
        let bw = Bandwidth::from_gbps(100);
        let block = bw.tx_time_bits(66);
        let mut hit = false;
        for ns in (0..20_000).step_by(37) {
            let d = m.crossing_delay(0, 0, Time::from_ns(ns), bw);
            assert!(d <= block, "delay {d} exceeds a block time {block}");
            hit |= d > Duration::ZERO;
        }
        assert!(hit, "a busy link must delay some crossings");
        assert!(m.frames() > 0);
    }

    #[test]
    fn lanes_are_independent_and_deterministic() {
        let bw = Bandwidth::from_gbps(100);
        let sample = |link: u32, side: u8| {
            let mut m = IpModel::new(0.5, 4);
            (0..2_000)
                .step_by(11)
                .map(|ns| m.crossing_delay(link, side, Time::from_ns(ns), bw).as_ps())
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(1, 0), sample(1, 0), "deterministic per lane");
        assert_ne!(sample(1, 0), sample(2, 0), "independent across links");
        assert_ne!(sample(1, 0), sample(1, 1), "independent across directions");
    }

    #[test]
    fn lanes_do_not_depend_on_the_materializing_instance() {
        // Two model instances each driving a disjoint lane subset see
        // exactly the streams one instance driving both would see — the
        // property that lets shards own disjoint lane sets.
        let bw = Bandwidth::from_gbps(100);
        let mut whole = IpModel::new(0.5, 2);
        let mut part_a = IpModel::new(0.5, 2);
        let mut part_b = IpModel::new(0.5, 2);
        let mut frames_whole = Vec::new();
        let mut frames_split = Vec::new();
        for ns in (0..3_000).step_by(17) {
            let t = Time::from_ns(ns);
            frames_whole.push(whole.crossing_delay(0, 0, t, bw).as_ps());
            frames_whole.push(whole.crossing_delay(1, 1, t, bw).as_ps());
            frames_split.push(part_a.crossing_delay(0, 0, t, bw).as_ps());
            frames_split.push(part_b.crossing_delay(1, 1, t, bw).as_ps());
        }
        assert_eq!(frames_whole, frames_split);
        assert_eq!(whole.frames(), part_a.frames() + part_b.frames());
        assert_eq!(whole.delayed(), part_a.delayed() + part_b.delayed());
    }
}
