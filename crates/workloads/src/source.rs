//! Streaming flow sources: pull-based, time-ordered arrival generation
//! in O(active generators) memory.
//!
//! A simulation *pulls* the next arrival when it is ready to admit it,
//! so the generator holds only one pending arrival per compute node
//! however many flows it emits. A materialized flow list
//! ([`crate::SyntheticWorkload::generate`],
//! [`crate::RackAwareWorkload::generate`]) is the same stream, collected.
//!
//! [`MergeSource`] is a k-way heap merge of per-node Poisson streams:
//! each compute node draws from its own splittable [`Rng::stream`]
//! substream, and the heap, keyed by `(arrival, node)`, emits flows in
//! exactly the order a batch generator's stable `sort_by_key((at, node))`
//! over every node's arrivals would produce. Because one candidate per
//! node is in the heap at a time and each node's arrivals are
//! nondecreasing, the heap order *is* the sorted order, dense ids
//! included — the `prop_source` suite pins it, prefix by prefix, against
//! such a batch merge.

use edm_core::sim::{Flow, FlowKind};
use edm_sim::{Duration, Rng, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-compute-node destination/kind draw of a [`MergeSource`]: the
/// part of a workload that differs between generators.
pub trait DrawDest {
    /// Draws the destination node and flow kind for one arrival issued
    /// by compute node `src`, advancing `rng`.
    fn draw(&self, rng: &mut Rng, src: usize) -> (usize, FlowKind);
}

/// Streaming k-way merge of per-node Poisson arrival streams.
///
/// Memory is O(compute nodes): one [`Rng`] and one pending `(arrival,
/// node)` heap entry per node, regardless of how many flows the source
/// will emit. Clones are independent replays of the same stream (the
/// per-shard replication the sharded engine needs).
#[derive(Debug, Clone)]
pub struct MergeSource<D> {
    draw: D,
    gap: Duration,
    size: u32,
    remaining: usize,
    next_id: usize,
    rngs: Vec<Rng>,
    /// Min-heap of `(arrival, node, rng slot)` — one entry per node. The
    /// slot rides along for O(1) RNG lookup; `(arrival, node)` alone
    /// decides the order, matching a batch merge's stable sort key.
    heap: BinaryHeap<Reverse<(Time, usize, usize)>>,
}

impl<D: DrawDest> MergeSource<D> {
    /// Creates a source emitting `count` flows of `size` bytes from the
    /// given compute nodes, each drawing Poisson gaps around `gap` from
    /// its own `Rng::stream(seed, node)` substream.
    pub fn new(
        seed: u64,
        computes: Vec<usize>,
        gap: Duration,
        count: usize,
        size: u32,
        draw: D,
    ) -> Self {
        let mut rngs = Vec::with_capacity(computes.len());
        let mut heap = BinaryHeap::with_capacity(computes.len());
        for (slot, &c) in computes.iter().enumerate() {
            let mut rng = Rng::stream(seed, c as u64);
            let at = Time::ZERO + rng.exp_duration(gap);
            rngs.push(rng);
            heap.push(Reverse((at, c, slot)));
        }
        MergeSource {
            draw,
            gap,
            size,
            remaining: if computes.is_empty() { 0 } else { count },
            next_id: 0,
            rngs,
            heap,
        }
    }
}

impl<D: DrawDest> Iterator for MergeSource<D> {
    type Item = Flow;

    fn next(&mut self) -> Option<Flow> {
        if self.remaining == 0 {
            return None;
        }
        // The emitting node's next arrival replaces it at the top: one
        // sift (when the guard drops) instead of a pop and a push.
        let mut top = self.heap.peek_mut()?;
        let Reverse((at, node, slot)) = *top;
        let rng = &mut self.rngs[slot];
        let (dst, kind) = self.draw.draw(rng, node);
        *top = Reverse((at + rng.exp_duration(self.gap), node, slot));
        let flow = Flow {
            id: self.next_id,
            src: node,
            dst,
            size: self.size,
            arrival: at,
            kind,
        };
        self.next_id += 1;
        self.remaining -= 1;
        Some(flow)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<D: DrawDest> ExactSizeIterator for MergeSource<D> {}

#[cfg(test)]
mod tests {
    use crate::{RackAwareWorkload, SyntheticWorkload};
    use edm_sim::Bandwidth;

    fn wl(count: usize) -> SyntheticWorkload {
        SyntheticWorkload {
            nodes: 16,
            link: Bandwidth::from_gbps(100),
            load: 0.6,
            size: 64,
            write_fraction: 0.5,
            count,
        }
    }

    #[test]
    fn source_matches_generate_exactly() {
        let w = wl(3000);
        assert_eq!(w.source(42).collect::<Vec<_>>(), w.generate(42));
    }

    #[test]
    fn rack_source_matches_generate_exactly() {
        let r = RackAwareWorkload {
            nodes: 32,
            racks: 4,
            link: Bandwidth::from_gbps(100),
            load: 0.6,
            size: 64,
            write_fraction: 0.5,
            local_fraction: 0.4,
            count: 2500,
        };
        assert_eq!(r.source(7).collect::<Vec<_>>(), r.generate(7));
    }

    #[test]
    fn longer_streams_extend_shorter_ones() {
        // A count-N source is a prefix of a count-10N source: streaming
        // scale-up never perturbs the flows already emitted.
        let small: Vec<_> = wl(500).source(9).collect();
        let large: Vec<_> = wl(5000).source(9).take(500).collect();
        assert_eq!(small, large);
    }

    #[test]
    fn remaining_counts_down_and_len_is_exact() {
        let mut s = wl(10).source(1);
        assert_eq!(s.len(), 10);
        s.next().unwrap();
        assert_eq!(s.len(), 9);
        assert_eq!(s.by_ref().count(), 9);
        assert_eq!(s.len(), 0);
        assert!(s.next().is_none());
    }

    #[test]
    fn clones_replay_identically() {
        let mut a = wl(100).source(3);
        for _ in 0..40 {
            a.next();
        }
        let b = a.clone();
        assert_eq!(a.collect::<Vec<_>>(), b.collect::<Vec<_>>());
    }
}
