//! Streaming flow sources: pull-based, time-ordered arrival generation
//! in O(active generators) memory.
//!
//! The materialized generators ([`crate::SyntheticWorkload::generate`],
//! [`crate::RackAwareWorkload::generate`]) build the entire `Vec<Flow>`
//! up front — O(count) memory, which caps how many flows a harness can
//! push through a simulation. A [`FlowSource`] inverts that: the
//! simulation *pulls* the next arrival when it is ready to admit it, so
//! the generator holds only one pending arrival per compute node.
//!
//! [`MergeSource`] is the streaming twin of the batch generators' merge:
//! each compute node draws from its own splittable [`Rng::stream`]
//! substream, and a k-way heap merge keyed by `(arrival, node)` emits
//! flows in exactly the order the batch path's stable
//! `sort_by_key((at, node))` produces. Because one candidate per node is
//! in the heap at a time and each node's arrivals are nondecreasing, the
//! heap order *is* the sorted order — the emitted stream is
//! bit-identical to `generate()` (including dense ids assigned in
//! emission order), which the `prop_source` suite pins, prefix by
//! prefix.

use edm_core::sim::{Flow, FlowKind};
use edm_sim::{Duration, Rng, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pull-based source of time-ordered flow arrivals.
///
/// Implementors yield flows with nondecreasing `arrival` and dense ids
/// (`0, 1, 2, …` in emission order), so a simulation can admit arrivals
/// lazily — scheduling the next admission event when the previous one
/// fires — instead of pre-loading the whole workload.
pub trait FlowSource: Iterator<Item = Flow> {
    /// Flows not yet emitted.
    fn remaining(&self) -> usize;

    /// Drains the source into a flow list, pre-sized from
    /// [`remaining`](Self::remaining) — the bridge from streaming
    /// ingestion to consumers that slice one flow set many ways (the
    /// `edm-approx` per-link decomposition buckets every flow onto each
    /// link its route crosses, so it needs the whole set at once).
    fn materialize(mut self) -> Vec<Flow>
    where
        Self: Sized,
    {
        let mut out = Vec::with_capacity(self.remaining());
        out.extend(&mut self);
        out
    }
}

/// Per-compute-node destination/kind draw shared by the batch and
/// streaming generators — one implementation, two consumption shapes,
/// so the RNG call sequence per node cannot diverge between them.
pub trait DrawDest {
    /// Draws the destination node and flow kind for one arrival issued
    /// by compute node `src`, advancing `rng` exactly as the batch
    /// generator's closure does.
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
    /// decides the order, matching the batch path's stable sort key.
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

impl<D: DrawDest> FlowSource for MergeSource<D> {
    fn remaining(&self) -> usize {
        self.remaining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(s.remaining(), 10);
        assert_eq!(s.len(), 10);
        s.next().unwrap();
        assert_eq!(s.remaining(), 9);
        assert_eq!(s.by_ref().count(), 9);
        assert_eq!(s.remaining(), 0);
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
