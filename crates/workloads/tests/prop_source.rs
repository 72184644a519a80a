//! Property pins for the streaming flow sources: a workload's
//! `source()` (and so `generate()`, which collects it) must emit the
//! *bit-identical* flow sequence an independent batch merge of its
//! per-node streams builds — same arrivals, same ids, same draws — for
//! any geometry, seed, and prefix length. This is the contract that lets
//! simulations pull arrivals lazily without perturbing a single result.

use edm_workloads::{RackAwareWorkload, SyntheticWorkload};
use proptest::prelude::*;

/// The batch generator the heap merge must reproduce: draw every
/// compute node's Poisson arrivals up to a horizon, stable-sort by
/// `(arrival, node)`, keep the first `count`, number them densely.
mod reference {
    use edm_core::sim::Flow;
    use edm_sim::{Duration, Rng, Time};
    use edm_workloads::DrawDest;

    pub fn generate(
        seed: u64,
        computes: &[usize],
        gap: Duration,
        count: usize,
        size: u32,
        draw: &impl DrawDest,
    ) -> Vec<Flow> {
        if computes.is_empty() {
            return Vec::new();
        }
        // Each node's arrivals up to the horizon are a pure function of
        // (seed, node, horizon): doubling it until `count` flows fit only
        // extends every node's prefix.
        let mut horizon = gap.as_ps().max(1) * (count as u64 / computes.len() as u64 + 2);
        loop {
            let mut all = Vec::new();
            for &c in computes {
                let mut rng = Rng::stream(seed, c as u64);
                let mut at = Time::ZERO + rng.exp_duration(gap);
                while at.as_ps() <= horizon {
                    let (dst, kind) = draw.draw(&mut rng, c);
                    all.push((at, c, dst, kind));
                    at += rng.exp_duration(gap);
                }
            }
            if all.len() < count {
                horizon *= 2;
                continue;
            }
            all.sort_by_key(|&(at, c, _, _)| (at, c));
            return all
                .into_iter()
                .take(count)
                .enumerate()
                .map(|(id, (arrival, src, dst, kind))| Flow {
                    id,
                    src,
                    dst,
                    size,
                    arrival,
                    kind,
                })
                .collect();
        }
    }
}

proptest! {
    /// Synthetic all-to-all: the streamed and materialized sequences
    /// equal the batch merge, and a count-N source is a prefix of a
    /// larger source over the same seed (streaming scale-up never
    /// perturbs already-emitted flows).
    #[test]
    fn synthetic_source_prefix_equivalence(
        nodes in 2usize..40,
        seed in any::<u64>(),
        count in 1usize..400,
        load_pct in 5u32..=100,
        write_pct in 0u32..=100,
        prefix in 0usize..400,
    ) {
        let w = SyntheticWorkload {
            nodes,
            link: edm_sim::Bandwidth::from_gbps(100),
            load: load_pct as f64 / 100.0,
            size: 64,
            write_fraction: write_pct as f64 / 100.0,
            count,
        };
        let computes: Vec<usize> = (0..w.compute_nodes()).collect();
        let expected = reference::generate(seed, &computes, w.mean_gap(), count, w.size, &w);
        let streamed: Vec<_> = w.source(seed).collect();
        prop_assert_eq!(&streamed, &expected);
        prop_assert_eq!(&w.generate(seed), &expected);

        let prefix = prefix.min(count);
        let mut longer = w;
        longer.count = count * 4;
        let long_prefix: Vec<_> = longer.source(seed).take(prefix).collect();
        prop_assert_eq!(&long_prefix[..], &expected[..prefix]);
    }

    /// Rack-aware: same equivalence across rack geometries and locality
    /// fractions, plus the `len()` bookkeeping.
    #[test]
    fn rack_source_prefix_equivalence(
        racks in 1usize..5,
        npr_half in 1usize..6,
        seed in any::<u64>(),
        count in 1usize..300,
        local_pct in 0u32..=100,
    ) {
        let r = RackAwareWorkload {
            nodes: racks * npr_half * 2,
            racks,
            link: edm_sim::Bandwidth::from_gbps(100),
            load: 0.6,
            size: 64,
            write_fraction: 0.5,
            // One rack cannot host remote traffic.
            local_fraction: if racks == 1 { 1.0 } else { local_pct as f64 / 100.0 },
            count,
        };
        // Compute nodes are the first half of every rack's block.
        let npr = r.nodes_per_rack();
        let computes: Vec<usize> = (0..r.nodes).filter(|n| n % npr < npr / 2).collect();
        let expected = reference::generate(seed, &computes, r.mean_gap(), count, r.size, &r);
        let mut source = r.source(seed);
        prop_assert_eq!(source.len(), count);
        let streamed: Vec<_> = source.by_ref().collect();
        prop_assert_eq!(source.len(), 0);
        prop_assert_eq!(&streamed, &expected);
        prop_assert_eq!(&r.generate(seed), &expected);
    }
}
