//! Poisson all-to-all synthetic memory traffic at a target offered load
//! (the Figure 8a microbenchmark).
//!
//! Half the cluster's nodes act as compute nodes, half as memory nodes
//! (the paper simulates "144 nodes (compute + memory)"). Each compute
//! node issues requests to uniformly random memory nodes with Poisson
//! inter-arrival times calibrated so that the *data* bytes offered to each
//! memory-node link equal `load × capacity`.
//!
//! Every compute node draws from its **own splittable RNG stream**
//! ([`Rng::stream`] keyed by the node id), so arrival generation is a
//! pure per-node function. Each generator has one implementation, its
//! streaming [`MergeSource`]: `generate` is that stream collected, and a
//! sharded run replays its own clone of it.

use crate::source::{DrawDest, MergeSource};
use edm_core::sim::{Flow, FlowKind};
use edm_sim::{Bandwidth, Duration, Rng};

/// Generator for the all-to-all microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticWorkload {
    /// Total nodes; the first half are compute, the second half memory.
    pub nodes: usize,
    /// Link bandwidth (for load calibration).
    pub link: Bandwidth,
    /// Offered load fraction in `(0, 1]` of each memory link.
    pub load: f64,
    /// Data bytes per message (64 B in §4.3.1; 8 B RREQs ride for free).
    pub size: u32,
    /// Fraction of messages that are writes (the rest are reads).
    pub write_fraction: f64,
    /// Number of messages to generate.
    pub count: usize,
}

impl SyntheticWorkload {
    /// The §4.3.1 defaults: 144 nodes, 100 Gb/s, 64 B messages.
    pub fn paper_default(load: f64, write_fraction: f64, count: usize) -> Self {
        SyntheticWorkload {
            nodes: 144,
            link: Bandwidth::from_gbps(100),
            load,
            size: 64,
            write_fraction,
            count,
        }
    }

    /// Compute-node count (first half of the cluster).
    pub fn compute_nodes(&self) -> usize {
        self.nodes / 2
    }

    /// Memory-node count (second half).
    pub fn memory_nodes(&self) -> usize {
        self.nodes - self.nodes / 2
    }

    /// Mean inter-arrival gap per compute node for the target load.
    ///
    /// Each memory link receives traffic from all compute nodes; with
    /// uniform destinations the per-compute-node rate `r` must satisfy
    /// `r × size × computes / memories = load × B`.
    pub fn mean_gap(&self) -> Duration {
        assert!(self.load > 0.0 && self.load <= 1.0, "load in (0,1]");
        let bytes_per_sec = self.link.as_bps() as f64 / 8.0 * self.load;
        let per_compute = bytes_per_sec * self.memory_nodes() as f64 / self.compute_nodes() as f64;
        let msgs_per_sec = per_compute / self.size as f64;
        Duration::from_ps((1e12 / msgs_per_sec).round() as u64)
    }

    /// Generates the flow list, deterministically from `seed`: the
    /// [`SyntheticWorkload::source`] stream, collected.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has fewer than 2 nodes or `load` is out of
    /// range.
    pub fn generate(&self, seed: u64) -> Vec<Flow> {
        self.source(seed).collect()
    }

    /// The flows in arrival order, pulled one at a time — O(compute
    /// nodes) memory instead of O(count). The `prop_source` suite pins
    /// the stream against an independent batch merge.
    ///
    /// # Panics
    ///
    /// As [`SyntheticWorkload::generate`].
    pub fn source(&self, seed: u64) -> MergeSource<SyntheticWorkload> {
        assert!(
            self.nodes >= 2,
            "need at least one compute and one memory node"
        );
        let nodes: Vec<usize> = (0..self.compute_nodes()).collect();
        MergeSource::new(seed, nodes, self.mean_gap(), self.count, self.size, *self)
    }
}

impl DrawDest for SyntheticWorkload {
    fn draw(&self, rng: &mut Rng, _src: usize) -> (usize, FlowKind) {
        let dst = self.compute_nodes() + rng.below(self.memory_nodes() as u64) as usize;
        let kind = if rng.chance(self.write_fraction) {
            FlowKind::Write
        } else {
            FlowKind::Read
        };
        (dst, kind)
    }
}

/// Rack-aware all-to-all traffic for multi-switch fabrics.
///
/// Nodes are divided into `racks` equal contiguous blocks (matching
/// `edm_topo`'s leaf attachment order); within each rack the first half
/// are compute nodes, the second half memory nodes. Each compute node
/// issues Poisson requests; a configurable fraction target same-rack
/// memory, the rest uniformly random memory in *other* racks — the knob
/// that moves traffic on or off the spine trunks.
#[derive(Debug, Clone, Copy)]
pub struct RackAwareWorkload {
    /// Total nodes; must divide evenly into racks of even size.
    pub nodes: usize,
    /// Number of racks (= leaf switches).
    pub racks: usize,
    /// Link bandwidth (for load calibration).
    pub link: Bandwidth,
    /// Offered load fraction in `(0, 1]` of each memory link.
    pub load: f64,
    /// Data bytes per message.
    pub size: u32,
    /// Fraction of messages that are writes (the rest are reads).
    pub write_fraction: f64,
    /// Fraction of requests that stay inside the issuing rack.
    pub local_fraction: f64,
    /// Number of messages to generate.
    pub count: usize,
}

impl RackAwareWorkload {
    /// Nodes per rack.
    pub fn nodes_per_rack(&self) -> usize {
        self.nodes / self.racks
    }

    /// Memory nodes of one rack: the second half of its block.
    fn rack_memory(&self, rack: usize) -> std::ops::Range<usize> {
        let npr = self.nodes_per_rack();
        (rack * npr + npr / 2)..((rack + 1) * npr)
    }

    /// Generates the flow list, deterministically from `seed`: the
    /// [`RackAwareWorkload::source`] stream, collected.
    ///
    /// # Panics
    ///
    /// Panics unless nodes divide evenly into racks of even size ≥ 2,
    /// and `load` is in range.
    pub fn generate(&self, seed: u64) -> Vec<Flow> {
        self.source(seed).collect()
    }

    /// The flows in arrival order, pulled one at a time — O(compute
    /// nodes) memory instead of O(count). The `prop_source` suite pins
    /// the stream against an independent batch merge.
    ///
    /// # Panics
    ///
    /// As [`RackAwareWorkload::generate`].
    pub fn source(&self, seed: u64) -> MergeSource<RackAwareWorkload> {
        let computes = self.validate_and_computes();
        MergeSource::new(
            seed,
            computes,
            self.mean_gap(),
            self.count,
            self.size,
            *self,
        )
    }

    /// Mean inter-arrival gap per compute node for the target load.
    ///
    /// Load calibration as in [`SyntheticWorkload::mean_gap`]; the
    /// compute:memory split is 1:1, so the per-compute rate is
    /// `load × B / size` regardless of locality.
    pub fn mean_gap(&self) -> Duration {
        SyntheticWorkload {
            nodes: self.nodes,
            link: self.link,
            load: self.load,
            size: self.size,
            write_fraction: self.write_fraction,
            count: self.count,
        }
        .mean_gap()
    }

    /// Validates the rack geometry and returns the compute-node list.
    fn validate_and_computes(&self) -> Vec<usize> {
        assert!(self.racks >= 1, "need a rack");
        assert!(
            self.nodes.is_multiple_of(self.racks),
            "nodes must divide into racks"
        );
        let npr = self.nodes_per_rack();
        assert!(
            npr >= 2 && npr.is_multiple_of(2),
            "racks need even size >= 2"
        );
        assert!(
            self.racks > 1 || self.local_fraction >= 1.0 - f64::EPSILON,
            "one rack cannot host remote traffic"
        );
        let half = npr / 2;
        (0..self.nodes).filter(|n| n % npr < half).collect()
    }
}

impl DrawDest for RackAwareWorkload {
    fn draw(&self, rng: &mut Rng, src: usize) -> (usize, FlowKind) {
        let npr = self.nodes_per_rack();
        let half = npr / 2;
        let rack = src / npr;
        let dst = if self.racks == 1 || rng.chance(self.local_fraction) {
            let m = self.rack_memory(rack);
            m.start + rng.below(half as u64) as usize
        } else {
            // Uniform over other racks' memory nodes.
            let pick = rng.below(((self.racks - 1) * half) as u64) as usize;
            let mut other = pick / half;
            if other >= rack {
                other += 1;
            }
            self.rack_memory(other).start + pick % half
        };
        let kind = if rng.chance(self.write_fraction) {
            FlowKind::Write
        } else {
            FlowKind::Read
        };
        (dst, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl(load: f64) -> SyntheticWorkload {
        SyntheticWorkload {
            nodes: 16,
            link: Bandwidth::from_gbps(100),
            load,
            size: 64,
            write_fraction: 0.5,
            count: 2000,
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = wl(0.5).generate(7);
        let b = wl(0.5).generate(7);
        assert_eq!(a, b);
        let c = wl(0.5).generate(8);
        assert_ne!(a, c);
    }

    #[test]
    fn sources_are_compute_destinations_memory() {
        for f in wl(0.5).generate(1) {
            assert!(f.src < 8, "source must be a compute node");
            assert!((8..16).contains(&f.dst), "dest must be a memory node");
        }
    }

    #[test]
    fn arrivals_sorted_and_positive_gap_scales_with_load() {
        let flows = wl(0.9).generate(2);
        for w in flows.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        assert!(wl(0.2).mean_gap() > wl(0.8).mean_gap());
    }

    #[test]
    fn offered_load_calibration() {
        // Measure realized load on the memory links over the generated
        // span: bytes / (span × memories × capacity) ≈ load.
        let w = wl(0.6);
        let flows = w.generate(3);
        let span = flows.last().unwrap().arrival - flows[0].arrival;
        let bytes: u64 = flows.iter().map(|f| f.size as u64).sum();
        let capacity_bytes =
            w.link.as_bps() as f64 / 8.0 * span.as_ps() as f64 / 1e12 * w.memory_nodes() as f64;
        let realized = bytes as f64 / capacity_bytes;
        assert!(
            (realized - 0.6).abs() < 0.1,
            "realized load {realized} vs target 0.6"
        );
    }

    #[test]
    fn write_fraction_respected() {
        let mut w = wl(0.5);
        w.write_fraction = 0.8;
        let flows = w.generate(4);
        let writes = flows.iter().filter(|f| f.kind == FlowKind::Write).count();
        let frac = writes as f64 / flows.len() as f64;
        assert!((frac - 0.8).abs() < 0.05, "write fraction {frac}");
    }

    #[test]
    fn pure_mixes() {
        let mut w = wl(0.5);
        w.write_fraction = 0.0;
        assert!(w.generate(5).iter().all(|f| f.kind == FlowKind::Read));
        w.write_fraction = 1.0;
        assert!(w.generate(5).iter().all(|f| f.kind == FlowKind::Write));
    }

    #[test]
    fn paper_default_shape() {
        let w = SyntheticWorkload::paper_default(0.8, 0.5, 10);
        assert_eq!(w.nodes, 144);
        assert_eq!(w.compute_nodes(), 72);
        assert_eq!(w.memory_nodes(), 72);
        assert_eq!(w.generate(1).len(), 10);
    }

    fn rack_wl(local: f64) -> RackAwareWorkload {
        RackAwareWorkload {
            nodes: 32,
            racks: 4,
            link: Bandwidth::from_gbps(100),
            load: 0.6,
            size: 64,
            write_fraction: 0.5,
            local_fraction: local,
            count: 4000,
        }
    }

    #[test]
    fn rack_roles_are_respected() {
        for f in rack_wl(0.5).generate(7) {
            assert!(f.src % 8 < 4, "sources are rack-local compute nodes");
            assert!(f.dst % 8 >= 4, "destinations are memory nodes");
        }
    }

    #[test]
    fn rack_locality_fraction_is_calibrated() {
        for target in [0.0, 0.5, 1.0] {
            let flows = rack_wl(target).generate(11);
            let local = flows.iter().filter(|f| f.src / 8 == f.dst / 8).count();
            let frac = local as f64 / flows.len() as f64;
            assert!(
                (frac - target).abs() < 0.05,
                "local fraction {frac} vs target {target}"
            );
        }
    }

    #[test]
    fn rack_workload_deterministic_and_sorted() {
        let a = rack_wl(0.3).generate(5);
        assert_eq!(a, rack_wl(0.3).generate(5));
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn single_rack_degenerates_to_local_traffic() {
        let w = RackAwareWorkload {
            racks: 1,
            nodes: 8,
            local_fraction: 1.0,
            ..rack_wl(1.0)
        };
        for f in w.generate(3) {
            assert!(f.src < 4 && f.dst >= 4);
        }
    }
}
