//! The seven workloads. Their definitions live here, copied from the
//! specs in `crates/bench` rather than imported, so an edit there cannot
//! silently change what the benchmark measures.

mod app;
mod approx;
mod fabric288;
mod sweep;
mod testbed;

use crate::layers::Layers;
use crate::trace::Tracer;
use edm_sim::{Bandwidth, LogHistogram};
use edm_topo::{LeafSpine, Topology};
use edm_workloads::RackAwareWorkload;

/// What one full run of a workload produced. Everything here is a
/// function of the inputs alone (simulated results and exact counts), so
/// two reps of one workload must return equal values.
#[derive(Debug, Clone, PartialEq)]
pub struct RepOut {
    /// Units of work finished (flows delivered, ops completed, ...).
    pub units: u64,
    /// Units offered to the system.
    pub attempted: u64,
    /// Units the system gave up on.
    pub failed: u64,
    /// Simulated completion time of every finished unit, in ps.
    pub hist: LogHistogram,
    /// Simulated time from the first arrival to the last completion, in
    /// ps (summed over the runs of a multi-run workload).
    pub makespan_ps: u64,
    /// Order-independent digest of every (unit id, completion time).
    pub digest: u64,
    /// Exact counts the layers report, by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Output checks that failed in this rep.
    pub errors: Vec<String>,
}

impl RepOut {
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Folds per-unit outcomes into the bounded-memory part of [`RepOut`].
#[derive(Debug)]
pub struct Outcomes {
    pub hist: LogHistogram,
    pub digest: u64,
    pub last_ps: u64,
    pub delivered: u64,
    pub failed: u64,
}

impl Outcomes {
    pub fn new() -> Self {
        Outcomes {
            hist: LogHistogram::new(),
            digest: 0,
            last_ps: 0,
            delivered: 0,
            failed: 0,
        }
    }

    /// Unit `id`, offered at `arrival_ps`, finished at `done_ps`.
    pub fn delivered(&mut self, id: u64, arrival_ps: u64, done_ps: u64) {
        self.hist.record(done_ps - arrival_ps);
        // Wrapping sum of a per-unit hash: the sharded engine reports
        // outcomes in a different order than the sequential one.
        self.digest = self.digest.wrapping_add(mix(id, done_ps));
        self.last_ps = self.last_ps.max(done_ps);
        self.delivered += 1;
    }
}

/// The 288-node fabric: 4 leaves × 72 hosts, 2 spines, 36 uplinks per
/// spine per leaf — non-blocking.
pub fn leaf_spine_288() -> LeafSpine {
    LeafSpine::symmetric(4, 2, 72, 36)
}

/// Builds a leaf–spine fabric under a `topo.build` span.
pub fn build_topology(spec: LeafSpine, tr: &mut Tracer) -> Topology {
    let span = tr.begin("topo.build");
    let topo = Topology::leaf_spine(spec);
    tr.end(span);
    topo
}

/// The rack-aware Poisson traffic every leaf–spine workload offers: racks
/// of equal size, first half of each rack computes, second half serves,
/// 50:50 reads and writes, 40 % of requests rack-local.
///
/// 40 % rather than the 50 % of `edm_bench::scenarios`: with exactly half
/// the flows rack-local, the median completion time sits in the gap
/// between the one-switch and the three-switch mode and flips between
/// ≈150 and ≈215 ns from one seed to the next.
pub fn rack_workload(
    nodes: usize,
    racks: usize,
    load: f64,
    size: u32,
    count: usize,
) -> RackAwareWorkload {
    RackAwareWorkload {
        nodes,
        racks,
        link: Bandwidth::from_gbps(100),
        load,
        size,
        write_fraction: 0.5,
        local_fraction: 0.4,
        count,
    }
}

/// splitmix64 finalizer over the pair.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.rotate_left(32));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub trait Workload {
    /// What `host_ns_per_unit` counts.
    fn unit(&self) -> &'static str;

    /// One full run. With tracing on, records spans around the calls
    /// into the layers; `check` adds the output checks that are too
    /// costly to repeat in every timed rep.
    fn rep(&mut self, tr: &mut Tracer, check: bool) -> RepOut;

    /// One-off checks against an independent run (another engine, the
    /// exact simulator, the paper's table). Returns what failed.
    fn cross_check(&mut self, _warm: &RepOut) -> Vec<String> {
        Vec::new()
    }

    /// Traced run only: replays and spans of the layers this workload
    /// uses, written into `layers`.
    fn layers(&mut self, warm: &RepOut, tr: &mut Tracer, layers: &mut Layers);
}

/// Builds workload `name` from `seed` at `1/scale_div` of full size
/// (1 = the sizes in the README; `--quick` uses 20). Building is the
/// set-up the `setup_s` metric times, together with the first run.
pub fn build(name: &str, seed: u64, scale_div: u64, tr: &mut Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "stream64_288" | "bulk4k_288" | "chaos_288" => {
            Box::new(fabric288::Fabric288::build(name, seed, scale_div, tr))
        }
        "app_ycsb_288" => Box::new(app::AppYcsb::build(seed, scale_div, tr)),
        "approx_grid_1024" => Box::new(approx::ApproxGrid::build(seed, scale_div, tr)),
        "sweep_small_144" => Box::new(sweep::SweepSmall::build(seed, scale_div)),
        "testbed_kv" => Box::new(testbed::TestbedKv::build(seed, scale_div)),
        _ => return None,
    })
}
