//! `sweep_small_144`: thousands of back-to-back small
//! `EdmProtocol::simulate` calls on the paper's 144-node single switch —
//! the shape of every fig8-style sweep. Per-call engine construction,
//! which the streaming workloads amortise away, dominates here; this is
//! the number the "one exact engine" roadmap item must hold when
//! `EdmProtocol` becomes a 1-switch wrapper over `TopoEdm`.

use super::{Outcomes, RepOut, Workload};
use crate::layers::{self, Layers};
use crate::trace::Tracer;
use edm_baselines::prelude::{CxlProtocol, IrdProtocol, QueueConfig, QueueFabric};
use edm_core::sim::{ClusterConfig, EdmProtocol, FabricProtocol, Flow};
use edm_topo::{cluster_topology, TopoEdm, TopoEdmConfig};
use edm_workloads::SyntheticWorkload;
use std::hint::black_box;

const CALLS: usize = 2_000;
const FLOWS_PER_CALL: usize = 500;
const LOADS: [f64; 8] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
/// Distinct slices cycled through: holding all 2000 would make the
/// inputs, not the engine, the resident set.
const SLICES: usize = 64;

pub struct SweepSmall {
    cluster: ClusterConfig,
    slices: Vec<Vec<Flow>>,
    calls: usize,
    seed: u64,
}

impl SweepSmall {
    pub fn build(seed: u64, scale_div: u64) -> Self {
        SweepSmall {
            cluster: ClusterConfig::default(),
            slices: (0..SLICES)
                .map(|i| {
                    SyntheticWorkload::paper_default(LOADS[i % LOADS.len()], 0.5, FLOWS_PER_CALL)
                        .generate(seed.wrapping_mul(SLICES as u64).wrapping_add(i as u64))
                })
                .collect(),
            calls: CALLS / scale_div as usize,
            seed,
        }
    }
}

impl Workload for SweepSmall {
    fn unit(&self) -> &'static str {
        "flow"
    }

    fn rep(&mut self, tr: &mut Tracer, _check: bool) -> RepOut {
        let mut out = Outcomes::new();
        let mut makespan_ps = 0;
        let mut offered = 0;
        let span = tr.begin("engine");
        for call in 0..self.calls {
            let flows = &self.slices[call % SLICES];
            let r = EdmProtocol::default().simulate(&self.cluster, flows);
            offered += flows.len() as u64;
            let mut last = 0;
            for o in &r.outcomes {
                // Flow ids repeat across calls; salt with the call.
                out.delivered(
                    (call as u64) << 32 | o.flow.id as u64,
                    o.flow.arrival.as_ps(),
                    o.completed.as_ps(),
                );
                last = last.max(o.completed.as_ps());
            }
            makespan_ps += last;
        }
        tr.end(span);
        RepOut {
            units: out.delivered,
            attempted: offered,
            failed: offered - out.delivered,
            hist: out.hist,
            makespan_ps,
            digest: out.digest,
            counts: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn layers(&mut self, warm: &RepOut, tr: &mut Tracer, l: &mut Layers) {
        // The fig8 slice every comparator in the repo is timed on.
        let fig8 = SyntheticWorkload::paper_default(0.8, 0.5, FLOWS_PER_CALL).generate(self.seed);
        let cluster = &self.cluster;
        let edm = |flows: &[Flow]| {
            layers::min_ns(15, || {
                black_box(EdmProtocol::default().simulate(cluster, flows));
            })
        };
        let setup_ns = edm(&[]);
        let edm_500 = edm(&fig8);
        l.put("core.engine_setup_us", setup_ns / 1e3);
        l.put(
            "core.edmworld_ns_per_flow",
            (edm_500 - setup_ns) / fig8.len() as f64,
        );

        // The same runs through the multi-switch engine on the equivalent
        // 1-switch topology (bit-identical results, pinned by prop_topo):
        // the gap `EdmWorld` survives on.
        let one = cluster_topology(cluster);
        let topo_edm = TopoEdm::new(TopoEdmConfig::matching(cluster, &EdmProtocol::default()));
        let topo_500 = layers::min_ns(15, || {
            black_box(topo_edm.simulate(&one, &fig8));
        });
        l.put("topo.single_switch_ratio_500", topo_500 / edm_500);
        let big = SyntheticWorkload::paper_default(0.8, 0.5, 150 * self.calls).generate(self.seed);
        let edm_big = layers::min_ns(2, || {
            black_box(EdmProtocol::default().simulate(cluster, &big));
        });
        let topo_big = layers::min_ns(2, || {
            black_box(topo_edm.simulate(&one, &big));
        });
        l.put("topo.single_switch_ratio_300k", topo_big / edm_big);

        // Comparators: they move nothing end to end, but share code with
        // the engines above, so a change that slows them shows here.
        let per_flow = |p: &mut dyn FabricProtocol| {
            layers::min_ns(10, || {
                black_box(p.simulate(cluster, &fig8));
            }) / fig8.len() as f64
        };
        l.put(
            "baselines.ird_ns_per_flow",
            per_flow(&mut IrdProtocol::default()),
        );
        l.put(
            "baselines.cxl_ns_per_flow",
            per_flow(&mut CxlProtocol::default()),
        );
        l.put(
            "baselines.dctcp_ns_per_flow",
            per_flow(&mut QueueFabric::new(QueueConfig::dctcp())),
        );
        let hist_ns = layers::hist_record_ns();
        l.put("sim.hist_record_ns", hist_ns);
        l.put_shares(
            tr.median_total("engine").0,
            &[("sink", hist_ns * warm.units as f64)],
        );
    }
}
