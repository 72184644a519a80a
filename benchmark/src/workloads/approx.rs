//! `approx_grid_1024`: the what-if grid `edm-approx` exists for — five
//! loads × 21 fault variants on a 1024-host leaf–spine, each load's
//! healthy point decomposed and replayed once, every fault variant a
//! delta against it. The estimator does nearly all the work here and the
//! exact engine none.

use super::{build_topology, leaf_spine_288, rack_workload, Outcomes, RepOut, Workload};
use crate::layers::{self, Layers};
use crate::trace::Tracer;
use edm_approx::{apply_faults, ApproxEngine, ApproxResult, Combine, SweepBase, SweepCache};
use edm_core::sim::Flow;
use edm_sim::Duration;
use edm_topo::{Endpoint, FaultKind, FlowStatus, LeafSpine, TopoEdm, TopoEdmConfig, Topology};
use std::hint::black_box;

const LOADS: [f64; 5] = [0.15, 0.3, 0.5, 0.7, 0.85];
const FLOWS_PER_SCENARIO: usize = 20_000;
/// The exact-vs-estimate overlap point: 288 nodes, load 0.7, 64 B.
const OVERLAP_FLOWS: usize = 4_000;

/// The 21 what-if states, weighted roughly like production fault logs:
/// healthy, 6 trunk cuts, 6 optics degradations (+1 µs), 2 spine kills,
/// 1 double trunk cut, 5 access-link cuts.
fn variants(topo: &Topology) -> Vec<Vec<FaultKind>> {
    let trunks: Vec<u32> = (0..topo.links().len() as u32)
        .filter(|&l| topo.link(l).is_trunk())
        .collect();
    let spread = |i: usize, n: usize| trunks[(i * trunks.len()) / n];
    let mut v = vec![vec![]];
    for i in 0..6 {
        v.push(vec![FaultKind::LinkDown(spread(i, 6))]);
    }
    for i in 0..6 {
        v.push(vec![FaultKind::DegradeLink {
            link: spread(2 * i + 1, 12),
            extra: Duration::from_us(1),
        }]);
    }
    // Spines are numbered after the leaves the hosts attach to.
    let first_spine = topo
        .links()
        .iter()
        .filter_map(|l| match (l.a, l.b) {
            (Endpoint::Node(_), Endpoint::Port { switch, .. }) => Some(switch + 1),
            _ => None,
        })
        .max()
        .expect("hosts attach to leaves");
    for s in [first_spine, first_spine + 4] {
        v.push(vec![FaultKind::SwitchDown(s)]);
    }
    v.push(vec![
        FaultKind::LinkDown(spread(0, 6)),
        FaultKind::LinkDown(spread(3, 6)),
    ]);
    let hosts = topo.nodes();
    for i in 0..5 {
        v.push(vec![FaultKind::LinkDown(
            topo.node_link((i * hosts) / 5 + i),
        )]);
    }
    v
}

pub struct ApproxGrid {
    topo: Topology,
    cfg: TopoEdmConfig,
    loads: Vec<Vec<Flow>>,
    variants: Vec<Vec<FaultKind>>,
    seed: u64,
}

impl ApproxGrid {
    pub fn build(seed: u64, scale_div: u64, tr: &mut Tracer) -> Self {
        let topo = build_topology(LeafSpine::symmetric(16, 8, 64, 8), tr);
        let flows = FLOWS_PER_SCENARIO / scale_div as usize;
        ApproxGrid {
            loads: LOADS
                .iter()
                .map(|&l| rack_workload(1024, 16, l, 64, flows).generate(seed))
                .collect(),
            variants: variants(&topo),
            topo,
            cfg: TopoEdmConfig::default(),
            seed,
        }
    }
}

/// Per-rep accumulator over scenario estimates.
struct Grid {
    out: Outcomes,
    makespan_ps: u64,
    unroutable: u64,
    clusters: u64,
    errors: Vec<String>,
}

impl Grid {
    fn fold(&mut self, scenario: usize, flows: usize, r: &ApproxResult) {
        if r.outcomes.len() != flows {
            self.errors.push(format!(
                "scenario {scenario}: {} verdicts for {flows} flows",
                r.outcomes.len()
            ));
        }
        let mut last = 0;
        for o in &r.outcomes {
            match o.status {
                FlowStatus::Delivered(at) => {
                    // Flow ids repeat across scenarios; salt with the scenario.
                    self.out.delivered(
                        (scenario as u64) << 32 | o.flow.id as u64,
                        o.flow.arrival.as_ps(),
                        at.as_ps(),
                    );
                    last = last.max(at.as_ps());
                }
                FlowStatus::Failed(_) => self.unroutable += 1,
            }
        }
        self.makespan_ps += last;
        self.clusters += r.clusters as u64;
    }
}

impl Workload for ApproxGrid {
    fn unit(&self) -> &'static str {
        "flow-scenario"
    }

    fn rep(&mut self, tr: &mut Tracer, _check: bool) -> RepOut {
        let combine = Combine::default();
        let mut cache = SweepCache::new();
        let mut g = Grid {
            out: Outcomes::new(),
            makespan_ps: 0,
            unroutable: 0,
            clusters: 0,
            errors: Vec::new(),
        };
        let engine = tr.begin("engine");
        let mut scenario = 0;
        for flows in &self.loads {
            // The healthy point builds the load's base (routes,
            // decomposition, per-link member index) and replays every
            // cluster serially, so an in-library parallel replay would
            // show here. Every fault variant is then a delta against it.
            let span = tr.begin("approx.base");
            let mut base = SweepBase::new(&self.topo, &self.cfg, flows.clone());
            tr.end(span);
            let span = tr.begin("approx.replay");
            base.prime(&mut cache);
            tr.end(span);
            let span = tr.begin("approx.compose");
            let healthy = cache.compose(&self.topo, &self.cfg, base.decomp(), combine);
            tr.end(span);
            g.fold(scenario, flows.len(), &healthy);
            scenario += 1;
            for faults in &self.variants[1..] {
                let span = tr.begin("approx.delta");
                let mut what_if = self.topo.clone();
                apply_faults(&mut what_if, faults);
                let r = base.estimate_delta(&what_if, combine, &mut cache);
                tr.end(span);
                g.fold(scenario, flows.len(), &r);
                scenario += 1;
            }
        }
        tr.end(engine);
        let (hits, replays) = (cache.hits(), cache.misses());
        let estimated = g.out.delivered + g.unroutable;
        let offered = (self.loads[0].len() * scenario) as u64;
        RepOut {
            // A flow the degraded fabric cannot route is a verdict, not a
            // failure of the estimator: every flow-scenario with a
            // verdict is a finished unit.
            units: estimated,
            attempted: offered,
            failed: offered - estimated.min(offered),
            hist: g.out.hist,
            makespan_ps: g.makespan_ps,
            digest: g.out.digest,
            counts: vec![
                ("approx.clusters", g.clusters as f64),
                ("approx.unroutable", g.unroutable as f64),
                ("approx.replays", replays as f64),
                ("approx.solo_probes", cache.solo_probes() as f64),
                (
                    "approx.cache_hit_ratio",
                    hits as f64 / (hits + replays).max(1) as f64,
                ),
            ],
            errors: g.errors,
        }
    }

    /// The estimator against the exact engine on the overlap point both
    /// can run: p99 FCT within the documented envelope.
    fn cross_check(&mut self, _warm: &RepOut) -> Vec<String> {
        let err = self.p99_err();
        if err <= edm_approx::P99_ERROR_BOUND {
            Vec::new()
        } else {
            vec![format!(
                "p99 FCT error {err:.4} vs the exact engine exceeds the documented {}",
                edm_approx::P99_ERROR_BOUND
            )]
        }
    }

    fn layers(&mut self, warm: &RepOut, tr: &mut Tracer, l: &mut Layers) {
        l.put("topo.build_ms", tr.median_total("topo.build").0 / 1e6);
        let (engine_ns, _) = tr.median_total("engine");
        let (replay_ns, _) = tr.median_total("approx.replay");
        let (compose_ns, _) = tr.median_total("approx.compose");
        let (delta_ns, deltas) = tr.median_total("approx.delta");
        l.put("approx.replay_ms", replay_ns / 1e6);
        l.put("approx.compose_ms", compose_ns / 1e6);
        l.put(
            "approx.delta_ms_per_scenario",
            delta_ns / deltas.max(1.0) / 1e6,
        );
        // `SweepBase::new` resolves and buckets internally; time the two
        // public stage functions on the same inputs.
        let mut resolve_ns = 0.0;
        let mut bucket_ns = 0.0;
        for flows in &self.loads {
            resolve_ns += layers::min_ns(2, || {
                black_box(edm_approx::resolve_all(&self.topo, flows));
            });
            let routes = edm_approx::resolve_all(&self.topo, flows);
            bucket_ns += layers::min_ns(2, || {
                black_box(edm_approx::bucket(&self.topo, &self.cfg, flows, &routes));
            });
        }
        l.put("approx.resolve_ms", resolve_ns / 1e6);
        l.put("approx.bucket_ms", bucket_ns / 1e6);
        l.put("approx.p99_err", self.p99_err());
        l.put("sim.hist_record_ns", layers::hist_record_ns());
        l.put("sched.sparse_poll_ns_2", layers::sparse_poll_ns(2));
        l.put("sched.sparse_poll_ns_16", layers::sparse_poll_ns(16));
        let hist_ns = l.get("sim.hist_record_ns").unwrap_or(0.0);
        // True spans: the healthy points' cluster replays drive real
        // `SwitchDomain`s; resolving is the routing layer's work.
        l.put_shares(
            engine_ns,
            &[
                ("sink", hist_ns * warm.hist.count() as f64),
                ("route", resolve_ns),
                ("domain", replay_ns),
            ],
        );
    }
}

impl ApproxGrid {
    /// Relative p99 FCT error of the estimator on the 288-node overlap
    /// point.
    fn p99_err(&self) -> f64 {
        let topo = Topology::leaf_spine(leaf_spine_288());
        let flows = rack_workload(288, 4, 0.7, 64, OVERLAP_FLOWS).generate(self.seed);
        let exact = TopoEdm::new(self.cfg.clone()).simulate(&topo, &flows);
        let est = ApproxEngine::new(self.cfg.clone()).estimate(&topo, &flows);
        let p99 = |outcomes: &[edm_topo::TopoOutcome]| {
            let mut mcts: Vec<u64> = outcomes
                .iter()
                .filter_map(|o| o.mct())
                .map(|d| d.as_ps())
                .collect();
            mcts.sort_unstable();
            // Nearest rank.
            mcts[(mcts.len() * 99).div_ceil(100).max(1) - 1] as f64
        };
        let (x, e) = (p99(&exact.outcomes), p99(&est.outcomes));
        (e - x).abs() / x
    }
}
