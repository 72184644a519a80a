//! The error-envelope validation suite: exact-vs-approx comparison on
//! the overlap sizes both engines can run (144-node single switch,
//! 288-node leaf–spine), across loads {0.4, 0.7} and a fault scenario.
//!
//! Each case simulates the same flow set through [`edm_topo::TopoEdm`]
//! and estimates it through [`edm_approx::ApproxEngine`], then asserts
//! the relative FCT error at p50 and p99 stays inside the documented
//! envelope ([`edm_approx::P99_ERROR_BOUND`]). This suite is the only
//! place the envelope is checked; `edm-bench approx_sweep` prices the
//! 1024-host grid and gates the estimator's speedup.
//!
//! One point sits deliberately *outside* the envelope: 4 KiB messages at
//! load 0.7, where per-hop serialization couples the links and the
//! independent replays miss correlated delay. It is pinned to a band,
//! not a bound: a bound would only catch the breakdown getting worse,
//! while an estimator change that silently "fixed" it — or a workload
//! change that stopped exercising it — would leave the documentation
//! describing a regime that no longer exists.

use edm_approx::{apply_faults, ApproxEngine, P99_ERROR_BOUND};
use edm_core::sim::Flow;
use edm_sim::{Bandwidth, Summary, Time};
use edm_topo::{FaultEvent, FaultKind, LeafSpine, TopoEdm, TopoEdmConfig, Topology};
use edm_workloads::{RackAwareWorkload, SyntheticWorkload};

/// Flow count per validation point — enough for a stable p99 (the p99
/// rank has ~20 samples above it) while keeping debug-build test time
/// in seconds.
const FLOWS: usize = 2000;

fn p(s: &mut Summary, q: f64) -> f64 {
    assert!(!s.is_empty());
    s.percentile(q)
}

/// Runs one exact-vs-approx comparison: the estimate's signed relative
/// FCT error at p50 and p99 (negative: the estimator is optimistic).
fn fct_errors(name: &str, topo: &Topology, cfg: &TopoEdmConfig, flows: &[Flow]) -> [f64; 2] {
    let exact = TopoEdm::new(cfg.clone()).simulate(topo, flows);
    // The estimator sees the post-fault fabric statically.
    let mut what_if = topo.clone();
    let static_faults: Vec<FaultKind> = cfg.faults.iter().map(|f| f.kind).collect();
    apply_faults(&mut what_if, &static_faults);
    let mut est_cfg = cfg.clone();
    est_cfg.faults.clear();
    let est = ApproxEngine::new(est_cfg).estimate(&what_if, flows);

    assert_eq!(
        est.delivered(),
        exact.delivered(),
        "{name}: both engines must agree on deliverability"
    );
    let mut xs = Summary::new();
    for o in &exact.outcomes {
        if let Some(m) = o.mct() {
            xs.record_duration(m);
        }
    }
    let mut es = est.mct_summary();
    [50.0, 99.0].map(|q| {
        let (x, e) = (p(&mut xs, q), p(&mut es, q));
        let err = (e - x) / x;
        eprintln!("{name}: p{q:.0} exact {x:.0} ns, approx {e:.0} ns, err {err:+.4}");
        err
    })
}

/// Asserts both quantiles inside the documented envelope.
fn assert_envelope(name: &str, topo: &Topology, cfg: &TopoEdmConfig, flows: &[Flow]) {
    for err in fct_errors(name, topo, cfg, flows) {
        assert!(
            err.abs() <= P99_ERROR_BOUND,
            "{name}: error {err:+.4} exceeds the documented {P99_ERROR_BOUND} envelope"
        );
    }
}

fn rack_workload(load: f64, size: u32, count: usize) -> RackAwareWorkload {
    RackAwareWorkload {
        nodes: 288,
        racks: 4,
        link: Bandwidth::from_gbps(100),
        load,
        size,
        write_fraction: 0.5,
        local_fraction: 0.5,
        count,
    }
}

#[test]
fn envelope_single_switch_144() {
    let topo = edm_topo::cluster_topology(&edm_core::sim::ClusterConfig::default());
    let cfg = TopoEdmConfig::default();
    for load in [0.4, 0.7] {
        let flows = SyntheticWorkload::paper_default(load, 0.5, FLOWS).generate(42);
        assert_envelope(
            &format!("single_switch_144/load_{load}"),
            &topo,
            &cfg,
            &flows,
        );
    }
}

#[test]
fn envelope_leaf_spine_288() {
    let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 72, 36));
    let cfg = TopoEdmConfig::default();
    for load in [0.4, 0.7] {
        let flows = rack_workload(load, 64, FLOWS).generate(42);
        assert_envelope(&format!("leaf_spine_288/load_{load}"), &topo, &cfg, &flows);
    }
}

#[test]
fn envelope_fault_scenario_288() {
    // One spine-side trunk down from t=0: the exact engine injects it as
    // a fault event before any admission; the estimator models the same
    // degraded fabric statically. Routed load concentrates on the
    // surviving uplinks — the envelope must hold there too.
    let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 72, 36));
    let trunk = topo
        .links()
        .iter()
        .position(|l| l.is_trunk())
        .expect("leaf-spine has trunks") as u32;
    let mut cfg = TopoEdmConfig::default();
    cfg.faults.push(FaultEvent {
        at: Time::ZERO,
        kind: FaultKind::LinkDown(trunk),
    });
    let flows = rack_workload(0.7, 64, FLOWS).generate(42);
    assert_envelope("leaf_spine_288/trunk_down/load_0.7", &topo, &cfg, &flows);
}

#[test]
fn breakdown_regime_4k_stays_where_documented() {
    // Measured on 2026-09-27, this fabric and load, p99 error by seed:
    // 2000 flows −0.121 … −0.220 over seeds {42, 7, 1..6} (seed 42:
    // −0.206); 4000 flows −0.191 … −0.227. Always an underestimate.
    // Ceiling 0.30 leaves a third of headroom over the worst seed.
    let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 72, 36));
    let flows = rack_workload(0.7, 4096, FLOWS).generate(42);
    let name = "leaf_spine_288/size_4096/load_0.7";
    let [_, p99] = fct_errors(name, &topo, &TopoEdmConfig::default(), &flows);
    assert!(
        p99 < -P99_ERROR_BOUND && p99 > -0.30,
        "{name}: p99 error {p99:+.4} left the documented breakdown band \
         (-0.30, -{P99_ERROR_BOUND}): update docs/ARCHITECTURE.md together with this pin"
    );
}
