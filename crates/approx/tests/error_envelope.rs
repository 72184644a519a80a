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
//! Two points sit deliberately *outside* the envelope: 4 KiB messages at
//! load 0.7, where per-hop serialization couples the links and the
//! independent replays miss correlated delay; and fig8b's mixed
//! 64 B–4 KiB sizes, where a representative keyed by its cluster's
//! largest message queues every member as that message. Each is pinned
//! to a band, not a bound: a bound would only catch the breakdown getting worse,
//! while an estimator change that silently "fixed" it — or a workload
//! change that stopped exercising it — would leave the documentation
//! describing a regime that no longer exists.

use edm_approx::{apply_faults, ApproxEngine, P99_ERROR_BOUND};
use edm_core::sim::Flow;
use edm_sim::{Bandwidth, Summary, Time};
use edm_topo::{FaultEvent, FaultKind, LeafSpine, TopoEdm, TopoEdmConfig, Topology};
use edm_workloads::{AppTrace, RackAwareWorkload, SyntheticWorkload};

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
        exact.stats.delivered as usize,
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
    // Measured with representative replays (one synthetic replay per
    // quantized cluster key), this fabric and load, p99 error by seed:
    // 2000 flows −0.099 … −0.193 over seeds {42, 7, 1..6} (seed 42:
    // −0.151); 4000 flows −0.065 … −0.178. Always an underestimate, and
    // at seed 42 outside the envelope; one seed in eight per flow count
    // now lands inside it. Replaying every distinct cluster read
    // −0.121 … −0.220 (seed 42: −0.206) and −0.191 … −0.227. Floor 0.26
    // leaves a third of headroom over the worst seed.
    let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 72, 36));
    let flows = rack_workload(0.7, 4096, FLOWS).generate(42);
    let name = "leaf_spine_288/size_4096/load_0.7";
    let [_, p99] = fct_errors(name, &topo, &TopoEdmConfig::default(), &flows);
    assert!(
        p99 < -P99_ERROR_BOUND && p99 > -0.26,
        "{name}: p99 error {p99:+.4} left the documented breakdown band \
         (-0.26, -{P99_ERROR_BOUND}): update docs/ARCHITECTURE.md (\"Large flows\") \
         together with this pin"
    );
}

#[test]
fn size_mix_stays_where_documented() {
    // fig8b's Memcached (KVstore) trace at fig8b's load 0.8 on the
    // 288-node fabric: compute nodes 0–143 (racks 0–1) write to and read
    // from memory nodes 144–287 (racks 2–3), sizes 64 B–4 KiB (the 16 of
    // 2000 draws above 4 KiB capped to it). Measured at seeds {42, 7,
    // 1..6}: p50 error +1.45 … +2.10 (seed 42: +2.048), p99 +4.64 … +6.50
    // (+6.500) — the estimate is 2.5–7.5× the exact engine's. Replaying
    // every distinct cluster reads p50 −0.002 … +0.003 and p99 +0.009 …
    // +0.101 at seeds {42, 7, 1, 2}: the overshoot is the representative
    // key's, which keeps only the largest message, so a 64 B member reads
    // a 4 KiB member's queueing (64 B flows at seed 42: 271 ns exact,
    // 1184 ns estimated). The band leaves a third of headroom beyond
    // the seeds on both sides; a keying that honours sizes lands below
    // it.
    let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 72, 36));
    let flows: Vec<Flow> = AppTrace::memcached()
        .generate(288, Bandwidth::from_gbps(100), 0.8, FLOWS, 42)
        .into_iter()
        .map(|f| Flow {
            size: f.size.min(4096),
            ..f
        })
        .collect();
    let name = "leaf_spine_288/memcached_64B-4KiB/load_0.8";
    let [p50, p99] = fct_errors(name, &topo, &TopoEdmConfig::default(), &flows);
    assert!(
        p50 > 1.0 && p50 < 2.8 && p99 > 3.0 && p99 < 8.7,
        "{name}: errors p50 {p50:+.4}, p99 {p99:+.4} left the documented size-mix band \
         (+1.0, +2.8) / (+3.0, +8.7): update docs/ARCHITECTURE.md (\"Mixed sizes\") \
         together with this pin"
    );
}
