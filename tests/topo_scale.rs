//! ISSUE 3 acceptance: a leaf–spine fabric with 2 spines, 4 leaves, and
//! 288 nodes completes a loaded rack-aware run, and the fabric path does
//! not cost disproportionately more host time than the single-switch
//! path on the same workload at equal load. Exercises the facade
//! (`edm::topo`).
//!
//! The cost gate compares host time **per simulation event** (2364
//! events on the fabric, 1685 on the 288-port switch for these 500
//! flows: a cross-rack flow is three switch crossings). It used to
//! compare time per flow under a 2× bound, which held only while the big
//! switch paid O(active destinations) per scheduling round. PR 15 took
//! that cost out of `edm_sched::Scheduler` — it helped the single switch
//! most, so the per-flow ratio rose while both sides got faster, past
//! the old bound. Measured on the 2-core box, best of 4 interleaved,
//! three runs of the test each, parent → PR 15:
//!
//! | build   | per flow (old gate, ≤ 2)  | per event (this gate)     |
//! |---------|---------------------------|---------------------------|
//! | debug   | 1.23–1.39 → 1.93–2.10     | 0.88–0.99 → 1.37–1.50     |
//! | release | 1.74–1.94 → 2.32–2.76     | 1.24–1.38 → 1.65–1.97     |
//!
//! `EVENT_COST_BOUND` is the worst first attempt seen (1.97, release)
//! with 1.5× headroom.

use edm::sim::Bandwidth;
use edm::topo::{LeafSpine, TopoEdm, Topology};
use edm::workloads::RackAwareWorkload;
use edm_core::sim::{ClusterConfig, EdmProtocol, FabricProtocol, Flow};

/// See the module header for where this comes from.
const EVENT_COST_BOUND: f64 = 3.0;

fn fabric_288() -> Topology {
    // 4 leaves × 72 hosts, 2 spines × 36 parallel trunks: non-blocking.
    Topology::leaf_spine(LeafSpine::symmetric(4, 2, 72, 36))
}

fn workload_288(count: usize) -> Vec<Flow> {
    RackAwareWorkload {
        nodes: 288,
        racks: 4,
        link: Bandwidth::from_gbps(100),
        load: 0.6,
        size: 64,
        write_fraction: 0.5,
        local_fraction: 0.5,
        count,
    }
    .generate(42)
}

#[test]
fn leaf_spine_288_completes_under_load() {
    let topo = fabric_288();
    assert_eq!(topo.switch_count(), 6);
    let flows = workload_288(800);
    let result = TopoEdm::default().simulate(&topo, &flows);
    assert_eq!(result.delivered(), 800, "every flow must be delivered");
    assert_eq!(result.failed(), 0);
    assert_eq!(result.reroutes, 0, "no faults were injected");
    // Sanity on the latency shape: the fabric is non-blocking at load
    // 0.6, so the mean MCT stays within a small multiple of a cross-leaf
    // unloaded write.
    let solo = TopoEdm::default()
        .solo_mct(&topo, &flows[0])
        .expect("pristine fabric routes");
    let mean = result.mean_mct();
    assert!(
        mean < 4 * solo,
        "mean MCT {mean} should be near unloaded {solo}"
    );
}

#[test]
fn leaf_spine_cost_per_event_within_bound_of_single_switch() {
    let topo = fabric_288();
    let flows = workload_288(500);
    let single = ClusterConfig {
        nodes: 288,
        ..ClusterConfig::default()
    };
    let proto = TopoEdm::default();
    // Event counts are functions of the input alone; taken once, untimed.
    let single_events = EdmProtocol::default()
        .simulate_streamed(&single, flows.iter().copied(), |_| {})
        .events;

    // Same workload, same offered load — the only variable is the
    // fabric. The two sides are measured *interleaved* (A/B pairs, min
    // of 4) so background load from concurrently running tests hits both
    // alike, and a noisy verdict is retried before failing.
    let measure_ratio = || {
        let (mut topo_cost, mut single_cost) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..4 {
            let t0 = std::time::Instant::now();
            let r = proto.simulate(&topo, &flows);
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(r.delivered(), 500);
            topo_cost = topo_cost.min(dt / r.events as f64);
            let t0 = std::time::Instant::now();
            let r = EdmProtocol::default().simulate(&single, &flows);
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(r.outcomes.len(), 500);
            single_cost = single_cost.min(dt / single_events as f64);
        }
        topo_cost / single_cost
    };
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        best = best.min(measure_ratio());
        if best < EVENT_COST_BOUND {
            return;
        }
    }
    panic!(
        "a leaf-spine event must cost within {EVENT_COST_BOUND}x of a single-switch \
         event on the same workload; best observed {best:.2}x"
    );
}
