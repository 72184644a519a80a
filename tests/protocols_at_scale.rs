//! Integration: the 144-node evaluation pipeline (workload generator →
//! protocol simulators → normalized statistics) for all seven protocols.

use edm_baselines::prelude::*;
use edm_core::sim::{solo_mct, ClusterConfig, FabricProtocol, Flow, FlowKind};
use edm_workloads::{AppTrace, SyntheticWorkload};

fn cluster() -> ClusterConfig {
    ClusterConfig::default() // 144 nodes, 100 Gb/s
}

fn microbenchmark(load: f64, write_fraction: f64, count: usize) -> Vec<Flow> {
    SyntheticWorkload::paper_default(load, write_fraction, count).generate(7)
}

#[test]
fn every_protocol_completes_the_microbenchmark() {
    let flows = microbenchmark(0.6, 0.5, 800);
    for mut p in all_protocols() {
        let r = p.simulate(&cluster(), &flows);
        assert_eq!(r.outcomes.len(), flows.len(), "{} lost flows", p.name());
        for o in &r.outcomes {
            assert!(
                o.completed > o.flow.arrival,
                "{}: completion before arrival",
                p.name()
            );
        }
    }
}

#[test]
fn edm_stays_near_unloaded_at_high_load() {
    // The paper's headline scaling claim (§4.3.1): average latency within
    // ~1.3x unloaded even at load 0.9.
    let flows = microbenchmark(0.9, 0.5, 3000);
    let c = cluster();
    let mut edm = edm_core::sim::EdmProtocol::default();
    let probe = flows[0];
    let solo_w = solo_mct(
        &mut edm,
        &c,
        &Flow {
            kind: FlowKind::Write,
            ..probe
        },
    );
    let solo_r = solo_mct(
        &mut edm,
        &c,
        &Flow {
            kind: FlowKind::Read,
            ..probe
        },
    );
    let r = edm.simulate(&c, &flows);
    let mean = r
        .normalized_mct(|f| match f.kind {
            FlowKind::Write => solo_w,
            FlowKind::Read => solo_r,
        })
        .mean();
    assert!(
        mean < 1.45,
        "EDM normalized mean {mean:.2} at load 0.9 exceeds the paper band"
    );
}

#[test]
fn edm_beats_every_baseline_at_high_load() {
    let flows = microbenchmark(0.8, 0.5, 2000);
    let c = cluster();
    let norm_mean = |p: &mut dyn FabricProtocol| {
        let probe = flows[0];
        let solo_w = solo_mct(
            p,
            &c,
            &Flow {
                kind: FlowKind::Write,
                ..probe
            },
        );
        let solo_r = solo_mct(
            p,
            &c,
            &Flow {
                kind: FlowKind::Read,
                ..probe
            },
        );
        let r = p.simulate(&c, &flows);
        r.normalized_mct(|f| match f.kind {
            FlowKind::Write => solo_w,
            FlowKind::Read => solo_r,
        })
        .mean()
    };
    let mut protocols = all_protocols();
    let edm = norm_mean(protocols[0].as_mut());
    for p in protocols[1..].iter_mut() {
        let v = norm_mean(p.as_mut());
        assert!(
            edm <= v * 1.05,
            "EDM ({edm:.2}) should not lose to {} ({v:.2}) on the microbenchmark",
            p.name()
        );
    }
}

#[test]
fn fastpass_control_channel_is_the_worst_bottleneck() {
    let flows = microbenchmark(0.4, 0.5, 1500);
    let c = cluster();
    let mut results = Vec::new();
    for mut p in all_protocols() {
        let r = p.simulate(&c, &flows);
        results.push((p.name(), r.mean_mct()));
    }
    let fastpass = results.iter().find(|(n, _)| *n == "Fastpass").unwrap().1;
    for (name, mct) in &results {
        if *name != "Fastpass" {
            assert!(
                fastpass > *mct,
                "Fastpass ({fastpass}) must be slower than {name} ({mct})"
            );
        }
    }
}

#[test]
fn load_monotonicity_for_edm() {
    // Higher offered load must not reduce mean completion time.
    let c = cluster();
    let mut last = None;
    for load in [0.2, 0.5, 0.8] {
        let flows = microbenchmark(load, 1.0, 1500);
        let r = edm_core::sim::EdmProtocol::default().simulate(&c, &flows);
        let mean = r.mean_mct();
        if let Some(prev) = last {
            assert!(
                mean >= prev,
                "EDM mean MCT decreased from {prev} to {mean} as load rose to {load}"
            );
        }
        last = Some(mean);
    }
}

#[test]
fn trace_pipeline_runs_for_every_application() {
    let c = cluster();
    for app in AppTrace::all() {
        let flows = app.generate(c.nodes, c.link, 0.5, 400, 11);
        assert_eq!(flows.len(), 400);
        // EDM and CXL exercise the two most different datapaths.
        let edm = edm_core::sim::EdmProtocol::default().simulate(&c, &flows);
        let cxl = CxlProtocol.simulate(&c, &flows);
        assert_eq!(edm.outcomes.len(), 400, "{}", app.name());
        assert_eq!(cxl.outcomes.len(), 400, "{}", app.name());
        // CXL must not beat EDM on heavy-tailed traces (HOL blocking).
        assert!(
            cxl.mean_mct() >= edm.mean_mct(),
            "{}: CXL {} vs EDM {}",
            app.name(),
            cxl.mean_mct(),
            edm.mean_mct()
        );
    }
}

#[test]
fn deterministic_simulation_across_runs() {
    let flows = microbenchmark(0.7, 0.5, 500);
    let c = cluster();
    for mut p in all_protocols() {
        let a = p.simulate(&c, &flows);
        let b = p.simulate(&c, &flows);
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            assert_eq!(x.completed, y.completed, "{} is nondeterministic", p.name());
        }
    }
}
