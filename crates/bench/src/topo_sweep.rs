//! Multi-switch fabric sweep: leaf–spine size × oversubscription ×
//! background-IP fraction, on rack-aware memory traffic.
//!
//! For every point the experiment reports the normalized mean/p99 MCT
//! (each flow normalized by its own locality's unloaded latency) and the
//! reroute/failure counters. What the leaf–spine path costs the host
//! against the single-switch one is the benchmark's
//! `topo.single_switch_ratio_*` and the per-event gate in
//! `tests/topo_scale.rs`.

use std::path::Path;

use crate::scenarios;
use crate::util::par_sweep;
use edm_core::sim::{Flow, FlowKind};
use edm_sim::{Duration, Time};
use edm_topo::{IpTraffic, TopoEdm, TopoEdmConfig, Topology};

/// Unloaded MCT by (kind × locality): each flow is normalized by a 64 B
/// probe of its own kind to a host in its own rack or in the next one.
fn solo_by_locality(
    proto: &TopoEdm,
    topo: &Topology,
    per_leaf: usize,
) -> impl Fn(&Flow) -> Duration {
    let probe = |dst: usize, kind: FlowKind| {
        let f = Flow {
            id: 0,
            src: 0,
            dst,
            size: 64,
            arrival: Time::ZERO,
            kind,
        };
        proto.solo_mct(topo, &f).expect("pristine fabric routes")
    };
    let (near, far) = (per_leaf / 2, per_leaf + per_leaf / 2);
    let (local_w, local_r) = (probe(near, FlowKind::Write), probe(near, FlowKind::Read));
    let (remote_w, remote_r) = (probe(far, FlowKind::Write), probe(far, FlowKind::Read));
    move |f| match (f.src / per_leaf == f.dst / per_leaf, f.kind) {
        (true, FlowKind::Write) => local_w,
        (true, FlowKind::Read) => local_r,
        (false, FlowKind::Write) => remote_w,
        (false, FlowKind::Read) => remote_r,
    }
}

pub fn run(_out: &Path) {
    let (count, load, local) = (2000, 0.6, 0.5);

    println!(
        "Leaf-spine sweep: 288 nodes (4 leaves x 72), 2 spines, load {load}, \
         {:.0}% rack-local, {count} flows",
        local * 100.0,
    );
    println!();
    println!(
        "{:<22} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "oversub / IP load", "norm mean", "norm p99", "reroute", "failed", "IP frames"
    );

    let flows = scenarios::rack_workload_288(load, local, count).generate(42);
    let points: Vec<(usize, f64)> = [1usize, 2, 4]
        .iter()
        .flat_map(|&o| [0.0, 0.25, 0.5].iter().map(move |&ip| (o, ip)))
        .collect();
    let rows = par_sweep(points, |(oversub, ip)| {
        let per_leaf = scenarios::leaf_spine_288_spec(oversub).nodes_per_leaf;
        let topo = scenarios::leaf_spine_288(oversub);
        let proto = TopoEdm::new(TopoEdmConfig {
            ip: IpTraffic::load(ip),
            ..TopoEdmConfig::default()
        });
        let result = proto.simulate(&topo, &flows);
        let mut norm = result.normalized_mct(solo_by_locality(&proto, &topo, per_leaf));
        format!(
            "{:<22} {:>10.3} {:>10.3} {:>8} {:>8} {:>10}",
            format!("{oversub}:1 / ip {:.2}", ip),
            norm.mean(),
            norm.percentile(99.0),
            result.reroutes,
            result.failed(),
            result.ip_frames,
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!();
    println!(
        "expected shape: at 1:1 the fabric adds only per-hop latency \
         (norm mean close to the single-switch curve); oversubscription \
         concentrates cross-rack traffic on fewer trunks and inflates the \
         tail; background IP costs little with preemption (one 66-bit \
         block per crossing)."
    );
}
