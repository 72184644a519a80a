//! The single-switch engine checked against queueing theory rather than
//! against itself.
//!
//! FCFS 256 B writes from uniform sources to node 0, arriving as a
//! Poisson stream, make node 0's downlink an M/D/1 queue: each grant
//! holds it for one chunk, S = 256 B / 100 Gb/s = 20.48 ns, and nothing
//! else queues (a source only sends to node 0, so it is busy only while
//! node 0 is). A flow's extra wait — its completion time minus the
//! unloaded one — is its wait in that queue. Its mean must be the
//! Pollaczek–Khinchine mean ρS / 2(1 − ρ), and by PASTA a share 1 − ρ of
//! flows finds the downlink idle and does not wait at all.
//!
//! The bands come from the spread of this size's ratios over 16 seeds
//! (`spread_over_seeds`, ignored; run it with `--ignored --nocapture`).

use edm_core::sim::{solo_mct, ClusterConfig, EdmProtocol, FabricProtocol, Flow, FlowKind};
use edm_sched::Policy;
use edm_sim::rng::Rng;
use edm_sim::{Duration, Time};

/// Flows per run: small enough for the debug profile.
const FLOWS: usize = 30_000;

/// One chunk on a 100 Gb/s link.
const SERVICE_NS: f64 = 20.48;

/// Simulates `FLOWS` writes at load `rho` and returns the measured mean
/// extra wait over the M/D/1 mean, and the share of flows that did not
/// wait.
fn md1_run(rho: f64, seed: u64) -> (f64, f64) {
    let cluster = ClusterConfig::default();
    let mut proto = EdmProtocol {
        policy: Policy::Fcfs,
        // Wide enough that no offer ever waits past X: the downlink is
        // the only queue.
        max_active_per_pair: 255,
        ..EdmProtocol::default()
    };
    let mut rng = Rng::seed_from(seed);
    let gap = Duration::from_ps((SERVICE_NS / rho * 1000.0).round() as u64);
    let mut at = Time::ZERO;
    let flows: Vec<Flow> = (0..FLOWS)
        .map(|id| {
            at += rng.exp_duration(gap);
            Flow {
                id,
                src: 1 + rng.below(cluster.nodes as u64 - 1) as usize,
                dst: 0,
                size: 256,
                arrival: at,
                kind: FlowKind::Write,
            }
        })
        .collect();
    let unloaded = solo_mct(&mut proto, &cluster, &flows[0]);
    let waits: Vec<Duration> = proto
        .simulate(&cluster, &flows)
        .outcomes
        .iter()
        .map(|o| o.mct() - unloaded)
        .collect();
    let mean_ns = waits.iter().map(|w| w.as_ns_f64()).sum::<f64>() / FLOWS as f64;
    let idle = waits.iter().filter(|w| **w == Duration::ZERO).count() as f64 / FLOWS as f64;
    (mean_ns / (rho * SERVICE_NS / (2.0 * (1.0 - rho))), idle)
}

/// Asserts one load's mean-wait ratio and idle share inside their bands.
fn check(rho: f64, mean_band: (f64, f64), idle_band: f64) {
    let (ratio, idle) = md1_run(rho, 42);
    assert!(
        (mean_band.0..=mean_band.1).contains(&ratio),
        "rho {rho}: mean wait is {ratio:.3} of M/D/1's"
    );
    assert!(
        (idle - (1.0 - rho)).abs() <= idle_band,
        "rho {rho}: {idle:.4} of flows did not wait, M/D/1 says {:.2}",
        1.0 - rho
    );
}

#[test]
fn half_load_waits_like_md1() {
    check(0.5, (0.9, 1.1), 0.015);
}

#[test]
fn heavy_load_waits_like_md1() {
    check(0.8, (0.85, 1.15), 0.02);
}

#[test]
#[ignore = "prints the spread the bands were set from"]
fn spread_over_seeds() {
    for rho in [0.5, 0.8] {
        let runs: Vec<(f64, f64)> = (0..16).map(|seed| md1_run(rho, seed)).collect();
        let ratios = runs.iter().map(|r| r.0);
        let idles = runs.iter().map(|r| r.1 - (1.0 - rho));
        println!(
            "rho {rho}: mean-wait ratio {:.3}..{:.3}, idle share - (1 - rho) {:+.4}..{:+.4}",
            ratios.clone().fold(f64::INFINITY, f64::min),
            ratios.fold(0.0, f64::max),
            idles.clone().fold(f64::INFINITY, f64::min),
            idles.fold(f64::NEG_INFINITY, f64::max),
        );
    }
}
