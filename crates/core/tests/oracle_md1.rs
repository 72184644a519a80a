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
//! flows finds the downlink idle and does not wait at all. Beyond the
//! mean, the whole wait distribution must be Erlang's M/D/1 one.
//!
//! The bands come from the spread of this size's ratios and shares over
//! 16 seeds (`spread_over_seeds`, ignored; run it with `--ignored
//! --nocapture`).

use edm_core::sim::{solo_mct, ClusterConfig, EdmProtocol, FabricProtocol, Flow, FlowKind};
use edm_sched::Policy;
use edm_sim::rng::Rng;
use edm_sim::{Duration, Time};

/// Flows per run: small enough for the debug profile.
const FLOWS: usize = 30_000;

/// One chunk on a 100 Gb/s link.
const SERVICE_NS: f64 = 20.48;

/// Simulates `FLOWS` writes at load `rho` and returns each flow's extra
/// wait, in service times.
fn md1_waits(rho: f64, seed: u64) -> Vec<f64> {
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
    proto
        .simulate(&cluster, &flows)
        .outcomes
        .iter()
        .map(|o| (o.mct() - unloaded).as_ns_f64() / SERVICE_NS)
        .collect()
}

/// The measured mean wait over the M/D/1 mean, and the share of flows
/// that did not wait.
fn mean_and_idle(rho: f64, waits: &[f64]) -> (f64, f64) {
    let mean = waits.iter().sum::<f64>() / waits.len() as f64;
    (mean / (rho / (2.0 * (1.0 - rho))), share_within(waits, 0.0))
}

/// The share of `waits` of at most `t` service times.
fn share_within(waits: &[f64], t: f64) -> f64 {
    waits.iter().filter(|&&w| w <= t).count() as f64 / waits.len() as f64
}

/// Erlang's M/D/1 waiting-time distribution P(W ≤ t), t in service
/// times: (1 − ρ) Σ_{k=0}^{⌊t⌋} [ρ(k − t)]^k / k! · e^{−ρ(k − t)}. The
/// alternating terms cancel, so f64 holds it only up to about 30.
fn md1_wait_cdf(rho: f64, t: f64) -> f64 {
    assert!(t < 30.0, "the series loses precision past 30 service times");
    let mut sum = 0.0;
    let mut factorial = 1.0;
    for k in 0..=t.floor() as i32 {
        if k > 0 {
            factorial *= k as f64;
        }
        let x = rho * (k as f64 - t);
        sum += x.powi(k) / factorial * (-x).exp();
    }
    (1.0 - rho) * sum
}

/// The waits the distribution check reads, in service times, and how
/// far the measured share within each may stray from Erlang's.
const WAIT_MARKS: [f64; 2] = [5.0, 10.0];
const BANDS: [f64; 2] = [0.025, 0.01];

/// Asserts one load's mean-wait ratio and idle share inside their bands.
fn check(rho: f64, mean_band: (f64, f64), idle_band: f64) {
    let (ratio, idle) = mean_and_idle(rho, &md1_waits(rho, 42));
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
fn heavy_load_wait_distribution_is_md1() {
    // Erlang's series at ρ = 0.8: 0.8995 of flows wait at most 5 S and
    // 0.9883 at most 10 S (the p99 is 10.36 S, 212 ns).
    let rho = 0.8;
    let expected = WAIT_MARKS.map(|t| md1_wait_cdf(rho, t));
    assert!((expected[0] - 0.8995).abs() < 5e-5, "{expected:?}");
    assert!((expected[1] - 0.9883).abs() < 5e-5, "{expected:?}");
    let waits = md1_waits(rho, 42);
    for ((t, want), band) in WAIT_MARKS.into_iter().zip(expected).zip(BANDS) {
        let got = share_within(&waits, t);
        assert!(
            (got - want).abs() <= band,
            "rho {rho}: {got:.4} of flows waited at most {t} S, M/D/1 says {want:.4}"
        );
    }
}

#[test]
#[ignore = "prints the spread the bands were set from"]
fn spread_over_seeds() {
    for rho in [0.5, 0.8] {
        let runs: Vec<Vec<f64>> = (0..16).map(|seed| md1_waits(rho, seed)).collect();
        let range = |f: &dyn Fn(&[f64]) -> f64| {
            let v = runs.iter().map(|w| f(w));
            let lo = v.clone().fold(f64::INFINITY, f64::min);
            (lo, v.fold(f64::NEG_INFINITY, f64::max))
        };
        let ratios = range(&|w| mean_and_idle(rho, w).0);
        let idles = range(&|w| mean_and_idle(rho, w).1 - (1.0 - rho));
        println!(
            "rho {rho}: mean-wait ratio {:.3}..{:.3}, idle share - (1 - rho) {:+.4}..{:+.4}",
            ratios.0, ratios.1, idles.0, idles.1,
        );
        for t in WAIT_MARKS {
            let d = range(&|w| share_within(w, t) - md1_wait_cdf(rho, t));
            println!(
                "rho {rho}: share within {t} S - M/D/1 {:+.4}..{:+.4}",
                d.0, d.1
            );
        }
    }
}
