//! The what-if grid of the approximate estimator (`BENCH_approx.json`).
//!
//! A 1024-host leaf–spine grid the exact engine would grind through one
//! full simulation at a time: every load in {0.15, 0.3, 0.5, 0.7, 0.85}
//! crossed with 21 failure variants (healthy, trunk cuts, optics
//! degradation, spine kills, double trunk cuts, access cuts) = 105
//! scenarios. Scenarios share one [`edm_approx::SweepCache`]; each load's
//! healthy point builds a [`edm_approx::SweepBase`] and replays its cold
//! clusters into the cache ([`edm_approx::SweepBase::prime`]), fault
//! variants go through [`edm_approx::SweepBase::estimate_delta`] so only
//! the clusters a fault touches are rebuilt and replayed, and only the
//! flows they carry recomposed. The whole grid runs [`PASSES`] times with
//! fresh caches and each scenario reports its minimum wall-clock, the
//! usual steal-noise defense on shared runners.
//!
//! The fabric is still small enough to run the exact engine on directly,
//! so every speedup is quoted against a same-run measurement: one exact
//! 1024-host run per load (min of 2). The ≥10× gate (mean and median
//! per-scenario estimator wall-clock vs that direct exact cost) and the
//! 100+-scenario floor are asserted on every run. How close the estimate
//! is to the exact engine — deliverability, the p99 envelope, the 4 KiB
//! breakdown band — is `crates/approx/tests/error_envelope.rs`.

use std::path::Path;
use std::time::Instant;

use crate::json::Json;
use crate::scenarios;
use edm_approx::{apply_faults, Combine, SweepBase, SweepCache};
use edm_core::sim::Flow;
use edm_sim::Summary;
use edm_topo::{TopoEdm, TopoEdmConfig};

const GRID_LOADS: [f64; 5] = [0.15, 0.3, 0.5, 0.7, 0.85];
/// Flows per grid scenario.
const GRID_FLOWS: usize = 20_000;
/// Full grid passes; each scenario keeps its minimum.
const PASSES: usize = 2;

fn p(s: &mut Summary, q: f64) -> f64 {
    assert!(!s.is_empty());
    s.percentile(q)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

struct GridPoint {
    load: f64,
    variant: String,
    est_ns: u64,
    exact_direct_ns: u64,
    delivered: usize,
    failed: usize,
    clusters: usize,
    replays: u64,
    p50_ns: f64,
    p99_ns: f64,
}

pub fn run(out: &Path) {
    let cfg = TopoEdmConfig::default();
    let topo = scenarios::leaf_spine_1024();
    let vars = scenarios::what_if_variants(&topo);
    let loads: Vec<(f64, Vec<Flow>)> = GRID_LOADS
        .iter()
        .map(|&l| {
            let wl = scenarios::rack_workload(1024, 16, l, 0.5, GRID_FLOWS);
            (l, wl.generate(42))
        })
        .collect();
    println!(
        "approx_sweep: 1024 hosts, {} loads x {} variants x {GRID_FLOWS} flows, {PASSES} passes\n",
        loads.len(),
        vars.len()
    );

    // Fault variants cost the exact engine the same as healthy runs
    // (fewer routable flows, same event volume), so the healthy direct
    // cost stands in for every variant at that load.
    let exact = TopoEdm::new(cfg.clone());
    let direct: Vec<u64> = loads
        .iter()
        .map(|(load, flows)| {
            let ns = (0..2)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(exact.simulate(&topo, flows));
                    t.elapsed().as_nanos() as u64
                })
                .min()
                .expect("two runs");
            println!("exact 1024-host run at load {load}: {:.1} ms", ms(ns));
            ns
        })
        .collect();
    println!();

    let mut grid: Vec<GridPoint> = Vec::new();
    for pass in 0..PASSES {
        let mut cache = SweepCache::new();
        let mut idx = 0;
        for ((load, flows), &exact_direct_ns) in loads.iter().zip(&direct) {
            // The healthy variant runs first at each load: it builds the
            // load's `SweepBase` (routes, decomposition, per-link member
            // index) and replays its cold clusters into the shared
            // cache. Every fault variant is then a delta rebuild
            // against that base. All of the base construction is timed
            // inside the healthy point — nothing is free.
            let mut base: Option<SweepBase> = None;
            for (vname, faults) in &vars {
                let before = cache.misses();
                let t = Instant::now();
                let res = if faults.is_empty() {
                    let mut b = SweepBase::new(&topo, &cfg, flows.clone());
                    b.prime(&mut cache);
                    let r = cache.compose(&topo, &cfg, b.decomp(), Combine::Sum);
                    base = Some(b);
                    r
                } else {
                    let mut what_if = topo.clone();
                    apply_faults(&mut what_if, faults);
                    base.as_ref()
                        .expect("healthy variant seeds the base first")
                        .estimate_delta(&what_if, Combine::Sum, &mut cache)
                };
                let est_ns = t.elapsed().as_nanos() as u64;
                if pass == 0 {
                    let mut s = res.mct_summary();
                    grid.push(GridPoint {
                        load: *load,
                        variant: vname.clone(),
                        est_ns,
                        exact_direct_ns,
                        delivered: res.delivered(),
                        failed: res.failed(),
                        clusters: res.clusters,
                        replays: cache.misses() - before,
                        p50_ns: p(&mut s, 50.0),
                        p99_ns: p(&mut s, 99.0),
                    });
                } else {
                    grid[idx].est_ns = grid[idx].est_ns.min(est_ns);
                }
                idx += 1;
            }
        }
        if pass + 1 == PASSES {
            println!(
                "grid cache (final pass): {} hits, {} replays, {} solo probes",
                cache.hits(),
                cache.misses(),
                cache.solo_probes()
            );
        }
    }

    // Per-scenario speedup: each scenario's estimator wall-clock vs the
    // directly measured exact cost of that scenario's load. Three
    // aggregates, all reported: the mean and median of per-scenario
    // speedups (the gated numbers — "how much cheaper is a scenario"),
    // and the aggregate ratio total-exact/total-estimate (dominated by
    // the few expensive spine-kill and healthy cold-start points).
    let scenarios_run = grid.len();
    let speedup = |g: &GridPoint| g.exact_direct_ns as f64 / g.est_ns as f64;
    let mean_est_ns = grid.iter().map(|g| g.est_ns).sum::<u64>() / scenarios_run as u64;
    let max_est_ns = grid.iter().map(|g| g.est_ns).max().expect("grid nonempty");
    let mut speedups: Vec<f64> = grid.iter().map(speedup).collect();
    speedups.sort_by(|a, b| a.partial_cmp(b).expect("finite speedups"));
    let mean_speedup = speedups.iter().sum::<f64>() / scenarios_run as f64;
    let median_speedup = speedups[scenarios_run / 2];
    let min_speedup = speedups[0];
    let aggregate_speedup = grid.iter().map(|g| g.exact_direct_ns).sum::<u64>() as f64
        / grid.iter().map(|g| g.est_ns).sum::<u64>() as f64;
    println!(
        "grid: {scenarios_run} scenarios, mean {:.2} ms/scenario (max {:.2})\n\
         per-scenario speedup vs direct exact: mean {mean_speedup:.1}x, \
         median {median_speedup:.1}x, min {min_speedup:.1}x \
         (aggregate {aggregate_speedup:.1}x)\n",
        ms(mean_est_ns),
        ms(max_est_ns),
    );

    let exact_direct = GRID_LOADS.iter().zip(&direct).map(|(&load, &ns)| {
        Json::Obj(vec![
            ("load", Json::fixed(load, 2)),
            ("exact_direct_ms", Json::fixed(ms(ns), 3)),
        ])
    });
    let grid_points = grid.iter().map(|g| {
        Json::Obj(vec![
            ("load", Json::fixed(g.load, 2)),
            ("variant", Json::str(&*g.variant)),
            ("est_ms", Json::fixed(ms(g.est_ns), 3)),
            ("exact_direct_ms", Json::fixed(ms(g.exact_direct_ns), 3)),
            ("speedup", Json::fixed(speedup(g), 1)),
            ("delivered", Json::lit(g.delivered)),
            ("failed", Json::lit(g.failed)),
            ("clusters", Json::lit(g.clusters)),
            ("replays", Json::lit(g.replays)),
            ("p50_ns", Json::fixed(g.p50_ns, 0)),
            ("p99_ns", Json::fixed(g.p99_ns, 0)),
        ])
    });
    Json::Obj(vec![
        ("group", Json::str("approx")),
        ("exact_direct", Json::Arr(exact_direct.collect())),
        (
            "grid",
            Json::Obj(vec![
                ("hosts", Json::lit(1024)),
                ("flows", Json::lit(GRID_FLOWS)),
                ("loads", Json::Arr(GRID_LOADS.map(Json::lit).into())),
                ("variants", Json::lit(vars.len())),
                ("scenarios", Json::lit(scenarios_run)),
                ("passes", Json::lit(PASSES)),
                ("mean_est_ms", Json::fixed(ms(mean_est_ns), 3)),
                ("max_est_ms", Json::fixed(ms(max_est_ns), 3)),
                ("mean_speedup", Json::fixed(mean_speedup, 2)),
                ("median_speedup", Json::fixed(median_speedup, 2)),
                ("min_speedup", Json::fixed(min_speedup, 2)),
                ("aggregate_speedup", Json::fixed(aggregate_speedup, 2)),
            ]),
        ),
        ("grid_points", Json::Arr(grid_points.collect())),
    ])
    .write(out, "BENCH_approx.json");

    assert!(
        scenarios_run >= 100,
        "the grid must cover 100+ scenarios, ran {scenarios_run}"
    );
    assert!(
        mean_speedup >= 10.0,
        "grid mean per-scenario speedup {mean_speedup:.1}x below the 10x gate"
    );
    assert!(
        median_speedup >= 10.0,
        "grid median per-scenario speedup {median_speedup:.1}x below the 10x gate"
    );
}
