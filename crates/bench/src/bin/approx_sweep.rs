//! Approximate-engine validation and what-if grid harness.
//!
//! Two parts, one artifact:
//!
//! **Validation (part A)** — on the overlap sizes both engines can run
//! (144-node single switch, 288-node leaf–spine), simulate the same
//! flow set exactly and through [`edm_approx::ApproxEngine`], record
//! p50/p99 FCT error per point, and assert the documented
//! [`edm_approx::P99_ERROR_BOUND`] envelope at the calibrated loads
//! {0.4, 0.7} plus a trunk-fault scenario. One deliberately
//! out-of-envelope point (4 KiB messages at load 0.7) is recorded with
//! `in_envelope: false` so the estimator's breakdown regime stays
//! visible in committed artifacts. The same run times the exact engine
//! at 288 nodes for every grid load (the per-flow A/B behind the
//! reported extrapolation) and then runs the exact engine *directly* on
//! the full 1024-host fabric at every grid load — the measured, not
//! extrapolated, denominator every grid speedup is quoted against.
//!
//! **Grid (part B)** — a 1024-host leaf–spine what-if grid the exact
//! engine would grind through one full simulation at a time: every load
//! in {0.15, 0.3, 0.5, 0.7, 0.85} crossed with 21 failure variants
//! (healthy, trunk cuts, optics degradation, spine kills, double trunk
//! cuts, access cuts) = 105 scenarios. Scenarios share one
//! [`edm_approx::SweepCache`]; each load's healthy point builds a
//! [`edm_approx::SweepBase`] and replays its cold clusters into the
//! cache ([`edm_approx::SweepBase::prime`]), fault variants go through
//! [`edm_approx::SweepBase::estimate_delta`] so only the clusters a
//! fault touches are rebuilt and replayed, and only the flows they
//! carry recomposed.
//! The whole grid runs `EDM_GRID_PASSES` times with fresh caches and
//! each scenario reports its minimum wall-clock, the usual steal-noise
//! defense on shared runners.
//!
//! Run:
//!   `cargo run --release -p edm-bench --bin approx_sweep [-- --out DIR]`
//!
//! Env:
//!   `EDM_FLOWS` — flows per validation point (default 4,000)
//!   `EDM_GRID_FLOWS` — flows per grid scenario (default 20,000)
//!   `EDM_GRID_VARIANTS` — fault variants per load (default 21)
//!   `EDM_GRID_PASSES` — full grid passes, min taken (default 2)
//!   `EDM_REPS` — timing repetitions per validation point (default 3)
//!
//! The ≥10× speedup gate (mean and median per-scenario estimator
//! wall-clock vs the same-run direct exact cost at that scenario's
//! load) and the 100+-scenario floor are asserted only at full scale —
//! CI smoke runs shrink the knobs and still assert the error envelope.
//!
//! Writes `BENCH_approx.json` into `--out DIR` (default `.`).

use std::time::Instant;

use edm_approx::{apply_faults, ApproxEngine, SweepBase, SweepCache, P99_ERROR_BOUND};
use edm_bench::{row, scenarios};
use edm_core::sim::Flow;
use edm_sim::{Bandwidth, Duration, Summary, Time};
use edm_topo::{FaultEvent, FaultKind, LeafSpine, TopoEdm, TopoEdmConfig, Topology};
use edm_workloads::{RackAwareWorkload, SyntheticWorkload};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Minimum wall-clock of `reps` runs of `f`, in nanoseconds.
fn min_ns<F: FnMut()>(reps: usize, mut f: F) -> u64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("at least one rep")
}

fn rack_workload(
    nodes: usize,
    racks: usize,
    load: f64,
    size: u32,
    count: usize,
) -> RackAwareWorkload {
    RackAwareWorkload {
        nodes,
        racks,
        link: Bandwidth::from_gbps(100),
        load,
        size,
        write_fraction: 0.5,
        local_fraction: 0.5,
        count,
    }
}

fn p(s: &mut Summary, q: f64) -> f64 {
    assert!(!s.is_empty());
    s.percentile(q)
}

/// One exact-vs-approx validation point on an overlap size.
struct Overlap {
    name: String,
    hosts: usize,
    load: f64,
    size: u32,
    p50_err: f64,
    p99_err: f64,
    in_envelope: bool,
    asserted: bool,
    exact_ns: u64,
    approx_ns: u64,
}

/// Runs one overlap comparison: the exact engine sees `cfg` (fault
/// events and all); the estimator sees the post-fault fabric statically.
#[allow(clippy::too_many_arguments)]
fn overlap_point(
    name: &str,
    hosts: usize,
    load: f64,
    size: u32,
    topo: &Topology,
    cfg: &TopoEdmConfig,
    flows: &[Flow],
    reps: usize,
    asserted: bool,
) -> Overlap {
    let exact_eng = TopoEdm::new(cfg.clone());
    let mut what_if = topo.clone();
    let static_faults: Vec<FaultKind> = cfg.faults.iter().map(|f| f.kind).collect();
    apply_faults(&mut what_if, &static_faults);
    let mut est_cfg = cfg.clone();
    est_cfg.faults.clear();
    let approx_eng = ApproxEngine::new(est_cfg);

    let exact = exact_eng.simulate(topo, flows);
    let est = approx_eng.estimate(&what_if, flows);
    assert_eq!(est.delivered(), exact.delivered(), "{name}: deliverability");
    let mut xs = Summary::new();
    for o in &exact.outcomes {
        if let Some(m) = o.mct() {
            xs.record_duration(m);
        }
    }
    let mut es = est.mct_summary();
    let err = |q: f64, xs: &mut Summary, es: &mut Summary| {
        let (x, e) = (p(xs, q), p(es, q));
        (e - x).abs() / x
    };
    let p50_err = err(50.0, &mut xs, &mut es);
    let p99_err = err(99.0, &mut xs, &mut es);
    let in_envelope = p50_err <= P99_ERROR_BOUND && p99_err <= P99_ERROR_BOUND;
    if asserted {
        assert!(
            in_envelope,
            "{name}: p50 {p50_err:.4} / p99 {p99_err:.4} outside the \
             documented {P99_ERROR_BOUND} envelope"
        );
    }

    let exact_ns = min_ns(reps, || {
        std::hint::black_box(exact_eng.simulate(topo, flows));
    });
    let approx_ns = min_ns(reps, || {
        std::hint::black_box(approx_eng.estimate(&what_if, flows));
    });
    Overlap {
        name: name.into(),
        hosts,
        load,
        size,
        p50_err,
        p99_err,
        in_envelope,
        asserted,
        exact_ns,
        approx_ns,
    }
}

/// The grid's deterministic fault-variant catalog: 21 what-if states of
/// the 1024-host fabric, weighted roughly like production fault logs —
/// optics degradations and single-host link cuts dominate, trunk cuts
/// are less common, and whole-spine losses are rare (but stay in the
/// grid: they are the scenarios a what-if sweep exists to price).
fn variants(topo: &Topology) -> Vec<(String, Vec<FaultKind>)> {
    let trunks: Vec<u32> = topo
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.is_trunk())
        .map(|(i, _)| i as u32)
        .collect();
    let hosts = topo.nodes();
    let spread = |i: usize, n: usize| trunks[(i * trunks.len()) / n];
    let mut v: Vec<(String, Vec<FaultKind>)> = vec![("healthy".into(), vec![])];
    for i in 0..6 {
        let t = spread(i, 6);
        v.push((format!("trunk_down_{t}"), vec![FaultKind::LinkDown(t)]));
    }
    for i in 0..6 {
        let t = spread(2 * i + 1, 12);
        v.push((
            format!("degrade_{t}"),
            vec![FaultKind::DegradeLink {
                link: t,
                extra: Duration::from_us(1),
            }],
        ));
    }
    // Spines are numbered after the leaves.
    let leaves = topo
        .links()
        .iter()
        .filter_map(|l| match l.a {
            edm_topo::Endpoint::Node(_) => match l.b {
                edm_topo::Endpoint::Port { switch, .. } => Some(switch + 1),
                edm_topo::Endpoint::Node(_) => None,
            },
            _ => None,
        })
        .max()
        .expect("hosts attach to leaves");
    for s in [leaves, leaves + 4] {
        v.push((format!("spine_down_{s}"), vec![FaultKind::SwitchDown(s)]));
    }
    {
        let (a, b) = (spread(0, 6), spread(3, 6));
        v.push((
            format!("double_trunk_{a}_{b}"),
            vec![FaultKind::LinkDown(a), FaultKind::LinkDown(b)],
        ));
    }
    for i in 0..5 {
        let n = (i * hosts) / 5 + i;
        v.push((
            format!("access_down_{n}"),
            vec![FaultKind::LinkDown(topo.node_link(n))],
        ));
    }
    v
}

struct GridPoint {
    load: f64,
    variant: String,
    est_ns: u64,
    exact_direct_ns: u64,
    exact_extrap_ns: u64,
    delivered: usize,
    failed: usize,
    clusters: usize,
    replays: u64,
    p50_ns: f64,
    p99_ns: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    let flows_n = env_u64("EDM_FLOWS", 4_000) as usize;
    let grid_flows = env_u64("EDM_GRID_FLOWS", 20_000) as usize;
    let variants_n = env_u64("EDM_GRID_VARIANTS", 21) as usize;
    let passes = env_u64("EDM_GRID_PASSES", 2) as usize;
    let reps = env_u64("EDM_REPS", 3) as usize;
    const GRID_LOADS: [f64; 5] = [0.15, 0.3, 0.5, 0.7, 0.85];
    let full_scale = grid_flows >= 20_000 && variants_n >= 21;

    println!(
        "approx_sweep: validation {flows_n} flows/point, grid {} loads x \
         {variants_n} variants x {grid_flows} flows, {passes} pass(es)\n",
        GRID_LOADS.len()
    );

    // ---- Part A: overlap validation --------------------------------
    let cfg = TopoEdmConfig::default();
    let mut overlap: Vec<Overlap> = Vec::new();

    let topo144 = edm_topo::cluster_topology(&edm_core::sim::ClusterConfig::default());
    for load in [0.4, 0.7] {
        let flows = SyntheticWorkload::paper_default(load, 0.5, flows_n).generate(42);
        overlap.push(overlap_point(
            &format!("single_switch_144/load_{load}"),
            144,
            load,
            64,
            &topo144,
            &cfg,
            &flows,
            reps,
            true,
        ));
    }

    let topo288 = Topology::leaf_spine(scenarios::leaf_spine_288_spec(1));
    for load in [0.4, 0.7] {
        let flows = rack_workload(288, 4, load, 64, flows_n).generate(42);
        overlap.push(overlap_point(
            &format!("leaf_spine_288/load_{load}"),
            288,
            load,
            64,
            &topo288,
            &cfg,
            &flows,
            reps,
            true,
        ));
    }

    // Trunk-fault scenario: the exact engine takes it as a t=0 event,
    // the estimator as a static degraded fabric.
    {
        let trunk = topo288
            .links()
            .iter()
            .position(|l| l.is_trunk())
            .expect("leaf-spine has trunks") as u32;
        let mut fcfg = cfg.clone();
        fcfg.faults.push(FaultEvent {
            at: Time::ZERO,
            kind: FaultKind::LinkDown(trunk),
        });
        let flows = rack_workload(288, 4, 0.7, 64, flows_n).generate(42);
        overlap.push(overlap_point(
            "leaf_spine_288/trunk_down/load_0.7",
            288,
            0.7,
            64,
            &topo288,
            &fcfg,
            &flows,
            reps,
            true,
        ));
    }

    // The documented breakdown regime, recorded but not asserted: at
    // multi-KiB messages per-hop serialization couples the links and the
    // independent per-link replays miss correlated delay.
    {
        let flows = rack_workload(288, 4, 0.7, 4096, flows_n).generate(42);
        overlap.push(overlap_point(
            "leaf_spine_288/size_4096/load_0.7",
            288,
            0.7,
            4096,
            &topo288,
            &cfg,
            &flows,
            reps,
            false,
        ));
    }

    row(
        "overlap",
        &[
            "load".into(),
            "size".into(),
            "p50err".into(),
            "p99err".into(),
            "exact_ms".into(),
            "approx_ms".into(),
            "envelope".into(),
        ],
    );
    for o in &overlap {
        row(
            &o.name,
            &[
                format!("{:.2}", o.load),
                o.size.to_string(),
                format!("{:.4}", o.p50_err),
                format!("{:.4}", o.p99_err),
                format!("{:.2}", o.exact_ns as f64 / 1e6),
                format!("{:.2}", o.approx_ns as f64 / 1e6),
                if o.in_envelope { "in" } else { "OUT" }.to_string(),
            ],
        );
    }

    // ---- Same-run A/B at 288 nodes for every grid load -------------
    // Grounds the grid's extrapolated exact cost: exact per-flow
    // wall-clock at the largest overlap size, per load.
    println!();
    let mut ab: Vec<(f64, u64, u64, usize)> = Vec::new(); // (load, exact_ns, approx_ns, flows)
    for &load in &GRID_LOADS {
        let flows = rack_workload(288, 4, load, 64, flows_n).generate(42);
        let exact_eng = TopoEdm::new(cfg.clone());
        let approx_eng = ApproxEngine::new(cfg.clone());
        let exact_ns = min_ns(reps, || {
            std::hint::black_box(exact_eng.simulate(&topo288, &flows));
        });
        let approx_ns = min_ns(reps, || {
            std::hint::black_box(approx_eng.estimate(&topo288, &flows));
        });
        row(
            &format!("ab_288/load_{load}"),
            &[
                format!("exact {:.2} ms", exact_ns as f64 / 1e6),
                format!("approx {:.2} ms", approx_ns as f64 / 1e6),
                format!(
                    "{:.2} us/flow exact",
                    exact_ns as f64 / 1e3 / flows.len() as f64
                ),
            ],
        );
        ab.push((load, exact_ns, approx_ns, flows.len()));
    }
    // Naively extrapolated exact cost of one grid scenario at `load`:
    // the 288-node per-flow cost times the grid flow count. The direct
    // calibration below shows this understates the true 1024-host cost
    // (more switches, deeper heaps), so it is reported but never used
    // as a speedup denominator.
    let extrap_ns = |load: f64| -> u64 {
        let &(_, exact_ns, _, n) = ab
            .iter()
            .find(|(l, ..)| *l == load)
            .expect("every grid load has an A/B point");
        (exact_ns as f64 / n as f64 * grid_flows as f64) as u64
    };

    // ---- Direct 1024-host exact calibration, per grid load ---------
    // The grid fabric is still small enough to run the exact engine on
    // directly, so the speedup denominator is a same-run measurement,
    // not an extrapolation: one exact 1024-host run per load (min of
    // 2). Fault variants cost the exact engine the same as healthy runs
    // (fewer routable flows, same event volume), so the healthy direct
    // cost stands in for every variant at that load. Beyond this size
    // you would fall back to the extrapolation, whose per-load
    // calibration factor this section also reports.
    let spec1024 = LeafSpine::symmetric(16, 8, 64, 8);
    let topo1024 = Topology::leaf_spine(spec1024);
    println!();
    let direct: Vec<(f64, u64)> = GRID_LOADS
        .iter()
        .map(|&load| {
            let flows = rack_workload(1024, 16, load, 64, grid_flows).generate(42);
            let eng = TopoEdm::new(cfg.clone());
            let ns = min_ns(2, || {
                std::hint::black_box(eng.simulate(&topo1024, &flows));
            });
            row(
                &format!("calibration/load_{load}"),
                &[
                    format!("exact 1024-host {:.1} ms", ns as f64 / 1e6),
                    format!("extrapolation {:.1} ms", extrap_ns(load) as f64 / 1e6),
                    format!("factor {:.2}", ns as f64 / extrap_ns(load) as f64),
                ],
            );
            (load, ns)
        })
        .collect();
    let direct_ns = |load: f64| -> u64 {
        direct
            .iter()
            .find(|(l, _)| *l == load)
            .expect("every grid load measured directly")
            .1
    };
    println!();

    // ---- Part B: the what-if grid ----------------------------------
    let vars = {
        let mut v = variants(&topo1024);
        v.truncate(variants_n);
        v
    };
    let eng = ApproxEngine::new(cfg.clone());
    let loads: Vec<(f64, Vec<Flow>)> = GRID_LOADS
        .iter()
        .map(|&l| (l, rack_workload(1024, 16, l, 64, grid_flows).generate(42)))
        .collect();

    let mut grid: Vec<GridPoint> = Vec::new();
    for pass in 0..passes.max(1) {
        let mut cache = SweepCache::new();
        let mut idx = 0;
        for (load, flows) in &loads {
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
                    let mut b = SweepBase::new(&topo1024, &cfg, flows.clone());
                    b.prime(&mut cache);
                    let r = cache.compose(&topo1024, &cfg, b.decomp(), eng.combine);
                    base = Some(b);
                    r
                } else {
                    let mut what_if = topo1024.clone();
                    apply_faults(&mut what_if, faults);
                    base.as_ref()
                        .expect("healthy variant seeds the base first")
                        .estimate_delta(&what_if, eng.combine, &mut cache)
                };
                let est_ns = t.elapsed().as_nanos() as u64;
                if pass == 0 {
                    let mut s = res.mct_summary();
                    grid.push(GridPoint {
                        load: *load,
                        variant: vname.clone(),
                        est_ns,
                        exact_direct_ns: direct_ns(*load),
                        exact_extrap_ns: extrap_ns(*load),
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
        if pass + 1 == passes.max(1) {
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
    let mean_est_ns = grid.iter().map(|g| g.est_ns).sum::<u64>() / scenarios_run as u64;
    let max_est_ns = grid.iter().map(|g| g.est_ns).max().expect("grid nonempty");
    let mut speedups: Vec<f64> = grid
        .iter()
        .map(|g| g.exact_direct_ns as f64 / g.est_ns as f64)
        .collect();
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
        mean_est_ns as f64 / 1e6,
        max_est_ns as f64 / 1e6,
    );

    // ---- Artifact --------------------------------------------------
    let mut json = String::from("{\n  \"group\": \"approx\",\n");
    json.push_str(&format!(
        "  \"flows_per_point\": {flows_n},\n  \"p99_error_bound\": {P99_ERROR_BOUND},\n"
    ));
    json.push_str("  \"overlap\": [\n");
    for (i, o) in overlap.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"hosts\": {}, \"load\": {:.2}, \
             \"size\": {}, \"p50_err\": {:.4}, \"p99_err\": {:.4}, \
             \"in_envelope\": {}, \"asserted\": {}, \"exact_ms\": {:.3}, \
             \"approx_ms\": {:.3}}}{}\n",
            o.name,
            o.hosts,
            o.load,
            o.size,
            o.p50_err,
            o.p99_err,
            o.in_envelope,
            o.asserted,
            o.exact_ns as f64 / 1e6,
            o.approx_ns as f64 / 1e6,
            if i + 1 < overlap.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"ab_288\": [\n");
    for (i, (load, exact_ns, approx_ns, n)) in ab.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"load\": {:.2}, \"flows\": {n}, \"exact_ms\": {:.3}, \
             \"approx_ms\": {:.3}, \"exact_us_per_flow\": {:.3}}}{}\n",
            load,
            *exact_ns as f64 / 1e6,
            *approx_ns as f64 / 1e6,
            *exact_ns as f64 / 1e3 / *n as f64,
            if i + 1 < ab.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"calibration\": [\n");
    for (i, (load, ns)) in direct.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"hosts\": 1024, \"flows\": {grid_flows}, \"load\": {:.2}, \
             \"exact_direct_ms\": {:.3}, \"extrapolated_ms\": {:.3}, \
             \"factor\": {:.3}}}{}\n",
            load,
            *ns as f64 / 1e6,
            extrap_ns(*load) as f64 / 1e6,
            *ns as f64 / extrap_ns(*load) as f64,
            if i + 1 < direct.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"grid\": {{\"hosts\": 1024, \"flows\": {grid_flows}, \
         \"loads\": {:?}, \"variants\": {}, \"scenarios\": {scenarios_run}, \
         \"passes\": {passes}, \"mean_est_ms\": {:.3}, \"max_est_ms\": {:.3}, \
         \"mean_speedup\": {mean_speedup:.2}, \"median_speedup\": {median_speedup:.2}, \
         \"min_speedup\": {min_speedup:.2}, \"aggregate_speedup\": {aggregate_speedup:.2}}},\n",
        GRID_LOADS,
        vars.len(),
        mean_est_ns as f64 / 1e6,
        max_est_ns as f64 / 1e6,
    ));
    json.push_str("  \"grid_points\": [\n");
    for (i, g) in grid.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"load\": {:.2}, \"variant\": \"{}\", \"est_ms\": {:.3}, \
             \"exact_direct_ms\": {:.3}, \"exact_extrap_ms\": {:.3}, \"speedup\": {:.1}, \
             \"delivered\": {}, \"failed\": {}, \"clusters\": {}, \
             \"replays\": {}, \"p50_ns\": {:.0}, \"p99_ns\": {:.0}}}{}\n",
            g.load,
            g.variant,
            g.est_ns as f64 / 1e6,
            g.exact_direct_ns as f64 / 1e6,
            g.exact_extrap_ns as f64 / 1e6,
            g.exact_direct_ns as f64 / g.est_ns as f64,
            g.delivered,
            g.failed,
            g.clusters,
            g.replays,
            g.p50_ns,
            g.p99_ns,
            if i + 1 < grid.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = out_dir.join("BENCH_approx.json");
    std::fs::write(&path, &json).expect("write artifact");
    println!("wrote {}", path.display());

    if full_scale {
        assert!(
            scenarios_run >= 100,
            "full-scale grid must cover 100+ scenarios, ran {scenarios_run}"
        );
        assert!(
            mean_speedup >= 10.0,
            "full-scale grid mean per-scenario speedup {mean_speedup:.1}x \
             below the 10x gate"
        );
        assert!(
            median_speedup >= 10.0,
            "full-scale grid median per-scenario speedup {median_speedup:.1}x \
             below the 10x gate"
        );
    }
}
