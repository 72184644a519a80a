//! The closed-loop application experiment (`BENCH_app.json`):
//! tenant-driven YCSB over the 288-node leaf–spine fabric.
//!
//! Two artefacts, both on the identical topology so the comparison is
//! apples-to-apples:
//!
//! * **Transport comparison** — EDM's in-PHY fabric vs store-and-forward
//!   CXL-over-Ethernet serving the same tenant population (request
//!   latency percentiles and sustained op rate);
//! * **Slowdown grid** — the EDAN-style sensitivity sweep: application
//!   slowdown (makespan normalized to the all-local run at the same
//!   window and think time) over MLP ∈ {1, 2, 4, 8, 16} × local:remote
//!   split × offered load (saturating vs think-limited).
//!
//! The tenant population is [`scenarios::paper_app`]. Grid points fan out
//! one thread each via [`par_sweep`]; each point is a deterministic
//! closed-loop run (seed fixed by config), so `BENCH_app.json`
//! regenerates byte for byte.
//!
//! The experiment *asserts* the acceptance envelope before writing: every
//! op completes (healthy fabric), residency stays inside the summed MLP
//! windows (O(active ops) memory), and EDM beats CXL-oE on both median
//! latency and sustained rate on the identical topology.

use std::path::Path;

use crate::json::Json;
use crate::scenarios::{self, paper_app, APP_OPS_PER_TENANT, APP_TENANTS};
use crate::util::{par_sweep, row};
use edm_sim::Duration;
use edm_topo::{AppConfig, AppTransport, TopoEdm, Topology};

/// One measured closed-loop run.
#[derive(Debug, Clone)]
pub struct AppPoint {
    /// Point label (transport name or grid coordinates).
    pub label: String,
    /// Median request→response latency, ns.
    pub p50_ns: f64,
    /// Tail request→response latency, ns.
    pub p99_ns: f64,
    /// Sustained completed-op rate over the makespan.
    pub ops_per_sec: f64,
    /// Run makespan, ns.
    pub makespan_ns: f64,
    /// Ops completed / failed.
    pub completed: u64,
    /// Ops lost to partitions (0 on a healthy fabric).
    pub failed: u64,
    /// Peak concurrently-resident ops — the O(active ops) memory pin.
    pub ops_high_water: usize,
}

impl AppPoint {
    fn measure(label: String, topo: &Topology, app: &AppConfig) -> Self {
        let r = TopoEdm::default().simulate_app(topo, app);
        let makespan_ns = r.makespan.as_ns_f64();
        AppPoint {
            label,
            p50_ns: r.lat.percentile(50.0) as f64 / 1000.0,
            p99_ns: r.lat.percentile(99.0) as f64 / 1000.0,
            ops_per_sec: r.ops_completed as f64 / (makespan_ns / 1e9),
            makespan_ns,
            completed: r.ops_completed,
            failed: r.ops_failed,
            ops_high_water: r.ops_high_water,
        }
    }
}

/// One slowdown-grid cell: [`AppPoint`] plus its coordinates and the
/// makespan ratio against the all-local baseline at the same window and
/// think time.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// The measured remote-serving run.
    pub point: AppPoint,
    /// Tenant MLP window.
    pub mlp: u32,
    /// Local:remote split (fraction served by node-local DRAM).
    pub local: f64,
    /// Load label (`"sat"` or `"think2us"`).
    pub load: &'static str,
    /// Makespan / all-local makespan (≥ ~1; EDAN's slowdown metric).
    pub slowdown: f64,
}

/// The sweep result: the transport comparison plus the slowdown grid.
#[derive(Debug, Clone)]
pub struct AppSweepReport {
    /// EDM first, CXL-oE second — same tenants, same topology.
    pub comparison: Vec<AppPoint>,
    /// Slowdown grid, row-major in (load, local, mlp).
    pub grid: Vec<GridPoint>,
}

const MLPS: [u32; 5] = [1, 2, 4, 8, 16];
const LOCALS: [f64; 3] = [0.0, 0.25, 0.5];

/// Runs the sweep on the 288-node leaf–spine.
pub fn measure() -> AppSweepReport {
    let topo = scenarios::leaf_spine_288(1);
    let loads = [("sat", Duration::ZERO), ("think2us", Duration::from_us(2))];

    // Transport comparison: MLP 4, fully remote, saturating.
    let comparison: Vec<AppPoint> = par_sweep(
        vec![("edm", AppTransport::Edm), ("cxl_oe", AppTransport::CxlOe)],
        |(label, transport)| {
            let app = paper_app(transport, 4, 0.0, Duration::ZERO);
            AppPoint::measure(label.to_string(), &topo, &app)
        },
    );

    // Slowdown grid. The all-local baseline divides out everything that
    // is not remote-memory exposure, so cache one per (mlp, load).
    let baselines: Vec<f64> = par_sweep(
        loads
            .iter()
            .flat_map(|&(_, think)| MLPS.iter().map(move |&mlp| (mlp, think)))
            .collect(),
        |(mlp, think)| {
            let app = paper_app(AppTransport::Edm, mlp, 1.0, think);
            AppPoint::measure(String::new(), &topo, &app).makespan_ns
        },
    );
    let mut cells = Vec::new();
    for (li, &(load, think)) in loads.iter().enumerate() {
        for &local in &LOCALS {
            for (mi, &mlp) in MLPS.iter().enumerate() {
                cells.push((mlp, local, load, think, baselines[li * MLPS.len() + mi]));
            }
        }
    }
    let grid = par_sweep(cells, |(mlp, local, load, think, baseline_ns)| {
        let app = paper_app(AppTransport::Edm, mlp, local, think);
        let point = AppPoint::measure(format!("mlp{mlp}/local{local}/{load}"), &topo, &app);
        let slowdown = point.makespan_ns / baseline_ns;
        GridPoint {
            point,
            mlp,
            local,
            load,
            slowdown,
        }
    });

    AppSweepReport { comparison, grid }
}

impl AppSweepReport {
    /// The report as the `BENCH_app.json` document.
    pub fn to_json(&self) -> Json {
        let ns = |v: f64| Json::fixed(v, 1);
        let comparison = self.comparison.iter().map(|p| {
            Json::Obj(vec![
                ("transport", Json::str(&*p.label)),
                ("p50_ns", ns(p.p50_ns)),
                ("p99_ns", ns(p.p99_ns)),
                ("ops_per_sec", ns(p.ops_per_sec)),
                ("completed", Json::lit(p.completed)),
                ("failed", Json::lit(p.failed)),
                ("ops_high_water", Json::lit(p.ops_high_water)),
            ])
        });
        let grid = self.grid.iter().map(|g| {
            Json::Obj(vec![
                ("mlp", Json::lit(g.mlp)),
                ("local", Json::lit(g.local)),
                ("load", Json::str(g.load)),
                ("slowdown", Json::fixed(g.slowdown, 3)),
                ("p50_ns", ns(g.point.p50_ns)),
                ("p99_ns", ns(g.point.p99_ns)),
                ("ops_per_sec", ns(g.point.ops_per_sec)),
                ("makespan_ns", ns(g.point.makespan_ns)),
            ])
        });
        Json::Obj(vec![
            ("group", Json::str("app")),
            ("topology", Json::str("leaf_spine_288")),
            (
                "scale",
                Json::Obj(vec![
                    ("tenants", Json::lit(APP_TENANTS)),
                    ("ops_per_tenant", Json::lit(APP_OPS_PER_TENANT)),
                ]),
            ),
            ("comparison", Json::Arr(comparison.collect())),
            ("slowdown_grid", Json::Arr(grid.collect())),
        ])
    }
}

pub fn run(out: &Path) {
    println!(
        "app_sweep: 288-node leaf-spine, {APP_TENANTS} YCSB-B tenants x {APP_OPS_PER_TENANT} ops\n"
    );
    let report = measure();

    row(
        "transport",
        &["p50", "p99", "ops/s", "failed", "hwm"].map(String::from),
    );
    for p in &report.comparison {
        row(
            &p.label,
            &[
                format!("{:.0} ns", p.p50_ns),
                format!("{:.0} ns", p.p99_ns),
                format!("{:.2e}", p.ops_per_sec),
                p.failed.to_string(),
                p.ops_high_water.to_string(),
            ],
        );
    }
    println!();
    row(
        "grid point",
        &["slowdown", "p50", "ops/s"].map(String::from),
    );
    for g in &report.grid {
        row(
            &g.point.label,
            &[
                format!("{:.3}", g.slowdown),
                format!("{:.0} ns", g.point.p50_ns),
                format!("{:.2e}", g.point.ops_per_sec),
            ],
        );
    }

    // Acceptance envelope. The window bound is per run: tenants x mlp.
    let expected = APP_TENANTS as u64 * APP_OPS_PER_TENANT;
    for p in &report.comparison {
        assert_eq!(
            p.completed, expected,
            "{}: every op must complete on a healthy fabric",
            p.label
        );
        assert_eq!(p.failed, 0, "{}: no op may fail", p.label);
    }
    let (edm, cxl) = (&report.comparison[0], &report.comparison[1]);
    assert!(
        edm.ops_high_water <= APP_TENANTS * 4,
        "residency exceeds the MLP windows"
    );
    assert!(
        edm.p50_ns < cxl.p50_ns,
        "EDM median {} ns must beat CXL-oE {} ns on the same fabric",
        edm.p50_ns,
        cxl.p50_ns
    );
    assert!(
        edm.ops_per_sec > cxl.ops_per_sec,
        "EDM rate {:.2e} must beat CXL-oE {:.2e} on the same fabric",
        edm.ops_per_sec,
        cxl.ops_per_sec
    );
    for g in &report.grid {
        assert_eq!(g.point.completed, expected, "{}: incomplete", g.point.label);
        assert!(
            g.point.ops_high_water <= APP_TENANTS * g.mlp as usize,
            "{}: residency exceeds the MLP windows",
            g.point.label
        );
        assert!(
            g.slowdown > 0.99,
            "{}: remote serving cannot beat all-local ({:.3})",
            g.point.label,
            g.slowdown
        );
    }
    println!(
        "\nenvelope ok: EDM beats CXL-oE ({:.0} vs {:.0} ns p50, {:.2e} vs {:.2e} ops/s)",
        edm.p50_ns, cxl.p50_ns, edm.ops_per_sec, cxl.ops_per_sec
    );

    report.to_json().write(out, "BENCH_app.json");
}
