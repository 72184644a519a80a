//! The closed-loop application benchmark behind the `app_sweep` binary:
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
//! Tenants live on racks 0–1 (nodes 0..144), memory nodes on racks 2–3,
//! so every remote op crosses the spines. Grid points fan out one thread
//! each via [`crate::par_sweep`]; each point is a deterministic
//! closed-loop run (seed fixed by config), so the emitted
//! `BENCH_app.json` is reproducible bit-for-bit at a given scale.

use crate::mem::peak_rss_kb;
use crate::scenarios;
use edm_sim::Duration;
use edm_topo::{AppConfig, AppReport, AppTransport, CxlOeConfig, TopoEdm, Topology};
use edm_workloads::{OpMix, TenantSpec, YcsbWorkload};

/// Sweep scale knobs (the committed artefact uses [`AppScale::full`];
/// CI smoke shrinks everything).
#[derive(Debug, Clone, Copy)]
pub struct AppScale {
    /// Closed-loop tenants, spread over the compute racks.
    pub tenants: usize,
    /// Operations each tenant issues.
    pub ops_per_tenant: u64,
    /// Shard count for every run (1 = sequential).
    pub shards: usize,
    /// Full grid (5 MLPs × 3 splits × 2 loads) or the reduced smoke grid
    /// (3 MLPs × 2 splits × 1 load).
    pub full_grid: bool,
}

impl AppScale {
    /// The committed-artefact scale.
    pub fn full() -> Self {
        AppScale {
            tenants: 24,
            ops_per_tenant: 200,
            shards: 1,
            full_grid: true,
        }
    }

    /// The CI smoke scale.
    pub fn smoke() -> Self {
        AppScale {
            tenants: 8,
            ops_per_tenant: 60,
            shards: 1,
            full_grid: false,
        }
    }
}

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
    fn from_report(label: String, r: &AppReport) -> Self {
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
    /// Scale the sweep ran at.
    pub scale: AppScale,
    /// EDM first, CXL-oE second — same tenants, same topology.
    pub comparison: Vec<AppPoint>,
    /// Slowdown grid, row-major in (load, local, mlp).
    pub grid: Vec<GridPoint>,
    /// Process peak RSS after the sweep (None off-procfs).
    pub peak_rss_kb: Option<u64>,
}

/// The closed-loop config for one point: `tenants` YCSB-B tenants spread
/// over racks 0–1, 16 memory nodes spread over racks 2–3.
pub fn paper_app(
    scale: AppScale,
    transport: AppTransport,
    mlp: u32,
    local: f64,
    think: Duration,
) -> AppConfig {
    let mix = OpMix {
        local_fraction: local,
        ..OpMix::remote(YcsbWorkload::b())
    };
    let tenants = (0..scale.tenants)
        .map(|i| TenantSpec {
            node: i * 144 / scale.tenants,
            mix,
            mlp,
            think_mean: think,
            ops: scale.ops_per_tenant,
        })
        .collect();
    let memory_nodes = (0..16).map(|i| 144 + i * 9).collect();
    AppConfig {
        transport,
        ..AppConfig::new(tenants, memory_nodes)
    }
}

fn run(topo: &Topology, app: &AppConfig, shards: usize) -> AppReport {
    let proto = TopoEdm::default();
    if shards > 1 {
        proto.simulate_app_sharded(topo, app, shards)
    } else {
        proto.simulate_app(topo, app)
    }
}

/// Runs the full sweep at `scale` on the 288-node leaf–spine.
pub fn measure(scale: AppScale) -> AppSweepReport {
    let topo = scenarios::leaf_spine_288(1);

    // Transport comparison: MLP 4, fully remote, saturating.
    let comparison: Vec<AppPoint> = crate::par_sweep(
        vec![
            ("edm", AppTransport::Edm),
            ("cxl_oe", AppTransport::CxlOe(CxlOeConfig::default())),
        ],
        |(label, transport)| {
            let app = paper_app(scale, transport, 4, 0.0, Duration::ZERO);
            AppPoint::from_report(label.to_string(), &run(&topo, &app, scale.shards))
        },
    );

    // Slowdown grid. The all-local baseline divides out everything that
    // is not remote-memory exposure, so cache one per (mlp, load).
    let (mlps, locals, loads): (&[u32], &[f64], &[(&'static str, Duration)]) = if scale.full_grid {
        (
            &[1, 2, 4, 8, 16],
            &[0.0, 0.25, 0.5],
            &[("sat", Duration::ZERO), ("think2us", Duration::from_us(2))],
        )
    } else {
        (&[1, 4, 16], &[0.0, 0.5], &[("sat", Duration::ZERO)])
    };
    let baselines: Vec<f64> = crate::par_sweep(
        loads
            .iter()
            .flat_map(|&(_, think)| mlps.iter().map(move |&mlp| (mlp, think)))
            .collect(),
        |(mlp, think)| {
            let app = paper_app(scale, AppTransport::Edm, mlp, 1.0, think);
            run(&topo, &app, scale.shards).makespan.as_ns_f64()
        },
    );
    let mut cells = Vec::new();
    for (li, &(load, think)) in loads.iter().enumerate() {
        for &local in locals {
            for (mi, &mlp) in mlps.iter().enumerate() {
                cells.push((mlp, local, load, think, baselines[li * mlps.len() + mi]));
            }
        }
    }
    let grid = crate::par_sweep(cells, |(mlp, local, load, think, baseline_ns)| {
        let app = paper_app(scale, AppTransport::Edm, mlp, local, think);
        let point = AppPoint::from_report(
            format!("mlp{mlp}/local{local}/{load}"),
            &run(&topo, &app, scale.shards),
        );
        let slowdown = point.makespan_ns / baseline_ns;
        GridPoint {
            point,
            mlp,
            local,
            load,
            slowdown,
        }
    });

    AppSweepReport {
        scale,
        comparison,
        grid,
        peak_rss_kb: peak_rss_kb(),
    }
}

impl AppSweepReport {
    /// The EDM and CXL-oE comparison rows.
    pub fn edm(&self) -> &AppPoint {
        &self.comparison[0]
    }

    /// The CXL-over-Ethernet comparison row.
    pub fn cxl(&self) -> &AppPoint {
        &self.comparison[1]
    }

    /// Serializes the report as the `BENCH_app.json` document.
    pub fn to_json(&self) -> String {
        let mut j = String::new();
        j.push_str("{\n  \"group\": \"app\",\n  \"topology\": \"leaf_spine_288\",\n");
        j.push_str(&format!(
            "  \"scale\": {{\"tenants\": {}, \"ops_per_tenant\": {}, \"shards\": {}, \"grid\": \"{}\"}},\n",
            self.scale.tenants,
            self.scale.ops_per_tenant,
            self.scale.shards,
            if self.scale.full_grid { "full" } else { "smoke" }
        ));
        j.push_str("  \"comparison\": [\n");
        for (i, p) in self.comparison.iter().enumerate() {
            let comma = if i + 1 < self.comparison.len() {
                ","
            } else {
                ""
            };
            j.push_str(&format!(
                "    {{\"transport\": \"{}\", \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \
                 \"ops_per_sec\": {:.1}, \"completed\": {}, \"failed\": {}, \
                 \"ops_high_water\": {}}}{comma}\n",
                p.label, p.p50_ns, p.p99_ns, p.ops_per_sec, p.completed, p.failed, p.ops_high_water
            ));
        }
        j.push_str("  ],\n  \"slowdown_grid\": [\n");
        for (i, g) in self.grid.iter().enumerate() {
            let comma = if i + 1 < self.grid.len() { "," } else { "" };
            j.push_str(&format!(
                "    {{\"mlp\": {}, \"local\": {}, \"load\": \"{}\", \"slowdown\": {:.3}, \
                 \"p50_ns\": {:.1}, \"p99_ns\": {:.1}, \"ops_per_sec\": {:.1}, \
                 \"makespan_ns\": {:.1}}}{comma}\n",
                g.mlp,
                g.local,
                g.load,
                g.slowdown,
                g.point.p50_ns,
                g.point.p99_ns,
                g.point.ops_per_sec,
                g.point.makespan_ns
            ));
        }
        j.push_str("  ],\n");
        match self.peak_rss_kb {
            Some(kb) => j.push_str(&format!("  \"peak_rss_kb\": {kb}\n")),
            None => j.push_str("  \"peak_rss_kb\": null\n"),
        }
        j.push_str("}\n");
        j
    }

    /// Writes `BENCH_app.json` into `dir`.
    pub fn write(&self, dir: &std::path::Path) {
        let path = dir.join("BENCH_app.json");
        std::fs::write(&path, self.to_json()).expect("write baseline file");
        println!("wrote {}", path.display());
    }
}
