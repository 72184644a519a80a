//! Chaos campaign (`BENCH_faults.json`): seeded fault/repair schedules
//! against the streamed 288-node leaf–spine fabric, across load points.
//!
//! Four scenarios — single-link flaps, a spine kill with revival,
//! rolling rack outages, and correlated optics degradation — each derive
//! a deterministic schedule from the workload's arrival span and a seed
//! (see [`crate::scenarios`]). Every (scenario, load) point streams its
//! flows with bounded retries, folding outcomes into windowed
//! [`WindowSeries`] counters, and reports recovery time after the first
//! incident, goodput-under-failure, and the failed/retried/re-admitted
//! tallies. Points run sequentially so the process peak RSS bounds the
//! resident footprint of a single streamed fault run.

use std::path::Path;

use crate::json::Json;
use crate::scenarios;
use crate::util::{ns, row};
use edm_sim::{Duration, WindowSeries};
use edm_topo::{FaultEvent, FlowStatus, TopoEdm, TopoEdmConfig, TopoStreamStats, Topology};

/// Flows streamed per (scenario, load) point.
const FLOWS: usize = 50_000;
/// Seed of the fault schedules.
const SEED: u64 = 42;

struct Point {
    scenario: &'static str,
    load: f64,
    stats: TopoStreamStats,
    goodput_bytes: u64,
    availability: f64,
    recovery: Option<Duration>,
}

/// Streams one (scenario, load) point and folds its outcomes.
fn run_point(
    topo: &Topology,
    scenario: &'static str,
    load: f64,
    schedule: Vec<FaultEvent>,
) -> Point {
    let incident = scenarios::first_incident(&schedule).expect("chaos schedules inject faults");
    let wl = scenarios::rack_workload_288(load, 0.5, FLOWS);
    let proto = TopoEdm::new(TopoEdmConfig {
        faults: schedule,
        max_retries: 3,
        ..TopoEdmConfig::default()
    });
    let mut series = WindowSeries::new(Duration::from_us(10));
    let stats = proto.simulate_streamed(topo, wl.source(42), |o: edm_topo::TopoOutcome| {
        match o.status {
            FlowStatus::Delivered(at) => series.record(at, o.flow.size as u64),
            FlowStatus::Failed(at) => series.record_failure(at),
        }
    });
    Point {
        scenario,
        load,
        stats,
        goodput_bytes: series.total_bytes(),
        availability: series.availability(),
        recovery: series.recovery_after(incident),
    }
}

pub fn run(out: &Path) {
    let topo = scenarios::leaf_spine_288(1);
    println!("chaos_sweep: 288-node leaf-spine, {FLOWS} flows per point, seed {SEED}\n");

    let mut points = Vec::new();
    for load in [0.4, 0.7] {
        // The schedule anchors to this load's own arrival span so every
        // incident lands mid-stream.
        let span = scenarios::arrival_span(&scenarios::rack_workload_288(load, 0.5, FLOWS));
        let schedules: [(&'static str, Vec<FaultEvent>); 4] = [
            (
                "link_flaps",
                scenarios::single_link_flaps(&topo, span, 3, SEED),
            ),
            (
                "spine_kill_revive",
                scenarios::spine_kill_revive(&topo, span, SEED),
            ),
            (
                "rolling_racks",
                scenarios::rolling_rack_outages(&topo, span),
            ),
            (
                "correlated_degrade",
                scenarios::correlated_degradation(&topo, span, Duration::from_us(1), SEED),
            ),
        ];
        for (name, schedule) in schedules {
            points.push(run_point(&topo, name, load, schedule));
        }
    }

    row(
        "",
        &[
            "load",
            "delivered",
            "failed",
            "reroutes",
            "retried",
            "readmit",
            "avail",
            "recovery",
        ]
        .map(String::from),
    );
    for p in &points {
        row(
            p.scenario,
            &[
                format!("{:.1}", p.load),
                p.stats.delivered.to_string(),
                p.stats.failed.to_string(),
                p.stats.reroutes.to_string(),
                p.stats.retried.to_string(),
                p.stats.readmitted.to_string(),
                format!("{:.4}", p.availability),
                p.recovery.map(ns).unwrap_or_else(|| "none".into()),
            ],
        );
    }

    println!();
    let points = points.iter().map(|p| {
        Json::Obj(vec![
            ("scenario", Json::str(p.scenario)),
            ("load", Json::fixed(p.load, 1)),
            ("delivered", Json::lit(p.stats.delivered)),
            ("failed", Json::lit(p.stats.failed)),
            ("reroutes", Json::lit(p.stats.reroutes)),
            ("retried", Json::lit(p.stats.retried)),
            ("readmitted", Json::lit(p.stats.readmitted)),
            ("active_flow_hwm", Json::lit(p.stats.active_high_water)),
            ("goodput_bytes", Json::lit(p.goodput_bytes)),
            ("availability", Json::fixed(p.availability, 4)),
            (
                "recovery_us",
                p.recovery
                    .map_or(Json::Null, |d| Json::fixed(d.as_ns_f64() / 1000.0, 2)),
            ),
        ])
    });
    Json::Obj(vec![
        ("group", Json::str("faults")),
        ("flows_per_point", Json::lit(FLOWS)),
        ("seed", Json::lit(SEED)),
        ("points", Json::Arr(points.collect())),
    ])
    .write(out, "BENCH_faults.json");
}
