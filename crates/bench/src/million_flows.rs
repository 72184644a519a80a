//! The streaming-lifecycle memory experiment (`BENCH_mem.json`): a
//! million-flow multi-switch run in bounded memory.
//!
//! One measurement is two runs of the same rack-aware leaf–spine workload
//! through [`edm_topo::TopoEdm`]'s streaming path — a baseline at `N/10`
//! flows and the full run at `N` — with arrivals pulled lazily from a
//! streaming source and per-flow MCTs folded into a bounded
//! [`LogHistogram`] + [`Throughput`] instead of a retained `Vec`. Because
//! arrivals stream in and completed flows retire, the resident state
//! tracks the *active*-flow population: the full run's active-flow and
//! message-slot high-water marks must sit next to the baseline's even
//! though it pushes 10× the flows through. The experiment measures once
//! on the healthy fabric (the committed artefact) and once through a
//! mid-run spine flap, so the flatness gates also cover the fault path.

use std::path::Path;

use crate::json::Json;
use crate::scenarios;
use crate::util::row;
use edm_sim::{Duration, LogHistogram, Throughput};
use edm_topo::{FaultEvent, FlowStatus, TopoEdm, TopoEdmConfig, TopoStreamStats};

/// Flows of the full run.
const FLOWS: usize = 1_000_000;

/// One streamed run at one scale.
pub struct ScaleRun {
    /// Total flows the source emitted.
    pub flows: usize,
    /// The run's aggregate counters.
    pub stats: TopoStreamStats,
    /// Streamed MCT distribution (picosecond buckets).
    pub hist: LogHistogram,
    /// Completions per 1 µs window of simulated time.
    pub throughput: Throughput,
}

impl ScaleRun {
    /// Streamed MCT percentile in nanoseconds.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        self.hist.percentile(p) as f64 / 1000.0
    }
}

/// The full measurement: the baseline and the full-scale run.
pub struct MemReport {
    /// The `flows/10` run.
    pub baseline: ScaleRun,
    /// The full run.
    pub full: ScaleRun,
}

/// Runs the workload at `flows` scale through the streaming path,
/// folding MCTs into a histogram.
fn run_scale(flows: usize, faults: &[FaultEvent]) -> ScaleRun {
    let topo = scenarios::leaf_spine_288(1);
    let wl = scenarios::rack_workload_288(0.6, 0.5, flows);
    let proto = TopoEdm::new(TopoEdmConfig {
        faults: faults.to_vec(),
        max_retries: 3,
        ..TopoEdmConfig::default()
    });
    let mut hist = LogHistogram::new();
    let mut throughput = Throughput::new(Duration::from_us(1));
    let stats = proto.simulate_streamed(&topo, wl.source(42), |o: edm_topo::TopoOutcome| {
        if let (Some(mct), FlowStatus::Delivered(at)) = (o.mct(), o.status) {
            hist.record_duration(mct);
            throughput.record(at, o.flow.size as u64);
        }
    });
    ScaleRun {
        flows,
        stats,
        hist,
        throughput,
    }
}

/// Measures the streaming lifecycle at `flows` total flows (baseline at
/// a tenth of that).
pub fn measure(flows: usize) -> MemReport {
    measure_with(flows, &[])
}

/// Simulated-time span of the baseline (`flows/10`) arrival process —
/// the anchor for placing fault schedules so the *same* absolute-time
/// schedule lands mid-stream in both the baseline and the full run.
pub fn baseline_span(flows: usize) -> Duration {
    scenarios::arrival_span(&scenarios::rack_workload_288(0.6, 0.5, (flows / 10).max(1)))
}

/// [`measure`], but both runs replay the given fault/repair schedule
/// (with bounded retries) — the fault-path variant. The schedule applies
/// at identical absolute times in both runs; place it inside
/// [`baseline_span`] so the baseline sees it too.
pub fn measure_with(flows: usize, faults: &[FaultEvent]) -> MemReport {
    MemReport {
        baseline: run_scale((flows / 10).max(1), faults),
        full: run_scale(flows, faults),
    }
}

impl MemReport {
    /// Flatness: 10× the flows must not grow the resident footprint.
    ///
    /// # Panics
    ///
    /// Panics if the full run's resident high-water marks are not flat
    /// relative to the baseline's — the property the streaming lifecycle
    /// exists to provide — or if the baseline is too short to show it.
    pub fn assert_flat(&self) {
        // High-water marks track the active population, which the arrival
        // process (not the total count) determines. The longer run samples
        // the population peak more often, so allow modest growth, never the
        // ~10× a leak would show. Only demonstrable once the baseline run
        // outlives the arrival ramp: its HWM strictly below its own flow
        // count means the steady-state population, not the workload size,
        // set the peak.
        assert!(
            self.baseline.stats.active_high_water < self.baseline.flows,
            "baseline of {} flows ends inside the arrival ramp: flatness is not observable",
            self.baseline.flows
        );
        assert!(
            self.full.stats.active_high_water <= 2 * self.baseline.stats.active_high_water,
            "active-flow HWM grew {} -> {} over a 10x run: flows are not retiring",
            self.baseline.stats.active_high_water,
            self.full.stats.active_high_water,
        );
        assert!(
            self.full.stats.msg_slots_high_water <= 2 * self.baseline.stats.msg_slots_high_water,
            "msg-slot HWM grew {} -> {} over a 10x run: slots are not recycling",
            self.baseline.stats.msg_slots_high_water,
            self.full.stats.msg_slots_high_water,
        );
    }

    /// The report as the `BENCH_mem.json` document.
    pub fn to_json(&self) -> Json {
        // Per-point stream-stat records: one per measured run, so memory
        // regressions (HWM creep, stalled retirement) are visible in the
        // committed artifact itself, not only in CI assertion failures.
        let point = |name: &str, r: &ScaleRun| {
            let s = &r.stats;
            Json::Obj(vec![
                ("name", Json::str(name)),
                ("flows", Json::lit(r.flows)),
                ("active_high_water", Json::lit(s.active_high_water)),
                ("msg_slots_high_water", Json::lit(s.msg_slots_high_water)),
                ("admitted", Json::lit(s.admitted)),
                ("retired", Json::lit(s.delivered + s.failed)),
                ("delivered", Json::lit(s.delivered)),
                ("failed", Json::lit(s.failed)),
                ("reroutes", Json::lit(s.reroutes)),
                ("retried", Json::lit(s.retried)),
                ("readmitted", Json::lit(s.readmitted)),
                ("events", Json::lit(s.events)),
            ])
        };
        let (full, base) = (&self.full, &self.baseline);
        let ns = |v: f64| Json::fixed(v, 1);
        Json::Obj(vec![
            ("group", Json::str("mem")),
            ("flows", Json::lit(full.flows)),
            ("baseline_flows", Json::lit(base.flows)),
            (
                "points",
                Json::Arr(vec![point("baseline", base), point("full", full)]),
            ),
            ("active_flow_hwm", Json::lit(full.stats.active_high_water)),
            (
                "baseline_active_flow_hwm",
                Json::lit(base.stats.active_high_water),
            ),
            ("msg_slots_hwm", Json::lit(full.stats.msg_slots_high_water)),
            ("delivered", Json::lit(full.stats.delivered)),
            ("failed", Json::lit(full.stats.failed)),
            ("events", Json::lit(full.stats.events)),
            (
                "mct_ns",
                Json::Obj(vec![
                    ("p50", ns(full.percentile_ns(50.0))),
                    ("p99", ns(full.percentile_ns(99.0))),
                    ("p99_9", ns(full.percentile_ns(99.9))),
                    ("p99_99", ns(full.percentile_ns(99.99))),
                    ("max", ns(full.hist.max() as f64 / 1000.0)),
                ]),
            ),
            (
                "throughput",
                Json::Obj(vec![
                    ("window_us", Json::lit(1)),
                    ("windows", Json::lit(full.throughput.windows())),
                    ("peak_ops_per_window", Json::lit(full.throughput.peak_ops())),
                    ("total_ops", Json::lit(full.throughput.total_ops())),
                ]),
            ),
        ])
    }

    fn print(&self) {
        row("", &["flows", "active_hwm", "msg_slots"].map(String::from));
        for (label, run) in [("baseline", &self.baseline), ("full", &self.full)] {
            row(
                label,
                &[
                    run.flows.to_string(),
                    run.stats.active_high_water.to_string(),
                    run.stats.msg_slots_high_water.to_string(),
                ],
            );
        }
        let s = &self.full.stats;
        println!(
            "full run: {} delivered, {} failed, {} retried, {} readmitted, {} events",
            s.delivered, s.failed, s.retried, s.readmitted, s.events
        );
        println!(
            "streamed MCT: p50 {:.1} ns, p99 {:.1} ns, p99.9 {:.1} ns, p99.99 {:.1} ns\n",
            self.full.percentile_ns(50.0),
            self.full.percentile_ns(99.0),
            self.full.percentile_ns(99.9),
            self.full.percentile_ns(99.99),
        );
    }
}

pub fn run(out: &Path) {
    println!("million_flows: 288-node leaf-spine, rack-aware load 0.6, {FLOWS} flows streamed\n");
    let healthy = measure(FLOWS);
    healthy.print();
    healthy.assert_flat();
    healthy.to_json().write(out, "BENCH_mem.json");

    println!("\nthe same two runs through a mid-run spine flap:\n");
    let topo = scenarios::leaf_spine_288(1);
    let flap = scenarios::mid_run_spine_flap(&topo, baseline_span(FLOWS));
    let flapped = measure_with(FLOWS, &flap);
    flapped.print();
    flapped.assert_flat();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_path_stays_flat_and_terminal() {
        // Through a mid-run spine flap the resident population stays that
        // of the healthy run's order, and every flow still terminates.
        let topo = scenarios::leaf_spine_288(1);
        let faults = scenarios::mid_run_spine_flap(&topo, baseline_span(20_000));
        let report = measure_with(20_000, &faults);
        assert_eq!(
            report.full.stats.delivered + report.full.stats.failed,
            20_000
        );
        assert!(report.full.stats.active_high_water < 5_000);
    }

    #[test]
    fn small_scale_report_is_consistent() {
        // 20k flows is past the arrival ramp (steady-state active
        // population ≈ 3.5k), so retirement is observable: the HWM must
        // sit far below the total flow count.
        let report = measure(20_000);
        assert_eq!(report.baseline.flows, 2_000);
        assert_eq!(
            report.full.stats.delivered + report.full.stats.failed,
            20_000
        );
        assert!(report.full.stats.active_high_water < 5_000);
        let json = report.to_json().document();
        assert!(json.contains("\"group\": \"mem\""));
        assert!(json.contains("\"flows\": 20000"));
        // Both runs appear as per-point stream-stat records.
        assert!(json.contains("\"name\": \"baseline\""));
        assert!(json.contains("\"name\": \"full\""));
        assert!(json.contains("\"retired\": 20000"));
    }
}
