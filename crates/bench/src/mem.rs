//! The streaming-lifecycle memory benchmark behind the `million_flows`
//! binary (`BENCH_mem.json`).
//!
//! One measurement is two runs of the same rack-aware leaf–spine workload
//! through [`edm_topo::TopoEdm`]'s streaming path — a baseline at `N/10`
//! flows and the full run at `N` — with per-flow MCTs folded into a
//! bounded [`LogHistogram`] + [`Throughput`] instead of a retained
//! `Vec`. Because arrivals stream in and completed flows retire, the
//! resident state tracks the *active*-flow population: the full run's
//! active-flow high-water mark and peak RSS should sit next to the
//! baseline's even though it pushes 10× the flows through.
//!
//! The baseline run doubles as the accuracy check: small enough to also
//! feed an exact [`Summary`], it pins the streamed percentiles to the
//! exact ones within [`LogHistogram::MAX_RELATIVE_ERROR`].

use crate::scenarios;
use edm_sim::{Duration, LogHistogram, Summary, Throughput};
use edm_topo::{FaultEvent, FlowStatus, TopoEdm, TopoEdmConfig, TopoStreamStats};

/// Peak resident-set size of this process so far, in kB (`VmHWM` from
/// `/proc/self/status`). `None` where procfs is unavailable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The percentiles reported for streamed MCTs, in ascending order.
pub const PERCENTILES: [f64; 4] = [50.0, 99.0, 99.9, 99.99];

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
    /// `VmHWM` in kB when the run finished, if procfs is available.
    pub peak_rss_kb: Option<u64>,
}

impl ScaleRun {
    /// Streamed MCT percentile in nanoseconds.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        self.hist.percentile(p) as f64 / 1000.0
    }
}

/// The full measurement: baseline and full-scale runs plus the
/// baseline-scale exact-vs-streamed percentile cross-check.
pub struct MemReport {
    /// Shard count both runs used.
    pub shards: usize,
    /// The `flows/10` run (also the accuracy-check scale).
    pub baseline: ScaleRun,
    /// The full run.
    pub full: ScaleRun,
    /// Exact nearest-rank `[p50, p99, p99.9]` of the baseline run's MCTs
    /// in nanoseconds, from a retained [`Summary`].
    pub exact_ns: [f64; 3],
    /// The baseline histogram's same three percentiles in nanoseconds.
    pub streamed_ns: [f64; 3],
}

/// Runs the workload at `flows` scale through the streaming path,
/// folding MCTs into a histogram (and `also` — the exact oracle — when
/// given).
fn run_scale(
    flows: usize,
    shards: usize,
    faults: &[FaultEvent],
    mut also: Option<&mut Summary>,
) -> ScaleRun {
    let topo = scenarios::leaf_spine_288(1);
    let wl = scenarios::rack_workload_288(0.6, 0.5, flows);
    let proto = TopoEdm::new(TopoEdmConfig {
        faults: faults.to_vec(),
        max_retries: 3,
        ..TopoEdmConfig::default()
    });
    let mut hist = LogHistogram::new();
    let mut throughput = Throughput::new(Duration::from_us(1));
    let stats = {
        let sink = |o: edm_topo::TopoOutcome| {
            if let (Some(mct), FlowStatus::Delivered(at)) = (o.mct(), o.status) {
                hist.record_duration(mct);
                throughput.record(at, o.flow.size as u64);
                if let Some(exact) = also.as_deref_mut() {
                    exact.record_duration(mct);
                }
            }
        };
        if shards > 1 {
            proto.simulate_sharded_streamed(&topo, wl.source(42), sink, shards)
        } else {
            proto.simulate_streamed(&topo, wl.source(42), sink)
        }
    };
    ScaleRun {
        flows,
        stats,
        hist,
        throughput,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Measures the streaming lifecycle at `flows` total flows (baseline at
/// a tenth of that) on `shards` shards.
///
/// # Panics
///
/// Panics if the streamed percentiles leave the documented
/// [`LogHistogram::MAX_RELATIVE_ERROR`] band around the exact ones, or
/// if the full run's resident high-water marks are not flat relative to
/// the baseline's (checked once the baseline is large enough to outlive
/// the arrival ramp) — the two properties the streaming lifecycle exists
/// to provide.
pub fn measure(flows: usize, shards: usize) -> MemReport {
    measure_with(flows, shards, &[])
}

/// Simulated-time span of the baseline (`flows/10`) arrival process —
/// the anchor for placing fault schedules so the *same* absolute-time
/// schedule lands mid-stream in both the baseline and the full run.
pub fn baseline_span(flows: usize) -> Duration {
    let baseline_flows = (flows / 10).max(1);
    let last = scenarios::rack_workload_288(0.6, 0.5, baseline_flows)
        .source(42)
        .last()
        .expect("non-empty workload");
    last.arrival.saturating_since(edm_sim::Time::ZERO)
}

/// [`measure`], but both runs replay the given fault/repair schedule
/// (with bounded retries) — the fault-path variant of the flatness and
/// accuracy gates. The schedule applies at identical absolute times in
/// both runs; place it inside [`baseline_span`] so the baseline sees it
/// too.
pub fn measure_with(flows: usize, shards: usize, faults: &[FaultEvent]) -> MemReport {
    let baseline_flows = (flows / 10).max(1);
    let mut exact = Summary::new();
    let baseline = run_scale(baseline_flows, shards, faults, Some(&mut exact));
    let full = run_scale(flows, shards, faults, None);

    let mut exact_ns = [0.0; 3];
    let mut streamed_ns = [0.0; 3];
    for (i, &p) in PERCENTILES[..3].iter().enumerate() {
        exact_ns[i] = exact.percentile(p);
        streamed_ns[i] = baseline.percentile_ns(p);
        // Both are nearest-rank, so the histogram's bucket upper bound
        // brackets the exact sample from above within one bucket width.
        assert!(
            streamed_ns[i] >= exact_ns[i] - 1e-9
                && streamed_ns[i] <= exact_ns[i] * (1.0 + LogHistogram::MAX_RELATIVE_ERROR),
            "p{p}: streamed {} ns vs exact {} ns exceeds the documented bound",
            streamed_ns[i],
            exact_ns[i],
        );
    }

    // Flatness: 10× the flows must not grow the resident footprint —
    // high-water marks track the active population, which the arrival
    // process (not the total count) determines. The longer run samples
    // the population peak more often, so allow modest growth, never the
    // ~10× a leak would show. Only demonstrable once the baseline run
    // outlives the arrival ramp — its HWM strictly below its own flow
    // count means the steady-state population, not the workload size,
    // set the peak; tiny smoke scales skip the gate.
    if baseline.stats.active_high_water < baseline.flows {
        assert!(
            full.stats.active_high_water <= 2 * baseline.stats.active_high_water,
            "active-flow HWM grew {} -> {} over a 10x run: flows are not retiring",
            baseline.stats.active_high_water,
            full.stats.active_high_water,
        );
        assert!(
            full.stats.msg_slots_high_water <= 2 * baseline.stats.msg_slots_high_water,
            "msg-slot HWM grew {} -> {} over a 10x run: slots are not recycling",
            baseline.stats.msg_slots_high_water,
            full.stats.msg_slots_high_water,
        );
    }

    MemReport {
        shards,
        baseline,
        full,
        exact_ns,
        streamed_ns,
    }
}

impl MemReport {
    /// Renders the report as the `BENCH_mem.json` document.
    pub fn to_json(&self) -> String {
        let rss = |r: &ScaleRun| {
            r.peak_rss_kb
                .map(|kb| kb.to_string())
                .unwrap_or_else(|| "null".into())
        };
        let mut json = String::from("{\n  \"group\": \"mem\",\n");
        json.push_str(&format!(
            "  \"flows\": {},\n  \"baseline_flows\": {},\n  \"shards\": {},\n",
            self.full.flows, self.baseline.flows, self.shards
        ));
        // Per-point stream-stat records: one per measured run, so memory
        // regressions (HWM creep, stalled retirement) are visible in the
        // committed artifact itself, not only in CI assertion failures.
        json.push_str("  \"points\": [\n");
        for (i, (name, r)) in [("baseline", &self.baseline), ("full", &self.full)]
            .iter()
            .enumerate()
        {
            let s = &r.stats;
            let comma = if i == 0 { "," } else { "" };
            json.push_str(&format!(
                "    {{\"name\": \"{name}\", \"flows\": {}, \"active_high_water\": {}, \
                 \"msg_slots_high_water\": {}, \"admitted\": {}, \"retired\": {}, \
                 \"delivered\": {}, \"failed\": {}, \"reroutes\": {}, \"retried\": {}, \
                 \"readmitted\": {}, \"events\": {}, \"peak_rss_kb\": {}}}{comma}\n",
                r.flows,
                s.active_high_water,
                s.msg_slots_high_water,
                s.admitted,
                s.delivered + s.failed,
                s.delivered,
                s.failed,
                s.reroutes,
                s.retried,
                s.readmitted,
                s.events,
                rss(r),
            ));
        }
        json.push_str("  ],\n");
        json.push_str(&format!(
            "  \"peak_rss_kb\": {},\n  \"baseline_peak_rss_kb\": {},\n",
            rss(&self.full),
            rss(&self.baseline)
        ));
        json.push_str(&format!(
            "  \"active_flow_hwm\": {},\n  \"baseline_active_flow_hwm\": {},\n",
            self.full.stats.active_high_water, self.baseline.stats.active_high_water
        ));
        json.push_str(&format!(
            "  \"msg_slots_hwm\": {},\n  \"delivered\": {},\n  \"failed\": {},\n  \"events\": {},\n",
            self.full.stats.msg_slots_high_water,
            self.full.stats.delivered,
            self.full.stats.failed,
            self.full.stats.events
        ));
        json.push_str(&format!(
            "  \"mct_ns\": {{\"p50\": {:.1}, \"p99\": {:.1}, \"p99_9\": {:.1}, \"p99_99\": {:.1}, \"max\": {:.1}}},\n",
            self.full.percentile_ns(50.0),
            self.full.percentile_ns(99.0),
            self.full.percentile_ns(99.9),
            self.full.percentile_ns(99.99),
            self.full.hist.max() as f64 / 1000.0
        ));
        json.push_str(&format!(
            "  \"exact_check_ns\": {{\"p50\": {:.1}, \"p99\": {:.1}, \"p99_9\": {:.1}, \"streamed_p50\": {:.1}, \"streamed_p99\": {:.1}, \"streamed_p99_9\": {:.1}, \"max_relative_error\": {}}},\n",
            self.exact_ns[0],
            self.exact_ns[1],
            self.exact_ns[2],
            self.streamed_ns[0],
            self.streamed_ns[1],
            self.streamed_ns[2],
            LogHistogram::MAX_RELATIVE_ERROR
        ));
        json.push_str(&format!(
            "  \"throughput\": {{\"window_us\": 1, \"windows\": {}, \"peak_ops_per_window\": {}, \"total_ops\": {}}}\n",
            self.full.throughput.windows(),
            self.full.throughput.peak_ops(),
            self.full.throughput.total_ops()
        ));
        json.push_str("}\n");
        json
    }

    /// Writes `BENCH_mem.json` into `dir`.
    pub fn write(&self, dir: &std::path::Path) {
        let path = dir.join("BENCH_mem.json");
        std::fs::write(&path, self.to_json()).expect("write baseline file");
        println!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_readable_and_plausible() {
        let kb = peak_rss_kb().expect("procfs on linux");
        // A running test binary occupies at least a megabyte and (sanity
        // cap) less than a terabyte.
        assert!(kb > 1_024 && kb < 1 << 30, "{kb}");
    }

    #[test]
    fn fault_path_stays_flat_and_terminal() {
        // A mid-run spine flap must not break the flatness gates inside
        // measure_with (they assert), and every flow still terminates.
        let topo = scenarios::leaf_spine_288(1);
        let faults = crate::faults::mid_run_spine_flap(&topo, baseline_span(20_000));
        let report = measure_with(20_000, 1, &faults);
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
        let report = measure(20_000, 1);
        assert_eq!(report.baseline.flows, 2_000);
        assert_eq!(
            report.full.stats.delivered + report.full.stats.failed,
            20_000
        );
        assert!(report.full.stats.active_high_water < 5_000);
        let json = report.to_json();
        assert!(json.contains("\"group\": \"mem\""));
        assert!(json.contains("\"flows\": 20000"));
        // Both runs appear as per-point stream-stat records.
        assert!(json.contains("\"name\": \"baseline\""));
        assert!(json.contains("\"name\": \"full\""));
        assert!(json.contains("\"retired\": 20000"));
    }
}
