//! The EDM simulator's benchmark: seven named workloads, host-time and
//! simulated-time metrics, and an outside-in layer trace. See README.md
//! for what every name means and BENCHMARK.json for units and bounds.
//!
//! ```text
//! benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                  [--quick] [--selfcheck]
//! ```
//!
//! With `--workload` the run happens in this process and the last line of
//! standard output is the result object. Without it every workload of
//! BENCHMARK.json runs in a child process of its own (so peak RSS is per
//! workload) and the results are gathered under `benchmark/out/`.

mod json;
mod layers;
mod spec;
mod trace;
mod workloads;

use json::Value;
use layers::Layers;
use spec::{MetricSpec, Spec};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{RepOut, Workload};

const OUT_DIR: &str = "benchmark/out";

/// glibc allocator settings that `run.sh` exports. By default glibc hands
/// freed memory back to the kernel past thresholds that adapt to the
/// sizes a process happens to free, so whether each of `sweep_small_144`'s
/// 2000 engine constructions page-faulted its memory in again depended on
/// the seed: 670 or 1150 ns per flow, 0.3 M or 2.8 M faults, for the same
/// work. With the heap never trimmed and only blocks of 4 MiB or more
/// taken from mmap, host time measures the simulator, and a `Vec` that
/// outgrows 4 MiB still grows by remapping rather than by copying inside
/// the heap (which made peak RSS step by 10 MB from seed to seed).
const ALLOCATOR_ENV: [&str; 2] = ["MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"];

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--selfcheck" => a.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Whether a unit measures the simulator (host time) or the modelled
/// fabric (simulated time); counts and ratios are neither.
fn time_base(unit: &str) -> &'static str {
    if unit.contains("sim_") {
        "(simulated time)"
    } else if matches!(unit, "s" | "ms" | "us" | "ns") {
        "(host time)"
    } else {
        ""
    }
}

/// The `q`-quantile (0..=1) of `xs` by rank, lower of the two neighbours.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[((v.len() - 1) as f64 * q) as usize]
}

/// Checks one rep against the warm-up: simulated results and exact
/// counts are functions of the inputs, so they must repeat bit for bit.
fn same_outputs(warm: &RepOut, rep: &RepOut, errors: &mut Vec<String>) {
    let strip = |r: &RepOut| RepOut {
        errors: Vec::new(),
        ..r.clone()
    };
    if strip(warm) != strip(rep) {
        errors.push(format!(
            "a rep did not repeat the warm-up: digest {:x} vs {:x}, units {} vs {}, counts {:?} vs {:?}",
            rep.digest, warm.digest, rep.units, warm.units, rep.counts, warm.counts
        ));
    }
}

/// One measured run of one workload: the metric values by name, plus the
/// detail block that goes to the result file only.
struct RunResult {
    warm: RepOut,
    errors: Vec<String>,
    metrics: Vec<(String, f64)>,
    detail: Value,
    chrome: Vec<Value>,
}

fn build(name: &str, args: &Args, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    let scale_div = if args.quick { 20 } else { 1 };
    workloads::build(name, args.seed, scale_div, tr).ok_or(format!("unknown workload {name}"))
}

/// End-to-end metrics, tracing off. Set-up (build the inputs, run once
/// with every output check) is repeated and its median reported; then
/// reps run for `seconds` and host time per unit comes from the fastest
/// of them: every rep does the same work, interference on a shared
/// machine only adds time, and across ten-run sets the minimum repeated
/// better than the lower quartile or the median (README, "Sizing and
/// noise").
fn run_untraced(
    name: &str,
    args: &Args,
    seconds: f64,
    start: Instant,
) -> Result<RunResult, String> {
    let mut off = Tracer::new(false);
    let setups = if args.quick { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut slot: Option<(Box<dyn Workload>, RepOut)> = None;
    for i in 0..setups {
        // The first set-up also pays process start.
        let t = if i == 0 { start } else { Instant::now() };
        drop(slot.take());
        let mut w = build(name, args, &mut off)?;
        let warm = w.rep(&mut off, true);
        setup_s.push(t.elapsed().as_secs_f64());
        slot = Some((w, warm));
    }
    let (mut w, warm) = slot.expect("at least one set-up");
    let mut errors = warm.errors.clone();
    errors.extend(w.cross_check(&warm));

    let mut rep_ns = Vec::new();
    let clock = Instant::now();
    loop {
        let t = Instant::now();
        let rep = w.rep(&mut off, false);
        rep_ns.push(t.elapsed().as_nanos() as f64);
        same_outputs(&warm, &rep, &mut errors);
        let enough = if args.quick {
            rep_ns.len() >= 3
        } else {
            rep_ns.len() >= 5 && clock.elapsed().as_secs_f64() >= seconds
        };
        if enough {
            break;
        }
    }

    let units = warm.units.max(1) as f64;
    let ps = |p: f64| warm.hist.percentile(p) as f64 / 1e3;
    let metrics = vec![
        ("setup_s".to_string(), quantile(&setup_s, 0.5)),
        (
            "host_ns_per_unit".to_string(),
            quantile(&rep_ns, 0.0) / units,
        ),
        ("peak_rss_mb".to_string(), peak_rss_mb()),
        ("sim_p50_ns".to_string(), ps(50.0)),
        ("sim_p99_ns".to_string(), ps(99.0)),
        ("sim_p999_ns".to_string(), ps(99.9)),
        (
            "sim_ops_per_us".to_string(),
            units / (warm.makespan_ps.max(1) as f64 / 1e6),
        ),
    ];
    let mut detail = Value::obj();
    detail
        .set("unit_of_work", w.unit())
        .set("units_per_rep", warm.units)
        .set("samples", warm.hist.count())
        .set("timed_reps", rep_ns.len() as u64)
        .set("rep_ns_min", quantile(&rep_ns, 0.0))
        .set("rep_ns_p25", quantile(&rep_ns, 0.25))
        .set("rep_ns_median", quantile(&rep_ns, 0.5))
        .set("rep_ns_p75", quantile(&rep_ns, 0.75))
        .set(
            "rep_ns",
            rep_ns.iter().map(|&x| Value::Num(x)).collect::<Vec<_>>(),
        )
        .set(
            "setup_s",
            setup_s.iter().map(|&x| Value::Num(x)).collect::<Vec<_>>(),
        )
        .set(
            "failed_share",
            warm.failed as f64 / warm.attempted.max(1) as f64,
        );
    Ok(RunResult {
        warm,
        errors,
        metrics,
        detail,
        chrome: Vec::new(),
    })
}

/// Per-layer metrics, tracing on: untraced and traced reps alternate (the
/// ratio of their fastest is `trace.overhead` — with this few reps the
/// minimum is the steadiest statistic), then the workload's layer replays
/// run at the counts the reps reported.
fn run_traced(name: &str, args: &Args, seconds: f64, pid: u64) -> Result<RunResult, String> {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let span = tr.begin("setup");
    let mut w = build(name, args, &mut tr)?;
    let warm = w.rep(&mut off, true);
    tr.end(span);
    let mut errors = warm.errors.clone();
    errors.extend(w.cross_check(&warm));

    let (mut plain_ns, mut traced_ns) = (Vec::new(), Vec::new());
    let clock = Instant::now();
    let pairs = if args.quick { 2 } else { 3 };
    // The replays that follow get the rest of the budget.
    while plain_ns.len() < pairs || (!args.quick && clock.elapsed().as_secs_f64() < 0.5 * seconds) {
        let t = Instant::now();
        let rep = w.rep(&mut off, false);
        plain_ns.push(t.elapsed().as_nanos() as f64);
        same_outputs(&warm, &rep, &mut errors);

        tr.set_rep(traced_ns.len() as u32 + 1);
        let span = tr.begin("rep");
        let t = Instant::now();
        let rep = w.rep(&mut tr, false);
        traced_ns.push(t.elapsed().as_nanos() as f64);
        tr.end(span);
        same_outputs(&warm, &rep, &mut errors);
    }

    let mut l = Layers::default();
    let plain = quantile(&plain_ns, 0.0);
    l.rep_ns = plain;
    for &(name, v) in &warm.counts {
        l.put(name, v);
    }
    let events = warm.count("sim.events");
    if events > 0.0 {
        l.put("sim.events_per_unit", events / warm.units.max(1) as f64);
        l.put("sim.host_ns_per_event", plain / events);
    }
    l.put("trace.overhead", quantile(&traced_ns, 0.0) / plain);
    w.layers(&warm, &mut tr, &mut l);

    let mut detail = Value::obj();
    detail
        .set("unit_of_work", w.unit())
        .set("units_per_rep", warm.units)
        .set("rep_pairs", plain_ns.len() as u64)
        .set("untraced_rep_ns_min", plain)
        .set("traced_rep_ns_min", quantile(&traced_ns, 0.0))
        .set(
            "note",
            "share.* and every *_ns unit cost that is not a span are replay estimates; see README.md",
        );
    Ok(RunResult {
        warm,
        errors,
        metrics: l.values().to_vec(),
        detail,
        chrome: tr.chrome_events(name, pid),
    })
}

fn write_json(path: &str, v: &Value) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(path, format!("{v}\n")).map_err(|e| format!("{path}: {e}"))
}

fn result_path(workload: &str, trace: bool) -> String {
    format!("{OUT_DIR}/{workload}.trace{}.json", trace as u8)
}

/// Runs one workload in this process, prints every metric by name with
/// its unit, writes the result file and prints the result object last.
fn run_single(spec: &Spec, name: &str, args: &Args, start: Instant) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let (expected, mut r): (&[MetricSpec], RunResult) = if args.trace {
        // One Chrome-trace process per workload, in BENCHMARK.json order.
        let pid = spec.workloads.iter().position(|w| w == name);
        let pid = pid.map_or(0, |i| i as u64 + 1);
        (&spec.per_layer, run_traced(name, args, seconds, pid)?)
    } else {
        (&spec.end_to_end, run_untraced(name, args, seconds, start)?)
    };

    // BENCHMARK.json decides what is printed: every metric it lists, and
    // nothing it does not. A per-layer metric the workload does not
    // exercise reads 0.
    for (metric, _) in &r.metrics {
        if !expected.iter().any(|m| &m.name == metric) {
            return Err(format!("metric {metric} is not listed in BENCHMARK.json"));
        }
    }
    let mut metrics = Value::obj();
    for m in expected {
        let v = match r.metrics.iter().find(|(n, _)| *n == m.name) {
            Some(&(_, v)) => v,
            None if args.trace => 0.0,
            None => return Err(format!("no value for end-to-end metric {}", m.name)),
        };
        if !v.is_finite() {
            r.errors.push(format!("{} is not a finite number", m.name));
        }
        println!(
            "{name:<18} {:<30} {v:>16.4} {:<11} {}",
            m.name,
            m.unit,
            time_base(&m.unit)
        );
        let mut entry = Value::obj();
        entry.set("value", v).set("unit", m.unit.as_str());
        metrics.set(&m.name, entry);
    }
    for e in &r.errors {
        eprintln!("{name}: CHECK FAILED: {e}");
    }
    let correct = r.errors.is_empty();

    let mut result = Value::obj();
    result
        .set("correct", correct)
        .set("attempted", r.warm.attempted.max(1))
        .set("failed", r.warm.failed)
        .set("metrics", metrics);
    let mut file = result.clone();
    file.set("workload", name)
        .set("seed", args.seed)
        .set("quick", args.quick)
        .set(
            "errors",
            r.errors
                .iter()
                .map(|e| Value::from(e.as_str()))
                .collect::<Vec<_>>(),
        )
        .set("detail", r.detail);
    write_json(&result_path(name, args.trace), &file)?;
    if args.trace {
        let mut t = Value::obj();
        t.set("traceEvents", r.chrome);
        write_json(&format!("{OUT_DIR}/{name}.chrome.json"), &t)?;
    }
    println!("{result}");
    Ok(correct)
}

/// Runs every workload of BENCHMARK.json in a child process and gathers
/// the result files. Returns them by workload, and whether all were
/// correct.
fn run_all(spec: &Spec, args: &Args) -> Result<(Vec<(String, Value)>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for name in &spec.workloads {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
        all_correct &= status.success();
        let path = result_path(name, args.trace);
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        results.push((name.clone(), Value::parse(&text)?));
    }
    let mut by_workload = Value::obj();
    for (name, v) in &results {
        by_workload.set(name, v.clone());
    }
    let mut doc = Value::obj();
    doc.set("seed", args.seed)
        .set("quick", args.quick)
        .set("workloads", by_workload);
    if args.trace {
        write_json(&format!("{OUT_DIR}/layers.json"), &doc)?;
        let mut events = Vec::new();
        for (name, _) in &results {
            let path = format!("{OUT_DIR}/{name}.chrome.json");
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            if let Some(e) = Value::parse(&text)?
                .get("traceEvents")
                .and_then(Value::as_arr)
            {
                events.extend_from_slice(e);
            }
        }
        let mut t = Value::obj();
        t.set("traceEvents", events);
        write_json(&format!("{OUT_DIR}/trace.json"), &t)?;
        println!("wrote {OUT_DIR}/layers.json and {OUT_DIR}/trace.json");
    } else {
        write_json(&format!("{OUT_DIR}/results.json"), &doc)?;
        println!("wrote {OUT_DIR}/results.json");
    }
    Ok((results, all_correct))
}

fn metric_of(result: &Value, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Two full sets of the same build: prints, per (metric, workload), how
/// far the second is from the first beside the metric's bound, and fails
/// if any pair is further apart than that. Simulated metrics must agree
/// exactly.
fn selfcheck(spec: &Spec, args: &Args) -> Result<bool, String> {
    let untraced = Args {
        trace: false,
        selfcheck: false,
        ..args.clone()
    };
    let (first, ok1) = run_all(spec, &untraced)?;
    let (second, ok2) = run_all(spec, &untraced)?;
    let mut ok = ok1 && ok2;
    println!(
        "\n{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        for m in &spec.end_to_end {
            let (Some(x), Some(y)) = (metric_of(a, &m.name), metric_of(b, &m.name)) else {
                return Err(format!("{name}: no {} in a result file", m.name));
            };
            let diff = (y - x) / x;
            let bound = if m.unit.contains("sim") {
                0.0
            } else {
                m.bound.unwrap_or(0.0)
            };
            let within = diff.abs() <= bound;
            ok &= within;
            println!(
                "{name:<18} {:<18} {x:>14.4} {y:>14.4} {:>+8.2}% {:>6.1}% {}",
                m.name,
                100.0 * diff,
                100.0 * bound,
                if within { "" } else { "EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

fn real_main(start: Instant) -> Result<bool, String> {
    let args = parse_args()?;
    if let Some(var) = ALLOCATOR_ENV.iter().find(|v| std::env::var_os(v).is_none()) {
        return Err(format!(
            "{var} is not set: start the benchmark through benchmark/run.sh, which pins the allocator"
        ));
    }
    let spec = Spec::load()?;
    if args.selfcheck {
        return selfcheck(&spec, &args);
    }
    match &args.workload {
        Some(name) => run_single(&spec, name, &args, start),
        None => run_all(&spec, &args).map(|(_, ok)| ok),
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    match real_main(start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("edm-benchmark: FAILED (see the lines marked above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("edm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
