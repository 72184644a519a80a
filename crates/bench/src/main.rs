//! `edm-bench` — one binary that regenerates every table and figure of
//! the paper's evaluation (§4) and asserts the repository's own acceptance
//! envelopes. `edm-bench list` prints the experiments below;
//! `edm-bench <name> [--out DIR]` runs one, at the single scale its
//! committed artefact uses. There are no other options and no environment
//! variables. Host-time performance is measured elsewhere, by the one
//! benchmark under `/benchmark` (`BENCHMARK.json`).
//!
//! The experiments are the [`EXPERIMENTS`] table (README's "Reproducing the
//! paper's numbers" table is the same list; a unit test holds the two
//! together). Four of them write a `BENCH_*.json` artefact into `--out`
//! (default `.`). Every multi-point sweep fans out one thread per point via
//! [`util::par_sweep`], and every experiment ends under the
//! [`RSS_CEILING_MB`] leak guard.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

mod app_sweep;
mod approx_sweep;
mod chaos_sweep;
mod chunk_sweep;
mod fig5;
mod fig6;
mod fig7;
mod fig8a;
mod fig8b;
mod json;
mod million_flows;
mod policy_ablation;
mod preemption;
mod scenarios;
mod sched_scaling;
mod table1;
mod topo_sweep;
mod util;
mod x_sweep;

/// (name, what it reproduces, entry point taking the artefact directory).
type Experiment = (&'static str, &'static str, fn(&Path));

const EXPERIMENTS: &[Experiment] = &[
    (
        "table1",
        "Table 1 — unloaded fabric latency, four stacks",
        table1::run,
    ),
    (
        "fig5",
        "Figure 5 — EDM cycle-level latency breakdown",
        fig5::run,
    ),
    ("fig6", "Figure 6 — YCSB throughput, EDM vs RDMA", fig6::run),
    (
        "fig7",
        "Figure 7 — end-to-end latency vs local:remote split",
        fig7::run,
    ),
    (
        "fig8a",
        "Figure 8a — normalized latency vs load, then vs write:read mix",
        fig8a::run,
    ),
    (
        "fig8b",
        "Figure 8b — normalized MCT on application traces",
        fig8b::run,
    ),
    (
        "x_sweep",
        "§3.1.2 ablation — the per-pair X parameter",
        x_sweep::run,
    ),
    (
        "chunk_sweep",
        "§3.1.3 ablation — scheduler chunk size",
        chunk_sweep::run,
    ),
    (
        "policy_ablation",
        "§3.1.1 ablation — FCFS vs SRPT",
        policy_ablation::run,
    ),
    (
        "preemption",
        "§4.2.1 ablation — interference from IP traffic",
        preemption::run,
    ),
    (
        "sched_scaling",
        "§3.1.3 ablation — scheduling latency vs port count",
        sched_scaling::run,
    ),
    (
        "topo_sweep",
        "leaf–spine × oversubscription × IP load sweep",
        topo_sweep::run,
    ),
    (
        "million_flows",
        "1M streamed flows, healthy and flapped → BENCH_mem.json",
        million_flows::run,
    ),
    (
        "chaos_sweep",
        "seeded fault/repair campaign → BENCH_faults.json",
        chaos_sweep::run,
    ),
    (
        "approx_sweep",
        "1024-host what-if grid vs exact runs → BENCH_approx.json",
        approx_sweep::run,
    ),
    (
        "app_sweep",
        "closed-loop YCSB, EDM vs CXL-oE, slowdowns → BENCH_app.json",
        app_sweep::run,
    ),
];

/// Leak guard checked after every experiment: the largest, `app_sweep`
/// with its 30 concurrent grid cells, peaks near 120 MB, the 1M-flow
/// stream near 35 MB with the flap.
const RSS_CEILING_MB: u64 = 256;

/// Peak resident-set size of this process so far, in kB (`VmHWM` from
/// `/proc/self/status`). `None` where procfs is unavailable.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    List,
    Run(usize, PathBuf),
}

/// Accepts exactly `list` or `<name> [--out DIR]`.
fn parse(args: &[String]) -> Option<Command> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (name, out) = match args.as_slice() {
        ["list"] => return Some(Command::List),
        [name] => (name, "."),
        [name, "--out", dir] => (name, *dir),
        _ => return None,
    };
    let index = EXPERIMENTS.iter().position(|(n, ..)| n == name)?;
    Some(Command::Run(index, PathBuf::from(out)))
}

/// Runs one experiment, then holds the process to the RSS ceiling.
fn run(index: usize, out: &Path) {
    std::fs::create_dir_all(out).expect("create output dir");
    EXPERIMENTS[index].2(out);

    // Stderr, so an experiment's stdout is exactly its figure.
    let Some(peak_kb) = peak_rss_kb() else {
        eprintln!("peak RSS unavailable (no procfs): {RSS_CEILING_MB} MB ceiling not checked");
        return;
    };
    let peak_mb = peak_kb as f64 / 1024.0;
    if peak_kb > RSS_CEILING_MB * 1024 {
        eprintln!("FAIL: peak RSS {peak_mb:.1} MB exceeds the {RSS_CEILING_MB} MB ceiling");
        std::process::exit(1);
    }
    eprintln!("peak RSS {peak_mb:.1} MB within the {RSS_CEILING_MB} MB ceiling");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Some(Command::List) => {
            for (name, what, _) in EXPERIMENTS {
                println!("{name:<16} {what}");
            }
        }
        Some(Command::Run(index, out)) => run(index, &out),
        None => {
            eprintln!("usage: edm-bench list | edm-bench <name> [--out DIR]");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_unique_and_in_the_readme_table() {
        let readme = include_str!("../../../README.md");
        for (i, (name, ..)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|(n, ..)| n != name),
                "duplicate experiment {name}"
            );
            assert!(
                readme.contains(&format!("\n| `{name}` | ")),
                "README's experiment table has no row for `{name}`"
            );
        }
    }

    #[test]
    fn command_line_is_list_or_a_name_with_an_optional_out_dir() {
        let parse = |args: &[&str]| parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert_eq!(parse(&["list"]), Some(Command::List));
        assert_eq!(parse(&["table1"]), Some(Command::Run(0, ".".into())));
        assert_eq!(
            parse(&["fig5", "--out", "/tmp/x"]),
            Some(Command::Run(1, "/tmp/x".into()))
        );
        for bad in [
            &[][..],
            &["nope"],
            &["table1", "--mix"],
            &["table1", "--out"],
            &["list", "table1"],
            &["table1", "--shards", "2"],
        ] {
            assert_eq!(parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn peak_rss_is_readable_and_plausible() {
        let kb = peak_rss_kb().expect("procfs on linux");
        // A running test binary occupies at least a megabyte and (sanity
        // cap) less than a terabyte.
        assert!(kb > 1_024 && kb < 1 << 30, "{kb}");
    }
}
