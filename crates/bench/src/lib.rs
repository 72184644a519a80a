//! `edm-bench` — experiment harnesses that regenerate every table and
//! figure of the paper's evaluation (§4) and assert the repository's own
//! acceptance envelopes. Host-time performance is measured elsewhere, by
//! the one benchmark under `/benchmark` (`BENCHMARK.json`).
//!
//! | Binary | Artefact |
//! |--------|----------|
//! | `table1` | Table 1 — unloaded fabric latency, four stacks |
//! | `fig5` | Figure 5 — EDM cycle-level latency breakdown |
//! | `fig6` | Figure 6 — YCSB throughput, EDM vs RDMA |
//! | `fig7` | Figure 7 — end-to-end latency vs local:remote split |
//! | `fig8a` | Figure 8a — normalized latency vs load (+ `--mix` panel) |
//! | `fig8b` | Figure 8b — normalized MCT on application traces |
//! | `preemption` | §4.2.1 ablation — interference from IP traffic |
//! | `sched_scaling` | §3.1.3 ablation — scheduling latency vs port count |
//! | `topo_sweep` | Multi-switch leaf–spine × oversubscription × IP sweep |
//! | `million_flows` | Streaming-lifecycle memory benchmark → `BENCH_mem.json` |
//! | `chaos_sweep` | Seeded fault/repair campaign → `BENCH_faults.json` |
//!
//! Each binary prints a self-describing table; every multi-point sweep
//! fans out one thread per point via [`par_sweep`].

#![forbid(unsafe_code)]

use edm_core::sim::{solo_mct, ClusterConfig, FabricProtocol, Flow, FlowKind};
use edm_sim::{Duration, Time};

pub mod app;
pub mod faults;
pub mod mem;

pub mod scenarios {
    //! Shared scenarios: the sweep bins, the memory and fault campaigns
    //! and `edm-approx`'s envelope test must run the *same* fabric and
    //! workload under the same names, so all build them from here.

    use edm_core::sim::Flow;

    /// The topo benchmark fabric's shape: 288 nodes as 4 leaves × 72
    /// hosts with 2 spines. `oversub` divides the uplink capacity (1 =
    /// non-blocking 36 uplinks per spine per leaf, 2 = 2:1, 4 = 4:1).
    /// Normalization probes must use this same spec (see `topo_sweep`).
    pub fn leaf_spine_288_spec(oversub: usize) -> edm_topo::LeafSpine {
        assert!(36 % oversub == 0, "oversub must divide 36");
        edm_topo::LeafSpine::symmetric(4, 2, 72, 36 / oversub)
    }

    /// The topo benchmark fabric built from [`leaf_spine_288_spec`].
    pub fn leaf_spine_288(oversub: usize) -> edm_topo::Topology {
        edm_topo::Topology::leaf_spine(leaf_spine_288_spec(oversub))
    }

    /// The rack-aware workload spec behind [`rack_flows_288`]: `local` of
    /// each compute node's requests stay in-rack, the rest cross the
    /// spines. 64 B messages, 50:50 read/write. Call `.generate(42)` to
    /// materialize or `.source(42)` to stream the identical flows.
    pub fn rack_workload_288(
        load: f64,
        local: f64,
        count: usize,
    ) -> edm_workloads::RackAwareWorkload {
        edm_workloads::RackAwareWorkload {
            nodes: 288,
            racks: 4,
            link: edm_sim::Bandwidth::from_gbps(100),
            load,
            size: 64,
            write_fraction: 0.5,
            local_fraction: local,
            count,
        }
    }

    /// Rack-aware traffic for [`leaf_spine_288`], materialized (seed 42).
    pub fn rack_flows_288(load: f64, local: f64, count: usize) -> Vec<Flow> {
        rack_workload_288(load, local, count).generate(42)
    }
}

/// Runs one closure per sweep point on its own OS thread and returns the
/// results in input order.
///
/// The fig8-style sweeps are embarrassingly parallel: every
/// (protocol, load) point simulates an independent cluster. One thread per
/// point is the right grain here — points are few (tens) and each runs for
/// milliseconds to seconds.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn par_sweep<T, R, F>(points: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = points
            .into_iter()
            .map(|p| scope.spawn(move || f(p)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
}

/// Prints a row of right-aligned cells under a fixed layout.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<22}");
    for c in cells {
        print!(" {c:>10}");
    }
    println!();
}

/// Formats a nanosecond quantity compactly.
pub fn ns(d: Duration) -> String {
    let v = d.as_ns_f64();
    if v >= 1000.0 {
        format!("{:.2} us", v / 1000.0)
    } else {
        format!("{v:.1} ns")
    }
}

/// A per-protocol unloaded-latency curve over message sizes, used to
/// normalize heavy-tailed trace MCTs the way the paper does ("the time it
/// would take for that message to complete if it were the only message in
/// the network").
///
/// Solo latencies are measured at log-spaced probe sizes and interpolated
/// linearly in between (completion time is piecewise linear in size for
/// every protocol here: fixed overhead + serialization).
pub struct SoloCurve {
    /// (size, solo MCT in ns), ascending by size.
    points: Vec<(u32, f64)>,
}

impl SoloCurve {
    /// Measures the curve for `protocol` over sizes 8 B – `max_size`.
    pub fn measure<P: FabricProtocol + ?Sized>(
        protocol: &mut P,
        cluster: &ClusterConfig,
        kind: FlowKind,
        max_size: u32,
    ) -> Self {
        let mut sizes = vec![8u32, 64, 256, 1024];
        let mut s = 4096u32;
        while s < max_size {
            sizes.push(s);
            s = s.saturating_mul(4);
        }
        sizes.push(max_size);
        sizes.dedup();
        let points = sizes
            .into_iter()
            .map(|size| {
                let flow = Flow {
                    id: 0,
                    src: 0,
                    dst: cluster.nodes - 1,
                    size,
                    arrival: Time::ZERO,
                    kind,
                };
                let mct = solo_mct(protocol, cluster, &flow);
                (size, mct.as_ns_f64())
            })
            .collect();
        SoloCurve { points }
    }

    /// The interpolated solo MCT for a message of `size` bytes.
    pub fn solo_ns(&self, size: u32) -> f64 {
        let pts = &self.points;
        if size <= pts[0].0 {
            return pts[0].1;
        }
        for w in pts.windows(2) {
            let (s0, v0) = w[0];
            let (s1, v1) = w[1];
            if size <= s1 {
                let f = (size - s0) as f64 / (s1 - s0) as f64;
                return v0 + f * (v1 - v0);
            }
        }
        pts.last().expect("non-empty").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_core::sim::EdmProtocol;

    #[test]
    fn solo_curve_monotone_in_size() {
        let cluster = ClusterConfig {
            nodes: 16,
            ..ClusterConfig::default()
        };
        let mut p = EdmProtocol::default();
        let curve = SoloCurve::measure(&mut p, &cluster, FlowKind::Write, 65536);
        let a = curve.solo_ns(64);
        let b = curve.solo_ns(4096);
        let c = curve.solo_ns(65536);
        assert!(a < b && b < c, "{a} {b} {c}");
    }

    #[test]
    fn solo_curve_interpolates_between_probes() {
        let cluster = ClusterConfig {
            nodes: 16,
            ..ClusterConfig::default()
        };
        let mut p = EdmProtocol::default();
        let curve = SoloCurve::measure(&mut p, &cluster, FlowKind::Write, 65536);
        let mid = curve.solo_ns(640);
        assert!(mid >= curve.solo_ns(256) && mid <= curve.solo_ns(1024));
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(ns(Duration::from_ns(300)), "300.0 ns");
        assert_eq!(ns(Duration::from_us(2)), "2.00 us");
    }

    #[test]
    fn par_sweep_preserves_order() {
        let got = par_sweep((0..32).collect(), |i: u32| i * i);
        assert_eq!(got, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_sweep_runs_simulations() {
        let cluster = ClusterConfig {
            nodes: 8,
            ..ClusterConfig::default()
        };
        let sizes = vec![64u32, 256, 1024];
        let mcts = par_sweep(sizes, |size| {
            let flow = Flow {
                id: 0,
                src: 0,
                dst: 7,
                size,
                arrival: Time::ZERO,
                kind: FlowKind::Write,
            };
            solo_mct(&mut EdmProtocol::default(), &cluster, &flow).as_ns_f64()
        });
        assert!(mcts.windows(2).all(|w| w[0] < w[1]), "{mcts:?}");
    }
}
