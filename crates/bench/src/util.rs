//! What the experiments share: the sweep fan-out, table formatting and
//! the unloaded-latency curve that normalizes heavy-tailed traces.

use edm_core::sim::{solo_mct, ClusterConfig, FabricProtocol, Flow, FlowKind};
use edm_sim::{Duration, Time};

/// Runs one closure per sweep point on its own OS thread and returns the
/// results in input order.
///
/// The fig8-style sweeps are embarrassingly parallel: every
/// (protocol, load) point simulates an independent cluster. One thread per
/// point is the right grain here — points are few (tens) and each runs for
/// milliseconds to seconds.
///
/// Kept on a measurement (PR 23, 2 vCPUs, release, 5 alternating pairs
/// against a plain sequential `map`, median wall): `fig8b` 705 ms here vs
/// 1169 ms sequential (1.66×; a second set 625 vs 1149), `fig8a` 347 vs
/// 231 ms and, repeated, 149 vs 213 ms (noise either way), `app_sweep`
/// 965 vs 938 ms (0.97×). Sequential is not within 10 % on `fig8b`, so
/// the fan-out stays and is the only sweep path.
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

/// A protocol's unloaded MCT for a flow shaped like `probe`, by kind — what
/// the fixed-size sweeps normalize each flow by (one write and one read
/// probe, write first).
pub fn solo_by_kind<P: FabricProtocol + ?Sized>(
    protocol: &mut P,
    cluster: &ClusterConfig,
    probe: Flow,
) -> impl Fn(&Flow) -> Duration {
    let mut solo = |kind| solo_mct(protocol, cluster, &Flow { kind, ..probe });
    let (write, read) = (solo(FlowKind::Write), solo(FlowKind::Read));
    move |f| match f.kind {
        FlowKind::Write => write,
        FlowKind::Read => read,
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

/// A protocol's interpolated unloaded MCT for a flow's kind and size — what
/// the heavy-tailed traces normalize each flow by (write curve first).
pub fn solo_by_size<P: FabricProtocol + ?Sized>(
    protocol: &mut P,
    cluster: &ClusterConfig,
    max_size: u32,
) -> impl Fn(&Flow) -> Duration {
    let write = SoloCurve::measure(protocol, cluster, FlowKind::Write, max_size);
    let read = SoloCurve::measure(protocol, cluster, FlowKind::Read, max_size);
    move |f| match f.kind {
        FlowKind::Write => Duration::from_ns_f64(write.solo_ns(f.size)),
        FlowKind::Read => Duration::from_ns_f64(read.solo_ns(f.size)),
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
