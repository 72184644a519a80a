//! Ablation (§3.1.2 / §4.3): the X parameter — maximum active
//! notifications per source–destination pair. The paper: "we empirically
//! find that the value of X = 3 works best".
//!
//! Sweeps X over the all-to-all microbenchmark at load 0.8 and reports
//! the normalized mean/p99 latency, plus the notification-queue SRAM the
//! switch must provision (K·N·X bytes).

use std::path::Path;

use crate::util::{par_sweep, solo_by_kind};
use edm_core::sim::{ClusterConfig, EdmProtocol, FabricProtocol};
use edm_workloads::SyntheticWorkload;

pub fn run(_out: &Path) {
    // A hot 16-node cluster so that source-destination pairs actually
    // carry several concurrent messages (on 144 nodes with uniform
    // destinations, pairs are too cold for X to bind).
    let cluster = ClusterConfig {
        nodes: 16,
        ..ClusterConfig::default()
    };
    let flows = SyntheticWorkload {
        nodes: 16,
        link: cluster.link,
        load: 0.9,
        size: 64,
        write_fraction: 0.5,
        count: 6000,
    }
    .generate(42);
    println!("X-parameter sweep: 64 B all-to-all, 16 hot nodes, load 0.9 (paper: X=3 best)");
    println!();
    println!(
        "{:<4} {:>12} {:>12} {:>18}",
        "X", "norm. mean", "norm. p99", "queue bound/port"
    );
    // One thread per X value: independent simulations fan out via
    // par_sweep, printed in input order.
    let xs = vec![1usize, 2, 3, 4, 6, 8];
    let rows = par_sweep(xs.clone(), |x| {
        let mut p = EdmProtocol {
            max_active_per_pair: x,
            ..EdmProtocol::default()
        };
        let solo = solo_by_kind(&mut p, &cluster, flows[0]);
        let mut norm = p.simulate(&cluster, &flows).normalized_mct(solo);
        (norm.mean(), norm.percentile(99.0))
    });
    for (&x, &(mean, p99)) in xs.iter().zip(&rows) {
        // §3.1.2: queue bound X*N entries; §4.1: K*N^2 bytes total SRAM
        // (K = notification length ≈ 8 B including metadata).
        let entries = x * cluster.nodes;
        println!("{x:<4} {mean:>12.3} {p99:>12.3} {entries:>13} ents");
    }
    // The paper's ablation as a check (`rows` follows `xs`): X = 1
    // leaves the tail on the table, and from X = 3 on nothing moves.
    let (p1, p3) = (rows[0].1, rows[2].1);
    println!();
    println!(
        "measured knee: X=1 stalls a hot pair between its messages \
         (p99 {p1:.3}); X=2 recovers most of it and X=3 all of it \
         (p99 {p3:.3}); larger X only grows switch SRAM."
    );
    assert!(p1 >= 2.0 * p3, "X=1 p99 {p1:.3} is not 2x X=3's {p3:.3}");
    for (x, &(_, p)) in xs.iter().zip(&rows).skip(3) {
        let msg = format!("X={x} p99 {p:.3} is not within 1% of X=3's {p3:.3}");
        assert!((p / p3 - 1.0).abs() <= 0.01, "{msg}");
    }
}
