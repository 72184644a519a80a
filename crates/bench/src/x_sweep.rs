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
    let rows = par_sweep(vec![1usize, 2, 3, 4, 6, 8], |x| {
        let mut p = EdmProtocol {
            max_active_per_pair: x,
            ..EdmProtocol::default()
        };
        let solo = solo_by_kind(&mut p, &cluster, flows[0]);
        let mut norm = p.simulate(&cluster, &flows).normalized_mct(solo);
        // §3.1.2: queue bound X*N entries; §4.1: K*N^2 bytes total SRAM
        // (K = notification length ≈ 8 B including metadata).
        let entries = x * cluster.nodes;
        format!(
            "{:<4} {:>12.3} {:>12.3} {:>13} ents",
            x,
            norm.mean(),
            norm.percentile(99.0),
            entries
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!();
    println!(
        "expected shape: X=1 leaves tail latency on the table (a hot pair \
         stalls between its messages); X=3 recovers it; larger X only \
         grows switch SRAM — the paper's knee."
    );
}
