//! Ablation (§3.1.3): scheduler chunk size. The chunk must cover the
//! matching latency for line-rate scheduling (≥128 B on a 512×100G
//! switch), but larger chunks hold ports longer and delay competing
//! messages. The evaluation settles on 256 B.

use std::path::Path;

use crate::util::{par_sweep, solo_by_kind};
use edm_core::sim::{ClusterConfig, EdmProtocol, FabricProtocol};
use edm_workloads::{AppTrace, SyntheticWorkload};

pub fn run(_out: &Path) {
    let cluster = ClusterConfig::default();
    println!("Chunk-size sweep at load 0.8 (evaluation default: 256 B)");
    println!();
    println!(
        "{:<8} {:>16} {:>16}",
        "chunk", "64 B norm mean", "Hadoop norm mean"
    );
    let small = SyntheticWorkload::paper_default(0.8, 0.5, 3000).generate(42);
    let heavy = AppTrace::hadoop().generate(cluster.nodes, cluster.link, 0.8, 1500, 42);
    // One thread per chunk size: independent simulations fan out via
    // par_sweep, printed in input order.
    let rows = par_sweep(vec![64u32, 128, 256, 512, 1024], |chunk| {
        let mut p = EdmProtocol {
            chunk_bytes: chunk,
            ..EdmProtocol::default()
        };
        let solo = solo_by_kind(&mut p, &cluster, small[0]);
        let small_mean = p.simulate(&cluster, &small).normalized_mct(solo).mean();
        // Heavy trace: normalize by mean MCT against the 256 B default to
        // keep the comparison one-dimensional.
        let r_heavy = p.simulate(&cluster, &heavy);
        let heavy_mean_us = r_heavy.mean_mct().as_us_f64();
        format!(
            "{:<5} B {:>16.3} {:>13.2} us",
            chunk, small_mean, heavy_mean_us
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!();
    println!(
        "expected shape: small-message latency is flat in chunk size (64 B \
         messages fit any chunk) while oversized chunks inflate contention; \
         elephants prefer larger chunks (fewer grant round-trips). 256 B \
         balances both, consistent with the paper's choice."
    );
}
