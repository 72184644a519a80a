//! Regenerates **Figure 6**: requests/second for the YCSB workloads over
//! a 25 GbE link — EDM's in-PHY transport vs RDMA (RoCEv2).

use std::path::Path;

use edm_core::throughput::{edm_throughput, rdma_throughput, RequestMix};
use edm_sim::Bandwidth;

pub fn run(_out: &Path) {
    let link = Bandwidth::from_gbps(25);
    println!("Figure 6: YCSB throughput on {link} (1 KB reads, 100 B writes)");
    println!();
    println!(
        "{:<8} {:>12} {:>12} {:>8}   bottlenecks (EDM | RDMA)",
        "workload", "EDM Mrps", "RDMA Mrps", "ratio"
    );
    let mut ratios = Vec::new();
    for (name, mix) in [
        ("A", RequestMix::ycsb_a()),
        ("B", RequestMix::ycsb_b()),
        ("F", RequestMix::ycsb_f()),
    ] {
        let e = edm_throughput(link, &mix);
        let r = rdma_throughput(link, &mix);
        let ratio = e.requests_per_sec / r.requests_per_sec;
        ratios.push(ratio);
        let bottleneck = |t: &edm_core::throughput::ThroughputEstimate| {
            if t.initiation >= t.uplink && t.initiation >= t.downlink {
                "engine"
            } else if t.downlink >= t.uplink {
                "downlink"
            } else {
                "uplink"
            }
        };
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>7.2}x   {} | {}",
            name,
            e.requests_per_sec / 1e6,
            r.requests_per_sec / 1e6,
            ratio,
            bottleneck(&e),
            bottleneck(&r),
        );
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!();
    println!(
        "average EDM/RDMA ratio: {avg:.2}x (paper: ~2.7x; causes: RoCEv2 \
         transport engine occupancy, 64 B minimum frames, and IFG overhead \
         vs EDM's 66-bit blocks and repurposed IFG)"
    );
}
