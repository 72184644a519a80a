//! Regenerates **Figure 7**: average end-to-end access latency for a
//! YCSB-A key-value workload whose objects are split between local DRAM
//! and remote memory in different ratios, under EDM, CXL, and RDMA.
//!
//! Local accesses cost ~82 ns (DDR4 + on-chip path). Remote accesses pay
//! the fabric (Table 1 for EDM/RDMA, the Pond-calibrated constants for
//! CXL) plus the remote DRAM service. YCSB-A is 50% reads / 50% updates,
//! so each fabric's remote cost is the read/write average.

use std::path::Path;

use edm_baselines::stacks::{self, cxl, LOCAL_DRAM};
use edm_core::latency::{edm_read, edm_write};
use edm_sim::Duration;

/// Average of read and write fabric latency plus remote DRAM service.
fn remote_cost(read: Duration, write: Duration) -> f64 {
    (read.as_ns_f64() + write.as_ns_f64()) / 2.0 + LOCAL_DRAM.as_ns_f64()
}

pub fn run(_out: &Path) {
    let edm = remote_cost(edm_read().total(), edm_write().total());
    let cxl = remote_cost(cxl::READ, cxl::WRITE);
    let rdma = remote_cost(
        stacks::rocev2_read().total(),
        stacks::rocev2_write().total(),
    );
    let local = LOCAL_DRAM.as_ns_f64();

    println!("Figure 7: end-to-end latency vs local:remote split (YCSB-A)");
    println!();
    println!("remote access cost: EDM {edm:.0} ns, CXL {cxl:.0} ns, RDMA {rdma:.0} ns");
    println!("local  access cost: {local:.0} ns (DDR4)");
    println!();
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "local:remote", "EDM ns", "CXL ns", "RDMA ns"
    );
    for (l, r) in [(100u32, 10u32), (66, 34), (50, 50), (34, 66), (10, 100)] {
        let total = (l + r) as f64;
        let mix = |remote: f64| (l as f64 * local + r as f64 * remote) / total;
        println!(
            "{:<12} {:>10.0} {:>10.0} {:>10.0}",
            format!("{l}:{r}"),
            mix(edm),
            mix(cxl),
            mix(rdma)
        );
    }
    println!();
    println!(
        "paper shape: EDM within ~1.3x of CXL at every split and far below \
         RDMA; latency grows with the remote share."
    );
    let edm_over_cxl = edm / cxl;
    println!("EDM/CXL remote-cost ratio: {edm_over_cxl:.2}x (paper: within 1.3x)");
}
