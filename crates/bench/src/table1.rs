//! Regenerates **Table 1**: Ethernet fabric latency for remote read and
//! write, for TCP/IP (hardware), RoCEv2, raw Ethernet, and EDM.
//!
//! The EDM column is *derived* from the per-stage cycle model
//! (`edm_core::stack`); the baselines use the per-layer constants the
//! paper measured.

use std::path::Path;

use crate::util::{ns, row};
use edm_baselines::stacks;
use edm_core::latency::{edm_read, edm_write, FabricLatency};

pub fn run(_out: &Path) {
    let columns: Vec<FabricLatency> = vec![
        stacks::tcp_read(),
        stacks::tcp_write(),
        stacks::rocev2_read(),
        stacks::rocev2_write(),
        stacks::raw_ethernet_read(),
        stacks::raw_ethernet_write(),
        edm_read(),
        edm_write(),
    ];

    println!("Table 1: Ethernet fabric latency for remote read/write");
    println!();
    row(
        "",
        &columns
            .iter()
            .map(|c| c.stack.split(' ').next().unwrap_or(c.stack).to_string())
            .collect::<Vec<_>>(),
    );
    row(
        "",
        &columns.iter().map(|c| c.op.to_string()).collect::<Vec<_>>(),
    );
    println!("{}", "-".repeat(22 + 11 * columns.len()));
    type FieldOf = fn(&FabricLatency) -> edm_sim::Duration;
    let fields: [(&str, FieldOf); 9] = [
        ("compute protocol", |c| c.compute_protocol),
        ("compute MAC", |c| c.compute_mac),
        ("compute PCS", |c| c.compute_pcs),
        ("switch L2 fwd", |c| c.switch_l2),
        ("switch MAC", |c| c.switch_mac),
        ("switch PCS", |c| c.switch_pcs),
        ("memory protocol", |c| c.memory_protocol),
        ("memory MAC", |c| c.memory_mac),
        ("memory PCS", |c| c.memory_pcs),
    ];
    for (label, f) in fields {
        row(label, &columns.iter().map(|c| ns(f(c))).collect::<Vec<_>>());
    }
    println!("{}", "-".repeat(22 + 11 * columns.len()));
    row(
        "network stack",
        &columns
            .iter()
            .map(|c| ns(c.network_stack_latency()))
            .collect::<Vec<_>>(),
    );
    row(
        "PMA/PMD passes",
        &columns
            .iter()
            .map(|c| format!("{}x19 ns", c.pma_pmd_passes))
            .collect::<Vec<_>>(),
    );
    row(
        "propagation",
        &columns
            .iter()
            .map(|c| format!("{}x10 ns", c.propagation_hops))
            .collect::<Vec<_>>(),
    );
    println!("{}", "=".repeat(22 + 11 * columns.len()));
    row(
        "TOTAL fabric latency",
        &columns.iter().map(|c| ns(c.total())).collect::<Vec<_>>(),
    );

    println!();
    println!("EDM speedup factors (paper: raw 3.7x/1.9x, RoCE 6.8x/3.4x, TCP 12.7x/6.4x):");
    let er = edm_read().total().as_ns_f64();
    let ew = edm_write().total().as_ns_f64();
    for (name, r, w) in [
        (
            "raw Ethernet",
            stacks::raw_ethernet_read().total().as_ns_f64(),
            stacks::raw_ethernet_write().total().as_ns_f64(),
        ),
        (
            "RoCEv2",
            stacks::rocev2_read().total().as_ns_f64(),
            stacks::rocev2_write().total().as_ns_f64(),
        ),
        (
            "TCP/IP (hw)",
            stacks::tcp_read().total().as_ns_f64(),
            stacks::tcp_write().total().as_ns_f64(),
        ),
    ] {
        println!("  vs {name:<13}: read {:.1}x, write {:.1}x", r / er, w / ew);
    }
}
