//! Regenerates **Figure 5**: the cycle-level breakdown of EDM's fabric
//! latency for a 64 B read and write (one clock cycle = 2.56 ns).

use std::path::Path;

use edm_core::stack::{self, cycles};

fn stage(name: &str, cy: u64) {
    println!("  {name:<46} {cy:>3} cycles = {}", cycles(cy));
}

pub fn run(_out: &Path) {
    println!("Figure 5: EDM latency breakdown, 64 B read/write (cycle = 2.56 ns)");
    println!();
    println!("READ (RREQ -> RRES):");
    stage(
        "compute TX: generate RREQ /M*/",
        stack::host::GEN_NOTIFY_OR_RREQ,
    );
    stage(
        "switch: identify + notification enqueue + fwd",
        stack::switch_read_cycles(),
    );
    stage(
        "memory RX: parse RREQ, to mem controller",
        stack::host::RX_RREQ,
    );
    stage("memory TX: grant queue read", stack::host::READ_GRANT_QUEUE);
    stage(
        "memory TX: generate RRES data blocks",
        stack::host::GEN_DATA_BLOCK,
    );
    stage("compute RX: parse RRES, deliver", stack::host::RX_DATA);
    println!(
        "  EDM logic total (read): {} cycles = {}",
        stack::compute_node_read_cycles()
            + stack::switch_read_cycles()
            + stack::memory_node_read_cycles(),
        cycles(
            stack::compute_node_read_cycles()
                + stack::switch_read_cycles()
                + stack::memory_node_read_cycles()
        )
    );
    println!();
    println!("WRITE (/N/ -> /G/ -> WREQ):");
    stage("compute TX: generate /N/", stack::host::GEN_NOTIFY_OR_RREQ);
    stage(
        "switch: /N/ identify + enqueue",
        stack::switch::IDENTIFY + stack::switch::ENQUEUE_NOTIFICATION,
    );
    stage(
        "switch: generate /G/ (+ scheduler pop)",
        stack::switch::GEN_GRANT + 3,
    );
    stage("compute RX: process /G/", stack::host::RX_GRANT);
    stage(
        "compute TX: grant queue read",
        stack::host::READ_GRANT_QUEUE,
    );
    stage(
        "compute TX: generate WREQ data blocks",
        stack::host::GEN_DATA_BLOCK,
    );
    stage("switch: forward WREQ RX->TX", stack::switch::FORWARD);
    stage(
        "memory RX: parse WREQ, to mem controller",
        stack::host::RX_DATA,
    );
    println!(
        "  EDM logic total (write): {} cycles = {}",
        stack::compute_node_write_cycles()
            + stack::switch_write_cycles()
            + stack::memory_node_write_cycles(),
        cycles(
            stack::compute_node_write_cycles()
                + stack::switch_write_cycles()
                + stack::memory_node_write_cycles()
        )
    );
    println!();
    println!("Per-node Table-1 'blue' entries (EDM logic only):");
    for (label, cy) in [
        ("compute node, read", stack::compute_node_read_cycles()),
        ("compute node, write", stack::compute_node_write_cycles()),
        ("switch, read", stack::switch_read_cycles()),
        ("switch, write", stack::switch_write_cycles()),
        ("memory node, read", stack::memory_node_read_cycles()),
        ("memory node, write", stack::memory_node_write_cycles()),
    ] {
        println!("  {label:<22} {cy:>3} cycles = {}", cycles(cy));
    }
    println!();
    println!(
        "network stack totals: read {}, write {} (paper: 107.52 ns / 104.96 ns)",
        stack::network_stack_read_latency(),
        stack::network_stack_write_latency()
    );
}
