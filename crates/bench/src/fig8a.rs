//! Regenerates **Figure 8a**: average latency of random 64 B remote reads
//! and writes on a 144-node cluster, normalized by each protocol's own
//! unloaded latency, across network loads — then the write:read mixture
//! panel at load 0.8.

use std::path::Path;

use crate::util::{par_sweep, solo_by_kind};
use edm_baselines::prelude::*;
use edm_core::sim::{ClusterConfig, Flow, FlowKind};
use edm_workloads::SyntheticWorkload;

/// Flows per (load, protocol) point.
const FLOWS: usize = 4000;
const SEED: u64 = 42;

fn run_panel(loads_or_mixes: &[(f64, f64, String)]) {
    let cluster = ClusterConfig::default();
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "", "EDM", "IRD", "pFabric", "PFC", "DCTCP", "CXL", "Fastpass"
    );
    // One thread per (load, protocol) point: the sweeps are independent
    // simulations, so they fan out across cores. Each load row's workload
    // is generated once and shared by its seven protocol points.
    let n_protocols = all_protocols().len();
    let workloads: Vec<Vec<Flow>> = loads_or_mixes
        .iter()
        .map(|&(load, wf, _)| SyntheticWorkload::paper_default(load, wf, FLOWS).generate(SEED))
        .collect();
    let points: Vec<(usize, usize)> = (0..loads_or_mixes.len())
        .flat_map(|ri| (0..n_protocols).map(move |pi| (ri, pi)))
        .collect();
    let cells = par_sweep(points, |(ri, pi)| {
        let flows = &workloads[ri];
        let mut protocol = all_protocols().swap_remove(pi);
        let protocol = protocol.as_mut();
        // Normalize by the protocol's own unloaded latency (one write
        // and one read probe; weight by the mix).
        let probe = Flow {
            id: 0,
            src: 0,
            dst: cluster.nodes - 1,
            size: 64,
            arrival: edm_sim::Time::ZERO,
            kind: FlowKind::Write,
        };
        let solo = solo_by_kind(protocol, &cluster, probe);
        let norm = protocol.simulate(&cluster, flows).normalized_mct(solo);
        format!("{:.2}", norm.mean())
    });
    for (ri, (_, _, label)) in loads_or_mixes.iter().enumerate() {
        print!("{label:<12}");
        for c in &cells[ri * n_protocols..(ri + 1) * n_protocols] {
            print!(" {c:>9}");
        }
        println!();
    }
}

pub fn run(_out: &Path) {
    println!("Figure 8a: 64 B all-to-all, normalized mean latency vs load");
    println!();
    println!("--- writes (WREQ 64 B) ---");
    let loads = |wf: f64| -> Vec<(f64, f64, String)> {
        [0.2, 0.4, 0.6, 0.8, 0.9]
            .iter()
            .map(|&l| (l, wf, format!("load {l}")))
            .collect()
    };
    run_panel(&loads(1.0));
    println!();
    println!("--- reads (8 B RREQ -> 64 B RRES) ---");
    run_panel(&loads(0.0));
    println!();
    println!(
        "paper shape: EDM reads within 1.2x / writes within 1.4x of \
         unloaded at every load; IRD close at low load but degrading; \
         reactive protocols (pFabric/PFC/DCTCP, identical here because \
         flows are single-packet) worse; CXL degrades via HOL blocking; \
         Fastpass orders of magnitude worse (control-channel bottleneck)."
    );

    println!("Figure 8a (right): write:read mixes at load 0.8, normalized mean latency");
    println!();
    let mixes: Vec<(f64, f64, String)> = [(100, 0), (80, 20), (50, 50), (20, 80), (0, 100)]
        .iter()
        .map(|&(w, r)| (0.8, w as f64 / 100.0, format!("{w}:{r}")))
        .collect();
    run_panel(&mixes);
    println!();
    println!("paper shape: EDM stays ~1.2-1.35x across all mixes.");
}
