//! Regenerates **Figure 8b**: mean message completion time (MCT) on
//! heavy-tailed disaggregated-application traces, normalized by the ideal
//! (solo) completion time per message, for all seven protocols.

use std::path::Path;

use crate::util::{par_sweep, solo_by_size};
use edm_baselines::prelude::*;
use edm_core::sim::ClusterConfig;
use edm_sim::Bandwidth;
use edm_workloads::AppTrace;

pub fn run(_out: &Path) {
    let (count, seed, load) = (3000, 42, 0.8);
    let cluster = ClusterConfig::default();
    let link = Bandwidth::from_gbps(100);

    println!("Figure 8b: normalized mean MCT on application traces (load {load})");
    println!();
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "application", "EDM", "IRD", "pFabric", "PFC", "DCTCP", "CXL", "Fastpass"
    );

    // One thread per (application, protocol) point: each point is an
    // independent simulation, so they fan out across cores. Each app's
    // trace is generated once and shared by its seven protocol points.
    let apps = AppTrace::all();
    let n_protocols = all_protocols().len();
    let traces: Vec<_> = apps
        .iter()
        .map(|app| app.generate(cluster.nodes, link, load, count, seed))
        .collect();
    let points: Vec<(usize, usize)> = (0..apps.len())
        .flat_map(|ai| (0..n_protocols).map(move |pi| (ai, pi)))
        .collect();
    let cells = par_sweep(points, |(ai, pi)| {
        let app = &apps[ai];
        let flows = &traces[ai];
        let max_size = app.cdf().max_value() as u32;
        let mut protocol = all_protocols().swap_remove(pi);
        let protocol = protocol.as_mut();
        let solo = solo_by_size(protocol, &cluster, max_size);
        let norm = protocol.simulate(&cluster, flows).normalized_mct(solo);
        format!("{:.2}", norm.mean())
    });
    for (ai, app) in apps.iter().enumerate() {
        print!("{:<22}", app.name());
        for c in &cells[ai * n_protocols..(ai + 1) * n_protocols] {
            print!(" {c:>9}");
        }
        println!();
    }
    println!();
    println!(
        "paper shape: EDM 1.26-1.47x ideal (best); CXL and Fastpass \
         degrade most (HOL blocking / control bottleneck), with CXL MCT up \
         to ~8x EDM's."
    );
}
