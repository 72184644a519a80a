//! Ablation (§3.1.1 property 4): FCFS vs SRPT priority assignment.
//!
//! The paper chooses the policy by workload: FCFS is optimal for
//! light-tailed traffic, SRPT for heavy-tailed. This harness runs both
//! policies on a light-tailed workload (uniform 64 B messages) and a
//! heavy-tailed one (the Hadoop trace) and reports mean and tail
//! normalized completion times.

use std::path::Path;

use crate::util::{par_sweep, solo_by_size};
use edm_core::sim::{ClusterConfig, EdmProtocol, FabricProtocol, Flow};
use edm_sched::Policy;
use edm_workloads::{AppTrace, SyntheticWorkload};

fn norm_stats(
    policy: Policy,
    cluster: &ClusterConfig,
    flows: &[Flow],
    max_size: u32,
) -> (f64, f64) {
    let mut p = EdmProtocol {
        policy,
        ..EdmProtocol::default()
    };
    let solo = solo_by_size(&mut p, cluster, max_size);
    let mut norm = p.simulate(cluster, flows).normalized_mct(solo);
    (norm.mean(), norm.percentile(99.0))
}

pub fn run(_out: &Path) {
    let cluster = ClusterConfig::default();
    println!("Scheduling-policy ablation at load 0.8 (paper §3.1.1, property 4)");
    println!();
    println!(
        "{:<28} {:>14} {:>14}",
        "workload / policy", "norm. mean", "norm. p99"
    );

    // One thread per (workload, policy) point: the four simulations are
    // independent, so they fan out via par_sweep, printed in input order.
    let light = SyntheticWorkload::paper_default(0.8, 0.5, 4000).generate(42);
    let heavy = AppTrace::hadoop().generate(cluster.nodes, cluster.link, 0.8, 3000, 42);
    let max = AppTrace::hadoop().cdf().max_value() as u32;
    let points: Vec<(&str, &str, Policy, &[Flow], u32)> = vec![
        ("light-tailed 64 B", "FCFS", Policy::Fcfs, &light, 64),
        ("light-tailed 64 B", "SRPT", Policy::Srpt, &light, 64),
        ("heavy-tailed Hadoop", "FCFS", Policy::Fcfs, &heavy, max),
        ("heavy-tailed Hadoop", "SRPT", Policy::Srpt, &heavy, max),
    ];
    let rows = par_sweep(points, |(workload, name, policy, flows, max_size)| {
        let (mean, p99) = norm_stats(policy, &cluster, flows, max_size);
        format!(
            "{:<28} {:>14.3} {:>14.3}",
            format!("{workload} / {name}"),
            mean,
            p99
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!();
    println!(
        "expected shape: on light-tailed traffic the policies tie (all \
         messages equal); on heavy-tailed traffic SRPT cuts the mean by \
         letting mice bypass elephants (at some elephant-tail cost)."
    );
}
