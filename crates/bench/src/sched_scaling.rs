//! Ablation (§3.1.3): scheduler matching latency and minimum chunk size
//! as the switch scales from 16 to 512 ports, plus measured PIM iteration
//! counts under full demand.

use std::path::Path;

use edm_sched::pim::{min_chunk_for_line_rate, scheduling_latency, PimConfig, PimRunner};
use edm_sched::ASIC_CLOCK;
use edm_sim::{Bandwidth, Rng};

pub fn run(_out: &Path) {
    let link = Bandwidth::from_gbps(100);
    println!("Scheduler scaling (3 GHz ASIC pipeline, 3 cycles/iteration):");
    println!();
    println!(
        "{:<8} {:>14} {:>14} {:>18}",
        "ports", "sched latency", "min chunk", "measured PIM iters"
    );
    let mut rng = Rng::seed_from(7);
    for ports in [16usize, 32, 64, 128, 256, 512] {
        // Measure average iterations to maximal matching under full
        // uniform demand (the hardest case).
        let trials = 20;
        let mut total_iters = 0usize;
        for _ in 0..trials {
            let mut demand = vec![Vec::new(); ports];
            for row in demand.iter_mut() {
                for s in 0..ports {
                    row.push((rng.below(1_000_000), s));
                }
                row.sort_unstable();
            }
            let mut pim = PimRunner::new(PimConfig::for_ports(ports));
            let all = vec![true; ports];
            let m = pim.run(&demand, &all, &all);
            assert_eq!(m.pairs.len(), ports, "full demand must match fully");
            total_iters += m.iterations;
        }
        let avg = total_iters as f64 / trials as f64;
        println!(
            "{:<8} {:>14} {:>12} B {:>18.1}",
            ports,
            format!("{}", scheduling_latency(ports, ASIC_CLOCK)),
            min_chunk_for_line_rate(ports, ASIC_CLOCK, link),
            avg
        );
    }
    println!();
    println!(
        "paper anchor (§3.1.3): a 512-port switch needs ~9 ns per maximal \
         matching (3*log2(512) cycles at 3 GHz) and therefore a 128 B \
         minimum chunk for line-rate scheduling at 100 Gb/s."
    );
}
