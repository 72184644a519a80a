//! Regression pins for the paper's quantitative claims: these are the
//! numbers EXPERIMENTS.md reports, frozen as tests so they cannot drift
//! silently.

use edm_baselines::stacks;
use edm_core::latency::{edm_read, edm_write};
use edm_core::throughput::{edm_throughput, rdma_throughput, RequestMix};
use edm_phy::frame::blocks_for_frame;
use edm_phy::mem_codec::blocks_for_message;
use edm_sched::pim::{min_chunk_for_line_rate, scheduling_latency};
use edm_sim::Bandwidth;
use edm_topo::{AppConfig, AppTransport, LeafSpine, TopoEdm, Topology};
use edm_workloads::{OpMix, TenantSpec, YcsbWorkload};

#[test]
fn table1_edm_column_is_exact() {
    assert_eq!(edm_read().total().as_ps(), 299_520); // 299.52 ns
    assert_eq!(edm_write().total().as_ps(), 296_960); // 296.96 ns
    assert_eq!(edm_read().network_stack_latency().as_ps(), 107_520);
    assert_eq!(edm_write().network_stack_latency().as_ps(), 104_960);
}

#[test]
fn table1_baseline_columns_are_exact() {
    assert_eq!(stacks::tcp_read().total().as_ps(), 3_779_680);
    assert_eq!(stacks::tcp_write().total().as_ps(), 1_889_840);
    assert_eq!(stacks::rocev2_read().total().as_ps(), 2_035_680);
    assert_eq!(stacks::rocev2_write().total().as_ps(), 1_017_840);
    assert_eq!(stacks::raw_ethernet_read().total().as_ps(), 1_114_880);
    assert_eq!(stacks::raw_ethernet_write().total().as_ps(), 557_440);
}

#[test]
fn headline_speedups_match_section_4_2_1() {
    let er = edm_read().total().as_ps() as f64;
    let ew = edm_write().total().as_ps() as f64;
    let close = |got: f64, want: f64| (got - want).abs() / want < 0.05;
    assert!(close(
        stacks::raw_ethernet_read().total().as_ps() as f64 / er,
        3.7
    ));
    assert!(close(
        stacks::raw_ethernet_write().total().as_ps() as f64 / ew,
        1.9
    ));
    assert!(close(
        stacks::rocev2_read().total().as_ps() as f64 / er,
        6.8
    ));
    assert!(close(
        stacks::rocev2_write().total().as_ps() as f64 / ew,
        3.4
    ));
    assert!(close(stacks::tcp_read().total().as_ps() as f64 / er, 12.7));
    assert!(close(stacks::tcp_write().total().as_ps() as f64 / ew, 6.4));
}

#[test]
fn phy_granularity_claims() {
    // §2.3/§3.2: a 64 B minimum frame needs 9 PHY blocks; an 8 B memory
    // message needs 3 (with header) — the granularity gap behind EDM's
    // bandwidth advantage.
    assert_eq!(blocks_for_frame(64), 9);
    assert_eq!(blocks_for_message(8), 3);
    // 1500 B frame at 100 G = 120 ns; 9 KB jumbo = 720 ns (§2.4 lim. 3).
    let g100 = Bandwidth::from_gbps(100);
    assert_eq!(g100.tx_time_bytes(1500).as_ns(), 120);
    assert_eq!(g100.tx_time_bytes(9000).as_ns(), 720);
}

#[test]
fn scheduler_asic_claims() {
    // §3.1.3: 512 ports at 3 GHz → ~9 ns matching, 128 B minimum chunk.
    let t = scheduling_latency(512, edm_sched::ASIC_CLOCK);
    assert!((t.as_ns_f64() - 9.0).abs() < 0.1);
    assert_eq!(
        min_chunk_for_line_rate(512, edm_sched::ASIC_CLOCK, Bandwidth::from_gbps(100)),
        128
    );
}

#[test]
fn figure6_throughput_advantage() {
    // §4.2.2: EDM sustains substantially more requests/sec than RDMA on
    // every YCSB mix (paper: ~2.7x average).
    let link = Bandwidth::from_gbps(25);
    let mut ratios = Vec::new();
    for mix in [
        RequestMix::ycsb_a(),
        RequestMix::ycsb_b(),
        RequestMix::ycsb_f(),
    ] {
        let ratio = edm_throughput(link, &mix).requests_per_sec
            / rdma_throughput(link, &mix).requests_per_sec;
        assert!(ratio > 1.3, "ratio {ratio:.2}");
        ratios.push(ratio);
    }
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!((1.5..4.0).contains(&avg), "average ratio {avg:.2}");
}

#[test]
fn figure7_ordering() {
    // §4.2.2: EDM within ~1.3x of CXL unloaded; RDMA far behind both.
    let edm = (edm_read().total().as_ns_f64() + edm_write().total().as_ns_f64()) / 2.0;
    let cxl = (stacks::cxl::READ.as_ns_f64() + stacks::cxl::WRITE.as_ns_f64()) / 2.0;
    let rdma = (stacks::rocev2_read().total().as_ns_f64()
        + stacks::rocev2_write().total().as_ns_f64())
        / 2.0;
    assert!(edm / cxl < 1.3, "EDM/CXL = {:.2}", edm / cxl);
    assert!(rdma / edm > 4.0, "RDMA/EDM = {:.2}", rdma / edm);
}

/// Unloaded closed-loop latency on a paper-scale single switch: one
/// tenant, window of 1, pure reads (then pure writes) of Figure 6's
/// object shapes against one remote memory node.
fn unloaded_p50(update_fraction: f64, transport: AppTransport) -> f64 {
    let topo = Topology::single_switch(144, Default::default());
    let wl = YcsbWorkload {
        update_fraction,
        ..YcsbWorkload::b()
    };
    let tenants = vec![TenantSpec::saturating(0, OpMix::remote(wl), 1, 200)];
    let app = AppConfig {
        transport,
        ..AppConfig::new(tenants, vec![100])
    };
    let r = TopoEdm::default().simulate_app(&topo, &app);
    assert_eq!(r.ops_completed, 200);
    r.lat.percentile(50.0) as f64
}

#[test]
fn figure7_closed_loop_crosscheck() {
    // The analytic Table 1 / Figure 7 numbers and the simulated closed
    // loop must not silently diverge. They are not expected to be equal:
    // Table 1 times a single 64 B access, while the closed loop serves
    // Figure 6's KV shapes — a read pays the slot-header probe chained
    // into the 1 KB value read, the 1 KB response leg on the wire, and
    // the NIC/completion handoffs. That adds ~45% to reads (payload +
    // second DRAM access) and ~4% to writes (100 B payload, header and
    // value land in one burst train). Documented tolerance: reads within
    // [1.1, 1.8]x of analytic, writes within [0.9, 1.2]x.
    let read_ratio = unloaded_p50(0.0, AppTransport::Edm) / edm_read().total().as_ps() as f64;
    assert!(
        (1.1..1.8).contains(&read_ratio),
        "simulated/analytic read ratio {read_ratio:.3} drifted"
    );
    let write_ratio = unloaded_p50(1.0, AppTransport::Edm) / edm_write().total().as_ps() as f64;
    assert!(
        (0.9..1.2).contains(&write_ratio),
        "simulated/analytic write ratio {write_ratio:.3} drifted"
    );

    // Figure 7's ordering, reproduced end-to-end: EDM stays well ahead
    // of Ethernet-tunneled CXL on the identical fabric (the paper's
    // point that the advantage comes from the in-PHY transport, not the
    // topology).
    let cxl = AppTransport::CxlOe;
    let cxl_read = unloaded_p50(0.0, cxl) / unloaded_p50(0.0, AppTransport::Edm);
    let cxl_write = unloaded_p50(1.0, cxl) / unloaded_p50(1.0, AppTransport::Edm);
    assert!(cxl_read > 1.5, "CXL-oE/EDM read ratio {cxl_read:.2}");
    assert!(cxl_write > 1.5, "CXL-oE/EDM write ratio {cxl_write:.2}");
}

#[test]
fn figure6_closed_loop_crosscheck() {
    // The analytic Figure 6 model is a line-rate ceiling (request per
    // bottleneck-transfer time); the simulated closed loop adds
    // scheduling epochs, DRAM service, and bounded per-tenant windows,
    // so its sustained rate must sit *under* the ceiling but reach a
    // healthy fraction of it once windows are deep (16 tenants x MLP 16
    // against 16 memory nodes). Documented envelope: [0.3, 1.0) of the
    // aggregate analytic ceiling (measured ~0.6).
    let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 8, 4));
    let mix = OpMix::remote(YcsbWorkload::b());
    let tenants: Vec<_> = (0..16)
        .map(|i| TenantSpec::saturating(i, mix, 16, 500))
        .collect();
    let app = AppConfig::new(tenants, (16..32).collect());
    let r = TopoEdm::default().simulate_app(&topo, &app);
    assert_eq!(r.ops_completed, 8_000);
    let sim_rate = r.ops_completed as f64 / (r.makespan.as_ns_f64() / 1e9);
    let ceiling =
        16.0 * edm_throughput(Bandwidth::from_gbps(100), &RequestMix::ycsb_b()).requests_per_sec;
    let fraction = sim_rate / ceiling;
    assert!(
        (0.3..1.0).contains(&fraction),
        "simulated rate {sim_rate:.3e} is {fraction:.3} of the analytic ceiling {ceiling:.3e}"
    );
}

#[test]
fn edm_unloaded_is_comparable_to_two_hop_numa() {
    // §1: "comparable to an intra-server two hop NUMA" — a few hundred ns.
    let ns = edm_read().total().as_ns_f64();
    assert!((250.0..350.0).contains(&ns));
}
