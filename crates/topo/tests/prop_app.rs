//! The closed-loop suite, across random tenant populations, topologies,
//! memory placements, fault schedules, and both transports (EDM and
//! CXL-over-Ethernet): op accounting conserves (`issued = completed +
//! failed`, per-kind histograms partition the completions), the op
//! population is bounded by the summed MLP windows (`ops_high_water ≤
//! Σ mlp`, the O(active ops) memory claim), and a run is a pure function
//! of its config. Two fixed faulted runs keep the report digests they
//! had before the closed loop stopped sharding, so the tier cannot
//! drift unnoticed.

use edm_sim::{Duration, Time};
use edm_topo::{
    AppConfig, AppReport, AppTransport, FaultEvent, FaultKind, LeafSpine, TopoEdm, TopoEdmConfig,
    Topology,
};
use edm_workloads::{OpMix, TenantSpec, YcsbWorkload};
use proptest::prelude::*;

/// Raw per-tenant spec: (node, workload, mlp, think, ops, mix-selector).
/// The final byte packs the RMW share (low digit base 5) and local split
/// (next digit base 5).
type TenantRaw = (u64, u8, u32, u8, u64, u8);

/// Decodes tenant specs against a node count. Workloads rotate through
/// YCSB A/B/F; RMW share is quantized to {0, ¼, ½, ¾, 1} and the local
/// split to {0 … ½}; think times are 0–300 ns exponentials.
fn decode_tenants(specs: &[TenantRaw], nodes: usize) -> Vec<TenantSpec> {
    specs
        .iter()
        .map(|&(node, wl, mlp, think, ops, mixsel)| {
            let ycsb = match wl % 3 {
                0 => YcsbWorkload::a(),
                1 => YcsbWorkload::b(),
                _ => YcsbWorkload::f(),
            };
            TenantSpec {
                node: (node % nodes as u64) as usize,
                mix: OpMix {
                    ycsb,
                    rmw_fraction: f64::from(mixsel % 5) / 4.0,
                    local_fraction: f64::from((mixsel / 5) % 5) / 8.0,
                },
                mlp: 1 + mlp % 8,
                think_mean: Duration::from_ns(u64::from(think % 4) * 100),
                ops: 5 + ops % 40,
            }
        })
        .collect()
}

/// Decodes a memory placement: 1–3 distinct nodes scattered by `sel`.
/// Tenants may land on memory nodes — colocated keys collapse to local
/// service, which the suite deliberately exercises.
fn decode_memory(sel: u64, nodes: usize) -> Vec<usize> {
    let count = 1 + (sel % 3) as usize;
    let mut v: Vec<usize> = (0..count)
        .map(|i| ((sel >> (8 * i)) as usize + 3 * i) % nodes)
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Decodes fault specs against a topology (same scheme as the flow-level
/// lockstep suite: valid targets, leaf switches spared from SwitchDown,
/// repairs included so schedules fuzz flap orderings).
fn decode_faults(specs: &[(u8, u64, u64)], topo: &Topology) -> Vec<FaultEvent> {
    let links = topo.links().len() as u64;
    let switches = topo.switch_count() as u64;
    specs
        .iter()
        .map(|&(kind, target, at)| FaultEvent {
            at: Time::from_ns(500 + at % 20_000),
            kind: match kind % 6 {
                0 => FaultKind::LinkDown((target % links) as u32),
                1 => FaultKind::SwitchDown((target % switches) as u32),
                2 => FaultKind::DegradeLink {
                    link: (target % links) as u32,
                    extra: Duration::from_ns(50 + at % 500),
                },
                3 => FaultKind::LinkUp((target % links) as u32),
                4 => FaultKind::SwitchUp((target % switches) as u32),
                _ => FaultKind::RestoreLink((target % links) as u32),
            },
        })
        .collect()
}

/// Runs the closed loop and checks its invariants.
fn run_checked(
    proto: &TopoEdm,
    topo: &Topology,
    app: &AppConfig,
) -> Result<AppReport, TestCaseError> {
    let r = proto.simulate_app(topo, app);

    // Op conservation: everything issued either completed or failed,
    // and the per-kind histograms partition the completions.
    prop_assert_eq!(r.ops_issued, r.ops_completed + r.ops_failed);
    prop_assert_eq!(r.lat.count(), r.ops_completed);
    prop_assert_eq!(
        r.lat_read.count() + r.lat_update.count() + r.lat_rmw.count() + r.lat_local.count(),
        r.ops_completed
    );
    let expected: u64 = app.tenants.iter().map(|t| t.ops).sum();
    prop_assert_eq!(r.ops_issued, expected);

    // The O(active ops) pin: residency never exceeds the summed windows.
    let window: usize = app.tenants.iter().map(|t| t.mlp as usize).sum();
    prop_assert!(
        r.ops_high_water <= window,
        "high water {} exceeds the summed MLP window {}",
        r.ops_high_water,
        window
    );
    Ok(r)
}

/// FNV-1a over every field of a report: each histogram at every
/// per-mille percentile, every window of the completion/failure series,
/// and every fabric counter.
fn report_digest(r: &AppReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
    for v in [r.ops_issued, r.ops_completed, r.ops_failed] {
        mix(v);
    }
    for hist in [&r.lat, &r.lat_read, &r.lat_update, &r.lat_rmw, &r.lat_local] {
        mix(hist.count());
        mix(hist.max());
        mix(hist.mean().to_bits());
        for pm in 0..=1000 {
            mix(hist.percentile(f64::from(pm) / 10.0));
        }
    }
    // The window series, in the order the recorded digests fold it:
    // completions and bytes up to the last window with a completion,
    // then completions and failures over every window.
    let s = &r.series;
    let done = (0..s.windows())
        .rev()
        .find(|&i| s.ops_in(i) > 0)
        .map_or(0, |i| i + 1);
    mix(done as u64);
    for i in 0..done {
        mix(s.ops_in(i));
        mix(s.bytes_in(i));
    }
    mix(s.windows() as u64);
    for i in 0..s.windows() {
        mix(s.ops_in(i));
        mix(s.failed_in(i));
    }
    mix(r.makespan.as_ps());
    mix(r.ops_high_water as u64);
    mix(r.dram_rows.0);
    mix(r.dram_rows.1);
    mix(r.dram_rows.2);
    let f = &r.fabric;
    for v in [
        f.admitted,
        f.delivered,
        f.failed,
        f.reroutes,
        f.retried,
        f.readmitted,
        f.ip_frames,
        f.ip_delayed,
        f.events,
        f.rounds,
        f.empty_rounds,
        f.examined,
        f.active_high_water as u64,
        f.msg_slots_high_water as u64,
    ] {
        mix(v);
    }
    h
}

/// Two small closed loops under a spine flap and an outage of the memory
/// nodes' leaf, retries on, one per transport: every field of each
/// report keeps the digest recorded on the last tree that still sharded
/// the closed loop (EDM: 4 of 240 ops fail, 13 payload legs re-admitted;
/// CXL-oE: 108 fail). The suite's other checks are invariants and
/// self-equivalences; this one catches a change that moves any number
/// the tier reports.
#[test]
fn faulted_closed_loops_keep_their_recorded_digests() {
    const EDM_DIGEST: u64 = 0x92e0_9f52_33bb_acea;
    const CXL_OE_DIGEST: u64 = 0x7d26_adbc_c185_30ea;
    let topo = Topology::leaf_spine(LeafSpine::symmetric(3, 2, 4, 2));
    let proto = TopoEdm::new(TopoEdmConfig {
        faults: vec![
            FaultEvent {
                at: Time::from_ns(1_500),
                kind: FaultKind::SwitchDown(3),
            },
            FaultEvent {
                at: Time::from_ns(3_000),
                kind: FaultKind::SwitchDown(2),
            },
            FaultEvent {
                at: Time::from_ns(4_000),
                kind: FaultKind::SwitchUp(2),
            },
            FaultEvent {
                at: Time::from_ns(6_000),
                kind: FaultKind::SwitchUp(3),
            },
        ],
        reroute_delay: Duration::from_ns(800),
        max_retries: 3,
        retry_backoff: Duration::from_us(1),
        ..TopoEdmConfig::default()
    });
    let tenants: Vec<TenantSpec> = (0..6)
        .map(|i| TenantSpec {
            node: i,
            mix: OpMix {
                ycsb: [YcsbWorkload::a(), YcsbWorkload::b(), YcsbWorkload::f()][i % 3],
                rmw_fraction: 0.25,
                local_fraction: 0.125,
            },
            mlp: 1 + i as u32 % 4,
            think_mean: Duration::from_ns(100 * (i as u64 % 2)),
            ops: 40,
        })
        .collect();
    for (transport, digest) in [
        (AppTransport::Edm, EDM_DIGEST),
        (AppTransport::CxlOe, CXL_OE_DIGEST),
    ] {
        let app = AppConfig {
            seed: 7,
            transport,
            ..AppConfig::new(tenants.clone(), vec![8, 10, 11])
        };
        let r = proto.simulate_app(&topo, &app);
        // Both transports lose ops to the leaf outage; EDM re-admits
        // partitioned payload legs on retry.
        assert!(r.ops_failed > 0 && r.ops_completed > r.ops_failed, "{r:?}");
        let got = report_digest(&r);
        assert_eq!(got, digest, "{transport:?}: {got:#x}; {r:?}");
    }
}

proptest! {
    /// Random leaf–spine fabrics under random tenant populations,
    /// memory placements, faults, and scheduler corners: the closed loop
    /// over EDM conserves its ops and stays within its windows.
    #[test]
    fn closed_loop_lockstep_on_edm(
        leaves in 2usize..4,
        spines in 1usize..3,
        npl in 2usize..5,
        uplinks in 1usize..3,
        tenant_specs in proptest::collection::vec((any::<u64>(), any::<u8>(), any::<u32>(), any::<u8>(), any::<u64>(), any::<u8>()), 1..6),
        mem_sel in any::<u64>(),
        fault_specs in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..3),
        x in 1usize..4,
        seed in 0u64..1_000,
        retries in 0u32..3,
    ) {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(leaves, spines, npl, uplinks));
        let proto = TopoEdm::new(TopoEdmConfig {
            max_active_per_pair: x,
            faults: decode_faults(&fault_specs, &topo),
            reroute_delay: Duration::from_us(2),
            max_retries: retries,
            retry_backoff: Duration::from_us(5),
            ..TopoEdmConfig::default()
        });
        let app = AppConfig {
            seed,
            ..AppConfig::new(
                decode_tenants(&tenant_specs, topo.nodes()),
                decode_memory(mem_sel, topo.nodes()),
            )
        };
        let r = run_checked(&proto, &topo, &app)?;
        if proto.config.faults.is_empty() {
            // A healthy fabric admits exactly one payload leg per remote
            // read/update and loses nothing.
            prop_assert_eq!(r.ops_failed, 0);
            prop_assert_eq!(
                r.fabric.admitted,
                r.lat_read.count() + r.lat_update.count()
            );
            prop_assert_eq!(r.fabric.admitted, r.fabric.delivered);
        }
    }

    /// The CXL-over-Ethernet baseline on the same random populations:
    /// the same invariants, and it never touches the scheduler.
    #[test]
    fn closed_loop_lockstep_on_cxl_oe(
        leaves in 2usize..4,
        spines in 1usize..3,
        npl in 2usize..5,
        tenant_specs in proptest::collection::vec((any::<u64>(), any::<u8>(), any::<u32>(), any::<u8>(), any::<u64>(), any::<u8>()), 1..6),
        mem_sel in any::<u64>(),
        fault_specs in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..3),
        seed in 0u64..1_000,
    ) {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(leaves, spines, npl, 2));
        let proto = TopoEdm::new(TopoEdmConfig {
            faults: decode_faults(&fault_specs, &topo),
            reroute_delay: Duration::from_us(2),
            ..TopoEdmConfig::default()
        });
        let app = AppConfig {
            seed,
            transport: AppTransport::CxlOe,
            ..AppConfig::new(
                decode_tenants(&tenant_specs, topo.nodes()),
                decode_memory(mem_sel, topo.nodes()),
            )
        };
        let r = run_checked(&proto, &topo, &app)?;
        prop_assert_eq!(r.fabric.admitted, 0, "CXL-oE must bypass the scheduler");
    }

    /// A closed-loop run is a pure function of its config: re-running
    /// the identical config reproduces the identical report.
    #[test]
    fn closed_loop_is_deterministic(
        tenant_specs in proptest::collection::vec((any::<u64>(), any::<u8>(), any::<u32>(), any::<u8>(), any::<u64>(), any::<u8>()), 1..4),
        mem_sel in any::<u64>(),
        seed in any::<u64>(),
        cxl in any::<bool>(),
    ) {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 2, 3, 2));
        let proto = TopoEdm::default();
        let app = AppConfig {
            seed,
            transport: if cxl {
                AppTransport::CxlOe
            } else {
                AppTransport::Edm
            },
            ..AppConfig::new(
                decode_tenants(&tenant_specs, topo.nodes()),
                decode_memory(mem_sel, topo.nodes()),
            )
        };
        let a = proto.simulate_app(&topo, &app);
        let b = proto.simulate_app(&topo, &app);
        prop_assert_eq!(a, b);
    }
}
