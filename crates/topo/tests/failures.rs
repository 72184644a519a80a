//! Failure injection at scale: spine/link kills mid-run must reroute or
//! fail affected flows deterministically while leaving disjoint flows'
//! latencies bit-identical to a fault-free run.

use edm_core::sim::{Flow, FlowKind};
use edm_sim::{Duration, Time};
use edm_topo::{
    FaultEvent, FaultKind, FlowStatus, LeafSpine, LinkParams, TopoEdm, TopoEdmConfig, TopoOutcome,
    TopoStreamStats, Topology,
};
use edm_workloads::SyntheticWorkload;

fn write_flow(id: usize, src: usize, dst: usize, size: u32, at_ns: u64) -> Flow {
    Flow {
        id,
        src,
        dst,
        size,
        arrival: Time::from_ns(at_ns),
        kind: FlowKind::Write,
    }
}

/// Streams the time-ordered `flows` through the sequential engine and
/// the 4-shard engine, requires identical per-flow outcomes, and returns
/// both runs' counters.
fn streamed_4_shard_lockstep(
    cfg: &TopoEdmConfig,
    topo: &Topology,
    flows: &[Flow],
) -> (TopoStreamStats, TopoStreamStats) {
    let proto = TopoEdm::new(cfg.clone());
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    let s = proto.simulate_streamed(topo, flows.iter().copied(), |o| seq.push(o));
    let p = proto.simulate_sharded_streamed(topo, flows.iter().copied(), |o| par.push(o), 4);
    for v in [&mut seq, &mut par] {
        v.sort_by_key(|o: &TopoOutcome| o.flow.id);
    }
    assert_eq!(seq.len(), par.len());
    for (x, y) in seq.iter().zip(&par) {
        assert_eq!(x.flow.id, y.flow.id);
        assert_eq!(x.status, y.status, "sharded run must match sequential");
    }
    (s, p)
}

/// 4 leaves × 4 hosts, 2 spines (switches 4 and 5), one uplink each.
/// ECMP salt is the flow id: even ids ride spine 4, odd ids spine 5.
fn fabric() -> Topology {
    Topology::leaf_spine(LeafSpine::symmetric(4, 2, 4, 1))
}

/// The three probes: A crosses spine 4 (leaves 0→1), B crosses spine 5
/// (leaves 2→3), C stays inside leaf 3 — A is disjoint from B and C in
/// every switch and link it touches.
fn probes() -> Vec<Flow> {
    vec![
        write_flow(0, 0, 4, 2_000_000, 0),  // A: via spine 4, long-lived
        write_flow(1, 8, 12, 2_000_000, 0), // B: via spine 5, long-lived
        write_flow(3, 13, 14, 4096, 5_000), // C: same-leaf mouse
    ]
}

#[test]
fn spine_kill_reroutes_affected_and_leaves_others_bit_identical() {
    let topo = fabric();
    let flows = probes();
    let base = TopoEdm::default().simulate(&topo, &flows);
    assert_eq!(base.stats.delivered, 3);

    let cfg = TopoEdmConfig {
        faults: vec![FaultEvent {
            at: Time::from_us(20),
            kind: FaultKind::SwitchDown(4),
        }],
        ..TopoEdmConfig::default()
    };
    let hit = TopoEdm::new(cfg).simulate(&topo, &flows);
    assert_eq!(
        hit.stats.delivered, 3,
        "spine 5 remains: everything reroutes"
    );
    assert_eq!(hit.stats.reroutes, 1, "only flow A crossed spine 4");

    // A is mid-flight at the kill: it must finish later than fault-free.
    let (base_a, hit_a) = (
        base.outcomes[0].mct().unwrap(),
        hit.outcomes[0].mct().unwrap(),
    );
    assert!(
        hit_a > base_a,
        "rerouted flow must pay for the failure: {hit_a} vs {base_a}"
    );

    // B and C share no switch or link with A: their completion times are
    // bit-identical to the fault-free run.
    for i in [1, 2] {
        assert_eq!(
            base.outcomes[i].status, hit.outcomes[i].status,
            "disjoint flow {i} must be unaffected"
        );
    }
}

#[test]
fn fabric_partition_fails_deterministically() {
    let topo = fabric();
    let flows = probes();
    let fault_at = Time::from_us(20);
    let cfg = TopoEdmConfig {
        faults: vec![
            FaultEvent {
                at: fault_at,
                kind: FaultKind::SwitchDown(4),
            },
            FaultEvent {
                at: fault_at,
                kind: FaultKind::SwitchDown(5),
            },
        ],
        ..TopoEdmConfig::default()
    };
    let base = TopoEdm::default().simulate(&topo, &flows);
    let hit = TopoEdm::new(cfg.clone()).simulate(&topo, &flows);
    // Both cross-leaf flows are cut mid-flight; the exact failure instant
    // is the fault plus the detection delay.
    let expect_fail = FlowStatus::Failed(fault_at + cfg.reroute_delay);
    assert_eq!(hit.outcomes[0].status, expect_fail);
    assert_eq!(hit.outcomes[1].status, expect_fail);
    // The same-leaf mouse never touches a spine.
    assert_eq!(hit.outcomes[2].status, base.outcomes[2].status);
    assert_eq!(hit.stats.reroutes, 0);
}

#[test]
fn trunk_link_down_reroutes_over_the_parallel_trunk() {
    // Two parallel uplinks per spine: killing one trunk leaves a
    // same-spine alternative.
    let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 1, 4, 2));
    let flow = write_flow(0, 0, 4, 2_000_000, 0);
    let base = TopoEdm::default().simulate(&topo, &[flow]);
    let used = topo.route(0, 4, 0).unwrap().hops[0].out_link;
    let cfg = TopoEdmConfig {
        faults: vec![FaultEvent {
            at: Time::from_us(20),
            kind: FaultKind::LinkDown(used),
        }],
        ..TopoEdmConfig::default()
    };
    let hit = TopoEdm::new(cfg).simulate(&topo, &[flow]);
    assert_eq!(hit.stats.delivered, 1);
    assert_eq!(hit.stats.reroutes, 1);
    assert!(hit.outcomes[0].mct().unwrap() > base.outcomes[0].mct().unwrap());
}

#[test]
fn healed_partition_readmits_timed_out_flows() {
    // Both spines die at 20µs, severing every cross-leaf flow. With
    // retries enabled the partitioned flows back off exponentially
    // (reroute probe at 30µs, retries at 50µs, 90µs, 170µs); spine 5
    // comes back at 120µs, so the third retry finds a route and the
    // flows deliver instead of failing.
    let topo = fabric();
    let flows = probes();
    let cfg = TopoEdmConfig {
        faults: vec![
            FaultEvent {
                at: Time::from_us(20),
                kind: FaultKind::SwitchDown(4),
            },
            FaultEvent {
                at: Time::from_us(20),
                kind: FaultKind::SwitchDown(5),
            },
            FaultEvent {
                at: Time::from_us(120),
                kind: FaultKind::SwitchUp(5),
            },
        ],
        max_retries: 8,
        retry_backoff: Duration::from_us(20),
        ..TopoEdmConfig::default()
    };
    let a = TopoEdm::new(cfg.clone()).simulate(&topo, &flows);
    assert_eq!(
        a.stats.delivered, 3,
        "the healed partition re-admits A and B"
    );
    assert_eq!(a.stats.readmitted, 2, "both cross-leaf flows re-enter");
    assert_eq!(
        a.stats.retried, 6,
        "three backoff probes each before the heal"
    );

    // Re-admission is deterministic: bit-identical outcomes on a second
    // run, and streamed under the sharded engine.
    let b = TopoEdm::new(cfg.clone()).simulate(&topo, &flows);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.status, y.status, "re-admission must be deterministic");
    }
    let (seq, par) = streamed_4_shard_lockstep(&cfg, &topo, &flows);
    assert_eq!((seq.readmitted, seq.retried), (2, 6));
    assert_eq!((par.readmitted, par.retried), (seq.readmitted, seq.retried));

    // If the fabric never heals, the same retry budget runs dry and the
    // flows still fail deterministically.
    let dead = TopoEdmConfig {
        faults: cfg.faults[..2].to_vec(),
        ..cfg
    };
    let d = TopoEdm::new(dead).simulate(&topo, &flows);
    assert_eq!(d.stats.delivered, 1, "only the same-leaf mouse survives");
    assert_eq!(d.stats.readmitted, 0);
    assert!(matches!(d.outcomes[0].status, FlowStatus::Failed(_)));
}

/// Two hosts on switches 0 and 1: a direct trunk plus a two-hop detour
/// through switch 2. Killing the direct trunk forces the long way round;
/// reviving it must migrate the flow back.
fn detour_fabric() -> Topology {
    Topology::from_adjacency(
        3,
        &[0, 1],
        &[(0, 1), (0, 2), (2, 1)],
        LinkParams::default(),
        LinkParams::default(),
    )
}

#[test]
fn repaired_trunk_pulls_detoured_flows_back_onto_the_short_path() {
    let topo = detour_fabric();
    let direct = topo.route(0, 1, 0).unwrap().hops[0].out_link;
    assert_eq!(topo.route(0, 1, 0).unwrap().hops.len(), 2);
    let flow = write_flow(0, 0, 1, 2_000_000, 0);
    // Make the detour visibly expensive: both of its trunks carry 50µs
    // of accumulated degradation, so every chunk settling over it pays
    // a tax the repaired direct trunk does not.
    let slow_detour = |link| FaultEvent {
        at: Time::from_ns(1),
        kind: FaultKind::DegradeLink {
            link,
            extra: Duration::from_us(50),
        },
    };
    let down = FaultEvent {
        at: Time::from_us(20),
        kind: FaultKind::LinkDown(direct),
    };
    let up = FaultEvent {
        at: Time::from_us(60),
        kind: FaultKind::LinkUp(direct),
    };
    let flapped = TopoEdm::new(TopoEdmConfig {
        // The duplicate LinkUp is a no-op: repairs are idempotent.
        faults: vec![slow_detour(3), slow_detour(4), down, up, up],
        ..TopoEdmConfig::default()
    })
    .simulate(&topo, &[flow]);
    assert_eq!(flapped.stats.delivered, 1);
    assert_eq!(
        flapped.stats.reroutes, 2,
        "one bump onto the detour, one back onto the repaired trunk"
    );

    let dead = TopoEdm::new(TopoEdmConfig {
        faults: vec![slow_detour(3), slow_detour(4), down],
        ..TopoEdmConfig::default()
    })
    .simulate(&topo, &[flow]);
    assert_eq!(dead.stats.delivered, 1);
    assert_eq!(dead.stats.reroutes, 1);
    assert!(
        flapped.outcomes[0].mct().unwrap() < dead.outcomes[0].mct().unwrap(),
        "migrating back onto the short path must beat the detour"
    );
}

#[test]
fn equal_length_revival_does_not_churn_detoured_flows() {
    // Spine 4 dies and comes back; flow A detours to spine 5, an
    // equal-length path, so the revival must not bump it again — the
    // run is bit-identical to one where the spine stays dead.
    let topo = fabric();
    let flows = probes();
    let kill = FaultEvent {
        at: Time::from_us(20),
        kind: FaultKind::SwitchDown(4),
    };
    let revive = FaultEvent {
        at: Time::from_us(60),
        kind: FaultKind::SwitchUp(4),
    };
    let flapped = TopoEdm::new(TopoEdmConfig {
        faults: vec![kill, revive],
        ..TopoEdmConfig::default()
    })
    .simulate(&topo, &flows);
    let dead = TopoEdm::new(TopoEdmConfig {
        faults: vec![kill],
        ..TopoEdmConfig::default()
    })
    .simulate(&topo, &flows);
    assert_eq!(
        flapped.stats.reroutes, 1,
        "no migration between equal paths"
    );
    for (x, y) in flapped.outcomes.iter().zip(&dead.outcomes) {
        assert_eq!(x.status, y.status);
    }
}

#[test]
fn restored_link_sheds_accumulated_degradation() {
    // The probe flow arrives after the restore: the credit-clocked
    // pipeline never recovers a mid-flight latency bubble, so a flow
    // already streaming cannot observe the retrain — one admitted
    // afterwards rides the clean trunk while the degraded-only run
    // still pays the tax.
    let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 1, 4, 1));
    let trunk = topo.route(0, 4, 0).unwrap().hops[0].out_link;
    let flow = write_flow(0, 0, 4, 200_000, 50_000);
    let degrade = FaultEvent {
        at: Time::from_us(10),
        kind: FaultKind::DegradeLink {
            link: trunk,
            extra: Duration::from_us(2),
        },
    };
    let restore = FaultEvent {
        at: Time::from_us(40),
        kind: FaultKind::RestoreLink(trunk),
    };
    let healed = TopoEdm::new(TopoEdmConfig {
        faults: vec![degrade, restore],
        ..TopoEdmConfig::default()
    })
    .simulate(&topo, &[flow]);
    let sick = TopoEdm::new(TopoEdmConfig {
        faults: vec![degrade],
        ..TopoEdmConfig::default()
    })
    .simulate(&topo, &[flow]);
    assert_eq!(healed.stats.delivered, 1);
    assert_eq!(sick.stats.delivered, 1);
    assert!(
        healed.outcomes[0].mct().unwrap() < sick.outcomes[0].mct().unwrap(),
        "the retrained link stops paying the degradation tax"
    );
}

#[test]
fn spine_kill_at_scale_is_deterministic_and_total() {
    // 72 nodes across 4 leaves, 2 spines — a loaded fabric with hundreds
    // of concurrent flows when spine 4 dies mid-run. Every flow must
    // reach a terminal state (spine 5 absorbs everything reroutable) and
    // the whole run must be bit-reproducible.
    let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 18, 9));
    let flows = SyntheticWorkload {
        nodes: 72,
        link: edm_sim::Bandwidth::from_gbps(100),
        load: 0.5,
        size: 1024,
        write_fraction: 0.5,
        count: 600,
    }
    .generate(42);
    let span = flows.last().unwrap().arrival;
    let cfg = TopoEdmConfig {
        faults: vec![FaultEvent {
            at: Time::ZERO + span.saturating_since(Time::ZERO) / 3,
            kind: FaultKind::SwitchDown(4),
        }],
        reroute_delay: Duration::from_us(2),
        ..TopoEdmConfig::default()
    };
    let a = TopoEdm::new(cfg.clone()).simulate(&topo, &flows);
    assert_eq!(
        a.stats.delivered, 600,
        "one live spine still connects all leaves"
    );
    assert!(a.stats.reroutes > 0, "the kill must land mid-run");
    let b = TopoEdm::new(cfg.clone()).simulate(&topo, &flows);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.status, y.status, "simulation must be deterministic");
    }
    assert_eq!(a.stats.reroutes, b.stats.reroutes);
    // The sharded engine survives the same mid-run spine kill, streamed,
    // with bit-identical outcomes.
    let (seq, par) = streamed_4_shard_lockstep(&cfg, &topo, &flows);
    assert!(seq.reroutes > 0, "the kill must land mid-run");
    assert_eq!(par.reroutes, seq.reroutes);
}
