//! The parallel-DES lockstep suite: a sharded streamed run must be
//! *bit-identical* to the sequential streamed run — flow statuses and
//! completion times, reroute, retry and fault outcomes, IP interference
//! counters, scheduling rounds, slab peaks and the dispatched-event
//! tally — for every shard count, across random topologies, workloads,
//! fault and repair schedules, and configuration corners (X bounds,
//! retries, background IP). One counter is exempt: a replica
//! retires a flow when its delivery credit crosses a window barrier, a
//! beat after the sequential run, so the sharded active-flow high-water
//! mark may read higher — never lower.
//!
//! Also pins the degenerate cases: a single-switch fabric has no trunks
//! (zero lookahead), so a sharded request must fall back to one shard;
//! zero-latency trunks contract their endpoints into one shard for the
//! same reason.

use edm_core::sim::{Flow, FlowKind};
use edm_sim::{Duration, Time};
use edm_topo::{
    FaultEvent, FaultKind, FlowStatus, LeafSpine, LinkParams, ShardPlan, TopoEdm, TopoEdmConfig,
    TopoOutcome, TopoStreamStats, Topology,
};
use proptest::prelude::*;

/// Streams `flows`, sorted by arrival (sources are time-ordered),
/// through the sequential and the `shards`-way engine and requires
/// bit-identical results. Returns the sequential run's counters.
fn assert_lockstep(
    proto: &TopoEdm,
    topo: &Topology,
    flows: &[Flow],
    shards: usize,
) -> Result<TopoStreamStats, TestCaseError> {
    let mut flows = flows.to_vec();
    flows.sort_by_key(|f| f.arrival);
    let by_id = |mut v: Vec<TopoOutcome>| {
        v.sort_by_key(|o| o.flow.id);
        v
    };
    let mut seq = Vec::new();
    let s = proto.simulate_streamed(topo, flows.iter().copied(), |o| seq.push(o));
    let mut par = Vec::new();
    let source = flows.iter().copied();
    let mut p = proto.simulate_sharded_streamed(topo, source, |o| par.push(o), shards);
    let (seq, par) = (by_id(seq), by_id(par));

    prop_assert_eq!(s.admitted as usize, flows.len());
    prop_assert_eq!(s.delivered + s.failed, s.admitted, "a flow stalled");
    prop_assert!(
        seq.iter().map(|o| o.flow.id).eq(0..flows.len()),
        "each flow must be decided exactly once"
    );
    prop_assert_eq!(par.len(), seq.len());
    for (a, b) in seq.iter().zip(&par) {
        prop_assert_eq!(a.flow.id, b.flow.id);
        prop_assert_eq!(
            a.status,
            b.status,
            "{} shards diverged on flow {:?}",
            shards,
            a.flow
        );
    }
    prop_assert!(
        p.active_high_water >= s.active_high_water,
        "sharded active HWM {} below sequential {}",
        p.active_high_water,
        s.active_high_water
    );
    prop_assert!(p.active_high_water <= flows.len());
    p.active_high_water = s.active_high_water;
    prop_assert_eq!(p, s, "{} shards: counters diverged", shards);
    Ok(s)
}

/// Decodes flow specs against a node count (src ≠ dst guaranteed).
fn decode_flows(specs: &[(u64, u64, u32, u64, bool)], nodes: usize) -> Vec<Flow> {
    specs
        .iter()
        .enumerate()
        .map(|(id, &(s, d, size, at, is_write))| {
            let src = (s % nodes as u64) as usize;
            let mut dst = (d % nodes as u64) as usize;
            if dst == src {
                dst = (dst + 1) % nodes;
            }
            Flow {
                id,
                src,
                dst,
                size: 1 + size % 8192,
                arrival: Time::from_ns(at % 30_000),
                kind: if is_write {
                    FlowKind::Write
                } else {
                    FlowKind::Read
                },
            }
        })
        .collect()
}

/// Decodes fault specs against a topology (valid link/switch targets;
/// leaf switches are spared from SwitchDown so sources keep existing —
/// killing a leaf is exercised through its links instead).
fn decode_faults(specs: &[(u8, u64, u64)], topo: &Topology) -> Vec<FaultEvent> {
    let links = topo.links().len() as u64;
    let switches = topo.switch_count() as u64;
    specs
        .iter()
        .map(|&(kind, target, at)| FaultEvent {
            at: Time::from_ns(2_000 + at % 40_000),
            kind: match kind % 6 {
                0 => FaultKind::LinkDown((target % links) as u32),
                1 => FaultKind::SwitchDown((target % switches) as u32),
                2 => FaultKind::DegradeLink {
                    link: (target % links) as u32,
                    extra: Duration::from_ns(50 + at % 500),
                },
                // Repairs: revivals of elements that may or may not be
                // down (no-op when up), so schedules fuzz flap orderings
                // including up-before-down and double-up.
                3 => FaultKind::LinkUp((target % links) as u32),
                4 => FaultKind::SwitchUp((target % switches) as u32),
                _ => FaultKind::RestoreLink((target % links) as u32),
            },
        })
        .collect()
}

proptest! {
    /// Random leaf–spine fabrics under random workloads, fault and
    /// repair schedules, and config corners: every shard count in 1..=4
    /// is bit-identical to the sequential run.
    #[test]
    fn lockstep_on_leaf_spine(
        leaves in 2usize..5,
        spines in 1usize..3,
        npl in 2usize..5,
        uplinks in 1usize..3,
        flow_specs in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>(), any::<bool>()),
            1..24,
        ),
        fault_specs in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..4),
        shards in 1usize..=4,
        x in 1usize..4,
        ip_on in any::<bool>(),
        retries in 0u32..3,
    ) {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(leaves, spines, npl, uplinks));
        let flows = decode_flows(&flow_specs, topo.nodes());
        let proto = TopoEdm::new(TopoEdmConfig {
            max_active_per_pair: x,
            ip: if ip_on { 0.3 } else { 0.0 },
            faults: decode_faults(&fault_specs, &topo),
            reroute_delay: Duration::from_us(2),
            max_retries: retries,
            retry_backoff: Duration::from_us(5),
            ..TopoEdmConfig::default()
        });
        assert_lockstep(&proto, &topo, &flows, shards)?;
    }

    /// Random connected arbitrary-adjacency fabrics (a spanning tree
    /// plus extra trunks), including zero-propagation trunks that force
    /// shard contraction, under random workloads and faults.
    #[test]
    fn lockstep_on_arbitrary_adjacency(
        switches in 2usize..7,
        tree_seed in any::<u64>(),
        extra in proptest::collection::vec((0u32..7, 0u32..7), 0..5),
        trunk_prop_sel in 0u8..3,
        flow_specs in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>(), any::<bool>()),
            1..16,
        ),
        fault_specs in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 0..4),
        shards in 2usize..=4,
        retries in 0u32..3,
    ) {
        // Two nodes per switch so every switch is a leaf and every pair
        // of hosts can talk; a pseudo-random parent chain guarantees
        // connectivity.
        let attach: Vec<u32> = (0..switches as u32).flat_map(|s| [s, s]).collect();
        let mut trunks: Vec<(u32, u32)> = (1..switches as u32).map(|s| {
            let parent = (tree_seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(s as u64 * 7)
                % s as u64) as u32;
            (parent, s)
        }).collect();
        for &(a, b) in &extra {
            let (a, b) = (a % switches as u32, b % switches as u32);
            if a != b {
                trunks.push((a.min(b), a.max(b)));
            }
        }
        let trunk_prop_ns = [0u64, 2, 10][trunk_prop_sel as usize];
        let trunk = LinkParams {
            propagation: Duration::from_ns(trunk_prop_ns),
            ..LinkParams::default()
        };
        let topo = Topology::from_adjacency(
            switches,
            &attach,
            &trunks,
            LinkParams::default(),
            trunk,
        );
        if trunk_prop_ns == 0 {
            // Zero-latency trunks contract everything into one shard.
            prop_assert_eq!(
                ShardPlan::new(&topo, &TopoEdmConfig::default(), shards).shards(),
                1
            );
        }
        let flows = decode_flows(&flow_specs, topo.nodes());
        let proto = TopoEdm::new(TopoEdmConfig {
            faults: decode_faults(&fault_specs, &topo),
            reroute_delay: Duration::from_us(2),
            max_retries: retries,
            retry_backoff: Duration::from_us(5),
            ..TopoEdmConfig::default()
        });
        assert_lockstep(&proto, &topo, &flows, shards)?;
    }

    /// A single-switch topology has no trunks — zero lookahead — so a
    /// sharded request must refuse parallelism (degenerate to 1 shard)
    /// and still produce the sequential result.
    #[test]
    fn zero_lookahead_degenerates_to_sequential(
        nodes in 2usize..10,
        flow_specs in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>(), any::<bool>()),
            1..16,
        ),
        shards in 2usize..=4,
    ) {
        let topo = Topology::single_switch(nodes, LinkParams::default());
        prop_assert_eq!(
            ShardPlan::new(&topo, &TopoEdmConfig::default(), shards).shards(),
            1
        );
        let flows = decode_flows(&flow_specs, nodes);
        assert_lockstep(&TopoEdm::default(), &topo, &flows, shards)?;
    }
}

/// Fixed-workload lockstep at the benchmark scale: the 288-node
/// leaf–spine fabric under rack-aware load with a mid-run spine
/// kill-and-revival flap and background IP. Named so CI can invoke the
/// 2- and 4-shard checks directly.
fn lockstep_288(shards: usize) {
    let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 72, 36));
    let flows = edm_workloads::RackAwareWorkload {
        nodes: 288,
        racks: 4,
        link: edm_sim::Bandwidth::from_gbps(100),
        load: 0.6,
        size: 64,
        write_fraction: 0.5,
        local_fraction: 0.5,
        count: 400,
    }
    .generate(42);
    let span = flows.last().unwrap().arrival.saturating_since(Time::ZERO);
    let proto = TopoEdm::new(TopoEdmConfig {
        ip: 0.25,
        faults: vec![
            FaultEvent {
                at: Time::ZERO + span / 2,
                kind: FaultKind::SwitchDown(4),
            },
            FaultEvent {
                at: Time::ZERO + (span / 4) * 3,
                kind: FaultKind::SwitchUp(4),
            },
        ],
        reroute_delay: Duration::from_us(2),
        max_retries: 2,
        retry_backoff: Duration::from_us(5),
        ..TopoEdmConfig::default()
    });
    let seq = assert_lockstep(&proto, &topo, &flows, shards).unwrap();
    assert!(seq.reroutes > 0, "the spine kill must land mid-run");
}

#[test]
fn lockstep_at_2_shards_288_nodes() {
    lockstep_288(2);
}

#[test]
fn lockstep_at_4_shards_288_nodes() {
    lockstep_288(4);
}

/// A chain of six switches, two hosts each, with every neighbour pair
/// joined by two parallel trunks: end-to-end routes cross all six
/// switches, twice what a leaf–spine path can, under a trunk failure
/// (same-length reroutes onto the parallel trunk, zombie chunks on the
/// dead one) and a mid-chain switch outage with revival (retries, then
/// re-admission). Sequential and 2-shard streamed runs must agree, and
/// every flow's outcome in the slice run must be the one this scenario
/// has always produced: `CHAIN_DIGEST` folds each outcome's status and
/// time, the counters and the event tally. Asking for a notification's
/// round when its ports free, not when it arrives, moved only the tally
/// (3029 → 2692 events); folded before it, the digest stayed
/// `0x4da4afa5059b6030`. Keeping a pair's offers past X in that pair's
/// own FIFO, announced on its own completions in offer order, moved the
/// outcomes (`0x909ff5b22497c430` before the tally) and the tally
/// (2692 → 2694 events).
#[test]
fn chain_routes_longer_than_a_leaf_spine_path() {
    const CHAIN_DIGEST: u64 = 0x579d_33b4_2df4_3f42;
    let attach: Vec<u32> = (0..6u32).flat_map(|s| [s, s]).collect();
    let trunks: Vec<(u32, u32)> = (0..5u32).flat_map(|s| [(s, s + 1), (s, s + 1)]).collect();
    let topo = Topology::from_adjacency(
        6,
        &attach,
        &trunks,
        LinkParams::default(),
        LinkParams::default(),
    );
    assert_eq!(topo.route(0, 10, 0).unwrap().hops.len(), 6);
    let flows: Vec<Flow> = (0..48usize)
        .map(|i| Flow {
            id: i,
            src: i % 4,
            dst: 11 - (i * 5) % 6,
            size: [64, 700, 4096][i % 3],
            arrival: Time::from_ns(150 * i as u64),
            kind: if i % 4 == 3 {
                FlowKind::Read
            } else {
                FlowKind::Write
            },
        })
        .collect();
    // Link ids: 12 access links, then the trunks in `trunks` order.
    let proto = TopoEdm::new(TopoEdmConfig {
        faults: vec![
            FaultEvent {
                at: Time::from_ns(1_500),
                kind: FaultKind::LinkDown(12 + 4),
            },
            FaultEvent {
                at: Time::from_ns(3_000),
                kind: FaultKind::SwitchDown(3),
            },
            FaultEvent {
                at: Time::from_ns(9_000),
                kind: FaultKind::SwitchUp(3),
            },
        ],
        reroute_delay: Duration::from_ns(800),
        max_retries: 3,
        retry_backoff: Duration::from_us(2),
        ..TopoEdmConfig::default()
    });
    assert_eq!(ShardPlan::new(&topo, &proto.config, 2).shards(), 2);
    assert_lockstep(&proto, &topo, &flows, 2).unwrap();
    let seq = proto.simulate(&topo, &flows);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
    for o in &seq.outcomes {
        let (tag, t) = match o.status {
            FlowStatus::Delivered(t) => (1, t),
            FlowStatus::Failed(t) => (2, t),
        };
        mix(o.flow.id as u64);
        mix(tag);
        mix(t.as_ps());
    }
    for v in [
        seq.stats.reroutes,
        seq.stats.retried,
        seq.stats.readmitted,
        seq.stats.events,
    ] {
        mix(v);
    }
    assert!(
        seq.stats.reroutes > 0 && seq.stats.readmitted > 0,
        "{seq:?}"
    );
    assert_eq!(
        h, CHAIN_DIGEST,
        "{:#x}; {} delivered",
        h, seq.stats.delivered
    );
}
