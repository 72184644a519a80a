//! Lockstep pins for the streaming flow lifecycle: pulling arrivals
//! lazily from a source, sinking outcomes as they are decided, and
//! retiring completed flows mid-run must not perturb a single result.
//! A fault-free streamed run is *bit-identical* to materializing the
//! same arrivals and running the `Vec` path — per-flow statuses and
//! completion times, IP counters, and the dispatched-event tally — and
//! the sharded streamed run is bit-identical to the sequential streamed
//! run for every shard count.

use edm_core::sim::{Flow, FlowKind};
use edm_sim::{Duration, Time};
use edm_topo::{
    FaultEvent, FaultKind, FlowStatus, IpTraffic, LeafSpine, TopoEdm, TopoEdmConfig, Topology,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Decodes flow specs against a node count (src ≠ dst guaranteed) and
/// sorts them by arrival — streaming sources emit time-ordered flows.
fn decode_sorted_flows(specs: &[(u64, u64, u32, u64, bool)], nodes: usize) -> Vec<Flow> {
    let mut flows: Vec<Flow> = specs
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
        .collect();
    flows.sort_by_key(|f| f.arrival);
    flows
}

proptest! {
    /// Random leaf–spine fabrics under random time-ordered workloads and
    /// config corners (X bounds, background IP): the streamed
    /// run matches the materialized run flow-for-flow, and the sharded
    /// streamed run matches the sequential streamed run.
    #[test]
    fn streamed_lockstep_with_materialized(
        leaves in 2usize..5,
        spines in 1usize..3,
        npl in 2usize..5,
        uplinks in 1usize..3,
        flow_specs in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>(), any::<bool>()),
            1..24,
        ),
        shards in 1usize..=4,
        x in 1usize..4,
        ip_on in any::<bool>(),
    ) {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(leaves, spines, npl, uplinks));
        let flows = decode_sorted_flows(&flow_specs, topo.nodes());
        let proto = TopoEdm::new(TopoEdmConfig {
            max_active_per_pair: x,
            ip: if ip_on { IpTraffic::load(0.3) } else { IpTraffic::default() },
            ..TopoEdmConfig::default()
        });

        let reference = proto.simulate(&topo, &flows);
        let by_id: HashMap<usize, FlowStatus> = reference
            .outcomes
            .iter()
            .map(|o| (o.flow.id, o.status))
            .collect();

        let mut streamed = Vec::new();
        let stats = proto.simulate_streamed(&topo, flows.iter().copied(), |o| streamed.push(o));
        prop_assert_eq!(stats.admitted as usize, flows.len());
        prop_assert_eq!(stats.delivered + stats.failed, stats.admitted);
        prop_assert_eq!(stats.events, reference.stats.events, "event tally diverged");
        prop_assert_eq!(
            (stats.rounds, stats.empty_rounds, stats.examined),
            (reference.stats.rounds, reference.stats.empty_rounds, reference.stats.examined),
            "scheduling-round tally diverged"
        );
        prop_assert_eq!(stats.ip_frames, reference.stats.ip_frames);
        prop_assert_eq!(stats.ip_delayed, reference.stats.ip_delayed);
        prop_assert!(stats.active_high_water <= flows.len());
        prop_assert_eq!(streamed.len(), reference.outcomes.len());
        for o in &streamed {
            prop_assert_eq!(by_id[&o.flow.id], o.status, "streamed diverged on {:?}", o.flow);
        }

        let mut par = Vec::new();
        let pstats = proto.simulate_sharded_streamed(
            &topo,
            flows.iter().copied(),
            |o| par.push(o),
            shards,
        );
        prop_assert_eq!(pstats.admitted, stats.admitted);
        prop_assert_eq!(pstats.delivered, stats.delivered);
        prop_assert_eq!(pstats.failed, stats.failed);
        prop_assert_eq!(pstats.events, stats.events, "sharded event tally diverged");
        prop_assert_eq!(
            (pstats.rounds, pstats.empty_rounds, pstats.examined),
            (stats.rounds, stats.empty_rounds, stats.examined),
            "sharded scheduling-round tally diverged"
        );
        prop_assert_eq!(pstats.ip_frames, stats.ip_frames);
        prop_assert_eq!(pstats.ip_delayed, stats.ip_delayed);
        // Per-switch scheduler behavior is bit-identical, so the summed
        // slab peaks are too.
        prop_assert_eq!(pstats.msg_slots_high_water, stats.msg_slots_high_water);
        // Credits apply at window barriers, so a sharded replica may
        // momentarily hold a few extra not-yet-retired entries — never
        // fewer, and never more than the total admitted.
        prop_assert!(pstats.active_high_water >= stats.active_high_water);
        prop_assert!(pstats.active_high_water <= flows.len());
        prop_assert_eq!(par.len(), reference.outcomes.len());
        for o in &par {
            prop_assert_eq!(by_id[&o.flow.id], o.status, "sharded streamed diverged on {:?}", o.flow);
        }
    }

    /// Streamed runs under random fault *and repair* schedules with
    /// bounded retries: every admitted flow reaches a terminal state,
    /// retirement keeps running (the entry high-water can stay below the
    /// admitted count), and the sharded streamed run is bit-identical to
    /// the sequential streamed run at every shard count.
    #[test]
    fn streamed_fault_repair_lockstep_across_shards(
        leaves in 2usize..5,
        spines in 1usize..3,
        npl in 2usize..5,
        uplinks in 1usize..3,
        flow_specs in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>(), any::<bool>()),
            1..24,
        ),
        fault_specs in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..4),
        shards in 1usize..=4,
        retries in 0u32..3,
    ) {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(leaves, spines, npl, uplinks));
        let flows = decode_sorted_flows(&flow_specs, topo.nodes());
        let links = topo.links().len() as u64;
        let switches = topo.switch_count() as u64;
        let faults = fault_specs.iter().map(|&(kind, target, at)| FaultEvent {
            at: Time::from_ns(2_000 + at % 40_000),
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
        }).collect::<Vec<_>>();
        let proto = TopoEdm::new(TopoEdmConfig {
            faults,
            reroute_delay: Duration::from_us(2),
            max_retries: retries,
            retry_backoff: Duration::from_us(5),
            ..TopoEdmConfig::default()
        });

        let mut seq = Vec::new();
        let stats = proto.simulate_streamed(&topo, flows.iter().copied(), |o| seq.push(o));
        prop_assert_eq!(stats.admitted as usize, flows.len());
        prop_assert_eq!(
            stats.delivered + stats.failed,
            stats.admitted,
            "every flow must reach a terminal state under faults"
        );
        prop_assert!(stats.active_high_water <= flows.len());
        let by_id: HashMap<usize, FlowStatus> =
            seq.iter().map(|o| (o.flow.id, o.status)).collect();
        prop_assert_eq!(by_id.len(), flows.len(), "each flow decided exactly once");

        let mut par = Vec::new();
        let pstats = proto.simulate_sharded_streamed(
            &topo,
            flows.iter().copied(),
            |o| par.push(o),
            shards,
        );
        prop_assert_eq!(pstats.admitted, stats.admitted);
        prop_assert_eq!(pstats.delivered, stats.delivered);
        prop_assert_eq!(pstats.failed, stats.failed);
        prop_assert_eq!(pstats.retried, stats.retried, "retry count diverged");
        prop_assert_eq!(pstats.readmitted, stats.readmitted, "re-admission count diverged");
        prop_assert_eq!(pstats.events, stats.events, "sharded event tally diverged");
        prop_assert_eq!(
            (pstats.rounds, pstats.empty_rounds, pstats.examined),
            (stats.rounds, stats.empty_rounds, stats.examined),
            "sharded scheduling-round tally diverged"
        );
        prop_assert_eq!(pstats.ip_frames, stats.ip_frames);
        prop_assert_eq!(pstats.ip_delayed, stats.ip_delayed);
        prop_assert!(pstats.active_high_water >= stats.active_high_water);
        prop_assert_eq!(par.len(), seq.len());
        for o in &par {
            prop_assert_eq!(
                by_id[&o.flow.id], o.status,
                "sharded streamed fault run diverged on {:?}", o.flow
            );
        }
    }
}

/// The poll protocol schedules a round only when a grant is possible,
/// so rounds that issue nothing stay a small minority on the headline
/// scenario, reduced: the 288-node leaf–spine under a 64 B rack-aware
/// stream. Polling at every busy expiry and after every completed
/// message ran 1.8 empty rounds per useful one here; polling at each
/// notification's own instant, even with its ports mid-chunk, left
/// 14 882 of 56 675 rounds empty; asking for the instant its ports free
/// leaves 1 071 of 42 864 (2.5 %). This keeps either from silently
/// coming back.
///
/// And a round looks only at the destinations that can have changed:
/// when every round re-examined every free destination the 56 675
/// rounds handed 226 533 destinations to PIM (4.00 per round); with
/// the remembered per-destination instants it is 51 807 (0.91), and
/// 51 577 over the 42 864 rounds left (1.20). The full-size stream
/// (400k flows, 1 142 871 rounds) went from 4 912 653 (4.30) to
/// 1 043 664 (0.91), then to 1 039 381 over 854 652 rounds (1.22), of
/// which 23 154 are empty (311 373 before).
#[test]
fn empty_rounds_stay_a_minority_on_the_64b_stream() {
    let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 72, 36));
    let wl = edm_workloads::RackAwareWorkload {
        nodes: 288,
        racks: 4,
        link: edm_sim::Bandwidth::from_gbps(100),
        load: 0.6,
        size: 64,
        write_fraction: 0.5,
        local_fraction: 0.4,
        count: 20_000,
    };
    let stats = TopoEdm::default().simulate_streamed(&topo, wl.source(42), |_| {});
    assert_eq!(stats.delivered, 20_000);
    assert!(stats.rounds > 0);
    assert!(
        stats.empty_rounds <= stats.rounds / 20,
        "{} of {} scheduling rounds issued no grant",
        stats.empty_rounds,
        stats.rounds
    );
    assert!(
        2 * stats.examined <= 3 * stats.rounds,
        "{} destinations handed to PIM in {} rounds",
        stats.examined,
        stats.rounds
    );
}
