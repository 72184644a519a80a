//! Fastpass — a centralized *server-based* flow scheduler (§4.3
//! baseline vi).
//!
//! Fastpass also schedules every packet centrally, but the arbiter is a
//! commodity server hanging off one switch port. The paper grants it an
//! idealized zero-time matching algorithm and a 100 Gb/s NIC — and shows
//! that the NIC is precisely the bottleneck: every demand update and
//! every allocation must cross that single link, whose capacity is >100×
//! less than the cluster's aggregate. At high load and small messages the
//! control channel saturates and scheduling latency explodes, which is
//! the Figure 8a blow-up.
//!
//! Faithful to the original Fastpass design, control traffic is
//! *aggregated per endpoint*: a host folds all its pending demands into
//! one update packet (at most one in flight), and the arbiter folds all
//! of a sender's allocations into one grant packet. Even with this
//! batching, the single NIC cannot keep up with a 144-node cluster's
//! small-message demand.
//!
//! The matching core is the same priority matching as EDM's, driven the
//! same way: one [`SwitchDomain`] (with zero-cost clocking) takes each
//! announced flow as an offer, keeps offers past the pair's X bound
//! waiting in that pair's own FIFO, hands out grants from its rounds and
//! counts chunk deliveries to completion. Only the control message path
//! differs: EDM's rides the switch's own PHY, Fastpass's rides a
//! serialized server link.

use edm_core::sim::{
    ClusterConfig, DomainOffer, FabricProtocol, Flow, FlowKind, FlowOutcome, SimResult,
    SwitchDomain, MAX_ACTIVE_PER_PAIR, PROP_DELAY,
};
use edm_sched::{Policy, SchedulerConfig};
use edm_sim::{Bandwidth, Duration, Engine, EventQueue, Time, World};
use std::collections::VecDeque;

/// Arbiter server NIC bandwidth (the paper grants 100 Gb/s).
const SERVER_LINK: Bandwidth = Bandwidth::from_gbps(100);
/// Wire size of one aggregated control packet (minimum Ethernet frame +
/// preamble + IFG).
const CONTROL_BYTES: u64 = 84;
/// Demands/allocations one control packet can carry: a 64 B frame
/// payload of 46 B fits ~11 four-byte allocation entries; 8 is a round
/// batch.
const BATCH_LIMIT: usize = 8;
/// Data chunk per allocation.
const CHUNK_BYTES: u32 = 256;

/// The Fastpass protocol instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastpassProtocol;

#[derive(Debug, Clone, Copy)]
enum FEv {
    /// A flow arrives at its sender.
    FlowArrive { flow: usize },
    /// Host `src` emits its (aggregated) demand-update packet.
    NotifySend { src: usize },
    /// The demand update from `src` reaches the arbiter.
    NotifyArrive { src: usize, count: usize },
    /// Scheduler poll (matching itself is instantaneous).
    Poll,
    /// The arbiter emits the aggregated allocation packet for `src`.
    GrantSend { src: usize },
    /// The allocation packet reaches sender `src`.
    GrantDeliver { src: usize, count: usize },
    /// A data chunk of the granted message in domain slot `slot` lands
    /// at the destination.
    ChunkArrive { slot: u32, bytes: u32 },
}

/// One granted chunk: its domain message slot and size.
#[derive(Debug, Clone, Copy)]
struct Alloc {
    slot: u32,
    chunk: u32,
}

struct FastpassWorld {
    cluster: ClusterConfig,
    flows: Vec<(usize, usize, u32)>,
    /// The arbiter's matching, poll protocol and per-pair FIFOs.
    domain: SwitchDomain,
    completed: Vec<Option<Time>>,
    /// Arbiter NIC serialization (the bottleneck).
    server_rx_free_at: Time,
    server_tx_free_at: Time,
    /// Per-host pending demand announcements (folded into one packet).
    notify_pending: Vec<VecDeque<usize>>,
    notify_inflight: Vec<bool>,
    /// Per-sender pending allocations (folded into one packet).
    grant_pending: Vec<VecDeque<Alloc>>,
    grant_inflight: Vec<bool>,
    /// Sender uplink serialization for data.
    src_free_at: Vec<Time>,
}

impl FastpassWorld {
    fn control_time(&self) -> Duration {
        SERVER_LINK.tx_time_bytes(CONTROL_BYTES)
    }

    fn half_hop(&self) -> Duration {
        self.cluster.pipeline_latency / 2 + PROP_DELAY
    }
}

/// Queues the `Poll` event the domain asked for, if it asked.
fn schedule_poll(q: &mut EventQueue<FEv>, at: Option<Time>) {
    if let Some(t) = at {
        q.schedule(t, FEv::Poll);
    }
}

impl World for FastpassWorld {
    type Event = FEv;

    fn handle(&mut self, now: Time, ev: FEv, q: &mut EventQueue<FEv>) {
        match ev {
            FEv::FlowArrive { flow } => {
                let src = self.flows[flow].0;
                self.notify_pending[src].push_back(flow);
                if !self.notify_inflight[src] {
                    self.notify_inflight[src] = true;
                    q.schedule(now, FEv::NotifySend { src });
                }
            }
            FEv::NotifySend { src } => {
                // One aggregated demand packet serializes on the arbiter's
                // RX link; it announces up to batch_limit pending flows.
                let count = self.notify_pending[src].len().min(BATCH_LIMIT);
                let start = now.max(self.server_rx_free_at);
                let done = start + self.control_time();
                self.server_rx_free_at = done;
                q.schedule(done + self.half_hop(), FEv::NotifyArrive { src, count });
            }
            FEv::NotifyArrive { src, count } => {
                for _ in 0..count {
                    if let Some(flow) = self.notify_pending[src].pop_front() {
                        let (s, d, bytes) = self.flows[flow];
                        let offer = DomainOffer {
                            src: s as u16,
                            dst: d as u16,
                            bytes,
                            // The arbiter matches X flows of one
                            // sender–receiver pair at once, as for EDM.
                            limit: MAX_ACTIVE_PER_PAIR,
                            token: flow as u64,
                        };
                        schedule_poll(q, self.domain.offer(now, offer));
                    }
                }
                if self.notify_pending[src].is_empty() {
                    self.notify_inflight[src] = false;
                } else {
                    q.schedule(now, FEv::NotifySend { src });
                }
            }
            FEv::Poll => {
                // A superseded wake-up runs no round.
                let Some(round) = self.domain.poll(now) else {
                    return;
                };
                for g in round.grants {
                    let src = g.src as usize;
                    self.grant_pending[src].push_back(Alloc {
                        slot: g.slot,
                        chunk: g.chunk_bytes,
                    });
                    if !self.grant_inflight[src] {
                        self.grant_inflight[src] = true;
                        q.schedule(now, FEv::GrantSend { src });
                    }
                }
                schedule_poll(q, round.next_poll);
            }
            FEv::GrantSend { src } => {
                let count = self.grant_pending[src].len().min(BATCH_LIMIT);
                let start = now.max(self.server_tx_free_at);
                let done = start + self.control_time();
                self.server_tx_free_at = done;
                q.schedule(done + self.half_hop(), FEv::GrantDeliver { src, count });
            }
            FEv::GrantDeliver { src, count } => {
                for _ in 0..count {
                    let Some(alloc) = self.grant_pending[src].pop_front() else {
                        break;
                    };
                    let start = now.max(self.src_free_at[src]);
                    let tx = self.cluster.link.tx_time_bytes(alloc.chunk as u64);
                    self.src_free_at[src] = start + tx;
                    q.schedule(
                        start + tx + 2 * PROP_DELAY + self.cluster.pipeline_latency / 2,
                        FEv::ChunkArrive {
                            slot: alloc.slot,
                            bytes: alloc.chunk,
                        },
                    );
                }
                if self.grant_pending[src].is_empty() {
                    self.grant_inflight[src] = false;
                } else {
                    q.schedule(now, FEv::GrantSend { src });
                }
            }
            FEv::ChunkArrive { slot, bytes } => {
                let completed = &mut self.completed;
                let poll = self.domain.deliver(now, slot, bytes, |flow, _| {
                    completed[flow as usize] = Some(now);
                });
                schedule_poll(q, poll);
            }
        }
    }
}

impl FabricProtocol for FastpassProtocol {
    fn name(&self) -> &'static str {
        "Fastpass"
    }

    fn simulate(&mut self, cluster: &ClusterConfig, flows: &[Flow]) -> SimResult {
        let dirs: Vec<(usize, usize, u32)> = flows
            .iter()
            .map(|f| match f.kind {
                FlowKind::Write => (f.src, f.dst, f.size),
                FlowKind::Read => (f.dst, f.src, f.size),
            })
            .collect();
        let sched_cfg = SchedulerConfig {
            ports: cluster.nodes,
            chunk_bytes: CHUNK_BYTES,
            link: cluster.link,
            policy: Policy::Srpt,
            // Idealized: the matching itself costs zero time.
            clock: Duration::from_ps(0),
        };
        let n = cluster.nodes;
        let world = FastpassWorld {
            cluster: *cluster,
            completed: vec![None; flows.len()],
            flows: dirs,
            domain: SwitchDomain::new(sched_cfg),
            server_rx_free_at: Time::ZERO,
            server_tx_free_at: Time::ZERO,
            notify_pending: vec![VecDeque::new(); n],
            notify_inflight: vec![false; n],
            grant_pending: vec![VecDeque::new(); n],
            grant_inflight: vec![false; n],
            src_free_at: vec![Time::ZERO; n],
        };
        let mut engine = Engine::new(world);
        for (i, f) in flows.iter().enumerate() {
            // Request hop for reads; then the demand is announced.
            let at = match f.kind {
                FlowKind::Write => f.arrival,
                FlowKind::Read => f.arrival + Duration::from_ns(100),
            };
            engine.queue_mut().schedule(at, FEv::FlowArrive { flow: i });
        }
        engine.run();
        let world = engine.into_world();
        let outcomes = flows
            .iter()
            .enumerate()
            .map(|(i, &flow)| FlowOutcome {
                flow,
                completed: world.completed[i].expect("flow completes"),
            })
            .collect();
        SimResult {
            protocol: "Fastpass",
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: n,
            link: Bandwidth::from_gbps(100),
            pipeline_latency: Duration::from_ns(54),
        }
    }

    fn wflow(id: usize, src: usize, dst: usize, size: u32, at_ns: u64) -> Flow {
        Flow {
            id,
            src,
            dst,
            size,
            arrival: Time::from_ns(at_ns),
            kind: FlowKind::Write,
        }
    }

    #[test]
    fn solo_flow_completes_reasonably() {
        let c = cluster(4);
        let r = FastpassProtocol.simulate(&c, &[wflow(0, 0, 1, 64, 0)]);
        let ns = r.outcomes[0].mct().as_ns_f64();
        assert!((50.0..500.0).contains(&ns), "Fastpass solo MCT {ns} ns");
    }

    #[test]
    fn control_channel_saturates_under_many_small_flows() {
        // A synchronized burst of small flows from many senders: the
        // arbiter NIC serializes one control packet per sender per batch,
        // which dominates completion for the tail.
        let c = cluster(64);
        let flows: Vec<Flow> = (0..2000)
            .map(|i| wflow(i, i % 32, 32 + (i % 32), 64, (i / 64) as u64))
            .collect();
        let r = FastpassProtocol.simulate(&c, &flows);
        let worst = r
            .outcomes
            .iter()
            .map(|o| o.mct().as_ns_f64())
            .fold(0.0, f64::max);
        let solo = FastpassProtocol
            .simulate(&c, &[wflow(0, 0, 32, 64, 0)])
            .outcomes[0]
            .mct()
            .as_ns_f64();
        assert!(
            worst > 5.0 * solo,
            "control bottleneck must dominate: worst {worst} vs solo {solo}"
        );
    }

    #[test]
    fn batching_amortizes_control_cost() {
        // With batching, the 100th flow of one sender costs far less than
        // 100 separate control round trips.
        let c = cluster(4);
        let flows: Vec<Flow> = (0..100).map(|i| wflow(i, 0, 1, 64, 0)).collect();
        let r = FastpassProtocol.simulate(&c, &flows);
        let worst = r
            .outcomes
            .iter()
            .map(|o| o.mct().as_ns_f64())
            .fold(0.0, f64::max);
        // Unbatched would cost ≥ 100 × (2 × 6.72 ns) control alone plus
        // the X-limit round trips; batched completes in a few us.
        assert!(worst < 10_000.0, "batched tail {worst} ns");
    }

    #[test]
    fn matching_is_still_conflict_free() {
        let c = cluster(8);
        let flows: Vec<Flow> = (0..4).map(|i| wflow(i, i, 4 + i, 256, 0)).collect();
        let r = FastpassProtocol.simulate(&c, &flows);
        let mcts: Vec<f64> = r.outcomes.iter().map(|o| o.mct().as_ns_f64()).collect();
        let spread = mcts.iter().cloned().fold(0.0, f64::max)
            - mcts.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 150.0, "disjoint pairs spread {spread} ns");
    }

    /// Six 4 KiB writes on one pair and one 64 B write on another, all at
    /// t = 0: three of the six wait past X, and only a completion on their
    /// own pair may announce the oldest of them. A switch-wide backlog
    /// retried on the other pair's completion re-queues that waiter
    /// behind the others, and flow 3 finishes after flows 4 and 5.
    #[test]
    fn same_pair_flows_finish_in_offer_order() {
        let c = cluster(4);
        let mut flows: Vec<Flow> = (0..6).map(|i| wflow(i, 0, 1, 4096, 0)).collect();
        flows.push(wflow(6, 2, 3, 64, 0));
        let r = FastpassProtocol.simulate(&c, &flows);
        let done: Vec<Time> = r.outcomes[..6].iter().map(|o| o.completed).collect();
        assert!(
            done.windows(2).all(|w| w[0] < w[1]),
            "pair 0 -> 1 out of offer order: {done:?}"
        );
    }

    #[test]
    fn all_flows_complete() {
        let c = cluster(16);
        let flows: Vec<Flow> = (0..200)
            .map(|i| {
                wflow(
                    i,
                    i % 8,
                    8 + (i % 8),
                    64 + (i as u32 % 3) * 512,
                    i as u64 * 20,
                )
            })
            .collect();
        let r = FastpassProtocol.simulate(&c, &flows);
        assert_eq!(r.outcomes.len(), 200);
    }
}
