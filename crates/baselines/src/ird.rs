//! IRD — an idealized receiver-driven proactive transport (§4.3
//! baseline ii).
//!
//! IRD combines the best features of Homa/pHost/NDP/ExpressPass as the
//! paper defines it: receivers learn of new inbound messages in zero time
//! and schedule their downlinks with per-chunk credits in SRPT order,
//! while senders blind-transmit the first RTT's worth of data
//! *unscheduled* (Homa/pHost semantics — for the 64 B microbenchmark
//! messages, the whole message is unscheduled and the receiver's edge
//! queue absorbs contention).
//!
//! The decentralization flaw appears on the scheduled portion of large
//! messages: a receiver does not know whether the sender it credits is
//! busy serving *another* receiver, so conflicting credits waste downlink
//! slots — the bandwidth under-utilization that makes IRD degrade at
//! high load in Figure 8a.

use edm_core::sim::{
    ClusterConfig, FabricProtocol, Flow, FlowKind, FlowOutcome, SimResult, PROP_DELAY,
};
use edm_sim::{Duration, Engine, EventQueue, Time, World};

/// Credit chunk size in bytes.
const CHUNK_BYTES: u32 = 256;
/// Unscheduled (blind) bytes each message may send before credits (one
/// bandwidth-delay product, like Homa's RTTbytes).
const UNSCHEDULED_BYTES: u32 = 1024;
/// Per-packet wire overhead.
const HEADER_BYTES: u32 = 40;

/// The IRD protocol instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct IrdProtocol;

#[derive(Debug, Clone, Copy)]
enum IEv {
    /// Flow becomes active: blind-send the unscheduled window and announce
    /// the remainder to the receiver (zero-time notification, idealized).
    Start { flow: usize },
    /// Sender emits its next unscheduled chunk of `flow`.
    BlindNext { flow: usize },
    /// A chunk reaches the receiver's edge (switch egress) queue.
    EdgeArrive { flow: usize, bytes: u32 },
    /// The receiver edge port finishes serializing a chunk.
    EdgeDrain { dst: usize },
    /// Receiver `dst` issues its next credit slot.
    ReceiverSlot { dst: usize },
    /// A credit reaches a sender.
    CreditArrive { flow: usize, bytes: u32 },
    /// A chunk's last byte lands at the destination node.
    NodeArrive { flow: usize, bytes: u32 },
}

struct IrdWorld {
    cluster: ClusterConfig,
    /// (data_src, data_dst, size).
    flows: Vec<(usize, usize, u32)>,
    /// Sender-side unscheduled bytes still to blind-send.
    blind_remaining: Vec<u32>,
    /// Receiver-side scheduled bytes still to credit.
    to_credit: Vec<u32>,
    /// Conflict back-off: don't re-credit this flow before this time.
    defer_until: Vec<Time>,
    delivered: Vec<u32>,
    completed: Vec<Option<Time>>,
    /// Pending scheduled flows per receiver.
    pending: Vec<Vec<usize>>,
    /// Sender uplink next-free time.
    src_free_at: Vec<Time>,
    /// Receiver downlink (edge port) next-free time: shared by
    /// unscheduled arrivals and credited slots.
    edge_free_at: Vec<Time>,
    /// Receiver edge FIFO of (flow, bytes) awaiting serialization.
    edge_q: Vec<std::collections::VecDeque<(usize, u32)>>,
    edge_busy: Vec<bool>,
    /// Wasted credits (sender was busy): the under-utilization metric.
    wasted_credits: u64,
    /// Deduplication of pending ReceiverSlot wake-ups per destination.
    slot_wakeup: Vec<Option<Time>>,
}

impl IrdWorld {
    fn chunk_time(&self, bytes: u32) -> Duration {
        self.cluster
            .link
            .tx_time_bytes((bytes + HEADER_BYTES) as u64)
    }

    fn half_hop(&self) -> Duration {
        self.cluster.pipeline_latency / 2 + PROP_DELAY
    }

    /// Schedules a ReceiverSlot wake-up at `at`, deduplicating so each
    /// destination has at most one outstanding wake-up.
    fn wake_receiver(&mut self, dst: usize, at: Time, q: &mut EventQueue<IEv>) {
        if self.slot_wakeup[dst].is_none_or(|t| at < t) {
            self.slot_wakeup[dst] = Some(at);
            q.schedule(at, IEv::ReceiverSlot { dst });
        }
    }

    fn blind_next(&mut self, flow: usize, now: Time, q: &mut EventQueue<IEv>) {
        if self.blind_remaining[flow] == 0 {
            return;
        }
        let (src, _, _) = self.flows[flow];
        let start = now.max(self.src_free_at[src]);
        let bytes = self.blind_remaining[flow].min(CHUNK_BYTES);
        self.blind_remaining[flow] -= bytes;
        let tx = self.chunk_time(bytes);
        self.src_free_at[src] = start + tx;
        q.schedule(
            start + tx + PROP_DELAY + self.cluster.pipeline_latency / 2,
            IEv::EdgeArrive { flow, bytes },
        );
        if self.blind_remaining[flow] > 0 {
            q.schedule(start + tx, IEv::BlindNext { flow });
        }
    }

    fn edge_drain(&mut self, dst: usize, now: Time, q: &mut EventQueue<IEv>) {
        let Some((flow, bytes)) = self.edge_q[dst].pop_front() else {
            self.edge_busy[dst] = false;
            return;
        };
        let tx = self.chunk_time(bytes);
        self.edge_free_at[dst] = now + tx;
        q.schedule(now + tx + PROP_DELAY, IEv::NodeArrive { flow, bytes });
        q.schedule(now + tx, IEv::EdgeDrain { dst });
    }

    fn receiver_slot(&mut self, dst: usize, now: Time, q: &mut EventQueue<IEv>) {
        if self.slot_wakeup[dst] == Some(now) {
            self.slot_wakeup[dst] = None;
        }
        if now < self.edge_free_at[dst] {
            // Downlink busy (e.g. unscheduled traffic): revisit when free.
            self.wake_receiver(dst, self.edge_free_at[dst], q);
            return;
        }
        // SRPT across this receiver's schedulable flows that are not in
        // conflict back-off.
        let Some(&flow) = self.pending[dst]
            .iter()
            .filter(|&&f| self.to_credit[f] > 0 && self.defer_until[f] <= now)
            .min_by_key(|&&f| self.to_credit[f])
        else {
            // Nothing ready: retry when the earliest back-off expires.
            if let Some(t) = self.pending[dst]
                .iter()
                .filter(|&&f| self.to_credit[f] > 0)
                .map(|&f| self.defer_until[f])
                .min()
            {
                self.wake_receiver(dst, t.max(now), q);
            }
            return;
        };
        let bytes = self.to_credit[flow].min(CHUNK_BYTES);
        self.to_credit[flow] -= bytes;
        if self.to_credit[flow] == 0 {
            self.pending[dst].retain(|&f| f != flow);
        }
        // The receiver reserves its downlink slot for this chunk whether or
        // not the sender honours the credit — the decentralized gamble.
        let slot = self.chunk_time(bytes);
        self.edge_free_at[dst] = now + slot;
        q.schedule(now + self.half_hop(), IEv::CreditArrive { flow, bytes });
        self.wake_receiver(dst, now + slot, q);
    }

    fn credit_arrive(&mut self, flow: usize, bytes: u32, now: Time, q: &mut EventQueue<IEv>) {
        let (src, dst, _) = self.flows[flow];
        if now < self.src_free_at[src] {
            // Sender busy on another receiver: credit wasted; re-credit the
            // bytes and back the flow off for one chunk time so the
            // receiver's next slot can try a different sender.
            self.wasted_credits += 1;
            self.to_credit[flow] += bytes;
            self.defer_until[flow] = now + self.chunk_time(bytes);
            if !self.pending[dst].contains(&flow) {
                self.pending[dst].push(flow);
            }
            self.wake_receiver(dst, self.edge_free_at[dst].max(now), q);
            return;
        }
        let tx = self.chunk_time(bytes);
        self.src_free_at[src] = now + tx;
        // Credited chunks bypass the edge queue (the receiver reserved the
        // slot) and land after the data flight.
        q.schedule(
            now + tx + 2 * PROP_DELAY + self.cluster.pipeline_latency / 2,
            IEv::NodeArrive { flow, bytes },
        );
    }
}

impl World for IrdWorld {
    type Event = IEv;

    fn handle(&mut self, now: Time, ev: IEv, q: &mut EventQueue<IEv>) {
        match ev {
            IEv::Start { flow } => {
                let (_, dst, size) = self.flows[flow];
                let unsched = size.min(UNSCHEDULED_BYTES);
                self.blind_remaining[flow] = unsched;
                self.to_credit[flow] = size - unsched;
                self.blind_next(flow, now, q);
                if self.to_credit[flow] > 0 {
                    self.pending[dst].push(flow);
                    if now >= self.edge_free_at[dst] {
                        self.receiver_slot(dst, now, q);
                    } else {
                        self.wake_receiver(dst, self.edge_free_at[dst], q);
                    }
                }
            }
            IEv::BlindNext { flow } => self.blind_next(flow, now, q),
            IEv::EdgeArrive { flow, bytes } => {
                let dst = self.flows[flow].1;
                self.edge_q[dst].push_back((flow, bytes));
                if !self.edge_busy[dst] {
                    self.edge_busy[dst] = true;
                    q.schedule(now.max(self.edge_free_at[dst]), IEv::EdgeDrain { dst });
                }
            }
            IEv::EdgeDrain { dst } => self.edge_drain(dst, now, q),
            IEv::ReceiverSlot { dst } => self.receiver_slot(dst, now, q),
            IEv::CreditArrive { flow, bytes } => self.credit_arrive(flow, bytes, now, q),
            IEv::NodeArrive { flow, bytes } => {
                self.delivered[flow] += bytes;
                let size = self.flows[flow].2;
                if self.delivered[flow] >= size && self.completed[flow].is_none() {
                    self.completed[flow] = Some(now);
                }
            }
        }
    }
}

impl FabricProtocol for IrdProtocol {
    fn name(&self) -> &'static str {
        "IRD"
    }

    fn simulate(&mut self, cluster: &ClusterConfig, flows: &[Flow]) -> SimResult {
        let n = cluster.nodes;
        let dirs: Vec<(usize, usize, u32)> = flows
            .iter()
            .map(|f| match f.kind {
                FlowKind::Write => (f.src, f.dst, f.size),
                FlowKind::Read => (f.dst, f.src, f.size),
            })
            .collect();
        let world = IrdWorld {
            cluster: *cluster,
            blind_remaining: vec![0; flows.len()],
            to_credit: vec![0; flows.len()],
            defer_until: vec![Time::ZERO; flows.len()],
            delivered: vec![0; flows.len()],
            completed: vec![None; flows.len()],
            flows: dirs,
            pending: vec![Vec::new(); n],
            src_free_at: vec![Time::ZERO; n],
            edge_free_at: vec![Time::ZERO; n],
            edge_q: vec![std::collections::VecDeque::new(); n],
            edge_busy: vec![false; n],
            wasted_credits: 0,
            slot_wakeup: vec![None; n],
        };
        let mut engine = Engine::new(world);
        for (i, f) in flows.iter().enumerate() {
            // Reads begin at the memory node after the request's flight.
            let start = match f.kind {
                FlowKind::Write => f.arrival,
                FlowKind::Read => {
                    f.arrival
                        + cluster.pipeline_latency
                        + 2 * PROP_DELAY
                        + cluster.link.tx_time_bytes(48)
                }
            };
            engine.queue_mut().schedule(start, IEv::Start { flow: i });
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
            protocol: "IRD",
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_sim::Bandwidth;

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
    fn solo_small_flow_is_fast() {
        let c = cluster(4);
        let r = IrdProtocol.simulate(&c, &[wflow(0, 0, 1, 64, 0)]);
        let ns = r.outcomes[0].mct().as_ns_f64();
        assert!((40.0..250.0).contains(&ns), "IRD solo MCT {ns} ns");
    }

    #[test]
    fn small_messages_are_fully_unscheduled() {
        // A 64 B message never waits for credits: its MCT is close to a
        // one-way flight even with a cold receiver.
        let c = cluster(4);
        let r = IrdProtocol.simulate(&c, &[wflow(0, 0, 1, 64, 0)]);
        let flight =
            (c.pipeline_latency + 2 * PROP_DELAY + c.link.tx_time_bytes(64 + 40)).as_ns_f64();
        let mct = r.outcomes[0].mct().as_ns_f64();
        assert!(
            mct < flight * 2.0,
            "unscheduled MCT {mct} vs flight {flight}"
        );
    }

    #[test]
    fn incast_queues_at_receiver_edge() {
        let c = cluster(16);
        let flows: Vec<Flow> = (0..8).map(|i| wflow(i, i, 15, 256, 0)).collect();
        let r = IrdProtocol.simulate(&c, &flows);
        let mcts: Vec<f64> = r.outcomes.iter().map(|o| o.mct().as_ns_f64()).collect();
        let max = mcts.iter().cloned().fold(0.0, f64::max);
        let min = mcts.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 2.0 * min, "edge queue must serialize the incast");
    }

    #[test]
    fn large_flows_use_credits_and_complete() {
        let c = cluster(4);
        let r = IrdProtocol.simulate(&c, &[wflow(0, 0, 1, 100_000, 0)]);
        let mct = r.outcomes[0].mct();
        assert!(
            mct >= c.link.tx_time_bytes(100_000),
            "cannot beat line rate"
        );
    }

    #[test]
    fn sender_conflicts_waste_downlink_slots() {
        // One sender, two receivers, both crediting large flows: total
        // completion must exceed the perfect interleave because wasted
        // slots cannot be reclaimed.
        let c = cluster(4);
        let flows = vec![wflow(0, 0, 1, 40_960, 0), wflow(1, 0, 2, 40_960, 0)];
        let r = IrdProtocol.simulate(&c, &flows);
        let perfect = c.link.tx_time_bytes(2 * (40_960 + 40 * 160)).as_ns_f64();
        let worst = r
            .outcomes
            .iter()
            .map(|o| o.mct().as_ns_f64())
            .fold(0.0, f64::max);
        assert!(
            worst > perfect,
            "conflicts must cost: worst {worst} vs perfect {perfect}"
        );
    }

    #[test]
    fn srpt_order_for_scheduled_portions() {
        let c = cluster(4);
        let flows = vec![
            wflow(0, 0, 3, 200_000, 0), // elephant (mostly scheduled)
            wflow(1, 1, 3, 4_096, 500), // shorter scheduled flow
        ];
        let r = IrdProtocol.simulate(&c, &flows);
        assert!(
            r.outcomes[1].completed < r.outcomes[0].completed,
            "short flow must finish first under SRPT credits"
        );
    }

    #[test]
    fn all_flows_complete_under_load() {
        let c = cluster(16);
        let flows: Vec<Flow> = (0..64)
            .map(|i| {
                wflow(
                    i,
                    i % 8,
                    8 + (i % 8),
                    64 + 512 * (i as u32 % 5),
                    (i as u64) * 30,
                )
            })
            .collect();
        let r = IrdProtocol.simulate(&c, &flows);
        assert_eq!(r.outcomes.len(), 64);
    }
}
