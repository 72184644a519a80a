//! CXL-style fabric: link-level credit-based flow control with no
//! end-to-end coordination (§4.3 baseline v).
//!
//! PCIe/CXL switches avoid buffer overflow with per-link credits: an
//! ingress port may only forward a flit to an egress buffer that has a
//! free credit, and the credit returns when the flit drains. Under incast,
//! the hot egress runs out of credits, the ingress queue's *head* flit
//! blocks, and everything behind it — including flits bound for idle
//! egresses — stalls: **head-of-line blocking**, the victim-cascade
//! failure mode the paper (and Aurelia \[92\]) identifies. There is no
//! SRPT, no admission control, and no way for a victim flow to overtake.

use edm_core::sim::{
    ClusterConfig, FabricProtocol, Flow, FlowKind, FlowOutcome, SimResult, PROP_DELAY,
};
use edm_sim::{Duration, Engine, EventQueue, Time, World};
use std::collections::VecDeque;

/// Flit payload size (CXL.mem transfers 64 B flits).
const FLIT_BYTES: u32 = 64;
/// Per-flit wire overhead (flit header + CRC).
const HEADER_BYTES: u32 = 8;
/// Egress buffer credits, in flits: enough to cover the credit-return
/// loop at line rate on an uncongested path, but shared under incast.
const EGRESS_CREDITS: u32 = 16;
/// Latency for a consumed credit to return to the pool (the credit update
/// must physically travel back through the switch).
const CREDIT_RETURN_DELAY: Duration = Duration::from_ns(50);
/// Fixed one-way switch latency (~100 ns per CXL switch hop, §2.2).
const SWITCH_LATENCY: Duration = Duration::from_ns(100);
/// Fixed one-way host adapter latency.
const HOST_LATENCY: Duration = Duration::from_ns(25);

/// The CXL protocol instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct CxlProtocol;

#[derive(Debug, Clone, Copy)]
struct Flit {
    flow: usize,
    bytes: u32,
    last: bool,
}

#[derive(Debug, Clone, Copy)]
enum CEv {
    /// A flow becomes active.
    Start { flow: usize },
    /// The host injects its next flit of `flow`.
    InjectNext { flow: usize },
    /// A flit reaches the switch ingress queue of `src`.
    IngressArrive { src: usize, flit: Flit },
    /// Ingress `src` attempts to forward its head flit.
    IngressTry { src: usize },
    /// A flit is accepted into egress `dst`'s credit buffer.
    EgressAccept { dst: usize, flit: Flit },
    /// Egress `dst` serializes its next buffered flit.
    EgressDrain { dst: usize },
    /// A credit returns to egress `dst`'s pool (waking one parked ingress
    /// atomically, so FIFO arbitration cannot be starved).
    CreditReturn { dst: usize },
    /// A flit lands at its destination node.
    NodeArrive { flit: Flit },
}

struct CxlWorld {
    cluster: ClusterConfig,
    /// (data_src, data_dst, size) per flow.
    flows: Vec<(usize, usize, u32)>,
    remaining_to_send: Vec<u32>,
    delivered: Vec<u32>,
    completed: Vec<Option<Time>>,
    /// Per-ingress FIFO (HOL semantics: one queue per ingress port).
    ingress: Vec<VecDeque<Flit>>,
    /// Ingress crossbar next-free time (one flit per flit time).
    ingress_free_at: Vec<Time>,
    /// Ingress is parked waiting for a credit on some egress.
    ingress_blocked: Vec<bool>,
    /// Free credits per egress.
    credits: Vec<u32>,
    /// Ingresses blocked on each egress's credits (FIFO arbitration).
    credit_waiters: Vec<VecDeque<usize>>,
    /// Egress serialization buffers (≤ credits).
    egress_q: Vec<VecDeque<Flit>>,
    egress_busy: Vec<bool>,
    /// Host uplink next-free time.
    src_free_at: Vec<Time>,
}

impl CxlWorld {
    fn flit_time(&self) -> Duration {
        self.cluster
            .link
            .tx_time_bytes((FLIT_BYTES + HEADER_BYTES) as u64)
    }

    fn inject_next(&mut self, flow: usize, now: Time, q: &mut EventQueue<CEv>) {
        if self.remaining_to_send[flow] == 0 {
            return;
        }
        let (src, _, _) = self.flows[flow];
        let start = now.max(self.src_free_at[src]);
        let bytes = self.remaining_to_send[flow].min(FLIT_BYTES);
        self.remaining_to_send[flow] -= bytes;
        let last = self.remaining_to_send[flow] == 0;
        let depart = start + self.flit_time();
        self.src_free_at[src] = depart;
        q.schedule(
            depart + PROP_DELAY + HOST_LATENCY,
            CEv::IngressArrive {
                src,
                flit: Flit { flow, bytes, last },
            },
        );
        if !last {
            q.schedule(depart, CEv::InjectNext { flow });
        }
    }

    fn ingress_try(&mut self, src: usize, now: Time, q: &mut EventQueue<CEv>) {
        if self.ingress_blocked[src] || now < self.ingress_free_at[src] {
            return;
        }
        let Some(&head) = self.ingress[src].front() else {
            return;
        };
        let dst = self.flows[head.flow].1;
        if self.credits[dst] == 0 {
            // Head-of-line block: the whole ingress parks on this egress.
            self.ingress_blocked[src] = true;
            self.credit_waiters[dst].push_back(src);
            return;
        }
        self.credits[dst] -= 1;
        let flit = self.ingress[src].pop_front().expect("head exists");
        // Crossbar pass at flit granularity.
        let done = now + self.flit_time();
        self.ingress_free_at[src] = done;
        q.schedule(done, CEv::EgressAccept { dst, flit });
        q.schedule(done, CEv::IngressTry { src });
    }

    fn egress_drain(&mut self, dst: usize, now: Time, q: &mut EventQueue<CEv>) {
        let Some(flit) = self.egress_q[dst].pop_front() else {
            self.egress_busy[dst] = false;
            return;
        };
        let tx = self.flit_time();
        q.schedule(
            now + tx + PROP_DELAY + SWITCH_LATENCY,
            CEv::NodeArrive { flit },
        );
        // Credit returns once the flit has left the buffer *and* the
        // credit update has travelled back.
        q.schedule(now + tx + CREDIT_RETURN_DELAY, CEv::CreditReturn { dst });
        q.schedule(now + tx, CEv::EgressDrain { dst });
    }
}

impl World for CxlWorld {
    type Event = CEv;

    fn handle(&mut self, now: Time, ev: CEv, q: &mut EventQueue<CEv>) {
        match ev {
            CEv::Start { flow } => self.inject_next(flow, now, q),
            CEv::InjectNext { flow } => self.inject_next(flow, now, q),
            CEv::IngressArrive { src, flit } => {
                self.ingress[src].push_back(flit);
                self.ingress_try(src, now, q);
            }
            CEv::IngressTry { src } => self.ingress_try(src, now, q),
            CEv::EgressAccept { dst, flit } => {
                self.egress_q[dst].push_back(flit);
                if !self.egress_busy[dst] {
                    self.egress_busy[dst] = true;
                    q.schedule(now, CEv::EgressDrain { dst });
                }
            }
            CEv::EgressDrain { dst } => self.egress_drain(dst, now, q),
            CEv::CreditReturn { dst } => {
                self.credits[dst] += 1;
                if let Some(waiter) = self.credit_waiters[dst].pop_front() {
                    self.ingress_blocked[waiter] = false;
                    self.ingress_try(waiter, now, q);
                }
            }
            CEv::NodeArrive { flit } => {
                self.delivered[flit.flow] += flit.bytes;
                let (_, _, size) = self.flows[flit.flow];
                if flit.last && self.delivered[flit.flow] >= size {
                    self.completed[flit.flow] = Some(now + HOST_LATENCY);
                }
            }
        }
    }
}

impl FabricProtocol for CxlProtocol {
    fn name(&self) -> &'static str {
        "CXL"
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
        let world = CxlWorld {
            remaining_to_send: dirs.iter().map(|&(_, _, s)| s).collect(),
            delivered: vec![0; flows.len()],
            completed: vec![None; flows.len()],
            flows: dirs,
            ingress: vec![VecDeque::new(); n],
            ingress_free_at: vec![Time::ZERO; n],
            ingress_blocked: vec![false; n],
            credits: vec![EGRESS_CREDITS; n],
            credit_waiters: vec![VecDeque::new(); n],
            egress_q: vec![VecDeque::new(); n],
            egress_busy: vec![false; n],
            src_free_at: vec![Time::ZERO; n],
            cluster: *cluster,
        };
        let mut engine = Engine::new(world);
        for (i, f) in flows.iter().enumerate() {
            let start = match f.kind {
                FlowKind::Write => f.arrival,
                FlowKind::Read => {
                    // Request flit flight to the memory node.
                    f.arrival
                        + HOST_LATENCY
                        + SWITCH_LATENCY
                        + 2 * PROP_DELAY
                        + cluster.link.tx_time_bytes(72)
                }
            };
            engine.queue_mut().schedule(start, CEv::Start { flow: i });
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
            protocol: "CXL",
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
    fn solo_write_is_fast() {
        let c = cluster(4);
        let r = CxlProtocol.simulate(&c, &[wflow(0, 0, 1, 64, 0)]);
        let ns = r.outcomes[0].mct().as_ns_f64();
        // One flit: host + crossbar + switch + wire ≈ 200-350 ns.
        assert!((100.0..500.0).contains(&ns), "CXL solo MCT {ns} ns");
    }

    #[test]
    fn multi_flit_flow_completes_fully() {
        let c = cluster(4);
        let r = CxlProtocol.simulate(&c, &[wflow(0, 0, 1, 10_000, 0)]);
        assert!(r.outcomes[0].mct() >= c.link.tx_time_bytes(10_000));
    }

    #[test]
    fn incast_exhausts_credits_and_blocks() {
        let c = cluster(32);
        let flows: Vec<Flow> = (0..16).map(|i| wflow(i, i, 31, 4096, 0)).collect();
        let r = CxlProtocol.simulate(&c, &flows);
        let solo = CxlProtocol
            .simulate(&c, &[wflow(0, 0, 31, 4096, 0)])
            .outcomes[0]
            .mct();
        let worst = r.outcomes.iter().map(|o| o.mct()).max().unwrap();
        assert!(
            worst.as_ns_f64() > 3.0 * solo.as_ns_f64(),
            "incast must inflate CXL MCT: worst {worst} vs solo {solo}"
        );
    }

    #[test]
    fn victim_flow_suffers_hol_blocking() {
        // Flows 0..8 incast into node 15 from sources 0..8. A victim flow
        // from source 0 to the *idle* node 14 gets stuck behind them.
        let c = cluster(16);
        let mut flows: Vec<Flow> = (0..8).map(|i| wflow(i, i, 15, 8192, 0)).collect();
        flows.push(wflow(8, 0, 14, 512, 100));
        let r = CxlProtocol.simulate(&c, &flows);
        let victim = r.outcomes[8].mct();
        let solo = CxlProtocol
            .simulate(&c, &[wflow(0, 0, 14, 512, 0)])
            .outcomes[0]
            .mct();
        assert!(
            victim.as_ns_f64() > 2.0 * solo.as_ns_f64(),
            "HOL blocking must hurt the victim: {victim} vs solo {solo}"
        );
    }

    #[test]
    fn reads_traverse_reverse_path() {
        let c = cluster(4);
        let read = Flow {
            id: 0,
            src: 0,
            dst: 1,
            size: 64,
            arrival: Time::ZERO,
            kind: FlowKind::Read,
        };
        let r = CxlProtocol.simulate(&c, &[read]);
        let w = CxlProtocol.simulate(&c, &[wflow(0, 1, 0, 64, 0)]);
        assert!(r.outcomes[0].mct() > w.outcomes[0].mct());
    }
}
