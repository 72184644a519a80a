//! A shared output-queued packet fabric that models the *reactive*
//! congestion-control baselines of §4.3: DCTCP, pFabric, and PFC+DCQCN.
//!
//! All three share the same single-switch star machinery — host uplinks,
//! per-egress-port queues, packet serialization — and differ only in the
//! knobs the paper calls out:
//!
//! | Protocol  | queue discipline | buffer | loss model | rate control |
//! |-----------|------------------|--------|-----------|--------------|
//! | DCTCP     | FIFO             | large  | drop-tail + RTO | ECN window |
//! | pFabric   | SRPT priority    | small  | priority drop + RTO | ECN window |
//! | PFC+DCQCN | FIFO             | large  | lossless (PAUSE + HOL) | ECN window |
//!
//! These are reactive protocols: they only learn about congestion after
//! queues have already built, which is exactly the §2.4 limitation the
//! experiment demonstrates.

use edm_core::sim::{
    ClusterConfig, FabricProtocol, Flow, FlowKind, FlowOutcome, SimResult, PROP_DELAY,
};
use edm_sim::{Duration, Engine, EventQueue, Time, World};
use std::collections::VecDeque;

// Shared by all three protocols.

/// Max packet payload bytes.
const MTU: u32 = 1000;
/// Per-packet wire overhead: Eth + IP + TCP + preamble/IFG.
const HEADER_BYTES: u32 = 58;
/// ECN marking threshold (queue depth at enqueue). A mark halves the
/// sender's congestion window (DCTCP/DCQCN-style).
const ECN_THRESHOLD_BYTES: u64 = 30 * 1024;
/// Initial congestion window in packets.
const INITIAL_WINDOW_PKTS: u32 = 10;
/// Fixed one-way switch pipeline latency (L2 processing).
const SWITCH_LATENCY: Duration = Duration::from_ns(400);
/// Fixed one-way host stack latency.
const HOST_LATENCY: Duration = Duration::from_ns(230);

/// Egress queue service discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// First-in-first-out (DCTCP, PFC).
    Fifo,
    /// Shortest-remaining-flow-first with priority dropping (pFabric).
    SrptPriority,
}

/// Loss behaviour of the switch buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossMode {
    /// Drop packets that overflow the buffer; sender recovers after `rto`.
    DropTail {
        /// Retransmission timeout.
        rto: Duration,
    },
    /// Lossless: senders whose head packet targets a port over `xoff`
    /// stall until it drains below `xon` (PAUSE with head-of-line
    /// blocking).
    Pfc {
        /// Queue depth that triggers PAUSE.
        xoff_bytes: u64,
        /// Queue depth that releases PAUSE.
        xon_bytes: u64,
    },
}

/// Configuration of the queueing fabric.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Protocol display name.
    pub name: &'static str,
    /// Per-egress-port buffer.
    pub buffer_bytes: u64,
    /// Service discipline.
    pub discipline: Discipline,
    /// Loss model.
    pub loss: LossMode,
}

impl QueueConfig {
    /// DCTCP (§4.3 baseline i): FIFO, deep buffers, drop-tail with a
    /// multi-microsecond RTO, ECN-driven window.
    pub fn dctcp() -> Self {
        QueueConfig {
            name: "DCTCP",
            buffer_bytes: 200 * 1024,
            discipline: Discipline::Fifo,
            loss: LossMode::DropTail {
                rto: Duration::from_us(12),
            },
        }
    }

    /// pFabric (§4.3 baseline iii): SRPT priority queues over shallow
    /// buffers, "running on top of DCTCP" as the paper configures it —
    /// DCTCP's windows and retransmission timeout, with in-network SRPT
    /// service and priority-aware dropping.
    pub fn pfabric() -> Self {
        QueueConfig {
            name: "pFabric",
            buffer_bytes: 36 * 1024,
            discipline: Discipline::SrptPriority,
            loss: LossMode::DropTail {
                rto: Duration::from_us(12), // DCTCP's RTO underneath
            },
        }
    }

    /// PFC + DCQCN (§4.3 baseline iv): lossless PAUSE with head-of-line
    /// blocking, ECN-driven rate cuts.
    pub fn pfc_dcqcn() -> Self {
        QueueConfig {
            name: "PFC",
            buffer_bytes: u64::MAX, // lossless
            discipline: Discipline::Fifo,
            loss: LossMode::Pfc {
                xoff_bytes: 60 * 1024,
                xon_bytes: 30 * 1024,
            },
        }
    }
}

/// A queueing-fabric protocol instance.
#[derive(Debug, Clone, Copy)]
pub struct QueueFabric {
    config: QueueConfig,
}

impl QueueFabric {
    /// Wraps a configuration.
    pub fn new(config: QueueConfig) -> Self {
        QueueFabric { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &QueueConfig {
        &self.config
    }
}

#[derive(Debug, Clone, Copy)]
struct QPkt {
    flow: usize,
    bytes: u32,
    marked: bool,
}

#[derive(Debug)]
struct FlowState {
    /// Data-direction source node.
    src: usize,
    /// Data-direction destination node.
    dst: usize,
    size: u32,
    to_send: u32,
    delivered: u32,
    inflight_pkts: u32,
    cwnd_pkts: u32,
    completed: Option<Time>,
}

impl FlowState {
    fn remaining(&self) -> u32 {
        self.size - self.delivered
    }
}

#[derive(Debug, Clone)]
enum QEv {
    /// Flow becomes active at its (request-adjusted) start time.
    Start { flow: usize },
    /// Try to emit the next packet from `src`'s uplink.
    SrcTry { src: usize },
    /// A packet reaches the switch ingress.
    SwitchArrive { pkt: QPkt },
    /// Egress port `dst` finishes serializing its current packet.
    PortDrain { dst: usize },
    /// A packet reaches its destination node.
    NodeArrive { pkt: QPkt },
    /// A dropped packet's retransmission budget returns to the sender.
    Retx { flow: usize, bytes: u32 },
}

struct QWorld {
    cfg: QueueConfig,
    cluster: ClusterConfig,
    flows: Vec<FlowState>,
    /// Per-source FIFO of active flow indices (round-robin service).
    src_active: Vec<VecDeque<usize>>,
    src_free_at: Vec<Time>,
    /// Per-source: stalled by PFC on some egress.
    src_stalled: Vec<bool>,
    /// Egress queues.
    egress: Vec<VecDeque<QPkt>>,
    egress_bytes: Vec<u64>,
    egress_busy: Vec<bool>,
    /// Sources waiting for PFC xon on each egress.
    pfc_waiters: Vec<Vec<usize>>,
    drops: u64,
    marks: u64,
}

impl QWorld {
    fn pkt_wire_time(&self, bytes: u32) -> Duration {
        self.cluster
            .link
            .tx_time_bytes((bytes + HEADER_BYTES) as u64)
    }

    fn activate(&mut self, flow: usize, q: &mut EventQueue<QEv>, now: Time) {
        let src = self.flows[flow].src;
        self.src_active[src].push_back(flow);
        q.schedule(now, QEv::SrcTry { src });
    }

    /// Whether PFC currently gates packets toward `dst`.
    fn pfc_blocked(&self, dst: usize) -> bool {
        match self.cfg.loss {
            LossMode::Pfc { xoff_bytes, .. } => self.egress_bytes[dst] >= xoff_bytes,
            LossMode::DropTail { .. } => false,
        }
    }

    fn try_send(&mut self, src: usize, now: Time, q: &mut EventQueue<QEv>) {
        if self.src_stalled[src] || now < self.src_free_at[src] {
            return;
        }
        // Round-robin over this source's active flows; head-of-line rules
        // apply under PFC (the head flow blocks the whole uplink).
        let Some(&flow) = self.src_active[src].front() else {
            return;
        };
        let f = &self.flows[flow];
        if f.to_send == 0 || f.inflight_pkts >= f.cwnd_pkts {
            // Head flow can't progress; rotate if another could.
            if f.to_send == 0 && f.inflight_pkts == 0 && f.completed.is_some() {
                self.src_active[src].pop_front();
                self.try_send(src, now, q);
                return;
            }
            // Rotate to give other flows a chance (window-limited head).
            if self.src_active[src].len() > 1 {
                let head = self.src_active[src].pop_front().expect("non-empty");
                self.src_active[src].push_back(head);
                let next = *self.src_active[src].front().expect("non-empty");
                if next != head {
                    let nf = &self.flows[next];
                    if nf.to_send > 0 && nf.inflight_pkts < nf.cwnd_pkts {
                        self.try_send(src, now, q);
                    }
                }
            }
            return;
        }
        let dst = f.dst;
        if self.pfc_blocked(dst) {
            // PAUSE: the whole uplink stalls behind this head packet.
            self.src_stalled[src] = true;
            self.pfc_waiters[dst].push(src);
            return;
        }
        let bytes = f.to_send.min(MTU);
        let f = &mut self.flows[flow];
        f.to_send -= bytes;
        f.inflight_pkts += 1;
        let tx = self.pkt_wire_time(bytes);
        self.src_free_at[src] = now + tx;
        // Rotate round-robin.
        let head = self.src_active[src].pop_front().expect("non-empty");
        if self.flows[head].to_send > 0 || self.flows[head].completed.is_none() {
            self.src_active[src].push_back(head);
        }
        let arrive = now + tx + PROP_DELAY + HOST_LATENCY;
        q.schedule(
            arrive,
            QEv::SwitchArrive {
                pkt: QPkt {
                    flow,
                    bytes,
                    marked: false,
                },
            },
        );
        q.schedule(self.src_free_at[src], QEv::SrcTry { src });
    }

    fn switch_arrive(&mut self, mut pkt: QPkt, now: Time, q: &mut EventQueue<QEv>) {
        let dst = self.flows[pkt.flow].dst;
        let pkt_wire = (pkt.bytes + HEADER_BYTES) as u64;
        // Loss handling.
        if let LossMode::DropTail { rto } = self.cfg.loss {
            if self.egress_bytes[dst] + pkt_wire > self.cfg.buffer_bytes {
                match self.cfg.discipline {
                    Discipline::Fifo => {
                        // Drop-tail: the arriving packet is lost.
                        self.drops += 1;
                        q.schedule(
                            now + rto,
                            QEv::Retx {
                                flow: pkt.flow,
                                bytes: pkt.bytes,
                            },
                        );
                        return;
                    }
                    Discipline::SrptPriority => {
                        // pFabric: drop the lowest-priority (largest
                        // remaining) packet among queued + arriving.
                        let worst_queued = self.egress[dst]
                            .iter()
                            .enumerate()
                            .max_by_key(|(_, p)| self.flows[p.flow].remaining())
                            .map(|(i, p)| (i, self.flows[p.flow].remaining(), p.bytes, p.flow));
                        let arriving_rem = self.flows[pkt.flow].remaining();
                        match worst_queued {
                            Some((i, rem, bytes, flow)) if rem > arriving_rem => {
                                self.egress[dst].remove(i);
                                self.egress_bytes[dst] -= (bytes + HEADER_BYTES) as u64;
                                self.drops += 1;
                                q.schedule(now + rto, QEv::Retx { flow, bytes });
                                // fall through: enqueue the arriving packet
                            }
                            _ => {
                                self.drops += 1;
                                q.schedule(
                                    now + rto,
                                    QEv::Retx {
                                        flow: pkt.flow,
                                        bytes: pkt.bytes,
                                    },
                                );
                                return;
                            }
                        }
                    }
                }
            }
        }
        // ECN marking at enqueue.
        if self.egress_bytes[dst] > ECN_THRESHOLD_BYTES {
            pkt.marked = true;
            self.marks += 1;
        }
        self.egress[dst].push_back(pkt);
        self.egress_bytes[dst] += pkt_wire;
        if !self.egress_busy[dst] {
            self.egress_busy[dst] = true;
            q.schedule(now, QEv::PortDrain { dst });
        }
    }

    fn port_drain(&mut self, dst: usize, now: Time, q: &mut EventQueue<QEv>) {
        let pick = match self.cfg.discipline {
            Discipline::Fifo => {
                if self.egress[dst].is_empty() {
                    None
                } else {
                    Some(0)
                }
            }
            Discipline::SrptPriority => self.egress[dst]
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| self.flows[p.flow].remaining())
                .map(|(i, _)| i),
        };
        let Some(idx) = pick else {
            self.egress_busy[dst] = false;
            return;
        };
        let pkt = self.egress[dst].remove(idx).expect("index valid");
        self.egress_bytes[dst] -= (pkt.bytes + HEADER_BYTES) as u64;
        let tx = self.pkt_wire_time(pkt.bytes);
        q.schedule(
            now + tx + PROP_DELAY + SWITCH_LATENCY,
            QEv::NodeArrive { pkt },
        );
        q.schedule(now + tx, QEv::PortDrain { dst });
        // PFC resume check.
        if let LossMode::Pfc { xon_bytes, .. } = self.cfg.loss {
            if self.egress_bytes[dst] < xon_bytes && !self.pfc_waiters[dst].is_empty() {
                for src in std::mem::take(&mut self.pfc_waiters[dst]) {
                    self.src_stalled[src] = false;
                    q.schedule(now + tx, QEv::SrcTry { src });
                }
            }
        }
    }

    fn node_arrive(&mut self, pkt: QPkt, now: Time, q: &mut EventQueue<QEv>) {
        let f = &mut self.flows[pkt.flow];
        f.delivered += pkt.bytes;
        f.inflight_pkts = f.inflight_pkts.saturating_sub(1);
        if pkt.marked {
            f.cwnd_pkts = (f.cwnd_pkts / 2).max(1);
        } else {
            f.cwnd_pkts = (f.cwnd_pkts + 1).min(256);
        }
        if f.delivered >= f.size && f.completed.is_none() {
            f.completed = Some(now + HOST_LATENCY);
        }
        let src = f.src;
        // The ack opens window space after a return hop.
        q.schedule(now + 2 * PROP_DELAY, QEv::SrcTry { src });
    }
}

impl World for QWorld {
    type Event = QEv;

    fn handle(&mut self, now: Time, ev: QEv, q: &mut EventQueue<QEv>) {
        match ev {
            QEv::Start { flow } => self.activate(flow, q, now),
            QEv::SrcTry { src } => self.try_send(src, now, q),
            QEv::SwitchArrive { pkt } => self.switch_arrive(pkt, now, q),
            QEv::PortDrain { dst } => self.port_drain(dst, now, q),
            QEv::NodeArrive { pkt } => self.node_arrive(pkt, now, q),
            QEv::Retx { flow, bytes } => {
                let f = &mut self.flows[flow];
                f.to_send += bytes;
                f.inflight_pkts = f.inflight_pkts.saturating_sub(1);
                let src = f.src;
                q.schedule(now, QEv::SrcTry { src });
            }
        }
    }
}

impl FabricProtocol for QueueFabric {
    fn name(&self) -> &'static str {
        self.config.name
    }

    fn simulate(&mut self, cluster: &ClusterConfig, flows: &[Flow]) -> SimResult {
        let states: Vec<FlowState> = flows
            .iter()
            .map(|f| {
                let (src, dst) = match f.kind {
                    FlowKind::Write => (f.src, f.dst),
                    FlowKind::Read => (f.dst, f.src),
                };
                FlowState {
                    src,
                    dst,
                    size: f.size,
                    to_send: f.size,
                    delivered: 0,
                    inflight_pkts: 0,
                    cwnd_pkts: INITIAL_WINDOW_PKTS,
                    completed: None,
                }
            })
            .collect();
        let n = cluster.nodes;
        let world = QWorld {
            cfg: self.config,
            cluster: *cluster,
            flows: states,
            src_active: vec![VecDeque::new(); n],
            src_free_at: vec![Time::ZERO; n],
            src_stalled: vec![false; n],
            egress: vec![VecDeque::new(); n],
            egress_bytes: vec![0; n],
            egress_busy: vec![false; n],
            pfc_waiters: vec![Vec::new(); n],
            drops: 0,
            marks: 0,
        };
        let mut engine = Engine::new(world);
        for (i, f) in flows.iter().enumerate() {
            // Reads start after the request's unloaded flight to the memory
            // node.
            let start = match f.kind {
                FlowKind::Write => f.arrival,
                FlowKind::Read => {
                    f.arrival
                        + HOST_LATENCY
                        + SWITCH_LATENCY
                        + 2 * PROP_DELAY
                        + cluster.link.tx_time_bytes(64)
                }
            };
            engine.queue_mut().schedule(start, QEv::Start { flow: i });
        }
        engine.run();
        let world = engine.into_world();
        let outcomes = flows
            .iter()
            .enumerate()
            .map(|(i, &flow)| FlowOutcome {
                flow,
                completed: world.flows[i]
                    .completed
                    .expect("flow must complete before the queue drains"),
            })
            .collect();
        SimResult {
            protocol: self.config.name,
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
    fn dctcp_single_flow_completes() {
        let c = cluster(4);
        let flows = vec![wflow(0, 0, 1, 64, 0)];
        let r = QueueFabric::new(QueueConfig::dctcp()).simulate(&c, &flows);
        let mct = r.outcomes[0].mct().as_ns_f64();
        // One packet: host + switch + wire. Order of 1 us.
        assert!((500.0..2000.0).contains(&mct), "DCTCP solo MCT {mct} ns");
    }

    #[test]
    fn all_protocols_complete_all_flows() {
        let c = cluster(8);
        let flows: Vec<Flow> = (0..20)
            .map(|i| {
                wflow(
                    i,
                    i % 4,
                    4 + (i % 4),
                    64 + (i as u32 % 7) * 100,
                    i as u64 * 50,
                )
            })
            .collect();
        for cfg in [
            QueueConfig::dctcp(),
            QueueConfig::pfabric(),
            QueueConfig::pfc_dcqcn(),
        ] {
            let r = QueueFabric::new(cfg).simulate(&c, &flows);
            assert_eq!(r.outcomes.len(), 20, "{}", cfg.name);
        }
    }

    #[test]
    fn incast_builds_queueing_delay() {
        let c = cluster(32);
        // 16-to-1 incast: FIFO queueing must inflate the later arrivals.
        let flows: Vec<Flow> = (0..16).map(|i| wflow(i, i, 31, 1000, 0)).collect();
        let r = QueueFabric::new(QueueConfig::dctcp()).simulate(&c, &flows);
        let solo = {
            let f = vec![wflow(0, 0, 31, 1000, 0)];
            QueueFabric::new(QueueConfig::dctcp())
                .simulate(&c, &f)
                .outcomes[0]
                .mct()
        };
        let worst = r.outcomes.iter().map(|o| o.mct()).max().unwrap();
        assert!(
            worst.as_ns_f64() > 1.5 * solo.as_ns_f64(),
            "incast should queue: worst {worst} vs solo {solo}"
        );
    }

    #[test]
    fn pfabric_finishes_mouse_before_elephant() {
        let c = cluster(4);
        let flows = vec![
            wflow(0, 0, 2, 200_000, 0), // elephant
            wflow(1, 1, 2, 1000, 100),  // mouse
        ];
        let r = QueueFabric::new(QueueConfig::pfabric()).simulate(&c, &flows);
        assert!(
            r.outcomes[1].completed < r.outcomes[0].completed,
            "SRPT must finish the mouse first"
        );
    }

    #[test]
    fn pfc_is_lossless() {
        let c = cluster(32);
        let flows: Vec<Flow> = (0..24).map(|i| wflow(i, i, 31, 20_000, 0)).collect();
        let mut fab = QueueFabric::new(QueueConfig::pfc_dcqcn());
        let r = fab.simulate(&c, &flows);
        // Conservation: every flow delivered exactly its size (no dangling
        // retransmissions => completion implies full delivery).
        assert_eq!(r.outcomes.len(), 24);
    }

    #[test]
    fn severe_incast_hurts_dctcp_more_than_pfabric_mice() {
        let c = cluster(64);
        // 32 senders, one receiver, short messages: DCTCP queues FIFO,
        // pFabric serves SRPT so the short ones get out fast.
        let flows: Vec<Flow> = (0..32).map(|i| wflow(i, i, 63, 640, 0)).collect();
        let dctcp = QueueFabric::new(QueueConfig::dctcp()).simulate(&c, &flows);
        let pfab = QueueFabric::new(QueueConfig::pfabric()).simulate(&c, &flows);
        let mean = |r: &SimResult| {
            r.outcomes.iter().map(|o| o.mct().as_ns_f64()).sum::<f64>() / r.outcomes.len() as f64
        };
        // Uniform sizes: both serialize, so means are comparable; pFabric
        // must not be pathologically worse.
        assert!(mean(&pfab) <= mean(&dctcp) * 1.5);
    }

    #[test]
    fn read_flows_travel_reverse_direction() {
        let c = cluster(4);
        let flows = vec![Flow {
            id: 0,
            src: 0,
            dst: 1,
            size: 64,
            arrival: Time::ZERO,
            kind: FlowKind::Read,
        }];
        let r = QueueFabric::new(QueueConfig::dctcp()).simulate(&c, &flows);
        // Read = request hop + response flow: strictly slower than a write.
        let w = vec![wflow(0, 1, 0, 64, 0)];
        let rw = QueueFabric::new(QueueConfig::dctcp()).simulate(&c, &w);
        assert!(r.outcomes[0].mct() > rw.outcomes[0].mct());
    }
}
