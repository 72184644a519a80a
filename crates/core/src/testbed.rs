//! A functional end-to-end EDM fabric: compute nodes, an EDM switch running
//! the real PIM scheduler, and memory nodes backed by the DDR4 controller —
//! the software twin of the paper's three-FPGA testbed (Figure 4).
//!
//! Data really moves: a remote read returns the bytes previously written,
//! RMWs are atomic, writes land in the memory node's DRAM. Timing composes
//! the per-stage cycle model of [`crate::stack`] with transmission,
//! propagation, and PMA/PMD constants, so the measured unloaded latency
//! reproduces Table 1 (~300 ns for 64 B accesses) while the payloads stay
//! real.
//!
//! Transport follows §3.1.1 exactly:
//!
//! * a WREQ sends an explicit `/N/` and waits for `/G/` grants, one chunk
//!   per grant;
//! * an RREQ travels immediately — the switch buffers it as the implicit
//!   demand notification, and *forwarding the RREQ to the memory node is
//!   itself the first grant* for the RRES; later RRES chunks get `/G/`s;
//! * the switch forwards data chunks through pre-established virtual
//!   circuits (no L2 processing), cut-through at block granularity;
//! * the switch holds at most X = 3 notifications per (src, dst) pair;
//!   demand past X waits in the sender's FIFO and is announced, in order,
//!   as the pair's earlier messages complete.
//!
//! The switch's scheduler sits behind the same [`SwitchDomain`] — offer,
//! poll, deliver — as every other EDM world's.

use crate::latency::physical::{PMA_PMD_PASS, PROPAGATION};
use crate::message::MemOp;
use crate::sim::{DomainOffer, SwitchDomain};
use crate::stack;
use edm_memory::rmw::RmwOp;
use edm_memory::MemoryController;
use edm_phy::mem_codec;
use edm_sched::{Policy, SchedulerConfig};
use edm_sim::{Bandwidth, Duration, Engine, EventQueue, Time, World};

/// Identifies a node (== its switch port).
pub type NodeId = u16;

/// X: active notifications the switch holds per (src, dst) pair (§3.1.1).
const MAX_ACTIVE_PER_PAIR: usize = 3;

/// Configuration of the testbed fabric.
#[derive(Debug, Clone, Copy)]
pub struct TestbedConfig {
    /// Number of nodes attached to the switch.
    pub nodes: usize,
    /// Link bandwidth (the prototype uses 25 GbE).
    pub link: Bandwidth,
    /// Scheduler chunk size in bytes.
    pub chunk_bytes: u32,
    /// Scheduling policy.
    pub policy: Policy,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            nodes: 2,
            link: Bandwidth::from_gbps(25),
            chunk_bytes: 256,
            policy: Policy::Srpt,
        }
    }
}

/// A completed remote operation, with timestamps for latency accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The node that issued the operation.
    pub issuer: NodeId,
    /// Kind tag: `"read"`, `"write"`, or `"rmw"`.
    pub kind: &'static str,
    /// Application-assigned operation id.
    pub op_id: u64,
    /// When the application issued it.
    pub issued: Time,
    /// When it completed (data delivered / write landed).
    pub completed: Time,
    /// Returned data (read data or RMW original value; empty for writes).
    pub data: Vec<u8>,
}

impl Completion {
    /// End-to-end latency.
    pub fn latency(&self) -> Duration {
        self.completed.saturating_since(self.issued)
    }
}

/// Packets exchanged on the wire (transaction-level view of block runs).
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum Pkt {
    /// `/N/` — explicit write-demand notification.
    Notify { size: u32 },
    /// `/G/` — grant for the next chunk of a message.
    Grant { chunk: u32 },
    /// An RREQ/RMWREQ `/M*/` run (also the implicit notification/grant).
    Request { op: MemOp },
    /// One granted chunk of a WREQ or an RRES (the op says which).
    Data {
        offset: u32,
        data: Vec<u8>,
        last: bool,
    },
}

impl Pkt {
    /// Wire size in PHY blocks.
    fn blocks(&self) -> u64 {
        match self {
            Pkt::Notify { .. } | Pkt::Grant { .. } => 1,
            Pkt::Request { op } => {
                mem_codec::blocks_for_message(op.nominal_bytes() as usize) as u64
            }
            Pkt::Data { data, .. } => mem_codec::blocks_for_message(data.len()) as u64,
        }
    }
}

/// DES events (public only because `Testbed: World` exposes the type).
/// `msg` names the op a packet belongs to.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum Ev {
    /// Application issues an operation at a node.
    App {
        node: NodeId,
        peer: NodeId,
        op: MemOp,
        op_id: u64,
    },
    /// A packet arrives at the switch from `src`.
    SwitchRx {
        src: NodeId,
        dst: NodeId,
        msg: u32,
        pkt: Pkt,
    },
    /// A packet arrives at node `node`.
    NodeRx { node: NodeId, msg: u32, pkt: Pkt },
    /// A scheduling round the switch's domain asked for.
    Poll,
}

/// One remote operation from issue to completion: what the issuer, the
/// switch and the memory node keep about it.
#[derive(Debug)]
struct Op {
    op_id: u64,
    issued: Time,
    kind: &'static str,
    issuer: NodeId,
    peer: NodeId,
    /// Where a write lands.
    addr: u64,
    /// The data message's bytes — the writer's data, or the memory node's
    /// staged RRES — and how many of them have been sent.
    payload: Vec<u8>,
    sent: u32,
    /// The RREQ/RMWREQ the switch keeps until the RRES's first grant.
    request: Option<MemOp>,
    /// The issuer's receive buffer for the RRES.
    received: Vec<u8>,
    /// The data message's switch-domain slot, known from its first grant.
    slot: u32,
}

impl Op {
    fn is_write(&self) -> bool {
        self.kind == "write"
    }

    /// (sender, receiver) of the data message: WREQ or RRES.
    fn data_ends(&self) -> (NodeId, NodeId) {
        if self.is_write() {
            (self.issuer, self.peer)
        } else {
            (self.peer, self.issuer)
        }
    }
}

/// Every node's uplink and the switch's downlinks, each busy until its
/// last serialized block has left.
#[derive(Debug)]
struct Links {
    link: Bandwidth,
    up_free_at: Vec<Time>,
    down_free_at: Vec<Time>,
}

impl Links {
    /// Serializes `pkt` on a link free from `*free_at`, after `cycles` of
    /// EDM logic plus the PCS; returns when it reaches the far end (TX
    /// PMA/PMD + propagation + RX PMA/PMD later).
    fn transmit(link: Bandwidth, free_at: &mut Time, now: Time, cycles: u64, pkt: &Pkt) -> Time {
        let depart = now.max(*free_at) + stack::cycles(cycles + stack::PCS_PASS);
        // Serialization at 66 bits per block on the line.
        let ser = link.tx_time_bits(pkt.blocks() * 66);
        *free_at = depart + ser;
        depart + ser + (PMA_PMD_PASS + PROPAGATION + PMA_PMD_PASS)
    }

    #[allow(clippy::too_many_arguments)]
    fn send_up(
        &mut self,
        now: Time,
        q: &mut EventQueue<Ev>,
        src: NodeId,
        dst: NodeId,
        msg: u32,
        pkt: Pkt,
        cycles: u64,
    ) {
        let free_at = &mut self.up_free_at[src as usize];
        let at = Self::transmit(self.link, free_at, now, cycles, &pkt);
        q.schedule(at, Ev::SwitchRx { src, dst, msg, pkt });
    }

    fn send_down(&mut self, now: Time, q: &mut EventQueue<Ev>, node: NodeId, msg: u32, pkt: Pkt) {
        let free_at = &mut self.down_free_at[node as usize];
        let at = Self::transmit(self.link, free_at, now, 0, &pkt);
        q.schedule(at, Ev::NodeRx { node, msg, pkt });
    }
}

/// The testbed world.
pub struct Testbed {
    config: TestbedConfig,
    memories: Vec<MemoryController>,
    domain: SwitchDomain,
    links: Links,
    /// Ops in flight, indexed by the `msg` their packets carry (also their
    /// domain offer token); retired indices wait in `free`.
    ops: Vec<Option<Op>>,
    free: Vec<u32>,
    completions: Vec<Completion>,
    next_op_id: u64,
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("nodes", &self.memories.len())
            .field("completions", &self.completions.len())
            .finish()
    }
}

/// Queues the `Poll` event the switch's domain asked for, if it asked.
fn schedule_poll(q: &mut EventQueue<Ev>, at: Option<Time>) {
    if let Some(t) = at {
        q.schedule(t, Ev::Poll);
    }
}

impl Testbed {
    /// Creates a testbed with `config.nodes` nodes, each with local DDR4.
    pub fn new(config: TestbedConfig) -> Self {
        let sched_cfg = SchedulerConfig {
            ports: config.nodes,
            chunk_bytes: config.chunk_bytes,
            link: config.link,
            policy: config.policy,
            max_active_per_pair: MAX_ACTIVE_PER_PAIR,
            clock: edm_sched::ASIC_CLOCK,
        };
        Testbed {
            memories: (0..config.nodes)
                .map(|_| MemoryController::ddr4())
                .collect(),
            domain: SwitchDomain::new(sched_cfg, false),
            links: Links {
                link: config.link,
                up_free_at: vec![Time::ZERO; config.nodes],
                down_free_at: vec![Time::ZERO; config.nodes],
            },
            ops: Vec::new(),
            free: Vec::new(),
            completions: Vec::new(),
            next_op_id: 0,
            config,
        }
    }

    /// Completed operations so far.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Direct access to a node's memory controller (test setup).
    pub fn memory_mut(&mut self, node: NodeId) -> &mut MemoryController {
        &mut self.memories[node as usize]
    }

    fn op_mut(&mut self, msg: u32) -> &mut Op {
        self.ops[msg as usize]
            .as_mut()
            .expect("packet of a live op")
    }

    fn handle_app(
        &mut self,
        now: Time,
        q: &mut EventQueue<Ev>,
        node: NodeId,
        peer: NodeId,
        op: MemOp,
        op_id: u64,
    ) {
        // Requests (reads, RMWs) travel immediately; writes notify first.
        let (kind, addr, payload, pkt) = match op {
            MemOp::Write { addr, data } => {
                let size = data.len() as u32;
                ("write", addr, data, Pkt::Notify { size })
            }
            MemOp::Read { .. } => ("read", 0, Vec::new(), Pkt::Request { op }),
            MemOp::Rmw { .. } => ("rmw", 0, Vec::new(), Pkt::Request { op }),
            MemOp::ReadResponse { .. } => panic!("applications issue requests, not responses"),
        };
        let op = Some(Op {
            op_id,
            issued: now,
            kind,
            issuer: node,
            peer,
            addr,
            payload,
            sent: 0,
            request: None,
            received: Vec::new(),
            slot: 0,
        });
        let msg = match self.free.pop() {
            Some(msg) => {
                self.ops[msg as usize] = op;
                msg
            }
            None => {
                self.ops.push(op);
                self.ops.len() as u32 - 1
            }
        };
        let cycles = stack::host::GEN_NOTIFY_OR_RREQ;
        self.links.send_up(now, q, node, peer, msg, pkt, cycles);
    }

    fn handle_switch_rx(
        &mut self,
        now: Time,
        q: &mut EventQueue<Ev>,
        src: NodeId,
        dst: NodeId,
        msg: u32,
        pkt: Pkt,
    ) {
        let rx_cost = stack::cycles(stack::PCS_PASS + stack::switch::IDENTIFY);
        let t = now + rx_cost + stack::cycles(stack::switch::ENQUEUE_NOTIFICATION);
        let offer = |src, dst, bytes| DomainOffer {
            src,
            dst,
            bytes,
            limit: MAX_ACTIVE_PER_PAIR,
            batch_key: 0,
            token: msg as u64,
        };
        match pkt {
            Pkt::Notify { size } => schedule_poll(q, self.domain.offer(t, offer(src, dst, size))),
            Pkt::Request { op } => {
                // Implicit notification: demand for the RRES (dst -> src).
                // The switch keeps the request; the first grant releases it.
                let rres_size = op
                    .response_bytes()
                    .expect("requests carried to the switch elicit responses");
                self.op_mut(msg).request = Some(op);
                schedule_poll(q, self.domain.offer(t, offer(dst, src, rres_size)));
            }
            Pkt::Grant { .. } => unreachable!("grants originate at the switch"),
            Pkt::Data { ref data, .. } => {
                // Data path: forward through the virtual circuit. The
                // domain counts the bytes to retire the message.
                let (slot, bytes) = (self.op_mut(msg).slot, data.len() as u32);
                schedule_poll(q, self.domain.deliver(now, slot, bytes, |_, _| {}));
                let t = now + stack::cycles(stack::PCS_PASS + stack::switch::FORWARD);
                self.links.send_down(t, q, dst, msg, pkt);
            }
        }
    }

    fn handle_poll(&mut self, now: Time, q: &mut EventQueue<Ev>) {
        let Testbed {
            domain, ops, links, ..
        } = self;
        let Some(round) = domain.poll(now) else {
            return;
        };
        let t = now + round.sched_latency + stack::cycles(stack::switch::GEN_GRANT);
        for g in round.grants {
            let msg = g.token as u32;
            let op = ops[msg as usize].as_mut().expect("grant for a live op");
            op.slot = g.slot;
            let pkt = match op.request.take() {
                // First grant for an RRES: forward the kept RREQ itself.
                Some(op) => Pkt::Request { op },
                None => Pkt::Grant {
                    chunk: g.chunk_bytes,
                },
            };
            links.send_down(t, q, g.src, msg, pkt);
        }
        schedule_poll(q, round.next_poll);
    }

    fn handle_node_rx(
        &mut self,
        now: Time,
        q: &mut EventQueue<Ev>,
        node: NodeId,
        msg: u32,
        pkt: Pkt,
    ) {
        let rx_base = stack::cycles(stack::PCS_PASS);
        match pkt {
            Pkt::Request { op } => {
                // Memory node: serve the request. The RREQ's arrival is the
                // implicit grant for the first RRES chunk.
                let t_proc = now + rx_base + stack::cycles(stack::host::RX_RREQ);
                let memory = &mut self.memories[node as usize];
                let (data, timing) = match op {
                    MemOp::Read { addr, len } => memory.read(t_proc, addr, len as usize),
                    MemOp::Rmw { addr, op } => {
                        let (orig, timing) =
                            memory.rmw(t_proc, edm_memory::RmwRequest { addr, op });
                        (orig.to_le_bytes().to_vec(), timing)
                    }
                    _ => panic!("only reads/RMWs travel as requests"),
                };
                self.op_mut(msg).payload = data;
                self.send_next_chunk(timing.complete, q, msg, self.config.chunk_bytes);
            }
            Pkt::Grant { chunk } => {
                // A grant continues an RRES (we are the memory node) or a
                // WREQ (we are the writer).
                let grant_cost =
                    rx_base + stack::cycles(stack::host::RX_GRANT + stack::host::READ_GRANT_QUEUE);
                self.send_next_chunk(now + grant_cost, q, msg, chunk);
            }
            Pkt::Data { offset, data, last } => {
                let t = now + rx_base + stack::cycles(stack::host::RX_DATA);
                let op = self.ops[msg as usize].as_mut().expect("chunk of a live op");
                let done = if op.is_write() {
                    let at = op.addr + offset as u64;
                    self.memories[node as usize].write(t, at, &data).complete
                } else {
                    debug_assert_eq!(op.received.len(), offset as usize, "in-order chunks");
                    op.received.extend_from_slice(&data);
                    t
                };
                if last {
                    self.complete(msg, done);
                }
            }
            Pkt::Notify { .. } => unreachable!("notifications terminate at the switch"),
        }
    }

    /// Sends the next granted chunk of op `msg`'s data message.
    fn send_next_chunk(&mut self, now: Time, q: &mut EventQueue<Ev>, msg: u32, chunk: u32) {
        let op = self.op_mut(msg);
        let (offset, total) = (op.sent, op.payload.len() as u32);
        let n = chunk.min(total - offset);
        let data = op.payload[offset as usize..(offset + n) as usize].to_vec();
        op.sent += n;
        let last = op.sent >= total;
        let (src, dst) = op.data_ends();
        let pkt = Pkt::Data { offset, data, last };
        self.links
            .send_up(now, q, src, dst, msg, pkt, stack::host::GEN_DATA_BLOCK);
    }

    /// Retires op `msg`, recording its completion at `at`.
    fn complete(&mut self, msg: u32, at: Time) {
        let op = self.ops[msg as usize].take().expect("completes once");
        self.free.push(msg);
        self.completions.push(Completion {
            issuer: op.issuer,
            kind: op.kind,
            op_id: op.op_id,
            issued: op.issued,
            completed: at,
            data: op.received,
        });
    }
}

impl World for Testbed {
    type Event = Ev;

    fn handle(&mut self, now: Time, ev: Ev, q: &mut EventQueue<Ev>) {
        match ev {
            Ev::App {
                node,
                peer,
                op,
                op_id,
            } => self.handle_app(now, q, node, peer, op, op_id),
            Ev::SwitchRx { src, dst, msg, pkt } => {
                self.handle_switch_rx(now, q, src, dst, msg, pkt)
            }
            Ev::NodeRx { node, msg, pkt } => self.handle_node_rx(now, q, node, msg, pkt),
            Ev::Poll => self.handle_poll(now, q),
        }
    }
}

/// A convenient driver around [`Testbed`] + [`Engine`].
pub struct Fabric {
    engine: Engine<Testbed>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric").finish_non_exhaustive()
    }
}

impl Fabric {
    /// Builds a fabric from the testbed configuration.
    pub fn new(config: TestbedConfig) -> Self {
        Fabric {
            engine: Engine::new(Testbed::new(config)),
        }
    }

    /// Pre-populates `node`'s local memory (before running traffic).
    pub fn seed_memory(&mut self, node: NodeId, addr: u64, data: &[u8]) {
        self.engine
            .world_mut()
            .memory_mut(node)
            .store_mut()
            .write(addr, data);
    }

    /// Issues a remote read from `node` to `peer` at time `at`.
    /// Returns the operation id.
    pub fn read(&mut self, at: Time, node: NodeId, peer: NodeId, addr: u64, len: u32) -> u64 {
        self.issue(at, node, peer, MemOp::Read { addr, len })
    }

    /// Issues a remote write.
    pub fn write(&mut self, at: Time, node: NodeId, peer: NodeId, addr: u64, data: Vec<u8>) -> u64 {
        self.issue(at, node, peer, MemOp::Write { addr, data })
    }

    /// Issues a remote atomic RMW.
    pub fn rmw(&mut self, at: Time, node: NodeId, peer: NodeId, addr: u64, op: RmwOp) -> u64 {
        self.issue(at, node, peer, MemOp::Rmw { addr, op })
    }

    fn issue(&mut self, at: Time, node: NodeId, peer: NodeId, op: MemOp) -> u64 {
        let world = self.engine.world_mut();
        let op_id = world.next_op_id;
        world.next_op_id += 1;
        self.engine.queue_mut().schedule(
            at,
            Ev::App {
                node,
                peer,
                op,
                op_id,
            },
        );
        op_id
    }

    /// Runs the fabric until all events drain.
    pub fn run(&mut self) {
        self.engine.run();
    }

    /// Completions recorded so far.
    pub fn completions(&self) -> &[Completion] {
        self.engine.world().completions()
    }

    /// The completion with the given op id, if finished.
    pub fn completion(&self, op_id: u64) -> Option<&Completion> {
        self.completions().iter().find(|c| c.op_id == op_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_seeded_data() {
        let mut f = Fabric::new(TestbedConfig::default());
        f.seed_memory(1, 0x1000, &[7u8; 64]);
        let id = f.read(Time::ZERO, 0, 1, 0x1000, 64);
        f.run();
        let c = f.completion(id).expect("read completed");
        assert_eq!(c.data, vec![7u8; 64]);
        assert_eq!(c.kind, "read");
    }

    #[test]
    fn write_lands_then_read_sees_it() {
        let mut f = Fabric::new(TestbedConfig::default());
        let w = f.write(Time::ZERO, 0, 1, 0x2000, vec![9u8; 64]);
        let r = f.read(Time::from_us(5), 0, 1, 0x2000, 64);
        f.run();
        assert!(f.completion(w).is_some());
        assert_eq!(f.completion(r).unwrap().data, vec![9u8; 64]);
    }

    #[test]
    fn unloaded_read_latency_near_table1() {
        let mut f = Fabric::new(TestbedConfig::default());
        f.seed_memory(1, 0, &[1u8; 64]);
        let id = f.read(Time::ZERO, 0, 1, 0, 64);
        f.run();
        let ns = f.completion(id).unwrap().latency().as_ns_f64();
        // Table 1 pipeline latency is 299.52 ns; a full 64 B transaction
        // additionally pays message serialization and the DRAM access,
        // so the end-to-end figure lands a bit above — still ~300 ns,
        // an order of magnitude below RoCEv2's ~2 us.
        assert!(
            (290.0..420.0).contains(&ns),
            "unloaded 64 B read latency {ns} ns"
        );
    }

    #[test]
    fn unloaded_write_latency_near_table1() {
        let mut f = Fabric::new(TestbedConfig::default());
        let id = f.write(Time::ZERO, 0, 1, 0, vec![2u8; 64]);
        f.run();
        let ns = f.completion(id).unwrap().latency().as_ns_f64();
        assert!(
            (290.0..420.0).contains(&ns),
            "unloaded 64 B write latency {ns} ns"
        );
    }

    #[test]
    fn rmw_cas_is_atomic_over_fabric() {
        let mut f = Fabric::new(TestbedConfig::default());
        // Lock word at 0x100 starts 0. Two CAS race from node 0.
        let a = f.rmw(
            Time::ZERO,
            0,
            1,
            0x100,
            RmwOp::CompareAndSwap {
                expected: 0,
                desired: 1,
            },
        );
        let b = f.rmw(
            Time::from_ns(1),
            0,
            1,
            0x100,
            RmwOp::CompareAndSwap {
                expected: 0,
                desired: 2,
            },
        );
        f.run();
        let ra = u64::from_le_bytes(f.completion(a).unwrap().data.clone().try_into().unwrap());
        let rb = u64::from_le_bytes(f.completion(b).unwrap().data.clone().try_into().unwrap());
        // Exactly one saw 0 (success).
        assert!((ra == 0) ^ (rb == 0), "ra={ra} rb={rb}");
    }

    #[test]
    fn large_read_is_chunked_and_complete() {
        let mut f = Fabric::new(TestbedConfig::default());
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        f.seed_memory(1, 0x8000, &data);
        let id = f.read(Time::ZERO, 0, 1, 0x8000, 4096);
        f.run();
        assert_eq!(f.completion(id).unwrap().data, data);
    }

    #[test]
    fn large_write_chunks_land_in_order() {
        let mut f = Fabric::new(TestbedConfig::default());
        let data: Vec<u8> = (0..2048).map(|i| (i % 199) as u8).collect();
        let w = f.write(Time::ZERO, 0, 1, 0x4000, data.clone());
        let r = f.read(Time::from_us(20), 0, 1, 0x4000, 2048);
        f.run();
        assert!(f.completion(w).is_some());
        assert_eq!(f.completion(r).unwrap().data, data);
    }

    #[test]
    fn concurrent_reads_from_two_nodes() {
        let mut f = Fabric::new(TestbedConfig {
            nodes: 3,
            ..TestbedConfig::default()
        });
        f.seed_memory(2, 0, &[5u8; 64]);
        let a = f.read(Time::ZERO, 0, 2, 0, 64);
        let b = f.read(Time::ZERO, 1, 2, 0, 64);
        f.run();
        assert_eq!(f.completion(a).unwrap().data, vec![5u8; 64]);
        assert_eq!(f.completion(b).unwrap().data, vec![5u8; 64]);
    }

    #[test]
    fn reads_and_writes_have_similar_unloaded_latency() {
        // Table 1: 299.52 vs 296.96 ns — within a few percent.
        let mut f = Fabric::new(TestbedConfig::default());
        f.seed_memory(1, 0, &[0u8; 64]);
        let r = f.read(Time::ZERO, 0, 1, 0, 64);
        let w = f.write(Time::from_us(10), 0, 1, 0x900, vec![0u8; 64]);
        f.run();
        let lr = f.completion(r).unwrap().latency().as_ns_f64();
        let lw = f.completion(w).unwrap().latency().as_ns_f64();
        assert!(
            (lr - lw).abs() / lr < 0.25,
            "read {lr} ns vs write {lw} ns diverge"
        );
    }

    /// 1 KiB of bytes distinct per `i`.
    fn kib(i: u64) -> Vec<u8> {
        (0..1024u64).map(|b| (i * 37 + b) as u8).collect()
    }

    #[test]
    fn same_pair_burst_beyond_x_completes() {
        // X = 3: the fourth and later same-pair messages wait at the sender.
        for n in [4u64, 8] {
            let mut f = Fabric::new(TestbedConfig::default());
            for i in 0..n {
                f.seed_memory(1, i * 0x1000, &kib(i));
            }
            let reads: Vec<u64> = (0..n)
                .map(|i| f.read(Time::ZERO, 0, 1, i * 0x1000, 1024))
                .collect();
            f.run();
            for (i, id) in (0..n).zip(reads) {
                assert_eq!(f.completion(id).expect("read completed").data, kib(i));
            }

            let mut f = Fabric::new(TestbedConfig::default());
            let writes: Vec<u64> = (0..n)
                .map(|i| f.write(Time::ZERO, 0, 1, i * 0x1000, kib(n + i)))
                .collect();
            f.run();
            assert!(writes.iter().all(|&id| f.completion(id).is_some()));
            let back: Vec<u64> = (0..n)
                .map(|i| f.read(Time::from_us(100), 0, 1, i * 0x1000, 1024))
                .collect();
            f.run();
            for (i, id) in (0..n).zip(back) {
                assert_eq!(
                    f.completion(id).expect("read-back completed").data,
                    kib(n + i)
                );
            }
        }
    }

    #[test]
    fn msg_ids_never_alias_live_ops() {
        // 297 reads outstanding from node 0 at once: more ops than a u8
        // message id can name.
        let mut f = Fabric::new(TestbedConfig {
            nodes: 100,
            ..TestbedConfig::default()
        });
        let line = |peer: u16, k: u64| -> Vec<u8> {
            (0..64u64)
                .map(|b| (peer as u64 * 7 + k * 64 + b) as u8)
                .collect()
        };
        let mut reads = Vec::new();
        for peer in 1..100u16 {
            for k in 0..3 {
                f.seed_memory(peer, k * 64, &line(peer, k));
                reads.push((f.read(Time::ZERO, 0, peer, k * 64, 64), peer, k));
            }
        }
        f.run();
        assert_eq!(f.completions().len(), reads.len());
        for (id, peer, k) in reads {
            assert_eq!(
                f.completion(id).expect("read completed").data,
                line(peer, k)
            );
        }
    }
}
