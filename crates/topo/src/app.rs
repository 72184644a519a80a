//! The closed-loop application tier: tenants driving YCSB ops over the
//! fabric against remote memory nodes, with the memory tier in the loop.
//!
//! # Model
//!
//! `N` tenants ([`TenantSpec`]) run on compute nodes of a [`Topology`].
//! Each keeps at most `mlp` operations outstanding and samples its next
//! op from a YCSB mix ([`edm_workloads::OpMix`]): remote reads, remote
//! updates, NIC-side RMWs (§3.2.1), or local-DRAM accesses (the
//! local:remote split). An op's *arrival time is an output*: completion
//! of a previous op (plus an exponential think time) triggers the next
//! issue, so offered load adapts to fabric and DRAM backpressure exactly
//! the way a real application's bounded MLP window does.
//!
//! Every remote op pays three tiers:
//!
//! 1. **Fabric, request leg.** Reads and RMWs send an 8 B control block
//!    (RREQ/RMWREQ) that rides repurposed IFG slots (§3.2) — latency but
//!    no scheduling, composed by `control_flight`. Updates carry a
//!    payload, so the request is a real [`Flow`] through the per-switch
//!    demand-sparse scheduler.
//! 2. **Memory service.** At the memory node the op pays DDR4 time in a
//!    [`MemoryService`] (banked open-page contention shared by every
//!    tenant hitting that node — hot Zipf keys collide on real banks).
//! 3. **Fabric, response leg.** Reads return `object_bytes` as a
//!    scheduled flow; updates and RMWs return control-block acks.
//!
//! Both legs go through one step, `send_leg`: a leg that carries a
//! payload (an update's request, a read's response) is a scheduled flow
//! under EDM, any other leg a control block or, under CXL-oE, a frame.
//! Whichever it is, its arrival or its failure becomes the op's next
//! event in one place, `leg_end`: an arrived request reaches the memory
//! controller after the NIC delay (`Service`); an arrived response, or
//! any failed leg, reaches the tenant after the completion delay
//! (`Done`). A flow leg gets there from `app_flow_done`, the others at
//! once.
//!
//! Completion then drives the tenant's next arrival. Request→response
//! latency lands in bounded-memory [`LogHistogram`]s, plus one
//! [`WindowSeries`] of completions, bytes and failures — resident state
//! is O(active ops + active flows), never O(total ops), so million-op
//! campaigns stream like the flow-level ones.
//!
//! # Determinism
//!
//! The tier is app state inside the run's `TopoWorld`, advanced by
//! `Issue`/`Service`/`Done` events whose order keys (`evord::app_*`)
//! sort after all fabric ranks at one instant — the app observes a
//! settled fabric. Flow-terminal hooks only write per-op state and
//! schedule events under those keys; all RNG draws, tenant accounting,
//! and stats recording happen inside the keyed events, so a run is a
//! pure function of its config (pinned by `prop_app`).
//!
//! # The CXL-over-Ethernet baseline
//!
//! [`AppTransport::CxlOe`] swaps the fabric tiers for a store-and-forward
//! Ethernet transport on the *identical* topology and routes: every leg
//! (requests, responses, and both RMW directions) is a framed message
//! serialized hop by hop through per-link full-duplex lanes with a
//! per-switch forwarding delay and per-end host/adapter latency — the
//! tunneled-CXL design EDM's Figure 7 compares against. Memory service
//! and the closed loop are shared, so EDM vs CXL-oE differences are
//! transport-only.

use crate::topology::{Endpoint, Topology};
use crate::world::{
    access_half, link_lat, tx8, Finished, Input, NoSource, TopoEdm, TopoEdmConfig, TopoEv,
    TopoOutcome, TopoStreamStats, TopoWorld,
};
use edm_core::sim::{evord, Flow, FlowKind};
use edm_memory::{DramConfig, MemoryService, KV_SLOT_HEADER};
use edm_sim::rng::Zipf;
use edm_sim::{Duration, EventQueue, LogHistogram, Rng, Time, WindowSeries};
use edm_workloads::{OpKind, TenantSpec};
use std::collections::HashMap;

/// Type of the absent sink in app runs (outcomes are consumed by the
/// app state, not a callback).
type NoSink = fn(u32, TopoOutcome);
const NO_SINK: Option<NoSink> = None;

/// Which transport carries the ops of a closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppTransport {
    /// The EDM fabric: scheduled flows for payloads, IFG control blocks
    /// for requests/acks (`control_flight`).
    Edm,
    /// Store-and-forward CXL-over-Ethernet on the same topology.
    CxlOe,
}

// Constants of the CXL-over-Ethernet baseline transport, calibrated
// against the latency stack the analytic baselines use (`edm-baselines`'
// tunneled-CXL read of ~330 ns with ~100 ns per extra switch).

/// CXL-oE adapter + CXL-port + stack latency paid at *each* host end.
const CXL_HOST_LATENCY: Duration = Duration::from_ns(100);
/// CXL-oE store-and-forward forwarding latency per switch.
const CXL_SWITCH_LATENCY: Duration = Duration::from_ns(100);
/// Framing bytes CXL-oE adds to every message (Ethernet header, CRC,
/// preamble+IFG, CXL.mem tunnel header).
const CXL_FRAME_OVERHEAD: u32 = 46;

/// End-to-end latency of a local-DRAM access (Figure 7's ~82 ns: DRAM +
/// on-chip interconnect).
const LOCAL_LATENCY: Duration = Duration::from_ns(82);
/// Memory-node NIC processing between a request's arrival and the
/// controller issue.
const NIC_DELAY: Duration = Duration::from_ns(25);
/// Compute-node delay between a response's arrival and the tenant
/// observing completion.
const COMPLETION_DELAY: Duration = Duration::from_ns(25);
/// Window width of the completion/failure time series.
const STATS_WINDOW: Duration = Duration::from_us(10);

/// Configuration of a closed-loop application run.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// The tenants (any number per compute node).
    pub tenants: Vec<TenantSpec>,
    /// Nodes acting as memory servers; keys stripe across them. A tenant
    /// whose key lands on its own node serves it locally.
    pub memory_nodes: Vec<usize>,
    /// DRAM timing of every memory node.
    pub dram: DramConfig,
    /// Transport under test.
    pub transport: AppTransport,
    /// Base seed; tenant `i` samples from substream `i`.
    pub seed: u64,
}

impl AppConfig {
    /// A config over `tenants` and `memory_nodes` with the paper-aligned
    /// defaults: DDR4-2400 service, EDM transport. (Local accesses take
    /// 82 ns, NIC and completion delays 25 ns each, in every run.)
    pub fn new(tenants: Vec<TenantSpec>, memory_nodes: Vec<usize>) -> Self {
        AppConfig {
            tenants,
            memory_nodes,
            dram: DramConfig::ddr4_2400(),
            transport: AppTransport::Edm,
            seed: 1,
        }
    }

    fn validate(&self, topo: &Topology) {
        assert!(
            !self.memory_nodes.is_empty(),
            "a closed loop needs at least one memory node"
        );
        assert!(
            self.memory_nodes.iter().all(|&n| n < topo.nodes()),
            "memory node out of range"
        );
        // A repeated node would stripe keys over two `MemoryService`s for
        // one set of banks, halving its contention.
        let mut distinct = self.memory_nodes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() == self.memory_nodes.len(),
            "memory node listed twice"
        );
        for t in &self.tenants {
            assert!(t.node < topo.nodes(), "tenant node out of range");
            assert!(t.mlp >= 1, "a tenant needs a window of at least 1");
        }
    }
}

/// The result of a closed-loop run: per-op latency, windowed completions
/// and failures, memory-tier counters, and the fabric-side stream stats.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    /// Ops issued (= completed + failed at the end of the run).
    pub ops_issued: u64,
    /// Ops whose response reached the tenant.
    pub ops_completed: u64,
    /// Ops lost to partitions (fabric unroutable past the retry budget).
    pub ops_failed: u64,
    /// Request→response latency of every completed op (ps buckets).
    pub lat: LogHistogram,
    /// Latency of completed remote reads.
    pub lat_read: LogHistogram,
    /// Latency of completed remote updates.
    pub lat_update: LogHistogram,
    /// Latency of completed RMWs.
    pub lat_rmw: LogHistogram,
    /// Latency of completed local-DRAM ops.
    pub lat_local: LogHistogram,
    /// Completed ops, their payload bytes, and failed ops per 10 µs
    /// window.
    pub series: WindowSeries,
    /// Time of the last completion.
    pub makespan: Duration,
    /// Peak concurrently-outstanding ops — the O(active) memory pin.
    pub ops_high_water: usize,
    /// Summed DRAM row-buffer `(hits, misses, conflicts)` across memory
    /// nodes.
    pub dram_rows: (u64, u64, u64),
    /// Fabric-side counters of the run (flows admitted = request +
    /// response legs; empty under CXL-oE, which bypasses the scheduler).
    pub fabric: TopoStreamStats,
}

/// A closed-loop application step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AppEv {
    /// Tenant `tenant` fills its outstanding window.
    Issue {
        /// Tenant index.
        tenant: u32,
    },
    /// Op `op`'s request reached its memory node's controller.
    Service {
        /// Global op sequence number.
        op: u32,
    },
    /// Op `op`'s completion is observed by its tenant.
    Done {
        /// Global op sequence number.
        op: u32,
    },
}

/// One tenant's runtime state.
#[derive(Debug)]
struct TenantRt {
    spec: TenantSpec,
    zipf: Zipf,
    rng: Rng,
    issued: u64,
    done: u64,
    outstanding: u32,
}

/// The two fabric legs of a remote op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    /// Compute node → memory node.
    Request,
    /// Memory node → compute node.
    Response,
}

/// One in-flight op (removed at `Done`).
#[derive(Debug, Clone, Copy)]
struct OpRt {
    tenant: u32,
    kind: OpKind,
    /// Index into `memory_nodes` (unused for local ops).
    mem: u32,
    /// Slot address on that node.
    addr: u64,
    issued: Time,
    failed: bool,
}

/// The store-and-forward CXL-over-Ethernet transport: per-(link,
/// direction) busy horizons, advanced only from app events.
///
/// Each message claims its full serialization on every lane of its route
/// at issue time (a flow-level future-claim approximation of per-frame
/// interleaving: contending messages serialize in issue order, which is
/// deterministic and conservative for the FIFO lanes modeled here).
#[derive(Debug, Clone, PartialEq)]
struct CxlNet {
    /// `busy[link * 2 + dir]`: when that directed lane frees up.
    busy: Vec<Time>,
}

impl CxlNet {
    fn new(links: usize) -> Self {
        CxlNet {
            busy: vec![Time::ZERO; links * 2],
        }
    }

    /// Serializes `bytes` onto `link` in direction `dir` no earlier than
    /// `t`; returns when the last byte reaches the far end.
    fn cross(&mut self, topo: &Topology, link: u32, dir: usize, t: Time, bytes: u32) -> Time {
        let lane = link as usize * 2 + dir;
        let tx = topo.link(link).params.bandwidth.tx_time_bytes(bytes as u64);
        let begin = self.busy[lane].max(t);
        self.busy[lane] = begin + tx;
        begin + tx + link_lat(topo, link)
    }

    /// Carries a `payload`-byte message from node `from` to node `to`
    /// starting at `start`, store-and-forward per switch. `None` when
    /// the topology cannot route it (partition).
    fn traverse(
        &mut self,
        topo: &Topology,
        from: usize,
        to: usize,
        payload: u32,
        salt: u64,
        start: Time,
    ) -> Option<Time> {
        let path = topo.path(from, to, salt)?;
        let src_link = topo.node_link(from);
        let bytes = payload + CXL_FRAME_OVERHEAD;
        let mut t = start + CXL_HOST_LATENCY;
        t = self.cross(
            topo,
            src_link,
            dir_from_node(topo, src_link, from),
            t,
            bytes,
        );
        for (switch, out_link) in path.iter() {
            t += CXL_SWITCH_LATENCY;
            t = self.cross(
                topo,
                out_link,
                dir_from_switch(topo, out_link, switch),
                t,
                bytes,
            );
        }
        Some(t + CXL_HOST_LATENCY)
    }
}

/// Lane direction for a crossing transmitted by `node` (access links:
/// 0 = up toward the leaf).
fn dir_from_node(topo: &Topology, link: u32, node: usize) -> usize {
    match topo.link(link).a {
        Endpoint::Node(n) if n as usize == node => 0,
        _ => 1,
    }
}

/// Lane direction for a crossing transmitted by switch `sw`.
fn dir_from_switch(topo: &Topology, link: u32, sw: u32) -> usize {
    match topo.link(link).a {
        Endpoint::Port { switch, .. } if switch == sw => 0,
        _ => 1,
    }
}

/// One-way flight of an 8 B control block from node `from` to node `to`:
/// the access half at the source, per-hop forwarding + link flight +
/// serialization, and the ingress pipeline half at the destination.
/// Control blocks ride repurposed IFG slots (§3.2) — latency, no
/// scheduling. `None` on partition.
pub(crate) fn control_flight(
    cfg: &TopoEdmConfig,
    topo: &Topology,
    from: usize,
    to: usize,
    salt: u64,
) -> Option<Duration> {
    let path = topo.path(from, to, salt)?;
    let mut d = access_half(cfg, topo, topo.node_link(from));
    for (_, out_link) in path.iter() {
        d = d + cfg.pipeline_latency / 2 + link_lat(topo, out_link) + tx8(topo, out_link);
    }
    Some(d + cfg.pipeline_latency / 2)
}

/// Key placement: stripe across memory nodes, fixed-slot addresses
/// within one (the `KvStore` layout: 16 B header + value capacity).
fn placement(memory_nodes: &[usize], key: u64, object_bytes: u32) -> (u32, u64) {
    let n = memory_nodes.len() as u64;
    let m = (key % n) as u32;
    let slot = key / n;
    (m, slot * (KV_SLOT_HEADER as u64 + object_bytes as u64))
}

/// The closed-loop state carried by an app run's `TopoWorld`.
#[derive(Debug)]
pub(crate) struct AppState {
    tenants: Vec<TenantRt>,
    memory_nodes: Vec<usize>,
    mems: Vec<MemoryService>,
    /// `Some` iff the transport is CXL-oE.
    cxl: Option<CxlNet>,
    /// First-issue instant per tenant (think-time sampled at build).
    start_at: Vec<Time>,
    /// In-flight ops — O(Σ mlp), never O(total ops).
    ops: HashMap<u32, OpRt>,
    /// Fabric flow id → the op and leg it carries.
    flow_op: HashMap<u32, (u32, Leg)>,
    next_op: u32,
    /// App flow ids, allocated inside app events in canonical order (the
    /// `RtMap` increasing-id invariant).
    next_flow: u32,
    ops_hwm: usize,
    issued: u64,
    completed: u64,
    failed: u64,
    lat: LogHistogram,
    lat_read: LogHistogram,
    lat_update: LogHistogram,
    lat_rmw: LogHistogram,
    lat_local: LogHistogram,
    series: WindowSeries,
    last_done: Time,
}

impl AppState {
    /// The run's initial state.
    ///
    /// # Panics
    ///
    /// On an invalid `cfg` ([`AppConfig::validate`]).
    pub(crate) fn new(cfg: &AppConfig, topo: &Topology) -> Self {
        cfg.validate(topo);
        let mut tenants = Vec::with_capacity(cfg.tenants.len());
        let mut start_at = Vec::with_capacity(cfg.tenants.len());
        for (i, &spec) in cfg.tenants.iter().enumerate() {
            let mut rng = Rng::stream(cfg.seed, i as u64);
            start_at.push(if spec.think_mean == Duration::ZERO {
                Time::ZERO
            } else {
                Time::ZERO + rng.exp_duration(spec.think_mean)
            });
            tenants.push(TenantRt {
                spec,
                zipf: Zipf::new(spec.mix.ycsb.keys, spec.mix.ycsb.zipf_theta),
                rng,
                issued: 0,
                done: 0,
                outstanding: 0,
            });
        }
        AppState {
            tenants,
            memory_nodes: cfg.memory_nodes.clone(),
            mems: cfg
                .memory_nodes
                .iter()
                .map(|_| MemoryService::new(cfg.dram))
                .collect(),
            cxl: match cfg.transport {
                AppTransport::Edm => None,
                AppTransport::CxlOe => Some(CxlNet::new(topo.links().len())),
            },
            start_at,
            ops: HashMap::new(),
            flow_op: HashMap::new(),
            next_op: 0,
            next_flow: 0,
            ops_hwm: 0,
            issued: 0,
            completed: 0,
            failed: 0,
            lat: LogHistogram::new(),
            lat_read: LogHistogram::new(),
            lat_update: LogHistogram::new(),
            lat_rmw: LogHistogram::new(),
            lat_local: LogHistogram::new(),
            series: WindowSeries::new(STATS_WINDOW),
            last_done: Time::ZERO,
        }
    }

    /// Schedules every tenant's first `Issue`.
    pub(crate) fn seed(&self, q: &mut EventQueue<TopoEv>) {
        for (i, &t) in self.start_at.iter().enumerate() {
            let tenant = i as u32;
            q.schedule_ordered(
                t,
                evord::app_issue(tenant),
                TopoEv::App(AppEv::Issue { tenant }),
            );
        }
    }

    fn insert_op(&mut self, id: u32, rec: OpRt) {
        self.ops.insert(id, rec);
        self.ops_hwm = self.ops_hwm.max(self.ops.len());
    }

    /// The report of a finished app run.
    pub(crate) fn report((fabric, state): Finished) -> AppReport {
        let app = *state.expect("app runs keep their app state");
        assert!(app.ops.is_empty(), "an op stalled without a terminal state");
        assert!(app.flow_op.is_empty(), "a leg outlived its op");
        for t in &app.tenants {
            assert_eq!(t.done, t.spec.ops, "a tenant went idle early");
        }
        assert_eq!(app.issued, app.completed + app.failed);
        AppReport {
            ops_issued: app.issued,
            ops_completed: app.completed,
            ops_failed: app.failed,
            lat: app.lat,
            lat_read: app.lat_read,
            lat_update: app.lat_update,
            lat_rmw: app.lat_rmw,
            lat_local: app.lat_local,
            series: app.series,
            makespan: app.last_done.saturating_since(Time::ZERO),
            ops_high_water: app.ops_hwm,
            dram_rows: app.mems.iter().fold((0, 0, 0), |(h, m, c), s| {
                let t = s.timing();
                (h + t.row_hits(), m + t.row_misses(), c + t.row_conflicts())
            }),
            fabric,
        }
    }
}

impl<S, I> TopoWorld<S, I>
where
    S: FnMut(u32, TopoOutcome),
    I: Iterator<Item = Flow>,
{
    /// One application-tier event.
    pub(crate) fn app_dispatch(&mut self, now: Time, ev: AppEv, q: &mut EventQueue<TopoEv>) {
        match ev {
            AppEv::Issue { tenant } => self.app_issue(now, tenant, q),
            AppEv::Service { op } => self.app_service(now, op, q),
            AppEv::Done { op } => self.app_complete(now, op, q),
        }
    }

    /// A fabric leg of an app op reached a terminal state at `t`
    /// (delivered or failed). Fires exactly once per leg, from the settle
    /// that credits its last byte or from the event that fails it. It
    /// only writes per-op state and schedules canonically-keyed events;
    /// RNG, tenant accounting, and stats live in the events themselves.
    pub(crate) fn app_flow_done(&mut self, fi: u32, t: Time, ok: bool, q: &mut EventQueue<TopoEv>) {
        let Some(app) = self.app.as_mut() else {
            return;
        };
        let Some((op, leg)) = app.flow_op.remove(&fi) else {
            return;
        };
        leg_end(app, op, leg, if ok { Ok(t) } else { Err(t) }, q);
    }

    /// Fills tenant `ti`'s outstanding window with freshly sampled ops.
    fn app_issue(&mut self, now: Time, ti: u32, q: &mut EventQueue<TopoEv>) {
        let mut app = self.app.take().expect("app events only fire on app runs");
        // Admissions are deferred until `self.app` is restored: `admit`
        // takes `&mut self`, and its unroutable-fail path re-enters
        // `app_flow_done`.
        let mut admissions: Vec<(u32, Flow)> = Vec::new();
        loop {
            let t = &mut app.tenants[ti as usize];
            let spec = t.spec;
            if t.outstanding >= spec.mlp || t.issued >= spec.ops {
                break;
            }
            t.issued += 1;
            t.outstanding += 1;
            let sample = spec.mix.sample(&t.zipf, &mut t.rng);
            let op = app.next_op;
            app.next_op += 1;
            app.issued += 1;
            let (mem, addr) = placement(&app.memory_nodes, sample.key, spec.mix.ycsb.object_bytes);
            let mem_node = app.memory_nodes[mem as usize];
            // A key striped onto the tenant's own node is a local access.
            let kind = if sample.kind != OpKind::Local && mem_node == spec.node {
                OpKind::Local
            } else {
                sample.kind
            };
            app.insert_op(
                op,
                OpRt {
                    tenant: ti,
                    kind,
                    mem,
                    addr,
                    issued: now,
                    failed: false,
                },
            );
            if kind == OpKind::Local {
                q.schedule_ordered(
                    now + LOCAL_LATENCY,
                    evord::app_done(op),
                    TopoEv::App(AppEv::Done { op }),
                );
            } else {
                admissions.extend(self.send_leg(&mut app, op, Leg::Request, now, q));
            }
        }
        self.app = Some(app);
        for (fid, flow) in admissions {
            self.admit(fid, flow, q);
        }
    }

    /// Op `op`'s request reached its memory node: pay DRAM service and
    /// launch the response leg.
    fn app_service(&mut self, now: Time, op: u32, q: &mut EventQueue<TopoEv>) {
        let mut app = self.app.take().expect("app events only fire on app runs");
        let rec = app.ops[&op];
        let ycsb = app.tenants[rec.tenant as usize].spec.mix.ycsb;
        let mem = &mut app.mems[rec.mem as usize];
        let served = match rec.kind {
            OpKind::Read => mem.get(now, rec.addr, ycsb.object_bytes as usize),
            OpKind::Update => mem.put(now, rec.addr, ycsb.update_bytes as usize),
            OpKind::Rmw => mem.rmw(now, rec.addr),
            OpKind::Local => unreachable!("local ops never reach a memory node"),
        };
        let admission = self.send_leg(&mut app, op, Leg::Response, served, q);
        self.app = Some(app);
        if let Some((fid, flow)) = admission {
            self.admit(fid, flow, q);
        }
    }

    /// Sends leg `leg` of op `op`, leaving at `start`. A leg that carries
    /// a payload (an update's request, a read's response) is a scheduled
    /// flow under EDM, returned for admission once `self.app` is back; it
    /// ends in `app_flow_done`. Any other leg ends here: an EDM control
    /// block (`control_flight`) or a CXL-oE frame of a 16 B header plus
    /// the payload (an RMWREQ's 24 B), routed with the op as salt.
    fn send_leg(
        &self,
        app: &mut AppState,
        op: u32,
        leg: Leg,
        start: Time,
        q: &mut EventQueue<TopoEv>,
    ) -> Option<(u32, Flow)> {
        let rec = app.ops[&op];
        let spec = app.tenants[rec.tenant as usize].spec;
        let mem_node = app.memory_nodes[rec.mem as usize];
        let (from, to, payload) = match leg {
            Leg::Request => (
                spec.node,
                mem_node,
                (rec.kind == OpKind::Update).then_some(spec.mix.ycsb.update_bytes),
            ),
            Leg::Response => (
                mem_node,
                spec.node,
                (rec.kind == OpKind::Read).then_some(spec.mix.ycsb.object_bytes),
            ),
        };
        let arrival = match (app.cxl.as_mut(), payload) {
            (None, Some(bytes)) => {
                let fid = app.next_flow;
                app.next_flow += 1;
                app.flow_op.insert(fid, (op, leg));
                let flow = Flow {
                    id: fid as usize,
                    src: from,
                    dst: to,
                    size: bytes.max(1),
                    arrival: start,
                    kind: FlowKind::Write,
                };
                return Some((fid, flow));
            }
            (None, None) => {
                control_flight(&self.cfg, &self.topo, from, to, op as u64).map(|f| start + f)
            }
            (Some(cxl), _) => {
                let frame = match (leg, rec.kind) {
                    (Leg::Request, OpKind::Rmw) => 24,
                    _ => 16 + payload.unwrap_or(0),
                };
                cxl.traverse(&self.topo, from, to, frame, op as u64, start)
            }
        };
        leg_end(app, op, leg, arrival.ok_or(start), q);
        None
    }

    /// Op `op` completes (or fails) at its tenant: record stats, free
    /// the window slot, and trigger the next issue after think time.
    fn app_complete(&mut self, now: Time, op: u32, q: &mut EventQueue<TopoEv>) {
        let mut app = self.app.take().expect("app events only fire on app runs");
        let rec = app.ops.remove(&op).expect("done for a live op");
        let spec = app.tenants[rec.tenant as usize].spec;
        if rec.failed {
            app.failed += 1;
            app.series.record_failure(now);
        } else {
            let lat = now.saturating_since(rec.issued);
            app.completed += 1;
            app.lat.record_duration(lat);
            match rec.kind {
                OpKind::Read => app.lat_read.record_duration(lat),
                OpKind::Update => app.lat_update.record_duration(lat),
                OpKind::Rmw => app.lat_rmw.record_duration(lat),
                OpKind::Local => app.lat_local.record_duration(lat),
            }
            let bytes = match rec.kind {
                OpKind::Read | OpKind::Local => spec.mix.ycsb.object_bytes,
                OpKind::Update => spec.mix.ycsb.update_bytes,
                OpKind::Rmw => 8,
            };
            app.series.record(now, bytes as u64);
        }
        app.last_done = app.last_done.max(now);
        let t = &mut app.tenants[rec.tenant as usize];
        debug_assert!(t.outstanding > 0);
        t.outstanding -= 1;
        t.done += 1;
        if t.issued < t.spec.ops {
            let think = if spec.think_mean == Duration::ZERO {
                Duration::ZERO
            } else {
                t.rng.exp_duration(spec.think_mean)
            };
            q.schedule_ordered(
                now + think,
                evord::app_issue(rec.tenant),
                TopoEv::App(AppEv::Issue { tenant: rec.tenant }),
            );
        }
        self.app = Some(app);
    }
}

/// Leg `leg` of op `op` ended: `Ok` at its arrival, `Err` at the instant
/// it failed. An arrived request reaches its memory node's controller
/// after the NIC delay (`Service`); an arrived response, or any failed
/// leg, reaches the tenant after the completion delay (`Done`, marked
/// failed).
fn leg_end(
    app: &mut AppState,
    op: u32,
    leg: Leg,
    end: Result<Time, Time>,
    q: &mut EventQueue<TopoEv>,
) {
    match (leg, end) {
        (Leg::Request, Ok(t)) => q.schedule_ordered(
            t + NIC_DELAY,
            evord::app_service(op),
            TopoEv::App(AppEv::Service { op }),
        ),
        (_, end) => {
            let t = end.unwrap_or_else(|t| {
                app.ops
                    .get_mut(&op)
                    .expect("a leg's op is in flight")
                    .failed = true;
                t
            });
            q.schedule_ordered(
                t + COMPLETION_DELAY,
                evord::app_done(op),
                TopoEv::App(AppEv::Done { op }),
            );
        }
    }
}

impl TopoEdm {
    /// Runs a closed-loop application workload to completion on `topo`
    /// and returns its report.
    ///
    /// # Panics
    ///
    /// On invalid configs (no memory nodes, out-of-range or repeated
    /// nodes, zero NIC/completion delays) and if an op stalls without
    /// completing (a model invariant violation).
    pub fn simulate_app(&self, topo: &Topology, app: &AppConfig) -> AppReport {
        let input = Input::<NoSource>::App(app);
        AppState::report(self.run_solo(topo, NO_SINK, input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LeafSpine;
    use edm_workloads::{OpMix, YcsbWorkload};

    fn leaf_spine() -> Topology {
        Topology::leaf_spine(LeafSpine::symmetric(2, 2, 4, 2))
    }

    fn small_app(transport: AppTransport) -> AppConfig {
        let mix = OpMix::remote(YcsbWorkload::a());
        let tenants = (0..4)
            .map(|i| TenantSpec::saturating(i, mix, 4, 50))
            .collect();
        AppConfig {
            transport,
            ..AppConfig::new(tenants, vec![4, 5, 6, 7])
        }
    }

    #[test]
    fn closed_loop_completes_every_op_on_edm() {
        let topo = leaf_spine();
        let r = TopoEdm::default().simulate_app(&topo, &small_app(AppTransport::Edm));
        assert_eq!(r.ops_issued, 200);
        assert_eq!(r.ops_completed, 200);
        assert_eq!(r.ops_failed, 0);
        assert_eq!(r.lat.count(), 200);
        // Every remote read/update produced exactly one fabric leg.
        let remote_rw = r.lat_read.count() + r.lat_update.count();
        assert_eq!(r.fabric.admitted, remote_rw);
        assert_eq!(r.fabric.delivered, remote_rw);
        // The window pins resident ops: 4 tenants x mlp 4.
        assert!(r.ops_high_water <= 16, "hwm {}", r.ops_high_water);
        assert!(r.makespan > Duration::ZERO);
        assert!(r.dram_rows.0 + r.dram_rows.1 + r.dram_rows.2 > 0);
    }

    #[test]
    fn closed_loop_completes_every_op_on_cxl_oe() {
        let topo = leaf_spine();
        let r = TopoEdm::default().simulate_app(&topo, &small_app(AppTransport::CxlOe));
        assert_eq!(r.ops_completed, 200);
        // CXL-oE bypasses the scheduler entirely.
        assert_eq!(r.fabric.admitted, 0);
        assert!(r.lat.percentile(50.0) > 0);
    }

    #[test]
    #[should_panic(expected = "memory node listed twice")]
    fn repeated_memory_node_is_rejected() {
        let app = AppConfig::new(small_app(AppTransport::Edm).tenants, vec![4, 6, 4]);
        TopoEdm::default().simulate_app(&leaf_spine(), &app);
    }

    #[test]
    fn rmw_mix_serializes_on_the_memory_banks() {
        let topo = leaf_spine();
        let mix = OpMix::f_rmw();
        let tenants = (0..2)
            .map(|i| TenantSpec::saturating(i, mix, 8, 100))
            .collect();
        let app = AppConfig::new(tenants, vec![6]);
        let r = TopoEdm::default().simulate_app(&topo, &app);
        assert_eq!(r.ops_completed, 200);
        assert!(r.lat_rmw.count() > 0, "workload F must produce RMWs");
        // RMWs return without a data flow; reads still ride the fabric.
        assert_eq!(r.fabric.admitted, r.lat_read.count());
    }

    #[test]
    fn local_split_bypasses_the_fabric() {
        let topo = leaf_spine();
        let mix = OpMix {
            local_fraction: 1.0,
            ..OpMix::remote(YcsbWorkload::a())
        };
        let tenants = vec![TenantSpec::saturating(0, mix, 2, 64)];
        let app = AppConfig::new(tenants, vec![5]);
        let r = TopoEdm::default().simulate_app(&topo, &app);
        assert_eq!(r.ops_completed, 64);
        assert_eq!(r.lat_local.count(), 64);
        assert_eq!(r.fabric.admitted, 0);
        // Local ops pay exactly the configured latency.
        assert_eq!(r.lat_local.max(), LOCAL_LATENCY.as_ps());
    }

    #[test]
    fn think_time_stretches_the_makespan() {
        let topo = leaf_spine();
        let mix = OpMix::remote(YcsbWorkload::b());
        let fast = AppConfig::new(vec![TenantSpec::saturating(0, mix, 1, 32)], vec![5]);
        let slow = AppConfig::new(
            vec![TenantSpec {
                think_mean: Duration::from_us(1),
                ..TenantSpec::saturating(0, mix, 1, 32)
            }],
            vec![5],
        );
        let edm = TopoEdm::default();
        let f = edm.simulate_app(&topo, &fast);
        let s = edm.simulate_app(&topo, &slow);
        assert!(s.makespan > f.makespan);
    }

    #[test]
    fn control_flight_is_symmetric_in_cost_shape() {
        let topo = leaf_spine();
        let cfg = TopoEdmConfig::default();
        let f = control_flight(&cfg, &topo, 0, 7, 9).expect("routable");
        // Cross-rack: at least the pipeline + three link flights.
        assert!(f > cfg.pipeline_latency);
        let same_leaf = control_flight(&cfg, &topo, 0, 1, 9).expect("routable");
        assert!(same_leaf < f, "fewer hops must cost less");
    }
}
