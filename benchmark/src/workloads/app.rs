//! `app_ycsb_288`: the closed-loop application tier — YCSB-B tenants with
//! a bounded window over the real fabric, DDR4 service at the memory
//! nodes. The only workload with `MemoryService` and the app handlers in
//! the loop, and the MLP-8 point whose tail ROADMAP wants explained.

use super::{build_topology, leaf_spine_288, mix, RepOut, Workload};
use crate::layers::{self, Layers};
use crate::trace::Tracer;
use edm_core::sim::{Flow, FlowKind};
use edm_memory::{MemoryService, KV_SLOT_HEADER};
use edm_sim::rng::Zipf;
use edm_sim::{Duration, Rng, Time};
use edm_topo::{AppConfig, AppTransport, TopoEdm, TopoEdmConfig, Topology};
use edm_workloads::{OpKind, OpMix, TenantSpec, YcsbWorkload};
use std::hint::black_box;

const TENANTS: usize = 48;
const MLP: u32 = 8;
const OPS_PER_TENANT: u64 = 5_000;

pub struct AppYcsb {
    topo: Topology,
    app: AppConfig,
    proto: TopoEdm,
}

impl AppYcsb {
    pub fn build(seed: u64, scale_div: u64, tr: &mut Tracer) -> Self {
        let topo = build_topology(leaf_spine_288(), tr);
        // Tenants spread over racks 0-1, memory nodes over racks 2-3, so
        // every remote op crosses the spines. Saturating (no think
        // time), fully remote.
        let tenants = (0..TENANTS)
            .map(|i| TenantSpec {
                node: i * 144 / TENANTS,
                mix: OpMix::remote(YcsbWorkload::b()),
                mlp: MLP,
                think_mean: Duration::ZERO,
                ops: OPS_PER_TENANT / scale_div,
            })
            .collect();
        let memory_nodes = (0..16).map(|i| 144 + i * 9).collect();
        let app = AppConfig {
            transport: AppTransport::Edm,
            seed,
            ..AppConfig::new(tenants, memory_nodes)
        };
        AppYcsb {
            topo,
            app,
            proto: TopoEdm::default(),
        }
    }

    /// The ops the tenants will sample, regenerated through the public
    /// workload API (`Rng::stream(seed, tenant)`, `OpMix::sample`) and
    /// interleaved round-robin: `(tenant node, kind, memory index, addr)`.
    fn op_stream(&self) -> Vec<(usize, OpKind, usize, u64)> {
        let n = self.app.memory_nodes.len() as u64;
        let mut tenants: Vec<_> = self
            .app
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let y = t.mix.ycsb;
                (
                    *t,
                    Rng::stream(self.app.seed, i as u64),
                    Zipf::new(y.keys, y.zipf_theta),
                )
            })
            .collect();
        let per_tenant = self.app.tenants[0].ops;
        let mut ops = Vec::with_capacity(tenants.len() * per_tenant as usize);
        for _ in 0..per_tenant {
            for (spec, rng, zipf) in &mut tenants {
                let s = spec.mix.sample(zipf, rng);
                // Stripe across memory nodes, fixed-size slots within one.
                let slot_bytes = KV_SLOT_HEADER as u64 + spec.mix.ycsb.object_bytes as u64;
                ops.push((
                    spec.node,
                    s.kind,
                    (s.key % n) as usize,
                    s.key / n * slot_bytes,
                ));
            }
        }
        ops
    }
}

impl Workload for AppYcsb {
    fn unit(&self) -> &'static str {
        "op"
    }

    fn rep(&mut self, tr: &mut Tracer, _check: bool) -> RepOut {
        let span = tr.begin("engine");
        let r = self.proto.simulate_app(&self.topo, &self.app);
        tr.end(span);
        let mut errors = Vec::new();
        if r.ops_issued != r.ops_completed + r.ops_failed || r.lat.count() != r.ops_completed {
            errors.push(format!(
                "issued {} != completed {} + failed {} ({} latencies)",
                r.ops_issued,
                r.ops_completed,
                r.ops_failed,
                r.lat.count()
            ));
        }
        let (hits, misses, conflicts) = r.dram_rows;
        // The report exposes no per-op outcomes; digest what it does.
        let digest = [
            r.makespan.as_ps(),
            r.fabric.events,
            r.fabric.delivered,
            r.lat.max(),
            hits,
            misses,
            conflicts,
        ]
        .iter()
        .fold(0, |d, &x| mix(d, x));
        RepOut {
            units: r.ops_completed,
            attempted: r.ops_issued,
            failed: r.ops_failed,
            makespan_ps: r.makespan.as_ps(),
            digest,
            counts: vec![
                ("sim.events", r.fabric.events as f64),
                ("topo.active_flow_hwm", r.fabric.active_high_water as f64),
                ("sched.msg_slots_hwm", r.fabric.msg_slots_high_water as f64),
                (
                    "memory.row_hit_ratio",
                    hits as f64 / (hits + misses + conflicts).max(1) as f64,
                ),
            ],
            hist: r.lat,
            errors,
        }
    }

    fn layers(&mut self, warm: &RepOut, tr: &mut Tracer, l: &mut Layers) {
        l.put("topo.build_ms", tr.median_total("topo.build").0 / 1e6);
        let (engine_ns, _) = tr.median_total("engine");
        let ops = warm.units as f64;
        l.put("topo.engine_self_ns_per_unit", engine_ns / ops);

        // The op generator: what the app tier pays per issued op.
        let ycsb_ns = layers::min_ns(3, || {
            black_box(self.op_stream());
        }) / ops;
        l.put("workloads.ycsb_ns_per_op", ycsb_ns);

        // MemoryService replay: the same op/address stream against the
        // same number of DDR4 nodes, spaced at the run's mean op gap.
        let stream = self.op_stream();
        let gap = Duration::from_ps(warm.makespan_ps / warm.units.max(1));
        let service_ns = layers::min_ns(3, || {
            let mut mems: Vec<MemoryService> = self
                .app
                .memory_nodes
                .iter()
                .map(|_| MemoryService::new(self.app.dram))
                .collect();
            let mut now = Time::ZERO;
            for &(_, kind, m, addr) in &stream {
                let y = self.app.tenants[0].mix.ycsb;
                let done = match kind {
                    OpKind::Read => mems[m].get(now, addr, y.object_bytes as usize),
                    OpKind::Update => mems[m].put(now, addr, y.update_bytes as usize),
                    OpKind::Rmw => mems[m].rmw(now, addr),
                    OpKind::Local => now,
                };
                black_box(done);
                now += gap;
            }
        }) / ops;
        l.put("memory.service_ns", service_ns);

        // The fabric legs as open-loop flows (reads return the object,
        // updates carry the payload), for the route and domain replays.
        let y = self.app.tenants[0].mix.ycsb;
        let flows: Vec<Flow> = stream
            .iter()
            .filter(|op| matches!(op.1, OpKind::Read | OpKind::Update))
            .take(20_000)
            .enumerate()
            .map(|(i, &(node, kind, m, _))| Flow {
                id: i,
                src: node,
                dst: self.app.memory_nodes[m],
                size: if kind == OpKind::Read {
                    y.object_bytes
                } else {
                    y.update_bytes
                },
                arrival: Time::ZERO + gap * i as u64,
                kind: if kind == OpKind::Read {
                    FlowKind::Read
                } else {
                    FlowKind::Write
                },
            })
            .collect();
        let hwm = warm.count("topo.active_flow_hwm");
        let costs = layers::fabric_replays(l, &self.topo, &TopoEdmConfig::default(), &flows, hwm);
        let hist_ns = layers::hist_record_ns();
        l.put("sim.hist_record_ns", hist_ns);

        // One fabric flow per remote read or update.
        let remote = stream
            .iter()
            .filter(|op| matches!(op.1, OpKind::Read | OpKind::Update))
            .count();
        let fabric_flows = ops * remote as f64 / stream.len() as f64;
        l.put_shares(
            engine_ns,
            &[
                ("sim_queue", costs.hold_ns * warm.count("sim.events")),
                ("source", ycsb_ns * ops),
                ("sink", hist_ns * ops),
                ("route", costs.route_ns * fabric_flows),
                ("domain", costs.domain_ns_per_flow * fabric_flows),
                ("memory", service_ns * ops),
            ],
        );
    }
}
