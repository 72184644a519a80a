//! The three open-loop workloads on the 288-node leaf–spine: one input
//! family (rack-aware Poisson traffic streamed through `TopoEdm`) varied
//! along the axes the engine's cost depends on — message size and faults.
//! The sharded engine is checked against the sequential one on
//! `stream64_288` and timed in its traced run (`sim.par2_speedup`); it is
//! not a workload of its own, because two busy threads on a shared
//! two-core machine time the host's scheduler (README, "Sizing and noise").

use super::{build_topology, leaf_spine_288, rack_workload, Outcomes, RepOut, Workload};
use crate::layers::{self, Layers};
use crate::trace::{ItemClock, TimedSource, Tracer};
use edm_core::sim::Flow;
use edm_sim::{Duration, Time};
use edm_topo::{
    FaultEvent, FaultKind, FlowStatus, SwitchRole, TopoEdm, TopoEdmConfig, TopoOutcome,
    TopoStreamStats, Topology,
};
use edm_workloads::RackAwareWorkload;
use std::sync::Arc;
use std::time::Instant;

/// (load, message bytes, flows at full scale, rolling rack outages)
fn shape(name: &str) -> (f64, u32, usize, bool) {
    match name {
        "stream64_288" => (0.6, 64, 400_000, false),
        "bulk4k_288" => (0.7, 4096, 50_000, false),
        "chaos_288" => (0.7, 64, 300_000, true),
        _ => unreachable!("not a 288-node workload: {name}"),
    }
}

/// Each leaf switch goes down in turn, the outages tiling [0.2, 0.8) of
/// the arrival span, and comes back a tenth of the span later.
fn rolling_rack_outages(topo: &Topology, span: Duration) -> Vec<FaultEvent> {
    let leaves: Vec<u32> = (0..topo.switch_count() as u32)
        .filter(|&s| topo.switch_role(s) == SwitchRole::Leaf)
        .collect();
    let n = leaves.len() as u64;
    let mut ev = Vec::new();
    for (i, &leaf) in leaves.iter().enumerate() {
        let at = Time::ZERO + (span * (20 + (60 * i as u64) / n)) / 100;
        ev.push(FaultEvent {
            at,
            kind: FaultKind::SwitchDown(leaf),
        });
        ev.push(FaultEvent {
            at: at + span / 10,
            kind: FaultKind::SwitchUp(leaf),
        });
    }
    ev.sort_by_key(|f| f.at);
    ev
}

pub struct Fabric288 {
    topo: Topology,
    wl: RackAwareWorkload,
    proto: TopoEdm,
    seed: u64,
    /// Also run through the 2-shard engine: checked and, traced, timed.
    sharded: bool,
}

impl Fabric288 {
    pub fn build(name: &str, seed: u64, scale_div: u64, tr: &mut Tracer) -> Self {
        let (load, size, flows, chaos) = shape(name);
        let topo = build_topology(leaf_spine_288(), tr);
        let wl = rack_workload(288, 4, load, size, flows / scale_div as usize);
        let mut config = TopoEdmConfig::default();
        if chaos {
            // Anchored to this seed's own arrival span, so every outage
            // lands mid-stream.
            let last = wl.source(seed).last().expect("non-empty workload");
            config.faults = rolling_rack_outages(&topo, last.arrival.saturating_since(Time::ZERO));
            config.max_retries = 3;
        }
        Fabric288 {
            topo,
            wl,
            proto: TopoEdm::new(config),
            seed,
            sharded: name == "stream64_288",
        }
    }

    fn drive<I, F>(&self, shards: usize, source: I, sink: F) -> TopoStreamStats
    where
        I: Iterator<Item = Flow> + Clone + Send,
        F: FnMut(TopoOutcome) + Send,
    {
        if shards > 1 {
            self.proto
                .simulate_sharded_streamed(&self.topo, source, sink, shards)
        } else {
            self.proto.simulate_streamed(&self.topo, source, sink)
        }
    }

    fn run(&self, shards: usize, tr: &mut Tracer) -> RepOut {
        let mut out = Outcomes::new();
        let mut fold = |o: TopoOutcome| match o.status {
            FlowStatus::Delivered(at) => {
                out.delivered(o.flow.id as u64, o.flow.arrival.as_ps(), at.as_ps())
            }
            FlowStatus::Failed(_) => out.failed += 1,
        };
        let source = self.wl.source(self.seed);
        let stats = if tr.enabled() {
            let (src_clock, sink_clock) = (Arc::new(ItemClock::default()), ItemClock::default());
            let (mut sink_ns, mut sink_n) = (0u64, 0u64);
            let span = tr.begin("engine");
            let stats = self.drive(shards, TimedSource::new(source, src_clock.clone()), |o| {
                let t = Instant::now();
                fold(o);
                sink_ns += t.elapsed().as_nanos() as u64;
                sink_n += 1;
            });
            tr.end(span);
            sink_clock.add(sink_ns, sink_n);
            tr.aggregate("source", span, &src_clock);
            tr.aggregate("sink", span, &sink_clock);
            stats
        } else {
            self.drive(shards, source, fold)
        };
        let mut errors = Vec::new();
        if stats.admitted != stats.delivered + stats.failed
            || stats.delivered != out.delivered
            || stats.failed != out.failed
        {
            errors.push(format!(
                "admitted {} != delivered {} + failed {} (sink saw {} + {})",
                stats.admitted, stats.delivered, stats.failed, out.delivered, out.failed
            ));
        }
        RepOut {
            units: stats.delivered,
            attempted: stats.admitted,
            failed: stats.failed,
            hist: out.hist,
            makespan_ps: out.last_ps,
            digest: out.digest,
            counts: vec![
                ("sim.events", stats.events as f64),
                ("topo.active_flow_hwm", stats.active_high_water as f64),
                ("sched.msg_slots_hwm", stats.msg_slots_high_water as f64),
                ("topo.reroutes", stats.reroutes as f64),
                ("topo.retried", stats.retried as f64),
                ("topo.readmitted", stats.readmitted as f64),
            ],
            errors,
        }
    }
}

impl Workload for Fabric288 {
    fn unit(&self) -> &'static str {
        "flow"
    }

    fn rep(&mut self, tr: &mut Tracer, _check: bool) -> RepOut {
        self.run(1, tr)
    }

    /// The sharded engine must reproduce the sequential one exactly:
    /// same outcome digest, same counts. (The high-water marks may read
    /// slightly higher sharded — replicas retire at window barriers.)
    fn cross_check(&mut self, warm: &RepOut) -> Vec<String> {
        if !self.sharded {
            return Vec::new();
        }
        let par = self.run(2, &mut Tracer::new(false));
        let same = par.digest == warm.digest
            && par.units == warm.units
            && par.hist == warm.hist
            && par.count("sim.events") == warm.count("sim.events");
        if same {
            Vec::new()
        } else {
            vec![format!(
                "sharded run differs from sequential: digest {:x} vs {:x}, delivered {} vs {}",
                par.digest, warm.digest, par.units, warm.units
            )]
        }
    }

    fn layers(&mut self, warm: &RepOut, tr: &mut Tracer, l: &mut Layers) {
        l.put("topo.build_ms", tr.median_total("topo.build").0 / 1e6);
        let (engine_ns, _) = tr.median_total("engine");
        let (source_ns, source_n) = tr.median_total("source");
        let (sink_ns, sink_n) = tr.median_total("sink");
        let units = warm.units as f64;
        l.put("workloads.source_ns_per_flow", source_ns / source_n);
        l.put("sim.sink_ns_per_unit", sink_ns / sink_n);
        l.put(
            "topo.engine_self_ns_per_unit",
            (engine_ns - source_ns - sink_ns) / units,
        );

        // Replays over the workload's own first flows.
        let prefix: Vec<Flow> = self.wl.source(self.seed).take(20_000).collect();
        let healthy = TopoEdmConfig {
            faults: Vec::new(),
            ..self.proto.config.clone()
        };
        let hwm = warm.count("topo.active_flow_hwm");
        let costs = layers::fabric_replays(l, &self.topo, &healthy, &prefix, hwm);
        l.put("sim.hist_record_ns", layers::hist_record_ns());

        if self.sharded {
            // Same input, 2-shard engine: only the sharding differs.
            let mut off = Tracer::new(false);
            let par_ns = layers::min_ns(3, || {
                std::hint::black_box(self.run(2, &mut off));
            });
            l.put("sim.par2_speedup", l.rep_ns / par_ns);
        }

        let admitted = warm.attempted as f64;
        l.put_shares(
            engine_ns,
            &[
                ("sim_queue", costs.hold_ns * warm.count("sim.events")),
                ("source", source_ns),
                ("sink", sink_ns),
                ("route", costs.route_ns * admitted),
                ("domain", costs.domain_ns_per_flow * admitted),
            ],
        );
    }
}
