//! Per-layer measurements taken from outside the program. Three kinds:
//!
//! * exact counts the engines report (events, high-water marks, retries);
//! * true spans around public calls (topology build, approx stages, the
//!   source and sink callbacks the engine makes into benchmark code);
//! * *replays*: a layer's public API driven alone, at the size and
//!   operation count the workload reported, giving a unit cost. A layer's
//!   share of a run is then `unit cost × count ÷ run time`. Replays run
//!   with a hot cache and without the neighbouring layers, so their
//!   shares are estimates — good for ranking layers and for seeing one
//!   move, not for adding up to the nanosecond. What the estimates leave
//!   over is `share.unattributed`: the engine's own event handlers, which
//!   only a probe inside the program can split further.

use edm_core::sim::Flow;
use edm_sched::scheduler::{Notification, Scheduler, SchedulerConfig};
use edm_sim::{Duration, EventQueue, LogHistogram, Rng, Time};
use edm_topo::{TopoEdmConfig, Topology};
use std::hint::black_box;
use std::time::Instant;

/// The per-layer metrics of one traced run, by name.
#[derive(Debug, Default)]
pub struct Layers {
    values: Vec<(String, f64)>,
    /// Host time of the run's fastest untraced rep, in ns.
    pub rep_ns: f64,
}

impl Layers {
    pub fn put(&mut self, name: &str, v: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(e) => e.1 = v,
            None => self.values.push((name.to_string(), v)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn values(&self) -> &[(String, f64)] {
        &self.values
    }

    /// Writes the `share.*` row: each part's host time over `run_ns`, and
    /// what is left as `share.unattributed`.
    pub fn put_shares(&mut self, run_ns: f64, parts: &[(&str, f64)]) {
        let mut rest = 1.0;
        for (name, ns) in parts {
            let share = ns / run_ns;
            rest -= share;
            self.put(&format!("share.{name}"), share);
        }
        self.put("share.unattributed", rest);
    }
}

/// Lowest time of `reps` runs of `f`, in nanoseconds: replays are short,
/// and interference on a shared machine only ever adds time.
pub fn min_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `sim.queue_hold_ns`: one pop + one schedule on the calendar
/// `EventQueue` held at `size` pending events (the classic hold model;
/// gaps uniform on 0..10.24 ns, the spacing of 64 B chunks at 100 Gb/s).
pub fn queue_hold_ns(size: usize) -> f64 {
    const MEAN_GAP_PS: u64 = 5_120;
    const OPS: usize = 1 << 16;
    let mut q = EventQueue::<u64>::new();
    let mut rng = Rng::seed_from(0xED31);
    let mut t = Time::ZERO;
    for i in 0..size {
        t += Duration::from_ps(rng.below(2 * MEAN_GAP_PS));
        q.schedule(t, i as u64);
    }
    let mut churn = |q: &mut EventQueue<u64>, ops: usize| {
        let mut acc = 0u64;
        for _ in 0..ops {
            let (at, ev) = q.pop().expect("steady state");
            acc ^= ev;
            q.schedule(at + Duration::from_ps(rng.below(2 * MEAN_GAP_PS)), ev);
        }
        black_box(acc);
    };
    churn(&mut q, size); // one turnover settles the calendar geometry
    min_ns(5, || churn(&mut q, OPS)) / OPS as f64
}

/// `sim.hist_record_ns`: one `LogHistogram::record` of a latency-shaped
/// value (what every sink does per finished unit).
pub fn hist_record_ns() -> f64 {
    const OPS: usize = 1 << 18;
    let mut rng = Rng::seed_from(7);
    let vals: Vec<u64> = (0..OPS).map(|_| 250_000 + rng.below(4_000_000)).collect();
    let mut h = LogHistogram::new();
    let ns = min_ns(5, || {
        for &v in &vals {
            h.record(v);
        }
    });
    black_box(h.count());
    ns / OPS as f64
}

/// `sched.sparse_poll_ns_<flows>`: notify `flows` disjoint single-chunk
/// messages and poll once, on a 144-port demand-sparse scheduler.
pub fn sparse_poll_ns(flows: usize) -> f64 {
    const ROUNDS: usize = 256;
    let mut s = Scheduler::new(SchedulerConfig::default_for_ports(144));
    let mut now = Time::ZERO;
    let ns = min_ns(8, || {
        for _ in 0..ROUNDS {
            for f in 0..flows {
                let (src, dst) = ((2 * f) as u16, (2 * f + 1) as u16);
                s.notify(now, Notification::new(src, dst, 0, 256))
                    .expect("disjoint pairs stay under X");
            }
            black_box(s.poll(now).grants.len());
            now += Duration::from_ns(100);
        }
    });
    ns / ROUNDS as f64
}

/// `sched.dense_round_ns_144`: one poll over 200 random notifications
/// (72 senders → 72 receivers) on 144 ports; building the demand is not
/// timed.
pub fn dense_round_ns() -> f64 {
    (0..8)
        .map(|_| {
            let mut s = Scheduler::new(SchedulerConfig::default_for_ports(144));
            let mut rng = Rng::seed_from(9);
            for i in 0..200u32 {
                let src = rng.below(72) as u16;
                let dst = 72 + rng.below(72) as u16;
                let _ = s.notify(
                    Time::ZERO,
                    Notification::new(src, dst, i as u8, 64 + rng.below(4096) as u32),
                );
            }
            let t = Instant::now();
            black_box(s.poll(Time::ZERO).grants.len());
            t.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `topo.route_ns`: one `admission_route` (salted ECMP lookup) over the
/// workload's own flows.
pub fn route_ns(topo: &Topology, flows: &[Flow]) -> f64 {
    min_ns(5, || {
        for f in flows {
            black_box(edm_topo::admission_route(topo, f));
        }
    }) / flows.len() as f64
}

/// `core.domain_ns_per_crossing`: the cost of taking one flow across one
/// switch's `SwitchDomain` (offer → poll → deliver), measured by
/// replaying `flows`' per-link decomposition through
/// `edm_approx::simulate_batch` — the public path that drives real
/// `SwitchDomain`s outside the world. Returns the unit cost and the
/// crossings per routable flow.
pub fn domain_replay(topo: &Topology, cfg: &TopoEdmConfig, flows: &[Flow]) -> (f64, f64) {
    let d = edm_approx::decompose(topo, cfg, flows);
    let clusters: Vec<&edm_approx::LinkCluster> = d.clusters.iter().collect();
    let replayed: usize = clusters.iter().map(|c| c.profile.members.len()).sum();
    let crossings: usize = (0..flows.len())
        .filter_map(|i| d.hops(i))
        .map(|h| h.len())
        .sum();
    let ns = min_ns(3, || {
        black_box(edm_approx::simulate_batch(&clusters, cfg));
    });
    (
        ns / replayed.max(1) as f64,
        crossings as f64 / flows.len() as f64,
    )
}

/// Unit costs of the layers every `TopoEdm` run goes through.
pub struct FabricCosts {
    /// `sim.queue_hold_ns`.
    pub hold_ns: f64,
    /// `topo.route_ns`.
    pub route_ns: f64,
    /// `core.domain_ns_per_crossing` × crossings per flow.
    pub domain_ns_per_flow: f64,
}

/// Runs the replays common to the `TopoEdm` workloads — event queue at
/// the run's high-water mark, routing and `SwitchDomain` over `flows`,
/// the scheduler unit costs — records them, and returns the unit costs
/// the `share.*` estimates are built from.
pub fn fabric_replays(
    l: &mut Layers,
    topo: &Topology,
    cfg: &TopoEdmConfig,
    flows: &[Flow],
    active_flow_hwm: f64,
) -> FabricCosts {
    let hold_ns = queue_hold_ns((active_flow_hwm as usize).next_power_of_two());
    let route_ns = route_ns(topo, flows);
    let (domain_ns, crossings_per_flow) = domain_replay(topo, cfg, flows);
    l.put("sim.queue_hold_ns", hold_ns);
    l.put("topo.route_ns", route_ns);
    l.put("core.domain_ns_per_crossing", domain_ns);
    l.put("sched.sparse_poll_ns_2", sparse_poll_ns(2));
    l.put("sched.sparse_poll_ns_16", sparse_poll_ns(16));
    l.put("sched.dense_round_ns_144", dense_round_ns());
    FabricCosts {
        hold_ns,
        route_ns,
        domain_ns_per_flow: domain_ns * crossings_per_flow,
    }
}
