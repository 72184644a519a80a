//! The one scenario list: the fabric, the workload, the fault schedules
//! and the tenant population every experiment (and its unit tests) builds
//! from, so the same name always means the same run.
//!
//! Fault builders derive a deterministic fault *and repair* schedule from
//! a topology, a simulated span, and a seed. Times are fractions of the
//! workload's arrival span: faults land mid-run and heal before the
//! arrival process ends, which is where recovery is observable.

use edm_sim::{Duration, Rng, Time};
use edm_topo::{AppConfig, AppTransport, FaultEvent, FaultKind, LeafSpine, SwitchRole, Topology};
use edm_workloads::{OpMix, RackAwareWorkload, TenantSpec, YcsbWorkload};

/// The topo benchmark fabric's shape: 288 nodes as 4 leaves × 72
/// hosts with 2 spines. `oversub` divides the uplink capacity (1 =
/// non-blocking 36 uplinks per spine per leaf, 2 = 2:1, 4 = 4:1).
/// Normalization probes must use this same spec (see `topo_sweep`).
pub fn leaf_spine_288_spec(oversub: usize) -> LeafSpine {
    assert!(36 % oversub == 0, "oversub must divide 36");
    LeafSpine::symmetric(4, 2, 72, 36 / oversub)
}

/// The topo benchmark fabric built from [`leaf_spine_288_spec`].
pub fn leaf_spine_288(oversub: usize) -> Topology {
    Topology::leaf_spine(leaf_spine_288_spec(oversub))
}

/// The 1024-host what-if fabric of `approx_sweep`: 16 leaves × 64 hosts,
/// 8 spines, 8 uplinks per spine per leaf.
pub fn leaf_spine_1024() -> Topology {
    Topology::leaf_spine(LeafSpine::symmetric(16, 8, 64, 8))
}

/// Rack-aware traffic over `nodes` hosts in `racks` racks: `local` of each
/// compute node's requests stay in-rack, the rest cross the spines. 64 B
/// messages, 50:50 read/write. Call `.generate(42)` to materialize or
/// `.source(42)` to stream the identical flows.
pub fn rack_workload(
    nodes: usize,
    racks: usize,
    load: f64,
    local: f64,
    count: usize,
) -> RackAwareWorkload {
    RackAwareWorkload {
        nodes,
        racks,
        link: edm_sim::Bandwidth::from_gbps(100),
        load,
        size: 64,
        write_fraction: 0.5,
        local_fraction: local,
        count,
    }
}

/// [`rack_workload`] shaped for [`leaf_spine_288`].
pub fn rack_workload_288(load: f64, local: f64, count: usize) -> RackAwareWorkload {
    rack_workload(288, 4, load, local, count)
}

/// Simulated-time span of a workload's arrival process — the anchor for
/// placing fault schedules so every incident lands mid-stream.
pub fn arrival_span(wl: &RackAwareWorkload) -> Duration {
    let last = wl.source(42).last().expect("non-empty workload");
    last.arrival.saturating_since(Time::ZERO)
}

/// Closed-loop tenants of `app_sweep`, spread over the compute racks.
pub const APP_TENANTS: usize = 24;
/// Operations each `app_sweep` tenant issues.
pub const APP_OPS_PER_TENANT: u64 = 200;

/// The closed-loop config for one `app_sweep` point: [`APP_TENANTS`]
/// YCSB-B tenants spread over racks 0–1 of [`leaf_spine_288`], 16 memory
/// nodes spread over racks 2–3, so every remote op crosses the spines.
pub fn paper_app(transport: AppTransport, mlp: u32, local: f64, think: Duration) -> AppConfig {
    let mix = OpMix {
        local_fraction: local,
        ..OpMix::remote(YcsbWorkload::b())
    };
    let tenants = (0..APP_TENANTS)
        .map(|i| TenantSpec {
            node: i * 144 / APP_TENANTS,
            mix,
            mlp,
            think_mean: think,
            ops: APP_OPS_PER_TENANT,
        })
        .collect();
    let memory_nodes = (0..16).map(|i| 144 + i * 9).collect();
    AppConfig {
        transport,
        ..AppConfig::new(tenants, memory_nodes)
    }
}

/// Trunk link ids of a topology (the only links worth flapping — an
/// access link's death just strands its host).
fn trunk_links(topo: &Topology) -> Vec<u32> {
    (0..topo.links().len() as u32)
        .filter(|&l| topo.link(l).is_trunk())
        .collect()
}

/// Switch ids by role.
fn switches_of(topo: &Topology, role: SwitchRole) -> Vec<u32> {
    (0..topo.switch_count() as u32)
        .filter(|&s| topo.switch_role(s) == role)
        .collect()
}

/// A point on the span, `num/den` of the way in.
fn frac(span: Duration, num: u64, den: u64) -> Time {
    Time::ZERO + (span * num) / den
}

/// `n` independent single-link flaps: random trunk links go down at
/// seeded instants in the middle of the span and come back a tenth of
/// the span later.
pub fn single_link_flaps(topo: &Topology, span: Duration, n: usize, seed: u64) -> Vec<FaultEvent> {
    let trunks = trunk_links(topo);
    let mut rng = Rng::seed_from(seed);
    let mut ev = Vec::new();
    for _ in 0..n {
        let link = trunks[rng.below(trunks.len() as u64) as usize];
        // Down somewhere in [0.2, 0.7) of the span, up a tenth later.
        let at = frac(span, 20 + rng.below(50), 100);
        ev.push(FaultEvent {
            at,
            kind: FaultKind::LinkDown(link),
        });
        ev.push(FaultEvent {
            at: at + span / 10,
            kind: FaultKind::LinkUp(link),
        });
    }
    ev.sort_by_key(|f| f.at);
    ev
}

/// One spine dies at 30% of the span and revives at 60%: the classic
/// mid-run capacity loss with full recovery.
pub fn spine_kill_revive(topo: &Topology, span: Duration, seed: u64) -> Vec<FaultEvent> {
    let spines = switches_of(topo, SwitchRole::Spine);
    assert!(!spines.is_empty(), "scenario needs a spine to kill");
    let spine = spines[Rng::seed_from(seed).below(spines.len() as u64) as usize];
    vec![
        FaultEvent {
            at: frac(span, 3, 10),
            kind: FaultKind::SwitchDown(spine),
        },
        FaultEvent {
            at: frac(span, 6, 10),
            kind: FaultKind::SwitchUp(spine),
        },
    ]
}

/// Rolling rack outages: each leaf switch goes down in turn, staggered
/// across the middle of the span, and revives after a tenth of it —
/// flows sourced at a dead rack fail or retry until their rack heals.
pub fn rolling_rack_outages(topo: &Topology, span: Duration) -> Vec<FaultEvent> {
    let leaves = switches_of(topo, SwitchRole::Leaf);
    let n = leaves.len() as u64;
    let mut ev = Vec::new();
    for (i, &leaf) in leaves.iter().enumerate() {
        // Outage windows tile [0.2, 0.8) of the span without overlap.
        let at = frac(span, 20 + (60 * i as u64) / n, 100);
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

/// Correlated degradation: a seeded quarter of the trunk links pick up
/// `extra` latency at 25% of the span (one failing optics batch), all
/// retrained back to healthy at 75%.
pub fn correlated_degradation(
    topo: &Topology,
    span: Duration,
    extra: Duration,
    seed: u64,
) -> Vec<FaultEvent> {
    let mut trunks = trunk_links(topo);
    let mut rng = Rng::seed_from(seed);
    // Deterministic partial shuffle: pick max(1, n/4) distinct victims.
    let victims = (trunks.len() / 4).max(1);
    for i in 0..victims {
        let j = i + rng.below((trunks.len() - i) as u64) as usize;
        trunks.swap(i, j);
    }
    let mut ev = Vec::new();
    for &link in &trunks[..victims] {
        ev.push(FaultEvent {
            at: frac(span, 1, 4),
            kind: FaultKind::DegradeLink { link, extra },
        });
        ev.push(FaultEvent {
            at: frac(span, 3, 4),
            kind: FaultKind::RestoreLink(link),
        });
    }
    ev
}

/// The `million_flows` fault run: one spine flaps mid-run — down at
/// half the span, up at three quarters.
pub fn mid_run_spine_flap(topo: &Topology, span: Duration) -> Vec<FaultEvent> {
    let spines = switches_of(topo, SwitchRole::Spine);
    assert!(!spines.is_empty(), "the flap needs a spine");
    vec![
        FaultEvent {
            at: frac(span, 1, 2),
            kind: FaultKind::SwitchDown(spines[0]),
        },
        FaultEvent {
            at: frac(span, 3, 4),
            kind: FaultKind::SwitchUp(spines[0]),
        },
    ]
}

/// `approx_sweep`'s deterministic fault-variant catalog: 21 what-if states
/// of [`leaf_spine_1024`], weighted roughly like production fault logs —
/// optics degradations and single-host link cuts dominate, trunk cuts
/// are less common, and whole-spine losses are rare (but stay in the
/// grid: they are the scenarios a what-if sweep exists to price).
pub fn what_if_variants(topo: &Topology) -> Vec<(String, Vec<FaultKind>)> {
    let trunks = trunk_links(topo);
    let hosts = topo.nodes();
    let spread = |i: usize, n: usize| trunks[(i * trunks.len()) / n];
    let mut v: Vec<(String, Vec<FaultKind>)> = vec![("healthy".into(), vec![])];
    for i in 0..6 {
        let t = spread(i, 6);
        v.push((format!("trunk_down_{t}"), vec![FaultKind::LinkDown(t)]));
    }
    for i in 0..6 {
        let t = spread(2 * i + 1, 12);
        v.push((
            format!("degrade_{t}"),
            vec![FaultKind::DegradeLink {
                link: t,
                extra: Duration::from_us(1),
            }],
        ));
    }
    let spines = switches_of(topo, SwitchRole::Spine);
    for s in [spines[0], spines[4]] {
        v.push((format!("spine_down_{s}"), vec![FaultKind::SwitchDown(s)]));
    }
    {
        let (a, b) = (spread(0, 6), spread(3, 6));
        v.push((
            format!("double_trunk_{a}_{b}"),
            vec![FaultKind::LinkDown(a), FaultKind::LinkDown(b)],
        ));
    }
    for i in 0..5 {
        let n = (i * hosts) / 5 + i;
        v.push((
            format!("access_down_{n}"),
            vec![FaultKind::LinkDown(topo.node_link(n))],
        ));
    }
    v
}

/// First fault instant of a schedule (the campaign's incident time for
/// recovery measurement).
pub fn first_incident(faults: &[FaultEvent]) -> Option<Time> {
    faults.iter().map(|f| f.at).min()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_heal_everything() {
        let topo = leaf_spine_288(1);
        let span = Duration::from_us(500);
        let a = single_link_flaps(&topo, span, 3, 42);
        let b = single_link_flaps(&topo, span, 3, 42);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
        }
        // Every down has a matching up, every degrade a restore.
        for sched in [
            a,
            spine_kill_revive(&topo, span, 42),
            rolling_rack_outages(&topo, span),
            correlated_degradation(&topo, span, Duration::from_us(1), 42),
            mid_run_spine_flap(&topo, span),
        ] {
            let (mut broken, mut healed) = (0usize, 0usize);
            for f in &sched {
                match f.kind {
                    FaultKind::LinkDown(_)
                    | FaultKind::SwitchDown(_)
                    | FaultKind::DegradeLink { .. } => broken += 1,
                    FaultKind::LinkUp(_) | FaultKind::SwitchUp(_) | FaultKind::RestoreLink(_) => {
                        healed += 1
                    }
                }
            }
            assert_eq!(broken, healed, "unbalanced schedule");
            assert!(first_incident(&sched).unwrap() > Time::ZERO);
        }
    }

    #[test]
    fn rolling_outages_cover_every_rack_without_overlap() {
        let topo = leaf_spine_288(1);
        let span = Duration::from_us(1000);
        let ev = rolling_rack_outages(&topo, span);
        assert_eq!(ev.len(), 8, "4 leaves x down+up");
        let downs: Vec<_> = ev
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::SwitchDown(_)))
            .collect();
        for w in downs.windows(2) {
            // The next rack goes down only after the previous healed.
            assert!(w[1].at >= w[0].at + span / 10, "overlapping outages");
        }
    }
}
