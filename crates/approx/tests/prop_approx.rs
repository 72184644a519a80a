//! Two pins.
//!
//! **Path choice**: `edm-approx`'s own route resolution
//! ([`edm_approx::resolve_route`]) must be bit-identical to the exact
//! engine's salted-ECMP choice ([`edm_topo::admission_route`]) for every
//! flow on every topology — the decomposition buckets flows onto the
//! links the *exact* engine would cross, or its per-link replays model
//! the wrong contention. The two functions are independent derivations
//! (data direction + flow-id salt), so this suite is a real equivalence
//! check, not a tautology.
//!
//! **Delta ≡ scratch**: [`edm_approx::SweepBase::estimate_delta`] takes
//! every shortcut the sweep allows — interned clusters, a per-crossing
//! overlay, healthy per-flow terms reused for flows a scenario did not
//! perturb — and must still return what a from-scratch
//! [`edm_approx::ApproxEngine::estimate`] on the faulted fabric returns,
//! scenario after scenario against one base and one cache, and in
//! whichever order the scenarios run.

use std::collections::{HashMap, HashSet};

use edm_approx::{
    apply_faults, decompose, resolve_all, resolve_route, ApproxEngine, ApproxResult, Combine,
    SweepBase, SweepCache,
};
use edm_core::sim::{Flow, FlowKind};
use edm_sim::{Duration, Rng, Time};
use edm_topo::{admission_route, FaultKind, LeafSpine, TopoEdmConfig, Topology};
use proptest::prelude::*;

/// Every (src, dst, id, kind) combination routes identically through
/// both derivations — including the unroutable (`None`) cases.
fn assert_paths_pinned(t: &Topology, salt0: u64) {
    let nodes = t.nodes();
    for src in 0..nodes {
        for dst in 0..nodes {
            if src == dst {
                continue;
            }
            for (k, kind) in [FlowKind::Write, FlowKind::Read].into_iter().enumerate() {
                let flow = Flow {
                    id: (salt0 as usize)
                        .wrapping_mul(31)
                        .wrapping_add(src * nodes + dst + k),
                    src,
                    dst,
                    size: 256,
                    arrival: Time::ZERO,
                    kind,
                };
                assert_eq!(
                    resolve_route(t, &flow),
                    admission_route(t, &flow),
                    "path divergence for {flow:?}"
                );
            }
        }
    }
}

/// `Rng::below` over `usize`: the scenario shapes below need dependent
/// draws (a fault's kind decides what its operand ranges over), so they
/// come from one seeded stream rather than from independent strategies.
fn below(d: &mut Rng, n: usize) -> usize {
    d.below(n as u64) as usize
}

/// Mixed reads and writes of 64 B–4 KiB, arriving 0–150 ns apart so
/// links see contention, same-instant ties and idle gaps alike.
fn mixed_flows(d: &mut Rng, nodes: usize, count: usize) -> Vec<Flow> {
    let mut at = Time::ZERO;
    (0..count)
        .map(|id| {
            at += Duration::from_ns(below(d, 4) as u64 * 50);
            let src = below(d, nodes);
            Flow {
                id,
                src,
                dst: (src + 1 + below(d, nodes - 1)) % nodes,
                size: 64 << below(d, 7),
                arrival: at,
                kind: [FlowKind::Read, FlowKind::Write][below(d, 2)],
            }
        })
        .collect()
}

/// One to three faults; with `repairs`, some undo the base's own damage.
fn draw_faults(d: &mut Rng, topo: &Topology, repairs: &[FaultKind]) -> Vec<FaultKind> {
    (0..1 + below(d, 3))
        .map(|_| {
            let link = below(d, topo.links().len()) as u32;
            match below(d, if repairs.is_empty() { 3 } else { 5 }) {
                0 => FaultKind::LinkDown(link),
                1 => FaultKind::SwitchDown(below(d, topo.switch_count()) as u32),
                2 => FaultKind::DegradeLink {
                    link,
                    extra: Duration::from_ns(1 + below(d, 800) as u64),
                },
                _ => repairs[below(d, repairs.len())],
            }
        })
        .collect()
}

/// A directed link, named the way a crossing names it.
type Key = (u32, u32, bool);

/// How many clusters a delta rebuild of `what_if` against `base` has to
/// look up — the spec of [`SweepBase::estimate_delta`]'s step 1–3,
/// written against the public stage functions: a flow is perturbed if
/// its route moved or it crosses a link whose state changed; every
/// directed link a perturbed flow crosses, before or after, is rebuilt;
/// rebuilt links with equal profiles are one cluster.
fn rebuilt_clusters(
    base: &Topology,
    what_if: &Topology,
    cfg: &TopoEdmConfig,
    flows: &[Flow],
) -> usize {
    let (old, new) = (resolve_all(base, flows), resolve_all(what_if, flows));
    let state = |t: &Topology, l: u32| {
        let l = t.link(l);
        (l.latency(), l.params.bandwidth, l.is_up())
    };
    let key = |r: &edm_approx::CrossRec| (r.link, r.switch, r.from_node);
    let mut affected: HashSet<Key> = HashSet::new();
    for i in 0..flows.len() {
        let perturbed = old.span(i) != new.span(i)
            || old
                .span(i)
                .iter()
                .any(|r| state(base, r.link) != state(what_if, r.link));
        if perturbed {
            affected.extend(old.span(i).iter().chain(new.span(i)).map(key));
        }
    }
    let after = decompose(what_if, cfg, flows);
    let mut cluster_of: HashMap<Key, u32> = HashMap::new();
    for i in 0..flows.len() {
        if let Some(hops) = after.hops(i) {
            for (r, h) in new.span(i).iter().zip(hops) {
                cluster_of.insert(key(r), h.cluster);
            }
        }
    }
    let rebuilt: HashSet<u32> = affected
        .iter()
        .filter_map(|k| cluster_of.get(k).copied())
        .collect();
    rebuilt.len()
}

fn assert_same_estimate(delta: &ApproxResult, scratch: &ApproxResult, what: &str) {
    assert_eq!(delta.outcomes.len(), scratch.outcomes.len(), "{what}");
    for (i, (d, s)) in delta.outcomes.iter().zip(&scratch.outcomes).enumerate() {
        assert_eq!(d.status, s.status, "{what}: flow {i}");
    }
    assert_eq!(delta.failed(), scratch.failed(), "{what}");
    assert_eq!(delta.clusters, scratch.clusters, "{what}: clusters");
    assert_eq!(delta.link_instances, scratch.link_instances, "{what}");
}

proptest! {
    /// Three consecutive what-ifs against one primed base and one shared
    /// cache — the second and third run on the interned ids and base
    /// terms the first left behind — each equal to a from-scratch
    /// estimate of the same faulted fabric.
    #[test]
    fn delta_scenarios_match_scratch(
        leaves in 2usize..5,
        spines in 1usize..3,
        npl in 2usize..6,
        uplinks in 1usize..3,
        count in 20usize..120,
        seed in any::<u64>(),
        degraded_base in any::<bool>(),
    ) {
        let mut d = Rng::seed_from(seed);
        let mut base_topo = Topology::leaf_spine(LeafSpine::symmetric(leaves, spines, npl, uplinks));
        let mut repairs = Vec::new();
        if degraded_base {
            let (down, slow) = (
                below(&mut d, base_topo.links().len()) as u32,
                below(&mut d, base_topo.links().len()) as u32,
            );
            let sw = below(&mut d, base_topo.switch_count()) as u32;
            apply_faults(&mut base_topo, &[
                FaultKind::LinkDown(down),
                FaultKind::DegradeLink { link: slow, extra: Duration::from_ns(400) },
                FaultKind::SwitchDown(sw),
            ]);
            repairs = vec![
                FaultKind::LinkUp(down),
                FaultKind::RestoreLink(slow),
                FaultKind::SwitchUp(sw),
            ];
        }
        let cfg = TopoEdmConfig::default();
        let flows = mixed_flows(&mut d, base_topo.nodes(), count);
        let engine = ApproxEngine::new(cfg.clone());

        let mut base = SweepBase::new(&base_topo, &cfg, flows.clone());
        let mut cache = SweepCache::new();
        base.prime(&mut cache);
        for scenario in 0..3 {
            let faults = draw_faults(&mut d, &base_topo, &repairs);
            let mut what_if = base_topo.clone();
            apply_faults(&mut what_if, &faults);
            let what = format!("scenario {scenario} {faults:?}");

            let looked_up = cache.hits() + cache.misses();
            let delta = base.estimate_delta(&what_if, Combine::Sum, &mut cache);
            let looked_up = cache.hits() + cache.misses() - looked_up;
            let scratch = engine.estimate(&what_if, &flows);
            assert_same_estimate(&delta, &scratch, &what);

            let rebuilt = rebuilt_clusters(&base_topo, &what_if, &cfg, &flows);
            prop_assert_eq!(looked_up as usize, rebuilt, "{}: lookups", what);
            prop_assert!(delta.recomposed <= flows.len());
        }
    }

    /// The same three what-ifs, in the drawn order and in a shuffled
    /// one, each time against a fresh base and cache: every scenario's
    /// estimate is the same whichever scenarios the cache served before
    /// it — a cluster's delays come from its own profile, never from the
    /// representatives earlier profiles happened to leave behind.
    #[test]
    fn scenario_order_does_not_change_estimates(
        leaves in 2usize..5,
        spines in 1usize..3,
        npl in 2usize..6,
        uplinks in 1usize..3,
        count in 20usize..120,
        seed in any::<u64>(),
    ) {
        let mut d = Rng::seed_from(seed);
        let topo = Topology::leaf_spine(LeafSpine::symmetric(leaves, spines, npl, uplinks));
        let cfg = TopoEdmConfig::default();
        let flows = mixed_flows(&mut d, topo.nodes(), count);
        let scenarios: Vec<Topology> = (0..3)
            .map(|_| {
                let mut what_if = topo.clone();
                apply_faults(&mut what_if, &draw_faults(&mut d, &topo, &[]));
                what_if
            })
            .collect();
        let mut shuffled = [0, 1, 2];
        d.shuffle(&mut shuffled);
        if shuffled == [0, 1, 2] {
            shuffled.reverse();
        }
        let run = |order: &[usize]| {
            let mut base = SweepBase::new(&topo, &cfg, flows.clone());
            let mut cache = SweepCache::new();
            base.prime(&mut cache);
            let mut out: Vec<Option<ApproxResult>> = vec![None, None, None];
            for &i in order {
                out[i] = Some(base.estimate_delta(&scenarios[i], Combine::Sum, &mut cache));
            }
            out.into_iter().map(|r| r.expect("every scenario ran")).collect::<Vec<_>>()
        };
        let (drawn, reordered) = (run(&[0, 1, 2]), run(&shuffled));
        for (i, (a, b)) in drawn.iter().zip(&reordered).enumerate() {
            assert_same_estimate(a, b, &format!("scenario {i}, order {shuffled:?}"));
        }
    }

    /// Random leaf–spine shapes, healthy and with one element downed:
    /// both derivations pick the same path (or agree it does not exist).
    #[test]
    fn leaf_spine_path_choice_is_pinned(
        leaves in 2usize..6,
        spines in 1usize..4,
        npl in 2usize..6,
        uplinks in 1usize..3,
        salt in any::<u64>(),
        kill_spine in any::<bool>(),
    ) {
        let mut t = Topology::leaf_spine(LeafSpine::symmetric(leaves, spines, npl, uplinks));
        assert_paths_pinned(&t, salt);

        // Degrade the fabric: drop one trunk (or a whole spine) and
        // re-pin — reroute-time path choice must agree too.
        if kill_spine {
            // With a single spine this partitions all cross-leaf pairs:
            // the pin then covers the None agreement.
            t.set_switch_up(leaves as u32, false);
        } else {
            let trunk = t
                .links()
                .iter()
                .position(|l| l.is_trunk())
                .expect("leaf-spine has trunks") as u32;
            t.set_link_up(trunk, false);
        }
        assert_paths_pinned(&t, salt.wrapping_add(1));
    }

    /// Arbitrary connected adjacency (random spanning tree plus extra
    /// trunks): same pin, same degraded-fabric re-check.
    #[test]
    fn arbitrary_adjacency_path_choice_is_pinned(
        switches in 2usize..7,
        attach_seed in any::<u64>(),
        extra in proptest::collection::vec((0u32..7, 0u32..7), 0..6),
        salt in any::<u64>(),
        kill in any::<u64>(),
    ) {
        let attach: Vec<u32> = (0..switches as u32).collect();
        let mut trunks: Vec<(u32, u32)> = (1..switches as u32).map(|s| {
            let parent = (attach_seed.wrapping_mul(0x9E37_79B9).wrapping_add(s as u64 * 7) % s as u64) as u32;
            (parent, s)
        }).collect();
        for &(a, b) in &extra {
            let (a, b) = (a % switches as u32, b % switches as u32);
            if a != b {
                trunks.push((a.min(b), a.max(b)));
            }
        }
        let mut t = Topology::from_adjacency(
            switches,
            &attach,
            &trunks,
            Default::default(),
            Default::default(),
        );
        assert_paths_pinned(&t, salt);

        // Drop one pseudo-random trunk; possibly partitioning — the pin
        // covers the None agreement as much as the Some agreement.
        let trunk_links: Vec<u32> = t
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_trunk())
            .map(|(i, _)| i as u32)
            .collect();
        if !trunk_links.is_empty() {
            t.set_link_up(trunk_links[(kill % trunk_links.len() as u64) as usize], false);
            assert_paths_pinned(&t, salt.wrapping_add(1));
        }
    }
}
