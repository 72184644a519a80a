//! Delta decomposition: evaluate a what-if scenario against a cached
//! healthy base, rebuilding only the clusters the fault actually
//! touches and recomposing only the flows those clusters carry.
//!
//! A what-if grid's per-scenario floor under the from-scratch path is
//! the full re-bucket of every crossing plus a cache-key hash of every
//! cluster — ~8 ms at a million crossings even when a fault moved
//! nothing but one optics latency. [`SweepBase`] keeps, per (topology,
//! workload) pair, the healthy decomposition *plus* each directed
//! link's member list in pre-densification form, each base cluster's id
//! in the sweep's [`SweepCache`], and each flow's healthy estimate
//! (`BaseTerm`). [`SweepBase::estimate_delta`] then:
//!
//! 1. finds the flows a scenario can have perturbed — rerouted flows
//!    (via [`resolve_delta`]'s span diff) plus flows crossing a link
//!    whose latency/bandwidth/liveness changed (their downstream demand
//!    arrivals shift even when the route holds);
//! 2. marks every directed link those flows cross (old or new route) as
//!    *affected* and rebuilds exactly those clusters, merging the
//!    stored unaffected members with the perturbed flows' re-walked
//!    crossings — through the same `walk_span` arithmetic
//!    [`bucket`] uses, so a rebuilt cluster is bit-identical to what a
//!    from-scratch bucket would produce (`delta_matches_scratch` holds
//!    the whole path to outcome equality);
//! 3. interns each rebuilt cluster in the shared [`SweepCache`] — one
//!    hash per cluster, a replay only if the sweep has never seen that
//!    profile — and notes, in a flat per-crossing overlay, which
//!    (cluster, member) now stands behind each crossing of each member;
//! 4. recomposes the flows with a crossing in a rebuilt cluster, reading
//!    delays in place from the cache; every other flow's outcome is its
//!    arrival plus its base term.
//!
//! When a fault perturbs most of the fabric (a spine kill rehashes
//! every leaf's ECMP row), the rebuild would touch more clusters than
//! it skips; past [`SweepBase::fallback_fraction`] the estimator
//! falls back to the from-scratch bucket, which is cheaper than a
//! mostly-total rebuild plus overlay bookkeeping.

use std::borrow::Cow;

use crate::compose::SoloProber;
use crate::decompose::{
    bucket, resolve_all, resolve_delta, snap_links, walk_span, ClusterProfile, Decomposition,
    LinkFlow, ResolvedRoutes, TopoSignature,
};
use crate::{ApproxResult, ClusterId, Combine, SweepCache};
use edm_core::sim::Flow;
use edm_sim::{Bandwidth, Duration, LogHistogram, Time};
use edm_topo::{FlowStatus, TopoEdmConfig, TopoOutcome, Topology};

/// One stored crossing of the base decomposition, in pre-densification
/// form (raw switch ports, absolute demand arrival) so an affected
/// cluster can be rebuilt without re-walking unchanged flows' routes.
#[derive(Debug, Clone, Copy)]
struct KeyMember {
    flow: u32,
    bytes: u32,
    hop: u8,
    in_port: u16,
    out_port: u16,
    arrival: Time,
    limit: u32,
    batchable: bool,
}

/// First-appearance dense numbering, mirroring the bucket's private
/// helper: a rebuilt cluster must densify ports in exactly the order a
/// from-scratch bucket would.
fn dense(map: &mut Vec<u16>, raw: u16) -> u16 {
    match map.iter().position(|&p| p == raw) {
        Some(i) => i as u16,
        None => {
            map.push(raw);
            map.len() as u16 - 1
        }
    }
}

/// One flow's healthy estimate, as the terms a scenario can reuse: the
/// unloaded baseline and each [`Combine`] of the base excesses.
///
/// A flow that was not rerouted and crosses no link or granting switch
/// whose parameters changed keeps its base crossing triples, so its
/// [`crate::SoloCache`] key — and with it `unloaded` — is the base's
/// (the assumption that cache already makes: a baseline depends on the
/// route's shape, not on the scenario). If in addition none of its
/// crossings sits in a rebuilt cluster, each crossing is still served by
/// its base cluster at its base member position, and interned delays
/// never change: `sum` and `bottleneck` are the base's too.
#[derive(Debug, Clone, Copy, Default)]
struct BaseTerm {
    unloaded: Duration,
    sum: Duration,
    bottleneck: Duration,
}

impl BaseTerm {
    fn queued(self, combine: Combine) -> Duration {
        match combine {
            Combine::Sum => self.sum,
            Combine::Bottleneck => self.bottleneck,
        }
    }
}

/// A (topology, workload) pair's cached healthy decomposition, ready to
/// answer what-if scenarios by delta rebuild. Build once per sweep axis
/// with [`SweepBase::new`], simulate it into the sweep's cache with
/// [`SweepBase::prime`], then call [`SweepBase::estimate_delta`] per
/// scenario with that same cache.
#[derive(Debug)]
pub struct SweepBase {
    cfg: TopoEdmConfig,
    /// The healthy fabric: what [`prime`](Self::prime) probes baselines
    /// on, and what a scenario's link states are diffed against.
    topo: Topology,
    flows: Vec<Flow>,
    decomp: Decomposition,
    routes: ResolvedRoutes,
    sig: TopoSignature,
    /// Per-switch baseline scheduler reference bandwidth.
    ref_bw: Vec<Bandwidth>,
    /// Per directed-link key: granting switch (`u32::MAX` when unused).
    key_switch: Vec<u32>,
    /// Per directed-link key: members in flow order.
    key_members: Vec<Vec<KeyMember>>,
    /// Per directed-link key: base cluster index (`u32::MAX` when unused).
    key_cluster: Vec<u32>,
    /// Per base cluster: its id in the cache the base was primed with.
    base_ids: Vec<ClusterId>,
    /// Per flow: the healthy estimate's terms (zero for an unroutable flow).
    base_terms: Vec<BaseTerm>,
    /// Affected-key fraction above which [`Self::estimate_delta`]
    /// abandons the delta rebuild for a
    /// from-scratch bucket. Default 0.6; tests pin it to 0.0/1.0 to
    /// force either path.
    pub fallback_fraction: f64,
}

impl SweepBase {
    /// Decomposes `flows` on the healthy `topo` and indexes every
    /// directed link's membership for later delta rebuilds.
    pub fn new(topo: &Topology, cfg: &TopoEdmConfig, flows: Vec<Flow>) -> Self {
        let routes = resolve_all(topo, &flows);
        let decomp = bucket(topo, cfg, &flows, &routes);
        let sig = TopoSignature::of(topo);
        let snap = snap_links(topo);
        let ref_bw = (0..topo.switch_count() as u32)
            .map(|s| topo.reference_bandwidth(s))
            .collect();
        let keyn = snap.len() * 3;
        let mut key_switch = vec![u32::MAX; keyn];
        let mut key_members: Vec<Vec<KeyMember>> = vec![Vec::new(); keyn];
        let mut key_cluster = vec![u32::MAX; keyn];
        for (i, flow) in flows.iter().enumerate() {
            let hops = decomp.hops(i);
            let mut h = 0u8;
            walk_span(cfg, &snap, flow, routes.span(i), |x| {
                key_switch[x.key] = x.switch;
                key_cluster[x.key] = hops.expect("non-empty span has hops")[h as usize].cluster;
                key_members[x.key].push(KeyMember {
                    flow: i as u32,
                    bytes: flow.size,
                    hop: h,
                    in_port: x.in_port,
                    out_port: x.out_port,
                    arrival: x.arrival,
                    limit: x.limit,
                    batchable: x.batchable,
                });
                h += 1;
            });
        }
        SweepBase {
            cfg: cfg.clone(),
            topo: topo.clone(),
            flows,
            decomp,
            routes,
            sig,
            ref_bw,
            key_switch,
            key_members,
            key_cluster,
            base_ids: Vec::new(),
            base_terms: Vec::new(),
            fallback_fraction: 0.6,
        }
    }

    /// The healthy decomposition.
    pub fn decomp(&self) -> &Decomposition {
        &self.decomp
    }

    /// The flows this base covers.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Interns every base cluster in `cache` (replaying the ones the
    /// sweep has not seen) and computes each flow's healthy terms against
    /// the interned delays. `cache` is from then on *the* cache of this
    /// base: the ids kept here mean nothing to another one.
    pub fn prime(&mut self, cache: &mut SweepCache) {
        self.base_ids = self
            .decomp
            .clusters
            .iter()
            .map(|c| cache.intern(Cow::Borrowed(&c.profile), &self.cfg))
            .collect();
        let (interned, solo) = cache.split();
        let mut probe = SoloProber::new(&self.cfg, solo);
        self.base_terms = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, flow)| {
                let Some(hops) = self.decomp.hops(i) else {
                    return BaseTerm::default();
                };
                let of = |h: &crate::HopRef| &interned[self.base_ids[h.cluster as usize].index()];
                let unloaded = probe.unloaded(&self.topo, flow, hops.iter().map(|h| of(h).shape));
                let excesses = || hops.iter().map(|h| of(h).delays[h.member as usize]);
                BaseTerm {
                    unloaded,
                    sum: Combine::Sum.apply(excesses()),
                    bottleneck: Combine::Bottleneck.apply(excesses()),
                }
            })
            .collect();
    }

    /// Estimates one what-if scenario (`what_if` is the base fabric
    /// with faults applied — [`crate::apply_faults`]) by delta rebuild
    /// against this base, replaying only clusters the scenario
    /// perturbs and recomposing only the flows they carry. `cache` must
    /// be the one this base was [`prime`](Self::prime)d with. The result
    /// is identical to a from-scratch [`crate::ApproxEngine::estimate`]
    /// on `what_if` in every field but `recomposed` (`delta_matches_scratch`
    /// and `prop_approx` pin this).
    pub fn estimate_delta(
        &self,
        what_if: &Topology,
        combine: Combine,
        cache: &mut SweepCache,
    ) -> ApproxResult {
        let n = self.flows.len();
        assert!(
            self.base_ids.len() == self.decomp.clusters.len() && self.base_terms.len() == n,
            "prime the base before estimating deltas"
        );
        assert!(
            self.base_ids.iter().all(|id| id.index() < cache.len()),
            "estimate against the cache the base was primed with"
        );
        let routes_new = resolve_delta(what_if, &self.flows, &self.routes, &self.sig);
        let snap_new = snap_links(what_if);

        // Which flows can the scenario have perturbed? Rerouted flows,
        // flows crossing a link whose effective parameters changed
        // (their own and downstream demand arrivals shift), and flows
        // granted by a switch whose reference bandwidth moved.
        let mut touched = vec![false; n];
        let state = |l: &edm_topo::Link| (l.latency(), l.params.bandwidth, l.is_up());
        for (l, (was, is)) in self.topo.links().iter().zip(what_if.links()).enumerate() {
            if state(was) != state(is) {
                for k in l * 3..l * 3 + 3 {
                    for m in &self.key_members[k] {
                        touched[m.flow as usize] = true;
                    }
                }
            }
        }
        let ref_bw_new: Vec<Bandwidth> = (0..self.ref_bw.len() as u32)
            .map(|s| what_if.reference_bandwidth(s))
            .collect();
        for (s, (new, old)) in ref_bw_new.iter().zip(&self.ref_bw).enumerate() {
            if new != old {
                for (k, &sw) in self.key_switch.iter().enumerate() {
                    if sw == s as u32 {
                        for m in &self.key_members[k] {
                            touched[m.flow as usize] = true;
                        }
                    }
                }
            }
        }
        for &i in routes_new.resolved() {
            let i = i as usize;
            touched[i] |= routes_new.span(i) != self.routes.span(i);
        }

        // Affected directed links: everything a perturbed flow crosses,
        // on its old or new route.
        let keyn = self.key_members.len();
        let mut aff_mark = vec![false; keyn];
        let mut aff_keys: Vec<usize> = Vec::new();
        for (i, _) in touched.iter().enumerate().filter(|(_, t)| **t) {
            for span in [self.routes.span(i), routes_new.span(i)] {
                for rec in span {
                    let (_, _, b_sw) = snap_new[rec.link as usize];
                    let dir = if rec.from_node {
                        2
                    } else {
                        (rec.switch == b_sw) as usize
                    };
                    let key = rec.link as usize * 3 + dir;
                    if !aff_mark[key] {
                        aff_mark[key] = true;
                        aff_keys.push(key);
                    }
                }
            }
        }

        // A mostly-total rebuild is slower than a fresh bucket.
        if aff_keys.len() as f64 > self.fallback_fraction * self.decomp.link_instances as f64 {
            let d = bucket(what_if, &self.cfg, &self.flows, &routes_new);
            for c in &d.clusters {
                cache.intern(Cow::Borrowed(&c.profile), &self.cfg);
            }
            return cache.compose(what_if, &self.cfg, &d, combine);
        }

        // Re-walk the perturbed flows' (new) routes into per-key
        // addition lists, in flow order.
        let mut aff_idx = vec![u32::MAX; keyn];
        for (j, &k) in aff_keys.iter().enumerate() {
            aff_idx[k] = j as u32;
        }
        let mut additions: Vec<Vec<KeyMember>> = vec![Vec::new(); aff_keys.len()];
        let mut aff_switch: Vec<u32> = aff_keys.iter().map(|&k| self.key_switch[k]).collect();
        for (i, flow) in self.flows.iter().enumerate() {
            if !touched[i] {
                continue;
            }
            let mut h = 0u8;
            walk_span(&self.cfg, &snap_new, flow, routes_new.span(i), |x| {
                let j = aff_idx[x.key] as usize;
                if aff_switch[j] == u32::MAX {
                    aff_switch[j] = x.switch;
                }
                additions[j].push(KeyMember {
                    flow: i as u32,
                    bytes: flow.size,
                    hop: h,
                    in_port: x.in_port,
                    out_port: x.out_port,
                    arrival: x.arrival,
                    limit: x.limit,
                    batchable: x.batchable,
                });
                h += 1;
            });
        }

        // Rebuild each affected key: stored unaffected members merged
        // with the additions by flow index — reproducing the bucket's
        // flow-input member order — then densified and interned. The
        // cache lookup is the dedup: affected links whose rebuilt
        // profiles coincide get one id.
        //
        // `overlay[routes_new.offset(flow) + hop]` names the (rebuilt
        // cluster, member) behind that crossing; it is written for
        // *every* member of every rebuilt cluster, perturbed or not, so
        // an untouched entry means "this crossing is the base's".
        // Fresh per scenario, so nothing of the last one can show.
        let mut overlay = vec![(ClusterId::NONE, 0u32); routes_new.crossings()];
        let mut consults_overlay = vec![false; n];
        // Per cluster id: referenced in this scenario already?
        let mut seen = vec![false; cache.len()];
        // The scenario's clusters: first the rebuilt ones, one entry each.
        let mut clusters: Vec<ClusterId> = Vec::new();
        let (mut emptied, mut created) = (0usize, 0usize);
        let mut merged: Vec<KeyMember> = Vec::new();
        for (j, &k) in aff_keys.iter().enumerate() {
            let stored = &self.key_members[k];
            let adds = &additions[j];
            let existed = !stored.is_empty();
            merged.clear();
            merged.reserve(stored.len() + adds.len());
            let (mut a, mut b) = (0usize, 0usize);
            loop {
                while a < stored.len() && touched[stored[a].flow as usize] {
                    a += 1;
                }
                match (a < stored.len(), b < adds.len()) {
                    (false, false) => break,
                    (true, false) => {
                        merged.push(stored[a]);
                        a += 1;
                    }
                    (false, true) => {
                        merged.push(adds[b]);
                        b += 1;
                    }
                    (true, true) => {
                        if stored[a].flow < adds[b].flow {
                            merged.push(stored[a]);
                            a += 1;
                        } else {
                            merged.push(adds[b]);
                            b += 1;
                        }
                    }
                }
            }
            if merged.is_empty() {
                if existed {
                    emptied += 1;
                }
                continue;
            }
            if !existed {
                created += 1;
            }
            let (lat, bw, _) = snap_new[k / 3];
            let mut src_map: Vec<u16> = Vec::new();
            let mut dst_map: Vec<u16> = Vec::new();
            let members: Vec<LinkFlow> = merged
                .iter()
                .map(|m| LinkFlow {
                    arrival: m.arrival,
                    bytes: m.bytes,
                    src: dense(&mut src_map, m.in_port),
                    dst: dense(&mut dst_map, m.out_port),
                    limit: m.limit,
                    batchable: m.batchable,
                })
                .collect();
            let profile = ClusterProfile {
                sched_bandwidth: ref_bw_new[aff_switch[j] as usize],
                link_bandwidth: bw,
                latency: lat,
                srcs: src_map.len() as u16,
                dsts: dst_map.len() as u16,
                members,
            };
            // Replays only what the sweep has never seen; a cluster is
            // tallied once per scenario, like a from-scratch estimate
            // would tally it.
            let (id, hit) = cache.lookup(Cow::Owned(profile), &self.cfg);
            if first_sight(&mut seen, id) {
                cache.tally(hit);
                clusters.push(id);
            }
            for (pos, m) in merged.iter().enumerate() {
                overlay[routes_new.offset(m.flow as usize) + m.hop as usize] = (id, pos as u32);
                consults_overlay[m.flow as usize] = true;
            }
        }

        // Then every base cluster still serving at least one unaffected
        // directed link — by id, so a rebuilt profile equal to a retained
        // one counts once, as a from-scratch dedup would count it.
        for (k, &c) in self.key_cluster.iter().enumerate() {
            if c != u32::MAX && !aff_mark[k] {
                let id = self.base_ids[c as usize];
                if first_sight(&mut seen, id) {
                    clusters.push(id);
                }
            }
        }
        let mut hop_excess = LogHistogram::new();
        for &id in &clusters {
            for &q in cache.delays(id) {
                hop_excess.record_duration(q);
            }
        }

        // Compose. Only a flow with a crossing in a rebuilt cluster is
        // recombined hop by hop — overlay first, base otherwise — and
        // only a perturbed one (all its links were rebuilt) re-probes its
        // baseline; everything else is a base term (see [`BaseTerm`]).
        let (interned, solo) = cache.split();
        let mut probe = SoloProber::new(&self.cfg, solo);
        let mut recomposed = 0;
        // Per-hop scratch: (cluster, member), reused across flows.
        let mut hops: Vec<(ClusterId, u32)> = Vec::new();
        let outcomes: Vec<TopoOutcome> = (0..n)
            .map(|i| {
                let flow = self.flows[i];
                let base = self.base_terms[i];
                recomposed += (touched[i] || consults_overlay[i]) as usize;
                let span_len = routes_new.span(i).len();
                let status = if span_len == 0 {
                    FlowStatus::Failed(flow.arrival)
                } else if !consults_overlay[i] {
                    FlowStatus::Delivered(flow.arrival + base.unloaded + base.queued(combine))
                } else {
                    let at = routes_new.offset(i);
                    let base_hops = self.decomp.hops(i);
                    hops.clear();
                    hops.extend((0..span_len).map(|h| match overlay[at + h] {
                        (ClusterId::NONE, _) => {
                            let hr = base_hops.expect("unperturbed crossing keeps its base hop")[h];
                            (self.base_ids[hr.cluster as usize], hr.member)
                        }
                        rebuilt => rebuilt,
                    }));
                    let unloaded = if touched[i] {
                        probe.unloaded(
                            what_if,
                            &flow,
                            hops.iter().map(|&(c, _)| interned[c.index()].shape),
                        )
                    } else {
                        base.unloaded
                    };
                    let queued = combine.apply(
                        hops.iter()
                            .map(|&(c, m)| interned[c.index()].delays[m as usize]),
                    );
                    FlowStatus::Delivered(flow.arrival + unloaded + queued)
                };
                TopoOutcome { flow, status }
            })
            .collect();

        ApproxResult {
            outcomes,
            clusters: clusters.len(),
            link_instances: self.decomp.link_instances - emptied + created,
            hop_excess,
            recomposed,
        }
    }
}

/// Marks cluster `id` referenced in this scenario; true the first time.
/// `seen` grows on demand: replays intern new ids mid-scenario.
fn first_sight(seen: &mut Vec<bool>, id: ClusterId) -> bool {
    if id.index() >= seen.len() {
        seen.resize(id.index() + 1, false);
    }
    !std::mem::replace(&mut seen[id.index()], true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply_faults, ApproxEngine};
    use edm_core::sim::FlowKind;
    use edm_topo::{FaultKind, LeafSpine};

    fn workload(nodes: usize) -> Vec<Flow> {
        (0..400usize)
            .map(|i| Flow {
                id: i,
                src: i % nodes,
                dst: (i * 13 + 7) % nodes,
                size: 64,
                arrival: edm_sim::Time::ZERO + Duration::from_ns(i as u64 * 40),
                kind: if i % 3 == 0 {
                    FlowKind::Read
                } else {
                    FlowKind::Write
                },
            })
            .filter(|f| f.src != f.dst)
            .collect()
    }

    fn fault_cases(healthy: &Topology) -> Vec<Vec<FaultKind>> {
        let trunks: Vec<u32> = healthy
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_trunk())
            .map(|(i, _)| i as u32)
            .collect();
        let access = healthy.node_link(5);
        vec![
            vec![],
            vec![FaultKind::LinkDown(trunks[0])],
            vec![FaultKind::LinkDown(access)],
            vec![FaultKind::SwitchDown(4)],
            vec![FaultKind::DegradeLink {
                link: trunks[1],
                extra: Duration::from_ns(500),
            }],
            vec![FaultKind::DegradeLink {
                link: access,
                extra: Duration::from_ns(300),
            }],
            vec![
                FaultKind::LinkDown(trunks[0]),
                FaultKind::LinkDown(trunks[trunks.len() / 2]),
            ],
        ]
    }

    /// The delta path's contract: per-flow outcomes identical to a
    /// from-scratch estimate, under both the rebuild and the fallback
    /// path (forced via `fallback_fraction`).
    #[test]
    fn delta_matches_scratch() {
        let spec = LeafSpine::symmetric(4, 2, 8, 2);
        let healthy = Topology::leaf_spine(spec);
        let cfg = TopoEdmConfig::default();
        let flows = workload(32);
        for force in [1.01, 0.0] {
            let mut base = SweepBase::new(&healthy, &cfg, flows.clone());
            base.fallback_fraction = force;
            let mut cache = SweepCache::new();
            base.prime(&mut cache);
            for (ci, faults) in fault_cases(&healthy).iter().enumerate() {
                let mut what_if = Topology::leaf_spine(spec);
                apply_faults(&mut what_if, faults);
                let delta = base.estimate_delta(&what_if, Combine::Sum, &mut cache);
                let scratch = ApproxEngine::new(cfg.clone()).estimate(&what_if, &flows);
                assert_eq!(delta.outcomes.len(), scratch.outcomes.len());
                for (i, (d, s)) in delta.outcomes.iter().zip(&scratch.outcomes).enumerate() {
                    assert_eq!(d.status, s.status, "case {ci}, flow {i}, fallback {force}");
                }
            }
        }
    }

    /// A repair what-if (base built on a degraded fabric, scenario
    /// restores it) exercises the unroutable→routable direction.
    #[test]
    fn delta_handles_repair_what_if() {
        let spec = LeafSpine::symmetric(4, 2, 8, 2);
        let mut degraded = Topology::leaf_spine(spec);
        let victim = degraded.node_link(3);
        degraded.set_link_up(victim, false);
        let cfg = TopoEdmConfig::default();
        let flows = workload(32);
        let mut base = SweepBase::new(&degraded, &cfg, flows.clone());
        let mut cache = SweepCache::new();
        base.prime(&mut cache);
        assert!(
            base.estimate_delta(&degraded, Combine::Sum, &mut cache)
                .failed()
                > 0
        );
        let repaired = Topology::leaf_spine(spec);
        let delta = base.estimate_delta(&repaired, Combine::Sum, &mut cache);
        let scratch = ApproxEngine::new(cfg).estimate(&repaired, &flows);
        assert_eq!(delta.failed(), 0);
        for (d, s) in delta.outcomes.iter().zip(&scratch.outcomes) {
            assert_eq!(d.status, s.status);
        }
    }

    /// A single-optic degradation must rebuild (and replay) only the
    /// clusters along the flows that cross it, and recompose only the
    /// flows those clusters carry — the cheapness the delta path exists
    /// for, as exact counts. A "what-if" that changes nothing does none
    /// of either.
    #[test]
    fn degrade_replays_and_recomposes_only_what_it_perturbs() {
        let spec = LeafSpine::symmetric(4, 2, 8, 2);
        let healthy = Topology::leaf_spine(spec);
        let cfg = TopoEdmConfig::default();
        let flows = workload(32);
        let mut base = SweepBase::new(&healthy, &cfg, flows.clone());
        let mut cache = SweepCache::new();
        base.prime(&mut cache);
        let (cold, served) = (cache.misses(), cache.hits());

        let same = base.estimate_delta(&healthy, Combine::Sum, &mut cache);
        assert_eq!(same.recomposed, 0);
        assert_eq!((cache.misses(), cache.hits()), (cold, served));
        assert_eq!(same.clusters, base.decomp().clusters.len());

        let mut what_if = Topology::leaf_spine(spec);
        apply_faults(
            &mut what_if,
            &[FaultKind::DegradeLink {
                link: healthy.node_link(0),
                extra: Duration::from_ns(250),
            }],
        );
        let r = base.estimate_delta(&what_if, Combine::Sum, &mut cache);
        let replays = cache.misses() - cold;
        assert!(
            replays * 4 < cold,
            "one access degradation replayed {replays} of {cold} clusters"
        );
        // Node 0's two dozen flows drag in everyone sharing a trunk with
        // them: a third of this small fabric's flows, never most.
        assert!(
            r.recomposed > 0 && r.recomposed * 2 < flows.len(),
            "one access degradation recomposed {} of {} flows",
            r.recomposed,
            flows.len()
        );
        let scratch = ApproxEngine::new(cfg).estimate(&what_if, &flows);
        assert_eq!(scratch.recomposed, flows.len());
    }

    /// More than 256 distinct crossing shapes — every access link
    /// degraded by its own amount — used to alias shape ids (`u8`): a
    /// flow was handed another route shape's unloaded baseline in
    /// release builds, and debug builds overflowed. Lone flows queue
    /// nowhere, so each estimate must *be* the exact engine's answer, on
    /// the from-scratch and the delta path alike.
    #[test]
    fn three_hundred_shapes_keep_their_own_baselines() {
        let spec = LeafSpine::symmetric(4, 1, 100, 1);
        let healthy = Topology::leaf_spine(spec);
        let nodes = healthy.nodes();
        let mut slowed = healthy.clone();
        let faults: Vec<FaultKind> = (0..nodes)
            .map(|i| FaultKind::DegradeLink {
                link: healthy.node_link(i),
                extra: Duration::from_ns(1 + i as u64),
            })
            .collect();
        apply_faults(&mut slowed, &faults);
        let flows: Vec<Flow> = (0..300usize)
            .map(|i| Flow {
                id: i,
                src: i,
                dst: nodes - 1,
                size: 64,
                arrival: Time::ZERO + Duration::from_us(50 * i as u64),
                kind: FlowKind::Write,
            })
            .collect();
        let cfg = TopoEdmConfig::default();
        let exact = edm_topo::TopoEdm::new(cfg.clone()).simulate(&slowed, &flows);

        let scratch = ApproxEngine::new(cfg.clone()).estimate(&slowed, &flows);
        let mut base = SweepBase::new(&healthy, &cfg, flows.clone());
        base.fallback_fraction = 1.01;
        let mut cache = SweepCache::new();
        base.prime(&mut cache);
        let delta = base.estimate_delta(&slowed, Combine::Sum, &mut cache);
        assert!(
            cache.solo_probes() > 256,
            "the case must cross the old id width"
        );
        for (path, est) in [("scratch", &scratch), ("delta", &delta)] {
            for (i, (e, x)) in est.outcomes.iter().zip(&exact.outcomes).enumerate() {
                assert_eq!(e.status, x.status, "{path}: lone flow {i}");
            }
        }
    }
}
