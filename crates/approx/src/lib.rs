//! `edm-approx` — Parsimon-style link-level decomposition estimator for
//! datacenter-scale EDM what-if sweeps.
//!
//! The exact multi-switch engine ([`edm_topo::TopoEdm`]) answers "what
//! would this fabric do" by simulating every scheduler event; each
//! what-if question (a topology size, a failure scenario, a load point)
//! costs a full run. This crate trades a *measured* accuracy envelope
//! for orders-of-magnitude cheaper sweeps, following Parsimon's
//! architecture (NSDI '23) re-expressed over EDM's demand-sparse
//! scheduler:
//!
//! 1. [`decompose`](decompose()) — resolve every flow's salted-ECMP path
//!    with the exact engine's *own* path choice (bit-identical, pinned
//!    by `prop_approx`) and slice the flow set onto per-directed-link
//!    clusters, deduplicating links with identical (bandwidth, latency,
//!    flow-profile) signatures.
//! 2. [`simulate_cluster`] — replay each cluster through a miniature
//!    [`edm_core::sim::SwitchDomain`] (the same scheduler core the exact
//!    engine runs per switch — not a new queueing model), yielding
//!    per-crossing queueing excesses as shard-mergeable
//!    [`edm_sim::LogHistogram`]s. Clusters are independent:
//!    embarrassingly parallel.
//! 3. [`compose()`] — per flow, an exact unloaded baseline
//!    ([`edm_topo::TopoEdm::solo_mct`], memoized per route shape) plus a
//!    combination of its crossings' excesses ([`Combine`]; the
//!    documented independence assumption lives there).
//!
//! What-if grids go through [`SweepCache`]: scenarios that leave a
//! link's flow profile untouched (most failure what-ifs) reuse its
//! simulated delays, so a 100-scenario sweep pays for the clusters that
//! *changed*, not 100 full decompositions' worth of replays.
//!
//! When to trust which engine: the estimator is built for breadth-first
//! sweeps over placements, failures, and load points, where relative
//! ordering and ~10% FCT accuracy steer a decision; hand the shortlisted
//! scenarios to [`edm_topo::TopoEdm`] for exact tails, reroute dynamics,
//! and background-IP interaction (the estimator ignores
//! [`edm_topo::TopoEdmConfig::ip`] and models faults as static
//! topology states, not mid-run transitions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
pub mod decompose;
pub mod delta;
mod fxhash;
pub mod linksim;

pub use compose::{compose, compose_cached, ApproxResult, Combine, SoloCache};
pub use decompose::{
    bucket, decompose, resolve_all, resolve_delta, resolve_route, ClusterProfile, CrossRec,
    Decomposition, FlowPath, HopRef, LinkCluster, LinkFlow, ResolvedRoutes, TopoSignature,
};
pub use delta::SweepBase;
pub use linksim::{simulate_batch, simulate_cluster, ClusterDelays};

use std::borrow::Cow;

use crate::fxhash::FxHashMap;
use crate::linksim::{DomainPool, SoloMemo};
use edm_core::sim::Flow;
use edm_sim::Duration;
use edm_topo::{FaultKind, TopoEdmConfig, Topology};

/// The documented p99 FCT error envelope of the estimator against the
/// exact engine on the overlap-size validation points: the paper's 64 B
/// message workloads at loads 0.4/0.7 on healthy and single-fault
/// 144/288-node fabrics. Asserted by the `error_envelope` suite. Outside
/// this regime the error grows — at 1–4 KiB messages under load 0.7 the
/// measured p99 gap reaches ~15% (per-hop serialization couples links
/// more strongly, and the per-link replays cannot see cross-link
/// correlation); `error_envelope` pins one such out-of-envelope point
/// to a band so the degradation stays visible.
pub const P99_ERROR_BOUND: f64 = 0.10;

/// Applies a what-if fault set to a topology as *static* element state
/// (the estimator's failure model: the fabric is already in its degraded
/// steady state when the workload runs, unlike the exact engine's
/// mid-run [`edm_topo::FaultEvent`] transitions).
pub fn apply_faults(topo: &mut Topology, faults: &[FaultKind]) {
    for f in faults {
        match *f {
            FaultKind::LinkDown(l) => topo.set_link_up(l, false),
            FaultKind::LinkUp(l) => topo.set_link_up(l, true),
            FaultKind::SwitchDown(s) => topo.set_switch_up(s, false),
            FaultKind::SwitchUp(s) => topo.set_switch_up(s, true),
            FaultKind::DegradeLink { link, extra } => topo.degrade_link(link, extra),
            FaultKind::RestoreLink(l) => topo.restore_link(l),
        }
    }
}

/// Handle to one cluster interned in a [`SweepCache`]: dense, and stable
/// for the life of that cache (entries are only ever appended), so a
/// [`SweepBase`] can hold its base clusters' ids across every scenario of
/// a sweep. Meaningless to any other cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterId(u32);

impl ClusterId {
    /// Marks "no cluster" in the delta path's flat per-crossing overlay.
    pub(crate) const NONE: ClusterId = ClusterId(u32::MAX);

    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned cluster: its signature, its simulated per-member
/// excesses, and the shape id ([`SoloCache`]) of its crossing triple.
#[derive(Debug)]
pub(crate) struct Interned {
    profile: ClusterProfile,
    pub(crate) delays: Box<[Duration]>,
    pub(crate) shape: u32,
    /// Next entry whose profile hashes alike ([`ClusterId::NONE`] ends
    /// the chain) — collisions are resolved by full profile equality.
    next: ClusterId,
}

/// Sweep-level memo: every distinct cluster signature the sweep has
/// seen, interned once with its simulated delays, plus the exact
/// unloaded baselines ([`SoloCache`]). Across a what-if grid most links'
/// flow profiles are identical from scenario to scenario (a fault only
/// reshapes the clusters of links whose crossing flows rerouted), so
/// consecutive scenarios hit mostly cache — the grid pays for the
/// clusters that *changed*.
///
/// A lookup ([`intern`](Self::intern)) hashes the profile — its whole
/// member list — exactly once, moves an owned profile in on a miss, and
/// hands back a [`ClusterId`]; delays are then read in place
/// ([`delays`](Self::delays)), never copied out. Cached delays are bare
/// excess slices, not [`ClusterDelays`]: a grid's cache holds thousands
/// of clusters, and the per-cluster histogram (~32 KB each) is cheap to
/// rebuild from the excesses at composition time but expensive to keep
/// resident.
#[derive(Debug, Default)]
pub struct SweepCache {
    /// Profile hash → head of the chain of entries hashing to it.
    index: FxHashMap<u64, ClusterId>,
    entries: Vec<Interned>,
    mini: SoloMemo,
    pool: DomainPool,
    solo: SoloCache,
    hits: u64,
    misses: u64,
}

impl SweepCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cluster simulations served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cluster simulations actually replayed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Exact solo probes run across the sweep so far.
    pub fn solo_probes(&self) -> usize {
        self.solo.probes()
    }

    /// Clusters interned so far; every [`ClusterId`] this cache handed
    /// out indexes below it.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Takes the two fields rather than `&self` so composition can hold
    /// the entries while it mutates the solo half.
    fn find(
        index: &FxHashMap<u64, ClusterId>,
        entries: &[Interned],
        hash: u64,
        profile: &ClusterProfile,
    ) -> Option<ClusterId> {
        let mut at = *index.get(&hash)?;
        while at != ClusterId::NONE {
            let e = &entries[at.index()];
            if e.profile == *profile {
                return Some(at);
            }
            at = e.next;
        }
        None
    }

    /// Finds `profile`'s entry, replaying the cluster in-process first if
    /// the sweep has not seen it; says whether it was a hit. Tallies
    /// nothing: the delta rebuild counts a cluster once per scenario
    /// however many of its links collapse onto it.
    pub(crate) fn lookup(
        &mut self,
        profile: Cow<'_, ClusterProfile>,
        cfg: &TopoEdmConfig,
    ) -> (ClusterId, bool) {
        let hash = profile.fx_hash();
        if let Some(id) = Self::find(&self.index, &self.entries, hash, &profile) {
            return (id, true);
        }
        let delays = linksim::simulate_memo(&profile, cfg, &mut self.mini, &mut self.pool);
        let id = u32::try_from(self.entries.len()).map_or(ClusterId::NONE, ClusterId);
        assert!(
            id != ClusterId::NONE,
            "fewer than 2^32 - 1 clusters per sweep"
        );
        let next = self.index.insert(hash, id).unwrap_or(ClusterId::NONE);
        let shape = self.solo.shape_id(profile.shape());
        self.entries.push(Interned {
            profile: profile.into_owned(),
            delays: delays.excess.into_boxed_slice(),
            shape,
            next,
        });
        (id, false)
    }

    pub(crate) fn tally(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Interns `profile`: one hash of the profile, an in-process replay
    /// if the sweep has not seen it (tallied a miss; an owned profile is
    /// moved in, a borrowed one cloned), a hit otherwise. The returned id
    /// reads the delays in place via [`delays`](Self::delays).
    pub fn intern(&mut self, profile: Cow<'_, ClusterProfile>, cfg: &TopoEdmConfig) -> ClusterId {
        let (id, hit) = self.lookup(profile, cfg);
        self.tally(hit);
        id
    }

    /// The per-member excesses of interned cluster `id`, indexed like its
    /// profile's `members`.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from another cache with fewer entries.
    pub fn delays(&self, id: ClusterId) -> &[Duration] {
        &self.entries[id.index()].delays
    }

    /// The interned clusters and the solo-baseline half, borrowed apart:
    /// composition probes baselines (mutably) while reading delays.
    pub(crate) fn split(&mut self) -> (&[Interned], &mut SoloCache) {
        (&self.entries, &mut self.solo)
    }

    /// Composes `decomp` against this cache's delays without cloning
    /// them. Every cluster must already be interned
    /// ([`intern`](Self::intern)).
    ///
    /// # Panics
    ///
    /// Panics if a cluster of `decomp` has no cached delays.
    pub fn compose(
        &mut self,
        topo: &Topology,
        cfg: &TopoEdmConfig,
        decomp: &Decomposition,
        combine: Combine,
    ) -> ApproxResult {
        let (entries, solo) = (&self.entries, &mut self.solo);
        let delays: Vec<&[Duration]> = decomp
            .clusters
            .iter()
            .map(|c| {
                let id = Self::find(&self.index, entries, c.profile.fx_hash(), &c.profile)
                    .expect("every cluster simulated before composition");
                &entries[id.index()].delays[..]
            })
            .collect();
        compose_cached(topo, cfg, decomp, &delays, combine, solo)
    }
}

/// The approximate engine: decompose → per-link replay → compose, under
/// one exact-engine configuration.
#[derive(Debug, Clone, Default)]
pub struct ApproxEngine {
    cfg: TopoEdmConfig,
    /// How per-link excesses combine end to end (see [`Combine`]).
    pub combine: Combine,
}

impl ApproxEngine {
    /// An engine estimating the exact engine under `cfg`.
    pub fn new(cfg: TopoEdmConfig) -> Self {
        ApproxEngine {
            cfg,
            combine: Combine::default(),
        }
    }

    /// The exact-engine configuration being estimated.
    pub fn config(&self) -> &TopoEdmConfig {
        &self.cfg
    }

    /// Estimates per-flow outcomes for `flows` on `topo`, simulating
    /// every cluster in-process. For grids, use
    /// [`estimate_cached`](Self::estimate_cached), or a [`SweepBase`]
    /// per (topology, workload) pair.
    pub fn estimate(&self, topo: &Topology, flows: &[Flow]) -> ApproxResult {
        let mut cache = SweepCache::new();
        self.estimate_cached(topo, flows, &mut cache)
    }

    /// Estimates with a sweep-level [`SweepCache`], so unchanged links
    /// and already-probed route shapes are replayed once per sweep.
    pub fn estimate_cached(
        &self,
        topo: &Topology,
        flows: &[Flow],
        cache: &mut SweepCache,
    ) -> ApproxResult {
        let d = decompose(topo, &self.cfg, flows);
        for c in &d.clusters {
            cache.intern(Cow::Borrowed(&c.profile), &self.cfg);
        }
        cache.compose(topo, &self.cfg, &d, self.combine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_core::sim::{ClusterConfig, FlowKind};
    use edm_sim::{Duration, Time};
    use edm_topo::{cluster_topology, LeafSpine, TopoEdm};

    fn flows(n: usize, nodes: usize, gap_ns: u64) -> Vec<Flow> {
        (0..n)
            .map(|i| Flow {
                id: i,
                src: i % (nodes / 2),
                dst: nodes / 2 + (i * 7) % (nodes / 2),
                size: 64,
                arrival: Time::ZERO + Duration::from_ns(i as u64 * gap_ns),
                kind: if i % 3 == 0 {
                    FlowKind::Read
                } else {
                    FlowKind::Write
                },
            })
            .collect()
    }

    #[test]
    fn sparse_load_estimates_match_exact_closely() {
        // Widely spaced flows barely contend: estimate and exact agree
        // to within the mini-model's residual.
        let topo = cluster_topology(&ClusterConfig::default());
        let cfg = TopoEdmConfig::default();
        let fs = flows(200, 144, 2000);
        let est = ApproxEngine::new(cfg.clone()).estimate(&topo, &fs);
        let exact = TopoEdm::new(cfg).simulate(&topo, &fs);
        assert_eq!(est.delivered(), exact.stats.delivered as usize);
        for (e, x) in est.outcomes.iter().zip(&exact.outcomes) {
            let (e, x) = (e.mct().unwrap(), x.mct().unwrap());
            let err = (e.as_ns_f64() - x.as_ns_f64()).abs() / x.as_ns_f64();
            assert!(err < 0.15, "sparse flow err {err:.3} ({e:?} vs {x:?})");
        }
    }

    #[test]
    fn cache_reuses_unchanged_clusters_across_scenarios() {
        let spec = LeafSpine::symmetric(4, 2, 4, 2);
        let cfg = TopoEdmConfig::default();
        let fs = flows(64, 16, 500);
        let eng = ApproxEngine::new(cfg);
        let mut cache = SweepCache::new();

        let healthy = Topology::leaf_spine(spec);
        eng.estimate_cached(&healthy, &fs, &mut cache);
        let cold = cache.misses();
        assert_eq!(cache.hits(), 0);

        // Same scenario again: pure cache.
        eng.estimate_cached(&healthy, &fs, &mut cache);
        assert_eq!(cache.misses(), cold);

        // One access link down: only the clusters whose profiles shifted
        // (rerouted crossings) replay.
        let mut faulted = Topology::leaf_spine(spec);
        apply_faults(&mut faulted, &[FaultKind::LinkDown(healthy.node_link(0))]);
        eng.estimate_cached(&faulted, &fs, &mut cache);
        assert!(
            cache.misses() < cold * 2,
            "fault scenario must mostly reuse: {} cold, {} total misses",
            cold,
            cache.misses()
        );
    }

    #[test]
    fn what_if_fault_fails_disconnected_flows() {
        let mut topo = cluster_topology(&ClusterConfig::default());
        let victim = topo.node_link(0);
        apply_faults(&mut topo, &[FaultKind::LinkDown(victim)]);
        let fs = flows(20, 144, 100);
        let est = ApproxEngine::default().estimate(&topo, &fs);
        assert!(est.failed() > 0, "node 0's flows are unroutable");
        assert_eq!(est.failed() + est.delivered(), fs.len());
    }
}
