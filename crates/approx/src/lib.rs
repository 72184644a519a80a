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
//! 2. Replay through a miniature [`edm_core::sim::SwitchDomain`] (the
//!    same scheduler core the exact engine runs per switch — not a new
//!    queueing model), yielding one queueing excess per crossing
//!    ([`ClusterDelays`]). An estimate replays
//!    one *representative* per similar link, not one mini-simulation per
//!    distinct one: [`SweepCache`] keys each cluster by quantized
//!    features (crossing triple and largest message exact; member and
//!    port counts and mean arrival gap log-bucketed; trunk-limit share
//!    in quarters), replays a synthetic profile built
//!    from the key alone once per key, and gives each member the
//!    representative's excess at its own arrival rank.
//!    [`simulate_cluster`] / [`simulate_batch`] replay each cluster
//!    itself — the reference the representatives approximate.
//! 3. Compose ([`SweepCache::compose`]) — per flow, an exact unloaded
//!    baseline ([`edm_topo::TopoEdm::solo_mct`], memoized per route
//!    shape) plus the sum of its crossings' excesses (the documented
//!    independence assumption lives in [`compose`]).
//!
//! What-if grids go through [`SweepCache`]: scenarios that leave a
//! link's flow profile untouched (most failure what-ifs) reuse its
//! delays, and a changed profile usually lands on a representative the
//! sweep already replayed, so a 100-scenario sweep pays for the
//! representatives it has not needed before, not 100 full
//! decompositions' worth of replays. A cluster's delays depend on its
//! own profile alone, so an estimate is the same whichever scenarios
//! the cache served first.
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
mod represent;

pub use compose::{ApproxResult, Combine};
pub use decompose::{
    bucket, decompose, resolve_all, resolve_route, ClusterProfile, CrossRec, Decomposition,
    FlowPath, HopRef, LinkCluster, LinkFlow, ResolvedRoutes,
};
pub use delta::SweepBase;
pub use linksim::{simulate_batch, simulate_cluster, ClusterDelays};

use std::borrow::Cow;

use crate::compose::{compose_cached, SoloCache};
use crate::fxhash::FxHashMap;
use crate::linksim::{DomainPool, SoloMemo};
use crate::represent::RepKey;
use edm_core::sim::Flow;
use edm_sim::Duration;
use edm_topo::{FaultKind, TopoEdmConfig, Topology};

/// The documented p99 FCT error envelope of the estimator against the
/// exact engine on the overlap-size validation points: the paper's 64 B
/// message workloads at loads 0.4/0.7 on healthy and single-fault
/// 144/288-node fabrics. Asserted by the `error_envelope` suite. Outside
/// this regime the error grows — at 4 KiB messages under load 0.7 the
/// measured p99 gap is 7–19% across seeds (per-hop serialization
/// couples links more strongly, and the per-link replays cannot see
/// cross-link correlation); `error_envelope` pins one such
/// out-of-envelope point to a band so the degradation stays visible.
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
    /// Marks "no cluster": the end of a [`SweepCache`] hash chain.
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
/// seen, interned once with its delays, the representative replays
/// those delays were read from, and the exact unloaded baselines
/// (`SoloCache`). Across a what-if grid most links' flow profiles are
/// identical from scenario to scenario (a fault only reshapes the
/// clusters of links whose crossing flows rerouted), so consecutive
/// scenarios hit mostly cache — the grid pays for the clusters that
/// *changed*.
///
/// A lookup (`intern`) hashes the profile — its whole
/// member list — exactly once. On a miss it does not replay the cluster
/// itself: it keys the profile by quantized features (crossing triple
/// and largest message exact; member, source-port and destination-port
/// counts and mean arrival gap log-bucketed; trunk-limit share in
/// quarters), replays that key's synthetic representative once
/// per cache, and gives each member the representative's excess at its
/// own arrival rank (the `represent` module). The mapped delays are
/// interned under the exact profile, so an exact repeat is a plain hit.
/// The representative is built from the key alone, so a cluster's
/// delays depend on its own profile and never on what the cache served
/// before: an estimate is the same through a fresh cache or a
/// long-lived one.
///
/// A miss moves an owned profile in (a borrowed one is cloned); every
/// lookup hands back a [`ClusterId`], and composition then reads the
/// delays in place, never copied out. Cached delays are boxed excess
/// slices, one per member, not [`ClusterDelays`]' growable vectors: a
/// grid's cache holds thousands of clusters and never grows one.
#[derive(Debug)]
pub struct SweepCache {
    /// Profile hash → head of the chain of entries hashing to it.
    index: FxHashMap<u64, ClusterId>,
    entries: Vec<Interned>,
    /// Feature key → its representative's excesses in arrival-rank order.
    reps: FxHashMap<RepKey, Box<[Duration]>>,
    /// Sub-buckets per octave of the feature key; `None` replays every
    /// distinct cluster itself (the reference path, test-only).
    resolution: Option<u32>,
    mini: SoloMemo,
    pool: DomainPool,
    solo: SoloCache,
    hits: u64,
    misses: u64,
}

impl Default for SweepCache {
    fn default() -> Self {
        Self::with_resolution(Some(represent::RESOLUTION))
    }
}

impl SweepCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache keying clusters at `resolution` sub-buckets per
    /// octave, or replaying every distinct cluster with `None`.
    pub(crate) fn with_resolution(resolution: Option<u32>) -> Self {
        SweepCache {
            index: FxHashMap::default(),
            entries: Vec::new(),
            reps: FxHashMap::default(),
            resolution,
            mini: SoloMemo::default(),
            pool: DomainPool::default(),
            solo: SoloCache::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// Cluster lookups served without a replay: an exact repeat of a
    /// profile the cache has seen, or a new profile whose
    /// representative was already replayed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Replays actually run: one per representative, the first time a
    /// lookup needs it.
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

    /// Finds `profile`'s entry, interning it first if the sweep has not
    /// seen it — its delays read off its representative, replayed
    /// in-process first if no earlier profile needed it. Says whether
    /// the lookup was served without a replay. Tallies nothing: the
    /// delta rebuild counts a cluster once per scenario however many of
    /// its links collapse onto it.
    pub(crate) fn lookup(
        &mut self,
        profile: Cow<'_, ClusterProfile>,
        cfg: &TopoEdmConfig,
    ) -> (ClusterId, bool) {
        let hash = profile.fx_hash();
        if let Some(id) = Self::find(&self.index, &self.entries, hash, &profile) {
            return (id, true);
        }
        let (mini, pool) = (&mut self.mini, &mut self.pool);
        let mut served = true;
        let delays = match self.resolution {
            None => {
                served = false;
                linksim::simulate_memo(&profile, cfg, mini, pool)
                    .excess
                    .into_boxed_slice()
            }
            Some(r) => {
                let key = RepKey::of(&profile, r);
                let rep = self.reps.entry(key).or_insert_with(|| {
                    served = false;
                    let rep = key.profile(cfg);
                    linksim::simulate_memo(&rep, cfg, mini, pool)
                        .excess
                        .into_boxed_slice()
                });
                represent::by_rank(&profile, rep)
            }
        };
        let id = u32::try_from(self.entries.len()).map_or(ClusterId::NONE, ClusterId);
        assert!(
            id != ClusterId::NONE,
            "fewer than 2^32 - 1 clusters per sweep"
        );
        let next = self.index.insert(hash, id).unwrap_or(ClusterId::NONE);
        let shape = self.solo.shape_id(profile.shape());
        self.entries.push(Interned {
            profile: profile.into_owned(),
            delays,
            shape,
            next,
        });
        (id, served)
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
    /// moved in, a borrowed one cloned), a hit otherwise. Composition
    /// reads the delays behind the returned id in place.
    pub(crate) fn intern(
        &mut self,
        profile: Cow<'_, ClusterProfile>,
        cfg: &TopoEdmConfig,
    ) -> ClusterId {
        let (id, hit) = self.lookup(profile, cfg);
        self.tally(hit);
        id
    }

    /// The interned clusters and the solo-baseline half, borrowed apart:
    /// composition probes baselines (mutably) while reading delays.
    pub(crate) fn split(&mut self) -> (&[Interned], &mut SoloCache) {
        (&self.entries, &mut self.solo)
    }

    /// Composes `decomp` against this cache's delays without cloning
    /// them. Every cluster must already be interned (by
    /// [`SweepBase::prime`] or [`ApproxEngine::estimate_cached`]).
    /// `Combine` has the one variant [`Combine::Sum`], so `_combine`
    /// selects nothing.
    ///
    /// # Panics
    ///
    /// Panics if a cluster of `decomp` has no cached delays.
    pub fn compose(
        &mut self,
        topo: &Topology,
        cfg: &TopoEdmConfig,
        decomp: &Decomposition,
        _combine: Combine,
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
        compose_cached(topo, cfg, decomp, &delays, solo)
    }
}

/// The approximate engine: decompose → per-link replay → compose, under
/// one exact-engine configuration.
#[derive(Debug, Clone, Default)]
pub struct ApproxEngine {
    cfg: TopoEdmConfig,
}

impl ApproxEngine {
    /// An engine estimating the exact engine under `cfg`.
    pub fn new(cfg: TopoEdmConfig) -> Self {
        ApproxEngine { cfg }
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
        cache.compose(topo, &self.cfg, &d, Combine::Sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_core::sim::{ClusterConfig, FlowKind};
    use edm_sim::{Bandwidth, Duration, LogHistogram, Time};
    use edm_topo::{cluster_topology, FlowStatus, LeafSpine, TopoEdm};
    use edm_workloads::RackAwareWorkload;

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

        // Every distinct cluster is looked up once: the first to need a
        // representative replays it, the rest are served by it.
        let healthy = Topology::leaf_spine(spec);
        let clusters = eng.estimate_cached(&healthy, &fs, &mut cache).clusters as u64;
        let (cold, served) = (cache.misses(), cache.hits());
        assert!(cold > 0);
        assert_eq!(cold + served, clusters);

        // Same scenario again: pure cache, every lookup an exact repeat.
        eng.estimate_cached(&healthy, &fs, &mut cache);
        assert_eq!(cache.misses(), cold);
        assert_eq!(cache.hits(), served + clusters);

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

    /// The 288-node overlap fabric: 4 leaves × 72 hosts, 2 spines.
    fn leaf_spine_288() -> Topology {
        Topology::leaf_spine(LeafSpine::symmetric(4, 2, 72, 36))
    }

    /// Rack-aware 64 B traffic over `nodes` hosts in `racks` racks.
    fn rack_flows(
        nodes: usize,
        racks: usize,
        load: f64,
        local: f64,
        count: usize,
        seed: u64,
    ) -> Vec<Flow> {
        RackAwareWorkload {
            nodes,
            racks,
            link: Bandwidth::from_gbps(100),
            load,
            size: 64,
            write_fraction: 0.5,
            local_fraction: local,
            count,
        }
        .generate(seed)
    }

    fn first_trunk(topo: &Topology) -> u32 {
        topo.links()
            .iter()
            .position(|l| l.is_trunk())
            .expect("leaf-spine has trunks") as u32
    }

    /// Folds every outcome's flow id, status and instant.
    fn fold_outcomes(h: &mut u64, r: &ApproxResult) {
        let mut mix = |v: u64| *h = (*h ^ v).wrapping_mul(0x100_0000_01b3);
        for o in &r.outcomes {
            let (tag, t) = match o.status {
                FlowStatus::Delivered(t) => (1, t),
                FlowStatus::Failed(t) => (2, t),
            };
            mix(o.flow.id as u64);
            mix(tag);
            mix(t.as_ps());
        }
    }

    /// A cluster's delays are a function of its own profile: scenario B
    /// estimated through a cache that first served another load and a
    /// fault delta reads exactly what a fresh cache reads — while
    /// actually reusing representatives the earlier scenarios replayed.
    #[test]
    fn estimates_do_not_depend_on_what_the_cache_served_before() {
        let topo = leaf_spine_288();
        let cfg = TopoEdmConfig::default();
        let eng = ApproxEngine::new(cfg.clone());
        let b = rack_flows(288, 4, 0.7, 0.5, 2000, 42);
        let mut fresh_cache = SweepCache::new();
        let fresh = eng.estimate_cached(&topo, &b, &mut fresh_cache);

        let mut cache = SweepCache::new();
        eng.estimate_cached(&topo, &rack_flows(288, 4, 0.4, 0.5, 2000, 42), &mut cache);
        let mut base = SweepBase::new(&topo, &cfg, rack_flows(288, 4, 0.55, 0.5, 2000, 7));
        base.prime(&mut cache);
        let mut faulted = topo.clone();
        apply_faults(&mut faulted, &[FaultKind::LinkDown(first_trunk(&topo))]);
        base.estimate_delta(&faulted, Combine::Sum, &mut cache);
        let replays = cache.misses();
        let warm = eng.estimate_cached(&topo, &b, &mut cache);
        assert!(
            cache.misses() - replays < fresh_cache.misses(),
            "B must reuse representatives A replayed ({} of {} replays)",
            cache.misses() - replays,
            fresh_cache.misses()
        );
        let differing = fresh
            .outcomes
            .iter()
            .zip(&warm.outcomes)
            .filter(|(x, y)| x.status != y.status)
            .count();
        assert_eq!(differing, 0, "of {} outcomes", b.len());
        assert_eq!(fresh.clusters, warm.clusters);
    }

    /// The reference path — every distinct cluster replayed itself —
    /// keeps the outcomes it had before representatives existed: a
    /// from-scratch estimate and a trunk-down delta on the 288-node
    /// fabric at load 0.7, plus the cache's counters, folded into the
    /// digest this body produced through `SweepCache::new()` then. The
    /// trunk-down delta used to take a from-scratch fallback that looked
    /// up every cluster; since it rebuilds only the affected ones, `hits`
    /// reads 2010 → 1581 (seed 42) and 2015 → 1580 (seed 7) and the
    /// digests moved with them. Folded before the counters, both held
    /// (`0x6f94da117acdf574`, `0x0ec6b2cdf1e627eb`).
    #[test]
    fn exact_path_keeps_its_recorded_digest() {
        let topo = leaf_spine_288();
        let cfg = TopoEdmConfig::default();
        let eng = ApproxEngine::new(cfg.clone());
        let mut faulted = topo.clone();
        apply_faults(&mut faulted, &[FaultKind::LinkDown(first_trunk(&topo))]);
        for (seed, want) in [(42, 0x795d_5b4d_307f_41da), (7, 0x0ac0_ee47_1155_385f)] {
            let flows = rack_flows(288, 4, 0.7, 0.5, 2000, seed);
            let mut cache = SweepCache::with_resolution(None);
            let scratch = eng.estimate_cached(&topo, &flows, &mut cache);
            let mut base = SweepBase::new(&topo, &cfg, flows);
            base.prime(&mut cache);
            let delta = base.estimate_delta(&faulted, Combine::Sum, &mut cache);
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            fold_outcomes(&mut h, &scratch);
            fold_outcomes(&mut h, &delta);
            for v in [cache.hits(), cache.misses()] {
                h = (h ^ v).wrapping_mul(0x100_0000_01b3);
            }
            assert_eq!(h, want, "seed {seed}: {h:#x}");
        }
    }

    /// The 21 what-if states of the 1024-host grid: healthy, 6 trunk
    /// cuts, 6 optics degradations (+1 µs), 2 spine kills, a double
    /// trunk cut, 5 access-link cuts.
    fn grid_variants(topo: &Topology) -> Vec<Vec<FaultKind>> {
        let trunks: Vec<u32> = (0..topo.links().len() as u32)
            .filter(|&l| topo.link(l).is_trunk())
            .collect();
        let spread = |i: usize, n: usize| trunks[(i * trunks.len()) / n];
        let mut v = vec![vec![]];
        v.extend((0..6).map(|i| vec![FaultKind::LinkDown(spread(i, 6))]));
        v.extend((0..6).map(|i| {
            vec![FaultKind::DegradeLink {
                link: spread(2 * i + 1, 12),
                extra: Duration::from_us(1),
            }]
        }));
        // 16 leaves come first; spines follow.
        v.extend([16, 20].map(|s| vec![FaultKind::SwitchDown(s)]));
        v.push(vec![
            FaultKind::LinkDown(spread(0, 6)),
            FaultKind::LinkDown(spread(3, 6)),
        ]);
        let hosts = topo.nodes();
        v.extend((0..5).map(|i| vec![FaultKind::LinkDown(topo.node_link((i * hosts) / 5 + i))]));
        v
    }

    /// The error-versus-replays curve the shipped resolution was chosen
    /// from: per seed and resolution (`exact` replays every distinct
    /// cluster), the replays of one 105-scenario grid pass on the
    /// 1024-host fabric (5 loads × 21 what-ifs, 20 000 flows each), the
    /// most any healthy scenario replays, the grid's p50 / p99 / p99.9
    /// completion time, the relative p99 error against the exact engine
    /// on the 288-node overlap point (load 0.7, 4000 flows), and the
    /// grid pass's wall-clock per flow-scenario (informative only: one
    /// unpaired run). The workloads are `approx_grid_1024`'s.
    /// `cargo test --release -p edm-approx -- --ignored --nocapture`.
    #[test]
    #[ignore = "prints the resolution curve; minutes in a debug build"]
    fn resolution_curve() {
        let grid_topo = Topology::leaf_spine(LeafSpine::symmetric(16, 8, 64, 8));
        let variants = grid_variants(&grid_topo);
        let cfg = TopoEdmConfig::default();
        let overlap = leaf_spine_288();
        for seed in [42, 7] {
            let loads: Vec<Vec<Flow>> = [0.15, 0.3, 0.5, 0.7, 0.85]
                .iter()
                .map(|&l| rack_flows(1024, 16, l, 0.4, 20_000, seed))
                .collect();
            let flows = rack_flows(288, 4, 0.7, 0.4, 4000, seed);
            let exact = TopoEdm::new(cfg.clone()).simulate(&overlap, &flows);
            for resolution in [None, Some(16), Some(8), Some(4), Some(2)] {
                let t = std::time::Instant::now();
                let mut cache = SweepCache::with_resolution(resolution);
                let (mut healthy_max, mut hist) = (0, LogHistogram::new());
                for flows in &loads {
                    let before = cache.misses();
                    let mut base = SweepBase::new(&grid_topo, &cfg, flows.clone());
                    base.prime(&mut cache);
                    healthy_max = healthy_max.max(cache.misses() - before);
                    let healthy = cache.compose(&grid_topo, &cfg, base.decomp(), Combine::Sum);
                    let mut record = |r: &ApproxResult| {
                        for o in &r.outcomes {
                            if let Some(mct) = o.mct() {
                                hist.record_duration(mct);
                            }
                        }
                    };
                    record(&healthy);
                    for faults in &variants[1..] {
                        let mut what_if = grid_topo.clone();
                        apply_faults(&mut what_if, faults);
                        record(&base.estimate_delta(&what_if, Combine::Sum, &mut cache));
                    }
                }
                let ns =
                    t.elapsed().as_nanos() as f64 / (loads.len() * variants.len() * 20_000) as f64;
                let est = ApproxEngine::new(cfg.clone()).estimate_cached(
                    &overlap,
                    &flows,
                    &mut SweepCache::with_resolution(resolution),
                );
                let p99 = |outcomes: &[edm_topo::TopoOutcome]| {
                    let mut mcts: Vec<u64> = outcomes
                        .iter()
                        .filter_map(|o| o.mct())
                        .map(|d| d.as_ps())
                        .collect();
                    mcts.sort_unstable();
                    mcts[(mcts.len() * 99).div_ceil(100) - 1] as f64
                };
                let (x, e) = (p99(&exact.outcomes), p99(&est.outcomes));
                let name =
                    resolution.map_or("exact".to_string(), |r| format!("{r}/{}", (r / 2).max(1)));
                println!(
                    "seed {seed:>2} {name:>5}: {:>6} replays/grid, {:>5} max/healthy, grid p50 \
                     {:.3} / p99 {:.3} / p99.9 {:.3} ns, overlap p99 err {:.4}, {ns:.0} ns/flow-scenario",
                    cache.misses(),
                    healthy_max,
                    hist.percentile(50.0) as f64 / 1e3,
                    hist.percentile(99.0) as f64 / 1e3,
                    hist.percentile(99.9) as f64 / 1e3,
                    (e - x).abs() / x,
                );
            }
        }
    }
}
