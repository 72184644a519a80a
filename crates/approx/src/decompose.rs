//! Decomposition front-end: slice one fabric-wide flow set into
//! independent per-link clusters.
//!
//! The exact engine schedules every flow through every switch it crosses,
//! so its cost grows with (flows × hops × contention). The decomposition
//! observes that in EDM almost all *queueing* happens at two kinds of
//! places: the data source's access port (a node issuing faster than its
//! link drains) and each granted egress link (many flows converging on
//! one out port). It therefore projects each flow onto the sequence of
//! directed links its data crosses and treats every directed link as an
//! independent single-switch scheduling problem — Parsimon's
//! `Network::into_simulations` slicing, re-expressed over EDM's
//! demand-sparse scheduler.
//!
//! For every flow the front-end resolves the *same salted-ECMP route the
//! exact engine would pick* ([`resolve_route`], pinned bit-identical to
//! [`edm_topo::admission_route`] by `prop_approx`), then records one
//! [`LinkFlow`] crossing per directed link of that route:
//!
//! * the **source access link** into the hop-0 switch — members share the
//!   node's ingress port and fan out over egress ports (models the
//!   issuing node's own port contention and per-pair X limit), and
//! * each hop's **egress link** — members share the granted out port and
//!   fan in from that switch's ingress ports (models convergence:
//!   trunk contention and destination incast).
//!
//! Clusters whose (scheduler bandwidth, link bandwidth, latency,
//! flow-profile) signatures are identical are deduplicated parsimon-style
//! — symmetric fabrics under symmetric workloads collapse many physical
//! links onto one simulated [`LinkCluster`], and an unchanged link
//! re-simulated across a what-if grid hits the same signature in a sweep
//! cache ([`crate::SweepCache`], which also lets similar — not only
//! equal — profiles share one representative replay).

use crate::fxhash::FxHashMap;
use edm_core::sim::Flow;
use edm_sim::{Bandwidth, Duration, Time};
use edm_topo::{Endpoint, Route, TopoEdmConfig, Topology};

/// The approximate engine's own derivation of the exact engine's path
/// choice: salted ECMP over the flow's *data* direction (writes travel
/// src→dst, reads carry the RRES dst→src), salted by the flow id.
///
/// Deliberately re-derived from [`Flow::data_direction`] rather than
/// calling [`edm_topo::admission_route`], so the `prop_approx` pin is a
/// real equivalence check between two implementations, not a tautology.
pub fn resolve_route(topo: &Topology, flow: &Flow) -> Option<Route> {
    let (data_src, data_dst) = flow.data_direction();
    topo.route(data_src as usize, data_dst as usize, flow.id as u64)
}

/// One flow's crossing of one directed link, as its cluster's
/// mini-simulation sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkFlow {
    /// When the flow's demand reaches this link's scheduler: the flow's
    /// arrival plus the *unloaded* store-and-forward time of the
    /// upstream hops (head-chunk serialization + propagation + forward
    /// turnaround per hop). Under load the true demand arrival lags
    /// this; the error that shift induces is part of the documented
    /// envelope.
    pub arrival: Time,
    /// Message bytes.
    pub bytes: u32,
    /// Dense source-port index within the cluster.
    pub src: u16,
    /// Dense destination-port index within the cluster.
    pub dst: u16,
    /// Per-pair X bound the exact engine applies on this route
    /// (single-hop routes keep the paper's X, multi-hop routes the trunk
    /// provision).
    pub limit: u32,
}

/// A cluster's identity for deduplication and sweep-level caching: two
/// directed links with equal profiles queue identically, so one
/// mini-simulation serves both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterProfile {
    /// Reference bandwidth of the granting switch's scheduler (port busy
    /// times in the exact engine are charged at this rate).
    pub sched_bandwidth: Bandwidth,
    /// Bandwidth of the crossed link (chunk serialization on the wire).
    pub link_bandwidth: Bandwidth,
    /// One-way latency of the crossed link (propagation + degradation).
    pub latency: Duration,
    /// Distinct source ports among the members.
    pub srcs: u16,
    /// Distinct destination ports among the members.
    pub dsts: u16,
    /// Member crossings in flow-input order, with dense port indices.
    pub members: Vec<LinkFlow>,
}

impl ClusterProfile {
    /// The crossing-parameter triple (scheduler bandwidth, link
    /// bandwidth, latency): what this link contributes to a member's
    /// unloaded completion time.
    pub(crate) fn shape(&self) -> (Bandwidth, Bandwidth, Duration) {
        (self.sched_bandwidth, self.link_bandwidth, self.latency)
    }

    /// The profile's dedup hash; candidates that agree on it are
    /// confirmed with full equality.
    pub(crate) fn fx_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::fxhash::FxHasher::default();
        self.hash(&mut h);
        h.finish()
    }
}

/// Hand-rolled to pack each member into three words: profiles are
/// hashed once per directed link per scenario (dedup *and* sweep-cache
/// lookup), which makes this one of a sweep's hottest loops. The packing
/// is injective per field set, so it agrees with the derived
/// `PartialEq`.
impl std::hash::Hash for ClusterProfile {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.sched_bandwidth.hash(state);
        self.link_bandwidth.hash(state);
        self.latency.hash(state);
        state.write_u32((self.srcs as u32) << 16 | self.dsts as u32);
        state.write_usize(self.members.len());
        for m in &self.members {
            state.write_u64(m.arrival.as_ps());
            state.write_u64(m.bytes as u64 | (m.src as u64) << 32 | (m.dst as u64) << 48);
            state.write_u64(m.limit as u64);
        }
    }
}

/// One deduplicated per-link scheduling problem.
#[derive(Debug, Clone)]
pub struct LinkCluster {
    /// The signature the mini-simulation replays.
    pub profile: ClusterProfile,
    /// How many directed links collapsed onto this profile.
    pub instances: usize,
}

/// A flow's handle into one cluster: which cluster models one of its
/// crossings, and which member of that cluster it is.
#[derive(Debug, Clone, Copy)]
pub struct HopRef {
    /// Index into [`Decomposition::clusters`].
    pub cluster: u32,
    /// Index into that cluster's `profile.members`.
    pub member: u32,
}

/// One flow's decomposition: the flow plus an arena span over its
/// crossings ([`Decomposition::hops`]). Unroutable flows carry no span —
/// the estimator reports them failed at arrival, exactly as the exact
/// engine's fail-fast admission does.
#[derive(Debug, Clone, Copy)]
pub struct FlowPath {
    /// The flow.
    pub flow: Flow,
    /// `(start, len)` into `Decomposition::hop_refs`; `len == 0` marks
    /// an unroutable flow (a routable flow has ≥ 2 crossings).
    span: (u32, u16),
}

/// A flow set sliced onto deduplicated per-link clusters.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Deduplicated clusters, in first-appearance order.
    pub clusters: Vec<LinkCluster>,
    /// Per-flow entries, in input order.
    pub flows: Vec<FlowPath>,
    /// Arena of every flow's crossing references (source access link
    /// first, then each hop's egress link), indexed by `FlowPath::span`.
    hop_refs: Vec<HopRef>,
    /// Directed links that carried at least one flow (pre-dedup) — the
    /// dedup ratio is `link_instances / clusters.len()`.
    pub link_instances: usize,
}

impl Decomposition {
    /// Flow `i`'s crossings in path order, `None` if unroutable.
    pub fn hops(&self, i: usize) -> Option<&[HopRef]> {
        let (start, len) = self.flows[i].span;
        (len > 0).then(|| &self.hop_refs[start as usize..start as usize + len as usize])
    }
}

/// One crossing of a resolved route, in the compact form the bucketing
/// stage consumes: which directed link, granted by which switch, between
/// which raw switch ports. Everything load-dependent (arrival offsets,
/// link latency, bandwidths) is looked up at bucket time, so a cached
/// record stays valid across scenarios that only degrade latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossRec {
    /// The crossed link.
    pub link: u32,
    /// The granting switch (disambiguates trunk direction).
    pub switch: u32,
    /// Raw ingress port at the granting switch.
    pub in_port: u16,
    /// Raw egress port at the granting switch.
    pub out_port: u16,
    /// Node-facing ingress crossing (the source access link)?
    pub from_node: bool,
}

/// Every flow's resolved crossing sequence, arena-packed. The expensive
/// part of decomposition is route resolution; a what-if sweep resolves
/// the baseline once and then [`resolve_delta`] copies the spans of
/// flows the fault provably cannot have rerouted.
#[derive(Debug, Clone)]
pub struct ResolvedRoutes {
    recs: Vec<CrossRec>,
    /// Prefix offsets, `flows.len() + 1` entries; an empty span is an
    /// unroutable flow (a routable flow always has ≥ 2 crossings).
    spans: Vec<u32>,
    /// Flows actually re-resolved by the call that built this, ascending
    /// (every flow for [`resolve_all`]); [`resolve_delta`] copied every
    /// other span from its baseline verbatim.
    resolved: Vec<u32>,
}

impl ResolvedRoutes {
    /// Flow `i`'s crossings, empty if unroutable.
    pub fn span(&self, i: usize) -> &[CrossRec] {
        &self.recs[self.spans[i] as usize..self.spans[i + 1] as usize]
    }

    /// Where flow `i`'s span starts in the crossing arena — with the hop
    /// index, a dense key over every crossing of every flow.
    pub(crate) fn offset(&self, i: usize) -> usize {
        self.spans[i] as usize
    }

    /// The flows the call that built this re-resolved — for
    /// [`resolve_delta`], the only ones whose spans can differ from the
    /// baseline's.
    pub(crate) fn resolved(&self) -> &[u32] {
        &self.resolved
    }

    /// How many flows that was (the flow count for [`resolve_all`]; the
    /// interesting number for [`resolve_delta`]).
    pub fn rerouted(&self) -> usize {
        self.resolved.len()
    }

    /// Crossings of all flows together.
    pub(crate) fn crossings(&self) -> usize {
        self.recs.len()
    }

    /// Number of flows covered.
    pub fn len(&self) -> usize {
        self.spans.len() - 1
    }

    /// True when no flows are covered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push_route(&mut self, route: &Route) {
        let first = route.hops[0];
        self.recs.push(CrossRec {
            link: route.src_link,
            switch: first.switch,
            in_port: first.in_port,
            out_port: first.out_port,
            from_node: true,
        });
        for h in &route.hops {
            self.recs.push(CrossRec {
                link: h.out_link,
                switch: h.switch,
                in_port: h.in_port,
                out_port: h.out_port,
                from_node: false,
            });
        }
    }

    fn close_span(&mut self) {
        self.spans.push(self.recs.len() as u32);
    }
}

/// What [`resolve_delta`] compares to decide whether a fault can have
/// moved a flow: per-element liveness plus the ECMP decision-row digests
/// ([`Topology::route_digests`]). Snapshot the *baseline* topology once
/// per sweep.
#[derive(Debug, Clone)]
pub struct TopoSignature {
    switches: Vec<bool>,
    links: Vec<bool>,
    digests: Vec<u64>,
}

impl TopoSignature {
    /// Snapshots `topo`'s routing-relevant state.
    pub fn of(topo: &Topology) -> Self {
        TopoSignature {
            switches: (0..topo.switch_count())
                .map(|s| topo.switch_up(s as u32))
                .collect(),
            links: topo.links().iter().map(|l| l.is_up()).collect(),
            digests: topo.route_digests(),
        }
    }
}

/// Resolves every flow's route on `topo` from scratch.
pub fn resolve_all(topo: &Topology, flows: &[Flow]) -> ResolvedRoutes {
    let mut routes = ResolvedRoutes {
        recs: Vec::with_capacity(flows.len() * 4),
        spans: Vec::with_capacity(flows.len() + 1),
        resolved: (0..flows.len() as u32).collect(),
    };
    routes.spans.push(0);
    for flow in flows {
        if let Some(route) = resolve_route(topo, flow) {
            routes.push_route(&route);
        }
        routes.close_span();
    }
    routes
}

/// Re-resolves only the flows that `topo`'s state can actually have
/// moved relative to the baseline `prev`/`base` pair: flows whose
/// endpoints changed liveness, flows that were unroutable, and flows
/// whose baseline path visits a switch whose ECMP decision row toward
/// the flow's destination changed. Everything else keeps its baseline
/// crossings verbatim — the salted-ECMP walk consults exactly those
/// rows, so the copy is bit-identical to re-resolving
/// (`delta_matches_full_resolution` in this module's tests, plus the
/// `prop_approx` pin, hold it to that).
pub fn resolve_delta(
    topo: &Topology,
    flows: &[Flow],
    prev: &ResolvedRoutes,
    base: &TopoSignature,
) -> ResolvedRoutes {
    assert_eq!(prev.len(), flows.len(), "baseline must cover these flows");
    let cur = TopoSignature::of(topo);
    let n = topo.switch_count();
    let dirty: Vec<bool> = base
        .digests
        .iter()
        .zip(&cur.digests)
        .map(|(a, b)| a != b)
        .collect();
    let mut routes = ResolvedRoutes {
        recs: Vec::with_capacity(prev.recs.len()),
        spans: Vec::with_capacity(flows.len() + 1),
        resolved: Vec::new(),
    };
    routes.spans.push(0);
    for (i, flow) in flows.iter().enumerate() {
        let (data_src, data_dst) = flow.data_direction();
        let src_link = topo.node_link(data_src as usize) as usize;
        let dst_link = topo.node_link(data_dst as usize) as usize;
        let (s_sw, _) = topo.attach(data_src as usize);
        let (d_sw, _) = topo.attach(data_dst as usize);
        let span = prev.span(i);
        let affected = span.is_empty()
            || base.links[src_link] != cur.links[src_link]
            || base.links[dst_link] != cur.links[dst_link]
            || base.switches[s_sw as usize] != cur.switches[s_sw as usize]
            || base.switches[d_sw as usize] != cur.switches[d_sw as usize]
            || span
                .iter()
                .any(|r| dirty[r.switch as usize * n + d_sw as usize]);
        if affected {
            routes.resolved.push(i as u32);
            if let Some(route) = resolve_route(topo, flow) {
                routes.push_route(&route);
            }
        } else {
            routes.recs.extend_from_slice(span);
        }
        routes.close_span();
    }
    routes
}

/// A raw (pre-dedup) cluster under construction: one directed link,
/// with raw switch ports densified in first-appearance order. Port maps
/// are linear scans — a cluster's port population is small (bounded by
/// the link's radix), where a hash map would pay more in setup than the
/// scan costs.
struct RawCluster {
    sched_bandwidth: Bandwidth,
    link_bandwidth: Bandwidth,
    latency: Duration,
    src_map: Vec<u16>,
    dst_map: Vec<u16>,
    members: Vec<LinkFlow>,
}

impl RawCluster {
    /// First-appearance dense numbering. A linear scan: most clusters
    /// touch a handful of distinct ports, so the scan beats any
    /// port-indexed table (measured — the table's per-port allocation
    /// and cache misses cost more than these few comparisons).
    fn dense(map: &mut Vec<u16>, raw: u16) -> u16 {
        match map.iter().position(|&p| p == raw) {
            Some(i) => i as u16,
            None => {
                map.push(raw);
                map.len() as u16 - 1
            }
        }
    }
}

/// Per-link snapshot used by the span walk: effective latency,
/// bandwidth, and the `b`-side switch for direction encoding.
pub(crate) fn snap_links(topo: &Topology) -> Vec<(Duration, Bandwidth, u32)> {
    topo.links()
        .iter()
        .map(|l| {
            let b_sw = match l.b {
                Endpoint::Port { switch, .. } => switch,
                Endpoint::Node(_) => u32::MAX,
            };
            (l.latency(), l.params.bandwidth, b_sw)
        })
        .collect()
}

/// One crossing as the span walk yields it: the directed-link key plus
/// everything a cluster member needs before port densification.
pub(crate) struct Crossing {
    /// `link * 3 + direction` — the directed-link identity.
    pub key: usize,
    /// The granting switch.
    pub switch: u32,
    /// Raw ingress port at the granting switch.
    pub in_port: u16,
    /// Raw egress port at the granting switch.
    pub out_port: u16,
    /// Demand arrival at this link's scheduler (flow arrival plus
    /// unloaded upstream store-and-forward legs).
    pub arrival: Time,
    /// Per-pair X bound on this route.
    pub limit: u32,
}

/// Walks one flow's crossings, yielding each in path order with the
/// same arrival-offset arithmetic [`bucket`] applies — the delta path
/// ([`crate::SweepBase`]) rebuilds clusters through this walk so its
/// members are bit-identical to a from-scratch bucket.
pub(crate) fn walk_span(
    cfg: &TopoEdmConfig,
    snap: &[(Duration, Bandwidth, u32)],
    flow: &Flow,
    span: &[CrossRec],
    mut f: impl FnMut(Crossing),
) {
    if span.is_empty() {
        return;
    }
    let route_hops = span.len() - 1;
    let limit = if route_hops == 1 {
        cfg.max_active_per_pair
    } else {
        cfg.trunk_max_active_per_pair
    } as u32;
    let head = flow.size.min(cfg.chunk_bytes) as u64;
    let mut offset = Duration::ZERO;
    for (j, rec) in span.iter().enumerate() {
        if j >= 2 {
            let (lat, bw, _) = snap[span[j - 1].link as usize];
            offset += lat + bw.tx_time_bytes(head) + cfg.pipeline_latency / 2;
        }
        let (_, _, b_sw) = snap[rec.link as usize];
        let dir = if rec.from_node {
            2
        } else {
            (rec.switch == b_sw) as usize
        };
        f(Crossing {
            key: rec.link as usize * 3 + dir,
            switch: rec.switch,
            in_port: rec.in_port,
            out_port: rec.out_port,
            arrival: flow.arrival + offset,
            limit,
        });
    }
}

/// Buckets pre-resolved `routes` onto per-link clusters of `topo` under
/// `cfg` — the cheap half of [`decompose`](decompose()), shared by the
/// from-scratch and delta paths. This is the hottest per-scenario stage
/// of a sweep (it touches every crossing of every flow), so the
/// directed-link index is a dense array and profile dedup hashes each
/// profile exactly once.
pub fn bucket(
    topo: &Topology,
    cfg: &TopoEdmConfig,
    flows: &[Flow],
    routes: &ResolvedRoutes,
) -> Decomposition {
    assert_eq!(routes.len(), flows.len(), "routes must cover these flows");
    let snap = snap_links(topo);
    let sched_bw: Vec<Bandwidth> = (0..topo.switch_count() as u32)
        .map(|s| topo.reference_bandwidth(s))
        .collect();

    // Directed-link index: a trunk carries traffic in both directions
    // (disambiguated by the granting switch, slots 0/1), and an access
    // link additionally separates its node-facing ingress (slot 2).
    let mut index: Vec<u32> = vec![u32::MAX; snap.len() * 3];
    let mut raws: Vec<RawCluster> = Vec::new();
    let mut paths: Vec<FlowPath> = Vec::with_capacity(flows.len());

    // Pass 1: assign directed-link slots and count members per slot, so
    // pass 2 fills exact-capacity vectors. Member pushes are the
    // hottest allocation site of a sweep scenario; growth-doubling
    // ~50k members across thousands of clusters cost more than this
    // extra walk over the spans does.
    let mut counts: Vec<u32> = Vec::new();
    let mut total_refs = 0usize;
    for i in 0..flows.len() {
        let span = routes.span(i);
        total_refs += span.len();
        for rec in span {
            let (lat, bw, b_sw) = snap[rec.link as usize];
            let dir = if rec.from_node {
                2
            } else {
                (rec.switch == b_sw) as usize
            };
            let key = rec.link as usize * 3 + dir;
            let slot = match index[key] {
                u32::MAX => {
                    index[key] = raws.len() as u32;
                    raws.push(RawCluster {
                        sched_bandwidth: sched_bw[rec.switch as usize],
                        link_bandwidth: bw,
                        latency: lat,
                        src_map: Vec::new(),
                        dst_map: Vec::new(),
                        members: Vec::new(),
                    });
                    counts.push(0);
                    raws.len() as u32 - 1
                }
                s => s,
            };
            counts[slot as usize] += 1;
        }
    }
    for (raw, &c) in raws.iter_mut().zip(&counts) {
        raw.members.reserve_exact(c as usize);
    }
    let mut hop_refs: Vec<HopRef> = Vec::with_capacity(total_refs);

    // Pass 2: the source access link and hop-0's egress link are
    // granted by the same scheduling decision, so both see the demand
    // at the flow's arrival; later hops see it one unloaded
    // store-and-forward leg downstream each ([`walk_span`]'s offset
    // arithmetic, shared with the delta rebuild).
    for (i, flow) in flows.iter().enumerate() {
        let span = routes.span(i);
        let start = hop_refs.len() as u32;
        walk_span(cfg, &snap, flow, span, |x| {
            let slot = index[x.key];
            let raw = &mut raws[slot as usize];
            let member = raw.members.len() as u32;
            raw.members.push(LinkFlow {
                arrival: x.arrival,
                bytes: flow.size,
                src: RawCluster::dense(&mut raw.src_map, x.in_port),
                dst: RawCluster::dense(&mut raw.dst_map, x.out_port),
                limit: x.limit,
            });
            hop_refs.push(HopRef {
                cluster: slot,
                member,
            });
        });
        paths.push(FlowPath {
            flow: *flow,
            span: (start, span.len() as u16),
        });
    }

    // Parsimon-style dedup: directed links with identical signatures
    // collapse onto one canonical cluster. Each profile is hashed once;
    // candidates bucketed by hash are confirmed with full equality.
    let link_instances = raws.len();
    let mut canonical: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut clusters: Vec<LinkCluster> = Vec::new();
    let mut remap: Vec<u32> = Vec::with_capacity(raws.len());
    for raw in raws {
        let profile = ClusterProfile {
            sched_bandwidth: raw.sched_bandwidth,
            link_bandwidth: raw.link_bandwidth,
            latency: raw.latency,
            srcs: raw.src_map.len() as u16,
            dsts: raw.dst_map.len() as u16,
            members: raw.members,
        };
        let candidates = canonical.entry(profile.fx_hash()).or_default();
        match candidates
            .iter()
            .find(|&&c| clusters[c as usize].profile == profile)
        {
            Some(&slot) => {
                clusters[slot as usize].instances += 1;
                remap.push(slot);
            }
            None => {
                let slot = clusters.len() as u32;
                candidates.push(slot);
                clusters.push(LinkCluster {
                    profile,
                    instances: 1,
                });
                remap.push(slot);
            }
        }
    }
    for h in &mut hop_refs {
        h.cluster = remap[h.cluster as usize];
    }

    Decomposition {
        clusters,
        flows: paths,
        hop_refs,
        link_instances,
    }
}

/// Slices `flows` onto per-link clusters of `topo` under `cfg`.
///
/// Routes are resolved against the topology's *current* element state —
/// apply static what-if faults ([`crate::apply_faults`]) before calling.
/// Sweeps over many scenarios should resolve once and delta instead:
/// [`resolve_all`] + [`resolve_delta`] + [`bucket`].
pub fn decompose(topo: &Topology, cfg: &TopoEdmConfig, flows: &[Flow]) -> Decomposition {
    bucket(topo, cfg, flows, &resolve_all(topo, flows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_core::sim::{ClusterConfig, FlowKind};
    use edm_topo::{cluster_topology, LeafSpine};

    fn flow(id: usize, src: usize, dst: usize, at_ns: u64) -> Flow {
        Flow {
            id,
            src,
            dst,
            size: 64,
            arrival: Time::ZERO + Duration::from_ns(at_ns),
            kind: FlowKind::Write,
        }
    }

    #[test]
    fn single_switch_flow_has_two_crossings() {
        let topo = cluster_topology(&ClusterConfig::default());
        let d = decompose(&topo, &TopoEdmConfig::default(), &[flow(0, 0, 100, 0)]);
        let hops = d.hops(0).unwrap();
        assert_eq!(hops.len(), 2, "access ingress + egress");
        assert_eq!(d.link_instances, 2);
    }

    #[test]
    fn leaf_spine_flow_crosses_each_hop() {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 4, 2));
        // Cross-rack: 3 hops (leaf up, spine across, leaf down) + ingress.
        let d = decompose(&topo, &TopoEdmConfig::default(), &[flow(0, 0, 12, 0)]);
        assert_eq!(d.hops(0).unwrap().len(), 4);
    }

    #[test]
    fn read_data_direction_governs_the_path() {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 4, 2));
        let f = Flow {
            kind: FlowKind::Read,
            ..flow(3, 0, 12, 0)
        };
        let route = resolve_route(&topo, &f).unwrap();
        // RRES flows dst→src: the source access link belongs to node 12.
        assert_eq!(route.src_link, topo.node_link(12));
    }

    #[test]
    fn symmetric_clusters_deduplicate() {
        let topo = cluster_topology(&ClusterConfig::default());
        // Two flows with identical timing from different nodes to
        // different memories: 4 directed links whose one-member profiles
        // are all identical — one mini-simulation serves all four.
        let flows = [flow(0, 0, 100, 0), flow(1, 1, 101, 0)];
        let d = decompose(&topo, &TopoEdmConfig::default(), &flows);
        assert_eq!(d.link_instances, 4);
        assert_eq!(d.clusters.len(), 1);
        assert_eq!(d.clusters.iter().map(|c| c.instances).sum::<usize>(), 4);
    }

    #[test]
    fn unroutable_flow_maps_to_none() {
        let mut topo = cluster_topology(&ClusterConfig::default());
        topo.set_link_up(topo.node_link(5), false);
        let d = decompose(&topo, &TopoEdmConfig::default(), &[flow(0, 5, 100, 0)]);
        assert!(d.hops(0).is_none());
    }

    #[test]
    fn delta_matches_full_resolution() {
        // Across a spread of faults, the delta path must reproduce the
        // from-scratch resolution record for record — while actually
        // skipping most of the work on the single-element faults.
        let spec = LeafSpine::symmetric(4, 2, 8, 2);
        let healthy = Topology::leaf_spine(spec);
        let base = TopoSignature::of(&healthy);
        let flows: Vec<Flow> = (0..400)
            .map(|i| Flow {
                kind: if i % 3 == 0 {
                    FlowKind::Read
                } else {
                    FlowKind::Write
                },
                ..flow(i, i % 32, (i * 13 + 7) % 32, i as u64 * 40)
            })
            .filter(|f| f.src != f.dst)
            .collect();
        let baseline = resolve_all(&healthy, &flows);
        let trunk = healthy.links().iter().position(|l| l.is_trunk()).unwrap() as u32;
        type FaultCase = Box<dyn Fn(&mut Topology)>;
        let cases: Vec<FaultCase> = vec![
            Box::new(|_| {}),
            Box::new(move |t| t.set_link_up(trunk, false)),
            Box::new(|t| {
                let l = t.node_link(5);
                t.set_link_up(l, false)
            }),
            Box::new(|t| t.set_switch_up(4, false)),
            Box::new(move |t| {
                t.degrade_link(trunk, Duration::from_ns(500));
            }),
        ];
        for (c, mutate) in cases.iter().enumerate() {
            let mut faulted = Topology::leaf_spine(spec);
            mutate(&mut faulted);
            let delta = resolve_delta(&faulted, &flows, &baseline, &base);
            let full = resolve_all(&faulted, &flows);
            for i in 0..flows.len() {
                assert_eq!(delta.span(i), full.span(i), "case {c}, flow {i}");
            }
            if c == 0 || c == 4 {
                assert_eq!(delta.rerouted(), 0, "case {c} cannot move any route");
            } else {
                assert!(
                    delta.rerouted() < flows.len(),
                    "case {c} must skip unaffected flows"
                );
            }
        }
    }

    #[test]
    fn port_indices_densify_per_cluster() {
        let topo = cluster_topology(&ClusterConfig::default());
        let flows = [flow(0, 7, 130, 0), flow(1, 9, 130, 5)];
        let d = decompose(&topo, &TopoEdmConfig::default(), &flows);
        // The shared destination's egress cluster has 2 srcs, 1 dst.
        let egress = d
            .clusters
            .iter()
            .find(|c| c.profile.srcs == 2)
            .expect("shared egress cluster");
        assert_eq!(egress.profile.dsts, 1);
        assert_eq!(egress.profile.members.len(), 2);
        assert!(egress.profile.members.iter().all(|m| m.dst == 0));
    }
}
