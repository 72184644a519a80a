//! Composition back-end: per-link excesses → end-to-end FCT estimates.
//!
//! # The independence assumption
//!
//! Each flow's estimate is its *unloaded* completion time on the full
//! fabric ([`edm_topo::TopoEdm::solo_mct`] — the exact engine run with
//! the flow alone, so every path constant is exact by construction) plus
//! a combination of the queueing excesses its crossings measured in
//! their independent per-link replays. The combination treats those
//! per-link delays as if the links queued independently — in truth one
//! flow's stall at hop k reshapes its demand arrival at hop k+1, and
//! EDM's schedulers reserve a source *and* destination port jointly, so
//! per-link waits overlap in time rather than accruing one after
//! another.
//!
//! [`Combine::Sum`] (the default, Parsimon's serial-queueing
//! assumption) charges each flow the sum of its per-link excesses;
//! [`Combine::Bottleneck`] charges only the worst link (per-link waits
//! fully overlapping in time). Measured against the exact engine, the
//! per-link replays *miss* delay — cross-link correlation (a stall
//! upstream bunches arrivals downstream) and incast synchronization are
//! invisible to them — so both combiners underestimate the tail and Sum,
//! which recovers the most, tracks the exact engine closest (calibrated
//! on the 144/288-node overlaps: p99 within ~3–5% at the paper's 64 B
//! messages, degrading to ~15% at 1–4 KiB where per-hop serialization
//! couples the links more strongly). That envelope is measured, not
//! argued: the `error_envelope` suite compares both engines on overlap
//! sizes and pins [`crate::P99_ERROR_BOUND`].

use crate::decompose::Decomposition;
use crate::fxhash::FxHashMap;
use edm_core::sim::{Flow, FlowKind};
use edm_sim::{Bandwidth, Duration, LogHistogram, Summary};
use edm_topo::{FlowStatus, TopoEdm, TopoEdmConfig, TopoOutcome, Topology};

/// How a flow's per-link excesses combine into one end-to-end estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Combine {
    /// Sum every link's excess (Parsimon's serial-queueing assumption).
    /// Since the per-link replays systematically *miss* correlated
    /// delay, the combiner recovering the most tracks the exact engine
    /// closest — the calibrated default.
    #[default]
    Sum,
    /// Charge only the worst single link (per-link waits modeled as
    /// fully overlapping) — the optimistic bound, kept for comparison
    /// sweeps.
    Bottleneck,
}

impl Combine {
    pub(crate) fn apply(self, excesses: impl Iterator<Item = Duration>) -> Duration {
        match self {
            Combine::Bottleneck => excesses.max().unwrap_or(Duration::ZERO),
            Combine::Sum => excesses.sum(),
        }
    }
}

/// The estimator's output, shaped like the exact engine's result so
/// comparison code treats both uniformly.
#[derive(Debug, Clone)]
pub struct ApproxResult {
    /// Per-flow estimated outcomes, in input order. Flows the (possibly
    /// degraded) topology cannot route are `Failed` at arrival, matching
    /// the exact engine's fail-fast admission under its default
    /// `max_retries = 0`.
    pub outcomes: Vec<TopoOutcome>,
    /// Deduplicated clusters simulated.
    pub clusters: usize,
    /// Directed links that carried flows (pre-dedup).
    pub link_instances: usize,
    /// Merged per-crossing excess distribution across all clusters.
    pub hop_excess: LogHistogram,
    /// Flows whose estimate this call recomputed. A from-scratch
    /// composition reports every flow; [`crate::SweepBase::estimate_delta`]
    /// reports only the flows the scenario perturbed or that share a
    /// rebuilt cluster with one — the rest took their base terms.
    pub recomposed: usize,
}

impl ApproxResult {
    /// Number of flows estimated delivered.
    pub fn delivered(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, FlowStatus::Delivered(_)))
            .count()
    }

    /// Number of flows estimated failed (unroutable).
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.delivered()
    }

    /// Summary of estimated completion times, in nanoseconds.
    pub fn mct_summary(&self) -> Summary {
        let mut s = Summary::new();
        for o in &self.outcomes {
            if let Some(mct) = o.mct() {
                s.record_duration(mct);
            }
        }
        s
    }
}

/// One crossing's parameter triple: (scheduler bandwidth, link
/// bandwidth, latency) — what a crossing contributes to a flow's
/// unloaded completion time.
pub(crate) type Shape = (Bandwidth, Bandwidth, Duration);

/// Memo of exact unloaded baselines ([`TopoEdm::solo_mct`] probes),
/// keyed by what physically determines them: message size, flow kind,
/// and the per-crossing (scheduler bandwidth, link bandwidth, latency)
/// sequence of the route. The key is *stable across scenarios* — in a
/// what-if grid, routes detoured by a fault still hit the cache whenever
/// their crossing parameters match an already-probed shape, so a
/// symmetric fabric pays for a handful of probes over the entire sweep.
#[derive(Debug, Default)]
pub struct SoloCache {
    /// Every distinct crossing triple seen so far; a triple's index is
    /// its *shape id*, stable for the life of the cache. `u32`, because a
    /// fabric with per-link degradations has as many shapes as links.
    shapes: Vec<Shape>,
    map: FxHashMap<(u32, bool, Vec<Shape>), Duration>,
}

impl SoloCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct route shapes probed so far.
    pub fn probes(&self) -> usize {
        self.map.len()
    }

    /// The shape id of crossing triple `t`, assigned on first sight. A
    /// linear scan: a fabric has a handful of distinct triples, and the
    /// callers look up once per cluster, not per flow.
    pub(crate) fn shape_id(&mut self, t: Shape) -> u32 {
        let i = self.shapes.iter().position(|&s| s == t).unwrap_or_else(|| {
            self.shapes.push(t);
            self.shapes.len() - 1
        });
        u32::try_from(i).expect("fewer than 2^32 crossing shapes")
    }
}

/// Packed solo key: size (32b) | write (1b) | hop count (3b) | 4 × 6-bit
/// shape ids — usable whenever the route has ≤ 4 hops and every hop's
/// shape id is below 64, which covers every leaf-spine fabric. Anything
/// else goes through the structural key.
fn pack_solo_key(size: u32, write: bool, ids: impl ExactSizeIterator<Item = u32>) -> Option<u64> {
    if ids.len() > 4 {
        return None;
    }
    let mut k = size as u64 | (write as u64) << 32 | (ids.len() as u64) << 33;
    for (j, id) in ids.enumerate() {
        if id >= 64 {
            return None;
        }
        k |= (id as u64) << (36 + 6 * j);
    }
    Some(k)
}

/// Per-scenario unloaded-baseline prober: a packed-key fast path over
/// shape ids (a linear scan — a scenario sees one entry per (size, kind,
/// hop-shape) combination, typically under a couple dozen), falling back
/// to the structural [`SoloCache`] key and ultimately the exact
/// [`TopoEdm::solo_mct`] probe.
pub(crate) struct SoloProber<'a> {
    prober: TopoEdm,
    solo: &'a mut SoloCache,
    fast: Vec<(u64, Duration)>,
}

impl<'a> SoloProber<'a> {
    pub(crate) fn new(cfg: &TopoEdmConfig, solo: &'a mut SoloCache) -> Self {
        SoloProber {
            prober: TopoEdm::new(cfg.clone()),
            solo,
            fast: Vec::new(),
        }
    }

    /// The flow's unloaded completion time; `ids` are the shape ids
    /// ([`SoloCache::shape_id`]) of its crossings in path order.
    pub(crate) fn unloaded(
        &mut self,
        topo: &Topology,
        flow: &Flow,
        ids: impl ExactSizeIterator<Item = u32> + Clone,
    ) -> Duration {
        let write = flow.kind == FlowKind::Write;
        let packed = pack_solo_key(flow.size, write, ids.clone());
        if let Some(d) = packed.and_then(|k| self.fast.iter().find(|e| e.0 == k).map(|e| e.1)) {
            return d;
        }
        let triples = ids.map(|id| self.solo.shapes[id as usize]).collect();
        let d = *self
            .solo
            .map
            .entry((flow.size, write, triples))
            .or_insert_with(|| {
                self.prober
                    .solo_mct(topo, flow)
                    .expect("a decomposed flow has a route")
            });
        if let Some(k) = packed {
            self.fast.push((k, d));
        }
        d
    }
}

/// Composes per-cluster delays back into per-flow estimates, memoizing
/// the exact unloaded probes in a fresh [`SoloCache`].
pub fn compose<D: AsRef<[Duration]>>(
    topo: &Topology,
    cfg: &TopoEdmConfig,
    decomp: &Decomposition,
    delays: &[D],
    combine: Combine,
) -> ApproxResult {
    compose_cached(topo, cfg, decomp, delays, combine, &mut SoloCache::new())
}

/// Composes per-cluster delays back into per-flow estimates.
///
/// `delays[i]` must be the per-member excesses of `decomp.clusters[i]` —
/// a [`crate::ClusterDelays`], an owned vector, or a borrowed slice
/// (sweep harnesses pass `&[&[Duration]]` straight out of their cache).
/// Solo baselines come from `solo`, which outlives one composition —
/// hand the same cache to every scenario of a sweep.
///
/// This visits every flow, so the per-flow solo lookup goes through a
/// packed one-word key over *shape ids* (a fabric has a handful of
/// distinct crossing parameter triples); only a first-seen shape
/// sequence falls back to the structural [`SoloCache`] key.
pub fn compose_cached<D: AsRef<[Duration]>>(
    topo: &Topology,
    cfg: &TopoEdmConfig,
    decomp: &Decomposition,
    delays: &[D],
    combine: Combine,
    solo: &mut SoloCache,
) -> ApproxResult {
    assert_eq!(
        decomp.clusters.len(),
        delays.len(),
        "one simulation per cluster"
    );
    // The merged per-crossing distribution is rebuilt by re-recording
    // every member excess — the same multiset a per-cluster histogram
    // merge would produce, minus the full-width bucket traffic.
    let mut hop_excess = LogHistogram::new();
    for d in delays {
        for &q in d.as_ref() {
            hop_excess.record_duration(q);
        }
    }
    // Cluster index → shape id of its crossing parameter triple.
    let shape_id: Vec<u32> = decomp
        .clusters
        .iter()
        .map(|c| solo.shape_id(c.profile.shape()))
        .collect();
    let mut probe = SoloProber::new(cfg, solo);
    let outcomes: Vec<TopoOutcome> = (0..decomp.flows.len())
        .map(|i| {
            let fp = &decomp.flows[i];
            let status = match decomp.hops(i) {
                None => FlowStatus::Failed(fp.flow.arrival),
                Some(hops) => {
                    let unloaded = probe.unloaded(
                        topo,
                        &fp.flow,
                        hops.iter().map(|h| shape_id[h.cluster as usize]),
                    );
                    let queued = combine.apply(
                        hops.iter()
                            .map(|h| delays[h.cluster as usize].as_ref()[h.member as usize]),
                    );
                    FlowStatus::Delivered(fp.flow.arrival + unloaded + queued)
                }
            };
            TopoOutcome {
                flow: fp.flow,
                status,
            }
        })
        .collect();
    ApproxResult {
        recomposed: outcomes.len(),
        outcomes,
        clusters: decomp.clusters.len(),
        link_instances: decomp.link_instances,
        hop_excess,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::linksim::{simulate_cluster, ClusterDelays};
    use edm_core::sim::{ClusterConfig, Flow};
    use edm_sim::Time;
    use edm_topo::cluster_topology;

    #[test]
    fn lone_flow_estimate_matches_exact_solo() {
        let topo = cluster_topology(&ClusterConfig::default());
        let cfg = TopoEdmConfig::default();
        let flow = Flow {
            id: 0,
            src: 3,
            dst: 99,
            size: 4096,
            arrival: Time::ZERO,
            kind: FlowKind::Write,
        };
        let d = decompose(&topo, &cfg, &[flow]);
        let delays: Vec<_> = d
            .clusters
            .iter()
            .map(|c| simulate_cluster(c, &cfg))
            .collect();
        let r = compose(&topo, &cfg, &d, &delays, Combine::Bottleneck);
        let exact = TopoEdm::new(cfg).simulate(&topo, &[flow]);
        // An uncontended flow has zero excess everywhere, so the
        // estimate *is* the exact engine's answer.
        assert_eq!(r.outcomes[0].mct(), exact.outcomes[0].mct());
    }

    #[test]
    fn unroutable_flow_estimates_failed_at_arrival() {
        let mut topo = cluster_topology(&ClusterConfig::default());
        topo.set_link_up(topo.node_link(7), false);
        let cfg = TopoEdmConfig::default();
        let at = Time::ZERO + Duration::from_ns(42);
        let flow = Flow {
            id: 0,
            src: 7,
            dst: 99,
            size: 64,
            arrival: at,
            kind: FlowKind::Write,
        };
        let d = decompose(&topo, &cfg, &[flow]);
        let r = compose::<ClusterDelays>(&topo, &cfg, &d, &[], Combine::Bottleneck);
        assert_eq!(r.outcomes[0].status, FlowStatus::Failed(at));
        assert_eq!(r.failed(), 1);
    }
}
