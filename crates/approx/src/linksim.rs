//! Per-link mini-simulator: replay one cluster's crossings through a
//! single [`SwitchDomain`].
//!
//! This is deliberately *not* a new queueing model. Each cluster replays
//! its members through the same demand-sparse scheduler core the exact
//! engine runs per switch (`edm_core::sim::SwitchDomain`: offer →
//! poll/grant → deliver, with per-pair X limits), on
//! a miniature port space holding just the cluster's own source and
//! destination ports. What the mini-simulation cannot see — the other
//! links of each member's route — is exactly the independence assumption
//! the composition back-end documents.
//!
//! The output per member is the crossing's *excess*: its completion
//! delay through the contended replay minus the same replay run with the
//! member alone. All path constants (scheduler latency floor, grant
//! turnaround, propagation, serialization) cancel in that subtraction,
//! so what remains is pure queueing attributable to this link.
//!
//! Two structural shortcuts keep a sweep's per-scenario cost an order of
//! magnitude under the exact engine's, both exact rather than
//! approximate:
//!
//! * **Burst stripping** — members are partitioned into *bursts* by a
//!   conservative work-conservation bound: a member joins the current
//!   burst only if it arrives before the burst's accumulated
//!   worst-case busy horizon. Members alone in their burst provably
//!   find an idle domain and complete untouched (zero excess, no
//!   replay); only multi-member bursts replay, and since distinct
//!   bursts cannot overlap in time they all share one replay.
//! * **Domain pooling** — a drained [`SwitchDomain`] is
//!   state-equivalent to a fresh one up to absolute timestamps (every
//!   per-pair counter and FIFO returns to empty; port busy marks are
//!   past times). `DomainPool` reuses drained domains by shifting the
//!   next cluster's arrivals past the pool cursor by a multiple of the
//!   scheduler clock tick, which preserves grant timing bit-exactly,
//!   and so skips the `ports²` zero-initialization that otherwise
//!   dominates cold replay cost.

use crate::decompose::{ClusterProfile, LinkCluster};
use crate::fxhash::FxHashMap;
use edm_core::sim::{evord, DomainOffer, SwitchDomain};
use edm_sched::SchedulerConfig;
use edm_sim::{Bandwidth, Duration, EventQueue, Time, World};
use edm_topo::TopoEdmConfig;

/// Unloaded per-crossing baselines, keyed by everything that physically
/// determines them: message bytes plus the crossing's (scheduler
/// bandwidth, link bandwidth, latency). Shared across clusters — on a
/// symmetric fabric a whole sweep needs a handful of entries.
pub(crate) type SoloMemo = FxHashMap<(u32, Bandwidth, Bandwidth, Duration), Duration>;

/// Reusable drained domains, keyed by port count and scheduler
/// bandwidth (the only [`SchedulerConfig`] fields that vary across one
/// sweep's clusters). The cursor is a conservative quiesce horizon: no
/// state inside the paired domain references a time beyond it.
#[derive(Debug, Default)]
pub(crate) struct DomainPool {
    doms: FxHashMap<(usize, Bandwidth), (SwitchDomain, Time)>,
    /// Drained scratch event queue, reused across replays so the
    /// calendar buckets and node slab are allocated once per pool, not
    /// once per replay (thousands of replays per sweep scenario).
    queue: Option<EventQueue<MiniEv>>,
}

/// One cluster's mini-simulation output.
#[derive(Debug, Clone)]
pub struct ClusterDelays {
    /// Per-member queueing excess, indexed like `profile.members`.
    pub excess: Vec<Duration>,
}

impl AsRef<[Duration]> for ClusterDelays {
    fn as_ref(&self) -> &[Duration] {
        &self.excess
    }
}

/// Events of the mini world, ordered by the exact engine's content keys
/// so same-instant ties resolve the same way they would there.
#[derive(Debug)]
enum MiniEv {
    /// Member `m`'s demand reaches the scheduler.
    Demand(u32),
    /// A scheduling round.
    Poll,
    /// A granted chunk's last byte lands downstream.
    Chunk { slot: u32, bytes: u32 },
}

/// The replay world: one switch domain, one link.
struct MiniWorld<'a> {
    profile: &'a ClusterProfile,
    members: &'a [u32],
    dom: SwitchDomain,
    /// Grant→arrival turnaround (cancels in the excess subtraction).
    turnaround: Duration,
    /// Source ports occupy dense indices `0..srcs`; destinations follow.
    src_ports: u16,
    /// Pool time shift applied to every arrival (subtracted back out).
    shift: Duration,
    /// Completion since arrival, indexed like `members`.
    done: Vec<Duration>,
    /// Latest event instant processed (the queue is time-ordered).
    last_now: Time,
    pending: usize,
}

impl World for MiniWorld<'_> {
    type Event = MiniEv;

    fn handle(&mut self, now: Time, ev: MiniEv, q: &mut EventQueue<MiniEv>) {
        self.last_now = now;
        match ev {
            MiniEv::Demand(m) => {
                let lf = self.profile.members[self.members[m as usize] as usize];
                let offer = DomainOffer {
                    src: lf.src,
                    dst: self.src_ports + lf.dst,
                    bytes: lf.bytes,
                    limit: lf.limit as usize,
                    token: m as u64,
                };
                schedule_poll(q, self.dom.offer(now, offer));
            }
            MiniEv::Poll => {
                let Some(round) = self.dom.poll(now) else {
                    return;
                };
                let flight = self.turnaround + self.profile.latency;
                let link = self.profile.link_bandwidth;
                for g in round.grants {
                    let arrival = now
                        + round.sched_latency
                        + flight
                        + link.tx_time_bytes(g.chunk_bytes as u64);
                    q.schedule_ordered(
                        arrival,
                        evord::chunk(0, g.gseq),
                        MiniEv::Chunk {
                            slot: g.slot,
                            bytes: g.chunk_bytes,
                        },
                    );
                }
                schedule_poll(q, round.next_poll);
            }
            MiniEv::Chunk { slot, bytes } => {
                let MiniWorld {
                    profile,
                    members,
                    dom,
                    shift,
                    done,
                    pending,
                    ..
                } = self;
                let poll = dom.deliver(now, slot, bytes, |token, _sub_bytes| {
                    let lf = &profile.members[members[token as usize] as usize];
                    done[token as usize] = now.saturating_since(lf.arrival + *shift);
                    *pending -= 1;
                });
                schedule_poll(q, poll);
            }
        }
    }
}

/// Queues the `Poll` event the domain asked for, if it asked.
fn schedule_poll(q: &mut EventQueue<MiniEv>, at: Option<Time>) {
    if let Some(t) = at {
        q.schedule_ordered(t, evord::poll(0), MiniEv::Poll);
    }
}

/// Replays the `members` subset of `profile` (original member indices,
/// time-then-index order) and returns each one's completion since its
/// arrival. The domain comes from `pool` when a drained one of the right
/// shape is available; arrivals are then shifted past the pool cursor by
/// a multiple of the scheduler clock, which every timestamp the replay
/// produces inherits exactly, so the shift cancels in the returned
/// relative completions.
fn replay(
    profile: &ClusterProfile,
    members: &[u32],
    cfg: &TopoEdmConfig,
    pool: &mut DomainPool,
) -> Vec<Duration> {
    let ports = profile.srcs as usize + profile.dsts as usize;
    let key = (ports, profile.sched_bandwidth);
    let (dom, cursor) = pool.doms.remove(&key).unwrap_or_else(|| {
        let sched = SchedulerConfig {
            ports,
            chunk_bytes: cfg.chunk_bytes,
            link: profile.sched_bandwidth,
            policy: cfg.policy,
            // Per-offer limits override this default.
            max_active_per_pair: cfg.max_active_per_pair,
            clock: edm_sched::ASIC_CLOCK,
        };
        (SwitchDomain::new(sched), Time::ZERO)
    });
    let first = members
        .iter()
        .map(|&m| profile.members[m as usize].arrival)
        .min()
        .expect("replay needs members");
    // Clock-tick multiple keeps every scheduler grid alignment
    // bit-identical to a fresh domain at the unshifted instants.
    let tick = edm_sched::ASIC_CLOCK.as_ps();
    let behind = cursor.saturating_since(first).as_ps();
    let shift = Duration::from_ps(behind.div_ceil(tick) * tick);
    let world = MiniWorld {
        profile,
        members,
        dom,
        turnaround: cfg.pipeline_latency / 2,
        src_ports: profile.srcs,
        shift,
        done: vec![Duration::MAX; members.len()],
        last_now: cursor,
        pending: members.len(),
    };
    let mut queue = pool.queue.take().unwrap_or_default();
    debug_assert!(queue.is_empty(), "scratch queue must come back drained");
    let mut world = world;
    for (m, &orig) in members.iter().enumerate() {
        let at = profile.members[orig as usize].arrival + shift;
        queue.schedule_ordered(at, evord::demand(m as u32), MiniEv::Demand(m as u32));
    }
    // Manual drain instead of `Engine::run` so the queue survives the
    // replay and returns to the pool with its allocations intact.
    while let Some((at, ev)) = queue.pop() {
        world.handle(at, ev, &mut queue);
    }
    pool.queue = Some(queue);
    assert_eq!(world.pending, 0, "mini replay drained every member");
    debug_assert_eq!(
        world.dom.scheduler().pending_messages(),
        0,
        "drained domain retains demand"
    );
    // Quiesce horizon: ports can stay busy past the last delivery by at
    // most one chunk's serialization at the scheduler's rate.
    let margin = profile
        .sched_bandwidth
        .tx_time_bytes(cfg.chunk_bytes as u64)
        + edm_sched::ASIC_CLOCK;
    pool.doms.insert(key, (world.dom, world.last_now + margin));
    world.done
}

/// The unloaded baseline for one crossing shape, via `solo`.
fn solo_of(
    profile: &ClusterProfile,
    bytes: u32,
    cfg: &TopoEdmConfig,
    solo: &mut SoloMemo,
    pool: &mut DomainPool,
) -> Duration {
    let key = (
        bytes,
        profile.sched_bandwidth,
        profile.link_bandwidth,
        profile.latency,
    );
    if let Some(&d) = solo.get(&key) {
        return d;
    }
    let one = ClusterProfile {
        srcs: 1,
        dsts: 1,
        members: vec![crate::decompose::LinkFlow {
            arrival: Time::ZERO,
            bytes,
            src: 0,
            dst: 0,
            limit: 1,
        }],
        ..profile.clone()
    };
    let d = replay(&one, &[0], cfg, pool)[0];
    solo.insert(key, d);
    d
}

/// Simulates one cluster, memoizing unloaded baselines through `solo`
/// and reusing drained domains through `pool`.
///
/// Members are partitioned into bursts by a conservative
/// work-conservation horizon: each member's worst-case contribution to
/// the domain's busy period is its slowest unloaded service plus one
/// chunk serialization and a scheduler tick, so a member arriving after
/// the accumulated horizon provably finds an idle domain. Members alone
/// in their burst complete unloaded (zero excess — no replay), and only
/// the multi-member bursts replay, together, since bursts cannot
/// overlap. At the paper's message sizes most links of a loaded fabric
/// are all singletons — this shortcut is where the estimator's
/// asymptotic win over the exact engine comes from (Parsimon skips
/// low-utilization links the same way).
pub(crate) fn simulate_memo(
    profile: &ClusterProfile,
    cfg: &TopoEdmConfig,
    solo: &mut SoloMemo,
    pool: &mut DomainPool,
) -> ClusterDelays {
    let m = profile.members.len();

    let mut service_max = Duration::ZERO;
    for lf in &profile.members {
        let s = solo_of(profile, lf.bytes, cfg, solo, pool);
        if s > service_max {
            service_max = s;
        }
    }
    let chunk = profile
        .members
        .iter()
        .map(|lf| lf.bytes.min(cfg.chunk_bytes))
        .max()
        .unwrap_or(0);
    let bound =
        service_max + profile.sched_bandwidth.tx_time_bytes(chunk as u64) + edm_sched::ASIC_CLOCK;

    // Time-then-index order: same-instant ties must map to ascending
    // replay indices so `evord::demand` resolves them exactly as a full
    // replay would.
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_unstable_by_key(|&i| (profile.members[i as usize].arrival, i));

    // Burst closure under the work-conservation horizon: every member
    // extends the busy upper bound by at most `bound`, so an arrival at
    // or past the horizon starts a fresh, provably idle burst.
    let mut contended: Vec<u32> = Vec::new();
    let mut burst_start = 0usize;
    let mut horizon = Time::ZERO;
    let flush = |contended: &mut Vec<u32>, lo: usize, hi: usize| {
        if hi - lo > 1 {
            contended.extend_from_slice(&order[lo..hi]);
        }
    };
    for (k, &i) in order.iter().enumerate() {
        let at = profile.members[i as usize].arrival;
        if k > 0 && at >= horizon {
            flush(&mut contended, burst_start, k);
            burst_start = k;
        }
        horizon = horizon.max(at) + bound;
    }
    flush(&mut contended, burst_start, m);

    let mut excess = vec![Duration::ZERO; m];
    if !contended.is_empty() {
        // One replay serves every contended burst: bursts cannot
        // overlap, so their members never interact, and stripping the
        // singletons between them cannot delay anyone in a
        // work-conserving domain.
        let done = replay(profile, &contended, cfg, pool);
        for (k, &i) in contended.iter().enumerate() {
            let lf = &profile.members[i as usize];
            let unloaded = solo_of(profile, lf.bytes, cfg, solo, pool);
            excess[i as usize] = done[k].saturating_sub(unloaded);
        }
    }
    ClusterDelays { excess }
}

/// Simulates one cluster's replay and returns per-member queueing
/// excesses. Clusters are independent of one another.
pub fn simulate_cluster(cluster: &LinkCluster, cfg: &TopoEdmConfig) -> ClusterDelays {
    let mut solo = SoloMemo::default();
    let mut pool = DomainPool::default();
    simulate_memo(&cluster.profile, cfg, &mut solo, &mut pool)
}

/// Simulates a batch of clusters, sharing one solo memo and domain pool
/// across the whole batch: per-cluster [`simulate_cluster`] would
/// rebuild a [`edm_core::sim::SwitchDomain`] per replay, which costs
/// more than the replays themselves. ([`crate::SweepCache`] pools the
/// same way across a whole sweep.)
pub fn simulate_batch(clusters: &[&LinkCluster], cfg: &TopoEdmConfig) -> Vec<ClusterDelays> {
    let mut solo = SoloMemo::default();
    let mut pool = DomainPool::default();
    clusters
        .iter()
        .map(|c| simulate_memo(&c.profile, cfg, &mut solo, &mut pool))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::LinkFlow;
    use edm_sim::Bandwidth;

    fn cluster(members: Vec<LinkFlow>, srcs: u16, dsts: u16) -> LinkCluster {
        LinkCluster {
            profile: ClusterProfile {
                sched_bandwidth: Bandwidth::from_gbps(100),
                link_bandwidth: Bandwidth::from_gbps(100),
                latency: Duration::from_ns(10),
                srcs,
                dsts,
                members,
            },
            instances: 1,
        }
    }

    fn member(at_ns: u64, src: u16, dst: u16) -> LinkFlow {
        LinkFlow {
            arrival: Time::ZERO + Duration::from_ns(at_ns),
            bytes: 64,
            src,
            dst,
            limit: 3,
        }
    }

    #[test]
    fn lone_member_has_zero_excess() {
        let c = cluster(vec![member(0, 0, 0)], 1, 1);
        let d = simulate_cluster(&c, &TopoEdmConfig::default());
        assert_eq!(d.excess, vec![Duration::ZERO]);
    }

    #[test]
    fn disjoint_pairs_do_not_queue() {
        let c = cluster(vec![member(0, 0, 0), member(0, 1, 1)], 2, 2);
        let d = simulate_cluster(&c, &TopoEdmConfig::default());
        assert!(d.excess.iter().all(|&e| e == Duration::ZERO));
    }

    #[test]
    fn converging_members_queue() {
        // Ten simultaneous messages into one destination port: later
        // grants wait for the port, so excess grows past zero.
        let members = (0..10).map(|s| member(0, s, 0)).collect();
        let d = simulate_cluster(&cluster(members, 10, 1), &TopoEdmConfig::default());
        assert_eq!(d.excess[0], Duration::ZERO, "someone goes first");
        let worst = d.excess.iter().max().unwrap();
        assert!(*worst > Duration::ZERO, "incast must queue, got {worst:?}");
        assert_eq!(d.excess.len(), 10);
    }

    #[test]
    fn widely_spaced_members_never_queue() {
        let members = (0..5u64).map(|i| member(i * 100_000, 0, 0)).collect();
        let d = simulate_cluster(&cluster(members, 1, 1), &TopoEdmConfig::default());
        assert!(d.excess.iter().all(|&e| e == Duration::ZERO));
    }

    #[test]
    fn pooled_replays_match_fresh_replays() {
        // Reusing a drained domain with a shifted clock must be
        // bit-identical to replaying in a fresh one, including for a
        // cluster whose arrivals start *before* the pool cursor.
        let cfg = TopoEdmConfig::default();
        let clusters: Vec<LinkCluster> = vec![
            cluster((0..10).map(|s| member(s * 7, s as u16, 0)).collect(), 10, 1),
            cluster((0..10).map(|s| member(s % 3, 0, s as u16)).collect(), 1, 10),
            cluster(
                (0..11)
                    .map(|s| member(s * 13, (s % 5) as u16, (s % 6) as u16))
                    .collect(),
                5,
                6,
            ),
            // Same port-space key as the first cluster: forces reuse.
            cluster((0..10).map(|s| member(s / 2, s as u16, 0)).collect(), 10, 1),
        ];
        let mut solo = SoloMemo::default();
        let mut pool = DomainPool::default();
        for c in &clusters {
            let pooled = simulate_memo(&c.profile, &cfg, &mut solo, &mut pool);
            let fresh = simulate_cluster(c, &cfg);
            assert_eq!(pooled.excess, fresh.excess);
        }
        // Round two drives the cursor far past every arrival.
        for c in &clusters {
            let pooled = simulate_memo(&c.profile, &cfg, &mut solo, &mut pool);
            assert_eq!(pooled.excess, simulate_cluster(c, &cfg).excess);
        }
    }

    #[test]
    fn burst_stripping_matches_full_replay() {
        // A contended burst, a lone member far away, then another
        // contended burst: stripping the singleton must not change
        // anyone's excess relative to replaying all members.
        let cfg = TopoEdmConfig::default();
        let mut members: Vec<LinkFlow> = (0..6).map(|s| member(s % 2, s as u16, 0)).collect();
        members.push(member(1_000_000, 6, 0));
        for s in 0..6u64 {
            members.push(member(2_000_000 + s % 3, s as u16, 0));
        }
        let c = cluster(members.clone(), 7, 1);
        let stripped = simulate_cluster(&c, &cfg);
        // Reference: force a full replay through the raw path.
        let mut pool = DomainPool::default();
        let all: Vec<u32> = (0..members.len() as u32).collect();
        let full = replay(&c.profile, &all, &cfg, &mut pool);
        let mut solo = SoloMemo::default();
        let mut pool2 = DomainPool::default();
        for (i, lf) in c.profile.members.iter().enumerate() {
            let unloaded = solo_of(&c.profile, lf.bytes, &cfg, &mut solo, &mut pool2);
            assert_eq!(
                stripped.excess[i],
                full[i].saturating_sub(unloaded),
                "member {i}"
            );
        }
        assert_eq!(stripped.excess[6], Duration::ZERO, "singleton is unloaded");
    }
}
