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
//! One structural shortcut keeps a sweep's per-scenario cost an order
//! of magnitude under the exact engine's, exact rather than
//! approximate: *burst stripping*. Members are partitioned into bursts
//! by a conservative work-conservation bound: a member joins the current
//! burst only if it arrives before the burst's accumulated worst-case
//! busy horizon. Members alone in their burst provably find an idle
//! domain and complete untouched (zero excess, no replay); only
//! multi-member bursts replay, and since distinct bursts cannot overlap
//! in time they all share one replay.

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

/// The drained event queue replays share, so its calendar buckets and
/// node slab are allocated once per sweep, not once per replay
/// (thousands of replays per sweep scenario).
#[derive(Debug, Default)]
pub(crate) struct ReplayQueue(EventQueue<MiniEv>);

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
    /// Completion since arrival, indexed like `members`.
    done: Vec<Duration>,
    pending: usize,
}

impl World for MiniWorld<'_> {
    type Event = MiniEv;

    fn handle(&mut self, now: Time, ev: MiniEv, q: &mut EventQueue<MiniEv>) {
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
                    done,
                    pending,
                    ..
                } = self;
                let poll = dom.deliver(now, slot, bytes, |token, _sub_bytes| {
                    let lf = &profile.members[members[token as usize] as usize];
                    done[token as usize] = now.saturating_since(lf.arrival);
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
/// time-then-index order) through a fresh domain and returns each one's
/// completion since its arrival.
fn replay(
    profile: &ClusterProfile,
    members: &[u32],
    cfg: &TopoEdmConfig,
    queue: &mut ReplayQueue,
) -> Vec<Duration> {
    let sched = SchedulerConfig {
        ports: profile.srcs as usize + profile.dsts as usize,
        chunk_bytes: cfg.chunk_bytes,
        link: profile.sched_bandwidth,
        policy: cfg.policy,
        clock: edm_sched::ASIC_CLOCK,
    };
    let mut world = MiniWorld {
        profile,
        members,
        dom: SwitchDomain::new(sched),
        turnaround: cfg.pipeline_latency / 2,
        src_ports: profile.srcs,
        done: vec![Duration::MAX; members.len()],
        pending: members.len(),
    };
    let queue = &mut queue.0;
    debug_assert!(queue.is_empty(), "scratch queue must come back drained");
    for (m, &orig) in members.iter().enumerate() {
        let at = profile.members[orig as usize].arrival;
        queue.schedule_ordered(at, evord::demand(m as u32), MiniEv::Demand(m as u32));
    }
    // Manual drain instead of `Engine::run` so the queue survives the
    // replay with its allocations intact.
    while let Some((at, ev)) = queue.pop() {
        world.handle(at, ev, queue);
    }
    assert_eq!(world.pending, 0, "mini replay drained every member");
    world.done
}

/// The unloaded baseline for one crossing shape, via `solo`.
fn solo_of(
    profile: &ClusterProfile,
    bytes: u32,
    cfg: &TopoEdmConfig,
    solo: &mut SoloMemo,
    queue: &mut ReplayQueue,
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
    let d = replay(&one, &[0], cfg, queue)[0];
    solo.insert(key, d);
    d
}

/// Simulates one cluster, memoizing unloaded baselines through `solo`
/// and replaying through `queue`.
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
    queue: &mut ReplayQueue,
) -> ClusterDelays {
    let m = profile.members.len();

    let mut service_max = Duration::ZERO;
    for lf in &profile.members {
        let s = solo_of(profile, lf.bytes, cfg, solo, queue);
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
        let done = replay(profile, &contended, cfg, queue);
        for (k, &i) in contended.iter().enumerate() {
            let lf = &profile.members[i as usize];
            let unloaded = solo_of(profile, lf.bytes, cfg, solo, queue);
            excess[i as usize] = done[k].saturating_sub(unloaded);
        }
    }
    ClusterDelays { excess }
}

/// Simulates one cluster's replay and returns per-member queueing
/// excesses. Clusters are independent of one another.
pub fn simulate_cluster(cluster: &LinkCluster, cfg: &TopoEdmConfig) -> ClusterDelays {
    let (mut solo, mut queue) = (SoloMemo::default(), ReplayQueue::default());
    simulate_memo(&cluster.profile, cfg, &mut solo, &mut queue)
}

/// Simulates a batch of clusters, sharing one solo memo and scratch
/// event queue across the whole batch. ([`crate::SweepCache`] shares
/// them across a whole sweep.)
pub fn simulate_batch(clusters: &[&LinkCluster], cfg: &TopoEdmConfig) -> Vec<ClusterDelays> {
    let mut solo = SoloMemo::default();
    let mut queue = ReplayQueue::default();
    clusters
        .iter()
        .map(|c| simulate_memo(&c.profile, cfg, &mut solo, &mut queue))
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
    fn replays_sharing_a_queue_match_fresh_ones() {
        // Replays that share one solo memo and scratch queue must be
        // bit-identical to replays that share nothing.
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
            cluster((0..10).map(|s| member(s / 2, s as u16, 0)).collect(), 10, 1),
        ];
        let mut solo = SoloMemo::default();
        let mut queue = ReplayQueue::default();
        for c in &clusters {
            let shared = simulate_memo(&c.profile, &cfg, &mut solo, &mut queue);
            let fresh = simulate_cluster(c, &cfg);
            assert_eq!(shared.excess, fresh.excess);
        }
        // Round two serves every baseline from the memo.
        for c in &clusters {
            let shared = simulate_memo(&c.profile, &cfg, &mut solo, &mut queue);
            assert_eq!(shared.excess, simulate_cluster(c, &cfg).excess);
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
        let mut queue = ReplayQueue::default();
        let all: Vec<u32> = (0..members.len() as u32).collect();
        let full = replay(&c.profile, &all, &cfg, &mut queue);
        let mut solo = SoloMemo::default();
        for (i, lf) in c.profile.members.iter().enumerate() {
            let unloaded = solo_of(&c.profile, lf.bytes, &cfg, &mut solo, &mut queue);
            assert_eq!(
                stripped.excess[i],
                full[i].saturating_sub(unloaded),
                "member {i}"
            );
        }
        assert_eq!(stripped.excess[6], Duration::ZERO, "singleton is unloaded");
    }
}
