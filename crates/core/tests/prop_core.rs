//! Property-based tests for the core fabric: end-to-end data integrity
//! over the testbed, simulator invariants, and the switch domain's poll
//! protocol against an exhaustive reference.

use edm_core::sim::{
    ClusterConfig, DomainCancel, DomainGrant, DomainOffer, DomainRound, EdmProtocol,
    FabricProtocol, Flow, FlowKind, Forwarded, SwitchDomain,
};
use edm_core::testbed::{Fabric, TestbedConfig};
use edm_memory::rmw::RmwOp;
use edm_sched::{Policy, SchedulerConfig};
use edm_sim::{Bandwidth, Duration, Time};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One step of a random domain schedule, `dt` after its predecessor.
#[derive(Debug, Clone, Copy)]
enum DomainOp {
    /// Offer `bytes` on (src, dst); `forwarded` offers may be granted
    /// inline ([`SwitchDomain::offer_forwarded`]).
    Offer {
        src: u16,
        dst: u16,
        bytes: u32,
        forwarded: bool,
    },
    /// Revoke the `nth` offer made so far (if it is still revocable).
    Cancel { nth: usize },
    /// The switch dies and comes back cold.
    Purge,
}

/// Events of the single-domain driver. At one instant schedule steps run
/// first, then chunk arrivals in grant order, then the poll — the rank
/// order of `edm_core::sim::evord`.
#[derive(Debug, Clone, Copy)]
enum DomainEv {
    Op(DomainOp),
    Chunk {
        slot: u32,
        bytes: u32,
        gen: u32,
    },
    /// Stamped like a chunk, but only to tell which polls a purge made
    /// the domain forget: those still fire, as no-ops.
    Poll {
        gen: u32,
    },
}

const RANK_OP: u8 = 0;
const RANK_CHUNK: u8 = 1;
const RANK_POLL: u8 = 2;

/// `(gseq, src, dst, bytes, token, issue time)` of every grant, in issue
/// order.
type GrantStream = Vec<(u64, u16, u16, u32, u64, Time)>;

/// What one drive of a schedule observed.
#[derive(Debug, PartialEq)]
struct Driven {
    grants: GrantStream,
    /// `(token, completion time)` of every completed offer.
    completions: Vec<(u64, Time)>,
}

/// Drives one [`SwitchDomain`] through `ops`. A grant's chunk lands a
/// fixed flight after it is issued and is handed back to `deliver`;
/// chunks granted before a purge are fenced off by a generation stamp.
///
/// The driver under test queues exactly the `Poll` events the domain's
/// return values ask for. The `exhaustive` reference ignores them: it
/// polls at every instant at which it called the domain at all and at
/// every raw scheduler wake-up, through the ungated
/// [`SwitchDomain::poll_exhaustive`]. Returns what happened, the rounds
/// run, and whether two `Poll`s were ever queued for one instant (a
/// purge forgets the events queued before it; one of those does not
/// count against a later request for the same instant).
fn drive_domain(
    ops: &[(u64, DomainOp)],
    x: usize,
    policy: Policy,
    exhaustive: bool,
) -> (Driven, u64, bool) {
    const PORTS: u16 = 6;
    const FLIGHT: Duration = Duration::from_ns(120);
    let link = Bandwidth::from_gbps(100);
    let mut dom = SwitchDomain::new(SchedulerConfig {
        ports: PORTS as usize,
        chunk_bytes: 256,
        link,
        policy,
        clock: edm_sched::ASIC_CLOCK,
    });
    // (time, rank, key) → event. Chunks key by gseq, polls by a counter
    // (so a duplicate would coexist and be seen), steps by index.
    let mut queue: BTreeMap<(Time, u8, u64), DomainEv> = BTreeMap::new();
    let mut now = Time::ZERO;
    for (i, &(dt, op)) in ops.iter().enumerate() {
        now += Duration::from_ns(dt);
        queue.insert((now, RANK_OP, i as u64), DomainEv::Op(op));
    }
    let mut out = Driven {
        grants: Vec::new(),
        completions: Vec::new(),
    };
    let mut offers: Vec<(u16, u16)> = Vec::new();
    let mut gen = 0u32;
    let mut polls_queued = 0u64;
    let mut duplicate_poll = false;
    while let Some(((now, _, _), ev)) = queue.pop_first() {
        // The `Poll` the domain asked for, and (reference only) whether
        // the domain was called at all.
        let mut asked: Option<Time> = None;
        let mut called = true;
        // Grants of a round that ran in this event, copied out of the
        // domain's buffer.
        let mut launched: Option<(Vec<DomainGrant>, Duration)> = None;
        let take = |round: DomainRound<'_>, asked: &mut Option<Time>| {
            *asked = round.next_poll;
            (round.grants.to_vec(), round.sched_latency)
        };
        match ev {
            DomainEv::Op(DomainOp::Offer {
                src,
                dst,
                bytes,
                forwarded,
            }) => {
                let offer = DomainOffer {
                    src,
                    dst,
                    bytes,
                    limit: x,
                    token: offers.len() as u64,
                };
                offers.push((src, dst));
                if !forwarded {
                    asked = dom.offer(now, offer);
                } else {
                    match dom.offer_forwarded(now, offer) {
                        Forwarded::Queued(poll) => asked = poll,
                        Forwarded::Granted(round) => launched = Some(take(round, &mut asked)),
                    }
                }
            }
            DomainEv::Op(DomainOp::Cancel { nth }) => {
                if offers.is_empty() {
                    continue;
                }
                let token = nth % offers.len();
                let (src, dst) = offers[token];
                if let DomainCancel::Withdrawn { poll } = dom.cancel(now, src, dst, token as u64) {
                    asked = poll;
                }
            }
            DomainEv::Op(DomainOp::Purge) => {
                dom.purge(&mut Vec::new());
                gen += 1;
            }
            DomainEv::Chunk { gen: granted, .. } if granted != gen => continue,
            DomainEv::Chunk { slot, bytes, .. } => {
                asked = dom.deliver(now, slot, bytes, |token, _| {
                    out.completions.push((token, now));
                });
            }
            DomainEv::Poll { .. } => {
                called = false;
                if exhaustive {
                    launched = Some(take(dom.poll_exhaustive(now), &mut asked));
                } else if let Some(round) = dom.poll(now) {
                    launched = Some(take(round, &mut asked));
                }
            }
        }
        if let Some((grants, sched_latency)) = launched {
            for g in grants {
                out.grants
                    .push((g.gseq, g.src, g.dst, g.chunk_bytes, g.token, now));
                let lands = now + sched_latency + FLIGHT + link.tx_time_bytes(g.chunk_bytes as u64);
                let chunk = DomainEv::Chunk {
                    slot: g.slot,
                    bytes: g.chunk_bytes,
                    gen,
                };
                queue.insert((lands, RANK_CHUNK, g.gseq), chunk);
            }
        }
        if exhaustive {
            // Set semantics: one poll per instant, at every instant.
            for at in asked.into_iter().chain(called.then_some(now)) {
                queue.insert((at, RANK_POLL, 0), DomainEv::Poll { gen });
            }
        } else if let Some(at) = asked {
            duplicate_poll |= queue
                .range((at, RANK_POLL, 0)..=(at, RANK_POLL, u64::MAX))
                .any(|(_, ev)| matches!(ev, DomainEv::Poll { gen: queued } if *queued == gen));
            queue.insert((at, RANK_POLL, polls_queued), DomainEv::Poll { gen });
            polls_queued += 1;
        }
    }
    (out, dom.rounds().0, duplicate_poll)
}

/// An offer on one pair of a 4-port, X = 1 domain.
fn offer4(src: u16, dst: u16, bytes: u32, token: u64) -> DomainOffer {
    DomainOffer {
        src,
        dst,
        bytes,
        limit: 1,
        token,
    }
}

fn domain4() -> SwitchDomain {
    SwitchDomain::new(SchedulerConfig::default_for_ports(4))
}

/// A `Poll` event overtaken by an earlier wake-up runs no round and asks
/// for nothing when it finally fires.
#[test]
fn superseded_poll_event_is_a_no_op() {
    let t = Time::from_ns;
    let mut dom = domain4();
    // A three-chunk message: the first round asks for a wake-up when its
    // ports free.
    assert_eq!(dom.offer(t(0), offer4(0, 1, 600, 1)), Some(t(0)));
    let wake = dom
        .poll(t(0))
        .expect("live")
        .next_poll
        .expect("chunks left");
    assert!(wake > t(3));
    // The message is withdrawn, and demand on another pair arrives before
    // the wake-up: its earlier event becomes the live one.
    let quiet = DomainCancel::Withdrawn { poll: None };
    assert_eq!(dom.cancel(t(2), 0, 1, 1), quiet);
    assert_eq!(dom.offer(t(3), offer4(2, 3, 64, 2)), Some(t(3)));
    let round = dom.poll(t(3)).expect("live");
    assert_eq!(round.grants.len(), 1);
    assert_eq!(round.next_poll, None, "nothing left to wait for");
    // The event still queued for `wake` runs no round and schedules
    // nothing.
    let rounds = dom.rounds();
    assert!(dom.poll(wake).is_none());
    assert_eq!(dom.rounds(), rounds);
}

/// A wake-up wanted for an instant that already has a (superseded) event
/// queued takes that event over instead of queueing a second one.
#[test]
fn wake_up_for_an_instant_with_a_queued_event_recycles_it() {
    let t = Time::from_ns;
    let mut dom = domain4();
    assert_eq!(dom.offer(t(0), offer4(0, 1, 1000, 1)), Some(t(0)));
    let first = dom.poll(t(0)).expect("live");
    assert_eq!(first.grants.len(), 1);
    let port_free = first.next_poll.expect("three chunks still to grant");
    assert!(port_free > t(5));
    // Demand on another pair, whose ports are free, asks for a round at
    // once, superseding the event queued for `port_free`.
    assert_eq!(dom.offer(t(5), offer4(2, 3, 64, 2)), Some(t(5)));
    // That round grants it, and its wake-up is the very instant the
    // superseded event is queued for.
    let other = dom.poll(t(5)).expect("live");
    assert_eq!(other.grants.len(), 1);
    assert_eq!(other.next_poll, None, "the event for that instant exists");
    let round = dom.poll(port_free).expect("recycled into the live wake-up");
    assert_eq!(round.grants.len(), 1);
    assert_eq!(round.grants[0].token, 1);
}

/// Under FCFS an announced message's priority is the instant it was
/// announced — at its offer, or at the completion or withdrawal that
/// freed an X slot for it — however long it then waits behind its pair's
/// head. Four sources burst 2–6 same-pair offers at a time onto two hot
/// destinations at X = 2, so most offers wait past X and most heads
/// queue behind other pairs' older demand; one step in four withdraws an
/// earlier offer, waiting, announced behind its head, or mid-message.
/// `DIGEST` folds the grant stream and completions; it was recorded
/// before the scheduler stopped keeping per-pair queues, and a message
/// keyed at the instant it reached the scheduler's queue instead of at
/// its announcement moves it.
#[test]
fn fcfs_domain_keys_announced_messages_at_their_announcement() {
    const DIGEST: u64 = 0xc82b_f2b7_1160_d68d;
    let mut seed: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = |n: u64| {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (seed >> 33) % n
    };
    let (mut ops, mut offered) = (Vec::new(), 0);
    for _ in 0..160 {
        let dt = [0, 30, 120, 400][next(4) as usize];
        if next(3) == 0 && offered > 0 {
            // One of the last dozen offers.
            let nth = offered - 1 - next(12.min(offered));
            ops.push((dt, DomainOp::Cancel { nth: nth as usize }));
            continue;
        }
        let (src, dst) = (next(4) as u16, 4 + next(2) as u16);
        let bytes = [64, 200, 300, 700, 1500][next(5) as usize];
        for i in 0..2 + next(4) {
            let op = DomainOp::Offer {
                src,
                dst,
                bytes,
                forwarded: next(2) == 0,
            };
            ops.push((if i == 0 { dt } else { 0 }, op));
            offered += 1;
        }
    }
    let (got, _, _) = drive_domain(&ops, 2, Policy::Fcfs, false);
    let (want, _, _) = drive_domain(&ops, 2, Policy::Fcfs, true);
    assert_eq!(got, want);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
    for &(gseq, src, dst, bytes, token, at) in &got.grants {
        let fields = [gseq, src.into(), dst.into(), bytes.into(), token];
        fields.into_iter().chain([at.as_ps()]).for_each(&mut mix);
    }
    for &(token, at) in &got.completions {
        mix(token);
        mix(at.as_ps());
    }
    assert_eq!(h, DIGEST, "{h:#x}");
}

proptest! {
    /// Arbitrary remote writes followed by reads over the functional
    /// testbed return exactly the written bytes (data integrity through
    /// chunking, scheduling, and the switch).
    #[test]
    fn testbed_write_read_integrity(
        addr in 0u64..1_000_000,
        data in proptest::collection::vec(any::<u8>(), 1..2048),
    ) {
        let mut f = Fabric::new(TestbedConfig::default());
        let len = data.len() as u32;
        let w = f.write(Time::ZERO, 0, 1, addr, data.clone());
        let r = f.read(Time::from_us(50), 0, 1, addr, len);
        f.run();
        prop_assert!(f.completion(w).is_some());
        prop_assert_eq!(&f.completion(r).expect("read done").data, &data);
    }

    /// Random bursts over the functional testbed — any ordered pair, any
    /// number of same-pair ops at a handful of shared instants, so pairs
    /// run past the switch's X — lose nothing: every op completes exactly
    /// once, reads return the seeded bytes, writes land, and each memory
    /// node's fetch-adds form one chain that sums to its counter's final
    /// value.
    #[test]
    fn testbed_bursts_complete_exactly_once(
        nodes in 2usize..41,
        bursts in proptest::collection::vec(
            (any::<u16>(), any::<u16>(), 1usize..10, 0u8..3, 1u32..2048, 0usize..4),
            1..24,
        ),
    ) {
        const COUNTER: u64 = 1 << 40;
        let n = nodes as u16;
        let bytes = |i: usize, len: u32| -> Vec<u8> {
            (0..len).map(|b| (i as u32 * 131 + b * 7) as u8).collect()
        };
        let mut f = Fabric::new(TestbedConfig { nodes, ..TestbedConfig::default() });
        // (op id, kind, issuer, peer, addr, size), one disjoint 4 KiB line
        // per op.
        let mut issued = Vec::new();
        for &(src, dst, count, kind, size, instant) in &bursts {
            let src = src % n;
            let dst = (src + 1 + dst % (n - 1)) % n;
            let at = Time::from_ns([0, 1, 40, 1000][instant]);
            for _ in 0..count {
                let i = issued.len();
                let addr = i as u64 * 4096;
                let id = match kind {
                    0 => {
                        f.seed_memory(dst, addr, &bytes(i, size));
                        f.read(at, src, dst, addr, size)
                    }
                    1 => f.write(at, src, dst, addr, bytes(i, size)),
                    _ => f.rmw(at, src, dst, COUNTER, RmwOp::FetchAdd(size as u64)),
                };
                issued.push((id, kind, src, dst, addr, size));
            }
        }
        f.run();
        let mut seen = vec![0u32; issued.len()];
        for c in f.completions() {
            seen[c.op_id as usize] += 1;
        }
        prop_assert!(seen.iter().all(|&k| k == 1), "completions per op: {:?}", seen);

        // Fetch-add chains per memory node; then read back every write
        // and every counter at once, after the fabric drained.
        let mut chains: BTreeMap<u16, Vec<(u64, u64)>> = BTreeMap::new();
        let quiet = f.completions().iter().map(|c| c.completed).max().expect("ops ran")
            + Duration::from_us(1);
        let mut back = Vec::new();
        for (i, &(id, kind, src, peer, addr, size)) in issued.iter().enumerate() {
            let data = f.completion(id).expect("completed").data.clone();
            match kind {
                0 => prop_assert_eq!(data, bytes(i, size)),
                1 => back.push((f.read(quiet, src, peer, addr, size), bytes(i, size))),
                _ => {
                    let orig = u64::from_le_bytes(data[..].try_into().expect("8 B RRES"));
                    chains.entry(peer).or_default().push((orig, size as u64));
                }
            }
        }
        for (&peer, chain) in &mut chains {
            chain.sort_unstable();
            let mut sum = 0;
            for &(orig, delta) in chain.iter() {
                prop_assert_eq!(orig, sum, "fetch-adds at node {} are not one chain", peer);
                sum += delta;
            }
            let reader = (peer + 1) % n;
            back.push((f.read(quiet, reader, peer, COUNTER, 8), sum.to_le_bytes().to_vec()));
        }
        f.run();
        for (id, want) in back {
            prop_assert_eq!(&f.completion(id).expect("read-back completed").data, &want);
        }
    }

    /// Every flow offered to the EDM cluster simulator completes, after
    /// its arrival, with byte-conservation implied by completion.
    #[test]
    fn edm_sim_all_flows_complete(
        specs in proptest::collection::vec((0usize..8, 8usize..16, 1u32..4096, 0u64..10_000, any::<bool>()), 1..40)
    ) {
        let cluster = ClusterConfig { nodes: 16, ..ClusterConfig::default() };
        let flows: Vec<Flow> = specs
            .iter()
            .enumerate()
            .map(|(id, &(src, dst, size, at, is_write))| Flow {
                id,
                src,
                dst,
                size,
                arrival: Time::from_ns(at),
                kind: if is_write { FlowKind::Write } else { FlowKind::Read },
            })
            .collect();
        let result = EdmProtocol::default().simulate(&cluster, &flows);
        prop_assert_eq!(result.outcomes.len(), flows.len());
        for o in &result.outcomes {
            prop_assert!(o.completed > o.flow.arrival, "completion before arrival");
            // Nothing can beat pure serialization of its own bytes.
            let floor = cluster.link.tx_time_bytes(o.flow.size as u64);
            prop_assert!(o.mct() >= floor, "MCT below serialization floor");
        }
    }

    /// The testbed's unloaded latency is insensitive to payload content
    /// and deterministic across runs (bit-for-bit reproducibility).
    #[test]
    fn testbed_deterministic(fill in any::<u8>()) {
        let run = |fill: u8| {
            let mut f = Fabric::new(TestbedConfig::default());
            f.seed_memory(1, 0x100, &[fill; 64]);
            let id = f.read(Time::ZERO, 0, 1, 0x100, 64);
            f.run();
            f.completion(id).expect("done").latency()
        };
        let a = run(fill);
        let b = run(fill);
        let c = run(fill.wrapping_add(1));
        prop_assert_eq!(a, b, "same input must reproduce exactly");
        prop_assert_eq!(a, c, "latency must not depend on payload bits");
    }

    /// The poll protocol loses nothing: a driver that queues exactly the
    /// `Poll` events `SwitchDomain`'s return values ask for issues the
    /// grants, at the times, of one that polls after every call and at
    /// every scheduler wake-up — through multi-chunk messages, offers
    /// waiting past their pair's X bound, inline cut-through grants,
    /// revocations and purges — never queues two `Poll`s for one
    /// instant, and grants each pair's messages in offer order.
    #[test]
    fn domain_poll_protocol_sees_the_exhaustive_grant_stream(
        steps in proptest::collection::vec(
            (0u64..240, 0u16..6, 0u16..6, 1u32..1500, 0u8..16, any::<usize>()),
            1..120,
        ),
        x in 1usize..4,
        srpt in any::<bool>(),
    ) {
        let policy = if srpt { Policy::Srpt } else { Policy::Fcfs };
        let ops: Vec<(u64, DomainOp)> = steps
            .iter()
            .map(|&(dt, src, dst, bytes, kind, nth)| {
                // Three in four steps share their predecessor's instant.
                let dt = if dt % 4 == 0 { dt / 4 } else { 0 };
                let dst = if src == dst { (dst + 1) % 6 } else { dst };
                let op = match kind {
                    0 => DomainOp::Purge,
                    1..=3 => DomainOp::Cancel { nth },
                    _ => DomainOp::Offer { src, dst, bytes, forwarded: kind % 2 == 0 },
                };
                (dt, op)
            })
            .collect();
        let (got, rounds, duplicate_poll) = drive_domain(&ops, x, policy, false);
        let (want, all_rounds, _) = drive_domain(&ops, x, policy, true);
        prop_assert_eq!(&got.grants, &want.grants);
        prop_assert_eq!(&got.completions, &want.completions);
        // §3.1.1: a pair's messages are granted in offer order (tokens
        // count offers), whatever waits past X.
        let mut last: BTreeMap<(u16, u16), u64> = BTreeMap::new();
        for &(_, src, dst, _, token, _) in &got.grants {
            let prev = last.insert((src, dst), token).unwrap_or(0);
            prop_assert!(
                token >= prev,
                "pair ({}, {}): offer {} granted after offer {}",
                src, dst, token, prev
            );
        }
        prop_assert!(!duplicate_poll, "two Poll events queued for one instant");
        prop_assert!(rounds <= all_rounds, "{} rounds vs {} exhaustive", rounds, all_rounds);
    }
}
