//! Property-based tests for the scheduler: the ordered list behaves like
//! a reference sorted model, PIM always emits valid maximal matchings,
//! the grant engine conserves bytes and never double-books a port, the
//! demand-sparse `poll` is equivalent to a dense
//! reference implementation on randomized notify/poll scripts, a driver
//! that polls only when `next_wakeup` or a notification's `grantable_at`
//! says so sees the grants of one that polls at every busy expiry and
//! every notification, and after every round of either the
//! per-destination instants the scheduler remembers are the ones a
//! from-scratch look computes (`Scheduler::audit_ready`). The pair rules
//! the scheduler leaves to its caller — grants in offer order within a
//! pair, at most X of a pair's messages announced — are checked on that
//! caller, `edm_core`'s `SwitchDomain`.

use edm_core::sim::{DomainGrant, DomainOffer, SwitchDomain};
use edm_sched::scheduler::{CancelOutcome, Notification, Policy, Scheduler, SchedulerConfig};
use edm_sched::{OrderedList, PimRunner};
use edm_sim::{Bandwidth, Duration, Time};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

/// The pre-sparse scheduler, kept as an executable specification: dense
/// O(ports) scans per poll, per-poll allocations.
/// Every free destination's queue goes to PIM whole, however deep, and
/// the wake-up is the exact one at any depth. The production scheduler
/// must produce bit-identical `PollResult`s.
mod reference {
    use edm_sched::scheduler::{
        Grant, Notification, NotifyError, Policy, PollResult, SchedulerConfig,
    };
    use edm_sched::OrderedList;
    use edm_sim::{Duration, Time};

    /// A frozen copy of the pre-refactor dense priority-PIM loop. It must
    /// NOT call into the production `PimRunner` (whose dense `run` now
    /// delegates to the rewritten sparse core) — sharing it would let a
    /// matching bug cancel out of the equivalence test. Returns the
    /// matched pairs and the iteration count.
    ///
    /// The per-source priority encoder of the original always resolves
    /// rank 0 of the sorted request array, i.e. the smallest
    /// `(priority, dest)` proposal wins.
    fn dense_pim(
        ports: usize,
        demand: &[Vec<(u64, usize)>],
        src_free: &[bool],
        dst_free: &[bool],
    ) -> (Vec<(usize, usize)>, usize) {
        let mut src_avail = src_free.to_vec();
        let mut dst_avail = dst_free.to_vec();
        let mut pairs = Vec::new();
        let mut iterations = 0usize;
        let mut active: Vec<usize> = (0..ports)
            .filter(|&d| dst_avail[d] && !demand[d].is_empty())
            .collect();
        loop {
            let mut proposals: Vec<Vec<(u64, usize)>> = vec![Vec::new(); ports];
            let mut proposed_srcs = Vec::new();
            let mut next_active = Vec::new();
            for &d in &active {
                if let Some(&(prio, s)) = demand[d].iter().find(|&&(_, s)| src_avail[s]) {
                    if proposals[s].is_empty() {
                        proposed_srcs.push(s);
                    }
                    proposals[s].push((prio, d));
                    next_active.push(d);
                }
            }
            if next_active.is_empty() {
                break;
            }
            active = next_active;
            iterations += 1;
            for &s in &proposed_srcs {
                let mut reqs = std::mem::take(&mut proposals[s]);
                reqs.sort_unstable();
                let (_, d) = reqs[0];
                src_avail[s] = false;
                dst_avail[d] = false;
                pairs.push((s, d));
            }
            active.retain(|&d| dst_avail[d]);
        }
        (pairs, iterations)
    }

    pub struct DenseScheduler {
        config: SchedulerConfig,
        queues: Vec<OrderedList<QueuedMsg>>,
        src_busy_until: Vec<Time>,
        dst_busy_until: Vec<Time>,
    }

    #[derive(Debug, Clone, Copy)]
    struct QueuedMsg {
        src: u16,
        msg_id: u8,
        remaining: u32,
        notified_at: Time,
    }

    impl DenseScheduler {
        pub fn new(config: SchedulerConfig) -> Self {
            DenseScheduler {
                queues: (0..config.ports).map(|_| OrderedList::new()).collect(),
                src_busy_until: vec![Time::ZERO; config.ports],
                dst_busy_until: vec![Time::ZERO; config.ports],
                config,
            }
        }

        pub fn pending_messages(&self) -> usize {
            self.queues.iter().map(|q| q.len()).sum()
        }

        fn priority_key(&self, msg: &QueuedMsg) -> u64 {
            match self.config.policy {
                Policy::Fcfs => msg.notified_at.as_ps(),
                Policy::Srpt => msg.remaining as u64,
            }
        }

        pub fn notify(&mut self, now: Time, n: Notification) -> Result<(), NotifyError> {
            if n.src as usize >= self.config.ports {
                return Err(NotifyError::BadPort { port: n.src });
            }
            if n.dest as usize >= self.config.ports {
                return Err(NotifyError::BadPort { port: n.dest });
            }
            if n.size_bytes == 0 {
                return Err(NotifyError::EmptyMessage);
            }
            let msg = QueuedMsg {
                src: n.src,
                msg_id: n.msg_id,
                remaining: n.size_bytes,
                notified_at: now,
            };
            let key = self.priority_key(&msg);
            self.queues[n.dest as usize].insert(key, msg);
            Ok(())
        }

        pub fn poll(&mut self, now: Time) -> PollResult {
            let src_free: Vec<bool> = self.src_busy_until.iter().map(|&t| t <= now).collect();
            let dst_free: Vec<bool> = self.dst_busy_until.iter().map(|&t| t <= now).collect();
            let mut demand: Vec<Vec<(u64, usize)>> = vec![Vec::new(); self.config.ports];
            for (d, row) in demand.iter_mut().enumerate() {
                if !dst_free[d] {
                    continue;
                }
                row.extend(self.queues[d].iter().map(|(k, m)| (k, m.src as usize)));
            }
            let (matched_pairs, iterations) =
                dense_pim(self.config.ports, &demand, &src_free, &dst_free);
            let mut grants = Vec::with_capacity(matched_pairs.len());
            for &(s, d) in &matched_pairs {
                let (_, mut msg) = self.queues[d]
                    .remove_first(|m| m.src as usize == s)
                    .expect("matched edge must exist");
                let l = msg.remaining.min(self.config.chunk_bytes);
                msg.remaining -= l;
                let remaining_after = msg.remaining;
                if msg.remaining > 0 {
                    let key = self.priority_key(&msg);
                    self.queues[d].insert(key, msg);
                }
                let busy = self.config.link.tx_time_bytes(l as u64);
                self.src_busy_until[s] = now + busy;
                self.dst_busy_until[d] = now + busy;
                grants.push(Grant {
                    src: s as u16,
                    dest: d as u16,
                    msg_id: msg.msg_id,
                    chunk_bytes: l,
                    remaining_after,
                    issued_at: now,
                });
            }
            // `PollResult::next_wakeup`, re-derived from its contract by a
            // scan over every port: a busy destination waits for itself,
            // a free one for the earliest source anywhere in its queue,
            // however deep.
            let mut next_wakeup: Option<Time> = None;
            for (d, q) in self.queues.iter().enumerate() {
                if q.is_empty() {
                    continue;
                }
                let t = if self.dst_busy_until[d] > now {
                    self.dst_busy_until[d]
                } else {
                    q.iter()
                        .map(|(_, m)| self.src_busy_until[m.src as usize])
                        .min()
                        .expect("non-empty queue")
                };
                next_wakeup = Some(next_wakeup.map_or(t, |w| w.min(t)));
            }
            PollResult {
                grants,
                pim_iterations: iterations,
                sched_latency: Duration::from_ps(iterations as u64 * 3 * self.config.clock.as_ps()),
                next_wakeup,
            }
        }
    }
}

/// One grant as a driver observes it: issue time, src, dest, msg_id, chunk
/// bytes, and the matching latency of the round that issued it.
type SeenGrant = (Time, u16, u16, u8, u32, Duration);

/// Drives `sched` through `arrivals` and `cancels` (both time-sorted) the
/// way every engine does — the offer/poll protocol of
/// `edm_core::SwitchDomain`: the scheduler holds one message per pair,
/// the pair's head, and the others wait in the driver's per-pair FIFO. A
/// head granted in full or withdrawn is replaced by the next message of
/// its pair, keyed at that message's arrival. A cancel names a message by
/// its notification: a queued head is withdrawn, a waiting message
/// leaves its FIFO, and neither asks for a round: removing demand never
/// makes one worth running sooner, and a replacement head has the
/// withdrawn one's ports.
///
/// What differs is when a round runs. The driver under test asks for one
/// at each notification's `grantable_at` (now, if that has passed) and
/// trusts the latest round's `next_wakeup`, keeping only the earliest
/// instant asked for. The `exhaustive` reference ignores both: it polls
/// after every notification and at every busy expiry of every grant
/// while demand is pending, which is every instant at which a grant can
/// become possible. Every round of either is followed by `audit_ready`.
/// Returns the grant stream and the number of rounds run.
fn drive(
    mut sched: Scheduler,
    arrivals: &[(Time, Notification)],
    cancels: &[(Time, Notification)],
    exhaustive: bool,
) -> (Vec<SeenGrant>, u64) {
    let link = sched.config().link;
    // Notifies a pair's new head: whether to poll now, else fold the
    // instant it asks for into the wake-up.
    let notify =
        |sched: &mut Scheduler, now, (at, n): (Time, Notification), wake: &mut Option<Time>| {
            sched.notify(at, n).expect("valid notification");
            let ready = sched.grantable_at(n.src, n.dest);
            if exhaustive || ready <= now {
                return true;
            }
            *wake = Some(wake.map_or(ready, |w| w.min(ready)));
            false
        };
    let mut seen = Vec::new();
    // Per pair: the messages not yet granted in full, head first.
    let mut fifos: HashMap<(u16, u16), VecDeque<(Time, Notification)>> = HashMap::new();
    let mut expiries: BTreeSet<Time> = BTreeSet::new();
    let mut wake: Option<Time> = None;
    let (mut next_arrival, mut next_cancel) = (0, 0);
    loop {
        let timer = if exhaustive {
            expiries.first().copied()
        } else {
            wake
        };
        let now = [
            arrivals.get(next_arrival).map(|a| a.0),
            cancels.get(next_cancel).map(|c| c.0),
            timer,
        ]
        .into_iter()
        .flatten()
        .min();
        let Some(now) = now else {
            break;
        };
        let mut poll = false;
        while arrivals.get(next_arrival).is_some_and(|a| a.0 == now) {
            let a = arrivals[next_arrival];
            next_arrival += 1;
            let fifo = fifos.entry((a.1.src, a.1.dest)).or_default();
            fifo.push_back(a);
            if fifo.len() == 1 {
                poll |= notify(&mut sched, now, a, &mut wake);
            }
        }
        while cancels.get(next_cancel).is_some_and(|c| c.0 == now) {
            let c = cancels[next_cancel].1;
            next_cancel += 1;
            let fifo = fifos.entry((c.src, c.dest)).or_default();
            // Already granted in full: no-op.
            let Some(pos) = fifo.iter().position(|(_, n)| *n == c) else {
                continue;
            };
            fifo.remove(pos);
            if pos == 0 {
                let outcome = sched.cancel(c.src, c.dest, c.msg_id);
                assert!(matches!(outcome, CancelOutcome::Cancelled { .. }));
                if let Some(&next) = fifo.front() {
                    // The new head has the withdrawn one's ports, so the
                    // wake-up that covered that one covers it.
                    let mut covered = wake;
                    poll |= notify(&mut sched, now, next, &mut covered) && exhaustive;
                }
            }
        }
        if exhaustive {
            poll |= expiries.remove(&now) && sched.pending_messages() > 0;
        } else if wake == Some(now) {
            // A cancel may have withdrawn what this wake-up was for.
            wake = None;
            poll |= sched.pending_messages() > 0;
        }
        if !poll {
            continue;
        }
        let r = sched.poll(now);
        if let Err(e) = sched.audit_ready(now) {
            panic!("after the round at {now}: {e}");
        }
        wake = r.next_wakeup;
        for g in &r.grants {
            seen.push((
                g.issued_at,
                g.src,
                g.dest,
                g.msg_id,
                g.chunk_bytes,
                r.sched_latency,
            ));
            expiries.insert(now + link.tx_time_bytes(g.chunk_bytes as u64));
            let fifo = fifos.get_mut(&(g.src, g.dest)).expect("granted pair");
            if g.is_final() {
                fifo.pop_front();
                if let Some(&next) = fifo.front() {
                    // Grantable when this chunk's ports free: the
                    // exhaustive driver polls at that expiry anyway.
                    notify(&mut sched, now, next, &mut wake);
                }
            }
        }
    }
    assert!(
        fifos.values().all(VecDeque::is_empty),
        "every message granted"
    );
    assert_eq!(sched.pending_messages(), 0, "scheduler drained");
    (seen, sched.rounds())
}

/// What [`drive_domain`] saw: each grant as (src, dst, token, chunk
/// bytes), in grant order, and the tokens of the completed offers.
type DomainRun = (Vec<(u16, u16, u64, u32)>, Vec<u64>);

/// Drives a 6-port `SwitchDomain` through `offers`, one a nanosecond and
/// each under X = `x`, as an event-driven world does: it polls only when
/// the domain asks, and every granted chunk lands 120 ns after its round
/// plus its own transmission time.
fn drive_domain(offers: &[(u16, u16, u32)], x: usize, policy: Policy) -> DomainRun {
    enum Ev {
        Offer(usize),
        Land { slot: u32, bytes: u32 },
        Poll,
    }
    const FLIGHT: Duration = Duration::from_ns(120);
    let cfg = SchedulerConfig {
        policy,
        ..SchedulerConfig::default_for_ports(6)
    };
    let mut dom = SwitchDomain::new(cfg);
    // (time, rank, key): at one instant offers go first, then landings,
    // then polls.
    let mut queue: BTreeMap<(Time, u8, u64), Ev> = BTreeMap::new();
    for i in 0..offers.len() {
        queue.insert((Time::from_ns(i as u64), 0, i as u64), Ev::Offer(i));
    }
    let (mut grants, mut completed) = (Vec::new(), Vec::new());
    let mut key = 0u64;
    while let Some(((now, _, _), ev)) = queue.pop_first() {
        let asked = match ev {
            Ev::Offer(i) => {
                let (src, dst, bytes) = offers[i];
                let token = i as u64;
                dom.offer(
                    now,
                    DomainOffer {
                        src,
                        dst,
                        bytes,
                        limit: x,
                        token,
                    },
                )
            }
            Ev::Land { slot, bytes } => {
                dom.deliver(now, slot, bytes, |token, _| completed.push(token))
            }
            Ev::Poll => dom.poll(now).and_then(|round| {
                for g in round.grants {
                    grants.push((g.src, g.dst, g.token, g.chunk_bytes));
                    let lands = now
                        + round.sched_latency
                        + FLIGHT
                        + cfg.link.tx_time_bytes(g.chunk_bytes as u64);
                    key += 1;
                    let land = Ev::Land {
                        slot: g.slot,
                        bytes: g.chunk_bytes,
                    };
                    queue.insert((lands, 1, key), land);
                }
                round.next_poll
            }),
        };
        if let Some(at) = asked {
            key += 1;
            queue.insert((at, 2, key), Ev::Poll);
        }
    }
    (grants, completed)
}

/// An offer of 64 B on (src, dst) under X = `limit`.
fn offer64(src: u16, dst: u16, limit: usize, token: u64) -> DomainOffer {
    DomainOffer {
        src,
        dst,
        bytes: 64,
        limit,
        token,
    }
}

proptest! {
    /// OrderedList pops in exactly the order of a reference stable sort.
    #[test]
    fn ordered_list_matches_reference(ops in proptest::collection::vec((0u64..100, any::<u16>()), 1..200)) {
        let mut list = OrderedList::new();
        let mut reference: Vec<(u64, usize, u16)> = Vec::new();
        for (i, &(k, v)) in ops.iter().enumerate() {
            list.insert(k, v);
            reference.push((k, i, v));
        }
        reference.sort_by_key(|&(k, i, _)| (k, i));
        for &(k, _, v) in &reference {
            let (got_k, got_v) = list.pop().expect("same length");
            prop_assert_eq!((got_k, got_v), (k, v));
        }
        prop_assert!(list.is_empty());
    }

    /// PIM output is always a valid matching (no port appears twice) and
    /// maximal (no leftover edge between two unmatched, free ports).
    #[test]
    fn pim_valid_and_maximal(
        ports in 2usize..24,
        edges in proptest::collection::vec((0usize..24, 0usize..24, 0u64..1000), 0..80),
        busy_bits in any::<u32>(),
    ) {
        let mut demand = vec![Vec::new(); ports];
        for &(d, s, prio) in &edges {
            let (d, s) = (d % ports, s % ports);
            demand[d].push((prio, s));
        }
        for row in demand.iter_mut() {
            row.sort_unstable();
        }
        let src_free: Vec<bool> = (0..ports).map(|i| busy_bits & (1 << i) == 0).collect();
        let dst_free: Vec<bool> = (0..ports).map(|i| busy_bits & (1 << (i + 8)) == 0 || i >= 24).collect();
        let mut pim = PimRunner::new(ports);
        let m = pim.run(&demand, &src_free, &dst_free);

        let mut srcs = HashSet::new();
        let mut dsts = HashSet::new();
        for &(s, d) in &m.pairs {
            prop_assert!(src_free[s], "matched busy source {s}");
            prop_assert!(dst_free[d], "matched busy dest {d}");
            prop_assert!(srcs.insert(s), "source {s} matched twice");
            prop_assert!(dsts.insert(d), "dest {d} matched twice");
            prop_assert!(
                demand[d].iter().any(|&(_, ss)| ss == s),
                "matched edge {s}->{d} not in demand"
            );
        }
        // Maximality.
        for (d, row) in demand.iter().enumerate() {
            if !dst_free[d] || dsts.contains(&d) {
                continue;
            }
            for &(_, s) in row {
                prop_assert!(
                    !src_free[s] || srcs.contains(&s),
                    "edge {s}->{d} left unmatched though both free"
                );
            }
        }
        prop_assert_eq!(m.cycles, m.iterations as u64 * 3);
    }

    /// The grant engine conserves bytes exactly: total granted equals the
    /// total notified, every grant respects the chunk cap, and no port is
    /// granted twice in one poll round.
    #[test]
    fn scheduler_conserves_bytes(
        msgs in proptest::collection::vec((0u16..8, 0u16..8, 1u32..5000), 1..40),
        chunk in prop::sample::select(vec![64u32, 128, 256, 512]),
        srpt in any::<bool>(),
    ) {
        let mut s = Scheduler::new(SchedulerConfig {
            ports: 8,
            chunk_bytes: chunk,
            link: Bandwidth::from_gbps(100),
            policy: if srpt { Policy::Srpt } else { Policy::Fcfs },
            clock: edm_sched::ASIC_CLOCK,
        });
        let mut expected = 0u64;
        for (i, &(src, dst, size)) in msgs.iter().enumerate() {
            let dst = if src == dst { (dst + 1) % 8 } else { dst };
            s.notify(Time::from_ns(i as u64), Notification::new(src, dst, i as u8, size))
                .expect("admitted");
            expected += size as u64;
        }
        let mut now = Time::from_ns(msgs.len() as u64);
        let mut rounds = 0;
        loop {
            let r = s.poll(now);
            let mut srcs = HashSet::new();
            let mut dsts = HashSet::new();
            for g in &r.grants {
                prop_assert!(g.chunk_bytes <= chunk);
                prop_assert!(g.chunk_bytes > 0);
                prop_assert!(srcs.insert(g.src), "src granted twice in a round");
                prop_assert!(dsts.insert(g.dest), "dst granted twice in a round");
            }
            match r.next_wakeup {
                Some(t) => now = t,
                None => break,
            }
            rounds += 1;
            prop_assert!(rounds < 100_000, "scheduler failed to drain");
        }
        prop_assert_eq!(s.bytes_granted(), expected);
        prop_assert_eq!(s.pending_messages(), 0);
    }

    /// The demand-sparse scheduler is observationally equivalent to the
    /// dense reference: on any monotone script of notifies and polls, both
    /// produce identical notify results and bit-identical `PollResult`s
    /// (grants with order, iteration counts, latency, next wakeup).
    #[test]
    fn sparse_poll_equivalent_to_dense_reference(
        ports in 2usize..12,
        script in proptest::collection::vec(
            (any::<bool>(), 0u16..12, 0u16..12, 1u32..2048, 0u64..60),
            1..100,
        ),
        chunk in prop::sample::select(vec![64u32, 256]),
        srpt in any::<bool>(),
    ) {
        let cfg = SchedulerConfig {
            ports,
            chunk_bytes: chunk,
            link: Bandwidth::from_gbps(100),
            policy: if srpt { Policy::Srpt } else { Policy::Fcfs },
            clock: edm_sched::ASIC_CLOCK,
        };
        let mut sparse = Scheduler::new(cfg);
        let mut dense = reference::DenseScheduler::new(cfg);
        let mut now = Time::ZERO;
        let mut msg_id = 0u8;
        for &(is_poll, src, dst, size, dt) in &script {
            now += edm_sim::Duration::from_ns(dt);
            if is_poll {
                let a = sparse.poll(now);
                let b = dense.poll(now);
                prop_assert_eq!(sparse.audit_ready(now), Ok(()));
                prop_assert_eq!(&a.grants, &b.grants);
                prop_assert_eq!(a.pim_iterations, b.pim_iterations);
                prop_assert_eq!(a.sched_latency, b.sched_latency);
                prop_assert_eq!(a.next_wakeup, b.next_wakeup);
            } else {
                let src = src % ports as u16;
                let dst = dst % ports as u16;
                let dst = if src == dst { (dst + 1) % ports as u16 } else { dst };
                let n = Notification::new(src, dst, msg_id, size);
                msg_id = msg_id.wrapping_add(1);
                prop_assert_eq!(sparse.notify(now, n), dense.notify(now, n));
            }
            prop_assert_eq!(sparse.pending_messages(), dense.pending_messages());
        }
        // Drain both to the end and compare the tail too.
        let mut rounds = 0;
        loop {
            let a = sparse.poll(now);
            let b = dense.poll(now);
            prop_assert_eq!(sparse.audit_ready(now), Ok(()));
            prop_assert_eq!(&a.grants, &b.grants);
            prop_assert_eq!(a.next_wakeup, b.next_wakeup);
            match a.next_wakeup {
                Some(t) => now = t,
                None => break,
            }
            rounds += 1;
            prop_assert!(rounds < 100_000, "drain did not converge");
        }
        prop_assert_eq!(sparse.pending_messages(), 0);
    }

    /// Polling only when `next_wakeup` says so, or when a fresh
    /// notification's ports free (`grantable_at`), loses nothing: the
    /// grant stream — issue time, ports, message, chunk, matching
    /// latency — is the one an exhaustive driver sees, in fewer rounds.
    /// Schedules mix single- and multi-chunk messages, queue several
    /// messages per pair behind its head and withdraw some messages
    /// shortly after they arrived; the wide shape piles up to 100 sources
    /// onto one destination, most of them mid-chunk, so PIM must find an
    /// eligible source deep in the queue and the wake-up must cover every
    /// entry of it, exactly.
    #[test]
    fn next_wakeup_driver_sees_the_exhaustive_grant_stream(
        wide in any::<bool>(),
        head_start in proptest::collection::vec(8192u32..16384, 100),
        msgs in proptest::collection::vec(
            (0u16..100, 0u16..100, 1u32..1500, 0u64..4, 0u64..12),
            1..400,
        ),
        withdrawn in proptest::collection::vec((0usize..400, 0u64..200), 0..40),
        chunk in prop::sample::select(vec![64u32, 256]),
        srpt in any::<bool>(),
    ) {
        // Narrow: 8 ports, all-to-all. Wide: 100 sources, each busy from
        // time zero sending to a private destination while queueing for
        // one hot port, whose queue grows deep while the sources at its
        // head are mid-chunk.
        const SOURCES: u16 = 100;
        let ports = if wide { 2 * SOURCES + 1 } else { 8 };
        let cfg = SchedulerConfig {
            ports: ports as usize,
            chunk_bytes: chunk,
            link: Bandwidth::from_gbps(100),
            policy: if srpt { Policy::Srpt } else { Policy::Fcfs },
            clock: edm_sched::ASIC_CLOCK,
        };
        let mut now = Time::ZERO;
        let mut next_id = HashMap::new();
        let mut arrivals: Vec<(Time, Notification)> = Vec::new();
        if wide {
            for (src, &size) in (0..SOURCES).zip(&head_start) {
                next_id.insert((src, SOURCES + src), 1u8);
                arrivals.push((now, Notification::new(src, SOURCES + src, 0, size)));
            }
        }
        arrivals.extend(msgs
            .iter()
            .map(|&(src, dst, size, burst, dt)| {
                // Three in four arrivals share their predecessor's instant.
                if burst == 0 {
                    now += Duration::from_ns(dt);
                }
                let (src, dst) = if !wide {
                    let (src, dst) = (src % ports, dst % ports);
                    (src, if src == dst { (dst + 1) % ports } else { dst })
                } else if dst % 2 == 0 {
                    (src % SOURCES, 2 * SOURCES)
                } else {
                    (src % SOURCES, SOURCES + src % SOURCES)
                };
                let id = next_id.entry((src, dst)).or_insert(0u8);
                let n = Notification::new(src, dst, *id, size);
                *id = id.wrapping_add(1);
                (now, n)
            }));
        // Each cancel targets one arrival, a little after it was due:
        // queued, waiting behind its pair's head or done.
        let mut cancels: Vec<(Time, Notification)> = withdrawn
            .iter()
            .map(|&(i, after)| {
                let (at, n) = arrivals[i % arrivals.len()];
                (at + Duration::from_ns(after), n)
            })
            .collect();
        cancels.sort_by_key(|c| c.0);
        let (got, rounds) = drive(Scheduler::new(cfg), &arrivals, &cancels, false);
        let (want, all_rounds) = drive(Scheduler::new(cfg), &arrivals, &cancels, true);
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(a, b);
        }
        prop_assert!(rounds <= all_rounds, "{} rounds vs {} exhaustive", rounds, all_rounds);
    }

    /// Within one (src, dest) pair, messages are granted strictly in
    /// offer order (§3.1.1 property 5): each pair's grant stream starts
    /// message k only after message k-1 was granted in full, whatever the
    /// policy, the message sizes or X.
    #[test]
    fn per_pair_grants_are_fifo(
        msgs in proptest::collection::vec((0u16..6, 0u16..6, 1u32..3000), 1..60),
        srpt in any::<bool>(),
        x in 1usize..4,
    ) {
        let offers: Vec<(u16, u16, u32)> = msgs
            .iter()
            .map(|&(src, dst, size)| (src, if src == dst { (dst + 1) % 6 } else { dst }, size))
            .collect();
        let policy = if srpt { Policy::Srpt } else { Policy::Fcfs };
        let (grants, completed) = drive_domain(&offers, x, policy);
        // Each pair's offers, with their ungranted bytes, in offer order.
        let mut pairs: HashMap<(u16, u16), VecDeque<(u64, u32)>> = HashMap::new();
        for (token, &(src, dst, size)) in offers.iter().enumerate() {
            pairs.entry((src, dst)).or_default().push_back((token as u64, size));
        }
        for &(src, dst, token, bytes) in &grants {
            let head = pairs.get_mut(&(src, dst)).and_then(|q| q.front_mut());
            let Some(head) = head else {
                return Err(TestCaseError::fail(format!("grant past the end of ({src}, {dst})")));
            };
            prop_assert_eq!(
                token, head.0,
                "pair ({}, {}) granted message {} while {} is unfinished",
                src, dst, token, head.0
            );
            head.1 -= bytes;
            if head.1 == 0 {
                pairs.get_mut(&(src, dst)).unwrap().pop_front();
            }
        }
        // Every offer was granted in full and completed.
        prop_assert!(pairs.values().all(VecDeque::is_empty));
        prop_assert_eq!(completed.len(), offers.len());
    }

    /// The X bound is exact: of a pair's offers, the first X are
    /// announced and granted without a completion, every later one waits
    /// until a completion frees a slot — one per completion, in offer
    /// order — and a pair with another X keeps its own count.
    #[test]
    fn pair_limit_exact(x in 1usize..6, extra in 1usize..5) {
        let mut dom = SwitchDomain::new(SchedulerConfig::default_for_ports(4));
        for token in 0..x + extra {
            dom.offer(Time::ZERO, offer64(0, 1, x, token as u64));
        }
        for token in 0..x + 2 {
            dom.offer(Time::ZERO, offer64(2, 3, x + 2, 100 + token as u64));
        }
        prop_assert_eq!(dom.scheduler().pending_messages(), 2, "one head per pair");
        // Rounds with nothing delivered.
        let mut grants: Vec<DomainGrant> = Vec::new();
        let mut next = Some(Time::ZERO);
        while let Some(now) = next {
            let round = dom.poll(now).expect("the live wake-up");
            grants.extend_from_slice(round.grants);
            next = round.next_poll;
        }
        let tokens = |src: u16| -> Vec<u64> {
            grants.iter().filter(|g| g.src == src).map(|g| g.token).collect()
        };
        prop_assert_eq!(tokens(0), (0..x as u64).collect::<Vec<_>>());
        prop_assert_eq!(tokens(2), (100..100 + x as u64 + 2).collect::<Vec<_>>());
        // Each 0->1 message is one chunk: its landing completes it.
        let mut inflight: VecDeque<DomainGrant> =
            grants.iter().filter(|g| g.src == 0).copied().collect();
        let (mut admitted, mut now) = (x, Time::ZERO);
        while let Some(g) = inflight.pop_front() {
            now += Duration::from_ns(100);
            let poll = dom.deliver(now, g.slot, g.chunk_bytes, |_, _| {});
            if admitted == x + extra {
                prop_assert_eq!(poll, None, "nothing left to announce");
                continue;
            }
            prop_assert_eq!(poll, Some(now));
            let round = dom.poll(now).expect("live");
            prop_assert_eq!(round.grants.len(), 1);
            prop_assert_eq!(round.grants[0].token, admitted as u64);
            inflight.push_back(round.grants[0]);
            admitted += 1;
        }
        prop_assert_eq!(admitted, x + extra);
    }
}
