//! Property-based tests for the scheduler: the ordered list behaves like
//! a reference sorted model, PIM always emits valid maximal matchings,
//! the grant engine conserves bytes and never double-books a port, pairs
//! stay FIFO, the demand-sparse `poll` is equivalent to a dense
//! reference implementation on randomized notify/poll scripts, a driver
//! that polls only when `next_wakeup` says so sees the grants of one that
//! polls at every busy expiry, and after every round of either the
//! per-destination instants the scheduler remembers are the ones a
//! from-scratch look computes (`Scheduler::audit_ready`).

use edm_sched::scheduler::{CancelOutcome, Notification, Policy, Scheduler, SchedulerConfig};
use edm_sched::{OrderedList, PimConfig, PimRunner};
use edm_sim::{Bandwidth, Duration, Time};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet, VecDeque};

/// The pre-sparse scheduler, kept as an executable specification: dense
/// O(ports) scans per poll, per-poll allocations, `HashMap` pair state.
/// The production scheduler must produce bit-identical `PollResult`s.
mod reference {
    use edm_sched::scheduler::{
        Grant, Notification, NotifyError, Policy, PollResult, SchedulerConfig,
    };
    use edm_sched::OrderedList;
    use edm_sim::{Duration, Time};
    use std::collections::{HashMap, VecDeque};

    /// Demand-row depth offered to PIM (matches the production constant).
    const PIM_ROW_DEPTH: usize = 64;

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
        active_per_pair: HashMap<(u16, u16), u32>,
        head_in_queue: HashMap<(u16, u16), bool>,
        pair_waiting: HashMap<(u16, u16), VecDeque<QueuedMsg>>,
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
                active_per_pair: HashMap::new(),
                head_in_queue: HashMap::new(),
                pair_waiting: HashMap::new(),
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
            let pair = (n.src, n.dest);
            let active = self.active_per_pair.entry(pair).or_insert(0);
            if *active as usize >= self.config.max_active_per_pair {
                return Err(NotifyError::PairLimitReached {
                    limit: self.config.max_active_per_pair,
                });
            }
            *active += 1;
            let msg = QueuedMsg {
                src: n.src,
                msg_id: n.msg_id,
                remaining: n.size_bytes,
                notified_at: now,
            };
            if *self.head_in_queue.entry(pair).or_insert(false) {
                self.pair_waiting.entry(pair).or_default().push_back(msg);
            } else {
                self.head_in_queue.insert(pair, true);
                let key = self.priority_key(&msg);
                self.queues[n.dest as usize].insert(key, msg);
            }
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
                row.extend(
                    self.queues[d]
                        .iter()
                        .map(|(k, m)| (k, m.src as usize))
                        .take(PIM_ROW_DEPTH),
                );
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
                } else {
                    let pair = (msg.src, d as u16);
                    *self.active_per_pair.get_mut(&pair).unwrap() -= 1;
                    match self.pair_waiting.entry(pair).or_default().pop_front() {
                        Some(next) => {
                            let key = self.priority_key(&next);
                            self.queues[d].insert(key, next);
                        }
                        None => {
                            self.head_in_queue.insert(pair, false);
                        }
                    }
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
            // a free one for the earliest source anywhere in its queue;
            // a free destination whose queue PIM saw only the head of
            // falls back to the earliest busy expiry of any port.
            let busy_expiry = self
                .src_busy_until
                .iter()
                .chain(self.dst_busy_until.iter())
                .filter(|&&t| t > now)
                .min()
                .copied();
            let mut next_wakeup: Option<Time> = None;
            for (d, q) in self.queues.iter().enumerate() {
                if q.is_empty() {
                    continue;
                }
                let t = if self.dst_busy_until[d] > now {
                    self.dst_busy_until[d]
                } else if q.len() > PIM_ROW_DEPTH {
                    next_wakeup = busy_expiry;
                    break;
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
/// way every engine does — the offer/poll/deliver protocol of
/// `edm_core::SwitchDomain`: a round runs after each accepted
/// notification; a notification the pair's X bound rejects waits in a
/// FIFO backlog, and `DELIVERY` after a message's final grant the backlog
/// head is offered again. A cancel names a message by its notification;
/// one that withdraws demand frees an admission slot like a completion
/// (backlog head offered again at once) and asks for a round only when it
/// uncovered a deep row. Odd sources get a wider X, trunk-style, through
/// `notify_with_limit`.
///
/// What differs is when else a round runs. The driver under test trusts
/// the latest round's `next_wakeup`; the `exhaustive` reference ignores
/// it and polls at every busy expiry of every grant while demand is
/// pending, which is every instant at which a grant can become possible.
/// Every round of either is followed by `audit_ready`. Returns the grant
/// stream and the number of rounds run.
fn drive(
    mut sched: Scheduler,
    arrivals: &[(Time, Notification)],
    cancels: &[(Time, Notification)],
    exhaustive: bool,
) -> (Vec<SeenGrant>, u64) {
    const DELIVERY: Duration = Duration::from_ns(150);
    let link = sched.config().link;
    let x = sched.config().max_active_per_pair;
    let notify = |sched: &mut Scheduler, now, n: Notification| {
        sched.notify_with_limit(now, n, x + 2 * (n.src as usize % 2))
    };
    let mut seen = Vec::new();
    let mut backlog: VecDeque<Notification> = VecDeque::new();
    let mut retries: BTreeSet<Time> = BTreeSet::new();
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
            retries.first().copied(),
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
            let n = arrivals[next_arrival].1;
            next_arrival += 1;
            // Host FIFO: never overtake a same-pair message that waits.
            let waits = backlog.iter().any(|b| (b.src, b.dest) == (n.src, n.dest));
            if waits || notify(&mut sched, now, n).is_err() {
                backlog.push_back(n);
            } else {
                poll = true;
            }
        }
        while cancels.get(next_cancel).is_some_and(|c| c.0 == now) {
            let c = cancels[next_cancel].1;
            next_cancel += 1;
            // Still in the backlog or already granted in full: no-op.
            if let CancelOutcome::Cancelled { uncovered, .. } =
                sched.cancel(c.src, c.dest, c.msg_id)
            {
                poll |= uncovered;
                retries.insert(now);
            }
        }
        if retries.remove(&now) {
            if let Some(n) = backlog.pop_front() {
                match notify(&mut sched, now, n) {
                    Ok(()) => poll = true,
                    Err(_) => backlog.push_back(n),
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
            if g.is_final() {
                retries.insert(now + DELIVERY);
            }
        }
        wake = r.next_wakeup;
    }
    assert!(backlog.is_empty(), "backlog drained");
    assert_eq!(sched.pending_messages(), 0, "scheduler drained");
    (seen, sched.rounds())
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
        let mut pim = PimRunner::new(PimConfig::for_ports(ports));
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
            max_active_per_pair: usize::MAX, // admit everything
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
        x in 1usize..4,
    ) {
        let cfg = SchedulerConfig {
            ports,
            chunk_bytes: chunk,
            link: Bandwidth::from_gbps(100),
            policy: if srpt { Policy::Srpt } else { Policy::Fcfs },
            max_active_per_pair: x,
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

    /// Polling only when `next_wakeup` (or a fresh notification) says so
    /// loses nothing: the grant stream — issue time, ports, message,
    /// chunk, matching latency — is the one an exhaustive driver sees,
    /// in fewer rounds. Schedules mix single- and multi-chunk messages,
    /// overflow the per-pair X bound into a backlog and withdraw some
    /// messages shortly after they were announced; the wide shape
    /// piles more sources onto a destination than PIM's row holds, and
    /// `one_iteration` caps PIM so rounds leave eligible demand behind —
    /// the two cases where the wake-up must fall back to every expiry.
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
        x in 1usize..4,
        one_iteration in any::<bool>(),
    ) {
        // Narrow: 8 ports, all-to-all. Wide: 100 sources, each busy from
        // time zero sending to a private destination while queueing for
        // one hot port, whose queue so outgrows the 64-entry row while
        // the sources it shows are mid-chunk.
        const SOURCES: u16 = 100;
        let ports = if wide { 2 * SOURCES + 1 } else { 8 };
        let cfg = SchedulerConfig {
            ports: ports as usize,
            chunk_bytes: chunk,
            link: Bandwidth::from_gbps(100),
            policy: if srpt { Policy::Srpt } else { Policy::Fcfs },
            max_active_per_pair: x,
            clock: edm_sched::ASIC_CLOCK,
        };
        let pim = PimConfig {
            ports: ports as usize,
            max_iterations: one_iteration.then_some(1),
        };
        let mut now = Time::ZERO;
        let mut next_id = std::collections::HashMap::new();
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
        // queued, waiting behind its pair's head, backlogged or done.
        let mut cancels: Vec<(Time, Notification)> = withdrawn
            .iter()
            .map(|&(i, after)| {
                let (at, n) = arrivals[i % arrivals.len()];
                (at + Duration::from_ns(after), n)
            })
            .collect();
        cancels.sort_by_key(|c| c.0);
        let (got, rounds) = drive(Scheduler::with_pim(cfg, pim), &arrivals, &cancels, false);
        let (want, all_rounds) = drive(Scheduler::with_pim(cfg, pim), &arrivals, &cancels, true);
        prop_assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(a, b);
        }
        prop_assert!(rounds <= all_rounds, "{} rounds vs {} exhaustive", rounds, all_rounds);
    }

    /// Within one (src, dest) pair, messages are granted strictly in
    /// notification order (§3.1.1 property 5): each pair's grant stream
    /// starts message k only after message k-1 delivered its final chunk,
    /// regardless of policy or message sizes.
    #[test]
    fn per_pair_grants_are_fifo(
        msgs in proptest::collection::vec((0u16..6, 0u16..6, 1u32..3000), 1..60),
        srpt in any::<bool>(),
    ) {
        let ports = 6;
        let mut s = Scheduler::new(SchedulerConfig {
            ports,
            chunk_bytes: 256,
            link: Bandwidth::from_gbps(100),
            policy: if srpt { Policy::Srpt } else { Policy::Fcfs },
            max_active_per_pair: usize::MAX,
            clock: edm_sched::ASIC_CLOCK,
        });
        // Per-pair msg_id allocation in notification order.
        let mut next_id = std::collections::HashMap::new();
        for (i, &(src, dst, size)) in msgs.iter().enumerate() {
            let dst = if src == dst { (dst + 1) % ports as u16 } else { dst };
            let id = next_id.entry((src, dst)).or_insert(0u8);
            s.notify(Time::from_ns(i as u64), Notification::new(src, dst, *id, size))
                .expect("admitted");
            *id = id.wrapping_add(1);
        }
        // Drain, checking each pair's grant stream: chunks of message k
        // are contiguous and followed by message k+1.
        let mut now = Time::from_ns(msgs.len() as u64);
        let mut expect_id: std::collections::HashMap<(u16, u16), u8> =
            std::collections::HashMap::new();
        let mut rounds = 0;
        loop {
            let r = s.poll(now);
            for g in &r.grants {
                let cur = expect_id.entry((g.src, g.dest)).or_insert(0);
                prop_assert_eq!(
                    g.msg_id, *cur,
                    "pair ({}, {}) granted message {} while {} is in flight",
                    g.src, g.dest, g.msg_id, *cur
                );
                if g.is_final() {
                    *cur = cur.wrapping_add(1);
                }
            }
            match r.next_wakeup {
                Some(t) => now = t,
                None => break,
            }
            rounds += 1;
            prop_assert!(rounds < 100_000, "scheduler failed to drain");
        }
        // Every notified message completed, in order.
        for (pair, id) in next_id {
            prop_assert_eq!(expect_id.get(&pair).copied(), Some(id));
        }
    }

    /// The X bound is enforced exactly: the (X+1)-th concurrent
    /// notification for one pair is rejected, all others admitted.
    #[test]
    fn pair_limit_exact(x in 1usize..6, extra in 1usize..5) {
        let mut s = Scheduler::new(SchedulerConfig {
            ports: 4,
            chunk_bytes: 256,
            link: Bandwidth::from_gbps(100),
            policy: Policy::Srpt,
            max_active_per_pair: x,
            clock: edm_sched::ASIC_CLOCK,
        });
        for i in 0..x {
            prop_assert!(s
                .notify(Time::ZERO, Notification::new(0, 1, i as u8, 64))
                .is_ok());
        }
        for i in 0..extra {
            prop_assert!(s
                .notify(Time::ZERO, Notification::new(0, 1, (x + i) as u8, 64))
                .is_err());
        }
        // A different pair is unaffected.
        prop_assert!(s.notify(Time::ZERO, Notification::new(2, 3, 0, 64)).is_ok());
    }
}
