//! The full grant engine (§3.1.1): demand notification queues, chunked
//! grants, timed busy release, and the FCFS/SRPT priority policies.
//!
//! Life of a message through the scheduler:
//!
//! 1. A sender announces demand ([`Scheduler::notify`]) — explicitly for
//!    writes (`/N/` block), implicitly for reads (the RREQ itself).
//! 2. At each [`Scheduler::poll`], the scheduler frees ports whose chunk
//!    timers expired, runs priority PIM over all eligible demand, and
//!    issues one [`Grant`] of up to `chunk_bytes` per matched pair. The
//!    poll also says when the next one is worth running
//!    ([`PollResult::next_wakeup`]), and a fresh notification says when
//!    its own ports free ([`Scheduler::grantable_at`]): like the
//!    hardware, which only acts on ports holding a queued notification
//!    (§3.1.2), a driver never has to run a round that cannot grant — and
//!    a round visits only the destinations that can have changed since
//!    it last looked at them (`dest_ready`).
//! 3. A granted port pair is *busy* for exactly `chunk/B` — the paper's
//!    step (7): releasing after the chunk's transmission time (not its
//!    arrival) keeps the pipe full despite propagation delay.
//! 4. When a message's remaining bytes reach zero it leaves the queue.
//!
//! The scheduler keeps no per-pair state. Each queued message is granted
//! by its own priority, so a caller that needs a pair's messages in
//! order (§3.1.1, property 5) queues one at a time: the pair's head.
//! `edm_core`'s `SwitchDomain` does that, and it owns the pair's FIFO, its
//! X bound (§3.1.2) and each announced message's FCFS key.

use crate::ordered_list::OrderedList;
use crate::pim::{self, DemandRow, PimRunner};
use edm_sim::{Bandwidth, Duration, Time};
use std::fmt;

/// Scheduling priority policy (§3.1.1, property 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// First-come-first-serve: priority = notification time. Optimal for
    /// light-tailed workloads.
    Fcfs,
    /// Shortest remaining processing time: priority = remaining bytes.
    /// Optimal for heavy-tailed workloads. Applied only *across*
    /// source–destination pairs; messages within a pair stay in order.
    #[default]
    Srpt,
}

/// A demand notification: source port, destination port, message tag, size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// Source switch port.
    pub src: u16,
    /// Destination switch port.
    pub dest: u16,
    /// Opaque tag, echoed in each [`Grant`] of the message and matched by
    /// [`Scheduler::cancel`].
    pub msg_id: u8,
    /// Message size in bytes.
    pub size_bytes: u32,
}

impl Notification {
    /// Creates a notification.
    pub fn new(src: u16, dest: u16, msg_id: u8, size_bytes: u32) -> Self {
        Notification {
            src,
            dest,
            msg_id,
            size_bytes,
        }
    }
}

/// A grant: permission for `src` to send a chunk of message `msg_id`
/// toward `dest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Source port being granted.
    pub src: u16,
    /// Destination port of the granted message.
    pub dest: u16,
    /// Tag of the granted message's notification.
    pub msg_id: u8,
    /// Granted bytes (≤ configured chunk size).
    pub chunk_bytes: u32,
    /// Bytes remaining in the message *after* this chunk.
    pub remaining_after: u32,
    /// When the grant was issued.
    pub issued_at: Time,
}

impl Grant {
    /// Whether this grant completes its message.
    pub fn is_final(&self) -> bool {
        self.remaining_after == 0
    }
}

/// Why a notification was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyError {
    /// A port index is out of range.
    BadPort {
        /// The offending port number.
        port: u16,
    },
    /// Zero-byte messages carry no demand.
    EmptyMessage,
}

impl fmt::Display for NotifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NotifyError::BadPort { port } => write!(f, "port {port} out of range"),
            NotifyError::EmptyMessage => write!(f, "zero-byte message"),
        }
    }
}

impl std::error::Error for NotifyError {}

/// Outcome of a [`Scheduler::cancel`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The message's ungranted remainder was withdrawn from its
    /// destination's notification queue. Removing demand never makes a
    /// round worth running before the last [`PollResult::next_wakeup`]:
    /// PIM reads whole queues, so nothing queued behind the withdrawn
    /// message was hidden from it.
    Cancelled {
        /// Bytes that will now never be granted.
        remaining: u32,
    },
    /// No queued message matched — it was already fully granted (or never
    /// notified).
    NotQueued,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Number of switch ports.
    pub ports: usize,
    /// Maximum chunk size in bytes (§3.1.3 sets 128 B minimum for a
    /// 512×100G switch; the evaluation uses 256 B).
    pub chunk_bytes: u32,
    /// Link bandwidth (used for the busy-release timer `chunk/B`).
    pub link: Bandwidth,
    /// Priority policy.
    pub policy: Policy,
    /// Scheduler pipeline clock period (ASIC: 1/3 ns).
    pub clock: Duration,
}

impl SchedulerConfig {
    /// The evaluation-section defaults for an `n`-port switch:
    /// 100 Gb/s links, 256 B chunks, SRPT, 3 GHz clock.
    pub fn default_for_ports(n: usize) -> Self {
        SchedulerConfig {
            ports: n,
            chunk_bytes: 256,
            link: Bandwidth::from_gbps(100),
            policy: Policy::Srpt,
            clock: crate::ASIC_CLOCK,
        }
    }
}

/// A queued message inside a notification queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedMsg {
    src: u16,
    msg_id: u8,
    remaining: u32,
    notified_at: Time,
}

/// PIM's cycle 1 reads a notification queue in place: its
/// highest-priority entry whose source is eligible.
impl DemandRow for OrderedList<QueuedMsg> {
    fn first_eligible(&self, mut eligible: impl FnMut(usize) -> bool) -> Option<(u64, usize)> {
        self.peek_where(|m| eligible(m.src as usize))
            .map(|(k, m)| (k, m.src as usize))
    }
}

/// Result of one [`Scheduler::poll`].
#[derive(Debug, Clone, Default)]
pub struct PollResult {
    /// Grants issued by this poll (one per matched port pair).
    pub grants: Vec<Grant>,
    /// PIM iterations this poll used.
    pub pim_iterations: usize,
    /// The matching latency this poll would take in hardware.
    pub sched_latency: Duration,
    /// When to poll next, if demand remains: the earliest future instant
    /// at which some *queued* message can become eligible. A destination
    /// still receiving a chunk contributes its own busy expiry; a free
    /// destination PIM could not match contributes the earliest expiry
    /// among the sources in its queue — computed when PIM last read that
    /// queue and remembered until the queue changes, so a round folds one
    /// remembered instant per destination it does not hand to PIM instead
    /// of walking the queue again. Rounds between `now`
    /// and this instant could not grant, and an empty round has no side
    /// effect (the matcher is priority-driven: no pointers, no RNG), so a
    /// driver that polls only at wake-ups and at the
    /// [`Scheduler::grantable_at`] of each accepted [`Scheduler::notify`]
    /// sees exactly the grants of one that polls at every busy expiry and
    /// every notification. PIM reads every queue it is handed whole, so
    /// no round leaves eligible demand unmatched and this rule has no
    /// exception.
    pub next_wakeup: Option<Time>,
}

/// EDM's centralized in-network scheduler.
///
/// Demand-sparse and allocation-free in steady state: a round costs one
/// comparison per destination with queued demand, plus PIM and a row walk
/// for those that can have changed since the scheduler last examined
/// them. [`Scheduler::poll`] times must be non-decreasing.
pub struct Scheduler {
    config: SchedulerConfig,
    /// Per-destination notification queues, priority-keyed per policy.
    queues: Vec<OrderedList<QueuedMsg>>,
    /// Per-port TX busy-until (source role; host uplink).
    src_busy_until: Vec<Time>,
    /// Per-port RX busy-until (destination role; host downlink).
    dst_busy_until: Vec<Time>,
    pim: PimRunner,
    /// Total grants issued (stats).
    grants_issued: u64,
    /// Total bytes granted (stats).
    bytes_granted: u64,
    /// Destinations with a non-empty notification queue, maintained
    /// incrementally so `poll` visits only ports with live demand.
    active_dests: Vec<u32>,
    /// Position of each destination in `active_dests` (`NOT_ACTIVE` when
    /// its queue is empty).
    dest_active_pos: Vec<u32>,
    /// Parallel to `active_dests` (pushed and swap-removed with it): the
    /// earliest instant at which that destination's queue can yield a
    /// grant *if its queue does not change*. Its own `dst_busy_until` while
    /// it is mid-chunk; the smallest `src_busy_until` over its queue once a
    /// round found it free but every queued source busy; `Time::ZERO`
    /// ("look now") when the queue changed since (`queue_insert`,
    /// `cancel`). A round skips every destination whose instant is still
    /// ahead and folds it into the wake-up.
    ///
    /// Skipping is exact, not merely safe — same pairs, same
    /// `pim_iterations`, same `next_wakeup` as examining everything:
    /// * the stored instant is the one a fresh look would compute. A
    ///   busy destination's timer moves only when it is granted, which
    ///   needs it examined first; a source in the row gets a new
    ///   `src_busy_until` only by being granted in a round at or after
    ///   its old expiry, and every such round has `now >= ready` and
    ///   examines the destination. (Rounds must not go back in time.)
    /// * a destination with no eligible source never proposes, so leaving
    ///   it out of `run_sparse` changes neither the matching nor the
    ///   iteration count.
    dest_ready: Vec<Time>,
    /// Running count of queued messages (= Σ queue lengths).
    pending: usize,
    /// Scheduling rounds run (stats).
    rounds: u64,
    /// Rounds that issued no grant (stats): pure overhead for whoever
    /// drives the scheduler, so worth watching.
    empty_rounds: u64,
    /// Destinations handed to PIM, summed over rounds (stats).
    dests_examined: u64,
    /// Time of the latest round: `dest_ready` assumes time moves forward.
    last_poll: Time,
    /// Scratch: destinations eligible for PIM this round.
    pim_dests: Vec<usize>,
    /// Scratch: matched pairs from the last PIM run.
    pairs_scratch: Vec<(usize, usize)>,
}

/// Sentinel for "destination not in the active list".
const NOT_ACTIVE: u32 = u32::MAX;

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("ports", &self.config.ports)
            .field("pending", &self.pending_messages())
            .field("grants_issued", &self.grants_issued)
            .finish()
    }
}

impl Scheduler {
    /// Creates a scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `config.ports` or `chunk_bytes` is zero.
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(config.ports > 0, "need at least one port");
        assert!(config.chunk_bytes > 0, "chunk size must be positive");
        Scheduler {
            queues: (0..config.ports).map(|_| OrderedList::new()).collect(),
            src_busy_until: vec![Time::ZERO; config.ports],
            dst_busy_until: vec![Time::ZERO; config.ports],
            pim: PimRunner::new(config.ports),
            active_dests: Vec::new(),
            dest_active_pos: vec![NOT_ACTIVE; config.ports],
            dest_ready: Vec::new(),
            pending: 0,
            rounds: 0,
            empty_rounds: 0,
            dests_examined: 0,
            last_poll: Time::ZERO,
            pim_dests: Vec::new(),
            pairs_scratch: Vec::new(),
            config,
            grants_issued: 0,
            bytes_granted: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Messages currently queued across all destinations. O(1): a running
    /// counter replaces the former O(ports) sum.
    pub fn pending_messages(&self) -> usize {
        self.pending
    }

    /// Total grants issued so far.
    pub fn grants_issued(&self) -> u64 {
        self.grants_issued
    }

    /// Total bytes granted so far.
    pub fn bytes_granted(&self) -> u64 {
        self.bytes_granted
    }

    /// Scheduling rounds run so far ([`Scheduler::poll`] calls).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Rounds so far that issued no grant.
    pub fn empty_rounds(&self) -> u64 {
        self.empty_rounds
    }

    /// Destinations handed to PIM so far, summed over rounds: what the
    /// rounds cost beyond one comparison per active destination.
    pub fn dests_examined(&self) -> u64 {
        self.dests_examined
    }

    /// Whether a port's TX (source role) is free at `now`.
    pub fn src_port_free(&self, port: u16, now: Time) -> bool {
        self.src_busy_until[port as usize] <= now
    }

    /// Whether a port's RX (destination role) is free at `now`.
    pub fn dst_port_free(&self, port: u16, now: Time) -> bool {
        self.dst_busy_until[port as usize] <= now
    }

    fn priority_key(&self, msg: &QueuedMsg) -> u64 {
        match self.config.policy {
            Policy::Fcfs => msg.notified_at.as_ps(),
            Policy::Srpt => msg.remaining as u64,
        }
    }

    /// Inserts into a destination queue, keeping the active-dest list and
    /// the pending counter in sync.
    fn queue_insert(&mut self, dest: usize, key: u64, msg: QueuedMsg) {
        if self.queues[dest].is_empty() {
            debug_assert_eq!(self.dest_active_pos[dest], NOT_ACTIVE);
            self.dest_active_pos[dest] = self.active_dests.len() as u32;
            self.active_dests.push(dest as u32);
            self.dest_ready.push(Time::ZERO);
        }
        self.queues[dest].insert(key, msg);
        self.row_changed(dest);
        self.pending += 1;
    }

    /// Marks a destination's queue as changed outside a round: if it
    /// still has demand, the next round must look.
    fn row_changed(&mut self, dest: usize) {
        if let Some(ready) = self.dest_ready.get_mut(self.dest_active_pos[dest] as usize) {
            *ready = Time::ZERO;
        }
    }

    /// Drops a destination from the active list once its queue drains.
    fn deactivate_if_empty(&mut self, dest: usize) {
        if !self.queues[dest].is_empty() {
            return;
        }
        let pos = self.dest_active_pos[dest] as usize;
        debug_assert_eq!(self.active_dests[pos], dest as u32);
        self.active_dests.swap_remove(pos);
        self.dest_ready.swap_remove(pos);
        if let Some(&moved) = self.active_dests.get(pos) {
            self.dest_active_pos[moved as usize] = pos as u32;
        }
        self.dest_active_pos[dest] = NOT_ACTIVE;
    }

    /// Registers demand for a message (§3.1.1, "Notification"), keyed
    /// by `now` under FCFS and by its size under SRPT. Messages of one
    /// pair are granted by their own priorities, so a caller that needs
    /// them in order queues the next only once the last is granted in
    /// full ([`Grant::is_final`]) or cancelled.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range ports and zero-size messages.
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
        self.queue_insert(n.dest as usize, key, msg);
        Ok(())
    }

    /// The earliest instant a message just accepted by
    /// [`Scheduler::notify`] for `(src, dest)` can be granted: when both
    /// its ports are free, `max(src_busy_until, dst_busy_until)` (at or
    /// before the notification if they already are).
    ///
    /// A driver that polls here after a notification, instead of at the
    /// notification's own instant, sees the same grants: the rounds in
    /// between would have found the new edge ineligible, and with it
    /// every edge the last round's wake-up does not cover.
    pub fn grantable_at(&self, src: u16, dest: u16) -> Time {
        self.src_busy_until[src as usize].max(self.dst_busy_until[dest as usize])
    }

    /// Withdraws a message's *ungranted* remainder (sender-side demand
    /// revocation).
    ///
    /// This is the recovery primitive multi-switch fabrics need: when a
    /// flow is rerouted off a dead path, its stale notification would
    /// otherwise keep drawing grants and draining the whole remainder
    /// into the failure as blackholed bandwidth. Cancelling removes the
    /// message from its destination's notification queue (possibly
    /// mid-message, after some chunks were granted) and leaves
    /// already-granted chunks untouched (they are in flight; the caller
    /// models their fate).
    ///
    /// Returns [`CancelOutcome::NotQueued`] when no matching message is
    /// queued — it was fully granted or never notified.
    pub fn cancel(&mut self, src: u16, dest: u16, msg_id: u8) -> CancelOutcome {
        if src as usize >= self.config.ports || dest as usize >= self.config.ports {
            return CancelOutcome::NotQueued;
        }
        let d = dest as usize;
        let Some((_, msg)) = self.queues[d].remove_first(|m| m.src == src && m.msg_id == msg_id)
        else {
            return CancelOutcome::NotQueued;
        };
        self.pending -= 1;
        self.deactivate_if_empty(d);
        self.row_changed(d);
        CancelOutcome::Cancelled {
            remaining: msg.remaining,
        }
    }

    /// Runs one scheduling round at time `now` (§3.1.1, "Grant").
    pub fn poll(&mut self, now: Time) -> PollResult {
        let mut out = PollResult::default();
        self.poll_into(now, &mut out);
        out
    }

    /// [`Scheduler::poll`] into a caller-owned result, reusing its grant
    /// buffer — the allocation-free form the simulator hot loop uses.
    ///
    /// Work is proportional to the demand that can have *changed*: one
    /// comparison per destination with queued notifications, PIM and a
    /// row walk only for those whose remembered instant (`dest_ready`)
    /// has come — mirroring the hardware, which only touches ports with
    /// queued notifications (§3.1.2). `now` must not precede an earlier
    /// round's.
    pub fn poll_into(&mut self, now: Time, out: &mut PollResult) {
        debug_assert!(now >= self.last_poll, "rounds must not go back in time");
        self.last_poll = now;
        out.grants.clear();

        // Destinations eligible this round: live demand, a remembered
        // instant that has come, and a free RX port. Sorted so the
        // matching is bit-identical to a dense scan. The others seed the
        // wake-up with the instant they are waiting for.
        let mut wake = Time::MAX;
        self.pim_dests.clear();
        for (ready, &d) in self.dest_ready.iter_mut().zip(&self.active_dests) {
            if *ready <= now {
                let busy = self.dst_busy_until[d as usize];
                if busy <= now {
                    self.pim_dests.push(d as usize);
                    continue;
                }
                // Mid-chunk: nothing queued here is eligible before then.
                *ready = busy;
            }
            wake = wake.min(*ready);
        }
        self.pim_dests.sort_unstable();
        self.dests_examined += self.pim_dests.len() as u64;

        let src_busy_until = &self.src_busy_until;
        let outcome = self.pim.run_sparse(
            &self.pim_dests,
            &self.queues,
            |s| src_busy_until[s] <= now,
            &mut self.pairs_scratch,
        );

        let pairs = std::mem::take(&mut self.pairs_scratch);
        out.grants.reserve(pairs.len());
        for &(s, d) in &pairs {
            // Take the highest-priority message s->d from d's queue.
            let (_, mut msg) = self.queues[d]
                .remove_first(|m| m.src as usize == s)
                .expect("PIM matched an edge that must exist in the queue");
            self.pending -= 1;
            let l = msg.remaining.min(self.config.chunk_bytes);
            msg.remaining -= l;
            let remaining_after = msg.remaining;
            if msg.remaining > 0 {
                let key = self.priority_key(&msg);
                self.queues[d].insert(key, msg);
                self.pending += 1;
            }
            self.deactivate_if_empty(d);
            // Busy for the chunk's transmission time (step 7).
            let busy = self.config.link.tx_time_bytes(l as u64);
            let until = now + busy;
            self.src_busy_until[s] = until;
            self.dst_busy_until[d] = until;
            self.grants_issued += 1;
            self.bytes_granted += l as u64;
            out.grants.push(Grant {
                src: s as u16,
                dest: d as u16,
                msg_id: msg.msg_id,
                chunk_bytes: l,
                remaining_after,
                issued_at: now,
            });
        }
        self.pairs_scratch = pairs;

        // Only the destinations PIM saw can have a new instant.
        for &d in &self.pim_dests {
            let pos = self.dest_active_pos[d];
            if pos == NOT_ACTIVE {
                continue; // queue drained
            }
            let busy = self.dst_busy_until[d];
            let ready = if busy > now {
                busy // granted: what is still queued waits for this chunk
            } else {
                // PIM read this whole queue and found every source busy
                // or granted to another destination.
                self.queues[d]
                    .iter()
                    .map(|(_, m)| self.src_busy_until[m.src as usize])
                    .min()
                    .expect("an active destination has a queued message")
            };
            self.dest_ready[pos as usize] = ready;
            wake = wake.min(ready);
        }

        self.rounds += 1;
        self.empty_rounds += u64::from(out.grants.is_empty());
        out.next_wakeup = if self.pending == 0 {
            None
        } else {
            debug_assert!(wake > now && wake < Time::MAX);
            Some(wake)
        };
        out.pim_iterations = outcome.iterations;
        out.sched_latency = Duration::from_ps(outcome.cycles * self.config.clock.as_ps());
    }

    /// Test hook: checks `dest_ready` against the queues and busy timers
    /// alone, right after a round at `now`. Every stored instant must be
    /// the one a from-scratch look computes, and no destination a round
    /// at `now` would skip may hold an eligible entry (destination free
    /// and some queued source free).
    #[doc(hidden)]
    pub fn audit_ready(&self, now: Time) -> Result<(), String> {
        for (&stored, &d) in self.dest_ready.iter().zip(&self.active_dests) {
            let queue = &self.queues[d as usize];
            let dst_busy = self.dst_busy_until[d as usize];
            let earliest_src = queue
                .iter()
                .map(|(_, m)| self.src_busy_until[m.src as usize])
                .min()
                .ok_or(format!("destination {d} is active with an empty queue"))?;
            if stored > now && dst_busy <= now && earliest_src <= now {
                return Err(format!(
                    "destination {d} is skipped until {stored} but eligible at {now}"
                ));
            }
            let fresh = if dst_busy > now {
                dst_busy
            } else {
                earliest_src
            };
            if stored != fresh {
                return Err(format!(
                    "destination {d} stores {stored}, a fresh look at {now} gives {fresh}"
                ));
            }
        }
        Ok(())
    }

    /// The average-case matching latency for this configuration (§3.1.3).
    pub fn nominal_sched_latency(&self) -> Duration {
        pim::scheduling_latency(self.config.ports, self.config.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(ports: usize, chunk: u32, policy: Policy) -> Scheduler {
        Scheduler::new(SchedulerConfig {
            ports,
            chunk_bytes: chunk,
            link: Bandwidth::from_gbps(100),
            policy,
            clock: crate::ASIC_CLOCK,
        })
    }

    #[test]
    fn single_message_single_chunk() {
        let mut s = sched(4, 256, Policy::Srpt);
        s.notify(Time::ZERO, Notification::new(0, 1, 7, 200))
            .unwrap();
        let r = s.poll(Time::ZERO);
        assert_eq!(r.grants.len(), 1);
        let g = r.grants[0];
        assert_eq!((g.src, g.dest, g.msg_id), (0, 1, 7));
        assert_eq!(g.chunk_bytes, 200);
        assert!(g.is_final());
        assert_eq!(s.pending_messages(), 0);
    }

    #[test]
    fn multi_chunk_message_conserves_bytes() {
        let mut s = sched(4, 256, Policy::Srpt);
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 1000))
            .unwrap();
        let mut granted = 0u64;
        let mut now = Time::ZERO;
        let mut polls = 0;
        while s.pending_messages() > 0 || granted < 1000 {
            let r = s.poll(now);
            for g in &r.grants {
                granted += g.chunk_bytes as u64;
                assert!(g.chunk_bytes <= 256);
            }
            match r.next_wakeup {
                Some(t) => now = t,
                None => break,
            }
            polls += 1;
            assert!(polls < 100, "did not converge");
        }
        assert_eq!(granted, 1000);
        assert_eq!(s.bytes_granted(), 1000);
        // 1000 B in 256 B chunks = 4 grants.
        assert_eq!(s.grants_issued(), 4);
    }

    #[test]
    fn busy_release_is_back_to_back() {
        // Grants for consecutive chunks must be spaced exactly l/B apart.
        let mut s = sched(2, 256, Policy::Fcfs);
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 512))
            .unwrap();
        let r1 = s.poll(Time::ZERO);
        assert_eq!(r1.grants.len(), 1);
        let gap = s.config().link.tx_time_bytes(256);
        assert_eq!(r1.next_wakeup, Some(Time::ZERO + gap));
        // Polling too early yields nothing.
        let r_early = s.poll(Time::ZERO + Duration::from_ps(1));
        assert!(r_early.grants.is_empty());
        let r2 = s.poll(Time::ZERO + gap);
        assert_eq!(r2.grants.len(), 1);
        assert_eq!(r2.grants[0].issued_at, Time::ZERO + gap);
    }

    #[test]
    fn wakeup_skips_expiries_nothing_queued_waits_for() {
        // 0->1 is a single short chunk; 2->3 keeps a remainder queued.
        // Ports 0 and 1 free first, but no queued message waits on
        // either: the next useful round is when port 3 frees.
        let mut s = sched(4, 256, Policy::Fcfs);
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 64))
            .unwrap();
        s.notify(Time::ZERO, Notification::new(2, 3, 0, 512))
            .unwrap();
        let r = s.poll(Time::ZERO);
        assert_eq!(r.grants.len(), 2);
        let long = s.config().link.tx_time_bytes(256);
        assert_eq!(r.next_wakeup, Some(Time::ZERO + long));
        assert_eq!((s.rounds(), s.empty_rounds()), (1, 0));
    }

    #[test]
    fn free_destination_waits_for_its_earliest_source() {
        // Source 0 sends 256 B to port 1 and has a message queued for
        // port 2, whose own port is free: port 2 can be granted only when
        // source 0 frees, and that is the wake-up.
        let mut s = sched(4, 256, Policy::Fcfs);
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 256))
            .unwrap();
        s.notify(Time::from_ns(1), Notification::new(0, 2, 0, 64))
            .unwrap();
        let r = s.poll(Time::from_ns(1));
        assert_eq!(r.grants.len(), 1);
        assert_eq!(r.grants[0].dest, 1);
        let frees = Time::from_ns(1) + s.config().link.tx_time_bytes(256);
        assert_eq!(r.next_wakeup, Some(frees));
        assert_eq!(s.dests_examined(), 2);
        // Rounds before that instant are empty and change nothing — and
        // port 2, remembered as waiting for source 0, is handed to PIM
        // once, not once per round.
        for ns in 2..5 {
            let early = s.poll(Time::from_ns(ns));
            assert!(early.grants.is_empty());
            assert_eq!(early.next_wakeup, Some(frees));
            s.audit_ready(Time::from_ns(ns)).unwrap();
        }
        assert_eq!((s.rounds(), s.empty_rounds()), (4, 3));
        assert_eq!(s.dests_examined(), 2, "three empty rounds, no row walk");
        assert_eq!(s.poll(frees).grants[0].dest, 2);
        assert_eq!(s.dests_examined(), 3);
    }

    #[test]
    fn notification_behind_a_busy_source_is_grantable_when_it_frees() {
        let mut s = sched(4, 256, Policy::Fcfs);
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 256))
            .unwrap();
        assert_eq!(s.grantable_at(0, 1), Time::ZERO, "free ports");
        assert_eq!(s.poll(Time::ZERO).grants.len(), 1);
        let frees = Time::ZERO + s.config().link.tx_time_bytes(256);
        s.notify(Time::from_ns(1), Notification::new(0, 2, 0, 64))
            .unwrap();
        assert_eq!(s.grantable_at(0, 2), frees);
        let r = s.poll(frees);
        assert_eq!((r.grants.len(), r.grants[0].dest), (1, 2));
    }

    #[test]
    fn notification_to_a_busy_destination_is_grantable_when_it_frees() {
        let mut s = sched(4, 256, Policy::Fcfs);
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 256))
            .unwrap();
        assert_eq!(s.poll(Time::ZERO).grants.len(), 1);
        let frees = Time::ZERO + s.config().link.tx_time_bytes(256);
        s.notify(Time::from_ns(1), Notification::new(2, 1, 0, 64))
            .unwrap();
        assert_eq!(s.grantable_at(2, 1), frees);
        let r = s.poll(frees);
        assert_eq!((r.grants.len(), r.grants[0].src), (1, 2));
    }

    #[test]
    fn notification_with_both_ports_busy_waits_for_the_later() {
        // 0->1 holds its ports for 64 B, 2->3 for 256 B; the crossed
        // pairs wait for the 256 B chunk whichever side it is on.
        let mut s = sched(4, 256, Policy::Fcfs);
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 64))
            .unwrap();
        s.notify(Time::ZERO, Notification::new(2, 3, 0, 256))
            .unwrap();
        assert_eq!(s.poll(Time::ZERO).grants.len(), 2);
        let long = Time::ZERO + s.config().link.tx_time_bytes(256);
        for (src, dst) in [(0, 3), (2, 1)] {
            s.notify(Time::from_ns(1), Notification::new(src, dst, 0, 64))
                .unwrap();
            assert_eq!(s.grantable_at(src, dst), long, "{src}->{dst}");
        }
        assert_eq!(s.poll(long).grants.len(), 2);
    }

    #[test]
    fn late_round_examines_exactly_the_destinations_whose_instant_passed() {
        // Sources 0, 1, 2 start chunks of 64, 128 and 256 B to ports 4,
        // 5, 6 (FCFS ties go to the lower port) and leave ports 7, 8, 9
        // waiting for them, each until a different instant.
        let mut s = sched(10, 256, Policy::Fcfs);
        for (src, size) in [(0u16, 64), (1, 128), (2, 256)] {
            s.notify(Time::ZERO, Notification::new(src, 4 + src, 0, size))
                .unwrap();
            s.notify(Time::ZERO, Notification::new(src, 7 + src, 0, 64))
                .unwrap();
        }
        let r = s.poll(Time::ZERO);
        assert_eq!(r.grants.len(), 3);
        let link = s.config().link;
        assert_eq!(r.next_wakeup, Some(Time::ZERO + link.tx_time_bytes(64)));
        assert_eq!(s.dests_examined(), 6);
        // A round after the first two instants and before the third.
        let late = Time::from_ns(12);
        let r = s.poll(late);
        let dests: Vec<u16> = r.grants.iter().map(|g| g.dest).collect();
        assert_eq!(dests, [7, 8]);
        assert_eq!(s.dests_examined(), 8, "port 9 was not looked at");
        assert_eq!(r.next_wakeup, Some(Time::ZERO + link.tx_time_bytes(256)));
        s.audit_ready(late).unwrap();
    }

    #[test]
    fn no_receiver_sharing() {
        // Two sources to one destination: only one granted per round.
        let mut s = sched(4, 64, Policy::Fcfs);
        s.notify(Time::from_ns(1), Notification::new(0, 2, 0, 64))
            .unwrap();
        s.notify(Time::from_ns(2), Notification::new(1, 2, 0, 64))
            .unwrap();
        let r = s.poll(Time::from_ns(2));
        assert_eq!(r.grants.len(), 1);
        // FCFS: the earlier notification wins.
        assert_eq!(r.grants[0].src, 0);
    }

    #[test]
    fn srpt_prefers_short_messages() {
        let mut s = sched(4, 64, Policy::Srpt);
        s.notify(Time::ZERO, Notification::new(0, 2, 0, 4096))
            .unwrap();
        s.notify(Time::ZERO, Notification::new(1, 2, 0, 64))
            .unwrap();
        let r = s.poll(Time::ZERO);
        assert_eq!(r.grants.len(), 1);
        assert_eq!(r.grants[0].src, 1, "SRPT must pick the 64 B message");
    }

    #[test]
    fn fcfs_is_arrival_ordered() {
        let mut s = sched(4, 64, Policy::Fcfs);
        s.notify(Time::from_ns(5), Notification::new(0, 2, 0, 4096))
            .unwrap();
        s.notify(Time::from_ns(9), Notification::new(1, 2, 0, 64))
            .unwrap();
        let r = s.poll(Time::from_ns(10));
        assert_eq!(r.grants[0].src, 0, "FCFS must pick the earlier arrival");
    }

    #[test]
    fn parallel_pairs_granted_together() {
        let mut s = sched(4, 256, Policy::Srpt);
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 100))
            .unwrap();
        s.notify(Time::ZERO, Notification::new(2, 3, 0, 100))
            .unwrap();
        let r = s.poll(Time::ZERO);
        assert_eq!(r.grants.len(), 2, "disjoint pairs must match in parallel");
    }

    // The scheduler queues one message per pair, so a pair's order and its
    // X bound are kept by the caller that feeds it: `edm_core`'s
    // `SwitchDomain`. The tests below pin those rules there. `edm_core`
    // links the library build of this crate, so the scheduler types its
    // API takes are named through `edm_core::sim`.
    use edm_core::sim::{DomainCancel, DomainGrant, DomainOffer, SwitchDomain};

    fn domain(policy: edm_core::sim::Policy) -> SwitchDomain {
        SwitchDomain::new(edm_core::sim::SchedulerConfig {
            policy,
            ..edm_core::sim::SchedulerConfig::default_for_ports(4)
        })
    }

    fn srpt_domain() -> SwitchDomain {
        domain(edm_core::sim::Policy::Srpt)
    }

    /// An offer of `bytes` on (src, dst) under X = `limit`.
    fn offer(src: u16, dst: u16, bytes: u32, limit: usize, token: u64) -> DomainOffer {
        DomainOffer {
            src,
            dst,
            bytes,
            limit,
            token,
        }
    }

    /// Every grant of the rounds from `at` on, following each round's
    /// wake-up, with nothing delivered.
    fn drain(dom: &mut SwitchDomain, at: Time) -> Vec<DomainGrant> {
        let mut grants = Vec::new();
        let mut next = Some(at);
        while let Some(now) = next {
            let round = dom.poll(now).expect("the live wake-up");
            grants.extend_from_slice(round.grants);
            next = round.next_poll;
        }
        grants
    }

    /// The tokens of the grants on (src, dst), in grant order.
    fn pair_tokens(grants: &[DomainGrant], src: u16, dst: u16) -> Vec<u64> {
        grants
            .iter()
            .filter(|g| (g.src, g.dst) == (src, dst))
            .map(|g| g.token)
            .collect()
    }

    #[test]
    fn pair_limit_enforced() {
        // X = 3: until a completion frees a slot, the fourth offer of a
        // pair waits outside the scheduler. Other pairs keep their own
        // count.
        let mut dom = srpt_domain();
        for token in 0..4 {
            dom.offer(Time::ZERO, offer(0, 1, 64, 3, token));
        }
        dom.offer(Time::ZERO, offer(0, 2, 64, 3, 10));
        let grants = drain(&mut dom, Time::ZERO);
        assert_eq!(pair_tokens(&grants, 0, 1), [0, 1, 2]);
        assert_eq!(pair_tokens(&grants, 0, 2), [10]);
        assert_eq!(dom.scheduler().pending_messages(), 0, "the fourth waits");
    }

    #[test]
    fn pair_slot_freed_on_completion() {
        let mut dom = srpt_domain();
        for token in 0..4 {
            dom.offer(Time::ZERO, offer(0, 1, 64, 3, token));
        }
        let grants = drain(&mut dom, Time::ZERO);
        assert_eq!(grants.len(), 3);
        // The first message's one chunk lands: it completes, its X slot
        // announces the waiter, and that is worth a round.
        let (g, done) = (grants[0], Time::from_ns(100));
        let mut completed = Vec::new();
        let poll = dom.deliver(done, g.slot, g.chunk_bytes, |token, _| {
            completed.push(token)
        });
        assert_eq!(completed, [0]);
        assert_eq!(poll, Some(done));
        assert_eq!(dom.poll(done).expect("live").grants[0].token, 3);
    }

    #[test]
    fn per_pair_limit_override() {
        // Each offer carries its pair's X: a trunk pair provisioned with
        // X = 5 gets past the X = 3 an access pair keeps.
        let mut dom = srpt_domain();
        for token in 0..6 {
            dom.offer(Time::ZERO, offer(0, 1, 64, 5, token));
        }
        for token in 10..14 {
            dom.offer(Time::ZERO, offer(2, 3, 64, 3, token));
        }
        let grants = drain(&mut dom, Time::ZERO);
        assert_eq!(pair_tokens(&grants, 0, 1), [0, 1, 2, 3, 4]);
        assert_eq!(pair_tokens(&grants, 2, 3), [10, 11, 12]);
    }

    #[test]
    #[should_panic(expected = "(X) must be at least 1")]
    fn zero_pair_limit_is_rejected_at_construction() {
        // X is not a scheduler setting: a run rejects X = 0 as it builds
        // its switch, before it pulls the first flow.
        let mut proto = edm_core::sim::EdmProtocol {
            max_active_per_pair: 0,
            ..Default::default()
        };
        let cluster = edm_core::sim::ClusterConfig {
            nodes: 4,
            ..Default::default()
        };
        proto.simulate_streamed(&cluster, std::iter::empty(), |_| {});
    }

    #[test]
    #[should_panic(expected = "(X) must be at least 1")]
    fn zero_pair_limit_override_is_rejected() {
        // With X = 0 the offer would wait for a completion that cannot
        // come.
        srpt_domain().offer(Time::ZERO, offer(0, 1, 64, 0, 1));
    }

    #[test]
    fn cancel_promotes_the_pair_waiter() {
        // X = 2: the second message is announced behind the head.
        // Withdrawing the head puts it in the scheduler, and the round
        // the head asked for grants it.
        let mut dom = domain(edm_core::sim::Policy::Fcfs);
        assert_eq!(
            dom.offer(Time::ZERO, offer(0, 1, 64, 2, 0)),
            Some(Time::ZERO)
        );
        assert_eq!(dom.offer(Time::ZERO, offer(0, 1, 64, 2, 1)), None);
        let quiet = DomainCancel::Withdrawn { poll: None };
        assert_eq!(dom.cancel(Time::ZERO, 0, 1, 0), quiet);
        assert_eq!(dom.scheduler().pending_messages(), 1);
        assert_eq!(pair_tokens(&drain(&mut dom, Time::ZERO), 0, 1), [1]);
    }

    #[test]
    fn cancel_that_promotes_a_waiter_reopens_its_destination() {
        // FCFS, X = 2. Port 1 receives a 256 B chunk from port 3 until
        // `frees`; meanwhile 0->1 queues a head (token 1) and a message
        // announced behind it (token 2), and 2->1 one message (token 3)
        // after both. Withdrawing the head puts token 2 in the scheduler
        // under the instant it was announced, so it still goes before
        // token 3, and asks for no round: the head's wake-up covers it.
        let mut dom = domain(edm_core::sim::Policy::Fcfs);
        let t = Time::from_ns;
        assert_eq!(dom.offer(t(0), offer(3, 1, 256, 2, 0)), Some(t(0)));
        assert_eq!(dom.poll(t(0)).expect("live").grants.len(), 1);
        let frees = t(0) + dom.scheduler().config().link.tx_time_bytes(256);
        assert_eq!(dom.offer(t(1), offer(0, 1, 64, 2, 1)), Some(frees));
        assert_eq!(dom.offer(t(2), offer(0, 1, 64, 2, 2)), None);
        assert_eq!(dom.offer(t(3), offer(2, 1, 64, 2, 3)), None);
        let quiet = DomainCancel::Withdrawn { poll: None };
        assert_eq!(dom.cancel(t(4), 0, 1, 1), quiet);
        assert_eq!(dom.scheduler().pending_messages(), 2, "tokens 2 and 3");
        // One destination examined per round: port 1 was skipped until
        // it freed, and the changed row was looked at once, then.
        let round = dom.poll(frees).expect("live");
        let tokens: Vec<u64> = round.grants.iter().map(|g| g.token).collect();
        assert_eq!(tokens, [2]);
        assert_eq!(dom.rounds(), (2, 0, 2));
    }

    #[test]
    fn validation_errors() {
        let mut s = sched(4, 256, Policy::Srpt);
        assert_eq!(
            s.notify(Time::ZERO, Notification::new(4, 0, 0, 1)),
            Err(NotifyError::BadPort { port: 4 })
        );
        assert_eq!(
            s.notify(Time::ZERO, Notification::new(0, 9, 0, 1)),
            Err(NotifyError::BadPort { port: 9 })
        );
        assert_eq!(
            s.notify(Time::ZERO, Notification::new(0, 1, 0, 0)),
            Err(NotifyError::EmptyMessage)
        );
    }

    #[test]
    fn cancel_withdraws_queued_remainder() {
        let mut s = sched(4, 256, Policy::Srpt);
        s.notify(Time::ZERO, Notification::new(0, 1, 7, 1000))
            .unwrap();
        // One chunk granted, 744 B remain queued.
        let r = s.poll(Time::ZERO);
        assert_eq!(r.grants.len(), 1);
        assert_eq!(
            s.cancel(0, 1, 7),
            CancelOutcome::Cancelled { remaining: 744 }
        );
        assert_eq!(s.pending_messages(), 0);
        // Cancelling again finds nothing.
        assert_eq!(s.cancel(0, 1, 7), CancelOutcome::NotQueued);
    }

    #[test]
    fn a_free_source_behind_sixty_five_busy_ones_is_granted_at_once() {
        // 66 sources queue 64 B for one hot port, in FCFS order; the
        // first 65 are mid-chunk, each sending a 1 MiB private transfer.
        // PIM reads the whole queue, so the 66th is granted at once and
        // the wake-up is exact: when the hot port's chunk ends.
        const MIB: u32 = 1 << 20;
        let hot = 132u16;
        let mut s = sched(hot as usize + 1, MIB, Policy::Fcfs);
        for src in 0..65u16 {
            s.notify(Time::ZERO, Notification::new(src, 66 + src, 0, MIB))
                .unwrap();
        }
        assert_eq!(s.poll(Time::ZERO).grants.len(), 65);
        for src in 0..66u16 {
            s.notify(
                Time::from_ns(1 + src as u64),
                Notification::new(src, hot, 0, 64),
            )
            .unwrap();
        }
        let now = Time::from_ns(100);
        let r = s.poll(now);
        let pairs: Vec<(u16, u16)> = r.grants.iter().map(|g| (g.src, g.dest)).collect();
        assert_eq!(pairs, [(65, hot)]);
        let link = s.config().link;
        assert_eq!(r.next_wakeup, Some(now + link.tx_time_bytes(64)));
        s.audit_ready(now).unwrap();
    }

    #[test]
    fn cancel_rejects_unknown_targets() {
        let mut s = sched(4, 256, Policy::Srpt);
        assert_eq!(s.cancel(9, 0, 0), CancelOutcome::NotQueued);
        assert_eq!(s.cancel(0, 1, 3), CancelOutcome::NotQueued);
        // Fully granted message: nothing left to withdraw.
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 64))
            .unwrap();
        let r = s.poll(Time::ZERO);
        assert!(r.grants[0].is_final());
        assert_eq!(s.cancel(0, 1, 0), CancelOutcome::NotQueued);
    }

    #[test]
    fn nominal_latency_reported() {
        let s = sched(512, 256, Policy::Srpt);
        assert!((s.nominal_sched_latency().as_ns_f64() - 9.0).abs() < 0.1);
    }

    #[test]
    fn poll_reports_pim_cost() {
        let mut s = sched(8, 256, Policy::Srpt);
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 64))
            .unwrap();
        let r = s.poll(Time::ZERO);
        assert!(r.pim_iterations >= 1);
        assert_eq!(
            r.sched_latency.as_ps(),
            r.pim_iterations as u64 * 3 * crate::ASIC_CLOCK.as_ps()
        );
    }
}
