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
//!    ([`PollResult::next_wakeup`]): like the hardware, which only acts
//!    on ports holding a queued notification (§3.1.2), a driver never
//!    has to run a round that cannot grant — and a round visits only the
//!    destinations that can have changed since it last looked at them
//!    (`dest_ready`).
//! 3. A granted port pair is *busy* for exactly `chunk/B` — the paper's
//!    step (7): releasing after the chunk's transmission time (not its
//!    arrival) keeps the pipe full despite propagation delay.
//! 4. When a message's remaining bytes reach zero it leaves the queue.

use crate::ordered_list::OrderedList;
use crate::pim::{self, PimConfig, PimRunner};
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

/// A demand notification: source port, destination port, message id, size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Notification {
    /// Source switch port.
    pub src: u16,
    /// Destination switch port.
    pub dest: u16,
    /// Message id (unique within the source–destination pair).
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
    /// Message id of the granted message.
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
    /// The source–destination pair already has X active notifications
    /// (§3.1.2: senders rate-limit to X per destination).
    PairLimitReached {
        /// The configured X.
        limit: usize,
    },
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
            NotifyError::PairLimitReached { limit } => {
                write!(f, "pair already has {limit} active notifications")
            }
            NotifyError::BadPort { port } => write!(f, "port {port} out of range"),
            NotifyError::EmptyMessage => write!(f, "zero-byte message"),
        }
    }
}

impl std::error::Error for NotifyError {}

/// Outcome of a [`Scheduler::cancel`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The message's ungranted remainder was withdrawn (from the
    /// notification queue or the pair's waiting FIFO) and its admission
    /// slot freed.
    Cancelled {
        /// Bytes that will now never be granted.
        remaining: u32,
        /// Whether the withdrawal may have moved a queued message into
        /// PIM's view: the destination's queue was deeper than the row
        /// PIM snapshots, so an entry hidden behind the withdrawn one can
        /// be eligible right now. The one case where *removing* demand
        /// makes a round worth running before the last
        /// [`PollResult::next_wakeup`].
        uncovered: bool,
    },
    /// No queued or waiting message matched — it was already fully
    /// granted (or never notified).
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
    /// X — max active notifications per source–destination pair (§3.1.2;
    /// the evaluation found X=3 works best).
    pub max_active_per_pair: usize,
    /// Scheduler pipeline clock period (ASIC: 1/3 ns).
    pub clock: Duration,
}

impl SchedulerConfig {
    /// The evaluation-section defaults for an `n`-port switch:
    /// 100 Gb/s links, 256 B chunks, SRPT, X=3, 3 GHz clock.
    pub fn default_for_ports(n: usize) -> Self {
        SchedulerConfig {
            ports: n,
            chunk_bytes: 256,
            link: Bandwidth::from_gbps(100),
            policy: Policy::Srpt,
            max_active_per_pair: 3,
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
    /// among the sources in its row — computed when PIM last walked that
    /// row and remembered until the row changes, so a round folds one
    /// cached instant per destination it does not hand to PIM instead of
    /// walking the row again. Rounds between `now`
    /// and this instant could not grant, and an empty round has no side
    /// effect (the matcher is priority-driven: no pointers, no RNG), so a
    /// driver that polls only at wake-ups and after each accepted
    /// [`Scheduler::notify`] sees exactly the grants of one that polls at
    /// every busy expiry.
    ///
    /// When the round may have left *eligible* demand unmatched — PIM hit
    /// its iteration cap, or a walked row is deeper than PIM's snapshot —
    /// this is the earliest busy expiry of any port instead.
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
    /// Per-pair admission state, packed into one word per pair: bits
    /// 0..32 the active-notification count (X bound), bit 32 whether the
    /// pair's head message is in a notification queue (in-order delivery,
    /// §3.1.1 property 5). `vec![0u64]` stays a calloc, so untouched
    /// pairs cost nothing at any port count.
    pair_adm: Vec<u64>,
    /// Per-pair waiting-FIFO endpoints, packed head (low 32) / tail
    /// (high 32), both wait-slab index + 1 with 0 = empty.
    pair_wait: Vec<u64>,
    /// Same-pair messages waiting behind their head, linked per pair.
    wait_slab: Vec<WaitNode>,
    /// Free-list head into `wait_slab` (index + 1; 0 = none).
    wait_free: u32,
    pim: PimRunner,
    /// Total grants issued (stats).
    grants_issued: u64,
    /// Total bytes granted (stats).
    bytes_granted: u64,
    /// Reusable demand-snapshot buffers (avoids per-poll allocation).
    demand_scratch: Vec<Vec<(u64, usize)>>,
    /// Whether a destination's queue changed since its snapshot was last
    /// rebuilt. Wake-up polls mostly observe unchanged queues, so the
    /// snapshot survives across rounds instead of being re-walked.
    row_dirty: Vec<bool>,
    /// Destinations with a non-empty notification queue, maintained
    /// incrementally so `poll` visits only ports with live demand.
    active_dests: Vec<u32>,
    /// Position of each destination in `active_dests` (`NOT_ACTIVE` when
    /// its queue is empty).
    dest_active_pos: Vec<u32>,
    /// Parallel to `active_dests` (pushed and swap-removed with it): the
    /// earliest instant at which that destination's queue can yield a
    /// grant *if its row does not change*. Its own `dst_busy_until` while
    /// it is mid-chunk; the smallest `src_busy_until` over its row once a
    /// round found it free but every queued source busy; `Time::ZERO`
    /// ("look now") when the row changed since (`queue_insert`, `cancel`)
    /// or is deeper than PIM's snapshot. A round skips every destination
    /// whose instant is still ahead and folds it into the wake-up.
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
    ///   iteration count, for any iteration budget.
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

/// X = 0 admits nothing: every notification would be refused and wait
/// for a completion that cannot come. Rejected where it enters.
const ZERO_PAIR_LIMIT: &str = "max active notifications per pair (X) must be at least 1";

/// Bit 32 of a `pair_adm` word: the pair's head message is queued.
const HEAD_IN_QUEUE: u64 = 1 << 32;

/// A same-pair message waiting behind its pair's queued head.
#[derive(Debug, Clone, Copy)]
struct WaitNode {
    msg: QueuedMsg,
    /// Next waiter of the same pair, or next free slot when on the free
    /// list (slab index + 1; 0 = none).
    next: u32,
}

/// Demand-row depth offered to PIM per destination. The hardware presents
/// the whole queue in parallel; in the software model a deep row only
/// matters when more than this many distinct sources contend for one
/// destination *and* all earlier ones are busy — beyond any realistic
/// matching fallback depth.
const PIM_ROW_DEPTH: usize = 64;

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
    /// Panics if `config.ports`, `chunk_bytes` or `max_active_per_pair`
    /// is zero.
    pub fn new(config: SchedulerConfig) -> Self {
        Scheduler::with_pim(config, PimConfig::for_ports(config.ports))
    }

    /// [`Scheduler::new`] with an explicit matcher configuration, e.g. a
    /// hardware iteration budget ([`PimConfig::max_iterations`]) instead
    /// of iterating to maximality.
    ///
    /// # Panics
    ///
    /// As [`Scheduler::new`], and if `pim.ports` differs from
    /// `config.ports`.
    pub fn with_pim(config: SchedulerConfig, pim: PimConfig) -> Self {
        assert!(config.ports > 0, "need at least one port");
        assert!(config.chunk_bytes > 0, "chunk size must be positive");
        assert!(config.max_active_per_pair > 0, "{ZERO_PAIR_LIMIT}");
        assert_eq!(pim.ports, config.ports, "matcher sized for the switch");
        Scheduler {
            queues: (0..config.ports).map(|_| OrderedList::new()).collect(),
            src_busy_until: vec![Time::ZERO; config.ports],
            dst_busy_until: vec![Time::ZERO; config.ports],
            pair_adm: vec![0; config.ports * config.ports],
            pair_wait: vec![0; config.ports * config.ports],
            wait_slab: Vec::new(),
            wait_free: 0,
            pim: PimRunner::new(pim),
            demand_scratch: (0..config.ports).map(|_| Vec::new()).collect(),
            row_dirty: vec![false; config.ports],
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

    /// Active notifications for a (src, dest) pair.
    pub fn active_for_pair(&self, src: u16, dest: u16) -> usize {
        (self.pair_adm[self.pair_idx(src, dest)] as u32) as usize
    }

    /// Whether a port's TX (source role) is free at `now`.
    pub fn src_port_free(&self, port: u16, now: Time) -> bool {
        self.src_busy_until[port as usize] <= now
    }

    /// Whether a port's RX (destination role) is free at `now`.
    pub fn dst_port_free(&self, port: u16, now: Time) -> bool {
        self.dst_busy_until[port as usize] <= now
    }

    fn pair_idx(&self, src: u16, dest: u16) -> usize {
        src as usize * self.config.ports + dest as usize
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

    /// Marks a destination's row as changed outside a round: its snapshot
    /// is stale and, if it still has demand, the next round must look.
    fn row_changed(&mut self, dest: usize) {
        self.row_dirty[dest] = true;
        if let Some(ready) = self.dest_ready.get_mut(self.dest_active_pos[dest] as usize) {
            *ready = Time::ZERO;
        }
    }

    /// Appends a message to its pair's waiting FIFO.
    fn push_waiting(&mut self, pair: usize, msg: QueuedMsg) {
        let node = WaitNode { msg, next: 0 };
        let slot = if self.wait_free != 0 {
            let i = (self.wait_free - 1) as usize;
            self.wait_free = self.wait_slab[i].next;
            self.wait_slab[i] = node;
            i as u32 + 1
        } else {
            self.wait_slab.push(node);
            self.wait_slab.len() as u32
        };
        let w = self.pair_wait[pair];
        let (head, tail) = (w as u32, (w >> 32) as u32);
        if head == 0 {
            self.pair_wait[pair] = slot as u64 | (slot as u64) << 32;
        } else {
            self.wait_slab[(tail - 1) as usize].next = slot;
            self.pair_wait[pair] = head as u64 | (slot as u64) << 32;
        }
    }

    /// Pops the oldest waiting message of a pair, if any.
    fn pop_waiting(&mut self, pair: usize) -> Option<QueuedMsg> {
        let w = self.pair_wait[pair];
        let head = w as u32;
        if head == 0 {
            return None;
        }
        let i = (head - 1) as usize;
        let node = self.wait_slab[i];
        self.pair_wait[pair] = if node.next == 0 {
            0
        } else {
            node.next as u64 | (w & 0xFFFF_FFFF_0000_0000)
        };
        self.wait_slab[i].next = self.wait_free;
        self.wait_free = head;
        Some(node.msg)
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

    /// Registers demand for a message (§3.1.1, "Notification").
    ///
    /// # Errors
    ///
    /// Rejects out-of-range ports, zero-size messages, and notifications
    /// beyond the per-pair X bound.
    pub fn notify(&mut self, now: Time, n: Notification) -> Result<(), NotifyError> {
        self.notify_with_limit(now, n, self.config.max_active_per_pair)
    }

    /// [`Scheduler::notify`] with an explicit per-pair X bound for *this*
    /// pair, overriding `config.max_active_per_pair`.
    ///
    /// Multi-switch fabrics need this: an inter-switch trunk pair
    /// aggregates many end-to-end flows, so it is provisioned with a
    /// larger notification-queue share than a single host pair (the
    /// queue bound stays X·N entries — the caller picks how X is split).
    ///
    /// # Errors
    ///
    /// Same as [`Scheduler::notify`], with `limit` as the X bound.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero, like [`Scheduler::new`] on a zero X.
    pub fn notify_with_limit(
        &mut self,
        now: Time,
        n: Notification,
        limit: usize,
    ) -> Result<(), NotifyError> {
        assert!(limit > 0, "{ZERO_PAIR_LIMIT}");
        if n.src as usize >= self.config.ports {
            return Err(NotifyError::BadPort { port: n.src });
        }
        if n.dest as usize >= self.config.ports {
            return Err(NotifyError::BadPort { port: n.dest });
        }
        if n.size_bytes == 0 {
            return Err(NotifyError::EmptyMessage);
        }
        let idx = self.pair_idx(n.src, n.dest);
        if (self.pair_adm[idx] as u32) as usize >= limit {
            return Err(NotifyError::PairLimitReached { limit });
        }
        self.pair_adm[idx] += 1;
        let msg = QueuedMsg {
            src: n.src,
            msg_id: n.msg_id,
            remaining: n.size_bytes,
            notified_at: now,
        };
        if self.pair_adm[idx] & HEAD_IN_QUEUE != 0 {
            // In-order within a pair: wait behind the current head.
            self.push_waiting(idx, msg);
        } else {
            self.pair_adm[idx] |= HEAD_IN_QUEUE;
            let key = self.priority_key(&msg);
            self.queue_insert(n.dest as usize, key, msg);
        }
        Ok(())
    }

    /// Withdraws a message's *ungranted* remainder (sender-side demand
    /// revocation).
    ///
    /// This is the recovery primitive multi-switch fabrics need: when a
    /// flow is rerouted off a dead path, its stale notification would
    /// otherwise keep drawing grants and draining the whole remainder
    /// into the failure as blackholed bandwidth. Cancelling removes the
    /// message from wherever it queues — the destination's notification
    /// queue (possibly mid-message, after some chunks were granted) or
    /// the pair's in-order waiting FIFO — frees its admission slot, and
    /// leaves already-granted chunks untouched (they are in flight; the
    /// caller models their fate).
    ///
    /// Returns [`CancelOutcome::NotQueued`] when no matching message is
    /// queued or waiting — it was fully granted or never notified.
    pub fn cancel(&mut self, src: u16, dest: u16, msg_id: u8) -> CancelOutcome {
        if src as usize >= self.config.ports || dest as usize >= self.config.ports {
            return CancelOutcome::NotQueued;
        }
        let idx = self.pair_idx(src, dest);
        let d = dest as usize;
        // Only the pair's head message can be in the notification queue.
        if self.pair_adm[idx] & HEAD_IN_QUEUE != 0 {
            let uncovered = self.queues[d].len() > PIM_ROW_DEPTH;
            if let Some((_, msg)) =
                self.queues[d].remove_first(|m| m.src == src && m.msg_id == msg_id)
            {
                self.pending -= 1;
                self.pair_adm[idx] -= 1;
                // Promote the pair's next waiter (same as a completion).
                match self.pop_waiting(idx) {
                    Some(next) => {
                        let key = self.priority_key(&next);
                        self.queues[d].insert(key, next);
                        self.pending += 1;
                    }
                    None => self.pair_adm[idx] &= !HEAD_IN_QUEUE,
                }
                self.deactivate_if_empty(d);
                self.row_changed(d);
                return CancelOutcome::Cancelled {
                    remaining: msg.remaining,
                    uncovered,
                };
            }
        }
        // Not the head: search the pair's waiting FIFO.
        let w = self.pair_wait[idx];
        let (head, tail) = (w as u32, (w >> 32) as u32);
        let mut prev: u32 = 0;
        let mut cur = head;
        while cur != 0 {
            let i = (cur - 1) as usize;
            let node = self.wait_slab[i];
            if node.msg.src == src && node.msg.msg_id == msg_id {
                // Unlink from the pair FIFO and recycle the slab node.
                if prev == 0 {
                    self.pair_wait[idx] = if node.next == 0 {
                        0
                    } else {
                        node.next as u64 | (tail as u64) << 32
                    };
                } else {
                    self.wait_slab[(prev - 1) as usize].next = node.next;
                    let new_tail = if cur == tail { prev } else { tail };
                    self.pair_wait[idx] = head as u64 | (new_tail as u64) << 32;
                }
                self.wait_slab[i].next = self.wait_free;
                self.wait_free = cur;
                self.pair_adm[idx] -= 1;
                return CancelOutcome::Cancelled {
                    remaining: node.msg.remaining,
                    uncovered: false,
                };
            }
            prev = cur;
            cur = node.next;
        }
        CancelOutcome::NotQueued
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

        // Refresh demand snapshots only for eligible destinations whose
        // queue changed since the last rebuild (rows of inactive dests are
        // stale but never read by PIM; clean rows are byte-identical to a
        // fresh walk).
        for &d in &self.pim_dests {
            if !self.row_dirty[d] {
                continue;
            }
            self.row_dirty[d] = false;
            let row = &mut self.demand_scratch[d];
            row.clear();
            row.extend(
                self.queues[d]
                    .iter()
                    .map(|(k, m)| (k, m.src as usize))
                    .take(PIM_ROW_DEPTH),
            );
        }

        let src_busy_until = &self.src_busy_until;
        let outcome = self.pim.run_sparse(
            &self.pim_dests,
            &self.demand_scratch,
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
            self.row_dirty[d] = true;
            self.pending -= 1;
            let l = msg.remaining.min(self.config.chunk_bytes);
            msg.remaining -= l;
            let remaining_after = msg.remaining;
            if msg.remaining > 0 {
                let key = self.priority_key(&msg);
                self.queues[d].insert(key, msg);
                self.pending += 1;
            } else {
                let idx = self.pair_idx(msg.src, d as u16);
                self.pair_adm[idx] -= 1;
                // The head finished: promote the pair's next message.
                match self.pop_waiting(idx) {
                    Some(next) => {
                        let key = self.priority_key(&next);
                        self.queues[d].insert(key, next);
                        self.pending += 1;
                    }
                    None => self.pair_adm[idx] &= !HEAD_IN_QUEUE,
                }
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

        // Only the destinations PIM saw can have a new instant. The round
        // may have left *eligible* demand behind when PIM hit its cap or
        // a row is deeper than its snapshot: then nothing short of every
        // busy expiry is a safe wake-up.
        let mut fallback = outcome.capped;
        for &d in &self.pim_dests {
            let pos = self.dest_active_pos[d];
            if pos == NOT_ACTIVE {
                continue; // queue drained
            }
            let busy = self.dst_busy_until[d];
            let ready = if busy > now {
                busy // granted: what is still queued waits for this chunk
            } else if self.queues[d].len() > PIM_ROW_DEPTH {
                // PIM saw only the head of this queue; entries behind it
                // may be eligible already.
                fallback = true;
                Time::ZERO
            } else {
                // The round walked this whole row (its snapshot is
                // current) and, unless capped, found every source busy or
                // granted to another destination.
                debug_assert!(!self.row_dirty[d]);
                self.demand_scratch[d]
                    .iter()
                    .map(|&(_, s)| self.src_busy_until[s])
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
        } else if fallback {
            self.next_busy_expiry(now)
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
            } else if queue.len() > PIM_ROW_DEPTH {
                Time::ZERO
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

    /// The earliest busy-timer expiry of any port after `now`: the
    /// wake-up of last resort, used only when a round may have left
    /// eligible demand unmatched (see [`PollResult::next_wakeup`]). Every
    /// instant at which anything can change is one of these, at O(ports)
    /// a call — which is why the exact wake-up replaces it wherever it
    /// can.
    fn next_busy_expiry(&self, now: Time) -> Option<Time> {
        self.src_busy_until
            .iter()
            .chain(&self.dst_busy_until)
            .copied()
            .filter(|&t| t > now)
            .min()
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
            max_active_per_pair: 3,
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
    fn cancel_that_promotes_a_waiter_reopens_its_destination() {
        let mut s = sched(4, 256, Policy::Fcfs);
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 256))
            .unwrap();
        assert_eq!(s.poll(Time::ZERO).grants.len(), 1);
        // Two messages 0->2: the head queues, the second waits behind it.
        for id in 0..2 {
            s.notify(Time::from_ns(1), Notification::new(0, 2, id, 64))
                .unwrap();
        }
        assert!(s.poll(Time::from_ns(1)).grants.is_empty());
        assert_eq!(s.dests_examined(), 2);
        // The row changed: the next round looks at port 2 again, once.
        assert!(matches!(s.cancel(0, 2, 0), CancelOutcome::Cancelled { .. }));
        let frees = Time::ZERO + s.config().link.tx_time_bytes(256);
        for (ns, examined) in [(2, 3), (3, 3)] {
            let r = s.poll(Time::from_ns(ns));
            assert!(r.grants.is_empty());
            assert_eq!(r.next_wakeup, Some(frees));
            assert_eq!(s.dests_examined(), examined);
            s.audit_ready(Time::from_ns(ns)).unwrap();
        }
        assert_eq!(s.poll(frees).grants[0].msg_id, 1);
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
    #[should_panic(expected = "(X) must be at least 1")]
    fn zero_pair_limit_is_rejected_at_construction() {
        Scheduler::new(SchedulerConfig {
            max_active_per_pair: 0,
            ..SchedulerConfig::default_for_ports(4)
        });
    }

    #[test]
    #[should_panic(expected = "(X) must be at least 1")]
    fn zero_pair_limit_override_is_rejected() {
        let mut s = sched(4, 256, Policy::Srpt);
        let _ = s.notify_with_limit(Time::ZERO, Notification::new(0, 1, 0, 64), 0);
    }

    #[test]
    fn capped_round_falls_back_to_the_next_busy_expiry() {
        // One PIM iteration: both destinations propose source 0, port 1
        // wins, and port 2 never gets to fall back to source 3 — an edge
        // between two free ports stays unmatched. The round was not
        // maximal, so it reports the earliest busy expiry of any port
        // (here the 64 B chunk's), where a driver polling at every expiry
        // would try again.
        let mut s = Scheduler::with_pim(
            SchedulerConfig {
                max_active_per_pair: 3,
                ..SchedulerConfig::default_for_ports(4)
            },
            PimConfig {
                ports: 4,
                max_iterations: Some(1),
            },
        );
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 64))
            .unwrap();
        s.notify(Time::ZERO, Notification::new(0, 2, 0, 128))
            .unwrap();
        s.notify(Time::ZERO, Notification::new(3, 2, 0, 256))
            .unwrap();
        let r = s.poll(Time::ZERO);
        assert_eq!(r.grants.len(), 1);
        assert_eq!((r.grants[0].src, r.grants[0].dest), (0, 1));
        let short = s.config().link.tx_time_bytes(64);
        assert_eq!(r.next_wakeup, Some(Time::ZERO + short));
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

    #[test]
    fn pair_limit_enforced() {
        let mut s = sched(4, 256, Policy::Srpt);
        for i in 0..3 {
            s.notify(Time::ZERO, Notification::new(0, 1, i, 64))
                .unwrap();
        }
        assert_eq!(
            s.notify(Time::ZERO, Notification::new(0, 1, 3, 64)),
            Err(NotifyError::PairLimitReached { limit: 3 })
        );
        // Other pairs unaffected.
        s.notify(Time::ZERO, Notification::new(0, 2, 0, 64))
            .unwrap();
        assert_eq!(s.active_for_pair(0, 1), 3);
        assert_eq!(s.active_for_pair(0, 2), 1);
    }

    #[test]
    fn pair_slot_freed_on_completion() {
        let mut s = sched(4, 256, Policy::Srpt);
        for i in 0..3 {
            s.notify(Time::ZERO, Notification::new(0, 1, i, 64))
                .unwrap();
        }
        let mut now = Time::ZERO;
        for _ in 0..3 {
            let r = s.poll(now);
            if let Some(t) = r.next_wakeup {
                now = t;
            }
        }
        assert!(s.active_for_pair(0, 1) < 3);
        assert!(s.notify(now, Notification::new(0, 1, 9, 64)).is_ok());
    }

    #[test]
    fn per_pair_limit_override() {
        // A trunk pair provisioned with X=5 admits past the config's X=3;
        // pairs using the plain entry point keep the configured bound.
        let mut s = sched(4, 256, Policy::Srpt);
        for i in 0..5 {
            s.notify_with_limit(Time::ZERO, Notification::new(0, 1, i, 64), 5)
                .unwrap();
        }
        assert_eq!(
            s.notify_with_limit(Time::ZERO, Notification::new(0, 1, 5, 64), 5),
            Err(NotifyError::PairLimitReached { limit: 5 })
        );
        for i in 0..3 {
            s.notify(Time::ZERO, Notification::new(2, 3, i, 64))
                .unwrap();
        }
        assert_eq!(
            s.notify(Time::ZERO, Notification::new(2, 3, 3, 64)),
            Err(NotifyError::PairLimitReached { limit: 3 })
        );
        assert_eq!(s.active_for_pair(0, 1), 5);
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
    fn in_order_within_pair_under_srpt() {
        // §3.1.1 property 5: SRPT applies across pairs; within a pair the
        // scheduler must preserve order. Model: two messages of one pair,
        // the second smaller. Because the pair queue uses remaining bytes,
        // a naive SRPT would reorder; EDM guards by granting the pair's
        // messages in notification order. Our implementation achieves this
        // because only one message per pair can be in flight per round and
        // the smaller one is only preferred across different pairs.
        let mut s = sched(4, 64, Policy::Srpt);
        s.notify(Time::ZERO, Notification::new(0, 1, 0, 64))
            .unwrap();
        s.notify(Time::ZERO, Notification::new(0, 1, 1, 32))
            .unwrap();
        let r = s.poll(Time::ZERO);
        assert_eq!(r.grants.len(), 1);
        // Both candidates are from the same pair; grant must not starve
        // either, and bytes must conserve overall.
        let first = r.grants[0].msg_id;
        let mut now = r.next_wakeup.unwrap();
        let mut ids = vec![first];
        loop {
            let r = s.poll(now);
            ids.extend(r.grants.iter().map(|g| g.msg_id));
            match r.next_wakeup {
                Some(t) => now = t,
                None => break,
            }
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, vec![0, 1], "both messages eventually granted");
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
            CancelOutcome::Cancelled {
                remaining: 744,
                uncovered: false
            }
        );
        assert_eq!(s.pending_messages(), 0);
        assert_eq!(s.active_for_pair(0, 1), 0);
        // The admission slot is free again.
        s.notify(Time::ZERO, Notification::new(0, 1, 8, 64))
            .unwrap();
        assert_eq!(s.active_for_pair(0, 1), 1);
        // Cancelling again finds nothing.
        assert_eq!(s.cancel(0, 1, 7), CancelOutcome::NotQueued);
    }

    #[test]
    fn cancel_promotes_the_pair_waiter() {
        let mut s = sched(4, 64, Policy::Fcfs);
        s.notify(Time::from_ns(1), Notification::new(0, 1, 0, 64))
            .unwrap();
        s.notify(Time::from_ns(2), Notification::new(0, 1, 1, 64))
            .unwrap();
        // Cancel the queued head: the waiter must take its place and be
        // granted next.
        assert_eq!(
            s.cancel(0, 1, 0),
            CancelOutcome::Cancelled {
                remaining: 64,
                uncovered: false
            }
        );
        assert_eq!(s.pending_messages(), 1);
        let r = s.poll(Time::from_ns(2));
        assert_eq!(r.grants.len(), 1);
        assert_eq!(r.grants[0].msg_id, 1);
    }

    #[test]
    fn cancel_unlinks_a_mid_fifo_waiter() {
        let mut s = sched(4, 64, Policy::Fcfs);
        for i in 0..3 {
            s.notify(Time::from_ns(i as u64), Notification::new(0, 1, i, 64))
                .unwrap();
        }
        // msg 1 waits behind the head; cancel it specifically.
        assert_eq!(
            s.cancel(0, 1, 1),
            CancelOutcome::Cancelled {
                remaining: 64,
                uncovered: false
            }
        );
        assert_eq!(s.active_for_pair(0, 1), 2);
        // Remaining messages grant in order 0 then 2, skipping 1.
        let mut ids = Vec::new();
        let mut now = Time::from_ns(3);
        for _ in 0..4 {
            let r = s.poll(now);
            ids.extend(r.grants.iter().map(|g| g.msg_id));
            match r.next_wakeup {
                Some(t) => now = t,
                None => break,
            }
        }
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn cancel_reports_uncovering_a_deep_row() {
        // More sources queue for port 0 than PIM's row holds. Cancelling
        // a visible entry shifts a hidden one into view; cancelling from
        // a queue that fits the row cannot.
        let n = PIM_ROW_DEPTH + 3;
        let mut s = sched(n + 1, 64, Policy::Fcfs);
        for src in 1..=n as u16 {
            s.notify(Time::from_ns(src as u64), Notification::new(src, 0, 0, 64))
                .unwrap();
        }
        assert_eq!(
            s.cancel(1, 0, 0),
            CancelOutcome::Cancelled {
                remaining: 64,
                uncovered: true
            }
        );
        assert_eq!(
            s.cancel(2, 0, 0),
            CancelOutcome::Cancelled {
                remaining: 64,
                uncovered: true
            }
        );
        assert_eq!(s.pending_messages(), PIM_ROW_DEPTH + 1);
        s.cancel(3, 0, 0);
        assert_eq!(
            s.cancel(4, 0, 0),
            CancelOutcome::Cancelled {
                remaining: 64,
                uncovered: false
            }
        );
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
