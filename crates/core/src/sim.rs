//! The at-scale network simulator framework (§4.3) and EDM's protocol
//! implementation in it.
//!
//! This is the Rust counterpart of the paper's C simulator: a 144-node
//! cluster behind one switch, message-granularity events, per-protocol
//! control loops. The shared pieces — [`ClusterConfig`], [`Flow`],
//! [`SimResult`], and the [`FabricProtocol`] trait — are used by both EDM
//! (here) and the six baselines in `edm-baselines`.
//!
//! Normalization follows the paper: each flow's completion time is divided
//! by its *ideal* completion time (what it would take alone in the
//! network), so 1.0 is optimal and "within 1.3× of unloaded" means ≤ 1.3.

use edm_sched::{Notification, NotifyError, Policy, PollResult, Scheduler, SchedulerConfig};
use edm_sim::{Bandwidth, Duration, Engine, EventQueue, Summary, Time, World};

/// Cluster-wide configuration shared by every protocol.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of nodes (the paper simulates 144).
    pub nodes: usize,
    /// Link bandwidth (scaled to 100 Gb/s in §4.3).
    pub link: Bandwidth,
    /// One-hop propagation delay.
    pub prop_delay: Duration,
    /// Fixed per-direction fabric pipeline latency added to every message
    /// (host stacks + switch, from the Table 1 model).
    pub pipeline_latency: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 144,
            link: Bandwidth::from_gbps(100),
            prop_delay: Duration::from_ns(10),
            // EDM one-way network-stack latency for a small message, from
            // the cycle model (read path / 2 as a representative one-way
            // cost). Protocols override their own pipeline constants.
            pipeline_latency: Duration::from_ns(54),
        }
    }
}

/// Whether a flow models a write (WREQ) or a read (RREQ→RRES pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// One-sided write: `size` bytes from `src` to `dst`.
    Write,
    /// Read: an 8 B RREQ from `src` to `dst`, answered by `size` bytes
    /// of RRES from `dst` back to `src`.
    Read,
}

/// One memory message (flow) offered to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Flow id (dense, 0-based).
    pub id: usize,
    /// Issuing (compute) node.
    pub src: usize,
    /// Target (memory) node.
    pub dst: usize,
    /// Data size in bytes (RRES size for reads, WREQ size for writes).
    pub size: u32,
    /// Arrival (issue) time.
    pub arrival: Time,
    /// Read or write.
    pub kind: FlowKind,
}

impl Flow {
    /// The (data source, data destination) node pair of this flow's *data*
    /// direction: writes send src→dst; reads send the RRES dst→src.
    pub fn data_direction(&self) -> (u16, u16) {
        match self.kind {
            FlowKind::Write => (self.src as u16, self.dst as u16),
            FlowKind::Read => (self.dst as u16, self.src as u16),
        }
    }
}

/// Per-flow outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowOutcome {
    /// The flow.
    pub flow: Flow,
    /// Completion time (last data byte delivered).
    pub completed: Time,
}

impl FlowOutcome {
    /// Message completion time.
    pub fn mct(&self) -> Duration {
        self.completed.saturating_since(self.flow.arrival)
    }
}

/// Result of simulating one workload under one protocol.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Protocol name.
    pub protocol: &'static str,
    /// Per-flow outcomes (same order as the input flows).
    pub outcomes: Vec<FlowOutcome>,
}

impl SimResult {
    /// Mean completion time over all flows.
    pub fn mean_mct(&self) -> Duration {
        if self.outcomes.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.outcomes.iter().map(|o| o.mct()).sum();
        total / self.outcomes.len() as u64
    }

    /// Summary of per-flow MCTs normalized by `ideal(flow)`.
    pub fn normalized_mct<F: Fn(&Flow) -> Duration>(&self, ideal: F) -> Summary {
        let mut s = Summary::new();
        for o in &self.outcomes {
            s.record(o.mct().ratio(ideal(&o.flow)));
        }
        s
    }

    /// Summary restricted to one flow kind.
    pub fn normalized_mct_of_kind<F: Fn(&Flow) -> Duration>(
        &self,
        kind: FlowKind,
        ideal: F,
    ) -> Summary {
        let mut s = Summary::new();
        for o in self.outcomes.iter().filter(|o| o.flow.kind == kind) {
            s.record(o.mct().ratio(ideal(&o.flow)));
        }
        s
    }
}

/// A fabric protocol that can simulate a workload on a cluster.
pub trait FabricProtocol {
    /// Display name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Simulates `flows` over `cluster`, returning per-flow outcomes.
    fn simulate(&mut self, cluster: &ClusterConfig, flows: &[Flow]) -> SimResult;
}

/// The ideal (unloaded) completion time of a flow under EDM's transport
/// shape: a control hop to the switch (demand), a control hop back (grant —
/// for reads this is the forwarded RREQ), then the data flight.
///
/// For the paper-faithful Figure 8 normalization ("normalized by the
/// corresponding unloaded latency"), prefer measuring each protocol's own
/// solo flow via [`solo_mct`]; this closed form is the EDM reference.
pub fn ideal_mct(cluster: &ClusterConfig, flow: &Flow) -> Duration {
    let ctrl_hop =
        cluster.pipeline_latency / 2 + cluster.prop_delay + cluster.link.tx_time_bytes(8);
    let data_hop = cluster.pipeline_latency / 2
        + 2 * cluster.prop_delay
        + cluster.link.tx_time_bytes(flow.size as u64);
    2 * ctrl_hop + data_hop
}

/// Measures a protocol's *unloaded* completion time for a flow by running
/// it alone in the cluster — the paper's normalization baseline for
/// Figure 8 ("the time it would take for that message to complete if it
/// were the only message in the network").
pub fn solo_mct<P: FabricProtocol + ?Sized>(
    protocol: &mut P,
    cluster: &ClusterConfig,
    flow: &Flow,
) -> Duration {
    let solo = Flow {
        id: 0,
        arrival: Time::ZERO,
        ..*flow
    };
    let result = protocol.simulate(cluster, &[solo]);
    result.outcomes[0].mct()
}

// ---------------------------------------------------------------------
// EDM protocol implementation
// ---------------------------------------------------------------------

/// EDM's in-network scheduler protocol for the cluster simulator.
///
/// Mechanics per §3.1.1:
/// * write arrival → `/N/` to the switch (half RTT) → queued;
/// * read arrival → RREQ to the switch (half RTT) → queued as the RRES
///   demand (implicit notification);
/// * the scheduler polls; each grant releases one chunk from the matched
///   sender, arriving `grant flight + chunk serialization + data flight`
///   later; ports free `chunk/B` after the grant (back-to-back pipelining);
/// * a flow completes when its last chunk reaches the destination.
///
/// Notification/grant blocks ride repurposed IFG slots, so their bandwidth
/// is not charged against the data links (§3.2); their latency is.
#[derive(Debug, Clone, Copy)]
pub struct EdmProtocol {
    /// Scheduler chunk size (the evaluation uses 256 B).
    pub chunk_bytes: u32,
    /// Scheduling policy.
    pub policy: Policy,
    /// X: max active notifications per source–destination pair.
    pub max_active_per_pair: usize,
    /// §3.1.2 optimization: when the X bound forces same-pair messages to
    /// wait, batch them into one "mega" message with a single
    /// notification. Off by default (the recorded experiments don't use
    /// it); enable for hot-pair workloads.
    pub batch_small_messages: bool,
}

impl Default for EdmProtocol {
    fn default() -> Self {
        EdmProtocol {
            chunk_bytes: 256,
            policy: Policy::Srpt,
            max_active_per_pair: 3,
            batch_small_messages: false,
        }
    }
}

/// Content-derived event order keys for the deterministic worlds.
///
/// The event engine orders same-time events by `(ord, seq)`
/// ([`edm_sim::EventQueue::schedule_ordered`]). Every world that must be
/// bit-identical between sequential and sharded execution derives `ord`
/// purely from event content through these helpers, so the same event
/// sorts into the same tie position regardless of where (or in which
/// shard) it was scheduled. The rank order is load-bearing: at one
/// instant, faults strike first, then reroutes, then demand arrivals,
/// then chunk arrivals, then scheduler polls — each rank keyed by a
/// value unique among the simultaneous events of that rank (fault index,
/// flow id, or the granting switch's monotone grant sequence).
pub mod evord {
    /// Bits reserved for the per-switch grant sequence in a chunk key.
    const GSEQ_BITS: u32 = 40;

    const fn rank(r: u64, payload: u64) -> u64 {
        r << 56 | payload
    }

    /// A planned fault striking (keyed by fault-plan index).
    pub fn fault(idx: u32) -> u64 {
        rank(0, idx as u64)
    }

    /// A bumped flow re-entering after its reroute delay.
    pub fn reroute(flow: u32) -> u64 {
        rank(1, flow as u64)
    }

    /// A flow's demand reaching its hop-0 switch.
    pub fn demand(flow: u32) -> u64 {
        rank(2, flow as u64)
    }

    /// A granted chunk's last byte reaching its next element, keyed by
    /// the granting switch and its monotone grant sequence (so chunks of
    /// one switch tie in grant order, and chunks of different switches
    /// tie deterministically).
    pub fn chunk(switch: u16, gseq: u64) -> u64 {
        debug_assert!(gseq < 1 << GSEQ_BITS, "grant sequence overflow");
        rank(
            3,
            (switch as u64) << GSEQ_BITS | (gseq & ((1 << GSEQ_BITS) - 1)),
        )
    }

    /// One switch's scheduler poll.
    pub fn poll(switch: u16) -> u64 {
        rank(4, switch as u64)
    }

    /// A cross-shard delivery-credit record (state sync, never an event).
    pub fn credit(flow: u32) -> u64 {
        rank(5, flow as u64)
    }

    /// A closed-loop tenant's issue step (keyed by tenant index).
    /// Application-tier ranks sort after all fabric ranks at one instant:
    /// the fabric's state at time T is settled before the app observes T.
    pub fn app_issue(tenant: u32) -> u64 {
        rank(6, tenant as u64)
    }

    /// A remote op's memory-service step (keyed by global op sequence).
    pub fn app_service(op: u32) -> u64 {
        rank(7, op as u64)
    }

    /// A remote op's completion observed by its tenant (keyed by global
    /// op sequence).
    pub fn app_done(op: u32) -> u64 {
        rank(8, op as u64)
    }
}

// ---------------------------------------------------------------------
// Switch scheduling domain — the per-switch half of the simulator,
// shared between the single-switch world here and `edm-topo`'s
// multi-switch fabrics.
// ---------------------------------------------------------------------

/// An offer of demand to a [`SwitchDomain`]: one simulation-level message
/// between two ports of that switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainOffer {
    /// Source port on this switch.
    pub src: u16,
    /// Destination port on this switch.
    pub dst: u16,
    /// Message size in bytes.
    pub bytes: u32,
    /// Per-pair X bound applied to this offer. Access pairs keep the
    /// paper's X; multi-switch worlds provision aggregated trunk pairs
    /// with a larger share (via [`edm_sched::Scheduler::notify_with_limit`]).
    pub limit: usize,
    /// Offers fold into one mega message (§3.1.2 batching) only when they
    /// share the port pair *and* this key. Multi-hop worlds key it by the
    /// end-to-end route so a batched message never spans two destinations;
    /// the single-switch world uses a constant (pair-only batching).
    pub batch_key: u64,
    /// Opaque caller tag, reported by [`SwitchDomain::deliver`] when this
    /// offer's bytes have fully arrived.
    pub token: u64,
}

/// A grant of a [`DomainRound`], resolved to its domain message.
#[derive(Debug, Clone, Copy)]
pub struct DomainGrant {
    /// Slot of the granted message; hand back to [`SwitchDomain::deliver`]
    /// when the chunk reaches its next element.
    pub slot: u32,
    /// Granted source port.
    pub src: u16,
    /// Granted destination port.
    pub dst: u16,
    /// Bytes granted in this chunk.
    pub chunk_bytes: u32,
    /// Token of the message's first (oldest) constituent offer — for
    /// mega messages every constituent shares the batch key, so this is
    /// representative for routing purposes.
    pub token: u64,
    /// This domain's monotone grant sequence number — the content key
    /// worlds use to order simultaneous chunk events deterministically
    /// ([`evord::chunk`]).
    pub gseq: u64,
}

/// One scheduling round ([`SwitchDomain::poll`]).
#[derive(Debug, Clone, Copy)]
pub struct DomainRound<'a> {
    /// The round's grants, in grant-sequence order.
    pub grants: &'a [DomainGrant],
    /// The round's matching latency: grants leave the switch this long
    /// after the round started.
    pub sched_latency: Duration,
    /// When the caller must schedule the next `Poll` event, if at all —
    /// the scheduler's wake-up, already noted and de-duplicated.
    pub next_poll: Option<Time>,
}

/// Outcome of [`SwitchDomain::offer_forwarded`].
#[derive(Debug, Clone, Copy)]
pub enum Forwarded<'a> {
    /// The offer was the switch's only demand and both its ports were
    /// free, so the round that must grant exactly it ran inline.
    Granted(DomainRound<'a>),
    /// As [`SwitchDomain::offer`]: when to schedule a `Poll` event.
    Queued(Option<Time>),
}

/// Outcome of [`SwitchDomain::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainCancel {
    /// No unbatched offer with that token is backlogged or admitted.
    NotFound,
    /// The offer's ungranted remainder was withdrawn.
    Withdrawn {
        /// When the caller must schedule a `Poll` event: the scheduler
        /// now holds demand its last round did not see — the freed
        /// admission slot put a backlogged notification into it, or the
        /// withdrawal uncovered one (`edm_sched::CancelOutcome`).
        poll: Option<Time>,
    },
}

/// The offers a scheduled message carries. The overwhelmingly common
/// unbatched case stays allocation-free; only §3.1.2 mega messages pay
/// for the boundary vectors.
#[derive(Debug)]
enum MsgBody {
    /// One offer.
    Single { token: u64, bytes: u32 },
    /// A mega-batched message: constituent tokens in FIFO order and their
    /// cumulative byte boundaries (`prefix[i]` = bytes after offer i).
    Batch { tokens: Vec<u64>, prefix: Vec<u32> },
}

/// A (possibly mega-batched) scheduled message.
#[derive(Debug)]
struct MsgState {
    body: MsgBody,
    delivered: u32,
    /// Bytes granted so far — the in-flight watermark that decides when a
    /// cancelled message's slot can be reclaimed (no grants outstanding).
    granted: u32,
    next_sub: u32,
    /// Scheduler msg_id this message was notified under (sanity checks).
    msg_id: u8,
    /// Whether the ungranted remainder was withdrawn ([`SwitchDomain::cancel`]).
    /// A cancelled message never completes; its slot frees once every
    /// already-granted chunk has landed.
    cancelled: bool,
    /// Next in-flight message of the same pair — the pair's grant FIFO as
    /// an intrusive list through the slab (slot index + 1; 0 = last).
    /// The zero sentinel keeps the per-pair slabs calloc-cheap.
    next_in_pair: u32,
}

impl MsgState {
    fn first_token(&self) -> u64 {
        match &self.body {
            MsgBody::Single { token, .. } => *token,
            MsgBody::Batch { tokens, .. } => tokens[0],
        }
    }

    fn sub_count(&self) -> u32 {
        match &self.body {
            MsgBody::Single { .. } => 1,
            MsgBody::Batch { tokens, .. } => tokens.len() as u32,
        }
    }
}

/// Per-pair in-flight FIFO endpoints, packed head (low 32) / tail
/// (high 32) into one word (`targets` index + 1; 0 = empty). Grants
/// within a pair are strictly FIFO (§3.1.1 property 5), so the head *is*
/// the granted message. `vec![0u64]` stays a calloc: untouched pairs
/// cost nothing at any port count.
type PairFifo = u64;

/// One EDM switch's scheduling state as seen by an event-driven world: a
/// demand-sparse [`Scheduler`] plus the bookkeeping that maps its grants
/// back to simulation-level messages — per-pair in-flight FIFOs, the
/// X-limit backlog with §3.1.2 mega-batching, msg-id allocation, and
/// poll-event deduplication.
///
/// The domain is event-queue agnostic and owns the poll protocol: every
/// method that can make a grant possible returns *when the caller must
/// schedule a `Poll` event* — `None` when nothing changed a round could
/// act on, or when an event for that instant is already queued — and
/// [`SwitchDomain::poll`] takes the firing event's time and ignores
/// superseded wake-ups. A world schedules exactly the events it is told
/// to and decides nothing itself, so the same state machine drives the
/// single-switch [`EdmProtocol`] world, the byte-moving
/// [`crate::testbed`], `edm-topo`'s multi-switch fabrics (one domain per
/// switch) and `edm-approx`'s link replays.
#[derive(Debug)]
pub struct SwitchDomain {
    ports: usize,
    batch_small: bool,
    scheduler: Scheduler,
    /// Per-pair in-flight FIFO words, keyed by flat pair index.
    pair_fifo: Vec<PairFifo>,
    /// Per-pair backlog count (low 32, O(1) same-pair waiter checks) and
    /// msg-id allocator (bits 32..40, wraps at 256).
    pair_meta: Vec<u64>,
    targets: Vec<MsgState>,
    /// Retired message slots awaiting reuse (LIFO). Slots return here when
    /// a message completes or a cancelled message's last in-flight chunk
    /// lands, so `targets` grows to the in-flight high-water mark — not
    /// the total message count — under streaming workloads.
    free_slots: Vec<u32>,
    /// Pending offers blocked on the per-pair X limit.
    backlog: std::collections::VecDeque<DomainOffer>,
    /// High-water mark of `targets` across the domain's whole life —
    /// [`SwitchDomain::purge`] clears the slab but must not erase the
    /// peak the memory-bound tests pin.
    slab_hwm: usize,
    /// Monotone grant counter (the [`DomainGrant::gseq`] source).
    /// Survives [`SwitchDomain::purge`]: resetting it after a switch
    /// revival could collide [`evord::chunk`] keys with chunks granted
    /// before the outage.
    grant_seq: u64,
    /// [`SwitchDomain::rounds`] of the schedulers [`SwitchDomain::purge`]
    /// replaced, so the domain's totals cover its whole life.
    purged_rounds: (u64, u64, u64),
    /// The live wake-up: the one queued `Poll` event that will run a
    /// round. Events queued for any other instant are superseded.
    poll_at: Option<Time>,
    /// Times of poll events currently in the caller's queue (tiny; one
    /// live plus at most a few superseded). A superseded event whose time
    /// matches a *later* wake-up request is recycled instead of firing
    /// stale next to a freshly scheduled duplicate.
    scheduled_polls: Vec<Time>,
    /// Reused scheduler poll result (grant buffer survives across polls).
    poll_scratch: PollResult,
    /// Reused resolved-grant buffer.
    grants_scratch: Vec<DomainGrant>,
}

impl SwitchDomain {
    /// Creates a domain for one switch.
    pub fn new(config: SchedulerConfig, batch_small_messages: bool) -> Self {
        let pairs = config.ports * config.ports;
        SwitchDomain {
            ports: config.ports,
            batch_small: batch_small_messages,
            scheduler: Scheduler::new(config),
            pair_fifo: vec![0; pairs],
            pair_meta: vec![0; pairs],
            targets: Vec::new(),
            free_slots: Vec::new(),
            backlog: std::collections::VecDeque::new(),
            slab_hwm: 0,
            grant_seq: 0,
            purged_rounds: (0, 0, 0),
            poll_at: None,
            scheduled_polls: Vec::new(),
            poll_scratch: PollResult::default(),
            grants_scratch: Vec::new(),
        }
    }

    /// The underlying scheduler (stats, configuration).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Scheduling rounds this switch has run, how many of them issued no
    /// grant, and how many destinations they handed to PIM between them
    /// (`edm_sched::Scheduler::rounds` / `empty_rounds` /
    /// `dests_examined`), over the domain's whole life: a
    /// [purge](Self::purge) replaces the scheduler but not these totals.
    pub fn rounds(&self) -> (u64, u64, u64) {
        (
            self.purged_rounds.0 + self.scheduler.rounds(),
            self.purged_rounds.1 + self.scheduler.empty_rounds(),
            self.purged_rounds.2 + self.scheduler.dests_examined(),
        )
    }

    /// Whether the scheduler holds queued demand. A round without demand
    /// is a no-op, so no `Poll` event is asked for (saves a heap event
    /// per completed message — outcomes are unaffected).
    fn has_demand(&self) -> bool {
        self.scheduler.pending_messages() > 0
    }

    /// Whether a just-admitted (src, dst) message is trivially the next
    /// grant: it is the *only* queued demand and both its ports are free,
    /// so a scheduling round at `now` must grant exactly it.
    fn sole_eligible_demand(&self, now: Time, src: u16, dst: u16) -> bool {
        self.scheduler.pending_messages() == 1
            && self.scheduler.src_port_free(src, now)
            && self.scheduler.dst_port_free(dst, now)
    }

    /// High-water mark of the message slab: the most messages ever
    /// simultaneously resident. Under streaming churn this is bounded by
    /// peak in-flight messages, not total messages — the assertion the
    /// slab-reuse tests pin.
    pub fn msg_slab_high_water(&self) -> usize {
        self.slab_hwm.max(self.targets.len())
    }

    /// Messages currently resident (admitted or draining in-flight
    /// chunks): slab size minus retired slots awaiting reuse.
    pub fn msg_slots_live(&self) -> usize {
        self.targets.len() - self.free_slots.len()
    }

    /// Flat index of a (src port, dst port) pair.
    fn pair_idx(&self, src: u16, dst: u16) -> usize {
        src as usize * self.ports + dst as usize
    }

    /// Offers one message's demand. Returns when the caller must
    /// schedule a `Poll` event: `now` if the demand was admitted to the
    /// scheduler and no event for `now` is queued yet; `None` if it
    /// joined the per-pair backlog (nothing the matcher sees changed).
    pub fn offer(&mut self, now: Time, offer: DomainOffer) -> Option<Time> {
        if self.admit(now, offer) {
            self.wake(now)
        } else {
            None
        }
    }

    /// [`SwitchDomain::offer`] for a chunk forwarded from another switch
    /// (an arrival that is its own notification). An uncontended
    /// store-and-forward hop — the chunk is the switch's only demand and
    /// both its ports are free — forces the round's outcome, so the round
    /// runs inline instead of costing a `Poll` event. Hop-0 demand must
    /// use [`SwitchDomain::offer`]: an inline round precedes same-instant
    /// arrivals a `Poll` event would have followed.
    pub fn offer_forwarded(&mut self, now: Time, offer: DomainOffer) -> Forwarded<'_> {
        if !self.admit(now, offer) {
            Forwarded::Queued(None)
        } else if self.sole_eligible_demand(now, offer.src, offer.dst) {
            Forwarded::Granted(self.round(now))
        } else {
            Forwarded::Queued(self.wake(now))
        }
    }

    /// Queues one offer: into the scheduler (`true`) or the per-pair
    /// backlog (`false`).
    fn admit(&mut self, now: Time, offer: DomainOffer) -> bool {
        // Host message-queue FIFO: a new message may not overtake older
        // same-pair messages already waiting in the backlog.
        let pi = self.pair_idx(offer.src, offer.dst);
        if self.pair_meta[pi] as u32 > 0 {
            self.pair_meta[pi] += 1;
            self.backlog.push_back(offer);
            false
        } else {
            self.notify_one(now, offer)
        }
    }

    /// Links a freshly admitted message into its pair's grant FIFO,
    /// reusing a retired slot when one is free.
    fn push_msg(&mut self, pi: usize, msg_id: u8, body: MsgBody) {
        let meta = self.pair_meta[pi];
        self.pair_meta[pi] = (meta & !0xFF_0000_0000) | (msg_id.wrapping_add(1) as u64) << 32;
        let state = MsgState {
            body,
            delivered: 0,
            granted: 0,
            next_sub: 0,
            msg_id,
            cancelled: false,
            next_in_pair: 0,
        };
        // Slot index + 1 encoding, as in the pair FIFO words.
        let slot = match self.free_slots.pop() {
            Some(free) => {
                self.targets[free as usize] = state;
                free + 1
            }
            None => {
                self.targets.push(state);
                self.slab_hwm = self.slab_hwm.max(self.targets.len());
                self.targets.len() as u32
            }
        };
        // Append to the pair's grant FIFO.
        let fifo = self.pair_fifo[pi];
        let (head, tail) = (fifo as u32, (fifo >> 32) as u32);
        if head == 0 {
            self.pair_fifo[pi] = slot as u64 | (slot as u64) << 32;
        } else {
            self.targets[(tail - 1) as usize].next_in_pair = slot;
            self.pair_fifo[pi] = head as u64 | (slot as u64) << 32;
        }
    }

    /// Announces one unbatched message to the scheduler (the common,
    /// allocation-free path). Returns `true` on admission.
    fn notify_one(&mut self, now: Time, offer: DomainOffer) -> bool {
        let pi = self.pair_idx(offer.src, offer.dst);
        let msg_id = (self.pair_meta[pi] >> 32) as u8;
        match self.scheduler.notify_with_limit(
            now,
            Notification::new(offer.src, offer.dst, msg_id, offer.bytes),
            offer.limit,
        ) {
            Ok(()) => {
                self.push_msg(
                    pi,
                    msg_id,
                    MsgBody::Single {
                        token: offer.token,
                        bytes: offer.bytes,
                    },
                );
                true
            }
            Err(NotifyError::PairLimitReached { .. }) => {
                // Sender rate-limiting: retry when a grant frees a slot.
                self.pair_meta[pi] += 1;
                self.backlog.push_back(offer);
                false
            }
            Err(e) => panic!("unexpected notify error: {e}"),
        }
    }

    /// Announces one mega message carrying several batched same-pair
    /// offers (§3.1.2). Returns `true` on admission.
    fn notify_batch(&mut self, now: Time, offers: Vec<DomainOffer>) -> bool {
        debug_assert!(offers.len() > 1);
        let (s, d, limit) = (offers[0].src, offers[0].dst, offers[0].limit);
        let mut tokens = Vec::with_capacity(offers.len());
        let mut prefix = Vec::with_capacity(offers.len());
        let mut total = 0u32;
        for o in &offers {
            debug_assert_eq!((o.src, o.dst), (s, d), "mega is one pair");
            total += o.bytes;
            prefix.push(total);
            tokens.push(o.token);
        }
        let pi = self.pair_idx(s, d);
        let msg_id = (self.pair_meta[pi] >> 32) as u8;
        match self
            .scheduler
            .notify_with_limit(now, Notification::new(s, d, msg_id, total), limit)
        {
            Ok(()) => {
                self.push_msg(pi, msg_id, MsgBody::Batch { tokens, prefix });
                true
            }
            Err(NotifyError::PairLimitReached { .. }) => {
                self.pair_meta[pi] += offers.len() as u64;
                self.backlog.extend(offers);
                false
            }
            Err(e) => panic!("unexpected notify error: {e}"),
        }
    }

    /// Admits backlogged offers after a pair slot frees: one offer, or —
    /// with batching — every backlogged offer of the same (pair, batch
    /// key) folded into a single mega message (bounded by the 16-bit size
    /// field, §3.1.4). Returns `true` when a notification went into the
    /// scheduler — not when the backlog was empty, nor when its head's
    /// pair is still at its X bound and the offer went back to wait.
    fn admit_from_backlog(&mut self, now: Time) -> bool {
        let Some(first) = self.backlog.pop_front() else {
            return false;
        };
        let pi = self.pair_idx(first.src, first.dst);
        self.pair_meta[pi] -= 1;
        if !self.batch_small {
            return self.notify_one(now, first);
        }
        let key = (first.src, first.dst, first.batch_key);
        let mut total = first.bytes;
        let mut batch = vec![first];
        self.backlog.retain(|o| {
            if (o.src, o.dst, o.batch_key) == key
                && total as u64 + o.bytes as u64 <= u16::MAX as u64
            {
                total += o.bytes;
                batch.push(*o);
                false
            } else {
                true
            }
        });
        self.pair_meta[pi] -= (batch.len() - 1) as u64;
        if batch.len() == 1 {
            self.notify_one(now, first)
        } else {
            self.notify_batch(now, batch)
        }
    }

    /// Asks for a round at `at` on behalf of demand that just entered
    /// the scheduler. Returns `at` when the caller must schedule the
    /// `Poll` event.
    fn wake(&mut self, at: Time) -> Option<Time> {
        debug_assert!(self.has_demand(), "a round without demand is a no-op");
        self.note_poll_wanted(at).then_some(at)
    }

    /// Records that a poll is wanted at `at`. Returns `true` when the
    /// caller must schedule the poll event; duplicate/later requests are
    /// absorbed, and a superseded event already queued for exactly `at`
    /// is recycled instead of duplicated.
    fn note_poll_wanted(&mut self, at: Time) -> bool {
        if self.poll_at.is_none_or(|t| at < t) {
            self.poll_at = Some(at);
            if self.scheduled_polls.contains(&at) {
                false
            } else {
                self.scheduled_polls.push(at);
                true
            }
        } else {
            false
        }
    }

    /// Whether a poll event firing at `now` is the live wake-up (and
    /// consumes it). Superseded (stale) poll events must be dropped,
    /// otherwise each stale event would spawn its own wake-up chain.
    fn poll_due(&mut self, now: Time) -> bool {
        if let Some(pos) = self.scheduled_polls.iter().position(|&t| t == now) {
            self.scheduled_polls.swap_remove(pos);
        }
        if self.poll_at == Some(now) {
            self.poll_at = None;
            true
        } else {
            false
        }
    }

    /// A `Poll` event fired at `now`: runs one scheduling round, or
    /// returns `None` (and schedules nothing) when the event was
    /// superseded by an earlier wake-up.
    pub fn poll(&mut self, now: Time) -> Option<DomainRound<'_>> {
        if self.poll_due(now) {
            Some(self.round(now))
        } else {
            None
        }
    }

    /// One round with its wake-up noted.
    fn round(&mut self, now: Time) -> DomainRound<'_> {
        let DomainRound {
            sched_latency,
            next_poll: wakeup,
            ..
        } = self.poll_exhaustive(now);
        DomainRound {
            next_poll: wakeup.filter(|&t| self.note_poll_wanted(t)),
            grants: &self.grants_scratch,
            sched_latency,
        }
    }

    /// Runs one scheduling round at `now` whatever wake-up is live,
    /// resolving each grant to its in-flight message slot, and reports
    /// the scheduler's raw next wake-up without noting it. Public only as
    /// the entry point of reference drivers that poll at every instant
    /// (`prop_core` compares one against the protocol above); worlds call
    /// [`SwitchDomain::poll`].
    #[doc(hidden)]
    pub fn poll_exhaustive(&mut self, now: Time) -> DomainRound<'_> {
        let mut result = std::mem::take(&mut self.poll_scratch);
        self.scheduler.poll_into(now, &mut result);
        self.grants_scratch.clear();
        for g in &result.grants {
            // Grants within a pair are FIFO, so the granted message is
            // the head of the pair's in-flight list.
            let pi = self.pair_idx(g.src, g.dest);
            let fifo = self.pair_fifo[pi];
            let head = fifo as u32;
            debug_assert_ne!(head, 0, "grant for unknown message");
            let slot = (head - 1) as usize;
            debug_assert_eq!(self.targets[slot].msg_id, g.msg_id);
            if g.is_final() {
                let next = self.targets[slot].next_in_pair;
                self.pair_fifo[pi] = if next == 0 {
                    0
                } else {
                    next as u64 | (fifo & 0xFFFF_FFFF_0000_0000)
                };
            }
            self.targets[slot].granted += g.chunk_bytes;
            let gseq = self.grant_seq;
            self.grant_seq += 1;
            self.grants_scratch.push(DomainGrant {
                slot: slot as u32,
                src: g.src,
                dst: g.dest,
                chunk_bytes: g.chunk_bytes,
                token: self.targets[slot].first_token(),
                gseq,
            });
        }
        let (sched_latency, next_poll) = (result.sched_latency, result.next_wakeup);
        self.poll_scratch = result;
        DomainRound {
            grants: &self.grants_scratch,
            sched_latency,
            next_poll,
        }
    }

    /// Records a granted chunk's arrival at its next element. Sub-offers
    /// of a mega message complete in FIFO order as their cumulative bytes
    /// arrive; `on_complete(token, bytes)` fires once per completed offer.
    /// Returns when the caller must schedule a `Poll` event: `now` when
    /// the message finished *and* the pair slot it freed put a backlogged
    /// notification into the scheduler — the only way a delivery changes
    /// what a scheduling round can grant — unless an event for `now` is
    /// already queued.
    ///
    /// Completion is *byte-counted*, not flagged by the final grant:
    /// background-IP jitter can land a small final chunk before its
    /// (larger) predecessor, so the finishing arrival is whichever chunk
    /// brings the delivered total to the message size. A message whose
    /// remainder was [cancelled](Self::cancel) never reaches its total
    /// and therefore never completes or frees a second admission slot.
    pub fn deliver(
        &mut self,
        now: Time,
        slot: u32,
        bytes: u32,
        mut on_complete: impl FnMut(u64, u32),
    ) -> Option<Time> {
        let st = &mut self.targets[slot as usize];
        st.delivered += bytes;
        if st.cancelled {
            // No completion can fire; the slot retires once the last
            // already-granted chunk lands.
            debug_assert!(st.delivered <= st.granted, "delivery past cancellation");
            if st.delivered >= st.granted {
                self.free_slots.push(slot);
            }
            return None;
        }
        let total = match &st.body {
            MsgBody::Single {
                token,
                bytes: total,
            } => {
                if st.next_sub == 0 && *total <= st.delivered {
                    on_complete(*token, *total);
                    st.next_sub = 1;
                }
                *total
            }
            MsgBody::Batch { tokens, prefix } => {
                while (st.next_sub as usize) < tokens.len()
                    && prefix[st.next_sub as usize] <= st.delivered
                {
                    let i = st.next_sub as usize;
                    let start = if i == 0 { 0 } else { prefix[i - 1] };
                    on_complete(tokens[i], prefix[i] - start);
                    st.next_sub += 1;
                }
                *prefix.last().expect("batch is non-empty")
            }
        };
        debug_assert!(st.delivered <= total, "over-delivery");
        if st.delivered >= total {
            debug_assert_eq!(st.next_sub, st.sub_count(), "all sub-offers done");
            // Retire the message: its slot returns to the free list (the
            // backlog admission below may reuse it immediately), and the
            // freed pair slot admits backlogged demand.
            self.free_slots.push(slot);
            if self.admit_from_backlog(now) {
                return self.wake(now);
            }
        }
        None
    }

    /// Withdraws the ungranted remainder of an *unbatched* offer (by its
    /// token): sender-side demand revocation after a failure reroute.
    ///
    /// Finds the offer wherever it queues — the per-pair X backlog (never
    /// notified: simply dropped) or the pair's in-flight FIFO (its
    /// [`edm_sched::Scheduler`] message is cancelled and the FIFO entry
    /// unlinked). Chunks already granted stay in flight; their delivery
    /// bookkeeping still runs, but the message can no longer complete, so
    /// no completion callback ever fires for it. Freeing the admission
    /// slot admits backlogged demand, exactly like a completion — the
    /// outcome says when to schedule a `Poll` event.
    ///
    /// Offers folded into a §3.1.2 mega message are *not* cancellable
    /// (the notification covers the whole batch); those keep the
    /// documented stale-demand pessimism and report
    /// [`DomainCancel::NotFound`].
    pub fn cancel(&mut self, now: Time, src: u16, dst: u16, token: u64) -> DomainCancel {
        let pi = self.pair_idx(src, dst);
        // Still in the X backlog: never notified, just drop it.
        if self.pair_meta[pi] as u32 > 0 {
            let before = self.backlog.len();
            self.backlog
                .retain(|o| !(o.src == src && o.dst == dst && o.token == token));
            let removed = (before - self.backlog.len()) as u64;
            if removed > 0 {
                self.pair_meta[pi] -= removed;
                return DomainCancel::Withdrawn { poll: None };
            }
        }
        // Admitted: walk the pair's in-flight FIFO for the unbatched
        // message carrying this token.
        let fifo = self.pair_fifo[pi];
        let (head, tail) = (fifo as u32, (fifo >> 32) as u32);
        let mut prev: u32 = 0;
        let mut cur = head;
        while cur != 0 {
            let slot = (cur - 1) as usize;
            let next = self.targets[slot].next_in_pair;
            let hit = matches!(
                self.targets[slot].body,
                MsgBody::Single { token: t, .. } if t == token
            );
            if hit {
                let edm_sched::CancelOutcome::Cancelled { uncovered, .. } =
                    self.scheduler.cancel(src, dst, self.targets[slot].msg_id)
                else {
                    unreachable!("a pair-FIFO member is always queued or waiting");
                };
                let new_head = if prev == 0 { next } else { head };
                let new_tail = if cur == tail { prev } else { tail };
                self.pair_fifo[pi] = if new_head == 0 {
                    0
                } else {
                    new_head as u64 | (new_tail as u64) << 32
                };
                if prev != 0 {
                    self.targets[(prev - 1) as usize].next_in_pair = next;
                }
                // The message can no longer complete; retire its slot now
                // if nothing is in flight, else when the last granted
                // chunk lands ([`SwitchDomain::deliver`]).
                let st = &mut self.targets[slot];
                st.cancelled = true;
                if st.delivered >= st.granted {
                    self.free_slots.push(slot as u32);
                }
                // The admission slot freed: admit backlogged demand.
                let admitted = self.admit_from_backlog(now);
                let poll = if (admitted || uncovered) && self.has_demand() {
                    self.wake(now)
                } else {
                    None
                };
                return DomainCancel::Withdrawn { poll };
            }
            prev = cur;
            cur = next;
        }
        DomainCancel::NotFound
    }

    /// Hard-resets the domain after its switch dies, appending to `dead`
    /// the token of every resident sub-offer that will now never complete
    /// — backlogged offers plus the uncompleted constituents of every
    /// scheduled message. Callers release whatever references those
    /// offers held; cancelled messages report nothing (their references
    /// were already released at cancellation).
    ///
    /// The revived switch comes back like a power-cycled ASIC: cold
    /// scheduler, empty FIFOs and backlog, no pending polls. Only the
    /// grant-sequence counter and the slab high-water mark survive — the
    /// former so post-revival [`evord::chunk`] keys can never collide
    /// with chunks granted before the outage, the latter so memory-bound
    /// reporting still sees the true peak. Chunks granted before the
    /// outage must be fenced off by the caller (generation-stamped
    /// settle events) and never handed back to [`SwitchDomain::deliver`].
    pub fn purge(&mut self, dead: &mut Vec<u64>) {
        for o in &self.backlog {
            dead.push(o.token);
        }
        let mut retired = vec![false; self.targets.len()];
        for &s in &self.free_slots {
            retired[s as usize] = true;
        }
        for (slot, st) in self.targets.iter().enumerate() {
            if retired[slot] || st.cancelled {
                continue;
            }
            match &st.body {
                MsgBody::Single { token, .. } => {
                    if st.next_sub == 0 {
                        dead.push(*token);
                    }
                }
                MsgBody::Batch { tokens, .. } => {
                    dead.extend_from_slice(&tokens[st.next_sub as usize..]);
                }
            }
        }
        self.purged_rounds = self.rounds();
        self.scheduler = Scheduler::new(*self.scheduler.config());
        self.pair_fifo.iter_mut().for_each(|w| *w = 0);
        self.pair_meta.iter_mut().for_each(|w| *w = 0);
        self.targets.clear();
        self.free_slots.clear();
        self.backlog.clear();
        self.poll_at = None;
        self.scheduled_polls.clear();
    }
}

#[derive(Debug, Clone)]
enum EdmEv {
    /// A flow's demand reaches the switch. Carries the flow by value:
    /// lazily admitted worlds never hold a `Vec<Flow>`.
    DemandArrives { idx: u32, flow: Flow },
    /// Scheduler poll.
    Poll,
    /// A chunk's last byte reaches the flow's data destination.
    ChunkDelivered { slot: u32, bytes: u32 },
}

/// When a flow's demand reaches the switch: half an RTT after issue
/// (RREQ or `/N/` flight).
fn demand_time(cluster: &ClusterConfig, flow: &Flow) -> Time {
    flow.arrival + cluster.pipeline_latency / 2 + cluster.prop_delay + cluster.link.tx_time_bytes(8)
}

/// A flow resident in the [`EdmWorld`] active slab.
struct ActiveFlow {
    /// Position in the input order (the sink key).
    idx: u32,
    flow: Flow,
}

/// Memory/lifecycle statistics from a streamed single-switch run
/// ([`EdmProtocol::simulate_streamed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdmStreamStats {
    /// Flows admitted and completed.
    pub completed: u64,
    /// Simulation events dispatched (demand arrivals, polls — superseded
    /// ones included — and chunk deliveries).
    pub events: u64,
    /// Most flows simultaneously resident (admitted, not yet retired).
    pub active_high_water: usize,
    /// High-water mark of the switch's message slab
    /// ([`SwitchDomain::msg_slab_high_water`]).
    pub msg_slab_high_water: usize,
}

/// The single-switch EDM world, generic over how results leave (`sink`,
/// called once per completion with the flow's input position) and where
/// arrivals come from (an optional lazy `source` pulled one flow ahead).
/// Memory is O(active flows): a retired flow's slab slot, pair-FIFO
/// link, and msg-id return to free lists.
struct EdmWorld<F, I> {
    cluster: ClusterConfig,
    domain: SwitchDomain,
    max_active_per_pair: usize,
    /// Active-flow slab, indexed by the domain offer token.
    active: Vec<Option<ActiveFlow>>,
    free: Vec<u32>,
    live: usize,
    active_hwm: usize,
    completed: u64,
    sink: F,
    /// Lazy arrival source and the input position of its next flow. Each
    /// admission pulls (at most) one successor, so only one pending
    /// arrival is ever queued.
    source: Option<(I, u32)>,
}

impl<F: FnMut(u32, FlowOutcome), I: Iterator<Item = Flow>> EdmWorld<F, I> {
    /// Admits a flow into the active slab, returning its token.
    fn admit(&mut self, idx: u32, flow: Flow) -> u32 {
        let entry = ActiveFlow { idx, flow };
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.active[s as usize].is_none());
                self.active[s as usize] = Some(entry);
                s
            }
            None => {
                self.active.push(Some(entry));
                (self.active.len() - 1) as u32
            }
        };
        self.live += 1;
        self.active_hwm = self.active_hwm.max(self.live);
        slot
    }

    /// Pulls the next arrival from the source (if any) and schedules its
    /// demand. Sources emit nondecreasing arrivals, so the demand time
    /// (a constant offset past arrival) never lands in the past.
    fn pull_next(&mut self, q: &mut EventQueue<EdmEv>) {
        let Some((source, next_idx)) = self.source.as_mut() else {
            return;
        };
        let Some(flow) = source.next() else {
            return;
        };
        let idx = *next_idx;
        *next_idx += 1;
        q.schedule_ordered(
            demand_time(&self.cluster, &flow),
            evord::demand(idx),
            EdmEv::DemandArrives { idx, flow },
        );
    }
}

impl<F: FnMut(u32, FlowOutcome), I: Iterator<Item = Flow>> World for EdmWorld<F, I> {
    type Event = EdmEv;

    fn handle(&mut self, now: Time, ev: EdmEv, q: &mut EventQueue<EdmEv>) {
        match ev {
            EdmEv::DemandArrives { idx, flow } => {
                self.pull_next(q);
                let token = self.admit(idx, flow);
                let (s, d) = flow.data_direction();
                let offer = DomainOffer {
                    src: s,
                    dst: d,
                    bytes: flow.size,
                    limit: self.max_active_per_pair,
                    batch_key: 0,
                    token: token as u64,
                };
                schedule_poll(q, self.domain.offer(now, offer));
            }
            EdmEv::Poll => {
                let Some(round) = self.domain.poll(now) else {
                    return;
                };
                let half = self.cluster.pipeline_latency / 2
                    + self.cluster.prop_delay
                    + self.cluster.link.tx_time_bytes(8); // grant block flight
                for g in round.grants {
                    // Grant flies to the sender (half RTT), sender emits the
                    // chunk, chunk flies src -> switch -> dst.
                    let chunk_tx = self.cluster.link.tx_time_bytes(g.chunk_bytes as u64);
                    let data_flight =
                        self.cluster.pipeline_latency / 2 + 2 * self.cluster.prop_delay + chunk_tx;
                    let delivered = now + round.sched_latency + half + data_flight;
                    q.schedule_ordered(
                        delivered,
                        evord::chunk(0, g.gseq),
                        EdmEv::ChunkDelivered {
                            slot: g.slot,
                            bytes: g.chunk_bytes,
                        },
                    );
                }
                schedule_poll(q, round.next_poll);
            }
            EdmEv::ChunkDelivered { slot, bytes } => {
                let EdmWorld {
                    domain,
                    active,
                    free,
                    live,
                    completed,
                    sink,
                    ..
                } = self;
                let poll = domain.deliver(now, slot, bytes, |token, _bytes| {
                    // Retire the flow: emit its outcome, return its slot.
                    let entry = active[token as usize]
                        .take()
                        .expect("completion for a live flow");
                    *live -= 1;
                    *completed += 1;
                    free.push(token as u32);
                    sink(
                        entry.idx,
                        FlowOutcome {
                            flow: entry.flow,
                            completed: now,
                        },
                    );
                });
                schedule_poll(q, poll);
            }
        }
    }
}

/// Queues the `Poll` event the domain asked for, if it asked.
fn schedule_poll(q: &mut EventQueue<EdmEv>, at: Option<Time>) {
    if let Some(t) = at {
        q.schedule_ordered(t, evord::poll(0), EdmEv::Poll);
    }
}

impl EdmProtocol {
    fn scheduler_config(&self, cluster: &ClusterConfig) -> SchedulerConfig {
        SchedulerConfig {
            ports: cluster.nodes,
            chunk_bytes: self.chunk_bytes,
            link: cluster.link,
            policy: self.policy,
            max_active_per_pair: self.max_active_per_pair,
            clock: edm_sched::ASIC_CLOCK,
        }
    }

    fn world<F: FnMut(u32, FlowOutcome), I: Iterator<Item = Flow>>(
        &self,
        cluster: &ClusterConfig,
        sink: F,
        source: Option<(I, u32)>,
    ) -> EdmWorld<F, I> {
        EdmWorld {
            cluster: *cluster,
            domain: SwitchDomain::new(self.scheduler_config(cluster), self.batch_small_messages),
            max_active_per_pair: self.max_active_per_pair,
            active: Vec::new(),
            free: Vec::new(),
            live: 0,
            active_hwm: 0,
            completed: 0,
            sink,
            source,
        }
    }

    /// Simulates a *stream* of arrivals in O(active flows) memory:
    /// arrivals are pulled from `source` one at a time (lazy admission),
    /// each completion streams to `sink` and its state retires to free
    /// lists. Bit-identical to [`FabricProtocol::simulate`] on the same
    /// flow sequence.
    ///
    /// `source` must yield flows in nondecreasing arrival order (every
    /// `FlowSource` in `edm-workloads` does); outcomes reach `sink` in
    /// completion order, not input order.
    pub fn simulate_streamed<I, F>(
        &mut self,
        cluster: &ClusterConfig,
        source: I,
        mut sink: F,
    ) -> EdmStreamStats
    where
        I: Iterator<Item = Flow>,
        F: FnMut(FlowOutcome),
    {
        let mut world = self.world(cluster, |_idx, o| sink(o), Some((source, 0)));
        let mut q = EventQueue::new();
        world.pull_next(&mut q);
        let mut engine = Engine::with_queue(world, q);
        engine.run();
        let events = engine.steps();
        let world = engine.into_world();
        assert_eq!(world.live, 0, "flows stalled without completing");
        EdmStreamStats {
            completed: world.completed,
            events,
            active_high_water: world.active_hwm,
            msg_slab_high_water: world.domain.msg_slab_high_water(),
        }
    }
}

impl FabricProtocol for EdmProtocol {
    fn name(&self) -> &'static str {
        "EDM"
    }

    fn simulate(&mut self, cluster: &ClusterConfig, flows: &[Flow]) -> SimResult {
        // The collecting sink keys outcomes by input position, so input
        // order is preserved even for unsorted arrival lists.
        let mut results: Vec<Option<FlowOutcome>> = vec![None; flows.len()];
        {
            let world = self.world(
                cluster,
                |idx, o| results[idx as usize] = Some(o),
                None::<(std::iter::Empty<Flow>, u32)>,
            );
            let mut engine = Engine::new(world);
            for (i, f) in flows.iter().enumerate() {
                engine.queue_mut().schedule_ordered(
                    demand_time(cluster, f),
                    evord::demand(i as u32),
                    EdmEv::DemandArrives {
                        idx: i as u32,
                        flow: *f,
                    },
                );
            }
            engine.run();
        }
        let outcomes = results
            .into_iter()
            .map(|o| o.expect("all flows complete when the queue drains"))
            .collect();
        SimResult {
            protocol: self.name(),
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: n,
            ..ClusterConfig::default()
        }
    }

    fn write_flow(id: usize, src: usize, dst: usize, size: u32, at_ns: u64) -> Flow {
        Flow {
            id,
            src,
            dst,
            size,
            arrival: Time::from_ns(at_ns),
            kind: FlowKind::Write,
        }
    }

    #[test]
    fn single_write_completes_near_ideal() {
        let c = cluster(8);
        let flows = vec![write_flow(0, 0, 1, 64, 0)];
        let r = EdmProtocol::default().simulate(&c, &flows);
        let norm = r.outcomes[0].mct().ratio(ideal_mct(&c, &flows[0]));
        assert!(
            (0.8..1.6).contains(&norm),
            "unloaded write normalized MCT {norm}"
        );
    }

    #[test]
    #[should_panic(expected = "(X) must be at least 1")]
    fn zero_pair_limit_is_rejected_before_the_run() {
        // Used to end in "all flows complete when the queue drains": the
        // one offer sat in a backlog nothing drains.
        let mut proto = EdmProtocol {
            max_active_per_pair: 0,
            ..EdmProtocol::default()
        };
        proto.simulate(&cluster(4), &[write_flow(0, 0, 1, 64, 0)]);
    }

    #[test]
    fn single_read_completes_near_ideal() {
        let c = cluster(8);
        let flows = vec![Flow {
            id: 0,
            src: 0,
            dst: 1,
            size: 64,
            arrival: Time::ZERO,
            kind: FlowKind::Read,
        }];
        let r = EdmProtocol::default().simulate(&c, &flows);
        let norm = r.outcomes[0].mct().ratio(ideal_mct(&c, &flows[0]));
        assert!(
            (0.7..1.6).contains(&norm),
            "unloaded read normalized {norm}"
        );
    }

    #[test]
    fn incast_serializes_but_does_not_collapse() {
        // 8-to-1 incast of 256 B writes: EDM must serialize them (zero
        // queuing means one sender at a time) with no pathological delay.
        let c = cluster(16);
        let flows: Vec<Flow> = (0..8).map(|i| write_flow(i, i, 15, 256, 0)).collect();
        let r = EdmProtocol::default().simulate(&c, &flows);
        let mcts: Vec<f64> = r.outcomes.iter().map(|o| o.mct().as_ns_f64()).collect();
        let max = mcts.iter().cloned().fold(0.0, f64::max);
        // 8 chunks of 256 B at 100 G = 8 x 20.5 ns serialization; with
        // control latency the last finisher should still be < 1 us.
        assert!(max < 1000.0, "worst incast MCT {max} ns");
    }

    #[test]
    fn disjoint_pairs_run_in_parallel() {
        let c = cluster(8);
        let flows: Vec<Flow> = (0..4)
            .map(|i| write_flow(i, i * 2, i * 2 + 1, 256, 0))
            .collect();
        let r = EdmProtocol::default().simulate(&c, &flows);
        let mcts: Vec<f64> = r.outcomes.iter().map(|o| o.mct().as_ns_f64()).collect();
        let spread = mcts.iter().cloned().fold(0.0, f64::max)
            - mcts.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread < 50.0,
            "disjoint pairs should complete together, spread {spread} ns"
        );
    }

    #[test]
    fn multi_chunk_flow_completes_with_all_bytes() {
        let c = cluster(4);
        let flows = vec![write_flow(0, 0, 1, 4096, 0)];
        let r = EdmProtocol::default().simulate(&c, &flows);
        // 4096 B = 16 chunks of 256 B; chunk pipeline is back-to-back, so
        // MCT ≈ control latency + 16 x 20.48 ns ≈ 330 + 100 ns.
        let mct = r.outcomes[0].mct().as_ns_f64();
        let ser = c.link.tx_time_bytes(4096).as_ns_f64();
        assert!(mct >= ser, "MCT {mct} cannot beat serialization {ser}");
        assert!(mct < ser + 500.0, "MCT {mct} ns has excessive overhead");
    }

    #[test]
    fn x_limit_backlog_drains() {
        // 10 messages on one pair with X=3: all must still complete.
        let c = cluster(4);
        let flows: Vec<Flow> = (0..10).map(|i| write_flow(i, 0, 1, 64, 0)).collect();
        let r = EdmProtocol::default().simulate(&c, &flows);
        assert_eq!(r.outcomes.len(), 10);
        for o in &r.outcomes {
            assert!(o.completed > o.flow.arrival);
        }
    }

    #[test]
    fn srpt_favors_short_flows_under_contention() {
        let c = cluster(4);
        let flows = vec![
            write_flow(0, 0, 2, 64 * 1024, 0), // elephant
            write_flow(1, 1, 2, 64, 10),       // mouse, arrives just after
        ];
        let r = EdmProtocol {
            policy: Policy::Srpt,
            ..EdmProtocol::default()
        }
        .simulate(&c, &flows);
        let mouse = r.outcomes[1].mct().as_ns_f64();
        let elephant = r.outcomes[0].mct().as_ns_f64();
        assert!(
            mouse < elephant / 3.0,
            "SRPT should finish the mouse ({mouse} ns) long before the elephant ({elephant} ns)"
        );
    }

    #[test]
    fn mega_batching_completes_hot_pair_backlog() {
        // 30 small messages on one pair: with batching the backlog folds
        // into mega messages; everything must still complete, in order.
        let c = cluster(4);
        let flows: Vec<Flow> = (0..30).map(|i| write_flow(i, 0, 1, 64, 0)).collect();
        let batched = EdmProtocol {
            batch_small_messages: true,
            ..EdmProtocol::default()
        }
        .simulate(&c, &flows);
        assert_eq!(batched.outcomes.len(), 30);
        for o in &batched.outcomes {
            assert!(o.completed > o.flow.arrival);
        }
        // Batching needs fewer notifications, so the tail completes no
        // later than without batching.
        let plain = EdmProtocol::default().simulate(&c, &flows);
        let tail = |r: &SimResult| r.outcomes.iter().map(|o| o.completed).max().unwrap();
        assert!(tail(&batched) <= tail(&plain));
    }

    #[test]
    fn mega_batching_preserves_per_flow_order() {
        let c = cluster(4);
        let flows: Vec<Flow> = (0..12)
            .map(|i| write_flow(i, 0, 1, 64 + 32 * (i as u32 % 3), i as u64))
            .collect();
        let r = EdmProtocol {
            batch_small_messages: true,
            ..EdmProtocol::default()
        }
        .simulate(&c, &flows);
        // Same-pair messages complete in arrival order (EDM's in-order
        // guarantee within a pair, §3.1.1 property 5).
        for w in r.outcomes.windows(2) {
            assert!(
                w[0].completed <= w[1].completed,
                "pair order violated: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    fn pair_offer(token: u64, bytes: u32) -> DomainOffer {
        DomainOffer {
            src: 0,
            dst: 1,
            bytes,
            limit: 1,
            batch_key: token,
            token,
        }
    }

    fn domain4() -> SwitchDomain {
        SwitchDomain::new(edm_sched::SchedulerConfig::default_for_ports(4), false)
    }

    #[test]
    fn domain_cancel_withdraws_backlogged_and_admitted_demand() {
        let mut dom = domain4();
        assert_eq!(dom.offer(Time::ZERO, pair_offer(1, 1000)), Some(Time::ZERO));
        assert_eq!(
            dom.offer(Time::ZERO, pair_offer(2, 500)),
            None,
            "X=1 backlogs"
        );
        // The backlogged offer drops without ever being notified.
        let quiet = DomainCancel::Withdrawn { poll: None };
        assert_eq!(dom.cancel(Time::ZERO, 0, 1, 2), quiet);
        // The admitted offer's scheduler message is withdrawn.
        assert_eq!(dom.cancel(Time::ZERO, 0, 1, 1), quiet);
        assert_eq!(
            dom.cancel(Time::ZERO, 0, 1, 1),
            DomainCancel::NotFound,
            "nothing left to cancel"
        );
        // The event the first offer asked for still fires, finds no
        // demand, and asks for nothing more.
        let round = dom.poll(Time::ZERO).expect("the queued event is live");
        assert!(round.grants.is_empty());
        assert_eq!(round.next_poll, None);
    }

    #[test]
    fn domain_cancel_admits_the_backlog_like_a_completion() {
        let mut dom = domain4();
        assert_eq!(dom.offer(Time::ZERO, pair_offer(1, 1000)), Some(Time::ZERO));
        assert_eq!(dom.offer(Time::ZERO, pair_offer(2, 500)), None);
        // The backlogged offer takes the slot; the event already queued
        // for this instant serves it.
        let quiet = DomainCancel::Withdrawn { poll: None };
        assert_eq!(dom.cancel(Time::ZERO, 0, 1, 1), quiet);
        let round = dom.poll(Time::ZERO).expect("live");
        assert_eq!(round.grants.len(), 1);
        assert_eq!(round.grants[0].token, 2);
    }

    #[test]
    fn deliver_asks_for_a_poll_only_when_the_backlog_admits() {
        let mut dom = domain4();
        let t = Time::from_ns;
        // Nothing backlogged: a completion changes nothing a round could
        // grant.
        assert_eq!(dom.offer(t(0), pair_offer(1, 100)), Some(t(0)));
        let g = dom.poll(t(0)).expect("live").grants[0];
        assert_eq!(dom.deliver(t(0), g.slot, g.chunk_bytes, |_, _| {}), None);
        // Pair 0->1 (X = 1) has a two-chunk message admitted and one
        // backlogged; pair 2->3 has a single chunk.
        assert_eq!(dom.offer(t(100), pair_offer(2, 300)), Some(t(100)));
        assert_eq!(dom.offer(t(100), pair_offer(3, 100)), None, "X=1 backlogs");
        let other = DomainOffer {
            src: 2,
            dst: 3,
            ..pair_offer(4, 100)
        };
        // Admitted, but the event for this instant is already queued.
        assert_eq!(dom.offer(t(100), other), None);
        let round = dom.poll(t(100)).expect("live");
        let first: Vec<DomainGrant> = round.grants.to_vec();
        let second_chunk = round.next_poll.expect("message 2 has a chunk left");
        assert_eq!(first.len(), 2);
        // 2->3 completes: the backlog head is popped, finds its pair
        // still at the bound and goes back to wait. Still nothing new.
        let g = first.iter().find(|g| g.src == 2).expect("granted");
        assert_eq!(dom.deliver(t(100), g.slot, g.chunk_bytes, |_, _| {}), None);
        // A chunk that does not finish its message frees nothing.
        let g = first.iter().find(|g| g.src == 0).expect("granted");
        assert_eq!(dom.deliver(t(100), g.slot, g.chunk_bytes, |_, _| {}), None);
        // The pair's own completion frees the slot: the waiter is
        // notified, and that is worth a round.
        let g = dom.poll(second_chunk).expect("live").grants[0];
        assert_eq!(
            dom.deliver(t(200), g.slot, g.chunk_bytes, |_, _| {}),
            Some(t(200))
        );
        assert_eq!(dom.poll(t(200)).expect("live").grants[0].token, 3);
    }

    #[test]
    fn second_same_instant_offer_schedules_nothing() {
        let mut dom = SwitchDomain::new(edm_sched::SchedulerConfig::default_for_ports(8), false);
        let offer = |i: u64| DomainOffer {
            src: 2 * i as u16,
            dst: 2 * i as u16 + 1,
            bytes: 64,
            limit: 3,
            batch_key: i,
            token: i,
        };
        // One event per instant: later same-instant offers ride on it.
        assert_eq!(dom.offer(Time::ZERO, offer(0)), Some(Time::ZERO));
        assert_eq!(dom.offer(Time::ZERO, offer(1)), None);
        assert_eq!(dom.offer(Time::ZERO, offer(2)), None);
        // One round serves all three, with a monotone grant sequence.
        let round = dom.poll(Time::ZERO).expect("live");
        let gseqs: Vec<u64> = round.grants.iter().map(|g| g.gseq).collect();
        assert_eq!(gseqs, vec![0, 1, 2]);
    }

    #[test]
    fn streamed_simulate_is_bit_identical_to_vec_path() {
        // Lazy admission from a source must not perturb a single event:
        // same flows in sorted-arrival order, same completions.
        let c = cluster(16);
        let flows: Vec<Flow> = (0..60)
            .map(|i| {
                let size = 64 + 96 * (i as u32 % 5);
                let mut f = write_flow(i, i % 8, 8 + (i * 3) % 8, size, (i as u64 * 7) % 200);
                if i % 3 == 0 {
                    f.kind = FlowKind::Read;
                }
                f
            })
            .collect();
        let mut sorted = flows.clone();
        sorted.sort_by_key(|f| f.arrival);
        for (id, f) in sorted.iter_mut().enumerate() {
            f.id = id;
        }
        for batching in [false, true] {
            let mut proto = EdmProtocol {
                batch_small_messages: batching,
                ..EdmProtocol::default()
            };
            let reference = proto.simulate(&c, &sorted);
            let mut streamed = Vec::new();
            let stats = proto.simulate_streamed(&c, sorted.iter().copied(), |o| streamed.push(o));
            assert_eq!(stats.completed, sorted.len() as u64);
            streamed.sort_by_key(|o| o.flow.id);
            assert_eq!(streamed, reference.outcomes, "batching={batching}");
            assert!(stats.active_high_water <= sorted.len());
            assert!(stats.active_high_water >= 1);
        }
    }

    #[test]
    fn streamed_waves_bound_slab_high_water() {
        // N sequential waves of the same hot-pair burst: retirement must
        // recycle slots, so the slab high-water mark tracks one wave's
        // in-flight footprint, not the total flow count.
        let c = cluster(4);
        let wave = 8usize;
        let hwm_of = |waves: usize| {
            let flows = (0..waves * wave).map(|i| {
                // Waves 40 us apart: each drains before the next starts.
                write_flow(i, 0, 1, 256, (i / wave) as u64 * 40_000)
            });
            EdmProtocol::default().simulate_streamed(&c, flows, |_| {})
        };
        let one = hwm_of(1);
        let many = hwm_of(12);
        assert_eq!(
            many.msg_slab_high_water, one.msg_slab_high_water,
            "slab must not grow across waves"
        );
        assert_eq!(many.active_high_water, one.active_high_water);
        assert_eq!(many.completed, 12 * wave as u64);
    }

    #[test]
    fn domain_slots_recycle_after_completion_and_cancel() {
        let mut dom = domain4();
        assert!(dom.offer(Time::ZERO, pair_offer(1, 100)).is_some());
        assert_eq!(dom.msg_slots_live(), 1);
        // Deliver the full message in one chunk: slot retires.
        let g = dom.poll(Time::ZERO).expect("live").grants[0];
        let mut done = Vec::new();
        dom.deliver(Time::ZERO, g.slot, g.chunk_bytes, |t, b| done.push((t, b)));
        assert_eq!(done, vec![(1, 100)]);
        assert_eq!(dom.msg_slots_live(), 0);
        let hwm = dom.msg_slab_high_water();
        // A second message reuses the retired slot.
        assert!(dom.offer(Time::ZERO, pair_offer(2, 100)).is_some());
        assert_eq!(dom.msg_slab_high_water(), hwm, "no slab growth");
        // Cancel with nothing in flight retires immediately.
        assert_ne!(dom.cancel(Time::ZERO, 0, 1, 2), DomainCancel::NotFound);
        assert_eq!(dom.msg_slots_live(), 0);
        assert_eq!(dom.msg_slab_high_water(), hwm);
    }

    #[test]
    fn cancelled_slot_retires_only_after_inflight_chunks_land() {
        let mut dom = domain4();
        // Multi-chunk message; grant one chunk, then cancel the rest.
        assert!(dom.offer(Time::ZERO, pair_offer(1, 1000)).is_some());
        let grants = dom.poll(Time::ZERO).expect("live").grants;
        assert_eq!(grants.len(), 1);
        let g = grants[0];
        assert!(g.chunk_bytes < 1000, "must leave a remainder in flight");
        assert_ne!(dom.cancel(Time::ZERO, 0, 1, 1), DomainCancel::NotFound);
        assert_eq!(dom.msg_slots_live(), 1, "in-flight chunk pins the slot");
        // The granted chunk lands: no completion fires, the slot frees.
        let poll = dom.deliver(Time::from_ns(100), g.slot, g.chunk_bytes, |_, _| {
            panic!("cancelled message must not complete")
        });
        assert_eq!(poll, None);
        assert_eq!(dom.msg_slots_live(), 0);
    }

    #[test]
    fn purge_reports_resident_offers_and_cold_starts_the_domain() {
        let mut dom = domain4();
        // One scheduled multi-chunk message, one cancelled, one backlogged.
        assert!(dom.offer(Time::ZERO, pair_offer(1, 1000)).is_some());
        let gseq_before = dom.poll(Time::ZERO).expect("live").grants[0].gseq;
        assert_eq!(
            dom.offer(Time::ZERO, pair_offer(2, 500)),
            None,
            "X=1 backlogs"
        );
        assert!(dom
            .offer(
                Time::ZERO,
                DomainOffer {
                    src: 2,
                    dst: 3,
                    bytes: 64,
                    limit: 1,
                    batch_key: 9,
                    token: 9,
                }
            )
            .is_some());
        assert_ne!(dom.cancel(Time::ZERO, 2, 3, 9), DomainCancel::NotFound);
        let hwm = dom.msg_slab_high_water();
        assert_eq!(dom.rounds(), (1, 0, 1));
        let mut dead = Vec::new();
        dom.purge(&mut dead);
        dead.sort_unstable();
        // The cancelled offer's reference was already released; only the
        // backlogged and scheduled offers report.
        assert_eq!(dead, vec![1, 2]);
        assert_eq!(dom.msg_slots_live(), 0);
        assert_eq!(dom.msg_slab_high_water(), hwm, "peak survives the purge");
        // The purge forgot the pending wake-ups with the demand: their
        // events fire as no-ops.
        assert!(dom.poll(Time::ZERO).is_none());
        // The revived domain schedules fresh demand, with gseq continuing
        // past the pre-outage grants.
        assert!(dom.offer(Time::from_ns(50), pair_offer(7, 64)).is_some());
        let grants = dom.poll(Time::from_ns(50)).expect("live").grants;
        assert_eq!(grants[0].token, 7);
        assert!(grants[0].gseq > gseq_before, "gseq stays monotone");
        assert_eq!(dom.rounds(), (2, 0, 2), "round totals span the purge");
    }

    #[test]
    fn normalized_summary_works() {
        let c = cluster(4);
        let flows = vec![write_flow(0, 0, 1, 64, 0)];
        let r = EdmProtocol::default().simulate(&c, &flows);
        let s = r.normalized_mct(|f| ideal_mct(&c, f));
        assert_eq!(s.count(), 1);
        assert!(s.mean() > 0.5);
    }
}
