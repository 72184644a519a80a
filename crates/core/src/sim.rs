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

use edm_sched::{Notification, PollResult, Scheduler};
/// The scheduler settings [`SwitchDomain::new`] and [`EdmProtocol`] take.
pub use edm_sched::{Policy, SchedulerConfig};
use edm_sim::{Bandwidth, Duration, Engine, EventQueue, Summary, Time, World};

/// One-hop propagation delay of every [`ClusterConfig`] link.
pub const PROP_DELAY: Duration = Duration::from_ns(10);

/// X, the paper's bound on a source–destination pair's active
/// notifications (§3.1.2): the default of every access pair.
pub const MAX_ACTIVE_PER_PAIR: usize = 3;

/// Why X = 0 is refused where it enters ([`EdmProtocol`], `edm-topo`'s
/// `TopoEdm`, [`SwitchDomain::offer`]): every offer would wait for a
/// completion that cannot come.
pub const ZERO_PAIR_LIMIT: &str = "max active notifications per pair (X) must be at least 1";

/// Cluster-wide configuration shared by every protocol.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of nodes (the paper simulates 144).
    pub nodes: usize,
    /// Link bandwidth (scaled to 100 Gb/s in §4.3).
    pub link: Bandwidth,
    /// Fixed per-direction fabric pipeline latency added to every message
    /// (host stacks + switch, from the Table 1 model).
    pub pipeline_latency: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 144,
            link: Bandwidth::from_gbps(100),
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
    let ctrl_hop = cluster.pipeline_latency / 2 + PROP_DELAY + cluster.link.tx_time_bytes(8);
    let data_hop = cluster.pipeline_latency / 2
        + 2 * PROP_DELAY
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
}

impl Default for EdmProtocol {
    fn default() -> Self {
        EdmProtocol {
            chunk_bytes: 256,
            policy: Policy::Srpt,
            max_active_per_pair: MAX_ACTIVE_PER_PAIR,
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
    /// with a larger share. From 1 to 255: a waiting offer keeps it in
    /// one byte (`offer` panics outside that range).
    pub limit: usize,
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
    /// Token of the granted message's offer.
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
    /// No offer with that token is waiting or ungranted.
    NotFound,
    /// The offer's ungranted remainder was withdrawn.
    Withdrawn {
        /// When the caller must schedule a `Poll` event: the freed X
        /// slot announced the pair's oldest waiter as its head, so the
        /// scheduler holds demand its last round did not see (a round
        /// when its ports free). `None` otherwise — a waiter withdrawn, a
        /// pair with none behind it, or a head replaced by the message
        /// announced behind it, whose ports the head's wake-up already
        /// covers: withdrawn demand never makes a round worth running
        /// sooner.
        poll: Option<Time>,
    },
}

/// A message: one offer, announced or waiting past X in its pair's FIFO.
/// Its size is pinned (`msg_state_stays_32_bytes`): the slab holds one
/// per resident message at every switch.
#[derive(Debug)]
struct MsgState {
    /// The offer's caller tag.
    token: u64,
    /// The offer's size.
    bytes: u32,
    delivered: u32,
    /// Bytes granted so far — the in-flight watermark that decides when a
    /// cancelled message's slot can be reclaimed (no grants outstanding).
    granted: u32,
    /// Next ungranted message of the same pair — the pair's FIFO as an
    /// intrusive list through the slab (slot index + 1; 0 = last).
    next_in_pair: u32,
    /// The offer's ports and X bound, to announce it after it waited.
    src: u16,
    dst: u16,
    limit: u8,
    /// Whether the ungranted remainder was withdrawn ([`SwitchDomain::cancel`]).
    /// A cancelled message never completes; its slot frees once every
    /// already-granted chunk has landed.
    cancelled: bool,
}

impl MsgState {
    /// Keeps the instant a message announced behind its pair's head was
    /// announced — its FCFS key — until it reaches the scheduler. Until
    /// then nothing of it is granted or delivered, so those two words
    /// hold the instant.
    fn hold_announce(&mut self, at: Time) {
        let ps = at.as_ps();
        (self.granted, self.delivered) = ((ps >> 32) as u32, ps as u32);
    }

    /// The instant [`MsgState::hold_announce`] kept, leaving the words
    /// zero for the grants to come.
    fn take_announce(&mut self) -> Time {
        let ps = (self.granted as u64) << 32 | self.delivered as u64;
        (self.granted, self.delivered) = (0, 0);
        Time::from_ps(ps)
    }
}

/// A source port's entry for one destination it holds messages for:
/// the pair's FIFO of ungranted messages in offer order, announced ones
/// before waiting ones. Grants within a pair are strictly FIFO (§3.1.1
/// property 5): only the head is ever in the scheduler, so the head *is*
/// the granted message. The entry lives exactly as long as its FIFO
/// holds a message.
#[derive(Debug, Clone, Copy)]
struct Pair {
    dst: u16,
    /// Slots of the FIFO's first and last messages.
    head: u32,
    tail: u32,
    /// Messages waiting past X, the FIFO's last ones.
    waiting: u32,
    /// Announced messages, the FIFO's first ones: the pair's X count.
    announced: u32,
}

/// One EDM switch's scheduling state as seen by an event-driven world: a
/// demand-sparse [`Scheduler`] plus every per-pair rule — the pair's
/// FIFO (offers waiting past X included), its X bound (§3.1.2), each
/// announced message's FCFS key — and poll-event deduplication. The
/// scheduler holds one message per pair, the pair's head; the message
/// behind it is notified, under the instant it was announced, when the
/// head is granted in full or withdrawn. Every offer is its own
/// scheduled message: §3.1.2 small-message batching is not modelled.
///
/// The domain is event-queue agnostic and owns the poll protocol: every
/// method that can make a grant possible returns *when the caller must
/// schedule a `Poll` event* — the first instant a round can grant what
/// changed, or `None` when nothing changed a round could act on, when the
/// live wake-up comes no later, or when an event for that instant is
/// already queued — and
/// [`SwitchDomain::poll`] takes the firing event's time and ignores
/// superseded wake-ups. A world schedules exactly the events it is told
/// to and decides nothing itself, so the same state machine drives the
/// single-switch [`EdmProtocol`] world, the byte-moving
/// [`crate::testbed`], `edm-topo`'s multi-switch fabrics (one domain per
/// switch) and `edm-approx`'s link replays.
#[derive(Debug)]
pub struct SwitchDomain {
    scheduler: Scheduler,
    /// Per source port, the entries of the pairs that hold messages.
    pairs: Vec<Vec<Pair>>,
    targets: Vec<MsgState>,
    /// Retired message slots awaiting reuse (LIFO). Slots return here when
    /// a message completes, a waiter is withdrawn, or a cancelled message's
    /// last in-flight chunk lands, so `targets` grows to the resident
    /// high-water mark — not the total message count — under streaming.
    free_slots: Vec<u32>,
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
    pub fn new(config: SchedulerConfig) -> Self {
        SwitchDomain {
            scheduler: Scheduler::new(config),
            pairs: vec![Vec::new(); config.ports],
            targets: Vec::new(),
            free_slots: Vec::new(),
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
    /// simultaneously resident, waiters included. Under streaming churn
    /// this is bounded by peak resident messages, not total messages —
    /// the assertion the slab-reuse tests pin.
    pub fn msg_slab_high_water(&self) -> usize {
        self.slab_hwm.max(self.targets.len())
    }

    /// Messages currently resident (waiting, announced, or draining
    /// in-flight chunks): slab size minus retired slots awaiting reuse.
    pub fn msg_slots_live(&self) -> usize {
        self.targets.len() - self.free_slots.len()
    }

    /// Where `(src, dst)`'s entry sits in `src`'s list, if the pair
    /// holds messages.
    fn find_pair(&self, src: u16, dst: u16) -> Option<usize> {
        self.pairs[src as usize].iter().position(|p| p.dst == dst)
    }

    /// Offers one message's demand. Returns when the caller must
    /// schedule a `Poll` event: the instant both its ports are free —
    /// `now` if they already are — unless the round already due at or
    /// before then will see it, or an event for that instant is queued;
    /// `None` if it waits past its pair's X bound or behind its pair's
    /// announced head (the completions and rounds that serve those will see it).
    ///
    /// # Panics
    ///
    /// If `offer.limit` is 0 or above 255.
    pub fn offer(&mut self, now: Time, offer: DomainOffer) -> Option<Time> {
        if self.admit(now, offer) == Some(true) {
            self.wake_for(now, offer.src, offer.dst)
        } else {
            None
        }
    }

    /// [`SwitchDomain::offer`] for a chunk forwarded from another switch
    /// (an arrival that is its own notification). An uncontended
    /// store-and-forward hop — the chunk is the switch's only demand and
    /// both its ports are free — forces the round's outcome, so the round
    /// runs inline instead of costing a `Poll` event. Otherwise, as
    /// `offer`, when its ports free. Hop-0 demand must use
    /// [`SwitchDomain::offer`]: an inline round precedes same-instant
    /// arrivals a `Poll` event would have followed.
    pub fn offer_forwarded(&mut self, now: Time, offer: DomainOffer) -> Forwarded<'_> {
        match self.admit(now, offer) {
            None => Forwarded::Queued(None),
            Some(_) if self.sole_eligible_demand(now, offer.src, offer.dst) => {
                Forwarded::Granted(self.round(now))
            }
            Some(head) => Forwarded::Queued(if head {
                self.wake_for(now, offer.src, offer.dst)
            } else {
                None
            }),
        }
    }

    /// Queues one offer at the tail of its pair's FIFO. Returns `None`
    /// when it waits past X, else whether it was announced as the pair's
    /// head.
    fn admit(&mut self, now: Time, offer: DomainOffer) -> Option<bool> {
        assert!(offer.limit > 0, "{ZERO_PAIR_LIMIT}");
        assert!(offer.limit < 256, "per-pair X bound {} > 255", offer.limit);
        let slot = self.push_msg(&offer);
        let list = &mut self.pairs[offer.src as usize];
        let pi = match list.iter().position(|p| p.dst == offer.dst) {
            Some(pi) => {
                self.targets[list[pi].tail as usize].next_in_pair = slot as u32 + 1;
                list[pi].tail = slot as u32;
                pi
            }
            None => {
                list.push(Pair {
                    dst: offer.dst,
                    head: slot as u32,
                    tail: slot as u32,
                    waiting: 0,
                    announced: 0,
                });
                list.len() - 1
            }
        };
        // Host message-queue FIFO: a new message may not overtake older
        // same-pair messages still waiting.
        let pair = &mut list[pi];
        if pair.waiting == 0 && pair.announced < offer.limit as u32 {
            Some(self.announce(now, offer.src, pi, slot))
        } else {
            pair.waiting += 1;
            None
        }
    }

    /// Stores a new message, reusing a retired slot when one is free.
    /// Returns its slot.
    fn push_msg(&mut self, offer: &DomainOffer) -> usize {
        let state = MsgState {
            token: offer.token,
            bytes: offer.bytes,
            delivered: 0,
            granted: 0,
            next_in_pair: 0,
            src: offer.src,
            dst: offer.dst,
            limit: offer.limit as u8,
            cancelled: false,
        };
        match self.free_slots.pop() {
            Some(free) => {
                self.targets[free as usize] = state;
                free as usize
            }
            None => {
                self.targets.push(state);
                self.slab_hwm = self.slab_hwm.max(self.targets.len());
                self.targets.len() - 1
            }
        }
    }

    /// Announces a message: it takes one of its pair's X slots. The
    /// pair's first announced message is its head and reaches the
    /// scheduler at once; any other keeps `now` as its FCFS key until the
    /// messages before it leave. Returns whether it is the head.
    fn announce(&mut self, now: Time, src: u16, pi: usize, slot: usize) -> bool {
        let pair = &mut self.pairs[src as usize][pi];
        pair.announced += 1;
        let head = pair.announced == 1;
        if head {
            self.notify(now, slot);
        } else {
            self.targets[slot].hold_announce(now);
        }
        head
    }

    /// Queues the pair head in `slot` in the scheduler, keyed at `at`.
    fn notify(&mut self, at: Time, slot: usize) {
        let st = &self.targets[slot];
        // One message per pair is queued, so it needs no tag.
        let n = Notification::new(st.src, st.dst, 0, st.bytes);
        if let Err(e) = self.scheduler.notify(at, n) {
            panic!("unexpected notify error: {e}");
        }
    }

    /// Unlinks `slot`, which follows `prev` (`None`: it is the head), from
    /// the FIFO of `src`'s pair `pi`, whose counts no longer include it.
    /// Drops the pair's entry when that empties the FIFO; otherwise, if
    /// the head left and a message was announced behind it, that message
    /// is the new head and reaches the scheduler under the instant it was
    /// announced. Returns whether it did.
    fn unlink(&mut self, src: u16, pi: usize, prev: Option<usize>, slot: usize) -> bool {
        let next = self.targets[slot].next_in_pair;
        let list = &mut self.pairs[src as usize];
        let pair = &mut list[pi];
        match prev {
            Some(prev) => {
                self.targets[prev].next_in_pair = next;
                if next == 0 {
                    pair.tail = prev as u32;
                }
                false
            }
            None if next == 0 => {
                debug_assert!(pair.waiting == 0 && pair.announced == 0);
                list.swap_remove(pi);
                false
            }
            None => {
                pair.head = next - 1;
                if pair.announced == 0 {
                    return false;
                }
                let head = pair.head as usize;
                let at = self.targets[head].take_announce();
                self.notify(at, head);
                true
            }
        }
    }

    /// Announces the pair's oldest waiter after one of the pair's
    /// messages finished or was withdrawn. Returns whether it was
    /// announced as the pair's head — `false` also when nothing of the
    /// pair waits or the pair is still at its X bound (the waiter stays
    /// put).
    fn announce_waiter(&mut self, now: Time, src: u16, dst: u16) -> bool {
        let Some(pi) = self.find_pair(src, dst) else {
            return false;
        };
        let pair = &mut self.pairs[src as usize][pi];
        if pair.waiting == 0 {
            return false;
        }
        // Announced messages are a prefix of the FIFO: skip them.
        let mut slot = pair.head as usize;
        for _ in 0..pair.announced {
            slot = (self.targets[slot].next_in_pair - 1) as usize;
        }
        if pair.announced >= self.targets[slot].limit as u32 {
            return false;
        }
        pair.waiting -= 1;
        self.announce(now, src, pi, slot)
    }

    /// Asks for a round on behalf of a pair head just announced on `(src,
    /// dst)`: at the instant the scheduler can first grant it, not before
    /// `now` (`edm_sched::Scheduler::grantable_at`). A round between `now`
    /// and then could not grant it, and every other queued message
    /// already has its wake-up. Returns that instant when the caller must
    /// schedule the `Poll` event.
    fn wake_for(&mut self, now: Time, src: u16, dst: u16) -> Option<Time> {
        debug_assert!(self.has_demand(), "a round without demand is a no-op");
        let at = self.scheduler.grantable_at(src, dst).max(now);
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
        let mut next_poll = result.next_wakeup;
        self.grants_scratch.clear();
        for g in &result.grants {
            // Grants within a pair are FIFO, so the granted message is
            // the head of the pair's list.
            let pi = self
                .find_pair(g.src, g.dest)
                .expect("grant for unknown message");
            let pair = &mut self.pairs[g.src as usize][pi];
            let slot = pair.head as usize;
            if g.is_final() {
                pair.announced -= 1;
                // The new head waits for this chunk's ports: its round
                // is the one they free at.
                if self.unlink(g.src, pi, None, slot) {
                    let at = self.scheduler.grantable_at(g.src, g.dest);
                    next_poll = Some(next_poll.map_or(at, |t| t.min(at)));
                }
            }
            self.targets[slot].granted += g.chunk_bytes;
            let gseq = self.grant_seq;
            self.grant_seq += 1;
            self.grants_scratch.push(DomainGrant {
                slot: slot as u32,
                src: g.src,
                dst: g.dest,
                chunk_bytes: g.chunk_bytes,
                token: self.targets[slot].token,
                gseq,
            });
        }
        let sched_latency = result.sched_latency;
        self.poll_scratch = result;
        DomainRound {
            grants: &self.grants_scratch,
            sched_latency,
            next_poll,
        }
    }

    /// Records a granted chunk's arrival at its next element;
    /// `on_complete(token, bytes)` fires when it completes the message.
    /// Returns when the caller must schedule a `Poll` event: when the
    /// message finished *and* the X slot it freed announced the pair's
    /// oldest waiting offer as the pair's head — the only way a delivery
    /// changes what a scheduling round can grant — the instant that
    /// offer's ports free (`now` if they are), as for
    /// [`SwitchDomain::offer`].
    ///
    /// Completion is *byte-counted*, not flagged by the final grant:
    /// background-IP jitter can land a small final chunk before its
    /// (larger) predecessor, so the finishing arrival is whichever chunk
    /// brings the delivered total to the message size. A message whose
    /// remainder was [cancelled](Self::cancel) never reaches its total
    /// and therefore never completes or frees a second X slot.
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
        debug_assert!(st.delivered <= st.bytes, "over-delivery");
        if st.delivered >= st.bytes {
            on_complete(st.token, st.bytes);
            // Retire the message; the freed pair slot announces the
            // pair's oldest waiter.
            let (src, dst) = (st.src, st.dst);
            self.free_slots.push(slot);
            if self.announce_waiter(now, src, dst) {
                return self.wake_for(now, src, dst);
            }
        }
        None
    }

    /// Withdraws the ungranted remainder of an offer (by its token):
    /// sender-side demand revocation after a failure reroute.
    ///
    /// Finds the offer in its pair's FIFO and unlinks it. An offer that
    /// never reached the scheduler — waiting past X, or announced behind
    /// the pair's head — simply leaves. The head has its
    /// [`edm_sched::Scheduler`] message cancelled and the message behind
    /// it, if announced, takes its place; chunks already granted stay in
    /// flight and their delivery bookkeeping still runs, but the message
    /// can no longer complete, so no completion callback ever fires for
    /// it. An announced offer's X slot announces the pair's oldest
    /// waiter, exactly like a completion — the outcome says when to
    /// schedule a `Poll` event: when that offer's ports free, as for
    /// [`SwitchDomain::deliver`].
    pub fn cancel(&mut self, now: Time, src: u16, dst: u16, token: u64) -> DomainCancel {
        let Some(pi) = self.find_pair(src, dst) else {
            return DomainCancel::NotFound;
        };
        let mut prev = None;
        let mut slot = self.pairs[src as usize][pi].head as usize;
        for position in 0.. {
            if self.targets[slot].token == token {
                let pair = &mut self.pairs[src as usize][pi];
                if position >= pair.announced {
                    // Waiting: it never held an X slot.
                    pair.waiting -= 1;
                    self.unlink(src, pi, prev, slot);
                    self.free_slots.push(slot as u32);
                    return DomainCancel::Withdrawn { poll: None };
                }
                pair.announced -= 1;
                if position == 0 {
                    let edm_sched::CancelOutcome::Cancelled { .. } =
                        self.scheduler.cancel(src, dst, 0)
                    else {
                        unreachable!("a pair's announced head is always queued");
                    };
                    self.targets[slot].cancelled = true;
                }
                self.unlink(src, pi, prev, slot);
                // A message announced behind the head has nothing in the
                // scheduler or in flight. The head can no longer
                // complete; its slot retires now if nothing is in flight,
                // else when the last granted chunk lands
                // ([`SwitchDomain::deliver`]).
                let st = &self.targets[slot];
                if position > 0 || st.delivered >= st.granted {
                    self.free_slots.push(slot as u32);
                }
                // The X slot freed: announce the pair's oldest waiter.
                let poll = if self.announce_waiter(now, src, dst) {
                    self.wake_for(now, src, dst)
                } else {
                    None
                };
                return DomainCancel::Withdrawn { poll };
            }
            match self.targets[slot].next_in_pair {
                0 => break,
                next => (prev, slot) = (Some(slot), (next - 1) as usize),
            }
        }
        DomainCancel::NotFound
    }

    /// Hard-resets the domain after its switch dies, appending to `dead`
    /// the token of every resident offer that will now never complete —
    /// waiting and announced alike, in slab order. Callers release
    /// whatever references those offers held; cancelled messages report
    /// nothing (their references were already released at cancellation).
    ///
    /// The revived switch comes back like a power-cycled ASIC: cold
    /// scheduler, empty FIFOs, no pending polls. Only the
    /// grant-sequence counter and the slab high-water mark survive — the
    /// former so post-revival [`evord::chunk`] keys can never collide
    /// with chunks granted before the outage, the latter so memory-bound
    /// reporting still sees the true peak. Chunks granted before the
    /// outage must be fenced off by the caller (generation-stamped
    /// settle events) and never handed back to [`SwitchDomain::deliver`].
    pub fn purge(&mut self, dead: &mut Vec<u64>) {
        let mut retired = vec![false; self.targets.len()];
        for &s in &self.free_slots {
            retired[s as usize] = true;
        }
        for (slot, st) in self.targets.iter().enumerate() {
            if !retired[slot] && !st.cancelled {
                dead.push(st.token);
            }
        }
        self.purged_rounds = self.rounds();
        self.scheduler = Scheduler::new(*self.scheduler.config());
        self.pairs.iter_mut().for_each(Vec::clear);
        self.targets.clear();
        self.free_slots.clear();
        self.poll_at = None;
        self.scheduled_polls.clear();
    }
}

#[derive(Debug, Clone)]
enum EdmEv {
    /// A flow's demand reaches the switch. The flow itself waits in
    /// the world's `arriving` slot — only one is ever pending — so no
    /// other event pays for its 40 B.
    DemandArrives { idx: u32 },
    /// Scheduler poll.
    Poll,
    /// A chunk's last byte reaches the flow's data destination.
    ChunkDelivered { slot: u32, bytes: u32 },
}

/// When a flow's demand reaches the switch: half an RTT after issue
/// (RREQ or `/N/` flight).
fn demand_time(cluster: &ClusterConfig, flow: &Flow) -> Time {
    flow.arrival + cluster.pipeline_latency / 2 + PROP_DELAY + cluster.link.tx_time_bytes(8)
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
    /// Scheduling rounds the switch ran ([`SwitchDomain::rounds`]).
    pub rounds: u64,
    /// Rounds that issued no grant.
    pub empty_rounds: u64,
    /// Most flows simultaneously resident (admitted, not yet retired).
    pub active_high_water: usize,
    /// High-water mark of the switch's message slab
    /// ([`SwitchDomain::msg_slab_high_water`]).
    pub msg_slab_high_water: usize,
}

/// The single-switch EDM world, generic over how results leave (`sink`,
/// called once per completion with the flow's input position) and where
/// arrivals come from (`source`, pulled one flow ahead). Memory is
/// O(active flows): a retired flow's slab slot, pair-FIFO link, and
/// msg-id return to free lists.
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
    /// Time-ordered `(input position, flow)` arrivals. Each admission
    /// pulls (at most) one successor, so only one pending arrival is
    /// ever queued.
    source: I,
    /// The pulled arrival whose `DemandArrives` is pending.
    arriving: Option<Flow>,
}

impl<F: FnMut(u32, FlowOutcome), I: Iterator<Item = (u32, Flow)>> EdmWorld<F, I> {
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
    /// demand, a constant offset past its arrival — so a time-ordered
    /// source never schedules into the past.
    fn pull_next(&mut self, now: Time, q: &mut EventQueue<EdmEv>) {
        let Some((idx, flow)) = self.source.next() else {
            return;
        };
        let at = demand_time(&self.cluster, &flow);
        assert!(
            at >= now,
            "streamed sources must emit time-ordered arrivals"
        );
        self.arriving = Some(flow);
        q.schedule_ordered(at, evord::demand(idx), EdmEv::DemandArrives { idx });
    }
}

impl<F: FnMut(u32, FlowOutcome), I: Iterator<Item = (u32, Flow)>> World for EdmWorld<F, I> {
    type Event = EdmEv;

    fn handle(&mut self, now: Time, ev: EdmEv, q: &mut EventQueue<EdmEv>) {
        match ev {
            EdmEv::DemandArrives { idx } => {
                let flow = self
                    .arriving
                    .take()
                    .expect("a demand's flow waits in `arriving`");
                self.pull_next(now, q);
                let token = self.admit(idx, flow);
                let (s, d) = flow.data_direction();
                let offer = DomainOffer {
                    src: s,
                    dst: d,
                    bytes: flow.size,
                    limit: self.max_active_per_pair,
                    token: token as u64,
                };
                schedule_poll(q, self.domain.offer(now, offer));
            }
            EdmEv::Poll => {
                let Some(round) = self.domain.poll(now) else {
                    return;
                };
                let half = self.cluster.pipeline_latency / 2
                    + PROP_DELAY
                    + self.cluster.link.tx_time_bytes(8); // grant block flight
                for g in round.grants {
                    // Grant flies to the sender (half RTT), sender emits the
                    // chunk, chunk flies src -> switch -> dst.
                    let chunk_tx = self.cluster.link.tx_time_bytes(g.chunk_bytes as u64);
                    let data_flight = self.cluster.pipeline_latency / 2 + 2 * PROP_DELAY + chunk_tx;
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
            clock: edm_sched::ASIC_CLOCK,
        }
    }

    /// Runs one world until its queue drains: `source` yields `(input
    /// position, flow)` in nondecreasing arrival order, and every
    /// completion reaches `sink` with its flow's input position.
    fn run<I, F>(&self, cluster: &ClusterConfig, source: I, sink: F) -> EdmStreamStats
    where
        I: Iterator<Item = (u32, Flow)>,
        F: FnMut(u32, FlowOutcome),
    {
        assert!(self.max_active_per_pair > 0, "{ZERO_PAIR_LIMIT}");
        let mut world = EdmWorld {
            cluster: *cluster,
            domain: SwitchDomain::new(self.scheduler_config(cluster)),
            max_active_per_pair: self.max_active_per_pair,
            active: Vec::new(),
            free: Vec::new(),
            live: 0,
            active_hwm: 0,
            completed: 0,
            sink,
            source,
            arriving: None,
        };
        let mut q = EventQueue::new();
        world.pull_next(Time::ZERO, &mut q);
        let mut engine = Engine::with_queue(world, q);
        engine.run();
        let events = engine.steps();
        let world = engine.into_world();
        assert_eq!(world.live, 0, "flows stalled without completing");
        let (rounds, empty_rounds, _) = world.domain.rounds();
        EdmStreamStats {
            completed: world.completed,
            events,
            rounds,
            empty_rounds,
            active_high_water: world.active_hwm,
            msg_slab_high_water: world.domain.msg_slab_high_water(),
        }
    }

    /// Simulates a *stream* of arrivals in O(active flows) memory:
    /// arrivals are pulled from `source` one at a time (lazy admission),
    /// each completion streams to `sink` and its state retires to free
    /// lists. Bit-identical to [`FabricProtocol::simulate`] on the same
    /// flow sequence. Outcomes reach `sink` in completion order, not
    /// input order.
    ///
    /// # Panics
    ///
    /// If `source` yields arrivals out of time order (every
    /// `edm_workloads` source is time-ordered).
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
        let source = source.enumerate().map(|(i, f)| (i as u32, f));
        self.run(cluster, source, |_idx, o| sink(o))
    }
}

impl FabricProtocol for EdmProtocol {
    fn name(&self) -> &'static str {
        "EDM"
    }

    fn simulate(&mut self, cluster: &ClusterConfig, flows: &[Flow]) -> SimResult {
        // Streams the slice in `(arrival, input position)` order — the
        // order its demand events pop in — and keys each outcome by input
        // position, so input order is preserved for unsorted lists too.
        let mut order: Vec<u32> = (0..flows.len() as u32).collect();
        order.sort_by_key(|&i| flows[i as usize].arrival);
        let mut results: Vec<Option<FlowOutcome>> = vec![None; flows.len()];
        self.run(
            cluster,
            order.into_iter().map(|i| (i, flows[i as usize])),
            |idx, o| results[idx as usize] = Some(o),
        );
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

    fn pair_offer(token: u64, bytes: u32) -> DomainOffer {
        DomainOffer {
            src: 0,
            dst: 1,
            bytes,
            limit: 1,
            token,
        }
    }

    fn domain4() -> SwitchDomain {
        SwitchDomain::new(edm_sched::SchedulerConfig::default_for_ports(4))
    }

    #[test]
    fn domain_cancel_withdraws_backlogged_and_admitted_demand() {
        let mut dom = domain4();
        assert_eq!(dom.offer(Time::ZERO, pair_offer(1, 1000)), Some(Time::ZERO));
        assert_eq!(dom.offer(Time::ZERO, pair_offer(2, 500)), None, "X=1 waits");
        // The waiting offer drops without ever being announced.
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
        // The waiting offer takes the slot; the event already queued
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
        // Nothing waiting: a completion changes nothing a round could
        // grant.
        assert_eq!(dom.offer(t(0), pair_offer(1, 100)), Some(t(0)));
        let g = dom.poll(t(0)).expect("live").grants[0];
        assert_eq!(dom.deliver(t(0), g.slot, g.chunk_bytes, |_, _| {}), None);
        // Pair 0->1 (X = 1) has a two-chunk message announced and one
        // waiting; pair 2->3 has a single chunk.
        assert_eq!(dom.offer(t(100), pair_offer(2, 300)), Some(t(100)));
        assert_eq!(dom.offer(t(100), pair_offer(3, 100)), None, "X=1 waits");
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
        // 2->3 completes: nothing of 2->3 waits, and 0->1's waiter is
        // announced only by its own pair. Still nothing new.
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
    fn waiters_are_announced_by_their_own_pair_in_offer_order() {
        let mut dom = domain4();
        let t = Time::from_ns;
        // Pair 0->1 (X = 1) has a two-chunk message announced and two
        // waiting; pair 2->3 has a single chunk.
        assert_eq!(dom.offer(t(0), pair_offer(1, 300)), Some(t(0)));
        assert_eq!(dom.offer(t(0), pair_offer(2, 100)), None, "X=1 waits");
        assert_eq!(dom.offer(t(0), pair_offer(3, 100)), None, "X=1 waits");
        let other = DomainOffer {
            src: 2,
            dst: 3,
            ..pair_offer(4, 100)
        };
        assert_eq!(dom.offer(t(0), other), None);
        let round = dom.poll(t(0)).expect("live");
        let first: Vec<DomainGrant> = round.grants.to_vec();
        let second_chunk = round.next_poll.expect("message 1 has a chunk left");
        // 2->3 completes: 0->1's waiters neither move nor get announced.
        let g = first.iter().find(|g| g.src == 2).expect("granted");
        assert_eq!(dom.deliver(t(100), g.slot, g.chunk_bytes, |_, _| {}), None);
        assert_eq!(dom.scheduler().pending_messages(), 1, "only message 1");
        let g = first.iter().find(|g| g.src == 0).expect("granted");
        assert_eq!(dom.deliver(t(100), g.slot, g.chunk_bytes, |_, _| {}), None);
        // Each of 0->1's completions announces its oldest waiter and asks
        // for the round at the instant the waiter is grantable: its ports
        // freed long ago, so at once.
        let mut g = dom.poll(second_chunk).expect("live").grants[0];
        for (at, next) in [(200, 2), (300, 3)] {
            let poll = dom.deliver(t(at), g.slot, g.chunk_bytes, |_, _| {});
            let grantable = dom.scheduler().grantable_at(0, 1);
            assert!(grantable < t(at));
            assert_eq!(poll, Some(t(at)));
            g = dom.poll(t(at)).expect("live").grants[0];
            assert_eq!(g.token, next, "offer order");
        }
        assert_eq!(dom.deliver(t(400), g.slot, g.chunk_bytes, |_, _| {}), None);
        assert_eq!(dom.msg_slots_live(), 0);
        assert_eq!(dom.msg_slab_high_water(), 4, "waiters held slab slots");
    }

    /// A pair's (announced, waiting past X) message counts, or `None`
    /// when it has no entry.
    fn pair_counts(dom: &SwitchDomain, src: u16, dst: u16) -> Option<(u32, u32)> {
        let pair = dom.pairs[src as usize][dom.find_pair(src, dst)?];
        Some((pair.announced, pair.waiting))
    }

    /// An offer of `bytes` on (src, dst) under X = `limit`.
    fn offer_x(src: u16, dst: u16, bytes: u32, limit: usize, token: u64) -> DomainOffer {
        DomainOffer {
            src,
            dst,
            bytes,
            limit,
            token,
        }
    }

    #[test]
    fn offer_behind_its_pair_head_asks_for_nothing() {
        // X = 2: the second offer is announced behind the head. The round
        // that grants the head's last chunk notifies it and asks for the
        // round its ports free at.
        let mut dom = domain4();
        assert_eq!(
            dom.offer(Time::ZERO, offer_x(0, 1, 64, 2, 0)),
            Some(Time::ZERO)
        );
        assert_eq!(dom.offer(Time::ZERO, offer_x(0, 1, 64, 2, 1)), None);
        assert_eq!(pair_counts(&dom, 0, 1), Some((2, 0)));
        let frees = Time::ZERO + dom.scheduler().config().link.tx_time_bytes(64);
        let round = dom.poll(Time::ZERO).expect("live");
        assert_eq!(round.grants[0].token, 0);
        assert_eq!(round.next_poll, Some(frees));
        assert_eq!(pair_counts(&dom, 0, 1), Some((1, 0)));
        assert_eq!(dom.poll(frees).expect("live").grants[0].token, 1);
    }

    #[test]
    fn cancel_unlinks_a_message_announced_behind_its_head() {
        // X = 3, three announced: withdrawing the middle one frees its X
        // slot and the others are granted in order, 0 then 2.
        let mut dom = domain4();
        for token in 0..3 {
            dom.offer(Time::ZERO, offer_x(0, 1, 64, 3, token));
        }
        let quiet = DomainCancel::Withdrawn { poll: None };
        assert_eq!(dom.cancel(Time::ZERO, 0, 1, 1), quiet);
        assert_eq!(pair_counts(&dom, 0, 1), Some((2, 0)));
        let mut tokens = Vec::new();
        let mut at = Some(Time::ZERO);
        while let Some(now) = at {
            let round = dom.poll(now).expect("live");
            tokens.extend(round.grants.iter().map(|g| g.token));
            at = round.next_poll;
        }
        assert_eq!(tokens, [0, 2]);
        assert_eq!(dom.msg_slots_live(), 2, "granted, not yet delivered");
    }

    #[test]
    fn pair_entries_leave_with_their_last_message() {
        let t = Time::ZERO;
        let quiet = DomainCancel::Withdrawn { poll: None };
        // A final grant.
        let mut dom = domain4();
        dom.offer(t, offer_x(0, 1, 64, 1, 0));
        assert_eq!(pair_counts(&dom, 0, 1), Some((1, 0)));
        assert_eq!(dom.poll(t).expect("live").grants.len(), 1);
        assert_eq!(pair_counts(&dom, 0, 1), None, "final grant");
        // A withdrawn head.
        dom.offer(t, offer_x(0, 1, 64, 1, 1));
        assert_eq!(dom.cancel(t, 0, 1, 1), quiet);
        assert_eq!(pair_counts(&dom, 0, 1), None, "withdrawn head");
        // A withdrawn waiter: X = 1, the head granted in full, the waiter
        // alone in the FIFO.
        let mut dom = domain4();
        dom.offer(t, offer_x(0, 1, 64, 1, 0));
        dom.offer(t, offer_x(0, 1, 64, 1, 1));
        dom.poll(t).expect("live");
        assert_eq!(pair_counts(&dom, 0, 1), Some((0, 1)));
        assert_eq!(dom.cancel(t, 0, 1, 1), quiet);
        assert_eq!(pair_counts(&dom, 0, 1), None, "withdrawn waiter");
        // A message announced behind the head is never its pair's last:
        // withdrawing it leaves the head's entry, which goes with the head.
        let mut dom = domain4();
        dom.offer(t, offer_x(0, 1, 64, 2, 0));
        dom.offer(t, offer_x(0, 1, 64, 2, 1));
        assert_eq!(dom.cancel(t, 0, 1, 1), quiet);
        assert_eq!(pair_counts(&dom, 0, 1), Some((1, 0)));
        assert_eq!(dom.cancel(t, 0, 1, 0), quiet);
        assert_eq!(pair_counts(&dom, 0, 1), None, "announced behind");
        // A purge, with a head, one announced behind it and a waiter on
        // one pair and a head on another.
        for token in 0..3 {
            dom.offer(t, offer_x(0, 1, 64, 2, token));
        }
        dom.offer(t, offer_x(2, 3, 64, 2, 3));
        assert_eq!(pair_counts(&dom, 0, 1), Some((2, 1)));
        dom.purge(&mut Vec::new());
        assert!(dom.pairs.iter().all(Vec::is_empty), "purge");
    }

    #[test]
    fn pair_order_holds_under_srpt() {
        // §3.1.1 property 5: SRPT ranks across pairs only. Pair 0->1 offers
        // 512 B then 64 B; 2->1 offers 128 B. The pair's 64 B message
        // waits for the 512 B one ahead of it, while 2->1's shorter
        // message goes first.
        let mut dom = domain4();
        dom.offer(Time::ZERO, offer_x(0, 1, 512, 3, 0));
        dom.offer(Time::ZERO, offer_x(0, 1, 64, 3, 1));
        dom.offer(Time::ZERO, offer_x(2, 1, 128, 3, 2));
        let mut tokens = Vec::new();
        let mut at = Some(Time::ZERO);
        while let Some(now) = at {
            let round = dom.poll(now).expect("live");
            tokens.extend(round.grants.iter().map(|g| g.token));
            at = round.next_poll;
        }
        assert_eq!(tokens, [2, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "per-pair X bound 256 > 255")]
    fn wide_pair_limit_is_rejected_at_offer() {
        // A waiter keeps its bound in one byte of its slab entry.
        let offer = DomainOffer {
            limit: 256,
            ..pair_offer(1, 64)
        };
        domain4().offer(Time::ZERO, offer);
    }

    #[test]
    fn offer_on_busy_ports_asks_for_the_instant_they_free() {
        let mut dom = domain4();
        let t = Time::from_ns;
        assert_eq!(dom.offer(t(0), pair_offer(1, 256)), Some(t(0)));
        let round = dom.poll(t(0)).expect("live");
        assert_eq!((round.grants.len(), round.next_poll), (1, None));
        let frees = t(0) + dom.scheduler().config().link.tx_time_bytes(256);
        // Port 1 is receiving the chunk: no round can grant 2->1 before
        // it frees.
        let to_busy_dst = DomainOffer {
            src: 2,
            ..pair_offer(2, 64)
        };
        assert_eq!(dom.offer(t(1), to_busy_dst), Some(frees));
        // Port 0 frees at the same instant: that event serves 0->3 too.
        let from_busy_src = DomainOffer {
            dst: 3,
            ..pair_offer(3, 64)
        };
        assert_eq!(dom.offer(t(2), from_busy_src), None);
        let round = dom.poll(frees).expect("live");
        let mut tokens: Vec<u64> = round.grants.iter().map(|g| g.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, [2, 3]);
        assert_eq!(dom.rounds(), (2, 0, 3), "no round without a grant");
    }

    #[test]
    fn backlog_admitted_by_a_delivery_asks_for_the_instant_its_ports_free() {
        let mut dom = domain4();
        let t = Time::from_ns;
        let link = dom.scheduler().config().link;
        // Pair 0->1 (X = 1) has a 64 B message admitted and one
        // waiting; 2->1 queues a 256 B chunk for the same destination.
        assert_eq!(dom.offer(t(0), pair_offer(1, 64)), Some(t(0)));
        assert_eq!(dom.offer(t(0), pair_offer(2, 64)), None, "X=1 waits");
        let other = DomainOffer {
            src: 2,
            ..pair_offer(3, 256)
        };
        assert_eq!(dom.offer(t(0), other), None, "rides on the round at 0");
        let round = dom.poll(t(0)).expect("live");
        let first = round.grants[0];
        assert_eq!((round.grants.len(), first.token), (1, 1), "SRPT");
        let dst_free = round.next_poll.expect("2->1 waits for port 1");
        assert_eq!(dom.poll(dst_free).expect("live").grants[0].token, 3);
        // Message 1 lands while port 1 receives 2->1's chunk: the freed
        // slot admits message 2, which can be granted once port 1 frees.
        let frees = dst_free + link.tx_time_bytes(256);
        assert_eq!(
            dom.deliver(t(10), first.slot, first.chunk_bytes, |_, _| {}),
            Some(frees)
        );
        assert_eq!(dom.poll(frees).expect("live").grants[0].token, 2);
        assert_eq!(dom.rounds().1, 0, "no round without a grant");
    }

    #[test]
    fn second_same_instant_offer_schedules_nothing() {
        let mut dom = SwitchDomain::new(edm_sched::SchedulerConfig::default_for_ports(8));
        let offer = |i: u64| DomainOffer {
            src: 2 * i as u16,
            dst: 2 * i as u16 + 1,
            bytes: 64,
            limit: 3,
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
    fn simulate_pins_an_unsorted_slice() {
        // `simulate` on an unsorted slice with same-instant arrivals,
        // reads and writes, and a hot pair offered past X: outcomes come
        // back in input order, and every flow completes when it always
        // has — `DIGEST` folds each outcome's flow id and completion
        // time. Re-recorded when offers past X began waiting in their
        // pair's FIFO: the hot pair's waiters are announced on its own
        // completions, in offer order, no longer on other pairs'.
        const DIGEST: u64 = 0x5aa9_dec1_1ac1_9132;
        let c = cluster(16);
        let flows: Vec<Flow> = (0..72)
            .map(|i| {
                // 12 instants, 6 flows each, visited out of order.
                let at = (i as u64 * 7) % 12 * 40;
                if i % 4 == 0 {
                    // The hot pair: 6 writes at each of 3 instants.
                    return write_flow(i, 0, 9, 64 + 32 * (i as u32 % 3), at);
                }
                let size = 64 + 96 * (i as u32 % 5);
                let mut f = write_flow(i, i % 8, 8 + (i * 3) % 8, size, at);
                if i % 3 == 0 {
                    f.kind = FlowKind::Read;
                }
                f
            })
            .collect();
        assert!(flows.windows(2).any(|w| w[0].arrival > w[1].arrival));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        let r = EdmProtocol::default().simulate(&c, &flows);
        for (o, f) in r.outcomes.iter().zip(&flows) {
            assert_eq!(o.flow, *f, "input order");
            mix(o.flow.id as u64);
            mix(o.completed.as_ps());
        }
        assert_eq!(h, DIGEST, "{h:#x}");
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn streamed_source_must_be_time_ordered() {
        let flows = [write_flow(0, 0, 1, 64, 100), write_flow(1, 2, 3, 64, 50)];
        EdmProtocol::default().simulate_streamed(&cluster(4), flows.into_iter(), |_| {});
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
        // One scheduled multi-chunk message, one cancelled, one waiting.
        assert!(dom.offer(Time::ZERO, pair_offer(1, 1000)).is_some());
        let gseq_before = dom.poll(Time::ZERO).expect("live").grants[0].gseq;
        assert_eq!(dom.offer(Time::ZERO, pair_offer(2, 500)), None, "X=1 waits");
        assert!(dom
            .offer(
                Time::ZERO,
                DomainOffer {
                    src: 2,
                    dst: 3,
                    bytes: 64,
                    limit: 1,
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
        // waiting and scheduled offers report.
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
    fn msg_state_stays_32_bytes() {
        // The slab holds one per in-flight message at every switch, so
        // the offer's token and size sit inline.
        assert_eq!(std::mem::size_of::<MsgState>(), 32);
    }

    #[test]
    fn edm_events_carry_no_flow() {
        // The event queue moves every event several times; the one
        // pending arrival's flow waits in the world, so an event names
        // a flow or a slot, never carries one.
        assert_eq!(std::mem::size_of::<EdmEv>(), 12);
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
