//! The multi-switch event-driven fabric: one demand-sparse EDM scheduler
//! per switch, hop-by-hop grant coordination, failure injection, and
//! mixed IP+memory traffic — runnable sequentially, and a streamed run
//! also sharded across cores with bit-identical results.
//!
//! # Model
//!
//! Each switch runs its own [`SwitchDomain`] (the PR 2 sparse-PIM
//! scheduler plus grant bookkeeping, shared with the single-switch
//! simulator). A flow's data path is a [`Route`] of hops; grants are
//! coordinated *between* switches by chunk arrival — the paper's implicit
//! notification generalized to trunks:
//!
//! * **Hop 0** (the data source's leaf) is the paper's single-switch
//!   protocol verbatim: the demand flight, the grant flight back to the
//!   host, and the chunk's two link crossings cost exactly what
//!   `EdmWorld` charges, so a 1-switch topology is bit-identical to the
//!   legacy path (pinned by proptest).
//! * **Hops ≥ 1**: a chunk arriving on a trunk *is* its own demand
//!   notification at that switch (as an RREQ is at the paper's switch).
//!   The switch schedules it like any message — at most one sender per
//!   egress port, so trunks stay contention-free virtual circuits — and
//!   forwards it after its matching latency plus a store-and-forward
//!   turnaround: the egress half of [`TopoEdmConfig::pipeline_latency`].
//!
//! Trunk-facing pairs aggregate many end-to-end flows, so multi-hop
//! routes are provisioned a larger per-pair X than single-hop access
//! pairs ([`TRUNK_MAX_ACTIVE_PER_PAIR`], via the
//! scheduler's `notify_with_limit` entry point).
//!
//! # Deterministic event ordering
//!
//! Every event is scheduled with a content-derived order key
//! ([`edm_core::sim::evord`]): at one instant, faults strike first, then
//! reroutes, then demand arrivals, then chunk arrivals (keyed by the
//! granting switch's monotone grant sequence), then scheduler polls.
//! Because the key is a pure function of event content — never of
//! scheduling order — the simulation's outcome is independent of *where*
//! an event was scheduled, which is exactly what lets
//! [`TopoEdm::simulate_sharded_streamed`] split one run across cores and
//! still be bit-identical to [`TopoEdm::simulate_streamed`] (pinned by
//! the `prop_parallel` lockstep suite).
//!
//! # Parallel execution
//!
//! [`TopoEdm::simulate_sharded_streamed`] partitions the switches into
//! shards (`crate::shard::ShardPlan`) and runs one logical process per
//! shard under the conservative window protocol of `edm_sim::sharded`.
//! Only streamed runs shard; slice and closed-loop runs are sequential.
//!
//! * Each shard replays its own clone of the source, so every shard
//!   admits every flow at the same instant without coordination.
//! * Each shard owns the [`SwitchDomain`]s, per-direction IP lanes, and
//!   host events of its switches; a flow's demand/reroute events are
//!   pinned to its hop-0 leaf's shard.
//! * Read-mostly control state — topology, routes, flow epochs and
//!   terminal statuses — is *replicated*: fault and reroute events
//!   execute identically in every shard, and fault times are window
//!   *cuts* so replicas agree before anyone observes the change.
//! * A chunk whose next hop lives in another shard splits into a local
//!   `Settle` (egress bookkeeping at the granting switch) and a mailed
//!   `Arrive` (implicit notification at the next switch), both carrying
//!   the chunk's original order key; a chunk's trunk flight is at least
//!   the plan's lookahead, so the arrival always lands in a later
//!   window.
//! * Final-hop delivery credits broadcast to every shard as state-sync
//!   records, applied in deterministic order at window barriers. A
//!   replica therefore retires a flow a beat after the sequential run
//!   would, so [`TopoStreamStats::active_high_water`] may read higher
//!   sharded — the one counter that is not bit-identical.
//!
//! # Failures and repairs
//!
//! [`FaultEvent`]s take links or switches down (or degrade link latency)
//! mid-run. A failure bumps the *epoch* of every incomplete flow whose
//! route crosses the failed element; chunks of older epochs drain as
//! blackholed traffic — they consume the bandwidth they were granted but
//! are dropped at their next element. After
//! [`TopoEdmConfig::reroute_delay`], the flow's remaining bytes re-enter
//! on a freshly computed route, or the flow fails deterministically when
//! the fabric is partitioned.
//!
//! The same schedule carries *repairs*: [`FaultKind::LinkUp`] /
//! [`FaultKind::SwitchUp`] bring a dead element back (the revived
//! switch's scheduler cold-starts, [`SwitchDomain::purge`]), and
//! [`FaultKind::RestoreLink`] clears accumulated degradation. A repair
//! bumps — after a 10 µs detection delay — every active flow
//! whose live route is now longer than the healed fabric's shortest
//! path, so traffic detoured around a failure migrates back. With
//! [`TopoEdmConfig::max_retries`] > 0, a flow that finds the fabric
//! partitioned does not fail immediately: it stays active with no route
//! and probes again under exponential backoff
//! ([`TopoEdmConfig::retry_backoff`]), re-admitting deterministically if
//! a repair heals the partition before the budget runs out. Repair
//! times join fault times as conservative-window cuts — both mutate
//! replicated topology state that every shard must observe in lockstep,
//! *after* pending delivery credits have flushed at the barrier.
//!
//! The epoch bump also *revokes* the bumped flow's hop-0 message via
//! [`SwitchDomain::cancel`]: the dead path's backlog stops counting as
//! demand, and only chunks already granted at bump time drain as
//! blackholed bandwidth.
//!
//! # Streaming flow lifecycle
//!
//! Flow state lives in a base-offset ring keyed by admission index
//! (ids are dense and admitted in order), populated by
//! *admission* and — in source-fed and app runs — drained by
//! *retirement*, so resident state tracks the concurrently-active flow
//! population rather than the total offered load:
//!
//! * **Admission.** [`TopoEdm::simulate_streamed`] pulls arrivals lazily
//!   from a time-ordered iterator (any `edm_workloads` source):
//!   each `Admit` event routes one flow, creates its runtime entry, and
//!   schedules the next arrival's admission — exactly one pending
//!   arrival is materialized at any instant. The materialized
//!   [`TopoEdm::simulate`] path admits its whole slice before the run;
//!   both paths schedule bit-identical demand events.
//! * **Retirement.** When a flow reaches a terminal state and no future
//!   event can reference it — its count of resident switch offers has
//!   drained to zero, so zombie chunks of fault runs delay retirement
//!   rather than disable it — its entry is removed between events, and
//!   the per-switch message slots, pair-FIFO links, and backlog words
//!   it held return to the [`SwitchDomain`] free lists. Slice input
//!   keeps terminal entries resident: every entry exists before the
//!   first event, so retiring cannot lower the peak and measurably costs
//!   time (see `TopoEdm::seed`).
//! * **Sinking.** Terminal outcomes stream to a sink callback the moment
//!   they are decided instead of accumulating in a `Vec`. The `Vec`
//!   path uses a collecting sink and returns the same counters record
//!   ([`TopoResult::stats`]); shard 0 holds the sink in sharded runs
//!   (it observes every terminal transition — local settles plus
//!   barrier credits).

use crate::app::{AppConfig, AppEv, AppState};
use crate::ip::IpModel;
use crate::shard::ShardPlan;
use crate::topology::{Endpoint, Path, Route, Topology};
use edm_core::sim::{
    evord, ClusterConfig, DomainCancel, DomainOffer, EdmProtocol, Flow, FlowKind, Forwarded,
    SwitchDomain,
};
use edm_sched::{Policy, SchedulerConfig};
use edm_sim::sharded::{run_sharded, Envelope, Recipient, ShardWorld, ShardedConfig};
use edm_sim::{Duration, Engine, EventQueue, Summary, Time, World};
use std::collections::HashMap;
use std::sync::Arc;

/// A failure (or degradation) injected at a point in simulated time.
#[derive(Debug, Clone, Copy)]
pub struct FaultEvent {
    /// When the fault strikes.
    pub at: Time,
    /// What breaks.
    pub kind: FaultKind,
}

/// The kinds of injectable faults.
#[derive(Debug, Clone, Copy)]
pub enum FaultKind {
    /// A link (access or trunk) goes down.
    LinkDown(u32),
    /// A whole switch goes down, with all queued scheduler state.
    SwitchDown(u32),
    /// A link stays up but gains one-way latency (damaged fiber, FEC
    /// retries); no reroute is triggered.
    DegradeLink {
        /// The link.
        link: u32,
        /// Added one-way latency.
        extra: Duration,
    },
    /// A downed link comes back up. Routes recompute, and flows detoured
    /// onto longer paths migrate back after a 10 µs detection delay. A
    /// no-op if the link is up.
    LinkUp(u32),
    /// A downed switch comes back up with a cold scheduler (its queued
    /// state died with it). A no-op if the switch is up.
    SwitchUp(u32),
    /// Clears all accumulated [`FaultKind::DegradeLink`] latency on a
    /// link (fiber replaced, FEC retrained); latency-only, no reroute.
    RestoreLink(u32),
}

/// X for pairs on multi-hop routes: those touch trunk ports, which
/// aggregate many concurrent end-to-end flows, so they get a larger share
/// of the notification queue than single-hop host pairs
/// ([`TopoEdmConfig::max_active_per_pair`]).
pub const TRUNK_MAX_ACTIVE_PER_PAIR: usize = 16;

/// Detection time before flows detoured around a failure migrate back
/// onto a repaired element's shorter paths ([`FaultKind::LinkUp`] /
/// [`FaultKind::SwitchUp`]).
const REPAIR_DELAY: Duration = Duration::from_us(10);

/// Configuration of the multi-switch EDM protocol.
#[derive(Debug, Clone)]
pub struct TopoEdmConfig {
    /// Fixed per-direction fabric pipeline latency (host stacks + switch,
    /// the Table 1 model) — same semantics as `ClusterConfig`. Half of it
    /// is the store-and-forward turnaround at an intermediate switch (the
    /// egress half of the pipeline).
    pub pipeline_latency: Duration,
    /// Scheduler chunk size.
    pub chunk_bytes: u32,
    /// Scheduling policy.
    pub policy: Policy,
    /// X for single-hop (host↔host) pairs — the paper's X=3. Multi-hop
    /// pairs use [`TRUNK_MAX_ACTIVE_PER_PAIR`].
    pub max_active_per_pair: usize,
    /// Detection + recovery time before a failed flow's remaining bytes
    /// re-enter on a new route.
    pub reroute_delay: Duration,
    /// How many times a flow that finds the fabric partitioned probes
    /// for a route again before failing for good. 0 (the default)
    /// preserves the legacy fail-fast semantics: a partition at reroute
    /// time fails the flow immediately.
    pub max_retries: u32,
    /// Backoff before a partitioned flow's first retry probe; doubles on
    /// every subsequent attempt (the flow-level timeout is the sum of
    /// the exponential series).
    pub retry_backoff: Duration,
    /// Fraction of each link's capacity offered as background IP frames
    /// sharing the links with memory traffic (0.0, the default, disables
    /// the model; see [`crate::ip`]).
    pub ip: f64,
    /// Fault injection plan.
    pub faults: Vec<FaultEvent>,
}

impl Default for TopoEdmConfig {
    fn default() -> Self {
        TopoEdmConfig {
            pipeline_latency: Duration::from_ns(54), // ClusterConfig's default
            chunk_bytes: 256,
            policy: Policy::Srpt,
            max_active_per_pair: 3,
            reroute_delay: Duration::from_us(10),
            max_retries: 0,
            retry_backoff: Duration::from_us(20),
            ip: 0.0,
            faults: Vec::new(),
        }
    }
}

impl TopoEdmConfig {
    /// A configuration matching a legacy (`ClusterConfig`,
    /// [`EdmProtocol`]) pair — the 1-switch equivalence tests and benches
    /// pin `TopoEdm` on [`crate::cluster_topology`] against exactly this.
    pub fn matching(cluster: &ClusterConfig, p: &EdmProtocol) -> Self {
        TopoEdmConfig {
            pipeline_latency: cluster.pipeline_latency,
            chunk_bytes: p.chunk_bytes,
            policy: p.policy,
            max_active_per_pair: p.max_active_per_pair,
            ..TopoEdmConfig::default()
        }
    }
}

/// Terminal state of one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowStatus {
    /// All bytes reached the destination at this time.
    Delivered(Time),
    /// The flow could not complete (fabric partition); decided at this
    /// time.
    Failed(Time),
}

/// Per-flow outcome of a topology run.
#[derive(Debug, Clone, Copy)]
pub struct TopoOutcome {
    /// The flow.
    pub flow: Flow,
    /// How it ended.
    pub status: FlowStatus,
}

impl TopoOutcome {
    /// Message completion time, if delivered.
    pub fn mct(&self) -> Option<Duration> {
        match self.status {
            FlowStatus::Delivered(t) => Some(t.saturating_since(self.flow.arrival)),
            FlowStatus::Failed(_) => None,
        }
    }
}

/// Result of one multi-switch simulation: the collecting sink's
/// outcomes and the run's counters.
#[derive(Debug, Clone)]
pub struct TopoResult {
    /// Per-flow outcomes, in input order.
    pub outcomes: Vec<TopoOutcome>,
    /// The run's counters — the same record a streamed run returns.
    pub stats: TopoStreamStats,
}

impl TopoResult {
    /// Assembles the result from the collecting sink's outcomes and the
    /// run's counters.
    fn new(results: Vec<Option<TopoOutcome>>, stats: TopoStreamStats) -> Self {
        let outcomes = results
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.unwrap_or_else(|| panic!("flow {i} stalled without a terminal state")))
            .collect();
        TopoResult { outcomes, stats }
    }

    /// Mean completion time over delivered flows.
    pub fn mean_mct(&self) -> Duration {
        let (mut total, mut n) = (Duration::ZERO, 0u64);
        for o in &self.outcomes {
            if let Some(mct) = o.mct() {
                total += mct;
                n += 1;
            }
        }
        if n == 0 {
            Duration::ZERO
        } else {
            total / n
        }
    }

    /// Summary of delivered-flow MCTs normalized by `ideal(flow)`.
    pub fn normalized_mct<F: Fn(&Flow) -> Duration>(&self, ideal: F) -> Summary {
        let mut s = Summary::new();
        for o in &self.outcomes {
            if let Some(mct) = o.mct() {
                s.record(mct.ratio(ideal(&o.flow)));
            }
        }
        s
    }
}

/// Aggregate counters of one run — everything it retains once per-flow
/// outcomes have gone to the sink. The streamed entry points
/// ([`TopoEdm::simulate_streamed`] /
/// [`TopoEdm::simulate_sharded_streamed`]) return it; the slice entry
/// points carry it as [`TopoResult::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopoStreamStats {
    /// Flows admitted, from the source or the slice (delivered + failed
    /// once the run drains).
    pub admitted: u64,
    /// Flows whose every byte reached its destination.
    pub delivered: u64,
    /// Flows that could not complete (unroutable at admission, or fabric
    /// partition mid-run).
    pub failed: u64,
    /// Successful re-routes after faults.
    pub reroutes: u64,
    /// Retry probes scheduled for partitioned flows
    /// ([`TopoEdmConfig::max_retries`]).
    pub retried: u64,
    /// Partitioned flows that found a route again on a retry probe
    /// (after a repair healed the partition).
    pub readmitted: u64,
    /// Background IP frames generated on crossed links.
    pub ip_frames: u64,
    /// Memory-chunk link crossings that hit an in-flight IP frame.
    pub ip_delayed: u64,
    /// Simulation events dispatched (cost proxy; a cross-shard chunk's
    /// settle/arrive pair counts once, and replicated fault/reroute
    /// events count once, so the tally is shard-count independent).
    /// Admission events are free: the materialized path has none, and
    /// the tallies must match.
    pub events: u64,
    /// Scheduling rounds run, summed over every switch.
    pub rounds: u64,
    /// Rounds that issued no grant: what the poll protocol wastes (a
    /// round is only worth an event when a grant is possible).
    pub empty_rounds: u64,
    /// Destinations the rounds handed to PIM, summed over every switch
    /// (`edm_sched::Scheduler::dests_examined`): what a round costs
    /// beyond one comparison per destination with queued demand.
    pub examined: u64,
    /// Peak number of concurrently-resident flow entries — with eager
    /// retirement (streamed and app runs; faults included, whose
    /// zombie references drain through per-flow counts) this is the
    /// active-flow population peak, independent of how many flows the
    /// source emits in total. Sharded runs may report slightly more than the
    /// sequential run: delivery credits retire replicas at window
    /// barriers, a beat after the sequential run retires them.
    pub active_high_water: usize,
    /// Peak message-slot slab size summed over every switch scheduler —
    /// proof of slot reuse: with retirement it tracks concurrent
    /// messages, not total messages.
    pub msg_slots_high_water: usize,
}

/// The multi-switch EDM protocol.
///
/// [`TopoEdm::simulate`] and [`TopoEdm::simulate_streamed`] run
/// sequentially; [`TopoEdm::simulate_sharded_streamed`] runs the *same*
/// streamed simulation split across cores under conservative windows,
/// bit-identical to the sequential run for every shard count (pinned by
/// the `prop_parallel` lockstep suite). Topologies that cannot support
/// parallelism — a single switch, or zero-latency trunks contracting
/// everything into one component — degenerate to the sequential path.
#[derive(Debug, Clone, Default)]
pub struct TopoEdm {
    /// Configuration.
    pub config: TopoEdmConfig,
}

/// What a run is fed with — the one seam between the public entry
/// points and the launch path ([`TopoEdm::seed`]).
pub(crate) enum Input<'a, I> {
    /// A slice admitted whole before the run: every flow is routed on
    /// the topology as configured (route-up-front, so a later fault
    /// reroutes it), and arrivals may come in any order.
    Slice(&'a [Flow]),
    /// A time-ordered source pulled one arrival ahead: each flow is
    /// routed on the topology as of its arrival instant.
    Source(I),
    /// Closed-loop tenants (`crate::app`): ops issue flows as they go.
    App(&'a AppConfig),
}

/// The source type of runs that have no source.
pub(crate) type NoSource = std::iter::Empty<Flow>;

/// What a finished run leaves behind: the merged counters, and the
/// closed-loop state of an [`Input::App`] run.
pub(crate) type Finished = (TopoStreamStats, Option<Box<AppState>>);

impl TopoEdm {
    /// Creates the protocol from a configuration.
    pub fn new(config: TopoEdmConfig) -> Self {
        TopoEdm { config }
    }

    /// Simulates `flows` over `topo` (a private copy — fault injection
    /// never mutates the caller's topology).
    ///
    /// # Panics
    ///
    /// Panics on malformed flows (src == dst, out-of-range nodes,
    /// zero-size messages) and if a flow stalls without a terminal state
    /// (a model invariant violation).
    pub fn simulate(&self, topo: &Topology, flows: &[Flow]) -> TopoResult {
        let mut results = vec![None; flows.len()];
        let sink = |id: u32, o: TopoOutcome| results[id as usize] = Some(o);
        let (stats, _) = self.run_solo(topo, Some(sink), Input::<NoSource>::Slice(flows));
        TopoResult::new(results, stats)
    }

    /// Streams a simulation: arrivals are pulled lazily from `source`
    /// (must be time-ordered — every `edm_workloads` source is) and
    /// per-flow outcomes are pushed to `sink` the moment they are
    /// decided. Completed flows *retire* — their
    /// routing entry, switch message slots, pair-FIFO links, and backlog
    /// words all return to free lists — so resident memory tracks the
    /// concurrently-active flow population, not the total flow count
    /// ([`TopoStreamStats::active_high_water`]).
    ///
    /// Fault-free streamed runs are bit-identical to materializing the
    /// source and calling [`TopoEdm::simulate`] (pinned by proptest).
    /// With faults, admission routes each flow on the topology *as of
    /// its arrival* — late flows route around known failures — whereas
    /// the materialized path routes everything up front; both are valid
    /// models, but they are not lockstep.
    ///
    /// # Panics
    ///
    /// As [`TopoEdm::simulate`]; additionally if `source` yields
    /// arrivals out of time order.
    pub fn simulate_streamed<I, F>(&self, topo: &Topology, source: I, sink: F) -> TopoStreamStats
    where
        I: Iterator<Item = Flow>,
        F: FnMut(TopoOutcome),
    {
        let mut sink = sink;
        let sink = move |_id: u32, o: TopoOutcome| sink(o);
        self.run_solo(topo, Some(sink), Input::Source(source)).0
    }

    /// [`TopoEdm::simulate_streamed`], sharded over up to `shards` cores
    /// under conservative windows — bit-identical to the sequential
    /// streamed run in every outcome and counter but
    /// [`TopoStreamStats::active_high_water`] (pinned by the
    /// `prop_parallel` lockstep suite). Each shard replays its own clone
    /// of the source, so flow-state replicas stay lockstep; the sink
    /// lives in shard 0. When the plan degenerates to one shard (single
    /// switch, zero-latency trunks, `shards <= 1`), this *is* the
    /// sequential run.
    ///
    /// # Panics
    ///
    /// As [`TopoEdm::simulate_streamed`].
    pub fn simulate_sharded_streamed<I, F>(
        &self,
        topo: &Topology,
        source: I,
        sink: F,
        shards: usize,
    ) -> TopoStreamStats
    where
        I: Iterator<Item = Flow> + Clone + Send,
        F: FnMut(TopoOutcome) + Send,
    {
        let mut sink = sink;
        let sink = move |_id: u32, o: TopoOutcome| sink(o);
        let plan = Arc::new(ShardPlan::new(topo, &self.config, shards));
        if plan.shards() == 1 {
            return self.run_solo(topo, Some(sink), Input::Source(source)).0;
        }
        // Fault and repair times are window cuts: every shard applies
        // them to its topology replica before anyone observes the change.
        let mut cuts: Vec<Time> = self.config.faults.iter().map(|f| f.at).collect();
        cuts.sort_unstable();
        // The sink lives in shard 0, which observes every terminal
        // transition (local settles plus barrier credits).
        let mut sink = Some(sink);
        let inputs = (0..plan.shards() as u32)
            .map(|me| self.seed(topo, &plan, me, sink.take(), Input::Source(source.clone())))
            .collect();
        let lookahead = plan.lookahead();
        TopoEdm::finish(run_sharded(inputs, &ShardedConfig { lookahead, cuts })).0
    }

    /// The sequential launch path: one world owning every switch.
    pub(crate) fn run_solo<S, I>(
        &self,
        topo: &Topology,
        sink: Option<S>,
        input: Input<'_, I>,
    ) -> Finished
    where
        S: FnMut(u32, TopoOutcome),
        I: Iterator<Item = Flow>,
    {
        let plan = Arc::new(ShardPlan::solo(topo.switch_count()));
        let (world, q) = self.seed(topo, &plan, 0, sink, input);
        let mut engine = Engine::with_queue(world, q);
        engine.run();
        TopoEdm::finish(vec![engine.into_world()])
    }

    /// One shard's world and event queue (for the solo plan: the whole
    /// run's), seeded with the fault plan and the run's input. Every
    /// shard computes identical replicated flow state; only domain
    /// ownership, demand seeding, and sink placement differ.
    fn seed<S, I>(
        &self,
        topo: &Topology,
        plan: &Arc<ShardPlan>,
        me: u32,
        sink: Option<S>,
        input: Input<'_, I>,
    ) -> (TopoWorld<S, I>, EventQueue<TopoEv>)
    where
        S: FnMut(u32, TopoOutcome),
        I: Iterator<Item = Flow>,
    {
        let mut world = self.build_world(topo, plan.clone(), me, sink);
        let mut q = EventQueue::new();
        // A fault at time T precedes any same-instant demand by
        // order-key rank.
        for (i, f) in self.config.faults.iter().enumerate() {
            let idx = i as u32;
            q.schedule_ordered(f.at, evord::fault(idx), TopoEv::Fault { idx });
        }
        match input {
            Input::Slice(flows) => {
                // Everything is resident before the first event, so
                // retiring mid-run cannot lower the peak: it only frees
                // cold entries one by one instead of all at the drop.
                // Measured (`sweep_small_144 --trace 1`, 8 alternating
                // pairs, median [p25, p75]): keeping the entries reads
                // `topo.single_switch_ratio_300k` 1.225 [1.210, 1.253],
                // retiring them 1.280 [1.276, 1.321] — +4.5 %.
                world.eager_retire = false;
                for (i, &f) in flows.iter().enumerate() {
                    world.admit(i as u32, f, &mut q);
                }
            }
            Input::Source(source) => {
                world.source = Some((source, 0));
                world.pull_next(Time::ZERO, &mut q);
            }
            Input::App(cfg) => {
                let app = AppState::new(cfg, topo);
                app.seed(&mut q);
                world.app = Some(Box::new(app));
            }
        }
        (world, q)
    }

    /// Builds one shard's world (for the solo plan: the whole world),
    /// with no input attached yet.
    fn build_world<S, I>(
        &self,
        topo: &Topology,
        plan: Arc<ShardPlan>,
        me: u32,
        sink: Option<S>,
    ) -> TopoWorld<S, I>
    where
        S: FnMut(u32, TopoOutcome),
        I: Iterator<Item = Flow>,
    {
        let topo = topo.clone();
        let link_count = topo.links().len();
        let domains = (0..topo.switch_count() as u32)
            .map(|sw| {
                if plan.shard_of(sw) != me {
                    return None;
                }
                Some(SwitchDomain::new(SchedulerConfig {
                    ports: topo.switch_ports(sw),
                    chunk_bytes: self.config.chunk_bytes,
                    link: topo.reference_bandwidth(sw),
                    policy: self.config.policy,
                    max_active_per_pair: self.config.max_active_per_pair,
                    clock: edm_sched::ASIC_CLOCK,
                }))
            })
            .collect();
        let gens = vec![0u32; topo.switch_count()];
        TopoWorld {
            ip: IpModel::new(self.config.ip, link_count),
            // A terminal flow retires once its per-flow reference count
            // drains to zero — every resident offer it holds at an
            // owned switch is counted, so zombie chunks of fault runs
            // simply delay retirement instead of disabling it. (Slice
            // runs opt out in `seed`: there retiring buys nothing.)
            eager_retire: true,
            cfg: self.config.clone(),
            topo,
            rt: RtMap::default(),
            domains,
            gens,
            plan,
            me,
            reroutes: 0,
            retried: 0,
            readmitted: 0,
            events: 0,
            outbox: Vec::new(),
            sink,
            source: None,
            retired: Vec::new(),
            admitted: 0,
            delivered_n: 0,
            failed_n: 0,
            active_hwm: 0,
            app: None,
            app_done_buf: Vec::new(),
        }
    }

    /// Merges the finished shards into the run's stats record.
    /// Replicated flow state is identical across shards
    /// (debug-asserted); owned counters sum.
    fn finish<S, I>(mut worlds: Vec<TopoWorld<S, I>>) -> Finished
    where
        S: FnMut(u32, TopoOutcome),
        I: Iterator<Item = Flow>,
    {
        #[cfg(debug_assertions)]
        for w in &worlds[1..] {
            debug_assert_eq!(worlds[0].rt.len(), w.rt.len(), "resident replica diverged");
            for (fi, a) in worlds[0].rt.iter() {
                let b = &w.rt[fi];
                debug_assert_eq!(a.status, b.status, "flow {fi} status replica diverged");
                debug_assert_eq!(a.epoch, b.epoch, "flow {fi} epoch replica diverged");
                debug_assert_eq!(
                    a.delivered, b.delivered,
                    "flow {fi} credit replica diverged"
                );
            }
        }
        let w0 = &worlds[0];
        assert_eq!(
            w0.admitted,
            w0.delivered_n + w0.failed_n,
            "a flow stalled without a terminal state"
        );
        let mut stats = TopoStreamStats {
            admitted: w0.admitted,
            delivered: w0.delivered_n,
            failed: w0.failed_n,
            reroutes: w0.reroutes,
            retried: w0.retried,
            readmitted: w0.readmitted,
            ip_frames: worlds.iter().map(|w| w.ip.frames()).sum(),
            ip_delayed: worlds.iter().map(|w| w.ip.delayed()).sum(),
            events: worlds.iter().map(|w| w.events).sum(),
            rounds: 0,
            empty_rounds: 0,
            examined: 0,
            active_high_water: w0.active_hwm,
            msg_slots_high_water: 0,
        };
        // Each switch is owned by exactly one shard, so round totals
        // and slab peaks sum.
        for d in worlds.iter().flat_map(|w| w.domains.iter().flatten()) {
            let (rounds, empty, examined) = d.rounds();
            stats.rounds += rounds;
            stats.empty_rounds += empty;
            stats.examined += examined;
            stats.msg_slots_high_water += d.msg_slab_high_water();
        }
        (stats, worlds[0].app.take())
    }

    /// The flow's *unloaded* completion time on this topology: the flow
    /// alone, no faults, no background IP — the normalization baseline
    /// (`None` if the pristine topology cannot route it).
    pub fn solo_mct(&self, topo: &Topology, flow: &Flow) -> Option<Duration> {
        let mut cfg = self.config.clone();
        cfg.faults.clear();
        cfg.ip = 0.0;
        let solo = Flow {
            arrival: Time::ZERO,
            ..*flow
        };
        admission_route(topo, &solo)?;
        TopoEdm::new(cfg).simulate(topo, &[solo]).outcomes[0].mct()
    }
}

/// Runtime status of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RtStatus {
    Active,
    Done(Time),
    Failed(Time),
}

/// Per-flow runtime state. Replicated in every shard: epochs and routes
/// advance through replicated fault/reroute events, delivery credits
/// through barrier-synced broadcasts.
///
/// Its size is pinned (`flow_rt_slot_stays_96_bytes`): [`RtMap`] is a ring
/// of these over the live id-span, and one long closed-loop op can hold
/// that span open across much of a run, so the slot size multiplies
/// peak RSS.
#[derive(Debug)]
struct FlowRt {
    /// The admitted flow (moved in at admission; the world keeps no
    /// separate flow list).
    flow: Flow,
    /// The live epoch's route, inline (`None` while a reroute is
    /// pending). Bumped epochs' routes move to [`RtMap::old_paths`].
    path: Option<Path>,
    epoch: u32,
    /// Bytes that reached the destination node (current epoch only;
    /// stale-epoch arrivals are retransmitted, never double-counted).
    delivered: u32,
    /// Bytes offered in the current epoch.
    inject_bytes: u32,
    /// Outstanding resident offers this flow holds at switches owned by
    /// *this shard*: +1 per [`SwitchDomain::offer`], −1 when the
    /// sub-offer completes, is cancelled, or dies with a purged switch.
    /// A terminal entry retires (eager mode) once the count drains to
    /// zero — the shard-local proof that no future event can reference
    /// it, which is what lets streamed *fault* runs stay bounded-memory.
    refs: u32,
    status: RtStatus,
}

/// Flow state keyed by admission index: live flows plus — in fault
/// runs — terminal entries whose route context may still be referenced.
///
/// Ids are dense and admitted in increasing order, and retirement is
/// FIFO-ish (flows complete within a bounded window of their arrival),
/// so the store is a base-offset ring of `Option` slots rather than a
/// hash map: O(1) direct indexing on the event hot path (a map's
/// hashing is an order of magnitude slower in unoptimized builds, where
/// the 2× topo-vs-single-switch cost gate runs), memory O(live
/// id-span), and iteration is naturally in admission order — the
/// deterministic order `bump_affected` needs, with no sort.
#[derive(Debug, Default)]
struct RtMap {
    /// Id of slot 0. Advances when the dead prefix is compacted away.
    base: u32,
    slots: Vec<Option<FlowRt>>,
    /// Occupied slots.
    live: usize,
    /// Leading `None` slots (already-retired ids below every live one),
    /// compacted away once they dominate the vector.
    dead_prefix: usize,
    /// Routes of bumped epochs, keyed by `(flow, epoch)`. Only fault runs
    /// fill it, and only zombie grants — old-epoch offers still resident
    /// at a switch — read it; a flow's entries go when the flow retires.
    old_paths: HashMap<(u32, u32), Path>,
}

impl RtMap {
    /// Inserts `rt` for `id`. Ids must be inserted in increasing order
    /// (admission order); skipped ids — flows that failed at admission —
    /// leave holes.
    fn insert(&mut self, id: u32, rt: FlowRt) {
        let idx = (id - self.base) as usize;
        debug_assert!(idx >= self.slots.len(), "ids admit in increasing order");
        self.slots.resize_with(idx, || None);
        self.slots.push(Some(rt));
        self.live += 1;
    }

    fn get(&self, id: u32) -> Option<&FlowRt> {
        match self.slots.get(id.wrapping_sub(self.base) as usize) {
            Some(Some(rt)) => Some(rt),
            _ => None,
        }
    }

    fn get_mut(&mut self, id: u32) -> Option<&mut FlowRt> {
        // `wrapping_sub` folds the `id < base` miss into the bounds
        // check (the wrapped index is astronomically out of range).
        match self.slots.get_mut(id.wrapping_sub(self.base) as usize) {
            Some(Some(rt)) => Some(rt),
            _ => None,
        }
    }

    /// Removes `id`. When retired ids below every live id come to
    /// dominate the vector, the dead prefix is compacted away (amortized
    /// O(1)), so the footprint tracks the live id-span.
    fn remove(&mut self, id: u32) -> Option<FlowRt> {
        let idx = id.checked_sub(self.base)? as usize;
        let rt = self.slots.get_mut(idx)?.take()?;
        self.live -= 1;
        for epoch in 0..rt.epoch {
            self.old_paths.remove(&(id, epoch));
        }
        if idx == self.dead_prefix {
            let mut dp = self.dead_prefix + 1;
            while dp < self.slots.len() && self.slots[dp].is_none() {
                dp += 1;
            }
            self.dead_prefix = dp;
            if dp >= 64 && dp * 2 >= self.slots.len() {
                self.slots.drain(..dp);
                self.base += dp as u32;
                self.dead_prefix = 0;
            }
        }
        Some(rt)
    }

    /// Resident (live) entries.
    fn len(&self) -> usize {
        self.live
    }

    /// The route resident flow `id` was offered under in `epoch`.
    fn path(&self, id: u32, epoch: u32) -> &Path {
        let rt = &self[id];
        if rt.epoch == epoch {
            rt.path.as_ref().expect("offered epochs are routed")
        } else {
            &self.old_paths[&(id, epoch)]
        }
    }

    /// Moves resident flow `id` to its next epoch, routeless until its
    /// recovery re-enters it; the bumped route stays readable through
    /// [`RtMap::path`] until the flow retires.
    fn bump(&mut self, id: u32) {
        let rt = self.get_mut(id).expect("bumped flows are resident");
        let (epoch, path) = (rt.epoch, rt.path.take().expect("only routed flows bump"));
        rt.epoch = next_epoch(epoch);
        self.old_paths.insert((id, epoch), path);
    }

    /// Live `(id, entry)` pairs in increasing (admission) order.
    fn iter(&self) -> impl Iterator<Item = (u32, &FlowRt)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|rt| (self.base + i as u32, rt)))
    }

    /// Live ids in increasing (admission) order.
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(id, _)| id)
    }
}

impl std::ops::Index<u32> for RtMap {
    type Output = FlowRt;
    fn index(&self, id: u32) -> &FlowRt {
        // One subtraction plus one slice index: the materialized paths
        // never compact (`base` stays 0), so this is as cheap as the
        // flat `Vec<FlowRt>` it replaced — which keeps the leaf-spine
        // cost inside the `topo_scale` gate in debug builds.
        match self.slots[id.wrapping_sub(self.base) as usize] {
            Some(ref rt) => rt,
            None => panic!("flow {id} is not resident"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum TopoEv {
    /// A flow's arrival instant: route it, create its runtime entry,
    /// and pull the next arrival from the streaming source (the
    /// materialized paths admit before the run and never see this).
    Admit { id: u32, flow: Flow },
    /// A flow's demand reaches its hop-0 switch.
    Demand { flow: u32, epoch: u32 },
    /// One switch's scheduler poll.
    Poll { switch: u32 },
    /// A granted chunk's last byte reaches its next element: egress
    /// bookkeeping at the granting switch *and* the implicit
    /// notification at the next one (same-shard / final-hop case).
    /// `gen` is the granting switch's generation at grant time: a chunk
    /// granted before its switch died must never settle into the
    /// revived switch's cold slab. `last`: the chunk left its route's
    /// final hop, so it reaches the destination node, not a switch.
    Chunk {
        token: u64,
        from_switch: u16,
        slot: u32,
        bytes: u32,
        gen: u32,
        last: bool,
    },
    /// The bookkeeping half of a chunk whose next hop lives in another
    /// shard (its `Arrive` half is mailed there with the same order
    /// key). Never a final-hop chunk: its next element is a switch.
    Settle {
        from_switch: u16,
        slot: u32,
        bytes: u32,
        gen: u32,
    },
    /// The notification half of a cross-shard chunk, merged in at a
    /// window barrier.
    Arrive { token: u64, bytes: u32 },
    /// A planned fault strikes (replicated in every shard).
    Fault { idx: u32 },
    /// A bumped flow re-enters on a fresh route (replicated; only the
    /// new hop-0 shard seeds the demand).
    Reroute { flow: u32, epoch: u32 },
    /// A partitioned flow's bounded-backoff probe for a route
    /// (replicated, [`evord::reroute`]-keyed like the reroute it
    /// follows — at most one recovery event per flow is ever pending).
    Retry { flow: u32, epoch: u32, attempt: u32 },
    /// A closed-loop application-tier step (`crate::app`), keyed by
    /// [`evord::app_issue`]/[`evord::app_service`]/[`evord::app_done`] so
    /// it sorts after all fabric events at one instant — the app
    /// observes a settled fabric.
    App(AppEv),
}

/// Cross-shard traffic.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TopoMsg {
    /// A chunk's implicit notification at its next-hop switch.
    Arrive { token: u64, bytes: u32 },
    /// One completed sub-offer's bytes reached the destination: every
    /// shard replays this against its flow-state replica.
    Credit { flow: u32, bytes: u32 },
}

/// Width of a token's epoch field.
const EPOCH_BITS: u32 = 24;

/// An offer token: the flow id in the low word; the epoch (24 bits) and
/// the index of the hop the offer sits at (8 bits, top) in the high
/// word. A hop-0 token is `flow | epoch << 32`. Events read the hop off
/// the token instead of searching the route for their switch.
fn pack(flow: u32, epoch: u32, hop: u8) -> u64 {
    flow as u64 | (epoch as u64) << 32 | (hop as u64) << 56
}

/// `(flow, epoch, hop)` of a [`pack`]ed token.
fn unpack(token: u64) -> (u32, u32, u8) {
    let high = (token >> 32) as u32;
    (
        token as u32,
        high & ((1 << EPOCH_BITS) - 1),
        (high >> EPOCH_BITS) as u8,
    )
}

/// The epoch after `epoch`. Panics rather than let the token's epoch
/// field wrap onto a live epoch.
fn next_epoch(epoch: u32) -> u32 {
    assert!(
        epoch + 1 < 1 << EPOCH_BITS,
        "flow epoch overflows the token's {EPOCH_BITS}-bit field"
    );
    epoch + 1
}

/// The route the engine assigns `flow` on `topo` — the *pinned* path
/// choice: salted ECMP over the flow's data direction (writes travel
/// src→dst, reads dst→src), salted by the flow id. [`TopoEdm`] routes
/// every admission, re-route, and solo probe through exactly this
/// function, so any engine that wants to agree with the exact
/// simulation's per-flow paths (the `edm-approx` decomposition
/// front-end) must reproduce it bit-identically — `prop_approx` pins
/// that equivalence.
pub fn admission_route(topo: &Topology, flow: &Flow) -> Option<Route> {
    let (ds, dd) = flow.data_direction();
    topo.route(ds as usize, dd as usize, flow.id as u64)
}

/// [`admission_route`] in the [`Path`] form a flow's entry holds.
fn admission_path(topo: &Topology, flow: &Flow) -> Option<Path> {
    let (ds, dd) = flow.data_direction();
    let path = topo.path(ds as usize, dd as usize, flow.id as u64)?;
    assert!(path.len() <= 1 << 8, "hop indices travel in 8 token bits");
    Some(path)
}

/// The access link a flow's data crosses before its hop 0.
fn src_link(topo: &Topology, flow: &Flow) -> u32 {
    topo.node_link(flow.data_direction().0 as usize)
}

/// Ingress and egress port of `path`'s hop `hop` for `flow`.
fn hop_ports(topo: &Topology, flow: &Flow, path: &Path, hop: usize) -> (u16, u16) {
    let switch = path.switch(hop);
    let in_link = match hop {
        0 => src_link(topo, flow),
        _ => path.out_link(hop - 1),
    };
    (
        topo.port_at(in_link, switch),
        topo.port_at(path.out_link(hop), switch),
    )
}

/// Per-pair X for a route of `hops` hops: single-hop host pairs keep the
/// paper's X; multi-hop routes touch aggregated trunk ports.
fn route_limit(cfg: &TopoEdmConfig, hops: usize) -> usize {
    if hops == 1 {
        cfg.max_active_per_pair
    } else {
        TRUNK_MAX_ACTIVE_PER_PAIR
    }
}

/// One-way latency of a link (propagation + degradation).
pub(crate) fn link_lat(topo: &Topology, link: u32) -> Duration {
    topo.link(link).latency()
}

/// Control-block (8 B) serialization on a link.
pub(crate) fn tx8(topo: &Topology, link: u32) -> Duration {
    topo.link(link).params.bandwidth.tx_time_bytes(8)
}

/// Half-RTT of a control block over an access link: half the pipeline,
/// the link flight, and the block's serialization — identical to the
/// legacy world's `half`.
pub(crate) fn access_half(cfg: &TopoEdmConfig, topo: &Topology, link: u32) -> Duration {
    cfg.pipeline_latency / 2 + link_lat(topo, link) + tx8(topo, link)
}

/// Queues the `Poll` event a switch's domain asked for, if it asked.
fn schedule_poll(q: &mut EventQueue<TopoEv>, switch: u32, at: Option<Time>) {
    if let Some(t) = at {
        q.schedule_ordered(t, evord::poll(switch as u16), TopoEv::Poll { switch });
    }
}

/// The IP lane side a grant at `granting` charges on `link`: trunk lanes
/// are directional (keyed by the granting end), access links keep one
/// lane — both its crossings are charged by the same leaf switch.
fn lane_side(topo: &Topology, link: u32, granting: u32) -> u8 {
    let l = topo.link(link);
    match (l.a, l.b) {
        (Endpoint::Port { switch: a, .. }, Endpoint::Port { .. }) => u8::from(a != granting),
        _ => 0,
    }
}

pub(crate) struct TopoWorld<S, I> {
    pub(crate) cfg: TopoEdmConfig,
    pub(crate) topo: Topology,
    /// Per-flow runtime state, inserted at admission and — in eager
    /// mode — removed at retirement, so `rt.len()` tracks the *active*
    /// flow population rather than the total offered load.
    rt: RtMap,
    /// `Some` only for switches this shard owns (all of them for the
    /// sequential solo plan).
    domains: Vec<Option<SwitchDomain>>,
    /// Per-switch generation, bumped when the switch dies (replicated —
    /// every shard executes fault events). Chunk/settle events carry
    /// the generation they were granted under; a mismatch fences
    /// pre-outage chunks away from the revived switch's cold domain.
    gens: Vec<u32>,
    ip: IpModel,
    plan: Arc<ShardPlan>,
    me: u32,
    reroutes: u64,
    /// Retry probes scheduled (replicated count, reported once).
    retried: u64,
    /// Partitioned flows re-admitted by a retry probe (replicated).
    readmitted: u64,
    /// Dispatched-event tally mirroring the sequential count: `Arrive`
    /// halves, `Admit`s, and non-primary fault/reroute replicas are not
    /// counted.
    events: u64,
    outbox: Vec<Envelope<TopoMsg>>,
    /// Terminal-outcome sink — `Some` only in shard 0, which observes
    /// every terminal transition (local settles plus barrier credits).
    sink: Option<S>,
    /// Streaming arrival source and the next admission index; `None`
    /// once drained (or always, for slice and app input).
    source: Option<(I, u32)>,
    /// Whether a terminal flow leaves `rt` once its reference count
    /// drains: off for slice input (`TopoEdm::seed` records what
    /// retiring would cost).
    eager_retire: bool,
    /// Flows whose terminal transition happened inside the current event
    /// dispatch; drained between events (eager mode only).
    retired: Vec<u32>,
    admitted: u64,
    delivered_n: u64,
    failed_n: u64,
    /// Peak of `rt.len()` — the active-flow high-water mark.
    active_hwm: usize,
    /// The closed-loop application tier (`crate::app`); `None` on plain
    /// fabric runs.
    pub(crate) app: Option<Box<AppState>>,
    /// Flows whose terminal delivery was observed inside the current
    /// `settle` (whose delivery pass holds `rt` mutably); drained into
    /// [`TopoWorld::app_flow_done`] immediately after. App runs only.
    app_done_buf: Vec<u32>,
}

impl<S, I> TopoWorld<S, I>
where
    S: FnMut(u32, TopoOutcome),
    I: Iterator<Item = Flow>,
{
    /// Reports one terminal outcome: counted on every replica, pushed to
    /// the sink only where it lives (shard 0).
    fn emit(&mut self, id: u32, outcome: TopoOutcome) {
        match outcome.status {
            FlowStatus::Delivered(_) => self.delivered_n += 1,
            FlowStatus::Failed(_) => self.failed_n += 1,
        }
        if let Some(s) = self.sink.as_mut() {
            s(id, outcome);
        }
    }

    /// Admits one flow: route it, create its runtime entry, and (on the
    /// hop-0 shard) schedule its demand flight. Unroutable flows fail
    /// immediately and never get an entry. The materialized paths call
    /// this for the whole slice before the run; the streaming path calls
    /// it from `Admit` events at each flow's arrival instant — the
    /// demand events produced are bit-identical either way.
    pub(crate) fn admit(&mut self, id: u32, flow: Flow, q: &mut EventQueue<TopoEv>) {
        self.admitted += 1;
        let path = admission_path(&self.topo, &flow);
        if path.is_none() && self.cfg.max_retries == 0 {
            let status = FlowStatus::Failed(flow.arrival);
            self.emit(id, TopoOutcome { flow, status });
            self.app_flow_done(id, flow.arrival, false, q);
            return;
        }
        let h0 = path.as_ref().map(|p| p.switch(0));
        self.rt.insert(
            id,
            FlowRt {
                flow,
                path,
                epoch: 0,
                delivered: 0,
                inject_bytes: flow.size,
                refs: 0,
                status: RtStatus::Active,
            },
        );
        self.active_hwm = self.active_hwm.max(self.rt.len());
        match h0 {
            // A flow arriving into a partition waits it out like a
            // partitioned reroute does: resident, routeless, with a
            // bounded retry budget.
            None => self.retry_or_fail(id, 0, 1, flow.arrival, q),
            // Host-node events are pinned to the data source's leaf shard.
            Some(h0) if self.local(h0) => {
                let t = self.demand_time(id, flow.arrival);
                q.schedule_ordered(t, evord::demand(id), TopoEv::Demand { flow: id, epoch: 0 });
            }
            Some(_) => {}
        }
    }

    /// Pulls the next arrival from the streaming source and schedules its
    /// admission — exactly one pending arrival is materialized at a time.
    fn pull_next(&mut self, now: Time, q: &mut EventQueue<TopoEv>) {
        let Some((source, next_id)) = self.source.as_mut() else {
            return;
        };
        match source.next() {
            Some(flow) => {
                assert!(
                    flow.arrival >= now,
                    "streamed sources must emit time-ordered arrivals"
                );
                let id = *next_id;
                *next_id += 1;
                q.schedule_ordered(flow.arrival, evord::demand(id), TopoEv::Admit { id, flow });
            }
            None => self.source = None,
        }
    }

    /// Removes entries whose terminal transition was observed during the
    /// last event (the list is only ever fed in eager mode).
    #[inline]
    fn flush_retired(&mut self) {
        if self.retired.is_empty() {
            return;
        }
        for id in self.retired.drain(..) {
            let gone = self.rt.remove(id);
            debug_assert!(gone.is_some(), "flow {id} retired twice");
        }
    }
    /// Whether `switch` belongs to this shard.
    fn local(&self, switch: u32) -> bool {
        self.plan.shard_of(switch) == self.me
    }

    /// Releases one resident-offer reference on `fi` (the offer was
    /// cancelled or died with its purged switch — completed offers
    /// release inside the delivery callback instead). Retires the entry
    /// when it was the last reference on a terminal flow.
    fn release_ref(&mut self, fi: u32) {
        let r = self.rt.get_mut(fi).expect("referenced flows are resident");
        debug_assert!(r.refs > 0, "unbalanced reference release");
        r.refs -= 1;
        let retire = r.refs == 0 && r.status != RtStatus::Active;
        if self.eager_retire && retire {
            self.rt.remove(fi);
        }
    }

    /// Tries to re-enter `flow` on a freshly computed route for `epoch`:
    /// fills the route, resets the injection remainder, and (on the new
    /// hop-0 shard) seeds the demand flight. `false` on partition.
    fn re_enter(&mut self, flow: u32, epoch: u32, now: Time, q: &mut EventQueue<TopoEv>) -> bool {
        let f = self.rt[flow].flow;
        let Some(path) = admission_path(&self.topo, &f) else {
            return false;
        };
        let h0 = path.switch(0);
        let r = self
            .rt
            .get_mut(flow)
            .expect("re-entering flows are resident");
        debug_assert_eq!(r.epoch, epoch, "re-entry for the live epoch");
        r.path = Some(path);
        debug_assert!(f.size > r.delivered, "completed flows are never bumped");
        r.inject_bytes = f.size - r.delivered;
        if self.local(h0) {
            let base = now.max(f.arrival);
            let t = self.demand_time(flow, base);
            q.schedule_ordered(t, evord::demand(flow), TopoEv::Demand { flow, epoch });
        }
        true
    }

    /// A routeless flow's recovery step: schedules the next bounded,
    /// exponentially backed-off retry probe, or fails the flow for good
    /// once the budget is spent. Replicated — every shard runs it
    /// identically, so the Retry event seeds every queue in lockstep.
    fn retry_or_fail(
        &mut self,
        flow: u32,
        epoch: u32,
        attempt: u32,
        now: Time,
        q: &mut EventQueue<TopoEv>,
    ) {
        if attempt <= self.cfg.max_retries {
            self.retried += 1;
            let wait = self.cfg.retry_backoff * (1u64 << (attempt - 1).min(20));
            q.schedule_ordered(
                now + wait,
                evord::reroute(flow),
                TopoEv::Retry {
                    flow,
                    epoch,
                    attempt,
                },
            );
        } else {
            let r = self.rt.get_mut(flow).expect("failing flows are resident");
            r.status = RtStatus::Failed(now);
            let f = r.flow;
            let retire = r.refs == 0;
            self.emit(
                flow,
                TopoOutcome {
                    flow: f,
                    status: FlowStatus::Failed(now),
                },
            );
            if self.eager_retire && retire {
                self.rt.remove(flow);
            }
            self.app_flow_done(flow, now, false, q);
        }
    }

    /// Cold-starts a dying switch's domain (owner shard only), releasing
    /// the reference of every resident offer that will now never
    /// complete. The generation bump that fences the switch's in-flight
    /// chunks happens at the caller (replicated state).
    fn purge_switch(&mut self, s: u32) {
        let Some(dom) = self.domains[s as usize].as_mut() else {
            return;
        };
        let mut dead = Vec::new();
        dom.purge(&mut dead);
        for tok in dead {
            self.release_ref(unpack(tok).0);
        }
    }

    /// When a flow's demand reaches its hop-0 switch, issuing at `base`:
    /// one access flight for the write `/N/` or read RREQ, plus — for
    /// reads — the RREQ's forwarding across the trunk path to the
    /// data-source leaf (control blocks ride repurposed IFG slots, §3.2,
    /// so they pay latency but no scheduling).
    fn demand_time(&self, fi: u32, base: Time) -> Time {
        let rt = &self.rt[fi];
        let f = &rt.flow;
        let path = rt.path.as_ref().expect("route set");
        let origin_link = self.topo.node_link(f.src);
        let mut t = base + access_half(&self.cfg, &self.topo, origin_link);
        if f.kind == FlowKind::Read {
            for (_, out_link) in path.iter().take(path.len() - 1) {
                t = t
                    + self.cfg.pipeline_latency / 2
                    + link_lat(&self.topo, out_link)
                    + tx8(&self.topo, out_link);
            }
        }
        t
    }

    /// Asks `switch`'s domain for a scheduling round — because its `Poll`
    /// event fired (`forwarded` is `None`), or on behalf of a chunk
    /// arriving from another switch, which the domain may grant inline —
    /// and translates each grant into its chunk-flight event (split into
    /// settle + mailed arrive when the next hop lives in another shard).
    fn run_round(
        &mut self,
        switch: u32,
        now: Time,
        forwarded: Option<DomainOffer>,
        q: &mut EventQueue<TopoEv>,
    ) {
        let TopoWorld {
            domains,
            gens,
            topo,
            rt,
            cfg,
            ip,
            plan,
            me,
            outbox,
            ..
        } = self;
        let dom = domains[switch as usize]
            .as_mut()
            .expect("round at an owned switch");
        let round = match forwarded {
            None => dom.poll(now),
            Some(offer) => match dom.offer_forwarded(now, offer) {
                Forwarded::Granted(round) => Some(round),
                Forwarded::Queued(poll) => {
                    schedule_poll(q, switch, poll);
                    None
                }
            },
        };
        let Some(round) = round else {
            return;
        };
        let gen = gens[switch as usize];
        let multi = plan.shards() > 1;
        for g in round.grants {
            let (fi, ep, hop) = unpack(g.token);
            let hop = hop as usize;
            // Zombie (stale-epoch) grants still consume their ports: the
            // chunk flies and is dropped downstream. The entry is
            // resident: flows with granted-but-unsettled chunks never
            // retire.
            let path = rt.path(fi, ep);
            assert_eq!(path.switch(hop), switch, "grant at its token's hop");
            let out_link = path.out_link(hop);
            let last = hop + 1 == path.len();
            debug_assert_eq!(topo.port_at(out_link, switch), g.dst);
            let hop0_link = (hop == 0).then(|| src_link(topo, &rt[fi].flow));
            let turnaround = match hop0_link {
                // Grant flight to the data source, then the chunk's
                // flight back to the switch — the legacy half + ingress
                // composition.
                Some(l) => access_half(cfg, topo, l) + cfg.pipeline_latency / 2 + link_lat(topo, l),
                None => cfg.pipeline_latency / 2,
            };
            let emit = now + round.sched_latency + turnaround;
            let out_bw = topo.link(out_link).params.bandwidth;
            let mut extra = Duration::ZERO;
            if let Some(l) = hop0_link {
                extra += ip.crossing_delay(l, 0, emit, topo.link(l).params.bandwidth);
            }
            extra += ip.crossing_delay(out_link, lane_side(topo, out_link, switch), emit, out_bw);
            let arrival = emit
                + extra
                + link_lat(topo, out_link)
                + out_bw.tx_time_bytes(g.chunk_bytes as u64);
            let ord = evord::chunk(switch as u16, g.gseq);
            let remote = if multi && !last {
                let to = plan.shard_of(path.switch(hop + 1));
                (to != *me).then_some(to)
            } else {
                None
            };
            match remote {
                None => q.schedule_ordered(
                    arrival,
                    ord,
                    TopoEv::Chunk {
                        token: g.token,
                        from_switch: switch as u16,
                        slot: g.slot,
                        bytes: g.chunk_bytes,
                        gen,
                        last,
                    },
                ),
                Some(to) => {
                    // The chunk's trunk flight is at least the plan's
                    // lookahead, so the mailed half always lands in a
                    // later window than this one.
                    q.schedule_ordered(
                        arrival,
                        ord,
                        TopoEv::Settle {
                            from_switch: switch as u16,
                            slot: g.slot,
                            bytes: g.chunk_bytes,
                            gen,
                        },
                    );
                    outbox.push(Envelope {
                        to: Recipient::Shard(to),
                        at: arrival,
                        ord,
                        msg: TopoMsg::Arrive {
                            token: g.token,
                            bytes: g.chunk_bytes,
                        },
                    });
                }
            }
        }
        schedule_poll(q, switch, round.next_poll);
    }

    /// A chunk's egress bookkeeping at its granting switch: the port
    /// really carried it, so the message state advances and backlogged
    /// demand is admitted — also for zombie chunks (blackholed bandwidth
    /// is still spent). Final-hop (`last`) chunks credit the destination
    /// here.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &mut self,
        now: Time,
        from_switch: u32,
        slot: u32,
        bytes: u32,
        gen: u32,
        last: bool,
        q: &mut EventQueue<TopoEv>,
    ) {
        // Generation fence: a chunk granted before this switch died must
        // never index the revived switch's cold slab. While the switch
        // is still down the fence is redundant with the up-check, but
        // both stay — a revived switch is up again with a new gen.
        if self.gens[from_switch as usize] != gen || !self.topo.switch_up(from_switch) {
            return;
        }
        let TopoWorld {
            domains,
            rt,
            plan,
            outbox,
            sink,
            retired,
            eager_retire,
            delivered_n,
            app,
            app_done_buf,
            ..
        } = self;
        let app_on = app.is_some();
        let multi = plan.shards() > 1;
        let dom = domains[from_switch as usize]
            .as_mut()
            .expect("settle at an owned switch");
        let poll = dom.deliver(now, slot, bytes, |tok, sub_bytes| {
            let (cfi, cep, _) = unpack(tok);
            // Every completed sub-offer releases the residency reference
            // it held — stale epochs drain as blackholed bandwidth but
            // still complete at their granting switch, so references
            // drain even on fault runs.
            let r = rt
                .get_mut(cfi)
                .expect("a completed sub-offer holds a reference");
            debug_assert!(r.refs > 0, "unbalanced reference release");
            r.refs -= 1;
            // Late bytes of a pre-fault epoch were already re-sent;
            // crediting them would double-count.
            if last && r.epoch == cep && r.status == RtStatus::Active {
                r.delivered += sub_bytes;
                if r.delivered >= r.flow.size {
                    debug_assert_eq!(r.delivered, r.flow.size);
                    r.status = RtStatus::Done(now);
                    *delivered_n += 1;
                    if app_on {
                        // The delivery pass holds `rt` mutably; the app
                        // hook (which schedules the op's next step) runs
                        // from the drain right after it.
                        app_done_buf.push(cfi);
                    }
                    if let Some(s) = sink.as_mut() {
                        s(
                            cfi,
                            TopoOutcome {
                                flow: r.flow,
                                status: FlowStatus::Delivered(now),
                            },
                        );
                    }
                }
                if multi {
                    // Replicate the credit to every other shard's
                    // flow-state replica (applied in deterministic
                    // order at barriers).
                    outbox.push(Envelope {
                        to: Recipient::Broadcast,
                        at: now,
                        ord: evord::credit(cfi),
                        msg: TopoMsg::Credit {
                            flow: cfi,
                            bytes: sub_bytes,
                        },
                    });
                }
            }
            if *eager_retire && r.refs == 0 && r.status != RtStatus::Active {
                // Deferred to the end of this dispatch: `rt` is
                // mutably borrowed for the whole delivery pass.
                retired.push(cfi);
            }
        });
        schedule_poll(q, from_switch, poll);
        if !self.app_done_buf.is_empty() {
            let done = std::mem::take(&mut self.app_done_buf);
            for fi in &done {
                self.app_flow_done(*fi, now, true, q);
            }
            // Hand the allocation back for the next settle.
            self.app_done_buf = done;
            self.app_done_buf.clear();
        }
    }

    /// A non-final chunk's implicit notification at its next-hop switch
    /// (arrival = demand), unless the chunk is stale or the switch is
    /// gone.
    fn arrive(&mut self, now: Time, token: u64, bytes: u32, q: &mut EventQueue<TopoEv>) {
        let (fi, ep, hop) = unpack(token);
        // A chunk can outlive its flow's replica on this shard: a
        // terminal flow retires here while a zombie chunk is still
        // mailed over from the shard whose switch drains it. Retirement
        // requires a terminal status, and every post-terminal chunk is
        // stale-epoch by construction — drop it exactly as the epoch
        // check below would have.
        let Some(r) = self.rt.get(fi) else {
            return;
        };
        if r.epoch != ep || r.status != RtStatus::Active {
            return;
        }
        let path = r.path.as_ref().expect("route for the offered epoch");
        let next = hop as usize + 1;
        let sw2 = path.switch(next);
        if !self.topo.switch_up(sw2) {
            return;
        }
        let (src, dst) = hop_ports(&self.topo, &r.flow, path, next);
        let token = pack(fi, ep, next as u8);
        let offer = DomainOffer {
            src,
            dst,
            bytes,
            limit: route_limit(&self.cfg, path.len()),
            token,
        };
        // The resident offer — admitted or backlogged — holds a
        // reference on the flow until it completes, cancels, or dies
        // with a purged switch.
        self.rt.get_mut(fi).expect("checked resident above").refs += 1;
        // Forwarded, so an uncontended hop is granted inline. (Hop-0
        // demand never is, preserving 1-switch bit-identity.)
        self.run_round(sw2, now, Some(offer), q);
    }

    /// Bumps the epoch of every incomplete flow whose live route
    /// satisfies `pred`, scheduling its recovery after `delay` and
    /// revoking its stale hop-0 demand. Fault bumps reroute
    /// flows *off* a dead element; repair bumps migrate flows *onto* a
    /// healed one — same mechanism, different predicate and delay.
    fn bump_affected(
        &mut self,
        now: Time,
        delay: Duration,
        q: &mut EventQueue<TopoEv>,
        pred: impl Fn(&Topology, &Flow, &Path) -> bool,
    ) {
        let reroute_at = now + delay;
        // Bump in admission-index order — the ring iterates ids
        // ascending, so reroute scheduling and demand revocation are
        // deterministic. (Materialized first: the loop mutates entries.)
        let ids: Vec<u32> = self.rt.ids().collect();
        // (flow, bumped epoch, hop-0 switch, its ingress and egress port)
        let mut bumped: Vec<(u32, u32, u32, u16, u16)> = Vec::new();
        for fi in ids {
            let r = &self.rt[fi];
            if r.status != RtStatus::Active {
                continue;
            }
            let Some(path) = r.path.as_ref() else {
                continue;
            };
            if !pred(&self.topo, &r.flow, path) {
                continue;
            }
            let (in_port, out_port) = hop_ports(&self.topo, &r.flow, path, 0);
            bumped.push((fi, r.epoch, path.switch(0), in_port, out_port));
            self.rt.bump(fi);
            q.schedule_ordered(
                reroute_at,
                evord::reroute(fi),
                TopoEv::Reroute {
                    flow: fi,
                    epoch: self.rt[fi].epoch,
                },
            );
        }
        // Sender-side revocation: withdraw each bumped flow's hop-0
        // message so the dead path's backlog stops counting as
        // demand. In flow order — the same order the sequential run
        // cancels in, so backlog admissions stay deterministic.
        for (flow, old_epoch, h0, in_port, out_port) in bumped {
            if !self.local(h0) || !self.topo.switch_up(h0) {
                continue;
            }
            let dom = self.domains[h0 as usize]
                .as_mut()
                .expect("cancel at an owned switch");
            let cancel = dom.cancel(now, in_port, out_port, pack(flow, old_epoch, 0));
            if let DomainCancel::Withdrawn { poll } = cancel {
                // The withdrawn offer's reference releases; the flow
                // itself stays Active (its reroute is pending), so no
                // retirement can trigger here.
                self.release_ref(flow);
                schedule_poll(q, h0, poll);
            }
        }
    }

    /// One event. The shared core of the sequential [`World`] and the
    /// parallel [`ShardWorld`] drivers.
    fn dispatch(&mut self, now: Time, ev: TopoEv, q: &mut EventQueue<TopoEv>) {
        match ev {
            TopoEv::Admit { id, flow } => {
                // Not counted in `events`: the materialized path admits
                // before the run, and the streamed tally must match it.
                self.admit(id, flow, q);
                self.pull_next(now, q);
            }
            TopoEv::Demand { flow, epoch } => {
                self.events += 1;
                let token = pack(flow, epoch, 0);
                let (h0, (src, dst), bytes, limit) = {
                    // The flow can retire before its demand fires: a
                    // fault between admission and the demand flight
                    // bumps it, and the bumped epoch can fail (and
                    // retire, holding no references yet) before this
                    // event's instant. Stale by construction — drop.
                    let Some(r) = self.rt.get(flow) else {
                        return;
                    };
                    if r.epoch != epoch || r.status != RtStatus::Active {
                        return;
                    }
                    let path = r.path.as_ref().expect("active route");
                    (
                        path.switch(0),
                        hop_ports(&self.topo, &r.flow, path, 0),
                        r.inject_bytes,
                        route_limit(&self.cfg, path.len()),
                    )
                };
                if !self.topo.switch_up(h0) {
                    return; // covered by the epoch bump; defensive
                }
                let offer = DomainOffer {
                    src,
                    dst,
                    bytes,
                    limit,
                    token,
                };
                // The resident hop-0 offer holds a reference on the flow.
                self.rt.get_mut(flow).expect("checked resident above").refs += 1;
                let dom = self.domains[h0 as usize]
                    .as_mut()
                    .expect("demand at an owned switch");
                schedule_poll(q, h0, dom.offer(now, offer));
            }
            TopoEv::Poll { switch } => {
                self.events += 1;
                if self.topo.switch_up(switch) {
                    self.run_round(switch, now, None, q);
                }
            }
            TopoEv::Chunk {
                token,
                from_switch,
                slot,
                bytes,
                gen,
                last,
            } => {
                self.events += 1;
                self.settle(now, from_switch as u32, slot, bytes, gen, last, q);
                if !last {
                    self.arrive(now, token, bytes, q);
                }
            }
            TopoEv::Settle {
                from_switch,
                slot,
                bytes,
                gen,
            } => {
                // Counts as the chunk's one event; its mailed Arrive
                // half does not.
                self.events += 1;
                self.settle(now, from_switch as u32, slot, bytes, gen, false, q);
            }
            TopoEv::Arrive { token, bytes } => self.arrive(now, token, bytes, q),
            TopoEv::Fault { idx } => {
                // Replicated in every shard; counted once.
                if self.me == 0 {
                    self.events += 1;
                }
                let fault = self.cfg.faults[idx as usize];
                let reroute_delay = self.cfg.reroute_delay;
                match fault.kind {
                    FaultKind::LinkDown(l) => {
                        self.topo.set_link_up(l, false);
                        self.bump_affected(now, reroute_delay, q, |topo, flow, path| {
                            src_link(topo, flow) == l || path.iter().any(|(_, out)| out == l)
                        });
                    }
                    FaultKind::SwitchDown(s) => {
                        // Idempotence guard: a double-down must not bump
                        // the generation again (harmless) or re-purge —
                        // and matches the old behavior, where the second
                        // strike's bump matched nothing.
                        if self.topo.switch_up(s) {
                            self.topo.set_switch_up(s, false);
                            self.gens[s as usize] += 1;
                            self.purge_switch(s);
                            self.bump_affected(now, reroute_delay, q, |_, _, path| {
                                path.iter().any(|(sw, _)| sw == s)
                            });
                        }
                    }
                    FaultKind::DegradeLink { link, extra } => {
                        // Latency-only: routes keep flowing, slower.
                        self.topo.degrade_link(link, extra);
                    }
                    FaultKind::LinkUp(l) => {
                        if !self.topo.link(l).is_up() {
                            self.topo.set_link_up(l, true);
                            self.bump_improvable(now, REPAIR_DELAY, q);
                        }
                    }
                    FaultKind::SwitchUp(s) => {
                        if !self.topo.switch_up(s) {
                            // The owned domain was purged at SwitchDown;
                            // the revived switch starts cold, fenced
                            // from pre-outage chunks by its generation.
                            self.topo.set_switch_up(s, true);
                            self.bump_improvable(now, REPAIR_DELAY, q);
                        }
                    }
                    FaultKind::RestoreLink(l) => {
                        // Latency-only, like the degradation it clears.
                        self.topo.restore_link(l);
                    }
                }
            }
            TopoEv::Reroute { flow, epoch } => {
                // Replicated in every shard; counted once.
                if self.me == 0 {
                    self.events += 1;
                }
                // A pending reroute pins its flow Active and resident: a
                // routeless epoch can neither deliver nor be bumped
                // again — the lookup cannot miss.
                if self.rt[flow].epoch != epoch || self.rt[flow].status != RtStatus::Active {
                    return;
                }
                if self.re_enter(flow, epoch, now, q) {
                    self.reroutes += 1;
                } else {
                    self.retry_or_fail(flow, epoch, 1, now, q);
                }
            }
            TopoEv::Retry {
                flow,
                epoch,
                attempt,
            } => {
                // Replicated in every shard; counted once.
                if self.me == 0 {
                    self.events += 1;
                }
                // Like a pending reroute, a pending retry pins its flow
                // Active and resident.
                debug_assert_eq!(self.rt[flow].epoch, epoch, "retry for a stale epoch");
                debug_assert_eq!(self.rt[flow].status, RtStatus::Active);
                if self.re_enter(flow, epoch, now, q) {
                    self.readmitted += 1;
                } else {
                    self.retry_or_fail(flow, epoch, attempt + 1, now, q);
                }
            }
            TopoEv::App(ev) => {
                self.events += 1;
                self.app_dispatch(now, ev, q);
            }
        }
    }

    /// The repair-side epoch bump: flows whose live route is now longer
    /// than the healed fabric's shortest path migrate onto it after the
    /// detection delay. Routeless flows (reroute or retry pending) are
    /// skipped — their own recovery event will find the better fabric.
    fn bump_improvable(&mut self, now: Time, delay: Duration, q: &mut EventQueue<TopoEv>) {
        self.bump_affected(now, delay, q, |topo, flow, path| {
            let (ds, dd) = flow.data_direction();
            let a = topo.attach(ds as usize).0;
            let b = topo.attach(dd as usize).0;
            match topo.switch_distance(a, b) {
                // `dist` trunk hops ⇒ `dist + 1` switches on a shortest
                // path, one hop each — strictly fewer than the current
                // detour means a bump pays for itself.
                Some(dist) => path.len() > dist + 1,
                None => false,
            }
        });
    }
}

impl<S, I> World for TopoWorld<S, I>
where
    S: FnMut(u32, TopoOutcome),
    I: Iterator<Item = Flow>,
{
    type Event = TopoEv;

    fn handle(&mut self, now: Time, ev: TopoEv, q: &mut EventQueue<TopoEv>) {
        self.dispatch(now, ev, q);
        self.flush_retired();
        debug_assert!(
            self.outbox.is_empty(),
            "sequential run emitted cross-shard traffic"
        );
    }
}

impl<S, I> ShardWorld for TopoWorld<S, I>
where
    S: FnMut(u32, TopoOutcome) + Send,
    I: Iterator<Item = Flow> + Send,
{
    type Event = TopoEv;
    type Msg = TopoMsg;

    fn handle(&mut self, now: Time, ev: TopoEv, q: &mut EventQueue<TopoEv>) {
        self.dispatch(now, ev, q);
        self.flush_retired();
    }

    fn drain_outbox(&mut self, sink: &mut Vec<Envelope<TopoMsg>>) {
        sink.append(&mut self.outbox);
    }

    fn receive(&mut self, at: Time, ord: u64, msg: TopoMsg, q: &mut EventQueue<TopoEv>) {
        match msg {
            TopoMsg::Arrive { token, bytes } => {
                q.schedule_ordered(at, ord, TopoEv::Arrive { token, bytes })
            }
            TopoMsg::Credit { flow, bytes } => {
                // State sync: replay the destination shard's credit
                // against this replica. The emitting shard already
                // performed the epoch/status checks at credit time, and
                // replicas are in lockstep at barriers, so the credit
                // applies unconditionally here.
                let r = self.rt.get_mut(flow).expect("credit for a resident flow");
                debug_assert_eq!(r.status, RtStatus::Active, "credit for a settled flow");
                r.delivered += bytes;
                if r.delivered < r.flow.size {
                    return;
                }
                debug_assert_eq!(r.delivered, r.flow.size);
                r.status = RtStatus::Done(at);
                let f = r.flow;
                self.emit(
                    flow,
                    TopoOutcome {
                        flow: f,
                        status: FlowStatus::Delivered(at),
                    },
                );
                // The credit-shard counterpart of the settle-shard's
                // deferred retirement: conservative windows guarantee
                // every chunk event of the flow was dispatched before
                // its final credit crosses a barrier. Outstanding local
                // references (fault-run re-offers still resident in an
                // owned domain here) defer removal to their release.
                let no_refs = self.rt[flow].refs == 0;
                if self.eager_retire && no_refs {
                    self.rt.remove(flow);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_topology;
    use crate::topology::{LeafSpine, LinkParams};
    use edm_core::sim::FabricProtocol;

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
    fn flow_rt_slot_stays_96_bytes() {
        // `RtMap` holds one slot per id in the live id-span, and a single
        // long closed-loop op (`app_ycsb_288`'s p99.9 is 680 µs of a
        // ~2 ms run) keeps a large share of a run's ids in that span:
        // peak RSS scales with this size (a 168-byte slot measured +46 %
        // there). The live route is inline, so it must fit here.
        assert!(std::mem::size_of::<FlowRt>() <= 96);
        assert!(std::mem::size_of::<Option<FlowRt>>() <= 96);
        // The hop index rides in the token, `last` in the chunk event's
        // padding: the event queue's element size does not move.
        assert_eq!(std::mem::size_of::<TopoEv>(), 48);
    }

    #[test]
    fn tokens_round_trip_at_their_field_limits() {
        let max_epoch = (1 << EPOCH_BITS) - 1;
        for (flow, epoch, hop) in [(u32::MAX, max_epoch, 255), (0, 0, 0), (7, max_epoch, 0)] {
            assert_eq!(unpack(pack(flow, epoch, hop)), (flow, epoch, hop));
        }
        // Hop-0 tokens keep the pre-hop layout `cancel` was written
        // against.
        assert_eq!(pack(9, 3, 0), 9 | 3 << 32);
        assert_eq!(next_epoch(max_epoch - 1), max_epoch);
    }

    #[test]
    #[should_panic(expected = "flow epoch overflows the token's 24-bit field")]
    fn epoch_bump_past_the_token_field_panics() {
        next_epoch((1 << EPOCH_BITS) - 1);
    }

    #[test]
    fn single_switch_matches_legacy_exactly() {
        let cluster = ClusterConfig {
            nodes: 8,
            ..ClusterConfig::default()
        };
        let mut legacy = EdmProtocol::default();
        let flows: Vec<Flow> = (0..6)
            .map(|i| write_flow(i, i % 4, 4 + (i % 4), 64 + 100 * i as u32, 10 * i as u64))
            .collect();
        let expect = legacy.simulate(&cluster, &flows);
        let topo = cluster_topology(&cluster);
        let cfg = TopoEdmConfig::matching(&cluster, &legacy);
        let got = TopoEdm::new(cfg).simulate(&topo, &flows);
        for (a, b) in expect.outcomes.iter().zip(&got.outcomes) {
            assert_eq!(FlowStatus::Delivered(a.completed), b.status, "{:?}", a.flow);
        }
        assert_eq!(got.stats.reroutes, 0);
    }

    #[test]
    fn cross_leaf_flow_pays_the_extra_hops() {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 2, 4, 2));
        let proto = TopoEdm::default();
        let local = proto.solo_mct(&topo, &write_flow(0, 0, 1, 256, 0)).unwrap();
        let remote = proto.solo_mct(&topo, &write_flow(0, 0, 5, 256, 0)).unwrap();
        assert!(
            remote > local,
            "cross-leaf {remote} must exceed same-leaf {local}"
        );
        // Two extra store-and-forward hops: bounded, not a blowup.
        assert!(remote < 3 * local, "remote {remote} vs local {local}");
    }

    #[test]
    fn reads_cross_the_fabric_too() {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 1, 4, 1));
        let proto = TopoEdm::default();
        let flows = vec![Flow {
            id: 0,
            src: 0,
            dst: 6,
            size: 256,
            arrival: Time::ZERO,
            kind: FlowKind::Read,
        }];
        let r = proto.simulate(&topo, &flows);
        assert_eq!(r.stats.delivered, 1);
        let mct = r.outcomes[0].mct().unwrap();
        let write_mct = proto.solo_mct(&topo, &write_flow(0, 0, 6, 256, 0)).unwrap();
        // The read pays the RREQ's extra trunk forwarding on top of the
        // write shape.
        assert!(mct > write_mct, "read {mct} vs write {write_mct}");
    }

    #[test]
    fn trunk_contention_serializes_but_completes() {
        // 8 cross-leaf flows share one uplink (1 spine, 1 uplink): the
        // trunk pair aggregates them; everything must drain.
        let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 1, 8, 1));
        let flows: Vec<Flow> = (0..8).map(|i| write_flow(i, i, 8 + i, 4096, 0)).collect();
        let r = TopoEdm::default().simulate(&topo, &flows);
        assert_eq!(r.stats.delivered, 8);
    }

    #[test]
    fn mixed_ip_traffic_adds_latency_but_everything_completes() {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 8, 4));
        let flows: Vec<Flow> = (0..64)
            .map(|i| write_flow(i, i % 16, 16 + (i % 16), 256, 50 * i as u64))
            .collect();
        let clean = TopoEdm::default().simulate(&topo, &flows);
        let cfg = TopoEdmConfig {
            ip: 0.6,
            ..TopoEdmConfig::default()
        };
        let loaded = TopoEdm::new(cfg).simulate(&topo, &flows);
        assert_eq!(loaded.stats.delivered, 64);
        assert!(loaded.stats.ip_frames > 0);
        assert!(
            loaded.mean_mct() > clean.mean_mct(),
            "IP interference must cost latency: {} vs {}",
            loaded.mean_mct(),
            clean.mean_mct()
        );
    }

    /// A leaf-spine run under background IP at 0.3 of every link folds
    /// each outcome's flow id, status and instant, and the IP counters,
    /// into an FNV-1a digest recorded before the IP frame size, seed and
    /// preemption became constants: moving any of them, or the trunk X,
    /// fails here by name.
    #[test]
    fn ip_loaded_leaf_spine_keeps_its_recorded_digest() {
        const DIGEST: u64 = 0x0635_9bec_840d_0bb0;
        let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 4, 2));
        let mut rng = edm_sim::Rng::seed_from(0xed);
        let mut at = Time::ZERO;
        let flows: Vec<Flow> = (0..400)
            .map(|id| {
                at += Duration::from_ns(rng.below(120));
                let src = rng.below(16) as usize;
                let dst = (src + 1 + rng.below(15) as usize) % 16;
                Flow {
                    id,
                    src,
                    dst,
                    size: 64 << rng.below(8),
                    arrival: at,
                    kind: if rng.chance(0.5) {
                        FlowKind::Read
                    } else {
                        FlowKind::Write
                    },
                }
            })
            .collect();
        let cfg = TopoEdmConfig {
            ip: 0.3,
            ..TopoEdmConfig::default()
        };
        let r = TopoEdm::new(cfg).simulate(&topo, &flows);
        assert_eq!(r.stats.delivered, 400);
        assert!(r.stats.ip_delayed > 0, "IP must delay some crossings");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        for o in &r.outcomes {
            mix(o.flow.id as u64);
            let (failed, t) = match o.status {
                FlowStatus::Delivered(t) => (0, t),
                FlowStatus::Failed(t) => (1, t),
            };
            mix(failed);
            mix(t.as_ps());
        }
        mix(r.stats.ip_frames);
        mix(r.stats.ip_delayed);
        println!("digest {h:#x}");
        assert_eq!(h, DIGEST, "{h:#x}");
    }

    #[test]
    fn degraded_trunk_slows_exactly_by_the_added_latency() {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 1, 2, 1));
        let flow = write_flow(0, 0, 2, 64, 0); // one chunk, cross-leaf
        let proto = TopoEdm::default();
        let clean = proto.simulate(&topo, &[flow]).outcomes[0].mct().unwrap();
        let route = topo.route(0, 2, 0).unwrap();
        let extra = Duration::from_ns(500);
        let cfg = TopoEdmConfig {
            faults: vec![FaultEvent {
                at: Time::ZERO,
                kind: FaultKind::DegradeLink {
                    link: route.hops[0].out_link,
                    extra,
                },
            }],
            ..TopoEdmConfig::default()
        };
        let slow = TopoEdm::new(cfg).simulate(&topo, &[flow]).outcomes[0]
            .mct()
            .unwrap();
        // The single chunk crosses the degraded leaf→spine trunk once.
        assert_eq!(slow, clean + extra);
    }

    #[test]
    #[should_panic(expected = "(X) must be at least 1")]
    fn zero_host_pair_limit_is_rejected_before_the_run() {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 1, 4, 1));
        let cfg = TopoEdmConfig {
            max_active_per_pair: 0,
            ..TopoEdmConfig::default()
        };
        TopoEdm::new(cfg).simulate(&topo, &[write_flow(0, 0, 1, 64, 0)]);
    }

    #[test]
    fn x1_hot_pair_backlog_drains_in_pair_order() {
        // X = 1 on host pairs; a hot cross-leaf pair offers more messages
        // than the trunk X admits, so its backlog admits one message per
        // completion at every hop, and still every flow delivers, in pair
        // order.
        let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 1, 4, 1));
        let cfg = TopoEdmConfig {
            max_active_per_pair: 1,
            ..TopoEdmConfig::default()
        };
        let n = TRUNK_MAX_ACTIVE_PER_PAIR + 8;
        let flows: Vec<Flow> = (0..n)
            .map(|i| write_flow(i, 0, 4, 4096, i as u64))
            .collect();
        let r = TopoEdm::new(cfg.clone()).simulate(&topo, &flows);
        assert_eq!(
            r.stats.delivered, n as u64,
            "every cross-leaf flow delivers"
        );
        // Same-pair order still holds end-to-end.
        let done = |o: &TopoOutcome| match o.status {
            FlowStatus::Delivered(t) => t,
            FlowStatus::Failed(t) => panic!("unexpected failure at {t}"),
        };
        for w in r.outcomes.windows(2) {
            assert!(done(&w[0]) <= done(&w[1]), "pair order violated");
        }
        // The same-leaf hot pair delivers too.
        let local: Vec<Flow> = (0..5)
            .map(|i| write_flow(i, 0, 2, 4096, i as u64))
            .collect();
        let r = TopoEdm::new(cfg).simulate(&topo, &local);
        assert_eq!(r.stats.delivered, 5);
    }

    #[test]
    fn isolated_destination_fails_deterministically() {
        let mut topo = Topology::single_switch(4, LinkParams::default());
        topo.set_link_up(3, false);
        let flows = vec![write_flow(0, 0, 3, 64, 0), write_flow(1, 0, 1, 64, 0)];
        let r = TopoEdm::default().simulate(&topo, &flows);
        assert_eq!(r.outcomes[0].status, FlowStatus::Failed(Time::ZERO));
        assert!(matches!(r.outcomes[1].status, FlowStatus::Delivered(_)));
    }

    #[test]
    fn sharded_run_matches_sequential_on_a_loaded_fabric() {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 8, 4));
        let flows: Vec<Flow> = (0..96)
            .map(|i| {
                write_flow(
                    i,
                    i % 16,
                    16 + ((i * 7) % 16),
                    64 + 512 * (i as u32 % 3),
                    40 * i as u64,
                )
            })
            .collect();
        let proto = TopoEdm::default();
        let mut seq = Vec::new();
        let seq_stats = proto.simulate_streamed(&topo, flows.iter().copied(), |o| seq.push(o));
        seq.sort_by_key(|o| o.flow.id);
        for shards in [2, 3, 4] {
            let mut par = Vec::new();
            let source = flows.iter().copied();
            let par_stats = proto.simulate_sharded_streamed(&topo, source, |o| par.push(o), shards);
            assert_eq!(par.len(), seq.len());
            par.sort_by_key(|o| o.flow.id);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(
                    a.status, b.status,
                    "{shards} shards diverged on {:?}",
                    a.flow
                );
            }
            assert_eq!(par_stats.reroutes, seq_stats.reroutes);
            assert_eq!(
                par_stats.events, seq_stats.events,
                "{shards}-shard event tally"
            );
        }
    }

    #[test]
    fn streamed_run_is_bit_identical_to_materialized() {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 8, 4));
        let flows: Vec<Flow> = (0..96)
            .map(|i| {
                write_flow(
                    i,
                    i % 16,
                    16 + ((i * 7) % 16),
                    64 + 512 * (i as u32 % 3),
                    40 * i as u64,
                )
            })
            .collect();
        let proto = TopoEdm::default();
        let reference = proto.simulate(&topo, &flows);
        let mut streamed = Vec::new();
        let stats = proto.simulate_streamed(&topo, flows.iter().copied(), |o| streamed.push(o));
        assert_eq!(stats.admitted, 96);
        assert_eq!(stats.delivered, 96);
        assert_eq!(stats.events, reference.stats.events);
        streamed.sort_by_key(|o| o.flow.id);
        for (a, b) in reference.outcomes.iter().zip(&streamed) {
            assert_eq!(a.status, b.status, "streamed diverged on {:?}", a.flow);
        }
        // Retirement really bounded resident state: 96 flows spread over
        // ~4 µs never all overlap.
        assert!(
            stats.active_high_water < 96,
            "no flow retired (HWM {})",
            stats.active_high_water
        );
    }

    /// N well-separated waves of the same 8-flow pattern must reuse the
    /// retired wave's flow entries and switch message slots: the
    /// active-flow and slot high-water marks stay at the single-wave
    /// footprint no matter how many waves stream through.
    #[test]
    fn streamed_waves_bound_resident_state_at_one_wave() {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 1, 4, 1));
        let wave_flows = |waves: usize| -> Vec<Flow> {
            (0..waves)
                .flat_map(|w| {
                    (0..8).map(move |i| {
                        write_flow(w * 8 + i, i % 4, 4 + (i % 4), 2048, 40_000 * w as u64)
                    })
                })
                .collect()
        };
        let run = |waves: usize| {
            let flows = wave_flows(waves);
            TopoEdm::default().simulate_streamed(&topo, flows.iter().copied(), |_| {})
        };
        let one = run(1);
        let many = run(12);
        assert_eq!(many.delivered, 96);
        assert_eq!(
            many.active_high_water, one.active_high_water,
            "flow entries did not recycle across waves"
        );
        assert_eq!(
            many.msg_slots_high_water, one.msg_slots_high_water,
            "switch message slots did not recycle across waves"
        );
    }

    #[test]
    fn streamed_run_with_faults_keeps_context_and_terminates() {
        // A spine dies mid-run: pre-fault flows reroute (zombie context
        // stays resident — retirement is off), post-fault arrivals route
        // around the dead spine at admission.
        let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 2, 4, 2));
        let flows: Vec<Flow> = (0..24)
            .map(|i| write_flow(i, i % 4, 4 + (i % 4), 4096, 2_000 * i as u64))
            .collect();
        let proto = TopoEdm::new(TopoEdmConfig {
            faults: vec![FaultEvent {
                at: Time::from_us(20),
                kind: FaultKind::SwitchDown(2), // first spine
            }],
            reroute_delay: Duration::from_us(2),
            ..TopoEdmConfig::default()
        });
        let mut outcomes = Vec::new();
        let stats = proto.simulate_streamed(&topo, flows.iter().copied(), |o| outcomes.push(o));
        assert_eq!(stats.admitted, 24);
        assert_eq!(
            stats.delivered, 24,
            "the second spine must absorb everything"
        );
        assert_eq!(outcomes.len(), 24);
    }

    /// The event queue's counters after a sequential run of `input`.
    fn queue_stats_of<I>(topo: &Topology, input: Input<'_, I>) -> edm_sim::QueueStats
    where
        I: Iterator<Item = Flow>,
    {
        let plan = Arc::new(ShardPlan::solo(topo.switch_count()));
        let sink = None::<fn(u32, TopoOutcome)>;
        let (world, q) = TopoEdm::default().seed(topo, &plan, 0, sink, input);
        let mut engine = Engine::with_queue(world, q);
        engine.run();
        engine.queue_stats()
    }

    #[test]
    fn event_queue_stays_healthy_after_a_closed_loop_burst_start() {
        // `app_ycsb_288`, reduced: 48 saturating tenants at MLP 8 all
        // issue at t = 0, so the calendar queue engages and first grows
        // on a head that spans zero time. Before the queue watched its
        // dequeue cost that meant 1 ps buckets for the whole run: 63
        // empty buckets stepped over per pop, a year advance every third
        // pop and 80 % of schedules through the overflow heap.
        let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 72, 36));
        let mix = edm_workloads::OpMix::remote(edm_workloads::YcsbWorkload::b());
        let tenants = (0..48)
            .map(|i| edm_workloads::TenantSpec::saturating(i * 3, mix, 8, 250))
            .collect();
        let memory_nodes = (0..16).map(|i| 144 + i * 9).collect();
        let app = AppConfig::new(tenants, memory_nodes);
        let s = queue_stats_of(&topo, Input::<NoSource>::App(&app));
        assert!(s.pops > 100_000, "{s:?}");
        assert!(s.empty_steps <= 2 * s.pops, "{s:?}");
        assert!(s.year_advances * 32 <= s.pops, "{s:?}");
    }

    #[test]
    fn event_queue_never_rebuilds_on_dequeue_cost_in_an_open_loop_stream() {
        // The healthy path must not start rebuilding: `prop_stream`'s
        // reduced 288-node 64 B stream keeps its geometry through the
        // size and insert-walk triggers alone.
        let topo = Topology::leaf_spine(LeafSpine::symmetric(4, 2, 72, 36));
        let wl = edm_workloads::RackAwareWorkload {
            nodes: 288,
            racks: 4,
            link: edm_sim::Bandwidth::from_gbps(100),
            load: 0.6,
            size: 64,
            write_fraction: 0.5,
            local_fraction: 0.4,
            count: 20_000,
        };
        let s = queue_stats_of(&topo, Input::Source(wl.source(42)));
        assert!(s.pops > 100_000, "{s:?}");
        assert_eq!(s.scan_rebuilds, 0, "{s:?}");
        assert!(s.empty_steps <= 2 * s.pops, "{s:?}");
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn streamed_source_must_be_time_ordered() {
        let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 1, 2, 1));
        let flows = vec![write_flow(0, 0, 2, 64, 500), write_flow(1, 1, 3, 64, 0)];
        TopoEdm::default().simulate_streamed(&topo, flows.into_iter(), |_| {});
    }

    #[test]
    fn cancel_on_reroute_frees_the_dead_path_backlog() {
        // A big cross-leaf flow loses its trunk mid-run; a second flow
        // from the same source node starts after the fault. Revocation
        // takes the stale remainder off the shared access port, so both
        // flows finish earlier than they did when a sender never revoked
        // announced demand and the remainder drained as blackholed
        // bandwidth — the times this scenario produced with revocation
        // switched off, before that switch was removed.
        const NEVER_REVOKED: [Duration; 2] = [
            Duration::from_ps(156_497_517),
            Duration::from_ps(16_126_479),
        ];
        let topo = Topology::leaf_spine(LeafSpine::symmetric(2, 2, 4, 1));
        let used = topo.route(0, 4, 0).unwrap().hops[0].out_link;
        let flows = vec![
            write_flow(0, 0, 4, 1_000_000, 0),
            write_flow(1, 0, 2, 200_000, 30_000),
        ];
        let r = TopoEdm::new(TopoEdmConfig {
            faults: vec![FaultEvent {
                at: Time::from_us(20),
                kind: FaultKind::LinkDown(used),
            }],
            ..TopoEdmConfig::default()
        })
        .simulate(&topo, &flows);
        assert_eq!(r.stats.delivered, 2);
        assert_eq!(r.stats.reroutes, 1);
        for (o, never_revoked) in r.outcomes.iter().zip(NEVER_REVOKED) {
            let mct = o.mct().unwrap();
            assert!(
                mct < never_revoked,
                "revocation must beat the blackhole drain: {mct} vs {never_revoked}"
            );
        }
    }
}
