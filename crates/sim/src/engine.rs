//! The discrete-event simulation driver.
//!
//! The engine is split into two pieces so that event handlers can schedule
//! follow-up events while mutably borrowing the world state:
//!
//! * [`EventQueue`] — a calendar-queue priority queue with deterministic
//!   FIFO tie-breaking for simultaneous events.
//! * [`World`] — the user's simulation state; its [`World::handle`] method
//!   receives each event together with a mutable reference to the queue.
//! * [`Engine`] — owns both and drives the main loop.
//!
//! # The calendar queue
//!
//! [`EventQueue`] is the classic discrete-event-simulation calendar queue
//! (Brown 1988, the structure NS-style simulators use to reach O(1)
//! enqueue/dequeue): simulated time is cut into power-of-two-wide *days*
//! (buckets); one sweep across the bucket array is a *year*. Events
//! inside the current year hash into their day bucket in O(1); events
//! beyond it wait in an *overflow* binary heap and are poured into
//! buckets when the year advances. `pop` walks forward from the
//! last-popped bucket to the first non-empty one — amortized O(1) when
//! the resize policy keeps occupancy near one event per bucket.
//!
//! Buckets are sorted intrusive singly-linked lists living in one shared
//! node slab (the same zero-sentinel-slab idiom the scheduler and
//! simulator cores use): the bucket array is two flat `u32` vectors
//! (head/tail per bucket) and nodes are recycled through a free list, so
//! steady-state churn allocates nothing and bucket scans stay on dense
//! cache lines. The tail pointer makes the common inserts O(1): a key
//! past the bucket's tail — in particular every same-time burst, whose
//! members carry increasing sequence numbers — appends directly.
//!
//! Three invariants make the structure exactly equivalent to a sorted
//! list over `(time, ord, seq)` (pinned against [`BinaryHeapEventQueue`]
//! by the `prop_sim` property suite), where `ord` is an optional
//! caller-supplied 64-bit order key ([`EventQueue::schedule_ordered`];
//! plain [`EventQueue::schedule`] uses 0, preserving pure FIFO ties):
//!
//! 1. **Window partition** — bucket `i` holds only events with
//!    `(t - year_start) >> width_log2 == i`; everything at or past the
//!    year's end lives in the overflow heap. Hence the first non-empty
//!    bucket contains the global minimum whenever any bucket is occupied.
//! 2. **Scan-prefix emptiness** — buckets before the scan cursor are
//!    empty: `pop` leaves the cursor on the bucket it popped from and
//!    `schedule` rewinds it when inserting earlier into the current year,
//!    so the forward scan never skips an earlier event.
//! 3. **Keyed FIFO tie-break** — every entry carries its order key and a
//!    monotonically increasing sequence number, and all orderings (bucket
//!    lists, overflow heap) compare `(time, ord, seq)`, so simultaneous
//!    events pop by order key, schedule order within a key, no matter
//!    which buckets, resizes, or overflow drains they traveled through.
//!    This is load-bearing twice over: worlds in `edm-core` and
//!    `edm-topo` are only deterministic because ties resolve this way,
//!    and the parallel conservative engine ([`crate::sharded`]) is only
//!    *bit-identical* to the sequential run because the order key is a
//!    pure function of event content — the same key sorts an event into
//!    the same tie position whether it was scheduled locally or merged
//!    in from another shard at a window barrier.
//!
//! Resizing is automatic: the queue starts with **zero buckets** (a
//! plain binary heap — allocation free until first use), engages the
//! calendar once enough events are pending, doubles geometrically under
//! growth, and degrades back to the plain heap when nearly drained. A
//! resize rebuilds the geometry from the live population: bucket width
//! is twice the average spacing of the events nearest the head — or, when
//! those all sit at one instant (a synchronized burst, which says
//! nothing about spacing), of the whole population.
//!
//! That width is only as good as the population it was derived from, and
//! a population can change shape without ever changing size, so no size
//! threshold fires. Staleness is therefore also detected directly, from
//! both sides, each check rate-limited to about once per population
//! turnover and backing off after a futile rebuild (same geometry), so a
//! population no width suits cannot thrash in rebuilds:
//!
//! * **Too coarse** — the classic hold pattern (always reschedule the
//!   popped minimum) *compresses* the span toward a few gaps while `len`
//!   stays constant, piling everything into one bucket: a sorted-insert
//!   walk longer than `WALK_LIMIT` re-derives the geometry.
//! * **Too fine** — a closed loop whose clients all issue at the same
//!   instant engages the calendar on a population that spans zero time
//!   (1 ps buckets), and then holds `len` between the shrink and grow
//!   thresholds for the rest of the run: every pop steps over a run of
//!   empty buckets, the year is so short that most schedules miss it and
//!   ride the overflow heap, and a year advances every few pops. `pop`
//!   adds up what its forward scan steps over, plus a fixed charge per
//!   year advance; a window of pops averaging more than `SCAN_LIMIT`
//!   re-derives the geometry.
//!
//! Neither trigger can change a result: pop order is the `(time, ord,
//! seq)` total order whatever the geometry. [`QueueStats`] counts what
//! the queue did, rebuilds by cause included.

use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
/// Pending-event count at which the calendar engages (below this a plain
/// binary heap is both smaller and faster).
const ENGAGE_LEN: usize = 24;
/// Pending-event count below which an engaged calendar degrades back to
/// the plain heap (hysteresis against `ENGAGE_LEN`).
const DISENGAGE_LEN: usize = 8;
/// Bucket-count bounds while engaged (both powers of two).
const MIN_BUCKETS: usize = 32;
const MAX_BUCKETS: usize = 1 << 20;
/// An insert walk longer than this signals degenerate geometry (bucket
/// width too coarse for the live population) and requests a rebuild.
const WALK_LIMIT: u32 = 16;
/// Average dequeue cost per pop — empty buckets stepped over, plus
/// `YEAR_ADVANCE_CHARGE` per year advance — above which a turnover of
/// pops signals degenerate geometry (bucket width too fine for the live
/// population) and requests a rebuild. Healthy geometry (width about
/// twice the head spacing) steps over less than one empty bucket per pop.
const SCAN_LIMIT: u64 = 4;
/// What one year advance counts for against `SCAN_LIMIT`: it pours the
/// next year out of the overflow heap, and every event it pours paid a
/// heap push and a heap pop instead of an O(1) bucket insert.
const YEAR_ADVANCE_CHARGE: u64 = 16;
/// After a futile rebuild (same geometry), the dequeue-cost window
/// stretches to this many population turnovers.
const SCAN_BACKOFF: usize = 8;
/// How many head-end events the rebuild samples to derive the bucket
/// width (Brown's calendar-queue sampling rule).
const HEAD_SAMPLE: usize = 32;
/// Null link / empty-bucket sentinel.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Entry<E> {
    at: Time,
    ord: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.ord == other.ord && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.ord, self.seq).cmp(&(other.at, other.ord, other.seq))
    }
}

/// A slab node: one pending event threaded into its bucket's sorted list
/// (or onto the free list, with `event` taken out).
#[derive(Debug)]
struct Node<E> {
    at: Time,
    ord: u64,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// What an [`EventQueue`] has done so far: plain counters, always on,
/// for telling a healthy calendar (about one bucket looked at per pop,
/// few events through the overflow heap) from a degenerate one.
///
/// These depend on the queue's geometry, not on the simulation's
/// result: two shards of one run, or two queue implementations, pop the
/// same events in the same order with different counts here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled.
    pub schedules: u64,
    /// Events popped.
    pub pops: u64,
    /// Empty buckets `pop`'s forward scan stepped over.
    pub empty_steps: u64,
    /// Times `pop` found the year exhausted and poured the next one out
    /// of the overflow heap.
    pub year_advances: u64,
    /// Schedules that fell beyond the current year and went to the
    /// overflow heap (schedules into a disengaged queue not counted).
    pub overflow_pushes: u64,
    /// Geometry rebuilds because the population outgrew or fell far
    /// below the bucket count (engaging and disengaging included).
    pub size_rebuilds: u64,
    /// Geometry rebuilds because a sorted-insert walk ran long (width
    /// too coarse).
    pub walk_rebuilds: u64,
    /// Geometry rebuilds because dequeues got expensive (width too
    /// fine).
    pub scan_rebuilds: u64,
}

/// A time-ordered event queue (calendar queue).
///
/// Events scheduled for the same instant are delivered in the order they
/// were scheduled (FIFO), which keeps simulations deterministic. The
/// implementation is a self-resizing calendar queue — O(1) expected
/// `schedule`/`pop` regardless of the number of pending events — with
/// pop order bit-identical to the dense [`BinaryHeapEventQueue`]
/// reference (see the [module docs](self) for the invariants).
///
/// ```
/// use edm_sim::{EventQueue, Time};
///
/// let mut q = EventQueue::new();
/// q.schedule(Time::from_us(1_000), "far future"); // lands in overflow
/// q.schedule(Time::from_ns(5), "a");
/// q.schedule(Time::from_ns(5), "b"); // same instant: FIFO after "a"
/// assert_eq!(q.peek_time(), Some(Time::from_ns(5)));
/// assert_eq!(q.pop(), Some((Time::from_ns(5), "a")));
/// assert_eq!(q.pop(), Some((Time::from_ns(5), "b")));
/// assert_eq!(q.pop(), Some((Time::from_us(1_000), "far future")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Head node per bucket (`NIL` = empty). Empty vector = calendar
    /// disengaged (everything lives in `overflow`).
    heads: Vec<u32>,
    /// Tail node per bucket, for O(1) append of past-tail keys.
    tails: Vec<u32>,
    /// Shared node slab; freed nodes are recycled through `free`.
    nodes: Vec<Node<E>>,
    /// Free-list head (`NIL` = slab fully live).
    free: u32,
    /// log2 of the bucket width in picoseconds.
    width_log2: u32,
    /// Start of the current year, in picoseconds (bucket-width aligned).
    year_start: u64,
    /// Forward-scan cursor: buckets before it are empty (invariant 2).
    cur_bucket: usize,
    /// Events currently threaded into buckets.
    in_buckets: usize,
    /// Events at or beyond the current year's end (min-heap).
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    /// Total pending events (`in_buckets + overflow.len()`).
    length: usize,
    /// Schedules remaining before a long insert walk may trigger another
    /// geometry rebuild (one population turnover of cooldown, so a
    /// degenerate-but-unfixable population cannot thrash in rebuilds).
    walk_cooldown: usize,
    /// Pops left in the current dequeue-cost window (about one
    /// population turnover; stretched after a futile rebuild).
    scan_window: usize,
    /// Dequeue cost the window may still absorb: `SCAN_LIMIT` per pop of
    /// the window at its start, drawn down by every empty bucket stepped
    /// over and every year advance. Spent at the window's end, the
    /// geometry is stale.
    scan_budget: u64,
    /// Next sequence number for FIFO tie-breaking.
    seq: u64,
    /// Counters behind [`stats`](Self::stats) (`schedules` is `seq`).
    stats: QueueStats,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue. Allocates nothing until the first
    /// [`schedule`](Self::schedule).
    pub fn new() -> Self {
        EventQueue {
            heads: Vec::new(),
            tails: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            width_log2: 0,
            year_start: 0,
            cur_bucket: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            length: 0,
            walk_cooldown: 0,
            scan_window: 0,
            scan_budget: 0,
            seq: 0,
            stats: QueueStats::default(),
        }
    }

    /// The queue's counters so far.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            schedules: self.seq,
            ..self.stats
        }
    }

    /// Schedules `event` to fire at absolute time `at` with order key 0
    /// (pure FIFO among same-time events scheduled this way).
    pub fn schedule(&mut self, at: Time, event: E) {
        self.schedule_ordered(at, 0, event);
    }

    /// Schedules `event` at `at` with an explicit order key: same-time
    /// events pop in ascending `ord`, schedule order within a key.
    ///
    /// Worlds that must stay bit-identical between sequential and
    /// sharded execution derive `ord` purely from event content, so a
    /// cross-shard event merged at a window barrier lands in exactly the
    /// tie position it would have occupied in a single-queue run.
    pub fn schedule_ordered(&mut self, at: Time, ord: u64, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.length += 1;
        if self.heads.is_empty() {
            self.overflow.push(Reverse(Entry {
                at,
                ord,
                seq,
                event,
            }));
        } else {
            if at.as_ps() < self.year_start {
                // Scheduling before the current year: rewind the window so
                // the window-partition invariant keeps holding.
                self.rebase(at);
            }
            let idx = (at.as_ps() - self.year_start) >> self.width_log2;
            if idx < self.heads.len() as u64 {
                let node = self.alloc(at, ord, seq, event);
                let walk = self.insert_bucket(idx as usize, node);
                if (idx as usize) < self.cur_bucket {
                    self.cur_bucket = idx as usize;
                }
                // A long sorted-insert walk means the bucket width has
                // gone stale for the live population (e.g. a compressing
                // hold pattern piling everything into one bucket) even
                // though `length` never crossed a resize threshold.
                // Re-derive the geometry, at most once per population
                // turnover.
                self.walk_cooldown = self.walk_cooldown.saturating_sub(1);
                if walk > WALK_LIMIT && self.walk_cooldown == 0 {
                    self.stats.walk_rebuilds += 1;
                    self.rebuild();
                    return;
                }
            } else {
                self.stats.overflow_pushes += 1;
                self.overflow.push(Reverse(Entry {
                    at,
                    ord,
                    seq,
                    event,
                }));
            }
        }
        // Grow (or first engage) when occupancy outruns the bucket count.
        // The `< MAX_BUCKETS` guard matters: once the bucket count
        // saturates, this condition would otherwise hold on every
        // schedule and trigger a futile O(n) rebuild per insert.
        if self.length > 2 * self.heads.len().max(ENGAGE_LEN / 2) && self.heads.len() < MAX_BUCKETS
        {
            self.stats.size_rebuilds += 1;
            self.rebuild();
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.length == 0 {
            return None;
        }
        self.stats.pops += 1;
        let popped = if self.heads.is_empty() {
            // Disengaged: plain binary-heap behavior.
            let Reverse(e) = self.overflow.pop().expect("length > 0");
            (e.at, e.event)
        } else {
            let mut cost = 0;
            if self.in_buckets == 0 {
                // Year exhausted: jump straight to the year containing the
                // overflow minimum and pour that year's events in.
                let base = self.overflow.peek().expect("length > 0").0.at;
                self.rebase(base);
                self.stats.year_advances += 1;
                cost = YEAR_ADVANCE_CHARGE;
            }
            let b = self.first_nonempty().expect("in_buckets > 0");
            let steps = b.saturating_sub(self.cur_bucket) as u64;
            self.stats.empty_steps += steps;
            self.scan_budget = self.scan_budget.saturating_sub(cost + steps);
            self.scan_window -= 1;
            self.cur_bucket = b;
            let node = self.pop_bucket(b);
            let (at, _, _, event) = self.release(node);
            (at, event)
        };
        self.length -= 1;
        if !self.heads.is_empty() {
            if self.length < DISENGAGE_LEN || self.length * 8 < self.heads.len() {
                // Shrink once occupancy is far below the bucket count
                // (hysteresis against the growth threshold), or degrade
                // to the plain heap.
                self.stats.size_rebuilds += 1;
                self.rebuild();
            } else if self.scan_window == 0 {
                // A window of pops averaging more than `SCAN_LIMIT` means
                // the width has gone stale the other way — far finer
                // than the live spacing (e.g. derived from a same-instant
                // burst) — again without `length` crossing a threshold.
                if self.scan_budget == 0 {
                    self.stats.scan_rebuilds += 1;
                    self.rebuild();
                } else {
                    self.arm_scan_window(1);
                }
            }
        }
        Some(popped)
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        if self.length == 0 {
            None
        } else if self.in_buckets == 0 {
            // Either disengaged or the year is exhausted; in both cases the
            // overflow heap holds every pending event.
            self.overflow.peek().map(|r| r.0.at)
        } else {
            // Invariant 1: the first non-empty bucket holds the minimum.
            let b = self.first_nonempty().expect("in_buckets > 0");
            Some(self.nodes[self.heads[b] as usize].at)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.length
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.length == 0
    }

    /// First non-empty bucket at or after the scan cursor. Invariant 2
    /// guarantees no earlier bucket is occupied; the debug assertion and
    /// full rescan keep the failure mode loud instead of misordered.
    fn first_nonempty(&self) -> Option<usize> {
        let ahead = (self.cur_bucket..self.heads.len()).find(|&i| self.heads[i] != NIL);
        if ahead.is_some() || self.in_buckets == 0 {
            return ahead;
        }
        debug_assert!(false, "occupied bucket behind the scan cursor");
        (0..self.cur_bucket).find(|&i| self.heads[i] != NIL)
    }

    /// Opens a dequeue-cost window of `turnovers` population turnovers.
    fn arm_scan_window(&mut self, turnovers: usize) {
        self.scan_window = self.length.max(MIN_BUCKETS) * turnovers;
        self.scan_budget = SCAN_LIMIT * self.scan_window as u64;
    }

    /// Takes a node from the free list (or grows the slab).
    fn alloc(&mut self, at: Time, ord: u64, seq: u64, event: E) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let n = &mut self.nodes[i as usize];
            self.free = n.next;
            n.at = at;
            n.ord = ord;
            n.seq = seq;
            n.next = NIL;
            n.event = Some(event);
            i
        } else {
            self.nodes.push(Node {
                at,
                ord,
                seq,
                next: NIL,
                event: Some(event),
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Returns a node's payload and recycles it onto the free list.
    fn release(&mut self, i: u32) -> (Time, u64, u64, E) {
        let n = &mut self.nodes[i as usize];
        let event = n.event.take().expect("releasing an occupied node");
        let out = (n.at, n.ord, n.seq, event);
        n.next = self.free;
        self.free = i;
        out
    }

    /// `(time, ord, seq)` key of a live node.
    fn key(&self, i: u32) -> (Time, u64, u64) {
        let n = &self.nodes[i as usize];
        (n.at, n.ord, n.seq)
    }

    /// Threads `node` into bucket `b`'s sorted list and returns the walk
    /// length. Past-tail keys (every same-time burst, thanks to
    /// increasing seq) append in O(1); otherwise a short walk finds the
    /// slot — expected O(1) because the resize policy keeps bucket
    /// occupancy near one, and walks past `WALK_LIMIT` make the caller
    /// re-derive the geometry.
    fn insert_bucket(&mut self, b: usize, node: u32) -> u32 {
        let key = self.key(node);
        let head = self.heads[b];
        let mut walk = 0;
        if head == NIL {
            self.heads[b] = node;
            self.tails[b] = node;
        } else if key > self.key(self.tails[b]) {
            let t = self.tails[b] as usize;
            self.nodes[t].next = node;
            self.tails[b] = node;
        } else if key < self.key(head) {
            self.nodes[node as usize].next = head;
            self.heads[b] = node;
        } else {
            let mut prev = head;
            loop {
                let nx = self.nodes[prev as usize].next;
                debug_assert_ne!(nx, NIL, "walk ran past a tail-bounded key");
                if key < self.key(nx) {
                    self.nodes[node as usize].next = nx;
                    self.nodes[prev as usize].next = node;
                    break;
                }
                prev = nx;
                walk += 1;
            }
        }
        self.in_buckets += 1;
        walk
    }

    /// Unlinks and returns bucket `b`'s head node (its minimum).
    fn pop_bucket(&mut self, b: usize) -> u32 {
        let i = self.heads[b];
        debug_assert_ne!(i, NIL, "popping an empty bucket");
        let nx = self.nodes[i as usize].next;
        self.heads[b] = nx;
        if nx == NIL {
            self.tails[b] = NIL;
        }
        self.in_buckets -= 1;
        i
    }

    /// Re-anchors the year window at `base` (aligned down to a bucket
    /// boundary): flushes any bucketed events to overflow, then pours
    /// every overflow event that falls inside the new year into its
    /// bucket. Used both to advance the year (buckets already empty) and
    /// to rewind it when an event is scheduled before `year_start`.
    fn rebase(&mut self, base: Time) {
        if self.in_buckets > 0 {
            for b in 0..self.heads.len() {
                let mut i = self.heads[b];
                while i != NIL {
                    let next = self.nodes[i as usize].next;
                    let (at, ord, seq, event) = self.release(i);
                    self.overflow.push(Reverse(Entry {
                        at,
                        ord,
                        seq,
                        event,
                    }));
                    i = next;
                }
                self.heads[b] = NIL;
                self.tails[b] = NIL;
            }
            self.in_buckets = 0;
        }
        self.year_start = (base.as_ps() >> self.width_log2) << self.width_log2;
        self.cur_bucket = 0;
        // Ascending pops mean every bucket insert below is a tail append.
        while let Some(Reverse(e)) = self.overflow.peek() {
            let idx = (e.at.as_ps() - self.year_start) >> self.width_log2;
            if idx >= self.heads.len() as u64 {
                break;
            }
            let Reverse(Entry {
                at,
                ord,
                seq,
                event,
            }) = self.overflow.pop().expect("peeked");
            let node = self.alloc(at, ord, seq, event);
            self.insert_bucket(idx as usize, node);
        }
    }

    /// Rebuilds the calendar geometry from the live event population:
    /// bucket count tracks the pending-event count (clamped to
    /// `[MIN_BUCKETS, MAX_BUCKETS]`), bucket width tracks the average
    /// event spacing (rounded up to a power of two so bucket indexing is
    /// a shift). Below `ENGAGE_LEN` the calendar disengages entirely.
    ///
    /// A rebuild holds each pending event once. The overflow heap's
    /// buffer is the working vector: the bucketed events join it there,
    /// the new year's events move out of it into slab nodes, and what
    /// stays becomes the new overflow heap in place. The slab and its
    /// free list survive a resize, so a rebuild's peak is one buffer of
    /// entries plus the slab and the bucket arrays. It allocates only to
    /// grow what the queue keeps: the buffer, when it cannot take the
    /// bucketed events, the slab, when the new year outgrows it, and the
    /// bucket arrays.
    fn rebuild(&mut self) {
        let mut all = std::mem::take(&mut self.overflow).into_vec();
        // The bucketed events walk out in globally ascending order
        // (bucket lists are sorted and bucket ranges ascend — invariant
        // 1), and every one of them sorts before every overflow event.
        let mut head = all.len();
        all.reserve_exact(self.in_buckets);
        for b in 0..self.heads.len() {
            let mut i = self.heads[b];
            while i != NIL {
                let next = self.nodes[i as usize].next;
                let (at, ord, seq, event) = self.release(i);
                all.push(Reverse(Entry {
                    at,
                    ord,
                    seq,
                    event,
                }));
                i = next;
            }
        }
        self.in_buckets = 0;
        self.cur_bucket = 0;
        let old_geometry = (self.width_log2, self.heads.len());
        if self.length < ENGAGE_LEN {
            // Disengage: back to the plain heap; slab memory released.
            self.heads = Vec::new();
            self.tails = Vec::new();
            self.nodes = Vec::new();
            self.free = NIL;
            self.overflow = BinaryHeap::from(all);
            return;
        }
        if all.len() - head < 2 {
            // Engaging straight out of the heap (or everything had
            // marched into overflow): order the population so the head
            // sample below exists and reinserts stay O(1).
            all.sort_unstable_by_key(|Reverse(e)| (e.at, e.ord, e.seq));
            head = 0;
        }
        // From here `all[head..]` ascends from the global minimum.
        let nbuckets = (self.length * 2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        // Bucket width from the spacing of events *near the head* (the
        // calendar-queue sampling rule): a global span/len average goes
        // wrong under skew — a dense pack plus a few far-future
        // stragglers yields a width that dumps the whole pack into one
        // bucket. The head sample sizes buckets for the events that will
        // actually pop next; stragglers simply wait in overflow.
        let min_ps = all[head].0.at.as_ps();
        let mut m = (all.len() - head).min(HEAD_SAMPLE);
        let mut spread = all[head + m - 1].0.at.as_ps() - min_ps;
        if spread == 0 {
            // A head sample at one instant (a synchronized burst) says
            // nothing about spacing — and a same-instant run is O(1)
            // appends and pops in a bucket of any width — so size the
            // buckets for the whole population instead of at 1 ps.
            m = all.len();
            let last = all.iter().map(|r| r.0.at.as_ps()).max().expect("engaged");
            spread = last - min_ps;
        }
        // Saturate and clamp: a head sample spanning >= 2^62 ps (times
        // near `Time::MAX`) must yield a huge width, not a multiply
        // overflow or a `next_power_of_two` panic.
        let width = (spread / (m as u64 - 1))
            .saturating_mul(2)
            .clamp(1, 1 << 62)
            .next_power_of_two();
        self.width_log2 = width.trailing_zeros();
        self.year_start = (min_ps >> self.width_log2) << self.width_log2;
        // Walk-trigger cooldown: while the population's spacing is still
        // drifting (a compressing hold pattern shrinks the span for
        // hundreds of turnovers), each rebuild lands a different width —
        // re-arm quickly so the geometry tracks the drift. Once a rebuild
        // is futile (same geometry), back off to a full turnover.
        let futile = (self.width_log2, nbuckets) == old_geometry;
        self.walk_cooldown = if futile {
            self.length
        } else {
            (self.length / 8).max(MIN_BUCKETS)
        };
        // The dequeue-cost window restarts on the fresh geometry and
        // backs off the same way.
        self.arm_scan_window(if futile { SCAN_BACKOFF } else { 1 });
        self.heads.clear();
        self.heads.resize(nbuckets, NIL);
        self.tails.clear();
        self.tails.resize(nbuckets, NIL);
        // Move the new year's events into slab nodes, back to front:
        // `swap_remove` fills each hole with an event already looked at,
        // and the ascending run reinserts descending, as O(1) head
        // inserts. The heap-ordered overflow part spreads across the
        // fresh geometry or stays, so its walks stay short.
        for i in (0..all.len()).rev() {
            let idx = (all[i].0.at.as_ps() - self.year_start) >> self.width_log2;
            if idx < nbuckets as u64 {
                let Reverse(Entry {
                    at,
                    ord,
                    seq,
                    event,
                }) = all.swap_remove(i);
                let node = self.alloc(at, ord, seq, event);
                self.insert_bucket(idx as usize, node);
            }
        }
        self.overflow = BinaryHeap::from(all);
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The dense reference event queue: one global binary heap ordered by
/// `(time, seq)`.
///
/// This is the pre-calendar-queue implementation, kept as an executable
/// specification: `prop_sim` drives random schedule/pop scripts through
/// both queues and requires bit-identical results. Same API as
/// [`EventQueue`]; O(log n) per operation.
///
/// ```
/// use edm_sim::{BinaryHeapEventQueue, Time};
///
/// let mut q = BinaryHeapEventQueue::new();
/// q.schedule(Time::from_ns(20), 'b');
/// q.schedule(Time::from_ns(10), 'a');
/// assert_eq!(q.pop(), Some((Time::from_ns(10), 'a')));
/// assert_eq!(q.pop(), Some((Time::from_ns(20), 'b')));
/// ```
#[derive(Debug)]
pub struct BinaryHeapEventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
}

impl<E> BinaryHeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at` (order key 0).
    pub fn schedule(&mut self, at: Time, event: E) {
        self.schedule_ordered(at, 0, event);
    }

    /// Schedules `event` at `at` with an explicit order key — same
    /// semantics as [`EventQueue::schedule_ordered`].
    pub fn schedule_ordered(&mut self, at: Time, ord: u64, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            at,
            ord,
            seq,
            event,
        }));
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for BinaryHeapEventQueue<E> {
    fn default() -> Self {
        BinaryHeapEventQueue::new()
    }
}

/// Simulation state that reacts to events.
pub trait World {
    /// The event type this world processes.
    type Event;

    /// Handles one event at simulated time `now`.
    ///
    /// Follow-up events are scheduled through `queue`; scheduling in the
    /// past is permitted by the queue but will be caught by the engine's
    /// monotonicity check when the event is popped.
    fn handle(&mut self, now: Time, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Drives a [`World`] until the event queue drains (or a step budget or
/// time horizon is reached).
///
/// ```
/// use edm_sim::{Engine, EventQueue, Time, Duration, World};
///
/// /// Doubles a counter on every event until it saturates.
/// struct Doubler { value: u64 }
/// impl World for Doubler {
///     type Event = ();
///     fn handle(&mut self, now: Time, _ev: (), q: &mut EventQueue<()>) {
///         self.value *= 2;
///         if self.value < 64 {
///             q.schedule(now + Duration::from_ns(3), ());
///         }
///     }
/// }
///
/// let mut eng = Engine::new(Doubler { value: 1 });
/// eng.queue_mut().schedule(Time::ZERO, ());
/// eng.run_until(Time::from_ns(6)); // processes events at 0, 3 and 6 ns
/// assert_eq!(eng.world().value, 8);
/// eng.run(); // drain the rest
/// assert_eq!(eng.world().value, 64);
/// assert_eq!(eng.steps(), 6);
/// ```
#[derive(Debug)]
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: Time,
    steps: u64,
}

impl<W: World> Engine<W> {
    /// Creates an engine around `world` with an empty event queue.
    pub fn new(world: W) -> Self {
        Engine::with_queue(world, EventQueue::new())
    }

    /// Creates an engine around `world` with a pre-seeded event queue —
    /// for setups that must mutate the world and schedule seed events in
    /// the same pass (e.g. admitting pre-loaded flows) before handing
    /// both to the engine.
    pub fn with_queue(world: W, queue: EventQueue<W::Event>) -> Self {
        Engine {
            world,
            queue,
            now: Time::ZERO,
            steps: 0,
        }
    }

    /// The current simulated time (time of the last dispatched event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The event queue's counters so far ([`EventQueue::stats`]).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Mutable access to the event queue (e.g. to seed initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<W::Event> {
        &mut self.queue
    }

    /// Consumes the engine and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Dispatches a single event. Returns `false` if the queue was empty.
    ///
    /// # Panics
    ///
    /// Panics if an event was scheduled before the current simulated time
    /// (causality violation).
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some((at, ev)) => {
                assert!(
                    at >= self.now,
                    "causality violation: event at {at} popped at {now}",
                    now = self.now
                );
                self.now = at;
                self.steps += 1;
                self.world.handle(at, ev, &mut self.queue);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue drains or the next event would fire after
    /// `horizon`. Events at exactly `horizon` are processed.
    pub fn run_until(&mut self, horizon: Time) {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            self.step();
        }
    }

    /// Runs at most `max_steps` more events (or until the queue drains).
    /// Returns the number of events actually dispatched.
    pub fn run_steps(&mut self, max_steps: u64) -> u64 {
        let mut done = 0;
        while done < max_steps && self.step() {
            done += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[derive(Default)]
    struct Recorder {
        log: Vec<(Time, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: Time, ev: u32, q: &mut EventQueue<u32>) {
            self.log.push((now, ev));
            if ev == 1 {
                // Chain two follow-ups at the same future instant: FIFO order
                // must be preserved.
                q.schedule(now + Duration::from_ns(5), 10);
                q.schedule(now + Duration::from_ns(5), 11);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = Engine::new(Recorder::default());
        eng.queue_mut().schedule(Time::from_ns(30), 3);
        eng.queue_mut().schedule(Time::from_ns(10), 1);
        eng.queue_mut().schedule(Time::from_ns(20), 2);
        eng.run();
        let evs: Vec<u32> = eng.world().log.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![1, 10, 11, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut eng = Engine::new(Recorder::default());
        for i in 0..100 {
            eng.queue_mut().schedule(Time::from_ns(7), i + 100);
        }
        eng.run();
        let evs: Vec<u32> = eng.world().log.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, (100..200).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_horizon_is_inclusive() {
        let mut eng = Engine::new(Recorder::default());
        eng.queue_mut().schedule(Time::from_ns(10), 2);
        eng.queue_mut().schedule(Time::from_ns(20), 3);
        eng.queue_mut().schedule(Time::from_ns(30), 4);
        eng.run_until(Time::from_ns(20));
        assert_eq!(eng.world().log.len(), 2);
        assert_eq!(eng.queue_mut().len(), 1);
    }

    #[test]
    fn run_steps_budget() {
        let mut eng = Engine::new(Recorder::default());
        for i in 0..10 {
            eng.queue_mut().schedule(Time::from_ns(i), i as u32);
        }
        assert_eq!(eng.run_steps(4), 4);
        assert_eq!(eng.world().log.len(), 4);
        // Event `1` spawned two follow-ups, so 8 remain of the original 10.
        assert_eq!(eng.run_steps(100), 8);
    }

    #[test]
    fn step_returns_false_on_empty() {
        let mut eng = Engine::new(Recorder::default());
        assert!(!eng.step());
        assert_eq!(eng.now(), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn past_scheduling_panics_on_dispatch() {
        struct Bad;
        impl World for Bad {
            type Event = bool;
            fn handle(&mut self, _now: Time, first: bool, q: &mut EventQueue<bool>) {
                if first {
                    q.schedule(Time::ZERO, false); // in the past
                }
            }
        }
        let mut eng = Engine::new(Bad);
        eng.queue_mut().schedule(Time::from_ns(10), true);
        eng.run();
    }

    #[test]
    fn queue_len_and_peek() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Time::from_ns(4), 1);
        q.schedule(Time::from_ns(2), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_ns(2)));
    }

    // ------------------------------------------------------------------
    // Adversarial calendar-queue cases.
    // ------------------------------------------------------------------

    /// Drains `q` and asserts the exact `(time, tag)` sequence matches
    /// what the binary-heap reference produces for the same schedule.
    fn assert_drains_like_reference(q: &mut EventQueue<u32>, scheduled: &[(Time, u32)]) {
        let mut reference = BinaryHeapEventQueue::new();
        for &(t, tag) in scheduled {
            reference.schedule(t, tag);
        }
        loop {
            assert_eq!(q.peek_time(), reference.peek_time());
            let (a, b) = (q.pop(), reference.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn zero_capacity_start() {
        // A fresh queue has no buckets at all; every path must still work.
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        q.schedule(Time::from_ns(3), 7);
        assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
        assert_eq!(q.pop(), Some((Time::from_ns(3), 7)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn single_bucket_degeneracy() {
        // All events at the same instant: span is zero, so after the
        // calendar engages everything collapses into one bucket. Order
        // must stay exact schedule order.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut scheduled = Vec::new();
        for i in 0..200 {
            q.schedule(Time::from_ns(42), i);
            scheduled.push((Time::from_ns(42), i));
        }
        assert_drains_like_reference(&mut q, &scheduled);
    }

    #[test]
    fn far_future_overflow_drain() {
        // A tight cluster engages the calendar with a narrow bucket width;
        // the year horizon is then far below the far-future timers, which
        // must wait in overflow and drain in exact order once the cluster
        // is exhausted — including ties among the far-future events.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut scheduled = Vec::new();
        for i in 0..64u32 {
            let t = Time::from_ps(i as u64);
            q.schedule(t, i);
            scheduled.push((t, i));
        }
        for i in 0..32u32 {
            // Seconds away from the ps-scale cluster, with duplicates.
            let t = Time::from_us(1_000_000 + (i as u64 / 2));
            q.schedule(t, 1_000 + i);
            scheduled.push((t, 1_000 + i));
        }
        assert_drains_like_reference(&mut q, &scheduled);
    }

    #[test]
    fn peek_and_pop_agree_across_resizes() {
        // Grow through several rebuilds, then drain through the shrink and
        // disengage thresholds, checking peek/pop agreement at every step.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut reference = BinaryHeapEventQueue::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut tag = 0u32;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        for round in 0..6 {
            for _ in 0..(64 << round.min(3)) {
                let t = Time::from_ps(lcg() % 1_000_000_000);
                q.schedule(t, tag);
                reference.schedule(t, tag);
                tag += 1;
            }
            for _ in 0..(48 << round.min(3)) {
                assert_eq!(q.peek_time(), reference.peek_time());
                assert_eq!(q.pop(), reference.pop());
                assert_eq!(q.len(), reference.len());
            }
        }
        loop {
            assert_eq!(q.peek_time(), reference.peek_time());
            let (a, b) = (q.pop(), reference.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn rewind_before_year_start() {
        // Engage the calendar on a late cluster, drain part of it, then
        // schedule earlier than the year's start: the window must rewind
        // and the early events must pop first.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut reference = BinaryHeapEventQueue::new();
        let mut tag = 0u32;
        for i in 0..64u32 {
            let t = Time::from_us(500 + i as u64);
            q.schedule(t, tag);
            reference.schedule(t, tag);
            tag += 1;
        }
        for _ in 0..8 {
            assert_eq!(q.pop(), reference.pop());
        }
        for i in 0..16u32 {
            let t = Time::from_ns(i as u64);
            q.schedule(t, tag);
            reference.schedule(t, tag);
            tag += 1;
        }
        loop {
            assert_eq!(q.peek_time(), reference.peek_time());
            let (a, b) = (q.pop(), reference.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn giant_span_geometry_saturates() {
        // Head-sample spans near u64::MAX must clamp the width instead of
        // overflowing the multiply or panicking in next_power_of_two.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut scheduled = Vec::new();
        for i in 0..16u32 {
            let t = Time::from_ps(i as u64);
            q.schedule(t, i);
            scheduled.push((t, i));
        }
        for i in 0..16u32 {
            let t = Time::from_ps(u64::MAX - 1_000 + (i as u64 % 4));
            q.schedule(t, 100 + i);
            scheduled.push((t, 100 + i));
        }
        assert_drains_like_reference(&mut q, &scheduled);
    }

    #[test]
    fn same_instant_head_does_not_set_picosecond_buckets() {
        // A synchronized burst engages the calendar (nothing to derive a
        // width from yet); arrivals spread over 200 ns then grow it past
        // the next resize, where the head sample is still the burst. The
        // width must come from the spread, not from the sample's zero.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut scheduled = Vec::new();
        for i in 0..48u32 {
            q.schedule(Time::ZERO, i);
            scheduled.push((Time::ZERO, i));
        }
        assert_eq!(q.width_log2, 0, "a zero-span population has no spacing");
        for i in 0..100u32 {
            let t = Time::from_ns(2 * i as u64 + 1);
            q.schedule(t, 48 + i);
            scheduled.push((t, 48 + i));
        }
        assert!(q.stats().size_rebuilds >= 2, "the spread grew the calendar");
        assert!(q.width_log2 > 0, "width 2^{} ps", q.width_log2);
        assert_drains_like_reference(&mut q, &scheduled);
    }

    #[test]
    fn order_keys_break_same_time_ties() {
        // Same-instant events pop by ascending order key regardless of
        // schedule order; FIFO only within a key. Checked against the
        // heap reference through a resize-heavy population.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut reference = BinaryHeapEventQueue::new();
        let mut tag = 0u32;
        for round in 0..8u64 {
            for i in 0..40u64 {
                let t = Time::from_ns(100 * round + (i % 3));
                let ord = (97 * i + round) % 7;
                q.schedule_ordered(t, ord, tag);
                reference.schedule_ordered(t, ord, tag);
                tag += 1;
            }
        }
        loop {
            assert_eq!(q.peek_time(), reference.peek_time());
            let (a, b) = (q.pop(), reference.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn ordered_and_plain_scheduling_mix() {
        // Plain `schedule` is ord 0: it sorts before any positive key at
        // the same instant and keeps FIFO among itself.
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_ordered(Time::from_ns(5), 9, 2);
        q.schedule(Time::from_ns(5), 0);
        q.schedule(Time::from_ns(5), 1);
        q.schedule_ordered(Time::from_ns(5), 3, 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 3, 2]);
    }

    #[test]
    fn slab_recycles_nodes() {
        // Steady-state churn at a fixed queue size must not grow the slab
        // beyond the peak population (allocation-free hold loop).
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..256u32 {
            q.schedule(Time::from_ps(i as u64 * 1_000), i);
        }
        for _ in 0..10_000 {
            let (at, ev) = q.pop().unwrap();
            q.schedule(at + Duration::from_ps(257_000), ev);
        }
        assert_eq!(q.len(), 256);
        assert!(
            q.nodes.len() <= 256,
            "slab grew past peak population: {}",
            q.nodes.len()
        );
    }
}
