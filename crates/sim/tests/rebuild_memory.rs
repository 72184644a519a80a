//! Memory pin for the calendar queue's geometry rebuild.
//!
//! A rebuild must hold the pending population once: the overflow heap's
//! buffer takes in the bucketed events, gives the new year's events to
//! slab nodes, and becomes the new overflow heap in place, while the
//! slab survives the resize. Whatever the queue holds at a rebuild's
//! peak it therefore held before the rebuild or still holds after it.
//! A second copy of the population — a separate working vector, or a
//! new heap built beside the old buffer — is one more entry per pending
//! event, and this test fails on it.
//!
//! This file is its own test binary, so its counting allocator sees
//! nothing but this test; it counts only the thread that runs the test.

use edm_sim::{BinaryHeapEventQueue, Duration, EventQueue, Time};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live bytes allocated by the counting thread, and their peak since the
/// last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn counting() -> bool {
        COUNTING.with(|c| c.get())
    }
    fn grow(by: usize) {
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
    fn shrink(by: usize) {
        LIVE.fetch_sub(by, Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are the caller's; the counters
// are plain atomics and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && Self::counting() {
            Self::grow(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) };
        if Self::counting() {
            Self::shrink(layout.size());
        }
    }
    // A reallocation counts as its size change: growing a buffer in
    // place (or by remapping it) holds one buffer, not two.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && Self::counting() {
            if new_size >= layout.size() {
                Self::grow(new_size - layout.size());
            } else {
                Self::shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A 24 B event, the size of the fabric worlds' largest.
type Ev = [u64; 3];
/// One pending entry as the queue stores it: time, order key, sequence
/// number and event.
const ENTRY: usize = std::mem::size_of::<(Time, u64, u64, Ev)>();

/// The queue under test, the reference it must pop like, and what the
/// rebuilds it has run so far cost.
struct Pinned {
    q: EventQueue<Ev>,
    r: BinaryHeapEventQueue<Ev>,
    /// `(pending events, cause)` of each rebuild measured.
    rebuilds: Vec<(usize, &'static str)>,
}

impl Pinned {
    /// Runs one queue operation and, if it rebuilt the geometry, checks
    /// that the rebuild's peak live bytes exceed both the bytes before
    /// and the bytes after it by less than an eighth of a population of
    /// entries.
    fn measured<T>(&mut self, op: impl FnOnce(&mut EventQueue<Ev>) -> T) -> T {
        let stats = self.q.stats();
        let before = LIVE.load(Relaxed);
        PEAK.store(before, Relaxed);
        let out = op(&mut self.q);
        let (after, peak) = (LIVE.load(Relaxed), PEAK.load(Relaxed));
        let now = self.q.stats();
        let cause = if now.walk_rebuilds > stats.walk_rebuilds {
            "walk"
        } else if now.size_rebuilds > stats.size_rebuilds {
            "size"
        } else if now.scan_rebuilds > stats.scan_rebuilds {
            "scan"
        } else {
            return out;
        };
        let len = self.q.len();
        let transient = peak - before.max(after);
        assert!(
            transient * 8 < len.max(1) * ENTRY,
            "{cause} rebuild of {len} events held {transient} B beyond what the queue keeps \
             (before {before} B, after {after} B, peak {peak} B)"
        );
        self.rebuilds.push((len, cause));
        out
    }

    fn schedule(&mut self, at: Time, ev: Ev) {
        self.measured(|q| q.schedule(at, ev));
        self.r.schedule(at, ev);
    }
}

#[test]
fn rebuild_holds_the_population_once() {
    COUNTING.with(|c| c.set(true));
    let mut p = Pinned {
        q: EventQueue::new(),
        r: BinaryHeapEventQueue::new(),
        rebuilds: Vec::new(),
    };
    let mut n = 0u64;
    let mut ev = || {
        n += 1;
        [n, !n, n ^ 0x5a5a]
    };
    // A few near events engage the calendar at 2 ns buckets.
    for i in 0..32 {
        p.schedule(Time::from_ns(i), ev());
    }
    // Far-future events, like retry timers parked behind an outage,
    // wait in the overflow heap until the population outgrows the
    // bucket count: a size rebuild of 64 Ki events, nearly all of them
    // in the heap.
    let far = Time::from_us(1_000);
    let mut j = 0;
    while p.q.stats().size_rebuilds < 5 {
        p.schedule(far + Duration::from_ns(10 * j), ev());
        j += 1;
    }
    assert!(
        p.q.len() > 50_000,
        "the size rebuild saw {} events",
        p.q.len()
    );
    // In-year events, one bucket apart, run down the walk trigger's
    // cooldown; then one bucket fills in order and a key just short of
    // its tail walks past the limit.
    for k in 0..10_000 {
        p.schedule(Time::from_us(1) + Duration::from_ns(20 * k), ev());
    }
    let base = Time::from_ps((300_000_000 / 2048) * 2048);
    for i in 0..19 {
        p.schedule(base + Duration::from_ps(100 * i), ev());
    }
    assert_eq!(p.q.stats().walk_rebuilds, 0);
    p.schedule(base + Duration::from_ps(1_750), ev());
    assert_eq!(
        p.q.stats().walk_rebuilds,
        1,
        "the crafted walk must rebuild"
    );
    // Drain both queues: shrink rebuilds down to the plain heap, in the
    // reference's order.
    while let Some(got) = p.measured(|q| q.pop()) {
        assert_eq!(Some(got), p.r.pop(), "pop order diverged");
    }
    assert_eq!(p.r.pop(), None);
    COUNTING.with(|c| c.set(false));
    let big = |cause| {
        p.rebuilds
            .iter()
            .any(|&(len, c)| c == cause && len > 50_000)
    };
    assert!(
        big("size") && big("walk"),
        "rebuilds measured: {:?}",
        p.rebuilds
    );
}
