//! Long-horizon hold-model regression test for the calendar queue.
//!
//! The hold pattern (always reschedule the popped minimum a random gap
//! ahead) is adversarial for calendar queues in a way short random
//! scripts are not: the population *compresses* — only the minimum ever
//! jumps, so the live span shrinks toward a few gaps while `len` never
//! crosses a resize threshold — and a naive implementation degenerates
//! to a single over-long bucket (this repo's first draft did exactly
//! that, at ~10x the per-op cost). The walk-triggered rebuild exists for
//! this case; this test pins the *correctness* of the queue across many
//! such rebuilds, year advances, and overflow transits by running the
//! pattern in lockstep with the binary-heap reference.
//!
//! The opposite staleness — buckets far *finer* than the live spacing —
//! is what a closed loop leaves behind when it starts with a
//! synchronized burst: the calendar engages on a population that spans
//! zero time, and the hold that follows never moves `len` across a
//! resize threshold. The dequeue-cost trigger exists for that case; the
//! second test pins both its effect (the [`QueueStats`] counters stay
//! those of a healthy calendar) and its exactness.

use edm_sim::{BinaryHeapEventQueue, Duration, EventQueue, QueueStats, Rng, Time};

#[test]
fn hold_lockstep_stays_bit_identical() {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut r: BinaryHeapEventQueue<u64> = BinaryHeapEventQueue::new();
    let mut rng = Rng::seed_from(0xED31);
    let mut t = Time::ZERO;
    for i in 0..1024u64 {
        t += Duration::from_ps(rng.below(10_240));
        q.schedule(t, i);
        r.schedule(t, i);
    }
    // ~60 population turnovers: enough to compress the span, cross
    // several year boundaries, and fire multiple walk-triggered rebuilds.
    for op in 0..60_000u64 {
        assert_eq!(q.peek_time(), r.peek_time(), "peek diverged at op {op}");
        let a = q.pop().unwrap();
        let b = r.pop().unwrap();
        assert_eq!(a, b, "pop diverged at op {op}");
        let nt = a.0 + Duration::from_ps(rng.below(10_240));
        q.schedule(nt, a.1);
        r.schedule(nt, a.1);
    }
}

#[test]
fn burst_engaged_closed_loop_stays_cheap_and_bit_identical() {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut r: BinaryHeapEventQueue<u64> = BinaryHeapEventQueue::new();
    let mut rng = Rng::seed_from(0xED32);
    // 64 events at one instant: the calendar engages at 1 ps buckets
    // (nothing to derive a width from) and 64 is under the growth
    // threshold, so no size trigger ever fires again.
    for i in 0..64u64 {
        q.schedule_ordered(Time::ZERO, i % 5, i);
        r.schedule_ordered(Time::ZERO, i % 5, i);
    }
    const OPS: u64 = 100_000;
    let mut at_half = QueueStats::default();
    for op in 0..OPS {
        if op == OPS / 2 {
            at_half = q.stats();
        }
        assert_eq!(q.peek_time(), r.peek_time(), "peek diverged at op {op}");
        let a = q.pop().unwrap();
        let b = r.pop().unwrap();
        assert_eq!(a, b, "pop diverged at op {op}");
        // Gaps of 0-200 ns, a fifth of them zero so (time, ord) ties and
        // same-instant reschedules stay in the mix.
        let gap = if rng.below(5) == 0 {
            0
        } else {
            rng.below(200_000)
        };
        let (nt, ord) = (a.0 + Duration::from_ps(gap), rng.below(4));
        q.schedule_ordered(nt, ord, a.1);
        r.schedule_ordered(nt, ord, a.1);
    }
    let end = q.stats();
    let pops = end.pops - at_half.pops;
    let empty_steps = end.empty_steps - at_half.empty_steps;
    let year_advances = end.year_advances - at_half.year_advances;
    assert_eq!(pops, OPS / 2);
    assert!(
        empty_steps <= 2 * pops,
        "{empty_steps} empty buckets stepped over in {pops} pops"
    );
    assert!(
        year_advances * 32 <= pops,
        "{year_advances} year advances in {pops} pops"
    );
    assert!(
        end.scan_rebuilds > 0,
        "the dequeue-cost trigger never fired"
    );
}
