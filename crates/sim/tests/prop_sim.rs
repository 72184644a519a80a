//! Property-based tests for the DES engine, time arithmetic, RNG, and
//! statistics — including the calendar-queue/binary-heap pop-order
//! equivalence pins.

use edm_sim::{
    Bandwidth, BinaryHeapEventQueue, Duration, Engine, EventQueue, Rng, Summary, Time, World,
};
use proptest::prelude::*;

/// Applies one schedule-or-pop step to both queues and checks that every
/// observable (`peek_time`, `pop` result, `len`) stays bit-identical.
fn lockstep_op(
    cal: &mut EventQueue<u32>,
    reference: &mut BinaryHeapEventQueue<u32>,
    op: Option<(Time, u32)>,
) -> Result<(), TestCaseError> {
    match op {
        Some((t, tag)) => {
            cal.schedule(t, tag);
            reference.schedule(t, tag);
        }
        None => {
            prop_assert_eq!(cal.peek_time(), reference.peek_time());
            prop_assert_eq!(cal.pop(), reference.pop());
        }
    }
    prop_assert_eq!(cal.len(), reference.len());
    prop_assert_eq!(cal.is_empty(), reference.is_empty());
    Ok(())
}

/// Drains both queues, requiring identical `(time, tag)` sequences.
fn lockstep_drain(
    cal: &mut EventQueue<u32>,
    reference: &mut BinaryHeapEventQueue<u32>,
) -> Result<(), TestCaseError> {
    loop {
        prop_assert_eq!(cal.peek_time(), reference.peek_time());
        let (a, b) = (cal.pop(), reference.pop());
        prop_assert_eq!(a, b);
        if a.is_none() {
            return Ok(());
        }
    }
}

/// A world that records the times at which events fire.
#[derive(Default)]
struct Recorder {
    fired: Vec<(Time, u32)>,
}

impl World for Recorder {
    type Event = u32;
    fn handle(&mut self, now: Time, ev: u32, _q: &mut EventQueue<u32>) {
        self.fired.push((now, ev));
    }
}

proptest! {
    /// Events always fire in non-decreasing time order, with FIFO order
    /// among equal timestamps.
    #[test]
    fn engine_dispatch_is_monotone_and_stable(
        times in proptest::collection::vec(0u64..1_000_000, 1..200)
    ) {
        let mut eng = Engine::new(Recorder::default());
        for (i, &t) in times.iter().enumerate() {
            eng.queue_mut().schedule(Time::from_ps(t), i as u32);
        }
        eng.run();
        let fired = &eng.world().fired;
        prop_assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                // Same instant: scheduling (insertion) order preserved.
                let (a, b) = (w[0].1 as usize, w[1].1 as usize);
                prop_assert_eq!(times[a], times[b]);
                prop_assert!(a < b, "FIFO violated for equal timestamps");
            }
        }
    }

    /// The calendar queue's pop order is bit-identical to the dense
    /// binary-heap reference under random schedule/pop interleavings that
    /// mix time scales (tight ties, ns-range, and far-future outliers that
    /// must ride the overflow heap). Pops may outnumber schedules, so
    /// empty-queue behavior is exercised too.
    #[test]
    fn calendar_queue_matches_reference(
        ops in proptest::collection::vec((0u8..6, 0u64..1_000_000), 1..400)
    ) {
        let mut cal = EventQueue::new();
        let mut reference = BinaryHeapEventQueue::new();
        let mut tag = 0u32;
        for &(op, raw) in &ops {
            let step = match op {
                // Two pop weights out of six keep the queue growing on
                // average so resizes in both directions get exercised.
                0 | 1 => None,
                2 => Some(Time::from_ps(raw % 8)),          // adversarial ties
                3 => Some(Time::from_ps(raw % 4_096)),      // one-year scale
                4 => Some(Time::from_ps(raw)),              // broad spread
                _ => Some(Time::from_us(1_000_000 + raw)),  // far future
            };
            lockstep_op(&mut cal, &mut reference, step.map(|t| {
                tag += 1;
                (t, tag)
            }))?;
        }
        lockstep_drain(&mut cal, &mut reference)?;
    }

    /// Adversarial same-time bursts: many events collapse onto few
    /// distinct instants (single-bucket degeneracy once the calendar
    /// engages). FIFO order among ties must survive every resize.
    #[test]
    fn calendar_queue_same_time_bursts(
        bursts in proptest::collection::vec((0u64..4, 1usize..48), 1..24),
        pops_between in 0usize..8
    ) {
        let mut cal = EventQueue::new();
        let mut reference = BinaryHeapEventQueue::new();
        let mut tag = 0u32;
        for &(instant, count) in &bursts {
            for _ in 0..count {
                tag += 1;
                lockstep_op(&mut cal, &mut reference, Some((Time::from_ns(instant), tag)))?;
            }
            for _ in 0..pops_between {
                lockstep_op(&mut cal, &mut reference, None)?;
            }
        }
        lockstep_drain(&mut cal, &mut reference)?;
    }

    /// Resize boundaries: alternating schedule/pop phases whose sizes
    /// sweep across the engage, grow, shrink, and disengage thresholds.
    /// Each phase's times come from a seeded RNG so phases land at
    /// different magnitudes (forcing year rebases and rewinds).
    #[test]
    fn calendar_queue_survives_resize_boundaries(
        phases in proptest::collection::vec((1usize..96, 0usize..96, 0u64..u64::MAX), 1..16)
    ) {
        let mut cal = EventQueue::new();
        let mut reference = BinaryHeapEventQueue::new();
        let mut tag = 0u32;
        for &(nsched, npop, seed) in &phases {
            let mut rng = Rng::seed_from(seed);
            let base = rng.below(1 << 40);
            for _ in 0..nsched {
                tag += 1;
                let t = Time::from_ps(base + rng.below(1 << 24));
                lockstep_op(&mut cal, &mut reference, Some((t, tag)))?;
            }
            for _ in 0..npop {
                lockstep_op(&mut cal, &mut reference, None)?;
            }
        }
        lockstep_drain(&mut cal, &mut reference)?;
    }

    /// Keyed scheduling stays bit-identical to the heap reference under
    /// random (time, ord) mixes, including plain (ord 0) events riding
    /// alongside keyed ones and adversarial same-(time, ord) ties that
    /// must fall back to FIFO.
    #[test]
    fn calendar_queue_ordered_matches_reference(
        ops in proptest::collection::vec((0u8..6, 0u64..4_096, 0u64..8), 1..400)
    ) {
        let mut cal = EventQueue::new();
        let mut reference = BinaryHeapEventQueue::new();
        let mut tag = 0u32;
        for &(op, raw, ord) in &ops {
            match op {
                0 => {
                    prop_assert_eq!(cal.peek_time(), reference.peek_time());
                    prop_assert_eq!(cal.pop(), reference.pop());
                }
                1 => {
                    // Plain schedule (ord 0) mixed in.
                    tag += 1;
                    cal.schedule(Time::from_ps(raw % 64), tag);
                    reference.schedule(Time::from_ps(raw % 64), tag);
                }
                _ => {
                    tag += 1;
                    // Few distinct instants: (time, ord) collisions are
                    // common, exercising the FIFO fallback.
                    let t = Time::from_ps(raw % 64);
                    cal.schedule_ordered(t, ord, tag);
                    reference.schedule_ordered(t, ord, tag);
                }
            }
            prop_assert_eq!(cal.len(), reference.len());
        }
        lockstep_drain(&mut cal, &mut reference)?;
    }

    /// Synchronized bursts followed by spread arrivals — the closed-loop
    /// shape: every client issues at one instant (the calendar engages on,
    /// or resizes around, a head that spans zero time), then each popped
    /// event is rescheduled a random gap ahead under a mixed order key, so
    /// `len` holds still while the geometry has to find the real spacing.
    /// Gap scales run from ties to microseconds, and later rounds burst
    /// again at the then-current instant.
    #[test]
    fn calendar_queue_bursts_then_spread_arrivals(
        rounds in proptest::collection::vec(
            (1usize..160, 0u32..24, 0usize..600, any::<u64>()), 1..5)
    ) {
        let mut cal = EventQueue::new();
        let mut reference = BinaryHeapEventQueue::new();
        let mut tag = 0u32;
        let mut now = Time::ZERO;
        for &(burst, gap_log2, holds, seed) in &rounds {
            let mut rng = Rng::seed_from(seed);
            for _ in 0..burst {
                tag += 1;
                let ord = rng.below(4);
                cal.schedule_ordered(now, ord, tag);
                reference.schedule_ordered(now, ord, tag);
            }
            for _ in 0..holds {
                prop_assert_eq!(cal.peek_time(), reference.peek_time());
                let (a, b) = (cal.pop(), reference.pop());
                prop_assert_eq!(a, b);
                let (at, ev) = a.expect("a burst is pending");
                now = at;
                let next = at + Duration::from_ps(rng.below(1 << gap_log2));
                let ord = rng.below(4);
                cal.schedule_ordered(next, ord, ev);
                reference.schedule_ordered(next, ord, ev);
                prop_assert_eq!(cal.len(), reference.len());
            }
        }
        lockstep_drain(&mut cal, &mut reference)?;
    }

    /// Substream derivation is order-independent: `Rng::stream(seed, i)`
    /// yields the same sequence no matter how many sibling streams exist
    /// or in which order they are created, and distinct indices give
    /// distinct sequences.
    #[test]
    fn rng_streams_are_independent_of_sibling_order(
        seed in any::<u64>(),
        indices in proptest::collection::vec(0u64..64, 2..8),
    ) {
        let draw = |i: u64| {
            let mut r = Rng::stream(seed, i);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        // Forward and reverse creation orders agree per index.
        let forward: Vec<_> = indices.iter().map(|&i| draw(i)).collect();
        let reverse: Vec<_> = indices.iter().rev().map(|&i| draw(i)).collect();
        for (f, r) in forward.iter().zip(reverse.iter().rev()) {
            prop_assert_eq!(f, r);
        }
        for (a, &ia) in forward.iter().zip(&indices) {
            for (b, &ib) in forward.iter().zip(&indices) {
                if ia != ib {
                    prop_assert_ne!(a, b, "streams {} and {} collided", ia, ib);
                }
            }
        }
    }

    /// Time/Duration arithmetic is consistent: (t + d) - t == d and
    /// ordering follows the raw picosecond values.
    #[test]
    fn time_arithmetic_consistent(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = Time::from_ps(base);
        let d = Duration::from_ps(delta);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d).saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(t + d), Duration::ZERO);
    }

    /// Bandwidth transmission time is additive within rounding: the time
    /// for a+b bytes differs from the sum of parts by at most 1 ps.
    #[test]
    fn bandwidth_tx_time_nearly_additive(
        gbps in 1u64..800,
        a in 1u64..1_000_000,
        b in 1u64..1_000_000,
    ) {
        let bw = Bandwidth::from_gbps(gbps);
        let whole = bw.tx_time_bits(a + b).as_ps();
        let parts = bw.tx_time_bits(a).as_ps() + bw.tx_time_bits(b).as_ps();
        prop_assert!(parts >= whole);
        prop_assert!(parts - whole <= 1, "rounding drift {}", parts - whole);
    }

    /// `bytes_in` inverts `tx_time_bytes` exactly for whole-byte loads.
    #[test]
    fn bandwidth_inversion(gbps in 1u64..800, n in 1u64..10_000_000) {
        let bw = Bandwidth::from_gbps(gbps);
        prop_assert_eq!(bw.bytes_in(bw.tx_time_bytes(n)), n);
    }

    /// The RNG's bounded sampler never exceeds its bound and two
    /// generators with the same seed agree.
    #[test]
    fn rng_bounds_and_determinism(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = Rng::seed_from(seed);
        let mut b = Rng::seed_from(seed);
        for _ in 0..50 {
            let x = a.below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.below(bound));
        }
    }

    /// Summary percentiles are bracketed by min and max, and the mean lies
    /// within [min, max].
    #[test]
    fn summary_order_statistics(xs in proptest::collection::vec(-1e9f64..1e9, 1..300)) {
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let (lo, hi) = (s.min(), s.max());
        prop_assert!(lo <= hi);
        prop_assert!(s.mean() >= lo - 1e-6 && s.mean() <= hi + 1e-6);
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let v = s.percentile(p);
            prop_assert!(v >= lo && v <= hi, "p{p} = {v} outside [{lo}, {hi}]");
        }
        prop_assert!(s.percentile(25.0) <= s.percentile(75.0));
    }

    /// Empirical CDF sampling stays within the support and the quantile
    /// function is monotone.
    #[test]
    fn cdf_quantile_monotone(seed in any::<u64>()) {
        use edm_sim::rng::EmpiricalCdf;
        let cdf = EmpiricalCdf::new(vec![(64, 0.4), (1024, 0.8), (65536, 1.0)]).unwrap();
        let mut rng = Rng::seed_from(seed);
        let mut prev = 0u64;
        for i in 0..=20 {
            let v = cdf.quantile(i as f64 / 20.0);
            prop_assert!(v >= prev, "quantile not monotone");
            prev = v;
        }
        for _ in 0..100 {
            let v = cdf.sample(&mut rng);
            prop_assert!((1..=65536).contains(&v));
        }
    }
}
