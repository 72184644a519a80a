//! Property pins for the bounded-memory statistics layer: the streaming
//! [`LogHistogram`] must agree with the exact, sample-retaining
//! [`Summary`] reference on every percentile within the documented
//! relative bucket error, under arbitrary value distributions, and the
//! shard-merge path must be indistinguishable from recording into one
//! histogram.

use edm_sim::{Duration, LogHistogram, Summary, Time, WindowSeries};
use proptest::prelude::*;

proptest! {
    /// For any sample set, every percentile from the streaming histogram
    /// brackets the exact nearest-rank value from above within
    /// `MAX_RELATIVE_ERROR` (and exactly, for values below 64).
    #[test]
    fn log_histogram_percentiles_within_documented_error(
        values in proptest::collection::vec(any::<u64>(), 1..500),
        permilles in proptest::collection::vec(0u32..=1000, 1..8),
    ) {
        let mut h = LogHistogram::new();
        let mut exact = Summary::new();
        for &v in &values {
            // Cap so the f64 Summary stays integer-exact.
            let v = v % (1u64 << 50);
            h.record(v);
            exact.record(v as f64);
        }
        let drawn = permilles.iter().map(|&pm| pm as f64 / 10.0);
        for p in drawn.chain([50.0, 99.0, 99.9, 99.99]) {
            let approx = h.percentile(p);
            let truth = exact.percentile(p);
            prop_assert!(approx as f64 >= truth,
                "p{}: streaming {} below exact {}", p, approx, truth);
            prop_assert!(approx as f64 <= truth * (1.0 + LogHistogram::MAX_RELATIVE_ERROR),
                "p{}: streaming {} above error bound on exact {}", p, approx, truth);
            if truth < 64.0 {
                prop_assert_eq!(approx as f64, truth, "sub-64 values must be exact");
            }
        }
    }

    /// Merging per-shard histograms gives bucket-for-bucket the same
    /// answer as recording the concatenated stream into one histogram.
    #[test]
    fn log_histogram_merge_is_exact(
        shards in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..100),
            1..5,
        ),
    ) {
        let mut combined = LogHistogram::new();
        let mut merged = LogHistogram::new();
        for shard in &shards {
            let mut local = LogHistogram::new();
            for &v in shard {
                combined.record(v);
                local.record(v);
            }
            merged.merge(&local);
        }
        prop_assert_eq!(merged.count(), combined.count());
        prop_assert_eq!(merged.max(), combined.max());
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            prop_assert_eq!(merged.percentile(p), combined.percentile(p));
        }
    }

    /// Windowed completion, byte and failure counts are conserved across
    /// arbitrary event streams and shard merges.
    #[test]
    fn throughput_conserves_totals(
        events in proptest::collection::vec((0u64..1_000_000, 1u64..10_000, any::<bool>()), 0..200),
        window_ns in 1u64..10_000,
        split in 0usize..200,
    ) {
        let w = Duration::from_ns(window_ns);
        let mut all = WindowSeries::new(w);
        let mut a = WindowSeries::new(w);
        let mut b = WindowSeries::new(w);
        let split = split.min(events.len());
        for (i, &(at_ns, bytes, failed)) in events.iter().enumerate() {
            let at = Time::from_ns(at_ns);
            let shard = if i < split { &mut a } else { &mut b };
            if failed {
                all.record_failure(at);
                shard.record_failure(at);
            } else {
                all.record(at, bytes);
                shard.record(at, bytes);
            }
        }
        a.merge(&b);
        prop_assert_eq!(a.total_ops(), all.total_ops());
        prop_assert_eq!(a.total_bytes(), all.total_bytes());
        prop_assert_eq!(a.windows(), all.windows());
        let per_window_ops: u64 = (0..all.windows()).map(|i| all.ops_in(i)).sum();
        prop_assert_eq!(per_window_ops, all.total_ops());
        let failures: u64 = (0..all.windows()).map(|i| all.failed_in(i)).sum();
        prop_assert_eq!(failures, events.iter().filter(|e| e.2).count() as u64);
        for i in 0..all.windows() {
            prop_assert_eq!(a.ops_in(i), all.ops_in(i));
            prop_assert_eq!(a.bytes_in(i), all.bytes_in(i));
            prop_assert_eq!(a.failed_in(i), all.failed_in(i));
        }
    }
}
