//! Property tests for the rolling-window metrics behind the live
//! observability layer: the one `RollingWindow` ring, under both of its
//! aggregates (a `u64` sum and a `LogHistogram`), must be a pure
//! function of the event multiset (order-invariant — which is exactly
//! what makes it deterministic under any `CANOPY_THREADS`, since
//! thread count can only reorder same-instant arrivals), and window
//! eviction at exact bucket-boundary instants must match a reference
//! model computed directly from the definition.

use proptest::prelude::*;

use canopy_telemetry::{LogHistogram, RollingWindow, WindowSpec};

/// SplitMix64: a tiny deterministic generator for event streams, seeded
/// per proptest case.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` events `(t_ns, value)` with timestamps in `[0, t_max]`, values in
/// `[0, 999]`. Roughly a third of the timestamps are snapped to exact
/// bucket boundaries so the eviction edge cases are always exercised.
fn events(seed: u64, n: usize, t_max: u64, bucket_ns: u64) -> Vec<(u64, u64)> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            let mut t = splitmix(&mut s) % (t_max + 1);
            if splitmix(&mut s).is_multiple_of(3) {
                t -= t % bucket_ns; // exact boundary instant
            }
            (t, splitmix(&mut s) % 1_000)
        })
        .collect()
}

/// The definition, computed directly: after all events (and an optional
/// explicit advance), the window covers the `buckets` most recent
/// materialized buckets; its sum is the sum of values whose bucket is
/// inside it.
fn reference_window_sum(spec: WindowSpec, evs: &[(u64, u64)], advance_ns: Option<u64>) -> u64 {
    let n = spec.buckets as u64;
    let max_bucket = evs
        .iter()
        .map(|(t, _)| t / spec.bucket_ns)
        .chain(advance_ns.map(|t| t / spec.bucket_ns))
        .max()
        .unwrap_or(0)
        .max(n - 1);
    evs.iter()
        .filter(|(t, _)| t / spec.bucket_ns + n > max_bucket)
        .map(|(_, v)| *v)
        .sum()
}

/// Same reference for histograms: the merged window histogram must equal
/// a histogram built from exactly the in-window events.
fn reference_window_hist(spec: WindowSpec, evs: &[(u64, u64)]) -> LogHistogram {
    let n = spec.buckets as u64;
    let max_bucket = evs
        .iter()
        .map(|(t, _)| t / spec.bucket_ns)
        .max()
        .unwrap_or(0)
        .max(n - 1);
    let mut h = LogHistogram::new();
    for (t, v) in evs {
        if t / spec.bucket_ns + n > max_bucket {
            h.record(*v);
        }
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn windowed_counter_matches_reference_in_any_order(
        seed in 0u64..u64::MAX,
        n in 1usize..48,
        bucket_ns in 1u64..40,
        buckets in 1usize..7,
    ) {
        let spec = WindowSpec::new(bucket_ns, buckets);
        let evs = events(seed, n, bucket_ns * 12, bucket_ns);
        let expect = reference_window_sum(spec, &evs, None);
        let total: u64 = evs.iter().map(|(_, v)| v).sum();

        let mut forward = RollingWindow::<u64>::new(spec);
        let mut reverse = RollingWindow::<u64>::new(spec);
        let mut sorted = RollingWindow::<u64>::new(spec);
        for &(t, v) in &evs {
            forward.add(t, v);
        }
        for &(t, v) in evs.iter().rev() {
            reverse.add(t, v);
        }
        let mut by_time = evs.clone();
        by_time.sort();
        for &(t, v) in &by_time {
            sorted.add(t, v);
        }
        prop_assert_eq!(forward.window(), expect);
        prop_assert_eq!(*forward.all(), total);
        prop_assert_eq!(&forward, &reverse);
        prop_assert_eq!(&forward, &sorted);
    }

    #[test]
    fn windowed_counter_is_shard_interleaving_invariant(
        seed in 0u64..u64::MAX,
        n in 1usize..48,
        bucket_ns in 1u64..40,
        buckets in 1usize..7,
        shards in 2usize..5,
    ) {
        // The CANOPY_THREADS analogue: a k-thread run partitions the same
        // event multiset into per-thread arrival orders. Feeding the
        // round-robin shards back-to-back must equal the sequential feed.
        let spec = WindowSpec::new(bucket_ns, buckets);
        let evs = events(seed, n, bucket_ns * 12, bucket_ns);
        let mut sequential = RollingWindow::<u64>::new(spec);
        for &(t, v) in &evs {
            sequential.add(t, v);
        }
        let mut sharded = RollingWindow::<u64>::new(spec);
        for shard in 0..shards {
            for &(t, v) in evs.iter().skip(shard).step_by(shards) {
                sharded.add(t, v);
            }
        }
        prop_assert_eq!(&sequential, &sharded);
    }

    #[test]
    fn windowed_histogram_matches_reference_in_any_order(
        seed in 0u64..u64::MAX,
        n in 1usize..48,
        bucket_ns in 1u64..40,
        buckets in 1usize..7,
    ) {
        let spec = WindowSpec::new(bucket_ns, buckets);
        let evs = events(seed, n, bucket_ns * 12, bucket_ns);
        let mut forward = RollingWindow::<LogHistogram>::new(spec);
        let mut reverse = RollingWindow::<LogHistogram>::new(spec);
        for &(t, v) in &evs {
            forward.add(t, v);
        }
        for &(t, v) in evs.iter().rev() {
            reverse.add(t, v);
        }
        let expect = reference_window_hist(spec, &evs);
        prop_assert_eq!(forward.window(), expect);
        prop_assert_eq!(&forward, &reverse);
        // The all-time histogram sees every event regardless of window.
        let mut all = LogHistogram::new();
        for &(_, v) in &evs {
            all.record(v);
        }
        prop_assert_eq!(forward.all(), &all);
    }

    #[test]
    fn eviction_at_exact_boundary_matches_reference(
        seed in 0u64..u64::MAX,
        bucket_ns in 1u64..40,
        buckets in 1usize..7,
        steps in 1u64..20,
    ) {
        // Events exactly at boundary instants k·bucket_ns: each must land
        // in bucket k (the window is half-open [start, end)), so the
        // arrival at the instant a bucket closes evicts the oldest one.
        let spec = WindowSpec::new(bucket_ns, buckets);
        let mut c = RollingWindow::<u64>::new(spec);
        let mut s = seed;
        let mut evs = Vec::new();
        for k in 0..steps {
            let v = splitmix(&mut s) % 1_000;
            evs.push((k * bucket_ns, v));
            c.add(k * bucket_ns, v);
            prop_assert_eq!(c.window(), reference_window_sum(spec, &evs, None));
            prop_assert_eq!(
                c.window_end_ns(),
                (k.max(spec.buckets as u64 - 1) + 1) * bucket_ns
            );
        }
    }

    #[test]
    fn advance_to_equals_feeding_a_zero_event(
        seed in 0u64..u64::MAX,
        n in 1usize..32,
        bucket_ns in 1u64..40,
        buckets in 1usize..7,
        horizon_mult in 0u64..30,
    ) {
        // Sliding the window forward without data (what a snapshot
        // boundary does) must evict exactly what the reference says.
        let spec = WindowSpec::new(bucket_ns, buckets);
        let evs = events(seed, n, bucket_ns * 12, bucket_ns);
        let horizon = horizon_mult * bucket_ns;
        let mut c = RollingWindow::<u64>::new(spec);
        for &(t, v) in &evs {
            c.add(t, v);
        }
        c.advance_to(horizon);
        c.advance_to(horizon); // idempotent
        prop_assert_eq!(
            c.window(),
            reference_window_sum(spec, &evs, Some(horizon))
        );
        let total: u64 = evs.iter().map(|(_, v)| v).sum();
        prop_assert_eq!(*c.all(), total);
    }
}

/// `WindowSpec`'s fields are public and it deserializes, so a zero
/// width or count can bypass `WindowSpec::new`: the ring's constructor
/// clamps it (to one bucket of 1 ns) instead of dividing by zero.
#[test]
fn zero_geometry_is_clamped_by_the_ring() {
    let literal = WindowSpec {
        bucket_ns: 0,
        buckets: 0,
    };
    let parsed: WindowSpec =
        serde_json::from_str("{\"bucket_ns\":0,\"buckets\":0}").expect("both fields are plain");
    assert_eq!(literal, parsed);
    let mut sum = RollingWindow::<u64>::new(literal);
    let mut hist = RollingWindow::<LogHistogram>::new(parsed);
    assert_eq!(sum.spec(), WindowSpec::new(1, 1));
    assert_eq!(hist.spec().window_ns(), 1);
    sum.add(0, 3);
    sum.add(5, 4);
    sum.advance_to(5);
    hist.add(5, 9);
    hist.advance_to(7);
    assert_eq!((sum.window(), *sum.all()), (4, 7));
    assert_eq!((sum.window_start_ns(), sum.window_end_ns()), (5, 6));
    assert_eq!((hist.window().count(), hist.all().count()), (0, 1));
}
