//! Property-based tests for the simulator's core invariants.

use canopy_netsim::{BandwidthTrace, FixedWindow, FlowConfig, LinkConfig, LinkId, Simulator, Time};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packet conservation: acknowledged + in flight never exceeds sent,
    /// and the receiver never runs ahead of the sender, for arbitrary
    /// link/flow parameters.
    #[test]
    fn conservation(
        rate_mbps in 2.0f64..120.0,
        rtt_ms in 4u64..200,
        bdp_mult in 0.25f64..6.0,
        window in 2.0f64..400.0,
    ) {
        let trace = BandwidthTrace::constant("prop", rate_mbps * 1e6);
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(rtt_ms), bdp_mult);
        let mut sim = Simulator::new(link);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(rtt_ms)).without_samples(),
            Box::new(FixedWindow::new(window)),
        );
        sim.run_until(Time::from_secs(3));
        let stats = sim.flow_stats(f);
        prop_assert!(stats.acked_packets + sim.inflight(f) <= stats.sent_packets);
        prop_assert!(stats.dropped_packets <= stats.sent_packets);
        prop_assert!(stats.retransmits <= stats.sent_packets);
    }

    /// Throughput never exceeds link capacity (no free bandwidth).
    #[test]
    fn no_free_bandwidth(
        rate_mbps in 2.0f64..96.0,
        rtt_ms in 4u64..100,
        window in 10.0f64..1000.0,
    ) {
        let trace = BandwidthTrace::constant("cap", rate_mbps * 1e6);
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(rtt_ms), 2.0);
        let mut sim = Simulator::new(link);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(rtt_ms)).without_samples(),
            Box::new(FixedWindow::new(window)),
        );
        let dur = Time::from_secs(4);
        sim.run_until(dur);
        let delivered = sim.flow_stats(f).acked_bytes as f64;
        let capacity = rate_mbps * 1e6 / 8.0 * dur.as_secs_f64();
        // Allow one queue's worth of slack (bytes buffered before t=0 count).
        prop_assert!(delivered <= capacity * 1.02 + 200_000.0,
            "delivered {delivered} vs capacity {capacity}");
    }

    /// RTT samples never fall below the propagation floor.
    #[test]
    fn rtt_floor(
        rate_mbps in 2.0f64..96.0,
        rtt_ms in 4u64..150,
    ) {
        let trace = BandwidthTrace::constant("floor", rate_mbps * 1e6);
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(rtt_ms), 1.0);
        let mut sim = Simulator::new(link);
        let f = sim.add_flow(
            FlowConfig::new(Time::from_millis(rtt_ms)),
            Box::new(FixedWindow::new(20.0)),
        );
        sim.run_until(Time::from_secs(2));
        let stats = sim.flow_stats(f);
        for s in &stats.samples {
            prop_assert!(s.rtt >= Time::from_millis(rtt_ms), "rtt {} below floor", s.rtt);
        }
    }

    /// Determinism for arbitrary configurations.
    #[test]
    fn determinism(
        rate_mbps in 2.0f64..60.0,
        rtt_ms in 4u64..100,
        window in 2.0f64..300.0,
    ) {
        let run = || {
            let trace = BandwidthTrace::constant("det", rate_mbps * 1e6);
            let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(rtt_ms), 1.0);
            let mut sim = Simulator::new(link);
            let f = sim.add_flow(
                FlowConfig::new(Time::from_millis(rtt_ms)).without_samples(),
                Box::new(FixedWindow::new(window)),
            );
            sim.run_until(Time::from_secs(2));
            let s = sim.flow_stats(f);
            (s.sent_packets, s.acked_packets, s.dropped_packets, s.declared_losses)
        };
        prop_assert_eq!(run(), run());
    }

    /// Flows routed over an explicit `[LinkId(0)]` path run bitwise
    /// identically to flows on the default route, for arbitrary
    /// configurations including the RNG-bearing impairments (random loss
    /// and jitter draw from the same per-link stream in both).
    #[test]
    fn explicit_dumbbell_path_matches_the_default_route(
        rate_mbps in 2.0f64..60.0,
        rtt_ms in 4u64..100,
        w1 in 2.0f64..300.0,
        w2 in 2.0f64..300.0,
        loss in 0.0f64..0.05,
        jitter_ms in 0u64..8,
        seed in 0u64..1000,
    ) {
        use canopy_netsim::{ImpairmentPhase, ImpairmentSchedule};
        let link = || {
            let trace = BandwidthTrace::constant("pair", rate_mbps * 1e6);
            let phase = ImpairmentPhase {
                start: Time::ZERO,
                random_loss: loss,
                max_jitter: Time::from_millis(jitter_ms),
            };
            LinkConfig::with_bdp_buffer(trace, Time::from_millis(rtt_ms), 1.5)
                .with_impairments(ImpairmentSchedule::new(vec![phase], seed))
        };
        let run = |explicit_path: bool| {
            let mut sim = Simulator::new(link());
            let flow = |rtt: u64| {
                let config = FlowConfig::new(Time::from_millis(rtt));
                if explicit_path {
                    config.on_path(vec![LinkId(0)])
                } else {
                    config
                }
            };
            let a = sim.add_flow(flow(rtt_ms), Box::new(FixedWindow::new(w1)));
            let b = sim.add_flow(flow(rtt_ms + 10), Box::new(FixedWindow::new(w2)));
            sim.run_until(Time::from_secs(2));
            (
                format!("{:?}", sim.flow_stats(a)),
                format!("{:?}", sim.flow_stats(b)),
                sim.link_at(LinkId(0)).served_bytes,
            )
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// Queue occupancy respects its capacity for any traffic pattern.
    #[test]
    fn queue_never_overflows(
        rate_mbps in 2.0f64..60.0,
        window in 50.0f64..2000.0,
        bdp_mult in 0.25f64..4.0,
    ) {
        let trace = BandwidthTrace::constant("q", rate_mbps * 1e6);
        let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(40), bdp_mult);
        let cap = link.buffer_bytes;
        let mut sim = Simulator::new(link);
        sim.add_flow(
            FlowConfig::new(Time::from_millis(40)).without_samples(),
            Box::new(FixedWindow::new(window)),
        );
        // Step in small increments, checking occupancy along the way.
        for step in 1..=40u64 {
            sim.run_until(Time::from_millis(step * 50));
            prop_assert!(sim.link_at(LinkId(0)).queue.bytes() <= cap);
        }
        prop_assert!(sim.link_at(LinkId(0)).queue.peak_bytes() <= cap);
    }
}

// Bandwidth trace capacity integrates consistently with rate lookups.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trace_capacity_matches_rates(
        r1 in 1.0f64..100.0,
        r2 in 1.0f64..100.0,
        d1_ms in 100u64..2000,
        d2_ms in 100u64..2000,
    ) {
        let trace = BandwidthTrace::from_segments(
            "cap",
            vec![
                canopy_netsim::trace::Segment {
                    duration: Time::from_millis(d1_ms),
                    rate_bps: r1 * 1e6,
                },
                canopy_netsim::trace::Segment {
                    duration: Time::from_millis(d2_ms),
                    rate_bps: r2 * 1e6,
                },
            ],
            true,
        );
        // Over exactly one cycle, capacity = r1·d1 + r2·d2.
        let cycle = trace.cycle_duration();
        let expect = (r1 * 1e6 * d1_ms as f64 / 1e3 + r2 * 1e6 * d2_ms as f64 / 1e3) / 8.0;
        let got = trace.capacity_bytes(Time::ZERO, cycle);
        prop_assert!((got - expect).abs() < expect * 1e-9 + 1.0);
        // Over two cycles, exactly double.
        let got2 = trace.capacity_bytes(Time::ZERO, cycle * 2);
        prop_assert!((got2 - 2.0 * expect).abs() < expect * 1e-9 + 2.0);
    }

    #[test]
    fn transmit_end_is_monotone_in_bytes(
        rate in 1.0f64..50.0,
        b1 in 1.0f64..100_000.0,
        b2 in 1.0f64..100_000.0,
    ) {
        let trace = BandwidthTrace::square_wave("mono", rate * 1e6, rate * 2e6, Time::from_millis(500));
        let (small, large) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let t_small = trace.transmit_end(Time::ZERO, small).unwrap();
        let t_large = trace.transmit_end(Time::ZERO, large).unwrap();
        prop_assert!(t_small <= t_large);
    }
}
