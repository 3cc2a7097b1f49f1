//! Cellular-like bandwidth traces.
//!
//! The paper evaluates on three commercial LTE traces (AT&T, Verizon,
//! T-Mobile) from Winstein et al.'s Sprout dataset. Those are measurement
//! files we cannot ship, so each operator is modelled as a seeded
//! Markov-modulated rate process whose regime structure matches the
//! published qualitative character of the corresponding trace: operator-
//! specific mean rate, deep fades, short high-rate bursts, and 100 ms-scale
//! variation. The substitution preserves what the evaluation needs — highly
//! variable available bandwidth that punishes slow-adapting controllers.

use canopy_netsim::trace::Segment;
use canopy_netsim::{BandwidthTrace, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MBPS: f64 = 1e6;

/// Regime parameters for one operator model.
#[derive(Clone, Copy, Debug)]
pub struct OperatorModel {
    /// Trace name.
    pub name: &'static str,
    /// Mean rates of the (low, mid, high) regimes in Mbps.
    pub regime_mbps: [f64; 3],
    /// Relative jitter within a regime (fraction of the regime mean).
    pub jitter: f64,
    /// Probability of switching regime at each 100 ms tick.
    pub switch_prob: f64,
}

/// AT&T-like: moderate mean, frequent mid/low switching.
pub const ATT: OperatorModel = OperatorModel {
    name: "cell-att-lte",
    regime_mbps: [6.0, 18.0, 36.0],
    jitter: 0.35,
    switch_prob: 0.12,
};

/// Verizon-like: higher mean, occasional deep fades.
pub const VERIZON: OperatorModel = OperatorModel {
    name: "cell-verizon-lte",
    regime_mbps: [8.0, 30.0, 60.0],
    jitter: 0.30,
    switch_prob: 0.08,
};

/// T-Mobile-like: bursty, wide dynamic range.
pub const TMOBILE: OperatorModel = OperatorModel {
    name: "cell-tmobile-lte",
    regime_mbps: [6.0, 24.0, 72.0],
    jitter: 0.45,
    switch_prob: 0.15,
};

/// Generates one operator's trace: `duration_secs` of 100 ms segments,
/// looping.
pub fn generate(model: &OperatorModel, seed: u64, duration_secs: f64) -> BandwidthTrace {
    let mut rng = StdRng::seed_from_u64(seed ^ crate::fnv1a(model.name));
    let ticks = (duration_secs / 0.1).max(1.0) as usize;
    let mut regime = 1usize; // Start in the mid regime.
    let segments: Vec<Segment> = (0..ticks)
        .map(|_| {
            if rng.random::<f64>() < model.switch_prob {
                // Neighbouring-regime switch keeps rates auto-correlated.
                regime = match regime {
                    0 => 1,
                    2 => 1,
                    _ => {
                        if rng.random::<f64>() < 0.5 {
                            0
                        } else {
                            2
                        }
                    }
                };
            }
            let mean = model.regime_mbps[regime];
            let rate = mean * (1.0 + rng.random_range(-model.jitter..model.jitter));
            Segment {
                duration: Time::from_millis(100),
                rate_bps: (rate.max(1.0)) * MBPS,
            }
        })
        .collect();
    BandwidthTrace::from_segments(model.name, segments, true)
}

/// The three cellular traces (60 s cycles).
pub fn all(seed: u64) -> Vec<BandwidthTrace> {
    vec![
        generate(&ATT, seed, 60.0),
        generate(&VERIZON, seed, 60.0),
        generate(&TMOBILE, seed, 60.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_operators() {
        let traces = all(0);
        assert_eq!(traces.len(), 3);
        for t in &traces {
            assert!(t.cycle_duration() == Time::from_secs(60));
        }
    }

    #[test]
    fn deterministic_per_seed_distinct_per_operator() {
        let a = generate(&ATT, 5, 10.0);
        let b = generate(&ATT, 5, 10.0);
        assert_eq!(a.segments(), b.segments());
        let v = generate(&VERIZON, 5, 10.0);
        assert_ne!(a.segments(), v.segments());
    }

    #[test]
    fn high_variability() {
        // Cellular traces must have a wide dynamic range (that is the
        // evaluation's point in using them).
        for t in all(3) {
            assert!(
                t.peak_rate() > 2.5 * t.min_rate(),
                "{} insufficiently variable",
                t.name()
            );
        }
    }

    #[test]
    fn mean_rate_ordering_follows_models() {
        // Verizon-like model has the highest regime means of the three at
        // mid regime; check long-run averages are plausibly ordered.
        let att = generate(&ATT, 1, 60.0);
        let vz = generate(&VERIZON, 1, 60.0);
        let avg = |t: &BandwidthTrace| t.avg_rate(Time::ZERO, t.cycle_duration());
        assert!(
            avg(&vz) > avg(&att),
            "verizon should out-rate att on average"
        );
    }
}
