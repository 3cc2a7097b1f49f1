//! The 18 hand-constructed synthetic bandwidth traces.
//!
//! All rates stay within the paper's training envelope of 6–192 Mbps, and
//! every trace loops, so any test duration is valid. The first two families
//! replicate the motivating traces of Section 2 (controlled step changes on
//! which Orca misbehaves); the rest add the finer-grained variation the
//! paper credits over SAGE's trace set.

use crate::trace::Segment;
use crate::{BandwidthTrace, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MBPS: f64 = 1e6;

fn seg(secs: f64, mbps: f64) -> Segment {
    Segment {
        duration: Time::from_secs_f64(secs),
        rate_bps: mbps * MBPS,
    }
}

fn trace(name: &str, segments: Vec<Segment>) -> BandwidthTrace {
    BandwidthTrace::from_segments(name, segments, true)
}

/// Two-level step, low→high (the Fig. 1 motivating shape).
pub fn step_up() -> BandwidthTrace {
    trace("syn-step-up", vec![seg(5.0, 12.0), seg(5.0, 48.0)])
}

/// Two-level step, high→low.
pub(crate) fn step_down() -> BandwidthTrace {
    trace("syn-step-down", vec![seg(5.0, 48.0), seg(5.0, 12.0)])
}

/// Fast square wave (1 s half-period).
pub fn square_fast() -> BandwidthTrace {
    BandwidthTrace::square_wave(
        "syn-square-fast",
        24.0 * MBPS,
        96.0 * MBPS,
        Time::from_secs(1),
    )
}

/// Slow square wave (4 s half-period).
pub fn square_slow() -> BandwidthTrace {
    BandwidthTrace::square_wave(
        "syn-square-slow",
        24.0 * MBPS,
        96.0 * MBPS,
        Time::from_secs(4),
    )
}

/// Short bandwidth spikes over a low base.
pub fn spikes() -> BandwidthTrace {
    trace(
        "syn-spikes",
        vec![
            seg(3.5, 12.0),
            seg(0.5, 96.0),
            seg(3.5, 12.0),
            seg(0.5, 72.0),
        ],
    )
}

/// Short dips under a high base (the shape behind Fig. 2's bad states).
pub fn dips() -> BandwidthTrace {
    trace(
        "syn-dips",
        vec![
            seg(3.5, 96.0),
            seg(0.5, 12.0),
            seg(3.5, 96.0),
            seg(0.5, 24.0),
        ],
    )
}

/// Staircase up, 8 × 1 s steps from 12 to 96 Mbps.
pub(crate) fn ramp_up() -> BandwidthTrace {
    let steps = (0..8).map(|i| seg(1.0, 12.0 + 12.0 * i as f64)).collect();
    trace("syn-ramp-up", steps)
}

/// Staircase down, 8 × 1 s steps from 96 to 12 Mbps.
pub(crate) fn ramp_down() -> BandwidthTrace {
    let steps = (0..8).map(|i| seg(1.0, 96.0 - 12.0 * i as f64)).collect();
    trace("syn-ramp-down", steps)
}

/// Sawtooth: gradual climb then sharp drop.
pub(crate) fn sawtooth() -> BandwidthTrace {
    let mut v: Vec<Segment> = (0..6).map(|i| seg(1.0, 24.0 + 12.0 * i as f64)).collect();
    v.push(seg(1.0, 12.0));
    trace("syn-sawtooth", v)
}

/// Triangle: climb then symmetric descent.
pub(crate) fn triangle() -> BandwidthTrace {
    let up = (0..5).map(|i| seg(1.0, 24.0 + 18.0 * i as f64));
    let down = (1..4).map(|i| seg(1.0, 96.0 - 18.0 * i as f64));
    trace("syn-triangle", up.chain(down).collect())
}

/// High-frequency oscillation (250 ms half-period).
pub(crate) fn oscillation() -> BandwidthTrace {
    BandwidthTrace::square_wave(
        "syn-oscillation",
        24.0 * MBPS,
        72.0 * MBPS,
        Time::from_millis(250),
    )
}

/// Three-level staircase with a long plateau at each level.
pub(crate) fn double_step() -> BandwidthTrace {
    trace(
        "syn-double-step",
        vec![seg(3.0, 12.0), seg(3.0, 24.0), seg(3.0, 48.0)],
    )
}

/// High plateau with periodic 2 s dips to half rate.
pub(crate) fn plateau_dip() -> BandwidthTrace {
    trace("syn-plateau-dip", vec![seg(6.0, 48.0), seg(2.0, 24.0)])
}

/// Alternating burst and lull (high BDP stress, then starvation).
pub(crate) fn burst_lull() -> BandwidthTrace {
    trace("syn-burst-lull", vec![seg(1.0, 96.0), seg(2.0, 6.0)])
}

/// A seeded bounded random walk, quantized to 500 ms segments.
pub(crate) fn random_walk(seed: u64) -> BandwidthTrace {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5241_4e44);
    let mut rate: f64 = 48.0;
    let segments = (0..40)
        .map(|_| {
            rate = (rate + rng.random_range(-18.0..18.0)).clamp(6.0, 192.0);
            seg(0.5, rate)
        })
        .collect();
    trace("syn-random-walk", segments)
}

/// A seeded two-state (good/bad) Markov-modulated process.
pub fn markov_switch(seed: u64) -> BandwidthTrace {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4d41_524b);
    let mut good = true;
    let segments = (0..30)
        .map(|_| {
            if rng.random::<f64>() < 0.3 {
                good = !good;
            }
            let base = if good { 96.0 } else { 18.0 };
            seg(0.5, base + rng.random_range(-6.0..6.0))
        })
        .collect();
    trace("syn-markov", segments)
}

/// A discretized sine wave between 24 and 96 Mbps.
pub(crate) fn gentle_wave() -> BandwidthTrace {
    let segments = (0..16)
        .map(|i| {
            let phase = i as f64 / 16.0 * std::f64::consts::TAU;
            seg(0.5, 60.0 + 36.0 * phase.sin())
        })
        .collect();
    trace("syn-wave", segments)
}

/// The full 6↔192 Mbps envelope as a square wave (extreme swings).
pub(crate) fn extremes() -> BandwidthTrace {
    BandwidthTrace::square_wave("syn-extremes", 6.0 * MBPS, 192.0 * MBPS, Time::from_secs(2))
}

/// All 18 synthetic traces in a stable order.
pub fn all(seed: u64) -> Vec<BandwidthTrace> {
    vec![
        step_up(),
        step_down(),
        square_fast(),
        square_slow(),
        spikes(),
        dips(),
        ramp_up(),
        ramp_down(),
        sawtooth(),
        triangle(),
        oscillation(),
        double_step(),
        plateau_dip(),
        burst_lull(),
        random_walk(seed),
        markov_switch(seed),
        gentle_wave(),
        extremes(),
    ]
}

/// Looks up a synthetic trace by its name.
pub fn by_name(name: &str, seed: u64) -> Option<BandwidthTrace> {
    all(seed).into_iter().find(|t| t.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Time;

    #[test]
    fn eighteen_traces_within_envelope() {
        let traces = all(7);
        assert_eq!(traces.len(), 18);
        for t in &traces {
            assert!(t.peak_rate() <= 192.0 * MBPS + 1.0, "{} too fast", t.name());
            assert!(t.min_rate() >= 6.0 * MBPS - 1.0, "{} too slow", t.name());
            assert!(t.loops(), "{} must loop", t.name());
            assert!(t.cycle_duration() > Time::ZERO);
        }
    }

    #[test]
    fn seeded_traces_are_deterministic() {
        let a = random_walk(3);
        let b = random_walk(3);
        assert_eq!(a.segments(), b.segments());
        let c = random_walk(4);
        assert_ne!(a.segments(), c.segments());
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("syn-step-up", 0).is_some());
        assert!(by_name("nope", 0).is_none());
    }

    #[test]
    fn variation_is_present() {
        // Every trace must actually vary (this is the point of the set).
        for t in all(1) {
            assert!(
                t.peak_rate() > 1.5 * t.min_rate(),
                "{} is too flat",
                t.name()
            );
        }
    }
}
