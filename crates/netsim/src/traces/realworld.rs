//! The nine-region global-testbed path model (Fig. 12).
//!
//! The paper's in-the-wild deployment runs a sender in CloudLab Wisconsin
//! and receivers in nine Azure regions, with ping latencies from 20 ms to
//! 237 ms. We model each source–destination pair as a single-bottleneck
//! path with the measured-scale propagation RTT and a mildly jittered
//! bottleneck rate (transcontinental paths are long fat networks whose
//! bottleneck rate wanders slowly; the jitter process models cross
//! traffic).

use crate::trace::Segment;
use crate::{BandwidthTrace, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MBPS: f64 = 1e6;

/// Whether a path stays within North America or crosses continents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathClass {
    /// Wisconsin → {EastUS, WestUS2, Canada, SouthCentralUS}.
    IntraContinental,
    /// Wisconsin → {Sweden, Australia, India, Brazil, SouthAfrica}.
    InterContinental,
}

/// One source–destination path of the global testbed.
#[derive(Clone, Debug)]
pub struct PathConfig {
    /// Azure region of the receiver.
    pub region: &'static str,
    /// Path class for aggregation.
    pub class: PathClass,
    /// Propagation RTT (the measured ping latency).
    pub min_rtt: Time,
    /// Nominal bottleneck rate in Mbps.
    pub nominal_mbps: f64,
}

/// The nine regions with ping latencies spanning the paper's 20–237 ms
/// range and plausible cloud-path bottleneck rates.
pub fn paths() -> Vec<PathConfig> {
    vec![
        PathConfig {
            region: "EastUS",
            class: PathClass::IntraContinental,
            min_rtt: Time::from_millis(20),
            nominal_mbps: 120.0,
        },
        PathConfig {
            region: "SouthCentralUS",
            class: PathClass::IntraContinental,
            min_rtt: Time::from_millis(32),
            nominal_mbps: 110.0,
        },
        PathConfig {
            region: "Canada",
            class: PathClass::IntraContinental,
            min_rtt: Time::from_millis(26),
            nominal_mbps: 115.0,
        },
        PathConfig {
            region: "WestUS2",
            class: PathClass::IntraContinental,
            min_rtt: Time::from_millis(48),
            nominal_mbps: 100.0,
        },
        PathConfig {
            region: "Sweden",
            class: PathClass::InterContinental,
            min_rtt: Time::from_millis(110),
            nominal_mbps: 80.0,
        },
        PathConfig {
            region: "Brazil",
            class: PathClass::InterContinental,
            min_rtt: Time::from_millis(150),
            nominal_mbps: 70.0,
        },
        PathConfig {
            region: "Australia",
            class: PathClass::InterContinental,
            min_rtt: Time::from_millis(200),
            nominal_mbps: 60.0,
        },
        PathConfig {
            region: "India",
            class: PathClass::InterContinental,
            min_rtt: Time::from_millis(220),
            nominal_mbps: 55.0,
        },
        PathConfig {
            region: "SouthAfrica",
            class: PathClass::InterContinental,
            min_rtt: Time::from_millis(237),
            nominal_mbps: 50.0,
        },
    ]
}

impl PathConfig {
    /// The bottleneck trace for this path: the nominal rate with slow
    /// ±15% cross-traffic jitter in 500 ms segments over a 30 s cycle.
    pub fn trace(&self, seed: u64) -> BandwidthTrace {
        let mut rng = StdRng::seed_from_u64(seed ^ region_hash(self.region));
        let segments: Vec<Segment> = (0..60)
            .map(|_| Segment {
                duration: Time::from_millis(500),
                rate_bps: self.nominal_mbps * (1.0 + rng.random_range(-0.15..0.15)) * MBPS,
            })
            .collect();
        BandwidthTrace::from_segments(&format!("rw-{}", self.region), segments, true)
    }
}

fn region_hash(s: &str) -> u64 {
    s.bytes().fold(0x9e37_79b9_7f4a_7c15u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0xff51_afd7_ed55_8ccd)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_regions_ping_range() {
        let p = paths();
        assert_eq!(p.len(), 9);
        let min = p.iter().map(|x| x.min_rtt).min().unwrap();
        let max = p.iter().map(|x| x.min_rtt).max().unwrap();
        assert_eq!(min, Time::from_millis(20));
        assert_eq!(max, Time::from_millis(237));
        assert_eq!(
            p.iter()
                .filter(|x| x.class == PathClass::IntraContinental)
                .count(),
            4
        );
        assert_eq!(
            p.iter()
                .filter(|x| x.class == PathClass::InterContinental)
                .count(),
            5
        );
    }

    #[test]
    fn traces_are_deterministic_and_jittered() {
        let p = &paths()[0];
        let a = p.trace(1);
        let b = p.trace(1);
        assert_eq!(a.segments(), b.segments());
        assert!(a.peak_rate() > a.min_rate(), "jitter present");
        // Jitter is mild: within ±15% of nominal.
        assert!(a.peak_rate() <= p.nominal_mbps * 1.15 * MBPS + 1.0);
        assert!(a.min_rate() >= p.nominal_mbps * 0.85 * MBPS - 1.0);
    }
}
