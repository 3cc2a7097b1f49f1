//! Seeded scenario generation: named stress families and the fuzzer.
//!
//! Every scenario is a pure function of `(family, seed)`: the generator
//! seeds one [`StdRng`] from that pair and runs the family's decoder with
//! every parameter drawn uniformly within its bounds ([`params::draw`]) —
//! the same decoder adversarial search runs on unit-cube points
//! ([`params::decode_unit`]) — so any scenario the fuzzer ever produced can
//! be recreated (and committed as a regression fixture) from two integers,
//! and every search-found counterexample lives in the same parameter space
//! as the fuzzed suite. The families are adversarial compositions the paper's
//! fixed 21-trace suite never exercises: flash crowds, bandwidth cliffs,
//! jitter storms, lossy wireless links, buffer-depth sweeps, cross-traffic
//! churn, incast fan-in bursts, and parking-lot RTT unfairness — the last
//! two on multi-hop topologies.

use std::str::FromStr;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::params;
use crate::spec::ScenarioSpec;

/// The named scenario families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// A stampede of short-lived competitors arriving mid-run and leaving
    /// together.
    FlashCrowd,
    /// The link rate collapses by an order of magnitude, then recovers.
    BandwidthCliff,
    /// Phases of escalating delay jitter with calm before and after.
    JitterStorm,
    /// Cellular-style bandwidth with scheduled non-congestive loss phases.
    LossyWireless,
    /// The same workload across a wide sweep of buffer depths.
    BufferSweep,
    /// Competitors of mixed kernels continually arriving and departing.
    CrossTrafficChurn,
    /// A synchronized burst of senders fanning into one incast root.
    IncastBurst,
    /// A multi-hop parking lot where one-hop competitors squeeze the
    /// long flow.
    ParkingLotUnfairness,
}

impl Family {
    /// Every family, in canonical order.
    pub const ALL: [Family; 8] = [
        Family::FlashCrowd,
        Family::BandwidthCliff,
        Family::JitterStorm,
        Family::LossyWireless,
        Family::BufferSweep,
        Family::CrossTrafficChurn,
        Family::IncastBurst,
        Family::ParkingLotUnfairness,
    ];

    /// The family's canonical kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            Family::FlashCrowd => "flash-crowd",
            Family::BandwidthCliff => "bandwidth-cliff",
            Family::JitterStorm => "jitter-storm",
            Family::LossyWireless => "lossy-wireless",
            Family::BufferSweep => "buffer-sweep",
            Family::CrossTrafficChurn => "cross-traffic-churn",
            Family::IncastBurst => "incast-burst",
            Family::ParkingLotUnfairness => "parking-lot-unfairness",
        }
    }
}

impl FromStr for Family {
    type Err = String;

    /// Parses a canonical family name.
    fn from_str(name: &str) -> Result<Family, String> {
        let family = Family::ALL.into_iter().find(|f| f.name() == name);
        family.ok_or_else(|| format!("unknown family `{name}`"))
    }
}

pub(crate) fn rng_for(family: Family, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ canopy_netsim::traces::fnv1a(family.name().bytes()))
}

/// Generates the `(family, seed)` scenario. Pure and deterministic: the
/// same pair always yields a byte-identical spec.
pub fn generate(family: Family, seed: u64) -> ScenarioSpec {
    params::draw(family, seed, &mut rng_for(family, seed), None)
}

/// The fuzz suite over an explicit seed list, in deterministic
/// family-major order. The caller is responsible for the list being
/// duplicate-free; duplicated seeds would produce identically named
/// scenarios and a degenerate matrix (see `scenario_lab --seeds`).
pub fn fuzz_suite_seeds(families: &[Family], seeds: &[u64]) -> Vec<ScenarioSpec> {
    families
        .iter()
        .flat_map(|&f| seeds.iter().map(move |&s| generate(f, s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopy_netsim::Time;

    #[test]
    fn family_names_round_trip() {
        for f in Family::ALL {
            assert_eq!(f.name().parse(), Ok(f));
        }
        assert!("nope".parse::<Family>().is_err());
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        for f in Family::ALL {
            for seed in 0..4 {
                let a = generate(f, seed);
                let b = generate(f, seed);
                assert_eq!(a.to_json(), b.to_json(), "{}-s{seed}", f.name());
                assert!(a.validate().is_ok(), "{}-s{seed}", f.name());
            }
            // Different seeds explore different scenarios.
            assert_ne!(generate(f, 0).to_json(), generate(f, 1).to_json());
        }
    }

    #[test]
    fn suite_is_distinct_and_covers_arrival_departure() {
        let suite = fuzz_suite_seeds(&Family::ALL, &(0..8).collect::<Vec<u64>>());
        assert_eq!(suite.len(), 64);
        let mut names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 64, "scenario names must be unique");
        // Multi-flow scenarios with both arrivals and departures exist.
        let churny = suite
            .iter()
            .filter(|s| {
                s.cross_traffic
                    .iter()
                    .any(|c| c.start > Time::ZERO && c.stop.is_some())
            })
            .count();
        assert!(churny >= 16, "only {churny} arrival/departure scenarios");
        // Every generated spec round-trips through JSON.
        for s in &suite {
            let back = ScenarioSpec::from_json(&s.to_json()).expect("parses");
            assert_eq!(back.to_json(), s.to_json());
        }
    }

    #[test]
    fn multi_hop_families_generate_multi_hop_topologies() {
        use crate::spec::TopologySpec;
        for seed in 0..4 {
            let burst = generate(Family::IncastBurst, seed);
            assert!(
                matches!(burst.topology, TopologySpec::Incast { fan_in } if fan_in >= 2),
                "{:?}",
                burst.topology
            );
            assert!(burst.cross_traffic.len() >= 2, "a burst needs a crowd");

            let lot = generate(Family::ParkingLotUnfairness, seed);
            assert!(
                matches!(lot.topology, TopologySpec::ParkingLot { hops, .. } if hops >= 2),
                "{:?}",
                lot.topology
            );
            assert!(!lot.cross_traffic.is_empty());
            // Competitors stay to the end so the unfairness is sustained.
            assert!(lot.cross_traffic.iter().all(|c| c.stop.is_none()));
        }
    }

    #[test]
    fn explicit_seed_lists_select_exact_scenarios() {
        let picked = fuzz_suite_seeds(&[Family::FlashCrowd, Family::BufferSweep], &[3, 11]);
        assert_eq!(picked.len(), 4);
        assert_eq!(picked[0].name, "flash-crowd-s3");
        assert_eq!(picked[1].name, "flash-crowd-s11");
        assert_eq!(
            picked[3].to_json(),
            generate(Family::BufferSweep, 11).to_json()
        );
    }
}
