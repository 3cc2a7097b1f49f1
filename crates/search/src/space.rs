//! The bounded search space over one scenario family.
//!
//! Optimizers work on the unit cube `[0, 1]^d`; the space hands each point
//! to the family's decoder ([`canopy_scenarios::decode_unit`]), which maps
//! every coordinate onto its parameter's bounds as it reads it — the same
//! decoder the seeded fuzzer draws through — so every point an optimizer
//! visits is a legal member of the family, and any counterexample it finds
//! serializes like any other fuzzed scenario.

use canopy_netsim::Time;
use canopy_scenarios::{Family, ScenarioSpec};

/// The flattened, bounded parameter space of one fuzz family.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    family: Family,
    seed: u64,
    dims: usize,
    duration_cap: Option<Time>,
}

impl SearchSpace {
    /// The space of `family`, decoding with provenance seed `seed` (the
    /// seed drives the derived impairment/noise RNG streams, so it is part
    /// of a counterexample's identity).
    pub fn new(family: Family, seed: u64) -> SearchSpace {
        SearchSpace {
            family,
            seed,
            dims: canopy_scenarios::dims(family),
            duration_cap: None,
        }
    }

    /// Caps decoded experiment horizons (smoke/CI mode). Applied before
    /// fractional times resolve, so capped scenarios keep the family's
    /// shape at a shorter time scale.
    pub fn with_duration_cap(mut self, cap: Option<Time>) -> SearchSpace {
        self.duration_cap = cap;
        self
    }

    /// The family this space searches.
    pub fn family(&self) -> Family {
        self.family
    }

    /// The decode provenance seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Dimensionality of the unit cube.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Decodes a unit-cube point into the family's [`ScenarioSpec`]
    /// (clamping each coordinate into `[0, 1]` first, so the optimizer may
    /// propose freely).
    ///
    /// # Panics
    ///
    /// Panics if `unit.len()` differs from [`dims`](Self::dims).
    pub fn decode_unit(&self, unit: &[f64]) -> ScenarioSpec {
        canopy_scenarios::decode_unit(self.family, self.seed, unit, self.duration_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cube_covers_the_family() {
        for family in Family::ALL {
            let space = SearchSpace::new(family, 7);
            assert!(space.dims() >= 6);
            for u in [0.0, 0.5, 1.0] {
                let point = vec![u; space.dims()];
                let spec = space.decode_unit(&point);
                assert!(spec.validate().is_ok(), "{} at {u}", family.name());
                assert_eq!(spec.family, family.name());
                assert_eq!(spec.seed, 7);
            }
        }
    }

    #[test]
    fn out_of_cube_points_clamp() {
        let space = SearchSpace::new(Family::BandwidthCliff, 1);
        let wild = vec![7.5; space.dims()];
        let spec = space.decode_unit(&wild);
        assert_eq!(
            spec.to_json(),
            space.decode_unit(&vec![1.0; space.dims()]).to_json()
        );
        let nan = vec![f64::NAN; space.dims()];
        assert!(space.decode_unit(&nan).validate().is_ok());
    }

    #[test]
    fn duration_cap_propagates() {
        let space =
            SearchSpace::new(Family::FlashCrowd, 2).with_duration_cap(Some(Time::from_secs(4)));
        let spec = space.decode_unit(&vec![0.9; space.dims()]);
        assert_eq!(spec.duration, Time::from_secs(4));
    }
}
