//! Replaying declarative scenarios as training episodes.
//!
//! This is the scenario half of the `ScenarioSpec → CcEnv` bridge: a
//! validated spec compiles — through the same [`compile_topology`]
//! routing conventions the matrix runner uses — into a
//! [`canopy_core::env::EpisodeSpec`], which the trainer's adversarial
//! episode mix ([`canopy_core::trainer::EpisodeMix`]) can then sample
//! from. Fuzz-family scenarios and committed adversarial fixtures thereby
//! become training environments without the trainer knowing anything
//! about scenario families.
//!
//! [`compile_topology`]: crate::spec::ScenarioSpec::compile_topology

use canopy_core::env::{CcEnv, EpisodeCrossFlow, EpisodeSpec};
use canopy_core::orca::RewardConfig;
use canopy_netsim::Time;

use crate::spec::{ScenarioSpec, SpecError};

/// Compiles a scenario into a trainer-ready episode.
///
/// `k` is the history depth the trained actor expects; `cap` optionally
/// truncates the episode horizon (smoke budgets) without touching the
/// spec's arrival/impairment schedule — mirroring how the search space
/// caps decoded horizons. Validates the spec first, so an episode built
/// from a committed fixture fails loudly rather than training on garbage.
pub fn episode_spec(
    spec: &ScenarioSpec,
    k: usize,
    cap: Option<Time>,
) -> Result<EpisodeSpec, SpecError> {
    spec.validate()?;
    let compiled = spec.compile_topology()?;
    let episode = match cap {
        Some(c) => spec.duration.min(c),
        None => spec.duration,
    };
    let cross = spec
        .cross_traffic
        .iter()
        .zip(compiled.cross_paths)
        .map(|(cf, path)| EpisodeCrossFlow {
            cc: cf.cc.clone(),
            start: cf.start,
            stop: cf.stop,
            min_rtt: cf.min_rtt,
            path,
        })
        .collect();
    Ok(EpisodeSpec {
        name: spec.name.clone(),
        topology: compiled.topology,
        primary_path: compiled.primary_path,
        primary_min_rtt: spec.primary_min_rtt,
        episode,
        k,
        reward: RewardConfig::default(),
        noise: spec.noise,
        cross,
    })
}

/// [`episode_spec`] plus environment construction: the scenario as a
/// ready-to-step [`CcEnv`].
pub fn episode_env(spec: &ScenarioSpec, k: usize, cap: Option<Time>) -> Result<CcEnv, SpecError> {
    CcEnv::from_episode(episode_spec(spec, k, cap)?).map_err(SpecError)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Family};

    #[test]
    fn every_family_replays_as_an_episode() {
        for family in Family::ALL {
            let spec = generate(family, 0);
            let episode = episode_spec(&spec, 3, Some(Time::from_secs(4)))
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            assert_eq!(episode.k, 3);
            assert!(episode.episode <= Time::from_secs(4));
            assert_eq!(episode.cross.len(), spec.cross_traffic.len());
            let mut env = episode_env(&spec, 3, Some(Time::from_secs(4)))
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            let mut done = false;
            let mut steps = 0;
            while !done && steps < 400 {
                done = env.step(0.0).done;
                steps += 1;
            }
            assert!(done, "{}: episode must terminate", family.name());
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = generate(Family::FlashCrowd, 1);
        spec.name.clear();
        assert!(episode_spec(&spec, 3, None).is_err());
    }
}
