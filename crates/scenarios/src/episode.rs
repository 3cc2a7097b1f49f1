//! Scenarios as episodes.
//!
//! A validated spec compiles — through the [`compile_topology`] routing
//! conventions — into a [`canopy_core::env::EpisodeSpec`]: the topology,
//! the flow under test's path, and the cross traffic as
//! [`FlowSpec`]s. This is the one place a [`CrossFlow`](crate::CrossFlow)
//! (the serde shape of committed specs) becomes a flow description, and
//! the one shape both consumers build their world from: the matrix runner
//! puts the scheme under test in control of the episode's first flow, and
//! the trainer's adversarial episode mix
//! ([`canopy_core::trainer::EpisodeMix`]) steps it through a [`CcEnv`].
//! A search cell and the training episode replaying it are therefore the
//! same flows on the same links by construction.
//!
//! [`compile_topology`]: crate::spec::ScenarioSpec::compile_topology

use canopy_core::env::{CcEnv, EpisodeSpec};
use canopy_core::orca::RewardConfig;
use canopy_core::world::{Controller, FlowSpec};
use canopy_netsim::Time;

use crate::spec::{ScenarioSpec, SpecError};

/// Compiles a scenario into an episode.
///
/// `k` is the history depth of the environment's own driver (the matrix
/// runner's schemes carry theirs); `cap` optionally truncates the episode
/// horizon (smoke budgets) without touching the spec's arrival/impairment
/// schedule — mirroring how the search space caps decoded horizons.
/// Validates the spec first, so an episode built from a committed fixture
/// fails loudly rather than training on garbage.
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
        .map(|(cf, path)| FlowSpec {
            start: cf.start,
            stop: cf.stop,
            ..FlowSpec::new(Controller::Kernel(cf.cc.clone()), cf.min_rtt).on_path(path)
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
    Ok(CcEnv::from_episode(episode_spec(spec, k, cap)?)?)
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
