//! Determinism contract of the adversarial episode mix: a trainer whose
//! sampler splices scenario episodes into the pool must stay exactly as
//! reproducible as the plain trainer — bitwise in the seed, invariant to
//! the thread count, and bitwise *identical* to today's trainer when the
//! mix draws nothing.

use canopy_core::env::{EnvConfig, EpisodeSpec};
use canopy_core::orca::RewardConfig;
use canopy_core::property::{Property, PropertyParams};
use canopy_core::trainer::{EpisodeMix, Trainer, TrainerConfig, TrainingResult};
use canopy_core::world::{Controller, FlowSpec};
use canopy_netsim::topology::{LinkId, Topology};
use canopy_netsim::{BandwidthTrace, LinkConfig, Time};
use canopy_rl::Td3Config;

fn base_config() -> TrainerConfig {
    let trace = BandwidthTrace::constant("train", 12e6);
    let env =
        EnvConfig::new(trace, Time::from_millis(20), 0.5).with_episode(Time::from_millis(400));
    TrainerConfig {
        properties: Property::shallow_set(&PropertyParams::default()),
        lambda: 0.25,
        n_components: 3,
        epochs: 2,
        steps_per_epoch: 60,
        envs: vec![env],
        td3: Td3Config {
            hidden: vec![16, 16],
            batch_size: 16,
            ..Td3Config::default()
        },
        seed: 7,
        explore_noise: 0.2,
        monitor_qc: true,
        replay_capacity: 4096,
        name: "mix-test".into(),
        qc_grad_weight: 1.0,
        mix: None,
        threads: None,
    }
}

/// A hand-built adversarial pool: a dumbbell episode and a two-hop
/// parking-lot-style episode with a Cubic cross flow.
fn pool() -> Vec<EpisodeSpec> {
    let dumbbell = EpisodeSpec {
        name: "mix-dumbbell".into(),
        topology: Topology::dumbbell(LinkConfig::new(
            BandwidthTrace::constant("mix-link", 8e6),
            30_000,
        )),
        primary_path: vec![LinkId(0)],
        primary_min_rtt: Time::from_millis(30),
        episode: Time::from_millis(400),
        k: 3,
        reward: RewardConfig::default(),
        noise: None,
        cross: Vec::new(),
    };
    let two_hop = EpisodeSpec {
        name: "mix-two-hop".into(),
        topology: Topology::new(vec![
            LinkConfig::new(BandwidthTrace::constant("hop-0", 10e6), 40_000),
            LinkConfig::new(BandwidthTrace::constant("hop-1", 6e6), 25_000),
        ]),
        primary_path: vec![LinkId(0), LinkId(1)],
        primary_min_rtt: Time::from_millis(40),
        episode: Time::from_millis(400),
        k: 3,
        reward: RewardConfig::default(),
        noise: None,
        cross: vec![
            FlowSpec::new(Controller::Kernel("cubic".into()), Time::from_millis(20))
                .on_path(vec![LinkId(1)])
                .starting_at(Time::from_millis(500)),
        ],
    };
    vec![dumbbell, two_hop]
}

fn mixed_config(fraction: f64, threads: Option<usize>) -> TrainerConfig {
    TrainerConfig {
        mix: Some(EpisodeMix {
            fraction,
            seed: 41,
            pool: pool(),
        }),
        threads,
        ..base_config()
    }
}

fn assert_bitwise_equal(a: &TrainingResult, b: &TrainingResult) {
    assert_eq!(a.model.actor.params_flat(), b.model.actor.params_flat());
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.raw_reward.to_bits(), y.raw_reward.to_bits());
        assert_eq!(x.total_reward.to_bits(), y.total_reward.to_bits());
        assert_eq!(x.verifier_reward.to_bits(), y.verifier_reward.to_bits());
    }
}

#[test]
fn mixed_training_is_bitwise_deterministic_in_the_seed() {
    let a = Trainer::new(mixed_config(0.5, None)).train();
    let b = Trainer::new(mixed_config(0.5, None)).train();
    assert_bitwise_equal(&a, &b);

    // And the mix genuinely changes what is learned: a different mix
    // seed reshuffles which episodes are drawn.
    let mut other = mixed_config(0.5, None);
    if let Some(mix) = &mut other.mix {
        mix.seed = 42;
    }
    let c = Trainer::new(other).train();
    assert!(
        a.model.actor.params_flat() != c.model.actor.params_flat()
            || a.history
                .iter()
                .zip(&c.history)
                .any(|(x, y)| x.raw_reward.to_bits() != y.raw_reward.to_bits()),
        "a different mix seed should alter training"
    );
}

#[test]
fn mixed_training_is_invariant_to_thread_count() {
    let one = Trainer::new(mixed_config(0.5, Some(1))).train();
    let four = Trainer::new(mixed_config(0.5, Some(4))).train();
    assert_bitwise_equal(&one, &four);
}

#[test]
fn fraction_zero_reduces_to_the_plain_trainer_bitwise() {
    let plain = Trainer::new(base_config()).train();
    let zero = Trainer::new(mixed_config(0.0, None)).train();
    assert_bitwise_equal(&plain, &zero);
}

#[test]
#[should_panic(expected = "mix fraction")]
fn rejects_out_of_range_fractions() {
    Trainer::new(mixed_config(1.5, None));
}

#[test]
#[should_panic(expected = "mix episode")]
fn rejects_pool_episodes_with_mismatched_k() {
    let mut cfg = mixed_config(0.5, None);
    if let Some(mix) = &mut cfg.mix {
        mix.pool[0].k = 5;
    }
    Trainer::new(cfg);
}
