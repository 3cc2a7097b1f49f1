//! The trainer's batched certified-bound loss and resident in-loop
//! certificate against the per-sample, per-call loop they replaced:
//! `Trainer::train` must equal — bit for bit, actor and curve — a replica
//! of its loop that calls [`Verifier::certify_all`] once per step and a
//! per-sample loss once per (transition × property). The replica runs
//! twice: with the public [`accumulate_qc_gradient`] (batching and row
//! order), and with that function's pre-batching body, kept in
//! [`accumulate_qc_gradient_before`] (region staging and hinges) with its
//! one-box bound calls written out on a one-row [`DiffIbp`].

use canopy_absint::{BoundGrads, DiffIbp};
use canopy_core::property::{Postcondition, Property, PropertyParams};
use canopy_core::trainer::{accumulate_qc_gradient, EpochStats, Trainer, TrainerConfig};
use canopy_core::{CcEnv, EnvConfig, StateLayout, Verifier};
use canopy_netsim::{BandwidthTrace, Time};
use canopy_nn::Mlp;
use canopy_rl::{ReplayBuffer, Td3, Td3Config, Transition};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config(properties: Vec<Property>) -> TrainerConfig {
    let env = |rate: f64, rtt_ms: u64| {
        EnvConfig::new(
            BandwidthTrace::constant("train", rate),
            Time::from_millis(rtt_ms),
            0.5,
        )
        .with_episode(Time::from_millis(600))
    };
    TrainerConfig {
        properties,
        lambda: 0.25,
        n_components: 3,
        epochs: 2,
        steps_per_epoch: 200,
        envs: vec![env(12e6, 20), env(24e6, 40)],
        td3: Td3Config {
            hidden: vec![16, 16],
            batch_size: 16,
            ..Td3Config::default()
        },
        seed: 11,
        explore_noise: 0.2,
        monitor_qc: true,
        replay_capacity: 4096,
        name: "qc-loss-test".into(),
        qc_grad_weight: 1.0,
        mix: None,
    }
}

const QC_HINGE_MARGIN: f64 = 0.05;

/// `canopy_core::trainer::accumulate_qc_gradient` as it was before the
/// batched loss, its one-box bound calls on a one-row engine.
fn accumulate_qc_gradient_before(
    actor: &mut Mlp,
    property: &Property,
    layout: StateLayout,
    state: &[f64],
    weight: f64,
) -> f64 {
    let weight = weight * property.weight;
    let region = property.input_region(state, layout);
    let intervals = region.to_intervals();
    let lo: Vec<f64> = intervals.iter().map(|i| i.lo).collect();
    let hi: Vec<f64> = intervals.iter().map(|i| i.hi).collect();
    let mut engine = DiffIbp::default();
    engine.bind(actor);
    let (in_lo, in_hi) = engine.stage(1);
    in_lo.set_row(0, &lo);
    in_hi.set_row(0, &hi);
    engine.forward();
    let z_lo = engine.pre_out_bounds(0).0[0];
    let z_hi = engine.pre_out_bounds(0).1[0];
    let (loss, g_lo, g_hi) = match property.post {
        // Want z_lo ≥ margin (⟺ a_lo ≥ tanh(margin) > 0):
        // loss = relu(margin − z_lo).
        Postcondition::NoDecrease => {
            if z_lo < QC_HINGE_MARGIN {
                (QC_HINGE_MARGIN - z_lo, -weight, 0.0)
            } else {
                (0.0, 0.0, 0.0)
            }
        }
        // Want z_hi ≤ −margin: loss = relu(z_hi + margin).
        Postcondition::NoIncrease => {
            if z_hi > -QC_HINGE_MARGIN {
                (z_hi + QC_HINGE_MARGIN, 0.0, weight)
            } else {
                (0.0, 0.0, 0.0)
            }
        }
        // Want 2^(2(a−a₀)) ∈ [1−ε, 1+ε] for all a in the bound. tanh is
        // 1-Lipschitz, so bounding the pre-activation width by the allowed
        // action width (log2(1+ε) − log2(1−ε)) / 2 suffices.
        Postcondition::BoundedChange { eps } => {
            let allowed = ((1.0 + eps).log2() - (1.0 - eps).log2()) / 2.0;
            let width = z_hi - z_lo;
            if width > allowed {
                (width - allowed, -weight, weight)
            } else {
                (0.0, 0.0, 0.0)
            }
        }
    };
    if g_lo != 0.0 || g_hi != 0.0 {
        let mut grads = BoundGrads::default();
        engine.backward_row(actor, 0, &[g_lo], &[g_hi], true, &mut grads);
    }
    loss
}

type PerSampleLoss = fn(&mut Mlp, &Property, StateLayout, &[f64], f64) -> f64;

/// `Trainer::train_with_recorder` for a mix-free, recorder-free config,
/// rebuilt from the public per-sample and per-call entry points. Also
/// returns how many per-sample hinges were (active, inactive).
fn replica(
    cfg: &TrainerConfig,
    per_sample: PerSampleLoss,
) -> (Vec<f64>, Vec<EpochStats>, (u64, u64)) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let layout = StateLayout::new(cfg.envs[0].k);
    let mut agent = Td3::new(&mut rng, layout.dim(), 1, cfg.td3.clone());
    let mut replay = ReplayBuffer::new(cfg.replay_capacity);
    let verifier = Verifier::new(cfg.n_components);
    let mut envs: Vec<CcEnv> = cfg.envs.iter().cloned().map(CcEnv::new).collect();
    let mut history = Vec::new();
    let (mut active, mut inactive) = (0, 0);
    let mut env_cursor = 0;
    for epoch in 0..cfg.epochs {
        let (mut raw_sum, mut ver_sum, mut total_sum) = (0.0, 0.0, 0.0);
        let (mut critic_sum, mut critic_count) = (0.0, 0u64);
        for _ in 0..cfg.steps_per_epoch {
            let env = &mut envs[env_cursor];
            env_cursor = (env_cursor + 1) % cfg.envs.len();
            let state = env.state();
            let action = agent.act_explore(&state, cfg.explore_noise, &mut rng);
            let ctx = env.step_context();
            let r_verifier = verifier
                .certify_all(agent.actor(), &cfg.properties, layout, &ctx)
                .1;
            let result = env.step(action[0]);
            let total = (1.0 - cfg.lambda) * result.reward + cfg.lambda * r_verifier;
            raw_sum += result.reward;
            ver_sum += r_verifier;
            total_sum += total;
            replay.push(Transition {
                state,
                action,
                reward: total,
                next_state: result.state.clone(),
                done: result.done,
            });
            if result.done {
                env.reset();
            }
            let update = agent.update_with_actor_reg(&replay, &mut rng, |actor, batch| {
                for t in batch {
                    for property in &cfg.properties {
                        let loss =
                            per_sample(actor, property, layout, &t.state, cfg.qc_grad_weight);
                        *(if loss > 0.0 {
                            &mut active
                        } else {
                            &mut inactive
                        }) += 1;
                    }
                }
            });
            if let Some(stats) = update {
                critic_sum += stats.critic_loss;
                critic_count += 1;
            }
        }
        let n = cfg.steps_per_epoch as f64;
        history.push(EpochStats {
            epoch,
            raw_reward: raw_sum / n,
            verifier_reward: ver_sum / n,
            total_reward: total_sum / n,
            critic_loss: critic_sum / critic_count.max(1) as f64,
        });
    }
    (agent.actor().params_flat(), history, (active, inactive))
}

fn assert_trainer_matches_replica(properties: Vec<Property>) -> (u64, u64) {
    let cfg = config(properties);
    let got = Trainer::new(cfg.clone()).train();
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let curve = |h: &[EpochStats]| {
        h.iter()
            .flat_map(|e| {
                [
                    e.raw_reward,
                    e.verifier_reward,
                    e.total_reward,
                    e.critic_loss,
                ]
            })
            .map(f64::to_bits)
            .collect::<Vec<_>>()
    };
    let mut counts = (0, 0);
    for per_sample in [accumulate_qc_gradient, accumulate_qc_gradient_before] {
        let (params, history, hinges) = replica(&cfg, per_sample);
        assert_eq!(bits(&got.model.actor.params_flat()), bits(&params));
        assert_eq!(curve(&got.history), curve(&history));
        counts = hinges;
    }
    counts
}

/// {P1, P2}: the NoDecrease and NoIncrease hinges, staged from templates.
/// P2 carries a non-unit weight so the per-property scaling is exercised.
#[test]
fn shallow_set_matches_the_per_sample_loop() {
    let mut properties = Property::shallow_set(&PropertyParams::default());
    properties[1].weight = 0.5;
    let (active, inactive) = assert_trainer_matches_replica(properties);
    assert!(active > 0 && inactive > 0, "hinges {active}/{inactive}");
}

/// {P3, P4i, P4ii}: three rows per transition.
#[test]
fn deep_set_matches_the_per_sample_loop() {
    let (active, _) =
        assert_trainer_matches_replica(Property::deep_set(&PropertyParams::default()));
    assert!(active > 0);
}

/// {P5}: the BoundedChange hinge; the noise box depends on the state, so
/// every row takes the rebuild-from-state path — and with a second,
/// template-staged property beside it, both paths share a batch.
#[test]
fn robust_set_matches_the_per_sample_loop() {
    let p = PropertyParams::default();
    assert!(Property::p5(&p)
        .abstracted_dims(StateLayout::new(3))
        .is_none());
    let (active, _) = assert_trainer_matches_replica(Property::robust_set(&p));
    assert!(active > 0);
    assert_trainer_matches_replica(vec![Property::p5(&p), Property::p1(&p)]);
}
