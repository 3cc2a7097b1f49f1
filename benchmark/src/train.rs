//! `train_step`: certification-in-the-loop training (Eq. 10 plus the
//! certified-bound loss), 3 000 trainer steps of the Shallow model from
//! scratch. The only workload where the TD3 update (rl + nn backward) and
//! differentiable IBP matter; the simulator is a few percent of it.

use std::time::Instant;

use canopy_core::models::{trainer_config, ModelKind, TrainBudget};
use canopy_core::trainer::{accumulate_qc_gradient, EpochStats, TrainerConfig};
use canopy_core::verifier::Verifier;
use canopy_core::{CcEnv, NoiseConfig, StateLayout, Trainer};
use canopy_nn::Mlp;
use canopy_rl::{ReplayBuffer, Td3, Transition};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{median, time, Digest, Rep, Tally, Tracer};
use crate::workload::{instrument_health, Layers, Params, Workload};

/// Initial weights, exploration and replay sampling are one fixed stream, a
/// property of the workload: whether the certified-bound hinge is active —
/// and its backward pass runs — follows the weights. The seed drives the
/// environments' observation noise, so every trajectory differs.
const TRAINER_SEED: u64 = 1;
/// Relative observation noise of the training environments.
const ENV_NOISE: f64 = 0.1;

pub struct TrainStep {
    config: TrainerConfig,
}

impl TrainStep {
    fn steps(&self) -> u64 {
        (self.config.epochs * self.config.steps_per_epoch) as u64
    }

    /// The trained actor's exact parameters and the training curve.
    fn finish(&self, wall_s: f64, actor: &Mlp, history: &[EpochStats]) -> Rep {
        let mut digest = Digest::default();
        let mut finite = true;
        for p in actor.params_flat() {
            finite &= p.is_finite();
            digest.push_f64(p);
        }
        for e in history {
            for x in [
                e.raw_reward,
                e.verifier_reward,
                e.total_reward,
                e.critic_loss,
            ] {
                finite &= x.is_finite();
                digest.push_f64(x);
            }
        }
        Rep {
            wall_s,
            ops: self.steps(),
            digest,
            ok: finite && history.len() == self.config.epochs,
        }
    }

    /// The state `Trainer::train` builds before its first step.
    fn fresh_state(&self) -> (StdRng, Td3, ReplayBuffer, Vec<CcEnv>) {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let dim = StateLayout::new(cfg.envs[0].k).dim();
        let agent = Td3::new(&mut rng, dim, 1, cfg.td3.clone());
        let replay = ReplayBuffer::new(cfg.replay_capacity);
        let envs = cfg.envs.iter().cloned().map(CcEnv::new).collect();
        (rng, agent, replay, envs)
    }

    /// `Trainer::train`'s loop rebuilt from the public calls it makes, one
    /// span around each. Follows the trainer as configured here: no
    /// episode mix, no recorder, certificates on, certified-bound loss on.
    fn spanned_rep(&self, tracer: &mut Tracer, acc: &mut StepTotals) -> Rep {
        let cfg = &self.config;
        assert!(cfg.mix.is_none() && cfg.qc_grad_weight > 0.0 && cfg.monitor_qc);
        tracer.next_rep();
        let rep_span = tracer.begin("rep");

        let id = tracer.begin("core.trainer_init");
        let layout = StateLayout::new(cfg.envs[0].k);
        let (mut rng, mut agent, mut replay, mut envs) = self.fresh_state();
        let verifier = Verifier::new(cfg.n_components);
        tracer.end(id);

        let mut history = Vec::with_capacity(cfg.epochs);
        let mut env_cursor = 0usize;
        for epoch in 0..cfg.epochs {
            let (mut raw_sum, mut ver_sum, mut total_sum) = (0.0, 0.0, 0.0);
            let (mut critic_sum, mut critic_count) = (0.0, 0u64);
            for _ in 0..cfg.steps_per_epoch {
                let slot = env_cursor;
                env_cursor = (env_cursor + 1) % envs.len();
                let env = &mut envs[slot];
                let state = env.state();

                let id = tracer.begin("rl.act_explore");
                let action = agent.act_explore(&state, cfg.explore_noise, &mut rng);
                acc.act_s += tracer.end(id);

                let ctx = env.step_context();
                let id = tracer.begin("core.certify_all");
                let r_verifier = verifier
                    .certify_all(agent.actor(), &cfg.properties, layout, &ctx)
                    .1;
                acc.certify_s += tracer.end(id);

                let id = tracer.begin("core.env_step");
                let result = env.step(action[0]);
                acc.env_s += tracer.end(id);

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
                    let id = tracer.begin("core.env_reset");
                    env.reset();
                    acc.env_s += tracer.end(id);
                }

                let id = tracer.begin("rl.td3_update");
                let mut qc_s = 0.0;
                let update = agent.update_with_actor_reg(&replay, &mut rng, |actor, batch| {
                    let t0 = Instant::now();
                    for t in batch {
                        for property in &cfg.properties {
                            accumulate_qc_gradient(
                                actor,
                                property,
                                layout,
                                &t.state,
                                cfg.qc_grad_weight,
                            );
                        }
                    }
                    acc.qc_samples += (batch.len() * cfg.properties.len()) as u64;
                    qc_s = t0.elapsed().as_secs_f64();
                });
                if qc_s > 0.0 {
                    tracer.child_ending_now("core.accumulate_qc_gradient", qc_s);
                }
                acc.update_s += tracer.end(id) - qc_s;
                acc.qc_s += qc_s;
                if let Some(stats) = update {
                    critic_sum += stats.critic_loss;
                    critic_count += 1;
                }
            }
            let n = cfg.steps_per_epoch.max(1) as f64;
            history.push(EpochStats {
                epoch,
                raw_reward: raw_sum / n,
                verifier_reward: ver_sum / n,
                total_reward: total_sum / n,
                critic_loss: if critic_count > 0 {
                    critic_sum / critic_count as f64
                } else {
                    0.0
                },
            });
        }
        let wall_s = tracer.end(rep_span);
        acc.steps += self.steps();
        self.finish(wall_s, agent.actor(), &history)
    }
}

#[derive(Default)]
struct StepTotals {
    steps: u64,
    act_s: f64,
    certify_s: f64,
    env_s: f64,
    update_s: f64,
    qc_s: f64,
    qc_samples: u64,
}

impl Workload for TrainStep {
    fn setup(params: &Params) -> Self {
        let budget = TrainBudget {
            epochs: if params.smoke { 1 } else { 4 },
            steps_per_epoch: if params.smoke { 150 } else { 750 },
            n_envs: 4,
        };
        let mut config = trainer_config(ModelKind::Shallow, TRAINER_SEED, budget);
        for (i, env) in config.envs.iter_mut().enumerate() {
            env.noise = Some(NoiseConfig {
                mu: ENV_NOISE,
                seed: params.seed.wrapping_add(i as u64),
            });
        }
        let workload = TrainStep { config };
        // `train()` builds its own fresh state, so the first construction
        // of that state — which the fleets' set-up pays in `Fleet::new` —
        // is paid here through the same public constructors.
        Trainer::new(workload.config.clone());
        std::hint::black_box(workload.fresh_state());
        workload
    }

    fn rep(&self) -> Rep {
        let trainer = Trainer::new(self.config.clone());
        let (result, wall_s) = time(|| trainer.train());
        self.finish(wall_s, &result.model.actor, &result.history)
    }

    /// In-loop certification is ten boxes per step, below the size the
    /// verifier fans out, so there is no second thread count to compare.
    fn invariance_reps(&self) -> Vec<Rep> {
        Vec::new()
    }

    fn traced(
        &self,
        seconds: f64,
        reference: &Rep,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Tally {
        let mut tally = Tally::default();
        let mut acc = StepTotals::default();
        let (mut real_s, mut spanned_s) = (Vec::new(), Vec::new());
        let mut divergence = 0.0;
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds || spanned_s.len() < 2 {
            let rep = self.rep();
            tally.count(&rep, reference);
            real_s.push(rep.wall_s);

            let rep = self.spanned_rep(tracer, &mut acc);
            if rep.digest != reference.digest || !rep.ok {
                divergence = 1.0;
            }
            spanned_s.push(rep.wall_s);
        }
        let per_step_us = |s: f64| s / acc.steps as f64 * 1e6;
        layers.insert("rl.act_us", per_step_us(acc.act_s));
        layers.insert("core.certify_one_us", per_step_us(acc.certify_s));
        layers.insert("core.env_step_us", per_step_us(acc.env_s));
        layers.insert("rl.td3_update_us", per_step_us(acc.update_s));
        layers.insert("core.qc_gradient_us", per_step_us(acc.qc_s));
        layers.insert(
            "absint.diff_ibp_ns_per_sample",
            acc.qc_s / acc.qc_samples.max(1) as f64 * 1e9,
        );
        instrument_health(layers, &spanned_s, median(&real_s), divergence, tracer);
        tally
    }
}
