//! Certification-in-the-loop training (Section 4.3).
//!
//! The trainer runs TD3 over a pool of simulated-link environments. At each
//! decision step it computes the quantitative certificate of the *current*
//! policy at the current state and mixes its feedback into the reward:
//!
//! ```text
//! r_total = (1 − λ)·r_raw + λ·r_verifier          (Eq. 10)
//! ```
//!
//! With λ = 0 the loop degenerates to plain Orca training; setting
//! `monitor_qc` keeps computing certificates for the training curves of
//! Figure 17 without letting them influence the reward.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use canopy_absint::{BoundGrads, DiffIbp, IbpBatchScratch, PreparedMlp};
use canopy_nn::Mlp;
use canopy_rl::{ActorRegularizer, ReplayBuffer, Td3, Td3Config, Transition};
use canopy_telemetry::{SharedRecorder, TrainerEvent};

use crate::env::{CcEnv, EnvConfig, EpisodeSpec};
use crate::models::TrainedModel;
use crate::obs::StateLayout;
use crate::plan::CertPlan;
use crate::property::{Property, Stage};
use crate::verifier::Verifier;

/// The certified-bound loss (IBP training, Gowal et al. 2018) of a property
/// set over a mini-batch of states: a hinge on each violating output bound
/// (the `hinge` of a [`Postcondition`](crate::property::Postcondition)),
/// back-propagated through the bound computation itself.
///
/// One resident [`DiffIbp`] engine computes the bounds of every
/// (state × property) box in one batched forward pass; only the rows whose
/// hinge is active run the backward pass, in (state-major, property-minor)
/// order, so the gradients accumulate bit for bit as a per-sample
/// [`accumulate_qc_gradient`] loop would — which is the one-row call of
/// this same type. As an [`ActorRegularizer`] its forward half is the
/// bound pass, which reads the actor alone and so runs beside critic 1's
/// lane of the TD3 update.
struct QcLoss<'p> {
    properties: &'p [Property],
    /// Parallel to `properties`: how its rows are staged.
    stages: Vec<Stage>,
    /// The loss weight; each property's rows are also scaled by its own.
    weight: f64,
    engine: DiffIbp,
    grads: BoundGrads,
}

impl<'p> QcLoss<'p> {
    fn new(properties: &'p [Property], layout: StateLayout, weight: f64) -> QcLoss<'p> {
        QcLoss {
            properties,
            stages: properties.iter().map(|p| p.stage(layout, 1)).collect(),
            weight,
            engine: DiffIbp::default(),
            grads: BoundGrads::default(),
        }
    }

    /// Binds the engine to `actor` and propagates one box per
    /// (state × property) pair.
    fn bound<'s>(&mut self, actor: &Mlp, states: impl ExactSizeIterator<Item = &'s [f64]>) {
        let per_state = self.properties.len();
        self.engine.bind(actor);
        let (in_lo, in_hi) = self.engine.stage(states.len() * per_state);
        for (t, state) in states.enumerate() {
            for (p, stage) in self.stages.iter().enumerate() {
                let row = t * per_state + p;
                stage.write_lo_hi(state, in_lo.row_mut(row), in_hi.row_mut(row));
            }
        }
        self.engine.forward();
    }

    /// Adds the hinge gradients of every bounded row into `actor` — the
    /// network [`bound`](Self::bound) read, unchanged since — each
    /// weighted by `weight · property.weight`; returns the summed hinge
    /// loss.
    fn descend(&mut self, actor: &mut Mlp) -> f64 {
        let per_state = self.properties.len();
        let mut total = 0.0;
        for row in 0..self.engine.rows() {
            let property = &self.properties[row % per_state];
            let weight = self.weight * property.weight;
            let (z_lo, z_hi) = self.engine.pre_out_bounds(row);
            let (loss, g_lo, g_hi) = property.post.hinge(z_lo[0], z_hi[0], weight);
            if g_lo != 0.0 || g_hi != 0.0 {
                self.engine
                    .backward_row(actor, row, &[g_lo], &[g_hi], true, &mut self.grads);
            }
            total += loss;
        }
        total
    }
}

impl ActorRegularizer for QcLoss<'_> {
    fn forward(&mut self, actor: &Mlp, batch: &[&Transition]) {
        self.bound(actor, batch.iter().map(|t| t.state.as_slice()));
    }

    fn accumulate(&mut self, actor: &mut Mlp, _batch: &[&Transition]) {
        self.descend(actor);
    }
}

/// Accumulates the certified-bound loss gradients for one state and one
/// property into the actor — the one-row call of the batched loss the
/// trainer runs over each mini-batch. Returns the hinge loss value.
pub fn accumulate_qc_gradient(
    actor: &mut Mlp,
    property: &Property,
    layout: StateLayout,
    state: &[f64],
    weight: f64,
) -> f64 {
    let mut loss = QcLoss::new(std::slice::from_ref(property), layout, weight);
    loss.bound(actor, std::iter::once(state));
    loss.descend(actor)
}

/// A pool of scenario-backed episodes mixed into the training curriculum
/// (the adversarial-hardening loop's feedback path).
///
/// Whenever an environment slot finishes an episode, the sampler draws
/// from a *dedicated* RNG stream (seeded by [`seed`](Self::seed), fully
/// separate from the trainer's master stream): with probability
/// [`fraction`](Self::fraction) the slot restarts as a pool episode,
/// otherwise it returns to its stock single-link configuration. Because
/// the mix stream never touches the master stream, a zero fraction — or
/// no mix at all — trains bit-for-bit identically to the plain trainer,
/// and the whole loop stays invariant to `CANOPY_THREADS`.
#[derive(Clone, Debug)]
pub struct EpisodeMix {
    /// Fraction of episode restarts drawn from the pool, in `[0, 1]`.
    pub fraction: f64,
    /// Seed of the dedicated mix RNG stream.
    pub seed: u64,
    /// The adversarial episode pool (uniformly sampled).
    pub pool: Vec<EpisodeSpec>,
}

/// Complete training configuration.
#[derive(Clone, Debug)]
pub struct TrainerConfig {
    /// Properties whose certificates shape the reward.
    pub properties: Vec<Property>,
    /// Verifier weight λ ∈ [0, 1] (the paper's best model uses 0.25).
    pub lambda: f64,
    /// QC components during training (the paper uses N = 5).
    pub n_components: usize,
    /// Epochs (each `steps_per_epoch` environment interactions).
    pub epochs: usize,
    /// Interactions per epoch.
    pub steps_per_epoch: usize,
    /// The environment pool (the paper's 256 Mahimahi actors, scaled down).
    pub envs: Vec<EnvConfig>,
    /// TD3 hyperparameters.
    pub td3: Td3Config,
    /// Master seed.
    pub seed: u64,
    /// Exploration noise std-dev.
    pub explore_noise: f64,
    /// Compute certificates even when λ = 0 (training-curve telemetry).
    pub monitor_qc: bool,
    /// Replay capacity.
    pub replay_capacity: usize,
    /// Model name recorded in the output.
    pub name: String,
    /// Weight of the differentiable certified-bound loss added to the
    /// actor's policy gradient (0 disables it; Orca uses 0). This is the
    /// IBP-training mechanism of the verifier literature the paper builds
    /// on — reward shaping alone cannot attribute the (action-independent)
    /// certificate feedback to actions through an off-policy critic.
    pub qc_grad_weight: f64,
    /// Optional adversarial episode mix (`None` trains on the stock
    /// curriculum alone, bitwise identical to the pre-mix trainer).
    pub mix: Option<EpisodeMix>,
}

/// Per-epoch training telemetry (the series of Figure 17).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean raw (Orca) reward.
    pub raw_reward: f64,
    /// Mean verifier reward (QC feedback), `NaN`-free: 0 when not computed.
    pub verifier_reward: f64,
    /// Mean mixed reward actually optimized.
    pub total_reward: f64,
    /// Mean critic TD loss.
    pub critic_loss: f64,
}

/// The full training curve.
pub type TrainingHistory = Vec<EpochStats>;

/// Result of a training run.
#[derive(Clone, Debug)]
pub struct TrainingResult {
    /// The trained model (actor snapshot plus provenance).
    pub model: TrainedModel,
    /// Per-epoch telemetry.
    pub history: TrainingHistory,
}

/// The Canopy trainer.
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if the environment pool is empty or λ ∉ [0, 1].
    pub fn new(config: TrainerConfig) -> Trainer {
        assert!(!config.envs.is_empty(), "need at least one environment");
        assert!(
            (0.0..=1.0).contains(&config.lambda),
            "lambda must be in [0, 1]"
        );
        if let Some(mix) = &config.mix {
            assert!(
                (0.0..=1.0).contains(&mix.fraction),
                "mix fraction must be in [0, 1]"
            );
            let k = config.envs[0].k;
            for (i, e) in mix.pool.iter().enumerate() {
                assert_eq!(
                    e.k, k,
                    "mix episode {i} (`{}`) has k = {} but the trainer uses k = {k}",
                    e.name, e.k
                );
                // Fail at construction, not mid-training: every pool
                // episode must actually build (known kernels, legal paths).
                if let Err(err) = e.check() {
                    panic!("mix episode {i} (`{}`): {err}", e.name);
                }
            }
        }
        Trainer { config }
    }

    /// Runs the full training loop.
    pub fn train(&self) -> TrainingResult {
        self.train_with_recorder(None)
    }

    /// Runs the full training loop, emitting [`TrainerEvent`]s (episode-mix
    /// draws, TD losses, certification probes, epoch summaries) into the
    /// recorder when one is attached. Events are indexed by the global
    /// interaction step, so recordings are deterministic and unaffected by
    /// `CANOPY_THREADS`. Recording reads loop state only: `train()` is
    /// bitwise identical with or without a recorder.
    pub(crate) fn train_with_recorder(&self, recorder: Option<SharedRecorder>) -> TrainingResult {
        let record = |e: TrainerEvent| {
            if let Some(r) = &recorder {
                r.borrow_mut().record_trainer(&e);
            }
        };
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let layout = StateLayout::new(cfg.envs[0].k);
        let mut agent = Td3::new(&mut rng, layout.dim(), 1, cfg.td3.clone());
        let mut replay = ReplayBuffer::new(cfg.replay_capacity);
        let verifier = Verifier::new(cfg.n_components);
        let mut envs: Vec<CcEnv> = cfg.envs.iter().cloned().map(CcEnv::new).collect();
        // The in-loop certificate is compiled against the actor once and
        // re-bound only after an actor step; built here rather than in
        // `new` so constructing a trainer stays free.
        let mut cert = (cfg.lambda > 0.0 || cfg.monitor_qc).then(|| {
            let net = PreparedMlp::new(agent.actor());
            let plan = CertPlan::compile(verifier, &net, &cfg.properties, layout);
            (net, plan, vec![IbpBatchScratch::new()])
        });
        let mut qc_loss = QcLoss::new(&cfg.properties, layout, cfg.qc_grad_weight);

        // The adversarial episode sampler draws from its own RNG stream so
        // the master stream (exploration, batch sampling) is untouched: a
        // disabled mix is bitwise indistinguishable from no mix.
        let mut mix_rng = cfg.mix.as_ref().map(|m| StdRng::seed_from_u64(m.seed));
        let mut slot_is_adversarial = vec![false; cfg.envs.len()];

        let mut history = Vec::with_capacity(cfg.epochs);
        let mut env_cursor = 0usize;
        for epoch in 0..cfg.epochs {
            let mut raw_sum = 0.0;
            let mut ver_sum = 0.0;
            let mut total_sum = 0.0;
            let mut critic_sum = 0.0;
            let mut critic_count = 0u64;
            for step_in_epoch in 0..cfg.steps_per_epoch {
                let step = (epoch * cfg.steps_per_epoch + step_in_epoch) as u64;
                let slot = env_cursor;
                env_cursor = (env_cursor + 1) % cfg.envs.len();
                let env = &mut envs[slot];

                let state = env.state();
                let action = agent.act_explore(&state, cfg.explore_noise, &mut rng);
                let r_verifier = if let Some((net, plan, scratch)) = &mut cert {
                    let ctx = env.step_context();
                    let actor = agent.actor();
                    plan.run(net, actor, 1, |_| &ctx.state, scratch);
                    let agg = plan.aggregate(0, &ctx, || actor.forward(&ctx.state)[0]);
                    record(TrainerEvent::CertProbe {
                        step,
                        r_verifier: agg,
                    });
                    agg
                } else {
                    0.0
                };
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
                    // Episode boundary: the mix sampler decides what the
                    // slot restarts as. With probability `fraction` it
                    // becomes a pool episode; otherwise it returns to (or
                    // stays on) its stock configuration. `env`'s borrow
                    // ended above, so the slot can be rebuilt in place.
                    let draw = match (&cfg.mix, &mut mix_rng) {
                        (Some(mix), Some(rng)) if !mix.pool.is_empty() => {
                            if rng.random::<f64>() < mix.fraction {
                                Some(&mix.pool[rng.random_range(0..mix.pool.len())])
                            } else {
                                None
                            }
                        }
                        _ => None,
                    };
                    match draw {
                        Some(spec) => {
                            record(TrainerEvent::MixDraw {
                                step,
                                episode: spec.name.clone(),
                            });
                            // `new` ran `check` on every pool episode and
                            // the config is private to the trainer, so the
                            // build cannot fail here.
                            envs[slot] = CcEnv::from_episode(spec.clone())
                                .expect("mix episodes are validated");
                            slot_is_adversarial[slot] = true;
                        }
                        None if slot_is_adversarial[slot] => {
                            envs[slot] = CcEnv::new(cfg.envs[slot].clone());
                            slot_is_adversarial[slot] = false;
                        }
                        None => envs[slot].reset(),
                    }
                }
                let update = if cfg.qc_grad_weight > 0.0 && !cfg.properties.is_empty() {
                    agent.update_regularized(&replay, &mut rng, &mut qc_loss)
                } else {
                    agent.update(&replay, &mut rng)
                };
                if let Some(stats) = update {
                    if let (Some((net, plan, _)), Some(_)) = (&mut cert, stats.actor_loss) {
                        *net = PreparedMlp::new(agent.actor());
                        plan.rebind(net);
                    }
                    critic_sum += stats.critic_loss;
                    critic_count += 1;
                    record(TrainerEvent::TdLoss {
                        step,
                        critic_loss: stats.critic_loss,
                    });
                }
            }
            let n = cfg.steps_per_epoch.max(1) as f64;
            let stats = EpochStats {
                epoch,
                raw_reward: raw_sum / n,
                verifier_reward: ver_sum / n,
                total_reward: total_sum / n,
                critic_loss: if critic_count > 0 {
                    critic_sum / critic_count as f64
                } else {
                    0.0
                },
            };
            record(TrainerEvent::Epoch {
                epoch: epoch as u64,
                raw_reward: stats.raw_reward,
                verifier_reward: stats.verifier_reward,
                critic_loss: stats.critic_loss,
            });
            history.push(stats);
        }

        TrainingResult {
            model: TrainedModel {
                name: cfg.name.clone(),
                actor: agent.actor().clone(),
                k: layout.k,
                lambda: cfg.lambda,
                n_components: cfg.n_components,
                property_names: cfg.properties.iter().map(|p| p.name.clone()).collect(),
                seed: cfg.seed,
            },
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::PropertyParams;
    use canopy_netsim::{BandwidthTrace, Time};

    fn tiny_config(lambda: f64, epochs: usize) -> TrainerConfig {
        let trace = BandwidthTrace::constant("train", 12e6);
        let env =
            EnvConfig::new(trace, Time::from_millis(20), 0.5).with_episode(Time::from_secs(2));
        TrainerConfig {
            properties: Property::shallow_set(&PropertyParams::default()),
            lambda,
            n_components: 3,
            epochs,
            steps_per_epoch: 30,
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
            name: "test".into(),
            qc_grad_weight: 1.0,
            mix: None,
        }
    }

    #[test]
    fn training_runs_and_reports_history() {
        let result = Trainer::new(tiny_config(0.25, 3)).train();
        assert_eq!(result.history.len(), 3);
        for e in &result.history {
            assert!(e.raw_reward.is_finite());
            assert!((0.0..=1.0).contains(&e.verifier_reward), "{e:?}");
        }
        assert_eq!(result.model.k, 3);
        assert_eq!(result.model.property_names, vec!["P1", "P2"]);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Trainer::new(tiny_config(0.25, 2)).train();
        let b = Trainer::new(tiny_config(0.25, 2)).train();
        assert_eq!(a.model.actor.params_flat(), b.model.actor.params_flat());
        assert_eq!(a.history.len(), b.history.len());
        assert_eq!(a.history[1].raw_reward, b.history[1].raw_reward);
    }

    #[test]
    fn lambda_zero_skips_qc_unless_monitored() {
        let mut cfg = tiny_config(0.0, 1);
        cfg.monitor_qc = false;
        let result = Trainer::new(cfg).train();
        assert_eq!(result.history[0].verifier_reward, 0.0);
        // With monitoring on, the verifier reward is measured (may be any
        // value in [0,1]) and the optimized reward still equals raw.
        let cfg = tiny_config(0.0, 1);
        let result = Trainer::new(cfg).train();
        assert!((result.history[0].total_reward - result.history[0].raw_reward).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lambda must be in [0, 1]")]
    fn rejects_bad_lambda() {
        Trainer::new(TrainerConfig {
            lambda: 1.5,
            ..tiny_config(0.0, 1)
        });
    }
}
