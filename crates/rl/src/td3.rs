//! The TD3 agent.
//!
//! [`Td3::update`] is the one update engine: batched GEMM passes over
//! resident scratch. The per-transition loop it replaced is compiled only
//! under `cfg(test)` (the `reference` module at the bottom of this file),
//! where property tests hold the two bitwise equal.

use rand::Rng;
use serde::{Deserialize, Serialize};

use canopy_nn::{Activation, Adam, BatchScratch, Matrix, Mlp};

use crate::noise::GaussianNoise;
use crate::replay::{ReplayBuffer, Transition};

/// TD3 hyperparameters; defaults follow Fujimoto et al. and Orca.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Td3Config {
    /// Discount factor γ.
    pub gamma: f64,
    /// Polyak averaging coefficient τ for target networks.
    pub tau: f64,
    /// The actor (and targets) update once per this many critic updates.
    pub policy_delay: u64,
    /// Std-dev of the smoothing noise added to target actions.
    pub target_noise_std: f64,
    /// Clip bound for the smoothing noise.
    pub target_noise_clip: f64,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Mini-batch size per update.
    pub batch_size: usize,
    /// Hidden-layer widths shared by actor and critics.
    pub hidden: Vec<usize>,
}

impl Default for Td3Config {
    fn default() -> Td3Config {
        Td3Config {
            gamma: 0.99,
            tau: 0.005,
            policy_delay: 2,
            target_noise_std: 0.2,
            target_noise_clip: 0.5,
            actor_lr: 1e-3,
            critic_lr: 1e-3,
            batch_size: 64,
            hidden: vec![32, 32],
        }
    }
}

/// Losses from one [`Td3::update`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateStats {
    /// Mean squared TD error across both critics.
    pub critic_loss: f64,
    /// `−mean Q₁(s, π(s))` when the actor updated this step.
    pub actor_loss: Option<f64>,
}

/// A TD3 agent with deterministic tanh-bounded actions in `[-1, 1]ᵈ`.
pub struct Td3 {
    /// Configuration (immutable after construction).
    pub config: Td3Config,
    actor: Mlp,
    actor_target: Mlp,
    critic1: Mlp,
    critic2: Mlp,
    critic1_target: Mlp,
    critic2_target: Mlp,
    actor_opt: Adam,
    critic1_opt: Adam,
    critic2_opt: Adam,
    updates: u64,
    scratch: UpdateScratch,
}

/// Reusable buffers for the batched [`Td3::update`]: batch matrices, the
/// propagated-gradient buffers, and one [`BatchScratch`] per network that
/// runs a forward pass. Everything grows on the first update and is reused
/// afterwards, so a steady-state update step allocates nothing.
#[derive(Default)]
struct UpdateScratch {
    /// Replay states, `N × s`.
    states: Matrix,
    /// Replay actions, `N × a`.
    actions: Matrix,
    /// Replay next states, `N × s`.
    next_states: Matrix,
    /// Smoothed target actions `ã`, `N × a`.
    next_actions: Matrix,
    /// State–action pairs `[s ‖ a]`, `N × (s + a)` (reused for the target
    /// pair, the critic pair, and the actor pair in turn).
    xa: Matrix,
    /// TD targets `y`.
    targets: Vec<f64>,
    /// Critic-1 output gradient / TD error, `N × 1`.
    grad_q1: Matrix,
    /// Critic-2 TD error, `N × 1`.
    grad_q2: Matrix,
    actor_fwd: BatchScratch,
    actor_tgt: BatchScratch,
    critic1_fwd: BatchScratch,
    critic2_fwd: BatchScratch,
    critic1_tgt: BatchScratch,
    critic2_tgt: BatchScratch,
}

/// Writes the row-wise concatenation `[left ‖ right]` into `out`.
fn concat_rows_into(left: &Matrix, right: &Matrix, out: &mut Matrix) {
    debug_assert_eq!(left.rows(), right.rows(), "batch size mismatch");
    out.reshape(left.rows(), left.cols() + right.cols());
    for r in 0..left.rows() {
        let row = out.row_mut(r);
        row[..left.cols()].copy_from_slice(left.row(r));
        row[left.cols()..].copy_from_slice(right.row(r));
    }
}

impl Td3 {
    /// Creates an agent for `state_dim`-dimensional states and
    /// `action_dim`-dimensional actions.
    ///
    /// # Panics
    ///
    /// Panics if `config.batch_size` or `config.policy_delay` is zero.
    pub fn new<R: Rng>(rng: &mut R, state_dim: usize, action_dim: usize, config: Td3Config) -> Td3 {
        assert!(config.batch_size > 0, "TD3 batch size must be positive");
        assert!(config.policy_delay > 0, "TD3 policy delay must be positive");
        let mut actor_widths = vec![state_dim];
        actor_widths.extend_from_slice(&config.hidden);
        actor_widths.push(action_dim);
        let mut critic_widths = vec![state_dim + action_dim];
        critic_widths.extend_from_slice(&config.hidden);
        critic_widths.push(1);

        let actor = Mlp::new(rng, &actor_widths, Activation::Tanh);
        let critic1 = Mlp::new(rng, &critic_widths, Activation::Identity);
        let critic2 = Mlp::new(rng, &critic_widths, Activation::Identity);
        let actor_opt = Adam::new(actor.param_count(), config.actor_lr);
        let critic1_opt = Adam::new(critic1.param_count(), config.critic_lr);
        let critic2_opt = Adam::new(critic2.param_count(), config.critic_lr);
        Td3 {
            config,
            actor_target: actor.clone(),
            critic1_target: critic1.clone(),
            critic2_target: critic2.clone(),
            actor,
            critic1,
            critic2,
            actor_opt,
            critic1_opt,
            critic2_opt,
            updates: 0,
            scratch: UpdateScratch::default(),
        }
    }

    /// The current deterministic policy network.
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// The greedy action `π(s)`.
    pub fn act(&self, state: &[f64]) -> Vec<f64> {
        self.actor.forward(state)
    }

    /// The exploratory action `clip(π(s) + ε)`, ε ~ N(0, σ²).
    pub fn act_explore<R: Rng>(&self, state: &[f64], noise_std: f64, rng: &mut R) -> Vec<f64> {
        let noise = GaussianNoise::new(noise_std);
        self.actor
            .forward(state)
            .into_iter()
            .map(|a| (a + noise.sample(rng)).clamp(-1.0, 1.0))
            .collect()
    }

    /// Q₁ estimate for a state–action pair (diagnostics).
    pub fn q1(&self, state: &[f64], action: &[f64]) -> f64 {
        self.critic1.forward_concat(state, action)[0]
    }

    /// Number of gradient updates performed so far.
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// One TD3 update from uniformly sampled replay data.
    ///
    /// Returns `None` when the buffer holds fewer than one batch.
    pub fn update<R: Rng>(&mut self, replay: &ReplayBuffer, rng: &mut R) -> Option<UpdateStats> {
        self.update_with_actor_reg(replay, rng, |_, _| {})
    }

    /// Like [`update`](Self::update), but invokes `actor_reg` during the
    /// delayed actor step, between the policy-gradient backward pass and
    /// the optimizer step.
    ///
    /// The closure may accumulate additional gradients into the actor
    /// (e.g. a differentiable certified-bound loss); whatever it adds is
    /// scaled by `1 / batch_size` together with the policy gradient, so it
    /// should *sum* per-sample contributions over the provided batch.
    ///
    /// The whole update runs as batched GEMM passes over reusable scratch
    /// buffers — zero heap allocation in steady state — and is bitwise
    /// identical to the per-transition loop it replaced (kept as this
    /// module's test-only `reference`) for the same RNG stream.
    pub fn update_with_actor_reg<R: Rng>(
        &mut self,
        replay: &ReplayBuffer,
        rng: &mut R,
        mut actor_reg: impl FnMut(&mut Mlp, &[&Transition]),
    ) -> Option<UpdateStats> {
        if replay.len() < self.config.batch_size {
            return None;
        }
        let batch = replay.sample(rng, self.config.batch_size);
        let n = batch.len();
        let nf = n as f64;
        let smoothing = GaussianNoise::new(self.config.target_noise_std);
        let s_dim = self.actor.input_dim();
        let a_dim = self.actor.output_dim();

        let sc = &mut self.scratch;
        sc.states.reshape(n, s_dim);
        sc.actions.reshape(n, a_dim);
        sc.next_states.reshape(n, s_dim);
        for (r, t) in batch.iter().enumerate() {
            sc.states.set_row(r, &t.state);
            sc.actions.set_row(r, &t.action);
            sc.next_states.set_row(r, &t.next_state);
        }

        // --- Critic update -------------------------------------------------
        // y = r + γ·(1−done)·min(Q₁'(s', ã), Q₂'(s', ã)),
        // ã = clip(π'(s') + clip(ε, ±c)).
        // The forward passes consume no randomness, so drawing all smoothing
        // noise after the batched π'(s') pass — in sample-major, dim-minor
        // order — replays the reference loop's RNG stream exactly.
        let a_next = self
            .actor_target
            .forward_batch(&sc.next_states, &mut sc.actor_tgt);
        sc.next_actions.copy_from(a_next);
        for r in 0..n {
            for a in sc.next_actions.row_mut(r) {
                *a = (*a + smoothing.sample_clipped(rng, self.config.target_noise_clip))
                    .clamp(-1.0, 1.0);
            }
        }
        concat_rows_into(&sc.next_states, &sc.next_actions, &mut sc.xa);
        let q1t = self
            .critic1_target
            .forward_batch(&sc.xa, &mut sc.critic1_tgt);
        let q2t = self
            .critic2_target
            .forward_batch(&sc.xa, &mut sc.critic2_tgt);
        sc.targets.clear();
        for (r, t) in batch.iter().enumerate() {
            let not_done = if t.done { 0.0 } else { 1.0 };
            let q = q1t.get(r, 0).min(q2t.get(r, 0));
            sc.targets.push(t.reward + self.config.gamma * not_done * q);
        }

        self.critic1.zero_grads();
        self.critic2.zero_grads();
        concat_rows_into(&sc.states, &sc.actions, &mut sc.xa);
        let q1 = self
            .critic1
            .forward_trace_batch(&sc.xa, &mut sc.critic1_fwd);
        sc.grad_q1.reshape(n, 1);
        for r in 0..n {
            *sc.grad_q1.get_mut(r, 0) = q1.get(r, 0) - sc.targets[r];
        }
        self.critic1
            .backward_batch_params_only(&sc.xa, &mut sc.critic1_fwd, &sc.grad_q1);
        let q2 = self
            .critic2
            .forward_trace_batch(&sc.xa, &mut sc.critic2_fwd);
        sc.grad_q2.reshape(n, 1);
        for r in 0..n {
            *sc.grad_q2.get_mut(r, 0) = q2.get(r, 0) - sc.targets[r];
        }
        self.critic2
            .backward_batch_params_only(&sc.xa, &mut sc.critic2_fwd, &sc.grad_q2);
        // Summed in the reference loop's interleaved order so the reported
        // loss also matches bitwise.
        let mut critic_loss = 0.0;
        for r in 0..n {
            let e1 = sc.grad_q1.get(r, 0);
            let e2 = sc.grad_q2.get(r, 0);
            critic_loss += e1 * e1;
            critic_loss += e2 * e2;
        }
        critic_loss /= 2.0 * nf;
        self.critic1_opt.step(&mut self.critic1, 1.0 / nf);
        self.critic2_opt.step(&mut self.critic2, 1.0 / nf);

        self.updates += 1;

        // --- Delayed actor + target updates --------------------------------
        let mut actor_loss = None;
        if self.updates.is_multiple_of(self.config.policy_delay) {
            self.actor.zero_grads();
            let a = self
                .actor
                .forward_trace_batch(&sc.states, &mut sc.actor_fwd);
            concat_rows_into(&sc.states, a, &mut sc.xa);
            let q = self
                .critic1
                .forward_trace_batch(&sc.xa, &mut sc.critic1_fwd);
            let mut loss = 0.0;
            for r in 0..n {
                loss -= q.get(r, 0);
            }
            // ∂(−Q)/∂a — only the action coordinates of the critic's input
            // gradient — chained through the actor.
            sc.grad_q1.reshape(n, 1);
            sc.grad_q1.as_mut_slice().fill(-1.0);
            let grad_action = self.critic1.backward_batch_cols(
                &sc.xa,
                &mut sc.critic1_fwd,
                &sc.grad_q1,
                s_dim..s_dim + a_dim,
            );
            self.actor
                .backward_batch_params_only(&sc.states, &mut sc.actor_fwd, grad_action);
            // The critic gradients accumulated above belong to the actor's
            // objective, not the critic's; discard them.
            self.critic1.zero_grads();
            actor_reg(&mut self.actor, &batch);
            self.actor_opt.step(&mut self.actor, 1.0 / nf);
            actor_loss = Some(loss / nf);

            let tau = self.config.tau;
            self.actor_target.soft_update_from(&self.actor, tau);
            self.critic1_target.soft_update_from(&self.critic1, tau);
            self.critic2_target.soft_update_from(&self.critic2, tau);
        }

        Some(UpdateStats {
            critic_loss,
            actor_loss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Transition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn agent(seed: u64) -> Td3 {
        let mut rng = StdRng::seed_from_u64(seed);
        Td3::new(
            &mut rng,
            1,
            1,
            Td3Config {
                hidden: vec![16, 16],
                batch_size: 32,
                actor_lr: 3e-3,
                critic_lr: 3e-3,
                ..Td3Config::default()
            },
        )
    }

    #[test]
    fn actions_are_bounded() {
        let agent = agent(0);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..50 {
            let s = [i as f64 / 10.0 - 2.5];
            let a = agent.act_explore(&s, 0.5, &mut rng);
            assert!(a[0] >= -1.0 && a[0] <= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn rejects_an_empty_batch() {
        let mut rng = StdRng::seed_from_u64(0);
        let config = Td3Config {
            batch_size: 0,
            ..Td3Config::default()
        };
        Td3::new(&mut rng, 1, 1, config);
    }

    #[test]
    #[should_panic(expected = "policy delay must be positive")]
    fn rejects_a_zero_policy_delay() {
        let mut rng = StdRng::seed_from_u64(0);
        let config = Td3Config {
            policy_delay: 0,
            ..Td3Config::default()
        };
        Td3::new(&mut rng, 1, 1, config);
    }

    #[test]
    fn update_requires_full_batch() {
        let mut agent = agent(0);
        let replay = ReplayBuffer::new(100);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(agent.update(&replay, &mut rng).is_none());
    }

    #[test]
    fn actor_updates_are_delayed() {
        let mut agent = agent(0);
        let mut replay = ReplayBuffer::new(1000);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..64 {
            replay.push(Transition {
                state: vec![i as f64 / 64.0],
                action: vec![0.0],
                reward: 0.0,
                next_state: vec![(i + 1) as f64 / 64.0],
                done: false,
            });
        }
        let s1 = agent.update(&replay, &mut rng).unwrap();
        let s2 = agent.update(&replay, &mut rng).unwrap();
        // With policy_delay = 2: first update critic-only, second also actor.
        assert!(s1.actor_loss.is_none());
        assert!(s2.actor_loss.is_some());
    }

    /// A one-step bandit: state s ∈ [-1,1], reward = −(a − s)². The optimal
    /// policy is the identity map; TD3 must substantially reduce the
    /// actor's regret.
    #[test]
    fn solves_identity_bandit() {
        let mut agent = agent(42);
        let mut replay = ReplayBuffer::new(4096);
        let mut rng = StdRng::seed_from_u64(7);

        let regret = |agent: &Td3| -> f64 {
            let mut total = 0.0;
            let mut count = 0;
            for i in -10..=10 {
                let s = i as f64 / 10.0;
                let a = agent.act(&[s])[0];
                total += (a - s) * (a - s);
                count += 1;
            }
            total / count as f64
        };

        let before = regret(&agent);
        for step in 0..1500 {
            let s = ((step * 37) % 201) as f64 / 100.0 - 1.0;
            let a = agent.act_explore(&[s], 0.3, &mut rng);
            let r = -(a[0] - s) * (a[0] - s);
            replay.push(Transition {
                state: vec![s],
                action: a,
                reward: r,
                next_state: vec![s],
                done: true,
            });
            agent.update(&replay, &mut rng);
        }
        let after = regret(&agent);
        assert!(
            after < before * 0.5 && after < 0.1,
            "regret before {before:.4}, after {after:.4}"
        );
    }

    #[test]
    fn actor_regularizer_shapes_the_policy() {
        // The same run with and without an actor regularizer must diverge,
        // and a strong "push outputs down" regularizer must lower the mean
        // action.
        // 75 updates: enough for the +1-gradient regularizer to clearly
        // depress the mean action (gap ≈ 0.18), but short of the point
        // where the *unregularized* run also drifts into tanh saturation
        // on this zero-reward fixture (by ~150 updates both runs sit at
        // −1 and the gap collapses).
        let run = |use_reg: bool| {
            let mut agent = agent(21);
            let mut replay = ReplayBuffer::new(1024);
            let mut rng = StdRng::seed_from_u64(13);
            for i in 0..128 {
                let s = (i % 32) as f64 / 32.0 - 0.5;
                replay.push(Transition {
                    state: vec![s],
                    action: vec![0.0],
                    reward: 0.0,
                    next_state: vec![s],
                    done: true,
                });
            }
            for _ in 0..75 {
                if use_reg {
                    agent.update_with_actor_reg(&replay, &mut rng, |actor, batch| {
                        // Descend on the mean output: accumulate +1 grads.
                        for t in batch {
                            let (y, trace) = actor.forward_trace(&t.state);
                            let _ = y;
                            actor.backward(&trace, &[1.0]);
                        }
                    });
                } else {
                    agent.update(&replay, &mut rng);
                }
            }
            let mut mean = 0.0;
            for i in -5..=5 {
                mean += agent.act(&[i as f64 / 5.0])[0];
            }
            mean / 11.0
        };
        let plain = run(false);
        let regularized = run(true);
        assert!(
            regularized < plain - 0.1,
            "regularizer should push actions down: plain {plain:.3}, reg {regularized:.3}"
        );
    }

    /// The batched update must reproduce the scalar reference loop
    /// bitwise: same RNG stream, same parameters, same reported losses.
    #[test]
    fn batched_update_matches_reference_bitwise() {
        let mut fast = agent(17);
        let mut slow = agent(17);
        let mut replay = ReplayBuffer::new(512);
        let mut rng_fill = StdRng::seed_from_u64(23);
        for i in 0..96 {
            let s = i as f64 / 96.0 - 0.5;
            let a = fast.act_explore(&[s], 0.4, &mut rng_fill);
            replay.push(Transition {
                state: vec![s],
                action: a.clone(),
                reward: -(a[0] - s).abs(),
                next_state: vec![-s],
                done: i % 7 == 0,
            });
        }
        let mut rng_a = StdRng::seed_from_u64(31);
        let mut rng_b = StdRng::seed_from_u64(31);
        for step in 0..8 {
            let sa = fast.update(&replay, &mut rng_a).unwrap();
            let sb = slow.update_reference(&replay, &mut rng_b).unwrap();
            assert_eq!(sa.critic_loss, sb.critic_loss, "step {step}");
            assert_eq!(sa.actor_loss, sb.actor_loss, "step {step}");
        }
        assert_eq!(fast.actor().params_flat(), slow.actor().params_flat());
        assert_eq!(fast.act(&[0.3]), slow.act(&[0.3]));
        assert_eq!(fast.q1(&[0.3], &[0.1]), slow.q1(&[0.3], &[0.1]));
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let mut agent = agent(5);
            let mut replay = ReplayBuffer::new(512);
            let mut rng = StdRng::seed_from_u64(11);
            for i in 0..64 {
                let s = i as f64 / 64.0;
                let a = agent.act_explore(&[s], 0.2, &mut rng);
                replay.push(Transition {
                    state: vec![s],
                    action: a.clone(),
                    reward: -a[0].abs(),
                    next_state: vec![s],
                    done: true,
                });
            }
            for _ in 0..10 {
                agent.update(&replay, &mut rng);
            }
            agent.act(&[0.5])[0]
        };
        assert_eq!(run(), run());
    }
}

/// The per-transition reference update and the property-based proof that
/// the batched [`Td3::update`] is **bitwise identical** to it for any seed
/// — same sampled batches, same smoothing noise, same critic/actor
/// parameters, same reported losses — across critic-only and
/// delayed-actor steps. Test-only: it reads the private optimisers, and no
/// release build carries it.
#[cfg(test)]
mod reference {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Td3 {
        /// The original per-transition scalar update loop, kept verbatim as
        /// the equivalence oracle for the batched [`update`](Td3::update).
        pub(super) fn update_reference<R: Rng>(
            &mut self,
            replay: &ReplayBuffer,
            rng: &mut R,
        ) -> Option<UpdateStats> {
            fn concat(a: &[f64], b: &[f64]) -> Vec<f64> {
                let mut v = Vec::with_capacity(a.len() + b.len());
                v.extend_from_slice(a);
                v.extend_from_slice(b);
                v
            }

            if replay.len() < self.config.batch_size {
                return None;
            }
            let batch = replay.sample(rng, self.config.batch_size);
            let n = batch.len() as f64;
            let smoothing = GaussianNoise::new(self.config.target_noise_std);

            let mut targets = Vec::with_capacity(batch.len());
            for t in &batch {
                let mut a_next = self.actor_target.forward(&t.next_state);
                for a in &mut a_next {
                    *a = (*a + smoothing.sample_clipped(rng, self.config.target_noise_clip))
                        .clamp(-1.0, 1.0);
                }
                let xa = concat(&t.next_state, &a_next);
                let q1 = self.critic1_target.forward(&xa)[0];
                let q2 = self.critic2_target.forward(&xa)[0];
                let not_done = if t.done { 0.0 } else { 1.0 };
                targets.push(t.reward + self.config.gamma * not_done * q1.min(q2));
            }

            let mut critic_loss = 0.0;
            self.critic1.zero_grads();
            self.critic2.zero_grads();
            for (t, &y) in batch.iter().zip(&targets) {
                let xa = concat(&t.state, &t.action);
                let (q1, trace1) = self.critic1.forward_trace(&xa);
                let err1 = q1[0] - y;
                critic_loss += err1 * err1;
                self.critic1.backward(&trace1, &[err1]);
                let (q2, trace2) = self.critic2.forward_trace(&xa);
                let err2 = q2[0] - y;
                critic_loss += err2 * err2;
                self.critic2.backward(&trace2, &[err2]);
            }
            critic_loss /= 2.0 * n;
            self.critic1_opt.step(&mut self.critic1, 1.0 / n);
            self.critic2_opt.step(&mut self.critic2, 1.0 / n);

            self.updates += 1;

            let mut actor_loss = None;
            if self.updates.is_multiple_of(self.config.policy_delay) {
                self.actor.zero_grads();
                let mut loss = 0.0;
                for t in &batch {
                    let (a, actor_trace) = self.actor.forward_trace(&t.state);
                    let xa = concat(&t.state, &a);
                    let (q, critic_trace) = self.critic1.forward_trace(&xa);
                    loss -= q[0];
                    let grad_in = self.critic1.backward(&critic_trace, &[-1.0]);
                    let grad_action = &grad_in[t.state.len()..];
                    self.actor.backward(&actor_trace, grad_action);
                }
                self.critic1.zero_grads();
                self.actor_opt.step(&mut self.actor, 1.0 / n);
                actor_loss = Some(loss / n);

                let tau = self.config.tau;
                self.actor_target.soft_update_from(&self.actor, tau);
                self.critic1_target.soft_update_from(&self.critic1, tau);
                self.critic2_target.soft_update_from(&self.critic2, tau);
            }

            Some(UpdateStats {
                critic_loss,
                actor_loss,
            })
        }
    }

    fn fresh_agent(
        seed: u64,
        state_dim: usize,
        action_dim: usize,
        batch: usize,
        hidden: &[usize],
    ) -> Td3 {
        let mut rng = StdRng::seed_from_u64(seed);
        Td3::new(
            &mut rng,
            state_dim,
            action_dim,
            Td3Config {
                hidden: hidden.to_vec(),
                batch_size: batch,
                ..Td3Config::default()
            },
        )
    }

    fn filled_replay(
        seed: u64,
        state_dim: usize,
        action_dim: usize,
        entries: usize,
    ) -> ReplayBuffer {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut replay = ReplayBuffer::new(entries.max(1));
        for i in 0..entries {
            let state: Vec<f64> = (0..state_dim)
                .map(|d| ((i * 7 + d * 13) % 41) as f64 / 41.0 - 0.5)
                .collect();
            let action: Vec<f64> = (0..action_dim)
                .map(|_| rand::Rng::random_range(&mut rng, -1.0..1.0))
                .collect();
            let reward = -action.iter().map(|a| a.abs()).sum::<f64>();
            let next_state: Vec<f64> = state.iter().map(|s| -s).collect();
            replay.push(Transition {
                state,
                action,
                reward,
                next_state,
                done: i % 5 == 0,
            });
        }
        replay
    }

    /// The trainer's shapes, which the proptests below never reach — hidden
    /// `[32, 32]`, a 21-wide state, batch 64 — over critic-only and
    /// delayed-actor steps.
    #[test]
    fn batched_update_is_bitwise_equal_to_reference_at_trainer_shapes() {
        let (state_dim, action_dim, batch) = (21, 1, 64);
        let mut fast = fresh_agent(5, state_dim, action_dim, batch, &[32, 32]);
        let mut slow = fresh_agent(5, state_dim, action_dim, batch, &[32, 32]);
        let replay = filled_replay(6, state_dim, action_dim, 160);
        let mut rng_fast = StdRng::seed_from_u64(7);
        let mut rng_slow = StdRng::seed_from_u64(7);
        for step in 0..4 {
            let a = fast.update(&replay, &mut rng_fast).expect("full batch");
            let b = slow
                .update_reference(&replay, &mut rng_slow)
                .expect("full batch");
            assert_eq!(a.critic_loss, b.critic_loss, "step {step}");
            assert_eq!(a.actor_loss, b.actor_loss, "step {step}");
            assert_eq!(a.actor_loss.is_some(), step % 2 == 1, "step {step}");
        }
        assert_eq!(fast.actor().params_flat(), slow.actor().params_flat());
        for (f, s) in [
            (&fast.critic1, &slow.critic1),
            (&fast.critic2, &slow.critic2),
            (&fast.actor_target, &slow.actor_target),
            (&fast.critic1_target, &slow.critic1_target),
            (&fast.critic2_target, &slow.critic2_target),
        ] {
            assert_eq!(f.params_flat(), s.params_flat());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Several consecutive updates (covering both the critic-only and the
        /// delayed actor/target steps) leave both agents in bitwise-identical
        /// states and report bitwise-identical losses.
        #[test]
        fn batched_update_is_bitwise_equal_to_reference(
            agent_seed in 0u64..200,
            replay_seed in 0u64..200,
            update_seed in 0u64..200,
            state_dim in 1usize..4,
            action_dim in 1usize..3,
        ) {
            let batch = 24;
            let mut fast = fresh_agent(agent_seed, state_dim, action_dim, batch, &[16, 16]);
            let mut slow = fresh_agent(agent_seed, state_dim, action_dim, batch, &[16, 16]);
            let replay = filled_replay(replay_seed, state_dim, action_dim, 64);

            let mut rng_fast = StdRng::seed_from_u64(update_seed);
            let mut rng_slow = StdRng::seed_from_u64(update_seed);
            for step in 0..5 {
                let a = fast.update(&replay, &mut rng_fast).expect("full batch");
                let b = slow.update_reference(&replay, &mut rng_slow).expect("full batch");
                prop_assert_eq!(a.critic_loss, b.critic_loss, "step {}", step);
                prop_assert_eq!(a.actor_loss, b.actor_loss, "step {}", step);
            }
            prop_assert_eq!(fast.actor().params_flat(), slow.actor().params_flat());
            prop_assert_eq!(fast.update_count(), slow.update_count());
            let probe: Vec<f64> = (0..state_dim).map(|d| d as f64 * 0.1 - 0.2).collect();
            prop_assert_eq!(fast.act(&probe), slow.act(&probe));
            let act_probe: Vec<f64> = (0..action_dim).map(|_| 0.25).collect();
            prop_assert_eq!(fast.q1(&probe, &act_probe), slow.q1(&probe, &act_probe));
        }

        /// The update consumes the RNG stream identically, so interleaving
        /// other draws around it stays in lockstep too.
        #[test]
        fn rng_stream_consumption_matches(
            agent_seed in 0u64..100,
            update_seed in 0u64..100,
        ) {
            let mut fast = fresh_agent(agent_seed, 2, 1, 16, &[16, 16]);
            let mut slow = fresh_agent(agent_seed, 2, 1, 16, &[16, 16]);
            let replay = filled_replay(3, 2, 1, 48);
            let mut rng_fast = StdRng::seed_from_u64(update_seed);
            let mut rng_slow = StdRng::seed_from_u64(update_seed);
            fast.update(&replay, &mut rng_fast);
            slow.update_reference(&replay, &mut rng_slow);
            // Post-update draws agree only if both paths consumed the same
            // number of variates.
            let a: f64 = rand::Rng::random(&mut rng_fast);
            let b: f64 = rand::Rng::random(&mut rng_slow);
            prop_assert_eq!(a, b);
        }
    }
}
