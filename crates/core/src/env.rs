//! The congestion-control RL environment.
//!
//! One environment steps the first flow of an [`EpisodeSpec`] — a
//! Cubic-backed flow on an arbitrary topology, next to scheduled classic
//! cross traffic — built by [`world::spawn_all`] like every other
//! harness's flows. The agent interacts exactly as Orca does: every
//! monitor interval it reads the `k`-step observation state, emits an
//! action `a ∈ [−1, 1]`, and the environment enforces
//! `cwnd = 2^(2a) · cwnd_TCP` (Eq. 1) before letting the simulation run to
//! the next interval. Cubic keeps doing fine-grained per-ACK control in
//! between, evolving from the enforced window.

use serde::{Deserialize, Serialize};

use canopy_netsim::{
    BandwidthTrace, FlowId, LinkConfig, LinkId, MonitorSample, Simulator, Time, Topology,
};

use crate::driver::{DriverConfig, OrcaDriver};
use crate::obs::{Normalizer, StateLayout};
use crate::orca::RewardConfig;
use crate::verifier::StepContext;
use crate::world::{self, Controller, FlowSpec, WorldError};

/// Observation-noise configuration: at each step the observed queuing
/// delay is multiplied by `1 + η`, `η ~ U(−μ, μ)` (the perturbation used
/// in Section 2 and Figure 11 of the paper).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Maximum relative perturbation μ.
    pub mu: f64,
    /// RNG seed for the noise stream.
    pub seed: u64,
}

/// Static environment configuration.
#[derive(Clone, Debug)]
pub struct EnvConfig {
    /// Bottleneck bandwidth process.
    pub trace: BandwidthTrace,
    /// Propagation RTT.
    pub min_rtt: Time,
    /// Droptail buffer in BDP multiples (0.5 shallow, 5 deep, 2 robust).
    pub buffer_bdp: f64,
    /// Episode length in simulated time.
    pub episode: Time,
    /// History depth `k`.
    pub k: usize,
    /// Reward hyperparameters.
    pub reward: RewardConfig,
    /// Optional observation noise.
    pub noise: Option<NoiseConfig>,
    /// Record per-ACK delay samples (needed for evaluation percentiles;
    /// off during training to save memory).
    pub record_samples: bool,
}

impl EnvConfig {
    /// A configuration with the defaults used across the evaluation
    /// (k = 3, 10 s episodes, paper reward constants).
    pub fn new(trace: BandwidthTrace, min_rtt: Time, buffer_bdp: f64) -> EnvConfig {
        EnvConfig {
            trace,
            min_rtt,
            buffer_bdp,
            episode: Time::from_secs(10),
            k: 3,
            reward: RewardConfig::default(),
            noise: None,
            record_samples: false,
        }
    }

    /// The monitor interval ([`DriverConfig::effective_mi`]).
    pub fn effective_mi(&self) -> Time {
        DriverConfig::new(self.min_rtt, self.k).effective_mi()
    }

    /// The link configuration implied by this environment.
    pub fn link(&self) -> LinkConfig {
        LinkConfig::with_bdp_buffer(self.trace.clone(), self.min_rtt, self.buffer_bdp)
    }

    /// Sets the episode length.
    pub fn with_episode(mut self, episode: Time) -> EnvConfig {
        self.episode = episode;
        self
    }

    /// Enables observation noise.
    pub fn with_noise(mut self, noise: NoiseConfig) -> EnvConfig {
        self.noise = Some(noise);
        self
    }

    /// Enables per-ACK delay-sample recording.
    pub fn with_samples(mut self) -> EnvConfig {
        self.record_samples = true;
        self
    }

    /// This configuration as an episode: one flow alone on the dumbbell
    /// of [`link`](Self::link). (Sample recording is not part of an
    /// episode; [`CcEnv::new`] carries it over.)
    pub fn episode(&self) -> EpisodeSpec {
        EpisodeSpec {
            name: self.trace.name().to_string(),
            topology: Topology::dumbbell(self.link()),
            primary_path: vec![LinkId(0)],
            primary_min_rtt: self.min_rtt,
            episode: self.episode,
            k: self.k,
            reward: self.reward,
            noise: self.noise,
            cross: Vec::new(),
        }
    }
}

/// Everything needed to build — and rebuild, bit-for-bit, on every reset —
/// one training episode: an arbitrary topology, the controlled flow's
/// path, and scheduled baseline cross traffic.
///
/// The scenario layer compiles its declarative specs down to this shape
/// (see `canopy_scenarios::episode`) — for the matrix runner and for the
/// trainer's episode mix alike — and the trainer mixes such episodes into
/// its curriculum without knowing anything about scenario families.
#[derive(Clone, Debug)]
pub struct EpisodeSpec {
    /// Episode name (provenance; shows up in panics only).
    pub name: String,
    /// The network the episode runs over.
    pub topology: Topology,
    /// The controlled flow's path.
    pub primary_path: Vec<LinkId>,
    /// Propagation RTT of the controlled flow.
    pub primary_min_rtt: Time,
    /// Episode length in simulated time.
    pub episode: Time,
    /// History depth `k`.
    pub k: usize,
    /// Reward hyperparameters.
    pub reward: RewardConfig,
    /// Optional observation noise.
    pub noise: Option<NoiseConfig>,
    /// Baseline cross-traffic with staggered arrivals/departures.
    pub cross: Vec<FlowSpec>,
}

impl EpisodeSpec {
    /// The episode's flow list in id order: the controlled flow under
    /// `primary` first, then the cross traffic in spec order.
    pub fn flows(&self, primary: Controller, record_samples: bool) -> Vec<FlowSpec> {
        let primary = FlowSpec {
            noise: self.noise,
            record_samples,
            ..FlowSpec::new(primary, self.primary_min_rtt).on_path(self.primary_path.clone())
        };
        std::iter::once(primary)
            .chain(self.cross.iter().cloned())
            .collect()
    }

    /// Everything [`CcEnv::from_episode`] would reject, without building
    /// the environment.
    pub fn check(&self) -> Result<(), WorldError> {
        world::check(&self.topology, &self.env_flows(false)?)
    }

    /// The flow list a [`CcEnv`] runs: the first flow steered by the
    /// environment itself, every other one on a classic kernel.
    fn env_flows(&self, record_samples: bool) -> Result<Vec<FlowSpec>, WorldError> {
        let steered = |f: &FlowSpec| matches!(f.controller, Controller::Orca { .. });
        if let Some(i) = self.cross.iter().position(steered) {
            return Err(WorldError::SteeredCross { flow: i + 1 });
        }
        let primary = Controller::Orca {
            k: self.k,
            policy: None,
        };
        Ok(self.flows(primary, record_samples))
    }
}

/// The outcome of one environment step.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// The state after the step (the next decision's input).
    pub state: Vec<f64>,
    /// The raw (Orca) reward for the interval.
    pub reward: f64,
    /// The interval's monitor sample (physical units, noise-free).
    pub sample: MonitorSample,
    /// What Cubic proposed at decision time (`cwnd_TCP`).
    pub cwnd_tcp: f64,
    /// The window actually enforced.
    pub cwnd_applied: f64,
    /// Whether the episode ended with this step.
    pub done: bool,
}

/// A single-flow congestion-control environment: a thin episode wrapper
/// around one [`OrcaDriver`] (which owns the decision mechanics — state,
/// noise, window application) plus the Orca reward and the episode clock.
pub struct CcEnv {
    topology: Topology,
    /// The controlled flow first, then the cross traffic.
    flows: Vec<FlowSpec>,
    episode: Time,
    reward: RewardConfig,
    sim: Simulator,
    flow: FlowId,
    driver: OrcaDriver,
    steps: u64,
}

impl CcEnv {
    /// The single-link environment: the dumbbell episode of `config`
    /// ([`EnvConfig::episode`]).
    pub fn new(config: EnvConfig) -> CcEnv {
        CcEnv::build(config.episode(), config.record_samples)
            .expect("a lone flow on its own dumbbell always builds")
    }

    /// Builds an episode environment: an arbitrary topology with scheduled
    /// cross traffic, stepped through exactly the same state/action/reward
    /// interface as the single-link environment.
    ///
    /// Errors when the spec names an unknown cross kernel, an invalid
    /// path, or cross traffic with a driver of its own.
    pub fn from_episode(spec: EpisodeSpec) -> Result<CcEnv, WorldError> {
        CcEnv::build(spec, false)
    }

    fn build(spec: EpisodeSpec, record_samples: bool) -> Result<CcEnv, WorldError> {
        let flows = spec.env_flows(record_samples)?;
        let mut world = world::spawn_all(&spec.topology, &flows)?;
        Ok(CcEnv {
            topology: spec.topology,
            flows,
            episode: spec.episode,
            reward: spec.reward,
            sim: world.sim,
            flow: world.flows[0],
            driver: world.drivers.remove(0),
            steps: 0,
        })
    }

    /// The environment's state layout.
    pub fn layout(&self) -> StateLayout {
        self.driver.layout()
    }

    /// The normalizer derived from the link.
    pub fn normalizer(&self) -> &Normalizer {
        self.driver.normalizer()
    }

    /// The current flat state vector.
    pub fn state(&self) -> Vec<f64> {
        self.driver.state()
    }

    /// Steps taken since the last reset.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// The verifier's view of the current decision point.
    pub fn step_context(&self) -> StepContext {
        self.driver.step_context(&self.sim)
    }

    /// Restarts the episode with a fresh simulator (deterministic: the
    /// noise stream continues, everything else rebuilds identically).
    pub fn reset(&mut self) {
        // The flow list was validated at construction, so the rebuild is
        // infallible. Only the simulator is replaced: flow ids follow the
        // list, so the driver (and its noise stream) carries on bound to
        // the same id.
        let world =
            world::spawn_all(&self.topology, &self.flows).expect("validated episode rebuilds");
        self.sim = world.sim;
        self.driver.reset_episode();
        self.steps = 0;
    }

    /// Attaches or detaches a telemetry recorder: every step emits one
    /// decision record (timestamped at the decision instant, paired with
    /// the interval sample the decision produced). Recording only reads
    /// step state, so an inert recorder leaves the episode bitwise
    /// unchanged.
    pub fn set_recorder(&mut self, recorder: Option<canopy_telemetry::SharedRecorder>) {
        self.driver.set_recorder(recorder);
    }

    /// Applies an agent action and advances one monitor interval.
    pub fn step(&mut self, action: f64) -> StepResult {
        let recorded = self
            .driver
            .has_recorder()
            .then(|| (self.sim.now().as_nanos(), self.driver.state()));
        let cwnd = self.driver.apply_agent(&mut self.sim, action);
        let result = self.advance(cwnd);
        if let Some((t_ns, state)) = recorded {
            self.driver.record_decision(
                t_ns,
                &state,
                &result.sample,
                action,
                action,
                cwnd,
                None,
                false,
            );
        }
        result
    }

    /// Advances one monitor interval *without* overriding the window —
    /// Cubic rules alone (used by the runtime fallback and by baseline
    /// evaluation through the same code path).
    pub fn step_without_agent(&mut self) -> StepResult {
        let recorded = self
            .driver
            .has_recorder()
            .then(|| (self.sim.now().as_nanos(), self.driver.state()));
        let cwnd = self.driver.apply_kernel(&mut self.sim);
        let result = self.advance(cwnd);
        if let Some((t_ns, state)) = recorded {
            self.driver
                .record_decision(t_ns, &state, &result.sample, 0.0, 0.0, cwnd, None, true);
        }
        result
    }

    fn advance(&mut self, cwnd_applied: f64) -> StepResult {
        let cwnd_tcp_at_decision = self.sim.cwnd(self.flow);
        // The driver owns the monitor-interval rule; the env's clock must
        // advance by the same interval its normalizer was derived from.
        let target = self.sim.now() + self.driver.mi();
        self.sim.run_until(target);
        let sample = self.driver.observe(&mut self.sim);

        // The reward uses the true (noise-free) environment feedback.
        let thr_norm =
            (sample.throughput_bps / self.normalizer().max_throughput_bps).clamp(0.0, 1.0);
        let min_rtt_ms = if sample.min_rtt == Time::MAX {
            self.flows[0].min_rtt.as_millis_f64()
        } else {
            sample.min_rtt.as_millis_f64()
        };
        let srtt_ms = sample.srtt.as_millis_f64();
        let reward = self
            .reward
            .reward(thr_norm, sample.loss_rate, srtt_ms, min_rtt_ms);

        self.steps += 1;
        let done = self.sim.now() >= self.episode;
        StepResult {
            state: self.driver.state(),
            reward,
            sample,
            cwnd_tcp: cwnd_tcp_at_decision,
            cwnd_applied,
            done,
        }
    }

    /// Read access to the underlying simulator (metrics, queue state).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// The flow under control.
    pub fn flow(&self) -> FlowId {
        self.flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> CcEnv {
        let trace = BandwidthTrace::constant("c", 24e6);
        CcEnv::new(EnvConfig::new(trace, Time::from_millis(40), 1.0))
    }

    #[test]
    fn state_dimensions_match_layout() {
        let e = env();
        assert_eq!(e.state().len(), e.layout().dim());
        assert_eq!(e.layout().dim(), 21);
    }

    #[test]
    fn neutral_actions_track_cubic() {
        // a = 0 means cwnd = cwnd_TCP: the flow behaves exactly like Cubic.
        let mut e = env();
        let mut acked = 0;
        for _ in 0..50 {
            let r = e.step(0.0);
            assert!((r.cwnd_applied - r.cwnd_tcp).abs() < 1e-9);
            acked += r.sample.acked_packets;
        }
        assert!(acked > 100, "flow made progress: {acked}");
    }

    #[test]
    fn positive_action_multiplies_window() {
        let mut e = env();
        e.step(0.0);
        let ctx = e.step_context();
        let r = e.step(1.0);
        assert!((r.cwnd_applied - 4.0 * ctx.cwnd_tcp).abs() < 1e-6);
    }

    #[test]
    fn episode_terminates() {
        let trace = BandwidthTrace::constant("c", 24e6);
        let cfg =
            EnvConfig::new(trace, Time::from_millis(40), 1.0).with_episode(Time::from_millis(200));
        let mut e = CcEnv::new(cfg);
        let mut done = false;
        for _ in 0..10 {
            done = e.step(0.0).done;
            if done {
                break;
            }
        }
        assert!(done);
        e.reset();
        assert_eq!(e.steps(), 0);
        assert!(e.state().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn reward_improves_with_utilization() {
        // Starving the link (a = −1 constantly) must earn less raw reward
        // than tracking Cubic.
        let run = |action: f64| {
            let mut e = env();
            let mut total = 0.0;
            for _ in 0..100 {
                total += e.step(action).reward;
            }
            total
        };
        assert!(run(0.0) > run(-1.0));
    }

    #[test]
    fn noise_perturbs_observation_not_reward() {
        let trace = BandwidthTrace::constant("c", 24e6);
        let mk = |noise| {
            let mut cfg = EnvConfig::new(trace.clone(), Time::from_millis(40), 1.0);
            cfg.noise = noise;
            CcEnv::new(cfg)
        };
        let mut clean = mk(None);
        let mut noisy = mk(Some(NoiseConfig { mu: 0.05, seed: 9 }));
        let mut saw_state_difference = false;
        for _ in 0..30 {
            let a = clean.step(0.0);
            let b = noisy.step(0.0);
            // Same actions, same deterministic link: physical rewards match.
            assert!((a.reward - b.reward).abs() < 1e-12);
            if a.state
                .iter()
                .zip(&b.state)
                .any(|(x, y)| (x - y).abs() > 1e-12)
            {
                saw_state_difference = true;
            }
        }
        assert!(saw_state_difference, "noise must perturb the state");
    }

    #[test]
    fn dumbbell_episode_matches_link_env_bitwise() {
        // `CcEnv::new` is the dumbbell episode of its config, written out
        // here by hand: stepping must agree bit-for-bit, across resets too.
        let trace = BandwidthTrace::constant("c", 24e6);
        let config =
            EnvConfig::new(trace, Time::from_millis(40), 1.0).with_episode(Time::from_millis(600));
        let by_hand = EpisodeSpec {
            name: "dumbbell-episode".into(),
            topology: Topology::dumbbell(config.link()),
            primary_path: vec![LinkId(0)],
            primary_min_rtt: config.min_rtt,
            episode: config.episode,
            k: config.k,
            reward: config.reward,
            noise: config.noise,
            cross: Vec::new(),
        };
        let mut legacy = CcEnv::new(config);
        let mut episode = CcEnv::from_episode(by_hand).expect("builds");
        assert_eq!(legacy.state(), episode.state());
        for i in 0..40 {
            let a = ((i % 5) as f64 - 2.0) / 2.0;
            let x = legacy.step(a);
            let y = episode.step(a);
            assert_eq!(x.reward.to_bits(), y.reward.to_bits(), "step {i}");
            assert_eq!(x.state, y.state, "step {i}");
            assert_eq!(x.done, y.done, "step {i}");
            if x.done {
                legacy.reset();
                episode.reset();
            }
        }
    }

    #[test]
    fn multi_hop_episode_runs_and_resets_deterministically() {
        let link = LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("hop", 24e6),
            Time::from_millis(30),
            1.0,
        );
        let spec = EpisodeSpec {
            name: "lot".into(),
            topology: Topology::new(vec![link.clone(), link]),
            primary_path: vec![LinkId(0), LinkId(1)],
            primary_min_rtt: Time::from_millis(30),
            episode: Time::from_secs(1),
            k: 3,
            reward: RewardConfig::default(),
            noise: None,
            cross: vec![
                FlowSpec::new(Controller::Kernel("cubic".into()), Time::from_millis(30))
                    .on_path(vec![LinkId(1)])
                    .starting_at(Time::from_millis(100))
                    .stopping_at(Time::from_millis(700)),
            ],
        };
        let mut env = CcEnv::from_episode(spec).expect("builds");
        let run = |env: &mut CcEnv| {
            let mut acc = 0.0;
            let mut acked = 0;
            loop {
                let r = env.step(0.0);
                acc += r.reward;
                acked += r.sample.acked_packets;
                if r.done {
                    break;
                }
            }
            (acc, acked)
        };
        let (first, acked) = run(&mut env);
        assert!(acked > 0, "primary made progress across both hops");
        env.reset();
        assert_eq!(env.steps(), 0);
        let (second, _) = run(&mut env);
        assert_eq!(first.to_bits(), second.to_bits(), "reset must replay");
    }

    #[test]
    fn episode_rejects_unknown_kernels_bad_paths_and_steered_cross_traffic() {
        let trace = BandwidthTrace::constant("c", 24e6);
        let config = EnvConfig::new(trace, Time::from_millis(40), 1.0);
        let cross = |controller| FlowSpec::new(controller, Time::from_millis(40));
        let rejected = |spec: EpisodeSpec| {
            let checked = spec.check().expect_err("check refuses it");
            let built = CcEnv::from_episode(spec).err().expect("so does the build");
            assert_eq!(checked, built);
            built
        };
        let mut bad_cc = config.episode();
        bad_cc
            .cross
            .push(cross(Controller::Kernel("quic-magic".into())));
        assert_eq!(
            rejected(bad_cc),
            WorldError::UnknownKernel {
                flow: 1,
                name: "quic-magic".into()
            }
        );
        let mut bad_path = config.episode();
        bad_path.primary_path = vec![LinkId(3)];
        assert!(matches!(
            rejected(bad_path),
            WorldError::BadPath { flow: 0, .. }
        ));
        let mut steered = config.episode();
        steered
            .cross
            .push(cross(Controller::Orca { k: 3, policy: None }));
        assert_eq!(rejected(steered), WorldError::SteeredCross { flow: 1 });
    }

    #[test]
    fn determinism_across_instances() {
        let run = || {
            let mut e = env();
            let mut acc = 0.0;
            for i in 0..60 {
                let a = ((i % 7) as f64 - 3.0) / 3.0;
                acc += e.step(a).reward;
            }
            acc
        };
        assert_eq!(run(), run());
    }
}
