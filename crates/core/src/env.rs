//! The congestion-control RL environment.
//!
//! One environment wraps one simulated bottleneck link with a single
//! Cubic-backed flow. The agent interacts exactly as Orca does: every
//! monitor interval it reads the `k`-step observation state, emits an
//! action `a ∈ [−1, 1]`, and the environment enforces
//! `cwnd = 2^(2a) · cwnd_TCP` (Eq. 1) before letting the simulation run to
//! the next interval. Cubic keeps doing fine-grained per-ACK control in
//! between, evolving from the enforced window.

use serde::{Deserialize, Serialize};

use canopy_cc::Cubic;
use canopy_netsim::link::Impairments;
use canopy_netsim::{
    BandwidthTrace, FlowConfig, FlowId, LinkConfig, LinkId, MonitorSample, Simulator, Time,
    Topology,
};

use crate::driver::{DriverConfig, OrcaDriver};
use crate::obs::{Normalizer, StateLayout};
use crate::orca::RewardConfig;
use crate::verifier::StepContext;

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
    /// Stochastic link impairments (random loss, jitter); off by default.
    pub impairments: Impairments,
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
            impairments: Impairments::none(),
        }
    }

    /// The monitor interval ([`DriverConfig::effective_mi`]).
    pub fn effective_mi(&self) -> Time {
        DriverConfig::new(self.min_rtt, self.k).effective_mi()
    }

    /// The link configuration implied by this environment.
    pub fn link(&self) -> LinkConfig {
        LinkConfig::with_bdp_buffer(self.trace.clone(), self.min_rtt, self.buffer_bdp)
            .with_impairments(self.impairments)
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
}

/// A baseline competitor inside a scenario-backed training episode,
/// identified by kernel *name* so the episode can be rebuilt identically
/// on every reset.
#[derive(Clone, Debug)]
pub struct EpisodeCrossFlow {
    /// Classic kernel driving the competitor (`cubic`, `bbr`, ...).
    pub cc: String,
    /// Arrival time.
    pub start: Time,
    /// Departure time (`None` stays to the end).
    pub stop: Option<Time>,
    /// Propagation RTT of the competitor's path.
    pub min_rtt: Time,
    /// The links the competitor crosses.
    pub path: Vec<LinkId>,
}

/// Everything needed to build — and rebuild, bit-for-bit, on every reset —
/// one scenario-backed training episode: an arbitrary topology, the
/// controlled flow's path, and scheduled baseline cross traffic.
///
/// This is the `ScenarioSpec → CcEnv` bridge's core half: the scenario
/// layer compiles its declarative specs down to this shape (see
/// `canopy_scenarios::episode`), and the trainer mixes such episodes into
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
    pub cross: Vec<EpisodeCrossFlow>,
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

/// What an environment rebuilds itself from: the historical single-link
/// configuration, or a scenario-backed multi-hop episode.
enum EnvSource {
    Link(EnvConfig),
    Episode(EpisodeSpec),
}

impl EnvSource {
    fn episode(&self) -> Time {
        match self {
            EnvSource::Link(c) => c.episode,
            EnvSource::Episode(s) => s.episode,
        }
    }

    fn min_rtt(&self) -> Time {
        match self {
            EnvSource::Link(c) => c.min_rtt,
            EnvSource::Episode(s) => s.primary_min_rtt,
        }
    }

    fn reward(&self) -> &RewardConfig {
        match self {
            EnvSource::Link(c) => &c.reward,
            EnvSource::Episode(s) => &s.reward,
        }
    }
}

/// A single-flow congestion-control environment: a thin episode wrapper
/// around one [`OrcaDriver`] (which owns the decision mechanics — state,
/// noise, window application) plus the Orca reward and the episode clock.
pub struct CcEnv {
    source: EnvSource,
    sim: Simulator,
    flow: FlowId,
    driver: OrcaDriver,
    steps: u64,
}

/// Builds the simulator for a link-backed environment and adds the
/// controlled flow. Shared by construction and reset so both are
/// bit-for-bit identical.
fn build_link_sim(config: &EnvConfig) -> (Simulator, FlowId) {
    let mut sim = Simulator::new(config.link());
    let flow_config = if config.record_samples {
        FlowConfig::new(config.min_rtt)
    } else {
        FlowConfig::new(config.min_rtt).without_samples()
    };
    let flow = sim.add_flow(flow_config, Box::new(Cubic::new()));
    (sim, flow)
}

/// Builds the simulator for a scenario-backed episode: the topology, the
/// controlled (Cubic-steered) primary flow on its path, and every cross
/// flow on the spec's schedule. Errors on an unknown cross kernel name.
fn build_episode_sim(spec: &EpisodeSpec) -> Result<(Simulator, FlowId), String> {
    let mut sim = Simulator::with_topology(spec.topology.clone());
    let flow = sim.add_flow(
        FlowConfig::new(spec.primary_min_rtt)
            .without_samples()
            .on_path(spec.primary_path.clone()),
        Box::new(Cubic::new()),
    );
    for (i, cf) in spec.cross.iter().enumerate() {
        let cc = canopy_cc::by_name(&cf.cc).ok_or_else(|| {
            format!(
                "episode `{}`: cross flow {i}: unknown kernel `{}`",
                spec.name, cf.cc
            )
        })?;
        let mut cfg = FlowConfig::new(cf.min_rtt)
            .starting_at(cf.start)
            .without_samples()
            .on_path(cf.path.clone());
        if let Some(stop) = cf.stop {
            cfg = cfg.stopping_at(stop);
        }
        sim.add_flow(cfg, cc);
    }
    Ok((sim, flow))
}

impl CcEnv {
    /// Builds the environment and its simulator.
    pub fn new(config: EnvConfig) -> CcEnv {
        let link = config.link();
        let (sim, flow) = build_link_sim(&config);
        let driver_config = DriverConfig {
            min_rtt: config.min_rtt,
            k: config.k,
            noise: config.noise,
            start: Time::ZERO,
            stop: None,
        };
        let driver = OrcaDriver::new(&driver_config, &link, flow);
        CcEnv {
            source: EnvSource::Link(config),
            sim,
            flow,
            driver,
            steps: 0,
        }
    }

    /// Builds a scenario-backed episode environment: an arbitrary topology
    /// with scheduled cross traffic, stepped through exactly the same
    /// state/action/reward interface as the single-link environment. The
    /// learned driver is parameterized by the primary flow's bottleneck
    /// hop, mirroring `canopy_scenarios`' matrix cell.
    ///
    /// Errors when the spec references an unknown cross kernel or an
    /// invalid path.
    pub fn from_episode(spec: EpisodeSpec) -> Result<CcEnv, String> {
        spec.topology
            .validate_path(&spec.primary_path)
            .map_err(|e| format!("episode `{}`: primary path: {e}", spec.name))?;
        for (i, cf) in spec.cross.iter().enumerate() {
            spec.topology
                .validate_path(&cf.path)
                .map_err(|e| format!("episode `{}`: cross flow {i}: {e}", spec.name))?;
        }
        let (sim, flow) = build_episode_sim(&spec)?;
        let link = spec.topology.link(sim.bottleneck_of(flow)).clone();
        let driver_config = DriverConfig {
            min_rtt: spec.primary_min_rtt,
            k: spec.k,
            noise: spec.noise,
            start: Time::ZERO,
            stop: None,
        };
        let driver = OrcaDriver::new(&driver_config, &link, flow);
        Ok(CcEnv {
            source: EnvSource::Episode(spec),
            sim,
            flow,
            driver,
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

    /// The single-link configuration, when this environment was built from
    /// one (`None` for scenario-backed episodes).
    pub fn config(&self) -> Option<&EnvConfig> {
        match &self.source {
            EnvSource::Link(c) => Some(c),
            EnvSource::Episode(_) => None,
        }
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
        let (sim, flow) = match &self.source {
            EnvSource::Link(config) => build_link_sim(config),
            // The spec was validated at construction, so the rebuild is
            // infallible.
            EnvSource::Episode(spec) => {
                build_episode_sim(spec).expect("validated episode rebuilds")
            }
        };
        self.sim = sim;
        self.flow = flow;
        self.driver.reset_episode();
        self.driver.rebind(self.flow);
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
            self.source.min_rtt().as_millis_f64()
        } else {
            sample.min_rtt.as_millis_f64()
        };
        let srtt_ms = sample.srtt.as_millis_f64();
        let reward = self
            .source
            .reward()
            .reward(thr_norm, sample.loss_rate, srtt_ms, min_rtt_ms);

        self.steps += 1;
        let done = self.sim.now() >= self.source.episode();
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

    fn episode_of(config: &EnvConfig) -> EpisodeSpec {
        EpisodeSpec {
            name: "dumbbell-episode".into(),
            topology: Topology::dumbbell(config.link()),
            primary_path: vec![LinkId(0)],
            primary_min_rtt: config.min_rtt,
            episode: config.episode,
            k: config.k,
            reward: config.reward,
            noise: config.noise,
            cross: Vec::new(),
        }
    }

    #[test]
    fn dumbbell_episode_matches_link_env_bitwise() {
        // A single-flow dumbbell episode is the legacy environment by
        // another construction path — stepping must agree bit-for-bit,
        // across resets too.
        let trace = BandwidthTrace::constant("c", 24e6);
        let config =
            EnvConfig::new(trace, Time::from_millis(40), 1.0).with_episode(Time::from_millis(600));
        let mut legacy = CcEnv::new(config.clone());
        let mut episode = CcEnv::from_episode(episode_of(&config)).expect("builds");
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
            cross: vec![EpisodeCrossFlow {
                cc: "cubic".into(),
                start: Time::from_millis(100),
                stop: Some(Time::from_millis(700)),
                min_rtt: Time::from_millis(30),
                path: vec![LinkId(1)],
            }],
        };
        let mut env = CcEnv::from_episode(spec).expect("builds");
        assert!(env.config().is_none(), "episode envs have no link config");
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
    fn episode_rejects_unknown_kernels_and_bad_paths() {
        let trace = BandwidthTrace::constant("c", 24e6);
        let config = EnvConfig::new(trace, Time::from_millis(40), 1.0);
        let mut bad_cc = episode_of(&config);
        bad_cc.cross.push(EpisodeCrossFlow {
            cc: "quic-magic".into(),
            start: Time::ZERO,
            stop: None,
            min_rtt: Time::from_millis(40),
            path: vec![LinkId(0)],
        });
        assert!(CcEnv::from_episode(bad_cc).is_err());
        let mut bad_path = episode_of(&config);
        bad_path.primary_path = vec![LinkId(3)];
        assert!(CcEnv::from_episode(bad_path).is_err());
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
