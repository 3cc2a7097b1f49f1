//! Refactor-equivalence suite for the shared `OrcaDriver` decision loop.
//!
//! The pre-refactor implementations of `CcEnv::step`/`advance` and
//! `eval::run_multiflow`'s private `AgentDriver` loop are replicated here
//! verbatim (on today's public primitives) and raced against the
//! driver-based implementations: seeded episodes and multi-flow runs must
//! be **bitwise** identical — same states, rewards, samples, windows, and
//! per-bin throughput series. The suite also pins the two behaviours the
//! unification intentionally *added* to `run_multiflow`: agent flows now
//! honour observation noise and fallback configuration.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use canopy_core::env::{CcEnv, EnvConfig, NoiseConfig};
use canopy_core::eval::{run_multiflow, Scheme};
use canopy_core::models::{train_model, ModelKind, TrainBudget, TrainedModel};
use canopy_core::obs::{Normalizer, Observation, StateBuilder, StateLayout};
use canopy_core::orca::f_cwnd;
use canopy_core::property::{Property, PropertyParams};
use canopy_core::world::{Controller, FlowSpec};
use canopy_netsim::{
    BandwidthTrace, FlowConfig, FlowId, LinkConfig, MonitorSample, Simulator, Time,
};

fn quick_model() -> TrainedModel {
    train_model(ModelKind::Shallow, 3, TrainBudget::smoke()).model
}

fn agent(model: &TrainedModel) -> FlowSpec {
    let controller = Scheme::Learned(model.clone()).controller(None);
    FlowSpec::new(controller, Time::from_millis(20))
}

fn cubic() -> FlowSpec {
    FlowSpec::new(Controller::Kernel("cubic".into()), Time::from_millis(20))
}

// --- The pre-refactor CcEnv, replicated verbatim --------------------------

struct SeedEnv {
    config: EnvConfig,
    sim: Simulator,
    flow: FlowId,
    builder: StateBuilder,
    prev_cwnd: f64,
    noise_rng: Option<StdRng>,
}

struct SeedStepResult {
    state: Vec<f64>,
    reward: f64,
    sample: MonitorSample,
    cwnd_tcp: f64,
    cwnd_applied: f64,
    done: bool,
}

impl SeedEnv {
    fn new(config: EnvConfig) -> SeedEnv {
        let link = config.link();
        let normalizer = Normalizer::for_link(&link, config.min_rtt, config.effective_mi());
        let layout = StateLayout::new(config.k);
        let mut sim = Simulator::new(link);
        let flow_config = if config.record_samples {
            FlowConfig::new(config.min_rtt)
        } else {
            FlowConfig::new(config.min_rtt).without_samples()
        };
        let flow = sim.add_flow(flow_config, Box::new(canopy_cc::Cubic::new()));
        let noise_rng = config.noise.map(|n| StdRng::seed_from_u64(n.seed));
        SeedEnv {
            builder: StateBuilder::new(layout, normalizer),
            config,
            sim,
            flow,
            prev_cwnd: canopy_cc::cubic::INITIAL_CWND,
            noise_rng,
        }
    }

    fn reset(&mut self) {
        let link = self.config.link();
        let mut sim = Simulator::new(link);
        let flow_config = if self.config.record_samples {
            FlowConfig::new(self.config.min_rtt)
        } else {
            FlowConfig::new(self.config.min_rtt).without_samples()
        };
        self.flow = sim.add_flow(flow_config, Box::new(canopy_cc::Cubic::new()));
        self.sim = sim;
        self.builder.reset();
        self.prev_cwnd = canopy_cc::cubic::INITIAL_CWND;
    }

    fn step(&mut self, action: f64) -> SeedStepResult {
        let cwnd_tcp = self.sim.cwnd(self.flow);
        let cwnd = f_cwnd(action, cwnd_tcp);
        self.sim.set_cwnd(self.flow, cwnd);
        self.advance(action, cwnd)
    }

    fn step_without_agent(&mut self) -> SeedStepResult {
        let cwnd = self.sim.cwnd(self.flow);
        self.advance(0.0, cwnd)
    }

    fn advance(&mut self, action: f64, cwnd_applied: f64) -> SeedStepResult {
        let cwnd_tcp_at_decision = self.sim.cwnd(self.flow);
        let mi = self.config.effective_mi();
        let target = self.sim.now() + mi;
        self.sim.run_until(target);
        let sample = self.sim.monitor_sample(self.flow);
        let mut obs = Observation::from_sample(&sample);
        if let (Some(noise), Some(rng)) = (self.config.noise, self.noise_rng.as_mut()) {
            let eta = rng.random_range(-noise.mu..=noise.mu);
            obs.queue_delay_ms *= 1.0 + eta;
        }
        self.builder.push(&obs, action);

        let max_thr = self.builder.normalizer().max_throughput_bps;
        let thr_norm = (sample.throughput_bps / max_thr).clamp(0.0, 1.0);
        let min_rtt_ms = if sample.min_rtt == Time::MAX {
            self.config.min_rtt.as_millis_f64()
        } else {
            sample.min_rtt.as_millis_f64()
        };
        let srtt_ms = sample.srtt.as_millis_f64();
        let reward = self
            .config
            .reward
            .reward(thr_norm, sample.loss_rate, srtt_ms, min_rtt_ms);

        self.prev_cwnd = cwnd_applied;
        let done = self.sim.now() >= self.config.episode;
        SeedStepResult {
            state: self.builder.state(),
            reward,
            sample,
            cwnd_tcp: cwnd_tcp_at_decision,
            cwnd_applied,
            done,
        }
    }
}

// --- The pre-refactor run_multiflow AgentDriver loop, replicated ----------

struct SeedAgentDriver {
    flow: FlowId,
    actor: canopy_nn::Mlp,
    builder: StateBuilder,
    mi: Time,
    next_decision: Time,
    stop: Option<Time>,
    prev_action: f64,
}

fn seed_run_multiflow(
    link: LinkConfig,
    flows: &[FlowSpec],
    duration: Time,
    bin: Time,
) -> Vec<Vec<f64>> {
    let mut sim = Simulator::new(link.clone());
    let mut drivers: Vec<Option<SeedAgentDriver>> = Vec::new();
    let mut ids = Vec::new();
    for spec in flows {
        let cc: Box<dyn canopy_netsim::CongestionControl> = match &spec.controller {
            Controller::Kernel(name) => canopy_cc::by_name(name).expect("known kernel"),
            Controller::Orca { .. } => Box::new(canopy_cc::Cubic::new()),
        };
        let mut flow_cfg = FlowConfig::new(spec.min_rtt)
            .starting_at(spec.start)
            .without_samples();
        if let Some(stop) = spec.stop {
            flow_cfg = flow_cfg.stopping_at(stop);
        }
        let id = sim.add_flow(flow_cfg, cc);
        ids.push(id);
        drivers.push(match &spec.controller {
            Controller::Orca { k, policy } => {
                let actor = policy.as_ref().expect("agent flows carry a policy").actor();
                let mi = spec.min_rtt.max(Time::from_millis(20));
                let layout = StateLayout::new(*k);
                let normalizer = Normalizer::for_link(&link, spec.min_rtt, mi);
                Some(SeedAgentDriver {
                    flow: id,
                    actor: actor.clone(),
                    builder: StateBuilder::new(layout, normalizer),
                    mi,
                    next_decision: spec.start + mi,
                    stop: spec.stop,
                    prev_action: 0.0,
                })
            }
            Controller::Kernel(_) => None,
        });
    }

    let bins = (duration.as_nanos() / bin.as_nanos().max(1)) as usize;
    let mut series = vec![Vec::with_capacity(bins); flows.len()];
    let mut last_bytes = vec![0u64; flows.len()];
    let mut next_bin = bin;

    loop {
        let mut next = next_bin.min(duration);
        for d in drivers.iter().flatten() {
            next = next.min(d.next_decision);
        }
        sim.run_until(next);

        for d in drivers.iter_mut().flatten() {
            if d.next_decision <= sim.now() {
                if d.stop.is_some_and(|s| sim.now() >= s) {
                    d.next_decision = Time::MAX;
                    continue;
                }
                let sample = sim.monitor_sample(d.flow);
                let obs = Observation::from_sample(&sample);
                d.builder.push(&obs, d.prev_action);
                let state = d.builder.state();
                let action = d.actor.forward(&state)[0];
                let cwnd_tcp = sim.cwnd(d.flow);
                sim.set_cwnd(d.flow, f_cwnd(action, cwnd_tcp));
                d.prev_action = action;
                d.next_decision += d.mi;
            }
        }

        if sim.now() >= next_bin {
            for (i, &id) in ids.iter().enumerate() {
                let bytes = sim.flow_stats(id).acked_bytes;
                let mbps = (bytes - last_bytes[i]) as f64 * 8.0 / bin.as_secs_f64() / 1e6;
                series[i].push(mbps);
                last_bytes[i] = bytes;
            }
            next_bin += bin;
        }
        if sim.now() >= duration {
            break;
        }
    }
    series
}

// --- (a) CcEnv::step bitwise equivalence ----------------------------------

fn assert_steps_equal(a: &canopy_core::env::StepResult, b: &SeedStepResult) {
    assert_eq!(a.state, b.state, "state vectors diverge");
    assert!(a.reward.to_bits() == b.reward.to_bits(), "rewards diverge");
    assert_eq!(a.cwnd_tcp.to_bits(), b.cwnd_tcp.to_bits());
    assert_eq!(a.cwnd_applied.to_bits(), b.cwnd_applied.to_bits());
    assert_eq!(a.done, b.done);
    let sa = serde_json::to_string(&a.sample).expect("serializes");
    let sb = serde_json::to_string(&b.sample).expect("serializes");
    assert_eq!(sa, sb, "monitor samples diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ccenv_step_matches_the_seed_implementation(
        seed in 0u64..1000,
        noisy in [false, true],
        rate_mbps in 8u64..64,
    ) {
        let trace = BandwidthTrace::constant("eq", rate_mbps as f64 * 1e6);
        let mut cfg = EnvConfig::new(trace, Time::from_millis(40), 1.0)
            .with_episode(Time::from_secs(2));
        if noisy {
            cfg.noise = Some(NoiseConfig { mu: 0.1, seed });
        }
        let mut new_env = CcEnv::new(cfg.clone());
        let mut old_env = SeedEnv::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        for step in 0..130 {
            // Mix agent steps, kernel-only steps, and a mid-run episode
            // reset (the noise stream must continue through it).
            if step == 70 {
                new_env.reset();
                old_env.reset();
                prop_assert_eq!(new_env.steps(), 0);
            }
            let (a, b) = if rng.random_range(0..8) == 0 {
                (new_env.step_without_agent(), old_env.step_without_agent())
            } else {
                let action = rng.random_range(-1.0..1.0);
                (new_env.step(action), old_env.step(action))
            };
            assert_steps_equal(&a, &b);
            let ctx = new_env.step_context();
            prop_assert_eq!(ctx.cwnd_prev.to_bits(), old_env.prev_cwnd.to_bits());
            prop_assert_eq!(ctx.state, new_env.state());
        }
    }
}

// --- (b) run_multiflow bitwise equivalence (fig14/fig15 inputs) -----------

#[test]
fn multiflow_series_match_the_seed_loop_bitwise() {
    let model = quick_model();
    let mk_link = |rate: f64, rtt_ms: u64| {
        LinkConfig::with_bdp_buffer(
            BandwidthTrace::constant("eq-mf", rate),
            Time::from_millis(rtt_ms),
            1.0,
        )
    };

    // Fig. 14 shape: the scheme under test vs two Cubic competitors.
    let friendliness: Vec<FlowSpec> = vec![agent(&model), cubic(), cubic()];
    // Fig. 15 shape: homogeneous agent flows joining staggered, one
    // departing early.
    let fairness: Vec<FlowSpec> = (0..3)
        .map(|i| {
            let spec = agent(&model).starting_at(Time::from_secs(2 * i));
            if i == 1 {
                spec.stopping_at(Time::from_secs(5))
            } else {
                spec
            }
        })
        .collect();

    for (flows, duration) in [
        (friendliness, Time::from_secs(6)),
        (fairness, Time::from_secs(8)),
    ] {
        let link = mk_link(48e6, 20);
        let old = seed_run_multiflow(link.clone(), &flows, duration, Time::from_secs(1));
        let new = run_multiflow(link, &flows, duration, Time::from_secs(1)).expect("runs");
        assert_eq!(old, new, "driver-based run_multiflow diverged");
    }
}

// --- Noise and fallback now reach multi-flow agent runs -------------------

#[test]
fn multiflow_noise_perturbs_agents_deterministically() {
    let model = quick_model();
    let link = LinkConfig::with_bdp_buffer(
        BandwidthTrace::constant("mf-noise", 24e6),
        Time::from_millis(20),
        1.0,
    );
    let flows = |noise: Option<NoiseConfig>| {
        let mut agent = agent(&model);
        if let Some(n) = noise {
            agent = agent.with_noise(n);
        }
        vec![agent, cubic()]
    };
    let run = |noise: Option<NoiseConfig>| {
        run_multiflow(
            link.clone(),
            &flows(noise),
            Time::from_secs(6),
            Time::from_secs(1),
        )
        .expect("runs")
    };
    let clean = run(None);
    let noise = NoiseConfig { mu: 0.3, seed: 11 };
    let noisy = run(Some(noise));
    let noisy_again = run(Some(noise));
    assert_eq!(noisy, noisy_again, "noisy runs must be seed-deterministic");
    assert_ne!(
        clean, noisy,
        "observation noise must reach multi-flow agent decisions"
    );
}

#[test]
fn multiflow_fallback_overrides_reduce_to_the_kernel() {
    // A fallback threshold above the QC_sat ceiling (1.0) overrides every
    // decision, so the "agent" flow must behave bitwise like plain Cubic.
    let model = quick_model();
    let link = LinkConfig::with_bdp_buffer(
        BandwidthTrace::constant("mf-fb", 24e6),
        Time::from_millis(20),
        1.0,
    );
    let monitored = Scheme::LearnedFallback {
        model,
        properties: Property::shallow_set(&PropertyParams::default()),
        threshold: 2.0,
        n_components: 2,
    };
    let monitored = vec![
        FlowSpec::new(monitored.controller(None), Time::from_millis(20)),
        cubic(),
    ];
    let (duration, bin) = (Time::from_secs(5), Time::from_secs(1));
    let a = run_multiflow(link.clone(), &monitored, duration, bin).expect("runs");
    let b = run_multiflow(link, &[cubic(), cubic()], duration, bin).expect("runs");
    assert_eq!(a, b, "a fully-overridden agent flow must equal Cubic");
}
