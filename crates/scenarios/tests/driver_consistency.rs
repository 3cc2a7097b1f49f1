//! Cross-harness consistency: a `ScenarioSpec` run through
//! `scenarios::runner` must match driving the exact same configuration
//! through `CcEnv` step-for-step — both stacks build their world through
//! `canopy_core::world` and sit on the one shared `OrcaDriver` decision
//! loop, so the resulting flow metrics are bitwise identical: on the
//! single-flow dumbbell (`CcEnv::new`) and, through `episode_env`, on
//! multi-flow, multi-hop specs. The suite also pins that no way into a
//! world panics on a flow it cannot build.
//!
//! The emulation protocol mirrors the driver's decision timing: the first
//! interval `[0, MI)` runs kernel-only (`step_without_agent`), then one
//! agent decision per monitor interval, stopping at the horizon. The spec
//! duration is an exact monitor-interval multiple so both clocks land on
//! the same final instant.

use rand::rngs::StdRng;
use rand::SeedableRng;

use canopy_core::env::{CcEnv, EnvConfig, NoiseConfig};
use canopy_core::eval::{flow_metrics, run_multiflow, RunMetrics, Scheme};
use canopy_core::models::{train_model, ModelKind, TrainBudget, TrainedModel};
use canopy_core::property::{Property, PropertyParams};
use canopy_core::runtime::FallbackController;
use canopy_core::world::{self, Controller, FlowSpec, WorldError};
use canopy_netsim::{BandwidthTrace, FlowId, LinkConfig, LinkId, Time, Topology};
use canopy_scenarios::{
    draw, episode_env, episode_spec, run_scenario, CrossFlow, Family, ScenarioSpec,
};

fn quick_model() -> TrainedModel {
    train_model(ModelKind::Shallow, 3, TrainBudget::smoke()).model
}

fn spec() -> ScenarioSpec {
    // MI = max(40 ms, 20 ms) = 40 ms; 2 s is an exact multiple (50 MI).
    let mut spec = ScenarioSpec::simple(
        "driver-consistency",
        24e6,
        Time::from_millis(40),
        Time::from_secs(2),
    );
    spec.noise = Some(NoiseConfig { mu: 0.1, seed: 9 });
    spec
}

fn env_for(spec: &ScenarioSpec, model: &TrainedModel) -> CcEnv {
    let trace = spec.trace.compile().expect("compiles");
    let mut cfg = EnvConfig::new(trace, spec.primary_min_rtt, spec.buffer_bdp)
        .with_episode(spec.duration)
        .with_samples();
    cfg.k = model.k;
    cfg.noise = spec.noise;
    CcEnv::new(cfg)
}

fn metrics_json(m: &RunMetrics) -> String {
    serde_json::to_string(m).expect("metrics serialize")
}

#[test]
fn learned_scenario_matches_ccenv_step_for_step() {
    let model = quick_model();
    let spec = spec();
    let scheme = Scheme::Learned(model.clone());
    let through_runner = run_scenario(&scheme, &spec, None).expect("runs");

    let mut env = env_for(&spec, &model);
    let mut done = env.step_without_agent().done;
    let mut decisions = 0u64;
    while !done {
        let action = model.actor.forward(&env.state())[0];
        done = env.step(action).done;
        decisions += 1;
    }
    // 50 monitor intervals; the decision at the 2 s boundary does not
    // fire (the shared driver decides strictly before the horizon), so
    // 49 agent decisions follow the kernel-only opening interval.
    assert_eq!(decisions, 49);
    assert_eq!(env.now(), spec.duration);
    let emulated = flow_metrics(env.sim(), env.flow(), &scheme.name());
    assert_eq!(
        metrics_json(&through_runner.primary),
        metrics_json(&emulated),
        "runner and CcEnv disagree on the same spec"
    );
}

#[test]
fn fallback_scenario_matches_ccenv_step_for_step() {
    let model = quick_model();
    let spec = spec();
    let properties = Property::shallow_set(&PropertyParams::default());
    let scheme = Scheme::LearnedFallback {
        model: model.clone(),
        properties: properties.clone(),
        threshold: 0.5,
        n_components: 4,
    };
    let through_runner = run_scenario(&scheme, &spec, None).expect("runs");

    let mut env = env_for(&spec, &model);
    let mut fb = FallbackController::new(properties, 0.5, 4);
    let layout = env.layout();
    let mut qc_values = Vec::new();
    let mut done = env.step_without_agent().done;
    while !done {
        let ctx = env.step_context();
        let action = model.actor.forward(&ctx.state)[0];
        let qc_sat = fb
            .verifier()
            .certify_all(&model.actor, fb.properties(), layout, &ctx)
            .1;
        let decision = fb.arbitrate(qc_sat);
        qc_values.push(decision.qc_sat);
        done = if decision.use_agent {
            env.step(action).done
        } else {
            env.step_without_agent().done
        };
    }
    let mut emulated = flow_metrics(env.sim(), env.flow(), &scheme.name());
    let n = qc_values.len() as f64;
    let mean = qc_values.iter().sum::<f64>() / n;
    let var = qc_values
        .iter()
        .map(|v| (v - mean) * (v - mean))
        .sum::<f64>()
        / n;
    emulated.qc_sat = Some(mean);
    emulated.qc_sat_std = Some(var.sqrt());
    emulated.fallback_rate = Some(fb.fallback_rate());
    emulated.fallback_engagements = Some(fb.engagements());
    assert_eq!(
        metrics_json(&through_runner.primary),
        metrics_json(&emulated),
        "fallback runner and CcEnv disagree on the same spec"
    );
}

#[test]
fn multi_flow_scenarios_match_their_training_episode_step_for_step() {
    // A search cell and the episode the hardening loop replays it as are
    // the same world: every cross flow on its hop, the same bottleneck
    // normaliser, the same noise stream.
    let model = quick_model();
    let scheme = Scheme::Learned(model.clone());
    for family in [
        Family::FlashCrowd,
        Family::CrossTrafficChurn,
        Family::IncastBurst,
        Family::ParkingLotUnfairness,
        Family::LossyWireless,
    ] {
        for seed in [3, 11] {
            // Capped at decode time so arrivals stay inside the run, then
            // trimmed to an exact monitor-interval multiple.
            let rng = &mut StdRng::seed_from_u64(seed);
            let mut spec = draw(family, seed, rng, Some(Time::from_secs(3)));
            let mi = spec.primary_min_rtt.max(Time::from_millis(20));
            let intervals = spec.duration.as_nanos() / mi.as_nanos();
            spec.duration = mi * intervals;
            let tag = &spec.name;

            let cell = run_scenario(&scheme, &spec, None).expect("runs");
            let mut env = episode_env(&spec, model.k, None).expect("builds");
            let mut done = env.step_without_agent().done;
            while !done {
                let action = model.actor.forward(&env.state())[0];
                done = env.step(action).done;
            }
            assert_eq!(env.now(), spec.duration, "{tag}");
            let stats = env.sim().flow_stats(env.flow());
            let (p, now) = (&cell.primary, env.now());
            assert_eq!(p.acked_packets, stats.acked_packets, "{tag}");
            assert_eq!(
                p.losses,
                stats.dropped_packets + stats.random_losses,
                "{tag}"
            );
            assert_eq!(p.retransmits, stats.retransmits, "{tag}");
            assert_eq!(
                p.throughput_mbps.to_bits(),
                stats.throughput_mbps(now).to_bits(),
                "{tag}"
            );
            assert_eq!(
                cell.cross_throughput_mbps.len(),
                spec.cross_traffic.len(),
                "{tag}"
            );
            for (i, mbps) in cell.cross_throughput_mbps.iter().enumerate() {
                let cross = env.sim().flow_stats(FlowId(i + 1)).throughput_mbps(now);
                assert_eq!(mbps.to_bits(), cross.to_bits(), "{tag}: cross flow {i}");
            }
        }
    }
}

#[test]
fn no_way_into_a_world_panics_on_a_flow_it_cannot_build() {
    let rtt = Time::from_millis(20);
    let cubic =
        |path: Vec<LinkId>| FlowSpec::new(Controller::Kernel("cubic".into()), rtt).on_path(path);
    let link = LinkConfig::with_bdp_buffer(BandwidthTrace::constant("bad", 24e6), rtt, 1.0);
    let lot = Topology::parking_lot(link.clone(), 2);
    let episode = |cross: FlowSpec| {
        let spec = ScenarioSpec::simple("bad", 24e6, rtt, Time::from_secs(1));
        let mut episode = episode_spec(&spec, 3, None).expect("a valid base");
        episode.topology = lot.clone();
        episode.cross.push(cross);
        episode
    };

    // (what is wrong with flow 1, the flow, the error every path reports)
    let unknown = FlowSpec::new(Controller::Kernel("reno2".into()), rtt);
    let cases = [
        ("unknown kernel", unknown, "flow 1: unknown kernel `reno2`"),
        (
            "out-of-range hop",
            cubic(vec![LinkId(0), LinkId(2)]),
            "flow 1: path names link 2 but the topology has 2 links",
        ),
        (
            "repeated hop",
            cubic(vec![LinkId(1), LinkId(1)]),
            "flow 1: path visits link 1 twice",
        ),
    ];
    for (what, bad, message) in cases {
        let flows = [cubic(vec![LinkId(0)]), bad.clone()];
        let err = world::spawn_all(&lot, &flows).err().expect(what);
        assert_eq!(err.to_string(), message);
        assert_eq!(world::check(&lot, &flows), Err(err.clone()), "{what}");
        assert_eq!(episode(bad.clone()).check(), Err(err.clone()), "{what}");
        let env = CcEnv::from_episode(episode(bad)).err().expect(what);
        assert_eq!(env, err, "{what}");
    }

    // `run_multiflow` runs on a dumbbell: link 1 is out of range there,
    // and the only repeatable hop is link 0.
    let run = |bad: FlowSpec| {
        let flows = [cubic(vec![LinkId(0)]), bad];
        run_multiflow(link.clone(), &flows, Time::from_secs(1), Time::from_secs(1))
    };
    let unknown = FlowSpec::new(Controller::Kernel("reno2".into()), rtt);
    assert!(matches!(
        run(unknown),
        Err(WorldError::UnknownKernel { flow: 1, .. })
    ));
    for path in [vec![LinkId(1)], vec![LinkId(0), LinkId(0)]] {
        assert!(matches!(
            run(cubic(path)),
            Err(WorldError::BadPath { flow: 1, .. })
        ));
    }

    // A `ScenarioSpec` names no hops (its topology assigns them), so the
    // kernel names are what a spec can get wrong: the scheme under test's
    // in the runner, a cross flow's in either compiler.
    let mut spec = ScenarioSpec::simple("bad", 24e6, rtt, Time::from_secs(1));
    let err = run_scenario(&Scheme::Baseline("reno2".into()), &spec, None).expect_err("scheme");
    assert_eq!(err.0, "flow 0: unknown kernel `reno2`");
    spec.cross_traffic.push(CrossFlow {
        cc: "reno2".into(),
        start: Time::ZERO,
        stop: None,
        min_rtt: rtt,
    });
    assert!(run_scenario(&Scheme::Baseline("cubic".into()), &spec, None).is_err());
    assert!(episode_spec(&spec, 3, None).is_err());
    assert!(episode_env(&spec, 3, None).is_err());
}
