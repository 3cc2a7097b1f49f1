//! End-to-end pipeline tests: training → certification → evaluation.

use canopy_repro::core::eval::{QcEval, RunMetrics, Scheme};
use canopy_repro::core::models::{
    load_or_train, train_model, trainer_config, ModelKind, TrainBudget,
};
use canopy_repro::core::property::{Property, PropertyParams};
use canopy_repro::core::trainer::Trainer;
use canopy_repro::netsim::Time;
use canopy_repro::scenarios::{run_scenario, ScenarioSpec};

fn smoke() -> TrainBudget {
    TrainBudget::smoke()
}

/// Runs `scheme` alone for 5 s over one evaluation trace (40 ms RTT).
fn evaluate(scheme: Scheme, trace: &str, buffer_bdp: f64, qc: Option<&QcEval>) -> RunMetrics {
    let mut spec = ScenarioSpec::from_eval_trace(trace, 0);
    spec.buffer_bdp = buffer_bdp;
    spec.duration = Time::from_secs(5);
    run_scenario(&scheme, &spec, qc).expect("runs").primary
}

/// The budget for the `#[ignore]`d statistical tests: enough actor updates
/// for certification-in-the-loop effects to dominate noise (see the
/// per-test comments), at a few× smoke cost.
fn beyond_smoke() -> TrainBudget {
    TrainBudget {
        epochs: 8,
        steps_per_epoch: 80,
        n_envs: 2,
    }
}

/// The headline claim at miniature scale: certification-in-the-loop
/// training yields higher QC_sat than Orca's property-free training.
///
/// At the pure smoke budget (4 epochs × 50 steps) the learning effect is
/// within noise (margin ≈ 0.04), so this trains at 8 × 80 where the margin
/// is decisive (≈ 0.35) — beyond the smoke budget, hence ignored in tier-1.
#[test]
#[ignore = "trains beyond smoke budget; claim covered by `figures fig05`"]
fn canopy_beats_orca_on_qc_sat() {
    let canopy = train_model(ModelKind::Shallow, 5, beyond_smoke()).model;
    let orca = train_model(ModelKind::Orca, 5, beyond_smoke()).model;
    let qc = QcEval {
        properties: Property::shallow_set(&PropertyParams::default()),
        n_components: 10,
    };
    let eval = |m| {
        evaluate(Scheme::Learned(m), "syn-square-fast", 0.5, Some(&qc))
            .qc_sat
            .expect("qc requested")
    };
    let canopy_sat = eval(canopy);
    let orca_sat = eval(orca);
    assert!(
        canopy_sat > orca_sat + 0.05,
        "canopy {canopy_sat:.3} must clearly beat orca {orca_sat:.3}"
    );
}

/// Training with λ > 0 must improve the verifier reward over the course
/// of training (first epoch vs last). Uses a budget just above smoke so
/// the certified loss has enough actor updates to act.
#[test]
#[ignore = "trains beyond smoke budget; covered by `figures fig17`"]
fn verifier_reward_improves_during_training() {
    let budget = TrainBudget {
        epochs: 10,
        steps_per_epoch: 60,
        n_envs: 2,
    };
    let result = train_model(ModelKind::Shallow, 9, budget);
    let first = result.history.first().unwrap().verifier_reward;
    let last = result.history.last().unwrap().verifier_reward;
    assert!(
        last > first + 0.05,
        "verifier reward should climb: first {first:.3}, last {last:.3}"
    );
}

/// The robustness-trained model must out-certify Orca on P5.
#[test]
fn robust_model_certifies_p5_better() {
    let robust = train_model(ModelKind::Robust, 5, smoke()).model;
    let orca = train_model(ModelKind::Orca, 5, smoke()).model;
    let qc = QcEval {
        properties: Property::robust_set(&PropertyParams::default()),
        n_components: 10,
    };
    let eval = |m| {
        evaluate(Scheme::Learned(m), "syn-spikes", 2.0, Some(&qc))
            .qc_sat
            .unwrap()
    };
    let r = eval(robust);
    let o = eval(orca);
    assert!(r > o, "robust {r:.3} vs orca {o:.3}");
}

/// Fallback must engage more for a property-free model than a Canopy one.
#[test]
fn fallback_engages_more_for_orca() {
    let canopy = train_model(ModelKind::Shallow, 5, smoke()).model;
    let orca = train_model(ModelKind::Orca, 5, smoke()).model;
    let properties = Property::shallow_set(&PropertyParams::default());
    let run = |m| {
        let scheme = Scheme::LearnedFallback {
            model: m,
            properties: properties.clone(),
            threshold: 0.6,
            n_components: 5,
        };
        evaluate(scheme, "syn-step-up", 0.5, None)
            .fallback_rate
            .unwrap()
    };
    let canopy_rate = run(canopy);
    let orca_rate = run(orca);
    assert!(
        orca_rate >= canopy_rate,
        "orca fallback {orca_rate:.3} >= canopy {canopy_rate:.3}"
    );
}

/// Model caching: a second load returns bit-identical parameters.
#[test]
fn model_cache_round_trip() {
    let dir = std::env::temp_dir().join("canopy-it-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let (a, ha) = load_or_train(&dir, ModelKind::Shallow, 77, smoke());
    let (b, hb) = load_or_train(&dir, ModelKind::Shallow, 77, smoke());
    assert_eq!(a.actor.params_flat(), b.actor.params_flat());
    assert_eq!(ha.len(), hb.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// λ = 1 (pure verifier reward) must not crash and should achieve at
/// least as much verifier reward as λ = 0.
///
/// At the pure smoke budget the two runs tie to three decimals, so this
/// trains at 8 × 80 where pure-verifier training clearly wins (≈ +0.35) —
/// beyond the smoke budget, hence ignored in tier-1.
#[test]
#[ignore = "trains beyond smoke budget; covered by `figures ablation_mechanism`"]
fn lambda_extremes() {
    let mut pure = trainer_config(ModelKind::Shallow, 13, beyond_smoke());
    pure.lambda = 1.0;
    let pure_result = Trainer::new(pure).train();
    let mut zero = trainer_config(ModelKind::Shallow, 13, beyond_smoke());
    zero.lambda = 0.0;
    zero.qc_grad_weight = 0.0;
    let zero_result = Trainer::new(zero).train();
    let v_pure = pure_result.history.last().unwrap().verifier_reward;
    let v_zero = zero_result.history.last().unwrap().verifier_reward;
    assert!(
        v_pure + 1e-9 >= v_zero,
        "pure verifier training {v_pure:.3} vs none {v_zero:.3}"
    );
}

/// A non-finite actor output must cost one interval, not the flow: the
/// kernel keeps that interval (recorded as a fallback), so the NaN never
/// enters `prev_action`, the state history or the window. Behind either
/// kind of monitor, an actor whose enclosure overflows — a NaN bias, or
/// finite weights scaled by 1e300 — certifies nothing instead of
/// panicking, and the run goes on the same way. The zonotope domain
/// encloses the same actors at the run's last decision context without
/// panicking either.
#[test]
fn non_finite_actor_output_runs_the_kernel() {
    use canopy_repro::core::driver::{DriverPolicy, DriverPool};
    use canopy_repro::core::obs::StateLayout;
    use canopy_repro::core::runtime::FallbackController;
    use canopy_repro::core::verifier::{AbstractDomain, Verifier};
    use canopy_repro::core::world::{spawn_all, Controller, FlowSpec};
    use canopy_repro::netsim::{BandwidthTrace, LinkConfig, Topology};
    use canopy_repro::nn::{Activation, Mlp};
    use canopy_repro::telemetry::FlightRecorder;
    use rand::{rngs::StdRng, SeedableRng};
    use std::{cell::RefCell, rc::Rc};

    let k = 3;
    let widths = [StateLayout::new(k).dim(), 8, 1];
    let fresh = || Mlp::new(&mut StdRng::seed_from_u64(5), &widths, Activation::Tanh);
    let mut nan_bias = fresh();
    nan_bias.layers_mut()[1].bias[0] = f64::NAN;
    let mut huge = fresh();
    for layer in huge.layers_mut() {
        layer
            .weights
            .as_mut_slice()
            .iter_mut()
            .for_each(|w| *w *= 1e300);
        layer.bias.iter_mut().for_each(|b| *b *= 1e300);
    }
    let props = Property::shallow_set(&PropertyParams::default());
    let arbitrating = FallbackController::new(props.clone(), 0.5, 4);
    let observing = FallbackController::observing(props.clone(), 4);
    let runs = [
        (&nan_bias, None),
        (&nan_bias, Some(arbitrating.clone())),
        (&nan_bias, Some(observing.clone())),
        (&huge, Some(arbitrating)),
        (&huge, Some(observing)),
    ];

    let rtt = Time::from_millis(40);
    let link = LinkConfig::with_bdp_buffer(BandwidthTrace::constant("nan", 24e6), rtt, 1.0);
    for (actor, monitor) in runs {
        let tag = format!(
            "nan bias {}, monitor {monitor:?}",
            actor.layers()[1].bias[0].is_nan()
        );
        let mut policy = DriverPolicy::new(actor.clone());
        if let Some(monitor) = monitor.clone() {
            policy = policy.with_fallback(monitor);
        }
        let policy = Some(policy);
        let flow = FlowSpec::new(Controller::Orca { k, policy }, rtt);
        let mut world = spawn_all(&Topology::dumbbell(link.clone()), &[flow]).expect("spawns");
        let mut pool = DriverPool::new();
        pool.push(world.drivers.remove(0));
        let recorder = Rc::new(RefCell::new(FlightRecorder::default()));
        pool.set_recorder(Some(recorder.clone()));
        pool.run_until(&mut world.sim, Time::from_secs(2));

        let recorder = recorder.borrow();
        assert_eq!(recorder.decisions().len(), 49, "{tag}");
        for d in recorder.decisions().iter() {
            if d.action.is_nan() {
                assert!(d.fallback && d.action_clamped == 0.0, "{tag}: {d:?}");
            }
            assert!(
                d.state_min.is_finite() && d.state_max.is_finite(),
                "{tag}: {d:?}"
            );
            assert!(d.cwnd.is_finite(), "{tag}: {d:?}");
        }
        let driver = &pool.drivers()[0];
        assert!(driver.prev_action().is_finite(), "{tag}");
        if actor.layers()[1].bias[0].is_nan() {
            assert!(recorder.decisions().iter().all(|d| d.action.is_nan()));
            assert_eq!(driver.prev_action(), 0.0);
        }
        // A monitored decision carries a finite certificate that proves
        // nothing for sure.
        let qc = driver.fallback_qc_values();
        assert_eq!(qc.len(), if monitor.is_some() { 49 } else { 0 }, "{tag}");
        assert!(qc.iter().all(|q| (0.0..=1.0).contains(q)), "{tag}: {qc:?}");
        let ctx = driver.step_context(&world.sim);
        for domain in [AbstractDomain::Box, AbstractDomain::Zonotope] {
            let verifier = Verifier::with_domain(4, domain);
            let (_, agg) = verifier.certify_all(actor, &props, StateLayout::new(k), &ctx);
            assert!((0.0..=1.0).contains(&agg), "{tag}, {domain:?}: {agg}");
        }
        // Cubic kept the window: the flow moved real traffic.
        assert!(
            world.sim.flow_stats(driver.flow()).acked_packets > 1_000,
            "{tag}"
        );
    }
}
