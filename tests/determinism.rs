//! Reproducibility guarantees across the full stack: identical seeds and
//! configurations must yield bit-identical experiments — the foundation
//! for every figure in the harness.

use std::cell::RefCell;
use std::rc::Rc;

use canopy_repro::core::eval::{run_multiflow, Scheme};
use canopy_repro::core::models::{train_model, ModelKind, TrainBudget};
use canopy_repro::core::world::{Controller, FlowSpec};
use canopy_repro::netsim::{BandwidthTrace, LinkConfig, Time};
use canopy_repro::scenarios::{run_scenario, run_scenario_recorded, ScenarioSpec};
use canopy_repro::telemetry::{FlightRecorder, SharedRecorder};

/// One evaluation trace as a 40 ms single-flow scenario.
fn scenario(trace: &str, buffer_bdp: f64, secs: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::from_eval_trace(trace, 0);
    spec.buffer_bdp = buffer_bdp;
    spec.duration = Time::from_secs(secs);
    spec
}

#[test]
fn training_is_bit_deterministic() {
    let a = train_model(ModelKind::Shallow, 123, TrainBudget::smoke());
    let b = train_model(ModelKind::Shallow, 123, TrainBudget::smoke());
    assert_eq!(a.model.actor.params_flat(), b.model.actor.params_flat());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.raw_reward, y.raw_reward);
        assert_eq!(x.verifier_reward, y.verifier_reward);
    }
    // A different seed gives a different model.
    let c = train_model(ModelKind::Shallow, 124, TrainBudget::smoke());
    assert_ne!(a.model.actor.params_flat(), c.model.actor.params_flat());
}

#[test]
fn evaluation_is_bit_deterministic() {
    let scheme = Scheme::Learned(train_model(ModelKind::Shallow, 5, TrainBudget::smoke()).model);
    let spec = scenario("syn-square-fast", 1.0, 5);
    let run = || run_scenario(&scheme, &spec, None).expect("runs").primary;
    let a = run();
    let b = run();
    assert_eq!(a.utilization, b.utilization);
    assert_eq!(a.p95_qdelay_ms, b.p95_qdelay_ms);
    assert_eq!(a.losses, b.losses);
}

#[test]
fn timeseries_are_bit_deterministic() {
    let scheme = Scheme::Learned(train_model(ModelKind::Robust, 5, TrainBudget::smoke()).model);
    let spec = scenario("syn-spikes", 2.0, 4);
    // The per-decision and per-interval link streams of a recorded run.
    let run = || {
        let recorder = Rc::new(RefCell::new(FlightRecorder::default()));
        let handle: SharedRecorder = recorder.clone();
        run_scenario_recorded(&scheme, &spec, None, &handle).expect("runs");
        let rec = recorder.borrow();
        let cwnds: Vec<f64> = rec.decisions().iter().map(|d| d.cwnd).collect();
        let utilizations: Vec<f64> = rec.links().iter().map(|s| s.utilization).collect();
        (cwnds, utilizations)
    };
    let (a, b) = (run(), run());
    assert!(!a.0.is_empty() && !a.1.is_empty());
    assert_eq!(a, b);
}

#[test]
fn multiflow_is_bit_deterministic() {
    let trace = BandwidthTrace::constant("det", 48e6);
    let link = LinkConfig::with_bdp_buffer(trace, Time::from_millis(20), 1.0);
    let flows: Vec<FlowSpec> = (0..3)
        .map(|i| {
            FlowSpec::new(Controller::Kernel("cubic".into()), Time::from_millis(20))
                .starting_at(Time::from_secs(i))
        })
        .collect();
    let run = |link| run_multiflow(link, &flows, Time::from_secs(8), Time::from_secs(1));
    assert_eq!(run(link.clone()).expect("runs"), run(link).expect("runs"));
}

#[test]
fn trace_generators_are_deterministic() {
    let a = canopy_repro::traces::all_eval_traces(7);
    let b = canopy_repro::traces::all_eval_traces(7);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.segments(), y.segments(), "{}", x.name());
    }
}
