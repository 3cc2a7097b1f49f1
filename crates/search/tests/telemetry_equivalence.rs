//! The telemetry layer's core contract, proven end to end: recording is
//! observation, never input. A no-op recorder must leave every wired
//! code path — the scenario runner and a hardening-style adversarial
//! search round — bitwise identical to running with no recorder at all;
//! and the flight recorder's own output must be invariant to how the
//! evaluation pool is partitioned across threads. And what it observes
//! arrives in sim-time order: a learned scheme's link samples land in
//! the same live windows as a baseline's.

use std::path::PathBuf;

use canopy_core::eval::Scheme;
use canopy_core::models::{self, ModelKind, TrainBudget, TrainedModel};
use canopy_netsim::Time;
use canopy_scenarios::{generate, run_scenario, run_scenario_recorded, Family};
use canopy_search::{
    search, search_with_recorder, Objective, ObjectiveKind, SearchConfig, SearchSpace,
};
use canopy_telemetry::{
    shared, Artifact, FlightRecorder, LiveConfig, NoopRecorder, RecorderConfig, SharedRecorder,
    TelemetryReport,
};

/// The shared smoke model every fixture-replay test rebuilds (cached
/// under `target/canopy-models`, seconds to train cold).
fn smoke_model() -> TrainedModel {
    let cache = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/canopy-models");
    models::load_or_train(&cache, ModelKind::Shallow, 3, TrainBudget::smoke()).0
}

#[test]
fn run_scenario_noop_recorder_is_bitwise_inert() {
    let model = smoke_model();
    let objective = Objective::new(ObjectiveKind::QcSat, model.clone());
    let scheme = Scheme::LearnedFallback {
        model,
        properties: objective.properties.clone(),
        threshold: objective.fallback_threshold,
        n_components: objective.n_components,
    };
    let mut spec = generate(Family::FlashCrowd, 11);
    spec.duration = Time::from_secs(3);
    let plain = run_scenario(&scheme, &spec, None).expect("plain run");
    let noop = shared(NoopRecorder);
    let recorded = run_scenario_recorded(&scheme, &spec, None, &noop).expect("recorded");
    assert_eq!(
        serde_json::to_string(&plain.primary).expect("serialize"),
        serde_json::to_string(&recorded.primary).expect("serialize"),
    );
}

#[test]
fn harden_smoke_search_round_with_noop_recorder_is_bitwise_identical() {
    // One hardening-round search cell: the CEM search over a fuzz
    // family at harden's smoke shape, with and without a recorder.
    let model = smoke_model();
    let objective = Objective::new(ObjectiveKind::RewardGap, model);
    let space = SearchSpace::new(Family::FlashCrowd, 7).with_duration_cap(Some(Time::from_secs(3)));
    let config = SearchConfig {
        budget: 6,
        population: 3,
        seed: 7,
        threads: None,
    };
    let plain = search(&space, &objective, &config).expect("plain search");
    let recorded = search_with_recorder(&space, &objective, &config, Some(shared(NoopRecorder)))
        .expect("recorded search");
    assert_eq!(
        plain.best_badness.to_bits(),
        recorded.best_badness.to_bits()
    );
    assert_eq!(plain.trajectory, recorded.trajectory);
    assert_eq!(
        serde_json::to_string(&plain.best_spec).expect("serialize"),
        serde_json::to_string(&recorded.best_spec).expect("serialize"),
    );
}

#[test]
fn flight_recorder_output_is_invariant_to_thread_count() {
    let model = smoke_model();
    let objective = Objective::new(ObjectiveKind::QcSat, model.clone());
    let mut reports = Vec::new();
    for threads in [1usize, 4] {
        let recorder = std::rc::Rc::new(std::cell::RefCell::new(FlightRecorder::default()));
        let handle: SharedRecorder = recorder.clone();
        let config = SearchConfig {
            budget: 6,
            population: 3,
            seed: 9,
            threads: Some(threads),
        };
        let space =
            SearchSpace::new(Family::JitterStorm, 9).with_duration_cap(Some(Time::from_secs(3)));
        let outcome = search_with_recorder(&space, &objective, &config, Some(handle.clone()))
            .expect("search");
        // Extend the trace through the scenario runner too: replay the
        // worst case on the same recorder, exactly like `--trace-out`.
        let scheme = Scheme::LearnedFallback {
            model: model.clone(),
            properties: objective.properties.clone(),
            threshold: objective.fallback_threshold,
            n_components: objective.n_components,
        };
        run_scenario_recorded(&scheme, &outcome.best_spec, None, &handle).expect("replay");
        let report = TelemetryReport::from_recorder(&recorder.borrow(), "equiv", "canopy-shallow");
        report.validate().expect("valid report");
        reports.push(report.to_json());
    }
    assert_eq!(
        reports[0], reports[1],
        "flight-recorder output changed with the thread count"
    );
}

#[test]
fn link_samples_reach_a_live_recorder_in_sim_time_order() {
    // Link samples sit on a fixed 10 ms grid whatever the scheme does,
    // so every 100 ms snapshot of a learned run must carry the same
    // `link_samples_total` window as the baseline's. Drained only after
    // the run, they arrived behind every decision: the live layer had
    // already rolled past them and all but the last snapshot had none.
    let mut spec = generate(Family::LossyWireless, 4);
    spec.duration = Time::from_secs(2);
    let windows = |scheme: &Scheme| -> Vec<Option<u64>> {
        let recorder = std::rc::Rc::new(std::cell::RefCell::new(FlightRecorder::with_live(
            RecorderConfig::default(),
            LiveConfig::default(),
        )));
        let handle: SharedRecorder = recorder.clone();
        run_scenario_recorded(scheme, &spec, None, &handle).expect("recorded");
        recorder.borrow_mut().finish(spec.duration.as_nanos());
        let snapshots = recorder.borrow().live_snapshots();
        let sums = snapshots.iter().map(|snap| {
            let window = snap
                .window_counters
                .iter()
                .find(|w| w.name == "link_samples_total");
            window.map(|w| w.window_sum)
        });
        sums.collect()
    };
    let learned = windows(&Scheme::Learned(smoke_model()));
    let baseline = windows(&Scheme::Baseline("cubic".into()));
    assert_eq!(baseline.len(), 20, "2 s at the 100 ms cadence");
    assert!(baseline.iter().all(|w| w.is_some_and(|sum| sum > 0)));
    assert!(
        learned[learned.len() / 2].is_some_and(|sum| sum > 0),
        "a mid-run snapshot of the learned run has no link window: {learned:?}"
    );
    assert_eq!(learned, baseline);
}
