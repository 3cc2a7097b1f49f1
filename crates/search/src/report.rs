//! Stable-schema search reports and committed counterexample fixtures.
//!
//! A search run emits one [`SearchReport`] (`SEARCH_report.json`); a
//! minimized violation additionally serializes as an
//! [`AdversarialFixture`] under `fixtures/adversarial/`, carrying enough
//! provenance (model kind/seed/budget class, objective setup, replay
//! threshold) for a regression test to re-run it from the file alone
//! ([`AdversarialFixture::objective`]); [`load_corpus`] reads a fixture
//! directory back. Both are [`Artifact`]s: tagged, checked, read and
//! written through `canopy_telemetry::artifact`.

use std::path::Path;

use serde::{Deserialize, Serialize};

use canopy_core::models::{self, ModelKind, TrainBudget};
use canopy_scenarios::{Family, ScenarioSpec};
use canopy_telemetry::artifact::Cause;
use canopy_telemetry::{Artifact, ArtifactError};

use crate::objective::{Objective, ObjectiveKind};
use crate::optimize::OPTIMIZER;

/// A minimized counterexample inside a report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Minimized {
    /// Badness of the minimized spec.
    pub badness: f64,
    /// The violation threshold the shrinker preserved.
    pub threshold: f64,
    /// Candidate evaluations the shrinker spent.
    pub evaluations: usize,
    /// Accepted shrink steps, in order.
    pub applied: Vec<String>,
    /// The minimized scenario.
    pub spec: ScenarioSpec,
}

/// The aggregate output of one `scenario_search` run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SearchReport {
    /// Schema tag, `canopy-search-report/v2`.
    pub schema: String,
    /// Family searched.
    pub family: String,
    /// Scheme (model) under test.
    pub scheme: String,
    /// Objective name.
    pub objective: String,
    /// Optimizer name.
    pub optimizer: String,
    /// Coordinator RNG / spec provenance seed.
    pub search_seed: u64,
    /// Requested evaluation budget.
    pub budget: usize,
    /// Batch size.
    pub population: usize,
    /// Evaluations actually spent by the optimizer.
    pub evaluations: usize,
    /// Horizon cap applied to decoded specs, seconds.
    pub duration_cap_s: Option<f64>,
    /// Badness level that counts as a violation.
    pub violation_threshold: f64,
    /// Hardening gate (`--min-gap`): the badness the search was required
    /// to reach for the run to count as "search succeeded".
    pub min_gap: Option<f64>,
    /// Whether the gate tripped: a `min_gap` was set and the search never
    /// reached it — evidence the scheme is hardened against this family,
    /// reported distinctly from an ordinary no-violation run.
    pub below_min_gap: bool,
    /// Worst badness found.
    pub best_badness: f64,
    /// Best badness after each batch.
    pub trajectory: Vec<f64>,
    /// The worst scenario found.
    pub best_spec: ScenarioSpec,
    /// The minimized counterexample, when the search found a violation.
    pub minimized: Option<Minimized>,
}

impl Artifact for SearchReport {
    /// v2 added the hardening-gate fields `min_gap` / `below_min_gap`.
    const SCHEMA: &'static str = "canopy-search-report/v2";

    fn schema(&self) -> &str {
        &self.schema
    }

    /// Identity fields, the budget, the trajectory against the best
    /// badness, the hardening gate, and both specs.
    fn check(&self) -> Result<(), String> {
        if self.family.is_empty() || self.scheme.is_empty() || self.objective.is_empty() {
            return Err("empty identity field".into());
        }
        if self.evaluations == 0 || self.evaluations > self.budget {
            return Err(format!(
                "evaluations {} outside (0, budget {}]",
                self.evaluations, self.budget
            ));
        }
        if !self.best_badness.is_finite() {
            return Err(format!("non-finite best badness {}", self.best_badness));
        }
        if self.trajectory.is_empty() {
            return Err("empty trajectory".into());
        }
        let max_seen = self.trajectory.iter().cloned().fold(f64::MIN, f64::max);
        if max_seen != self.best_badness {
            return Err(format!(
                "trajectory peak {max_seen} disagrees with best badness {}",
                self.best_badness
            ));
        }
        match self.min_gap {
            Some(gap) if !gap.is_finite() || gap <= 0.0 => {
                return Err(format!("non-positive min gap {gap}"));
            }
            Some(gap) if (self.best_badness < gap) != self.below_min_gap => {
                return Err(format!(
                    "below_min_gap {} inconsistent with best badness {} vs gap {gap}",
                    self.below_min_gap, self.best_badness
                ));
            }
            None if self.below_min_gap => {
                return Err("below_min_gap set without a min gap".into());
            }
            _ => {}
        }
        self.best_spec.validate().map_err(|e| e.to_string())?;
        if let Some(min) = &self.minimized {
            min.spec.validate().map_err(|e| e.to_string())?;
            if min.badness < min.threshold {
                return Err(format!(
                    "minimized spec badness {} below its threshold {}",
                    min.badness, min.threshold
                ));
            }
        }
        Ok(())
    }
}

/// A committed, self-contained adversarial regression fixture.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdversarialFixture {
    /// Schema tag, `canopy-adversarial-fixture/v1`.
    pub schema: String,
    /// Family the counterexample came from.
    pub family: String,
    /// Objective name.
    pub objective: String,
    /// Model name under test (a `ModelKind` canonical name).
    pub scheme: String,
    /// Training seed of the model.
    pub model_seed: u64,
    /// Whether the model uses the smoke training budget (fixtures meant
    /// for the test suite always do — retraining stays seconds-fast).
    pub smoke_model: bool,
    /// Verifier components per certificate.
    pub n_components: usize,
    /// Fallback monitor threshold (fallback-rate objective).
    pub fallback_threshold: f64,
    /// Optimizer that found the counterexample (provenance; part of the
    /// fixture's file identity so hunts differing only in strategy never
    /// overwrite each other).
    pub optimizer: String,
    /// The search seed that produced the counterexample.
    pub search_seed: u64,
    /// Badness the replay must still reach for the regression to count as
    /// reproduced: the recorded badness minus a floating-point safety
    /// margin, floored at the objective's violation threshold so a replay
    /// that is no longer a violation always fails.
    pub replay_threshold: f64,
    /// Badness recorded when the fixture was created.
    pub recorded_badness: f64,
    /// The minimized counterexample scenario.
    pub spec: ScenarioSpec,
}

impl AdversarialFixture {
    /// The fixture of a minimized find: `spec` scored `badness` against
    /// `objective`, whose model was trained with `model_seed` at the smoke
    /// (`smoke_model`) or standard budget, in the search seeded with
    /// `search_seed`. The replay threshold backs off 10 % from the recorded
    /// badness (tolerating cross-CPU floating-point drift) but never below
    /// the objective's violation threshold: a replay that is no longer a
    /// violation must fail, whatever it scores.
    pub fn new(
        family: Family,
        objective: &Objective,
        model_seed: u64,
        smoke_model: bool,
        search_seed: u64,
        badness: f64,
        spec: ScenarioSpec,
    ) -> AdversarialFixture {
        AdversarialFixture {
            schema: Self::SCHEMA.to_string(),
            family: family.name().to_string(),
            objective: objective.kind.name().to_string(),
            scheme: objective.model.name.clone(),
            model_seed,
            smoke_model,
            n_components: objective.n_components,
            fallback_threshold: objective.fallback_threshold,
            optimizer: OPTIMIZER.to_string(),
            search_seed,
            replay_threshold: objective.kind.violation_threshold().max(0.9 * badness),
            recorded_badness: badness,
            spec,
        }
    }

    /// Rebuilds the objective the fixture was recorded against: the model
    /// from its kind, seed and budget class (loaded from, or trained into,
    /// the cache at `model_dir`), with the recorded component count and
    /// fallback threshold.
    pub fn objective(&self, model_dir: &Path) -> Result<Objective, String> {
        let kind: ModelKind = self.scheme.parse()?;
        let objective: ObjectiveKind = self.objective.parse()?;
        let budget = if self.smoke_model {
            TrainBudget::smoke()
        } else {
            TrainBudget::standard()
        };
        let (model, _) = models::load_or_train(model_dir, kind, self.model_seed, budget);
        Ok(Objective {
            n_components: self.n_components,
            fallback_threshold: self.fallback_threshold,
            ..Objective::new(objective, model)
        })
    }

    /// The canonical committed file name. Every axis a hunt can vary on —
    /// family, objective, scheme, model seed, budget class, optimizer,
    /// search seed — is part of the name, so two different hunts never
    /// silently overwrite each other's committed counterexample.
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-{}-m{}-{}-{}-s{}.json",
            self.family,
            self.objective.replace('_', "-"),
            self.scheme,
            self.model_seed,
            if self.smoke_model { "smoke" } else { "full" },
            self.optimizer,
            self.search_seed
        )
    }
}

impl Artifact for AdversarialFixture {
    const SCHEMA: &'static str = "canopy-adversarial-fixture/v1";

    fn schema(&self) -> &str {
        &self.schema
    }

    /// Replayability: a known objective, optimizer and scheme, a replay
    /// threshold at or above the violation threshold, and a valid spec.
    fn check(&self) -> Result<(), String> {
        let objective: ObjectiveKind = self.objective.parse()?;
        if self.optimizer != OPTIMIZER {
            return Err(format!(
                "unknown optimizer `{}` (expected `{OPTIMIZER}`)",
                self.optimizer
            ));
        }
        self.scheme.parse::<ModelKind>()?;
        let floor = objective.violation_threshold();
        if !self.replay_threshold.is_finite() || self.replay_threshold < floor {
            return Err(format!(
                "replay threshold {} below the {} violation threshold {floor}",
                self.replay_threshold, self.objective
            ));
        }
        if !self.recorded_badness.is_finite() || self.recorded_badness < self.replay_threshold {
            return Err(format!(
                "recorded badness {} below replay threshold {}",
                self.recorded_badness, self.replay_threshold
            ));
        }
        if self.n_components == 0 {
            return Err("zero verifier components".into());
        }
        self.spec.validate().map_err(|e| e.to_string())
    }
}

/// Reads and validates every fixture in a corpus directory, sorted by file
/// name so the corpus order — and so training on it — is independent of
/// directory iteration order. A missing directory is an empty corpus.
/// Discovery is strict: every entry must be a `.json` fixture except the
/// `traces/` directory, where `harden` parks each fixture's decision trace.
/// Any other entry, any unreadable or invalid fixture and any other I/O
/// error is an `Err`, so a stray or corrupted file is never skipped and the
/// corpus the hardening loop trains on is the one the replay suite checks.
pub fn load_corpus(dir: impl AsRef<Path>) -> Result<Vec<AdversarialFixture>, ArtifactError> {
    let dir = dir.as_ref();
    let listed = |e| ArtifactError {
        path: Some(dir.to_path_buf()),
        cause: Cause::Io(e),
    };
    let entries = match std::fs::read_dir(dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        entries => entries.map_err(listed)?,
    };
    let mut paths = Vec::new();
    for entry in entries {
        let path = entry.map_err(listed)?.path();
        if path.is_dir() && path.file_name().is_some_and(|n| n == "traces") {
            continue;
        }
        if !(path.is_file() && path.extension().is_some_and(|x| x == "json")) {
            let why = "not a .json fixture (the corpus directory holds fixtures and traces/ only)";
            return Err(ArtifactError {
                path: Some(path),
                cause: Cause::Invalid(why.into()),
            });
        }
        paths.push(path);
    }
    paths.sort();
    paths.iter().map(AdversarialFixture::read).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopy_netsim::Time;

    fn sample_report() -> SearchReport {
        SearchReport {
            schema: SearchReport::SCHEMA.to_string(),
            family: "flash-crowd".into(),
            scheme: "canopy-shallow".into(),
            objective: "qc_sat".into(),
            optimizer: "cem".into(),
            search_seed: 7,
            budget: 64,
            population: 16,
            evaluations: 64,
            duration_cap_s: None,
            violation_threshold: 0.5,
            min_gap: None,
            below_min_gap: false,
            best_badness: 0.75,
            trajectory: vec![0.4, 0.75],
            best_spec: ScenarioSpec::simple("cx", 24e6, Time::from_millis(40), Time::from_secs(4)),
            minimized: None,
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let r = sample_report();
        r.validate().expect("valid");
        let back = SearchReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(back.to_json(), r.to_json());

        let mut bad_schema = sample_report();
        bad_schema.schema = "nope/v0".into();
        assert!(bad_schema.validate().is_err());

        let mut drifted = sample_report();
        drifted.trajectory = vec![0.9];
        assert!(drifted.validate().is_err(), "trajectory/best disagreement");

        let mut overspent = sample_report();
        overspent.evaluations = 65;
        assert!(overspent.validate().is_err());
    }

    #[test]
    fn min_gap_fields_validate_and_are_required() {
        let mut gated = sample_report();
        gated.min_gap = Some(0.9);
        gated.below_min_gap = true;
        gated.validate().expect("hardened outcome is consistent");

        gated.below_min_gap = false;
        assert!(gated.validate().is_err(), "0.75 < 0.9 must set the flag");

        let mut reached = sample_report();
        reached.min_gap = Some(0.5);
        reached.validate().expect("gap reached, flag clear");

        let mut orphan = sample_report();
        orphan.below_min_gap = true;
        assert!(orphan.validate().is_err(), "flag without a gap");

        // A v2 report without either gate field is an error, not "no gate".
        let text = sample_report().to_json();
        for field in ["\"min_gap\":null,", "\"below_min_gap\":false,"] {
            assert!(text.contains(field), "{field}");
            let parsed = SearchReport::from_json(&text.replace(field, ""));
            assert!(parsed.is_err(), "parsed without {field}");
        }
    }

    /// A qc_sat fixture (violation threshold 0.5) recorded at badness 0.6.
    fn sample_fixture() -> AdversarialFixture {
        AdversarialFixture {
            schema: AdversarialFixture::SCHEMA.to_string(),
            family: "flash-crowd".into(),
            objective: "qc_sat".into(),
            scheme: "canopy-shallow".into(),
            model_seed: 3,
            smoke_model: true,
            n_components: 5,
            fallback_threshold: 0.5,
            optimizer: "cem".into(),
            search_seed: 7,
            replay_threshold: 0.54,
            recorded_badness: 0.6,
            spec: ScenarioSpec::simple("cx", 24e6, Time::from_millis(40), Time::from_secs(4)),
        }
    }

    #[test]
    fn fixture_round_trips_and_validates() {
        let f = sample_fixture();
        f.validate().expect("valid");
        assert_eq!(
            f.file_name(),
            "flash-crowd-qc-sat-canopy-shallow-m3-smoke-cem-s7.json"
        );
        let back = AdversarialFixture::from_json(&f.to_json()).expect("parses");
        assert_eq!(back.to_json(), f.to_json());

        let mut weak = f.clone();
        weak.recorded_badness = 0.1;
        assert!(weak.validate().is_err(), "badness below replay threshold");
        let mut unknown = f.clone();
        unknown.scheme = "canopy-quantum".into();
        assert!(unknown.validate().is_err());
        let mut bad_opt = f;
        bad_opt.optimizer = "hill".into();
        assert!(bad_opt.validate().is_err(), "cem is the only optimizer");
    }

    #[test]
    fn a_replay_threshold_below_the_violation_threshold_is_refused() {
        // A fixture that would "replay" a scenario which is no longer a
        // violation (qc_sat badness below 0.5) must not validate, and
        // neither must one with no finite threshold at all.
        for lax in [0.45, f64::NAN, f64::NEG_INFINITY] {
            let mut f = sample_fixture();
            f.replay_threshold = lax;
            assert!(f.validate().is_err(), "replay threshold {lax}");
        }
        let mut floor = sample_fixture();
        floor.replay_threshold = 0.5;
        floor
            .validate()
            .expect("the violation threshold itself is a floor");
    }
}
