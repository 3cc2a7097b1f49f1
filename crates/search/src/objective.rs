//! Search objectives: scalar "badness" scores over one scenario.
//!
//! Every objective runs the candidate spec through the existing
//! `canopy_scenarios` matrix cell (the shared `OrcaDriver` runtime) and
//! condenses the result into one number where **larger means worse** for
//! the scheme under test — the optimizer maximizes badness, the shrinker
//! preserves it.

use std::str::FromStr;

use serde::{Deserialize, Serialize};

use canopy_core::eval::{run_reward, QcEval, Scheme};
use canopy_core::models::TrainedModel;
use canopy_core::property::{Property, PropertyParams};
use canopy_scenarios::{run_scenario, ScenarioSpec, SpecError};

/// Which failure mode the search hunts for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObjectiveKind {
    /// Minimize mean per-decision `QC_sat` (badness `1 − QC_sat`): find
    /// conditions where the runtime certificate collapses.
    QcSat,
    /// Maximize the fraction of decisions the QC monitor overrides: find
    /// conditions where the learned controller is effectively benched.
    FallbackRate,
    /// Maximize Cubic's run-reward minus the learned scheme's on the same
    /// scenario: find conditions where learning actively hurts.
    RewardGap,
}

impl ObjectiveKind {
    /// Every objective, in canonical order.
    pub const ALL: [ObjectiveKind; 3] = [
        ObjectiveKind::QcSat,
        ObjectiveKind::FallbackRate,
        ObjectiveKind::RewardGap,
    ];

    /// The canonical snake-case name (CLI and report vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            ObjectiveKind::QcSat => "qc_sat",
            ObjectiveKind::FallbackRate => "fallback_rate",
            ObjectiveKind::RewardGap => "reward_gap",
        }
    }

    /// The badness level at which a scenario counts as a *violation*
    /// worth minimizing and committing: certificates below 0.5, the
    /// monitor benching the agent a quarter of the time, or a tenth of a
    /// reward unit conceded to Cubic.
    pub fn violation_threshold(self) -> f64 {
        match self {
            ObjectiveKind::QcSat => 0.5,
            ObjectiveKind::FallbackRate => 0.25,
            ObjectiveKind::RewardGap => 0.1,
        }
    }
}

impl FromStr for ObjectiveKind {
    type Err = String;

    /// Parses a canonical objective name.
    fn from_str(name: &str) -> Result<ObjectiveKind, String> {
        let kind = ObjectiveKind::ALL.into_iter().find(|k| k.name() == name);
        kind.ok_or_else(|| format!("unknown objective `{name}`"))
    }
}

/// The three robustness metrics of one scenario against one model, as
/// recorded in ledger entries: every hardening round reports the full
/// triple regardless of which objective steered the search.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioScores {
    /// Cubic's run-reward minus the learned scheme's (positive = worse
    /// than Cubic).
    pub reward_gap: f64,
    /// Mean per-decision `QC_sat` (1 when no decision fired).
    pub qc_sat: f64,
    /// Fraction of decisions the QC monitor overrode.
    pub fallback_rate: f64,
}

/// A fully configured objective: the failure mode plus the model under
/// test and its certification setup.
#[derive(Clone, Debug)]
pub struct Objective {
    /// The failure mode to score.
    pub kind: ObjectiveKind,
    /// The learned controller under test.
    pub model: TrainedModel,
    /// Properties certified per decision (QC and fallback objectives).
    pub properties: Vec<Property>,
    /// Verifier components per certificate.
    pub n_components: usize,
    /// `QC_sat` threshold of the fallback monitor (fallback objective).
    pub fallback_threshold: f64,
}

impl Objective {
    /// An objective with the evaluation defaults: the shallow property
    /// set, 5 verifier components, fallback threshold 0.5.
    pub fn new(kind: ObjectiveKind, model: TrainedModel) -> Objective {
        Objective {
            kind,
            model,
            properties: Property::shallow_set(&PropertyParams::default()),
            n_components: 5,
            fallback_threshold: 0.5,
        }
    }

    /// The model under test behind the QC fallback monitor, certifying this
    /// objective's properties with its component count and threshold.
    pub fn fallback_scheme(&self) -> Scheme {
        Scheme::LearnedFallback {
            model: self.model.clone(),
            properties: self.properties.clone(),
            threshold: self.fallback_threshold,
            n_components: self.n_components,
        }
    }

    /// Scores one scenario; larger is worse for the scheme under test.
    ///
    /// A scenario too short to produce any decision scores 0 (nothing
    /// observed means nothing violated), so degenerate candidates never
    /// look adversarial.
    pub fn badness(&self, spec: &ScenarioSpec) -> Result<f64, SpecError> {
        match self.kind {
            ObjectiveKind::QcSat => {
                let qc = QcEval {
                    properties: self.properties.clone(),
                    n_components: self.n_components,
                };
                let m = run_scenario(&Scheme::Learned(self.model.clone()), spec, Some(&qc))?;
                Ok(m.primary.qc_sat.map_or(0.0, |q| 1.0 - q))
            }
            ObjectiveKind::FallbackRate => {
                let m = run_scenario(&self.fallback_scheme(), spec, None)?;
                Ok(m.primary.fallback_rate.unwrap_or(0.0))
            }
            ObjectiveKind::RewardGap => {
                let min_rtt_ms = spec.primary_min_rtt.as_millis_f64();
                let learned = run_scenario(&Scheme::Learned(self.model.clone()), spec, None)?;
                let cubic = run_scenario(&Scheme::Baseline("cubic".into()), spec, None)?;
                Ok(run_reward(&cubic.primary, min_rtt_ms)
                    - run_reward(&learned.primary, min_rtt_ms))
            }
        }
    }

    /// Scores the scenario under all three failure modes at once,
    /// reusing this objective's model and certification setup. Each
    /// metric is bitwise identical to what [`badness`](Self::badness)
    /// under the corresponding kind would report (`qc_sat` is the raw
    /// satisfaction, i.e. `1 − badness`).
    pub fn score_all(&self, spec: &ScenarioSpec) -> Result<ScenarioScores, SpecError> {
        let with = |kind| {
            Objective {
                kind,
                ..self.clone()
            }
            .badness(spec)
        };
        Ok(ScenarioScores {
            qc_sat: 1.0 - with(ObjectiveKind::QcSat)?,
            fallback_rate: with(ObjectiveKind::FallbackRate)?,
            reward_gap: with(ObjectiveKind::RewardGap)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopy_core::models::{train_model, ModelKind, TrainBudget};
    use canopy_netsim::Time;

    fn quick_model() -> TrainedModel {
        train_model(ModelKind::Shallow, 3, TrainBudget::smoke()).model
    }

    #[test]
    fn names_round_trip() {
        for k in ObjectiveKind::ALL {
            assert_eq!(k.name().parse(), Ok(k));
            assert!(k.violation_threshold() > 0.0);
        }
        assert!("latency".parse::<ObjectiveKind>().is_err());
    }

    #[test]
    fn objectives_score_real_scenarios_deterministically() {
        let model = quick_model();
        let spec = ScenarioSpec::simple("obj", 24e6, Time::from_millis(40), Time::from_secs(2));
        for kind in ObjectiveKind::ALL {
            let obj = Objective::new(kind, model.clone());
            let a = obj.badness(&spec).expect("scores");
            let b = obj.badness(&spec).expect("scores");
            assert_eq!(a.to_bits(), b.to_bits(), "{}", kind.name());
            assert!(a.is_finite(), "{}: {a}", kind.name());
            if kind != ObjectiveKind::RewardGap {
                assert!((0.0..=1.0).contains(&a), "{}: {a}", kind.name());
            }
        }
        // The combined scorer must agree bitwise with the per-kind runs.
        let obj = Objective::new(ObjectiveKind::QcSat, model);
        let scores = obj.score_all(&spec).expect("scores");
        let qc = obj.badness(&spec).unwrap();
        assert_eq!((1.0 - qc).to_bits(), scores.qc_sat.to_bits());
        let gap = Objective {
            kind: ObjectiveKind::RewardGap,
            ..obj.clone()
        }
        .badness(&spec)
        .unwrap();
        assert_eq!(gap.to_bits(), scores.reward_gap.to_bits());
    }

    #[test]
    fn too_short_scenarios_are_not_adversarial() {
        let model = quick_model();
        // 10 ms < one monitor interval: no decision ever fires.
        let spec = ScenarioSpec::simple("tiny", 24e6, Time::from_millis(40), Time::from_millis(10));
        let qc = Objective::new(ObjectiveKind::QcSat, model.clone());
        assert_eq!(qc.badness(&spec).unwrap(), 0.0);
        let fb = Objective::new(ObjectiveKind::FallbackRate, model);
        assert_eq!(fb.badness(&spec).unwrap(), 0.0);
    }
}
