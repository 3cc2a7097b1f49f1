//! The committed robustness ledger: per-round, per-family worst-case
//! scores of the hardening loop.
//!
//! The `harden` driver appends one [`LedgerEntry`] per (round, family)
//! after re-running adversarial search against that round's model, so the
//! repository carries an auditable longitudinal record of how worst-case
//! `reward_gap` / `QC_sat` / `fallback_rate` respond to fixture-driven
//! retraining. The schema is stable and versioned; entries are
//! append-only (a later run extends the round sequence, never rewrites
//! history).

use serde::{Deserialize, Serialize};

use canopy_telemetry::Artifact;

use crate::objective::ObjectiveKind;

/// One (model, family, round) measurement of the hardening loop.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Hardening round (0 = the unhardened base model).
    pub round: usize,
    /// Name of the model measured this round (round 0 is the `ModelKind`
    /// canonical name; later rounds append a `+hard-rN` suffix).
    pub model: String,
    /// Fuzz family searched.
    pub family: String,
    /// Objective that steered the search.
    pub objective: String,
    /// Search seed used for this round's hunt.
    pub search_seed: u64,
    /// Candidate evaluations the search spent.
    pub evaluations: usize,
    /// Worst badness the search found against this round's model.
    pub badness: f64,
    /// Cubic run-reward minus learned run-reward on the worst scenario.
    pub reward_gap: f64,
    /// Mean `QC_sat` on the worst scenario.
    pub qc_sat: f64,
    /// Fallback-monitor override rate on the worst scenario.
    pub fallback_rate: f64,
    /// Mean `QC_sat` of the certification gate the round's model had to
    /// pass before being admitted.
    pub gate_qc_sat: f64,
    /// Whether the worst badness exceeds the objective's violation
    /// threshold.
    pub violation: bool,
    /// File name (under `fixtures/adversarial/`) of the minimized
    /// counterexample committed from this hunt, if the find replayed as a
    /// violation against the *base* model too.
    pub fixture: Option<String>,
}

/// The complete committed ledger of one hardening lineage.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessLedger {
    /// Schema tag, `canopy-robustness-ledger/v1`.
    pub schema: String,
    /// Base scheme being hardened (a `ModelKind` canonical name).
    pub scheme: String,
    /// Training seed of the base model (hardened rounds reuse it).
    pub model_seed: u64,
    /// Whether rounds use the smoke training budget.
    pub smoke: bool,
    /// Entries in append order: rounds are non-decreasing, and every
    /// family measured in a round appears as its own entry.
    pub entries: Vec<LedgerEntry>,
}

impl RobustnessLedger {
    /// An empty ledger for a fresh lineage.
    pub fn new(scheme: &str, model_seed: u64, smoke: bool) -> RobustnessLedger {
        RobustnessLedger {
            schema: Self::SCHEMA.to_string(),
            scheme: scheme.to_string(),
            model_seed,
            smoke,
            entries: Vec::new(),
        }
    }

    /// The highest round recorded, if any entry exists.
    pub fn last_round(&self) -> Option<usize> {
        self.entries.iter().map(|e| e.round).max()
    }

    /// Entries of one round, in append order.
    pub fn round_entries(&self, round: usize) -> impl Iterator<Item = &LedgerEntry> {
        self.entries.iter().filter(move |e| e.round == round)
    }

    /// Total badness in excess of the violation threshold across one
    /// round — the scalar the hardening loop drives toward zero.
    pub fn violation_mass(&self, round: usize) -> f64 {
        self.round_entries(round)
            .filter_map(|e| {
                let kind: ObjectiveKind = e.objective.parse().ok()?;
                Some((e.badness - kind.violation_threshold()).max(0.0))
            })
            .sum()
    }
}

impl Artifact for RobustnessLedger {
    const SCHEMA: &'static str = "canopy-robustness-ledger/v1";

    fn schema(&self) -> &str {
        &self.schema
    }

    /// Identity vocabulary, metric ranges, the monotone round sequence,
    /// and (model, family, round) uniqueness.
    fn check(&self) -> Result<(), String> {
        self.scheme.parse::<canopy_core::models::ModelKind>()?;
        let mut last_round = 0usize;
        let mut seen: Vec<(&str, &str, usize)> = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            let at = format!("entry {i} ({}/{} round {})", e.model, e.family, e.round);
            if e.round < last_round {
                return Err(format!("{at}: rounds must be non-decreasing"));
            }
            last_round = e.round;
            if e.model.is_empty() {
                return Err(format!("{at}: empty model name"));
            }
            if e.family.parse::<canopy_scenarios::Family>().is_err() {
                return Err(format!("{at}: unknown family"));
            }
            let kind: ObjectiveKind = e.objective.parse().map_err(|e| format!("{at}: {e}"))?;
            let key = (e.model.as_str(), e.family.as_str(), e.round);
            if seen.contains(&key) {
                return Err(format!("{at}: duplicate (model, family, round)"));
            }
            seen.push(key);
            for (name, v) in [
                ("badness", e.badness),
                ("reward_gap", e.reward_gap),
                ("qc_sat", e.qc_sat),
                ("fallback_rate", e.fallback_rate),
                ("gate_qc_sat", e.gate_qc_sat),
            ] {
                if !v.is_finite() {
                    return Err(format!("{at}: non-finite {name} {v}"));
                }
            }
            for (name, v) in [
                ("qc_sat", e.qc_sat),
                ("fallback_rate", e.fallback_rate),
                ("gate_qc_sat", e.gate_qc_sat),
            ] {
                if !(0.0..=1.0).contains(&v) {
                    return Err(format!("{at}: {name} {v} outside [0, 1]"));
                }
            }
            if e.evaluations == 0 {
                return Err(format!("{at}: zero evaluations"));
            }
            if e.violation != (e.badness >= kind.violation_threshold()) {
                return Err(format!(
                    "{at}: violation flag {} inconsistent with badness {} vs threshold {}",
                    e.violation,
                    e.badness,
                    kind.violation_threshold()
                ));
            }
            if let Some(f) = &e.fixture {
                if !f.ends_with(".json") || f.contains('/') || f.contains('\\') {
                    return Err(format!("{at}: fixture `{f}` is not a bare .json file name"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(round: usize, model: &str, family: &str, badness: f64) -> LedgerEntry {
        LedgerEntry {
            round,
            model: model.to_string(),
            family: family.to_string(),
            objective: "reward_gap".into(),
            search_seed: 7,
            evaluations: 16,
            badness,
            reward_gap: badness,
            qc_sat: 0.8,
            fallback_rate: 0.1,
            gate_qc_sat: 0.9,
            violation: badness >= 0.1,
            fixture: None,
        }
    }

    /// Why `l` fails validation.
    fn refusal(l: &RobustnessLedger) -> String {
        l.validate().expect_err("an invalid ledger").to_string()
    }

    fn sample() -> RobustnessLedger {
        let mut l = RobustnessLedger::new("canopy-shallow", 3, true);
        l.entries
            .push(entry(0, "canopy-shallow", "flash-crowd", 0.4));
        l.entries
            .push(entry(0, "canopy-shallow", "jitter-storm", 0.05));
        l.entries
            .push(entry(1, "canopy-shallow+hard-r1", "flash-crowd", 0.2));
        l
    }

    #[test]
    fn round_trips_and_validates() {
        let l = sample();
        l.validate().expect("valid ledger");
        let back = RobustnessLedger::from_json(&l.to_json()).expect("parses");
        assert_eq!(back.to_json(), l.to_json());
        assert_eq!(back.last_round(), Some(1));
        assert_eq!(back.round_entries(0).count(), 2);
    }

    #[test]
    fn violation_mass_sums_excess_badness() {
        let l = sample();
        // Round 0: (0.4 − 0.1) + max(0.05 − 0.1, 0) = 0.3.
        assert!((l.violation_mass(0) - 0.3).abs() < 1e-12);
        assert!((l.violation_mass(1) - 0.1).abs() < 1e-12);
        assert!(l.violation_mass(0) > l.violation_mass(1), "rounds shrink");
    }

    #[test]
    fn rejects_regressing_rounds() {
        let mut l = sample();
        l.entries
            .push(entry(0, "canopy-shallow", "buffer-sweep", 0.0));
        let err = refusal(&l);
        assert!(err.contains("non-decreasing"), "{err}");
    }

    #[test]
    fn rejects_duplicate_model_family_round() {
        let mut l = sample();
        l.entries
            .push(entry(1, "canopy-shallow+hard-r1", "flash-crowd", 0.3));
        let err = refusal(&l);
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn rejects_vocabulary_and_range_violations() {
        let mut bad_family = sample();
        bad_family.entries[0].family = "solar-flare".into();
        assert!(refusal(&bad_family).contains("family"));

        let mut bad_obj = sample();
        bad_obj.entries[0].objective = "latency".into();
        assert!(refusal(&bad_obj).contains("objective"));

        let mut bad_qc = sample();
        bad_qc.entries[0].qc_sat = 1.5;
        assert!(refusal(&bad_qc).contains("qc_sat"));

        let mut bad_flag = sample();
        bad_flag.entries[0].violation = false;
        assert!(refusal(&bad_flag).contains("violation"));

        let mut bad_fixture = sample();
        bad_fixture.entries[0].fixture = Some("dir/evil.json".into());
        assert!(refusal(&bad_fixture).contains("fixture"));

        let mut bad_scheme = sample();
        bad_scheme.scheme = "canopy-quantum".into();
        assert!(refusal(&bad_scheme).contains("scheme"));
    }
}
