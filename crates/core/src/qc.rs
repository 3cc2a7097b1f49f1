//! Quantitative certificates: proofs plus smoothed feedback.
//!
//! A [`Certificate`] is the paper's QC for one property at one decision
//! step: the input region is partitioned into `N` components, each
//! component carries a sound output bound and a boolean proof of avoiding
//! the undesired region `Y`, and the smoothed per-component score of
//! Eq. (6) averages into the `QC` feedback. The proof part is the indicator
//! `∧ₙ (γ(aₙ#) ⊄ Y)`; the feedback part is what shapes the training reward
//! and what the paper reports as `QC_sat` at convergence.

use canopy_absint::Interval;
use serde::{Deserialize, Serialize};

/// The verdict for one input component.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ComponentResult {
    /// This component's slice of the partition axis (normalized units).
    pub input_slice: Interval,
    /// Sound bound on the property's output quantity (`Δcwnd` in packets,
    /// or the relative change fraction for robustness).
    pub output: Interval,
    /// Whether the output bound lies entirely inside the allowed region
    /// (the component-level boolean proof).
    pub satisfied: bool,
    /// The smoothed score of Eq. (6): 1 if fully allowed, 0 if fully in
    /// `Y`, else the allowed fraction of the output interval's volume.
    pub feedback: f64,
}

impl ComponentResult {
    /// The verdict on an `output` bound against the `allowed` region: the
    /// boolean proof and the Eq. (6) score.
    pub fn new(input_slice: Interval, output: Interval, allowed: Interval) -> ComponentResult {
        ComponentResult {
            input_slice,
            output,
            satisfied: output.is_subset_of(allowed),
            feedback: output.fraction_within(allowed),
        }
    }
}

/// The quantitative certificate for one property at one step.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Certificate {
    /// The property this certifies.
    pub property: String,
    /// Per-component verdicts (`N` entries).
    pub components: Vec<ComponentResult>,
    /// Mean component feedback — `QC_feedback` (and, at convergence,
    /// `QC_sat`).
    pub feedback: f64,
    /// The boolean proof: every component satisfied.
    pub proven: bool,
}

impl Certificate {
    /// Assembles a certificate from component verdicts.
    pub fn from_components(property: &str, components: Vec<ComponentResult>) -> Certificate {
        let n = components.len().max(1) as f64;
        let feedback = components.iter().map(|c| c.feedback).sum::<f64>() / n;
        let proven = !components.is_empty() && components.iter().all(|c| c.satisfied);
        Certificate {
            property: property.to_string(),
            components,
            feedback,
            proven,
        }
    }

    /// The fraction of components with a boolean proof (a coarser measure
    /// than [`feedback`](Self::feedback); equal to it when every component
    /// is fully inside or fully outside the allowed region).
    pub fn proven_fraction(&self) -> f64 {
        if self.components.is_empty() {
            return 0.0;
        }
        self.components.iter().filter(|c| c.satisfied).count() as f64 / self.components.len() as f64
    }
}

/// The multi-property verifier reward of Eq. (7): the mean feedback across
/// all certificates (each already averaged over its components).
pub fn aggregate_feedback(certs: &[Certificate]) -> f64 {
    if certs.is_empty() {
        return 0.0;
    }
    certs.iter().map(|c| c.feedback).sum::<f64>() / certs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp(feedback: f64, satisfied: bool) -> ComponentResult {
        ComponentResult {
            input_slice: Interval::new(0.0, 1.0),
            output: Interval::new(-1.0, 1.0),
            satisfied,
            feedback,
        }
    }

    #[test]
    fn feedback_is_mean_of_components() {
        let cert = Certificate::from_components(
            "P1",
            vec![comp(1.0, true), comp(0.5, false), comp(0.0, false)],
        );
        assert!((cert.feedback - 0.5).abs() < 1e-12);
        assert!(!cert.proven);
        assert!((cert.proven_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn proven_requires_all_components() {
        let cert = Certificate::from_components("P2", vec![comp(1.0, true), comp(1.0, true)]);
        assert!(cert.proven);
        assert_eq!(cert.feedback, 1.0);
    }

    #[test]
    fn empty_certificate_is_unproven() {
        let cert = Certificate::from_components("P3", vec![]);
        assert!(!cert.proven);
        assert_eq!(cert.feedback, 0.0);
        assert_eq!(cert.proven_fraction(), 0.0);
    }

    #[test]
    fn aggregate_is_mean_across_properties() {
        let a = Certificate::from_components("P1", vec![comp(1.0, true)]);
        let b = Certificate::from_components("P2", vec![comp(0.0, false)]);
        assert!((aggregate_feedback(&[a, b]) - 0.5).abs() < 1e-12);
        assert_eq!(aggregate_feedback(&[]), 0.0);
    }

    #[test]
    fn certificates_serialize_for_reports() {
        // QCs double as runtime monitoring artifacts (§4.4): they must
        // survive a JSON round trip for logging/report pipelines.
        let cert = Certificate::from_components("P5", vec![comp(0.75, false), comp(1.0, true)]);
        let json = serde_json::to_string(&cert).expect("serializable");
        let back: Certificate = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.property, "P5");
        assert_eq!(back.components.len(), 2);
        assert!((back.feedback - cert.feedback).abs() < 1e-15);
        assert_eq!(back.proven, cert.proven);
    }
}
