//! QC-guided runtime monitoring and fallback (Section 4.4).
//!
//! A [`FallbackController`] is a policy's one certificate monitor: the
//! pool certifies the deployed properties at every decision and hands the
//! `QC_sat` aggregate to [`arbitrate`](FallbackController::arbitrate). An
//! *arbitrating* monitor ([`new`](FallbackController::new)) enforces the
//! learned controller's window only when the aggregate clears its
//! threshold, otherwise the flow falls back to unmodified TCP Cubic for
//! that interval. An *observing* monitor
//! ([`observing`](FallbackController::observing)) is QC evaluation: it
//! certifies every decision the same way and never benches the agent.

use serde::{Deserialize, Serialize};

use crate::property::Property;
use crate::verifier::Verifier;

/// One fallback decision.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FallbackDecision {
    /// The certificate feedback at this step.
    pub qc_sat: f64,
    /// Whether the learned controller's action may be applied.
    pub use_agent: bool,
}

/// The runtime monitor: certificate extraction plus, when it has a
/// threshold, fallback arbitration.
#[derive(Clone, Debug)]
pub struct FallbackController {
    verifier: Verifier,
    properties: Vec<Property>,
    /// `None` observes: every decision keeps the agent.
    threshold: Option<f64>,
    decisions: u64,
    fallbacks: u64,
    engagements: u64,
    engaged: bool,
}

impl FallbackController {
    /// An arbitrating monitor for the given properties and `QC_sat`
    /// threshold.
    pub fn new(properties: Vec<Property>, threshold: f64, n_components: usize) -> Self {
        FallbackController {
            threshold: Some(threshold),
            ..FallbackController::observing(properties, n_components)
        }
    }

    /// An observing monitor: it certifies the given properties at every
    /// decision and never benches the agent, whatever the aggregate (NaN
    /// included).
    pub fn observing(properties: Vec<Property>, n_components: usize) -> Self {
        FallbackController {
            verifier: Verifier::new(n_components),
            properties,
            threshold: None,
            decisions: 0,
            fallbacks: 0,
            engagements: 0,
            engaged: false,
        }
    }

    /// The configured threshold; `None` for an observing monitor.
    pub fn threshold(&self) -> Option<f64> {
        self.threshold
    }

    /// The verifier that extracts the runtime certificate.
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// The properties monitored at runtime.
    pub fn properties(&self) -> &[Property] {
        &self.properties
    }

    /// Thresholds an already-extracted `QC_sat` and updates the monitor's
    /// bookkeeping. An observing monitor always keeps the agent.
    pub fn arbitrate(&mut self, qc_sat: f64) -> FallbackDecision {
        let use_agent = self.threshold.is_none_or(|t| qc_sat >= t);
        self.decisions += 1;
        if !use_agent {
            self.fallbacks += 1;
            if !self.engaged {
                self.engagements += 1;
            }
        }
        self.engaged = !use_agent;
        FallbackDecision { qc_sat, use_agent }
    }

    /// Fraction of decisions that fell back to Cubic.
    pub fn fallback_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.fallbacks as f64 / self.decisions as f64
        }
    }

    /// Total decisions made.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// How many times the monitor *engaged* fallback: transitions from
    /// agent control into Cubic, counting a sustained excursion once.
    pub fn engagements(&self) -> u64 {
        self.engagements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::StateLayout;
    use crate::property::PropertyParams;
    use crate::verifier::StepContext;
    use canopy_nn::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layout() -> StateLayout {
        StateLayout::new(3)
    }

    fn constant_actor(value: f64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Mlp::new(&mut rng, &[layout().dim(), 4, 1], Activation::Tanh);
        for layer in net.layers_mut() {
            layer.weights.fill_zero();
            layer.bias.fill(0.0);
        }
        net.layers_mut()[1].bias[0] = value.clamp(-0.999, 0.999).atanh();
        net
    }

    fn ctx() -> StepContext {
        StepContext {
            state: vec![0.1; layout().dim()],
            cwnd_tcp: 100.0,
            cwnd_prev: 100.0,
        }
    }

    /// Certifies a constant actor at [`ctx`] with the monitor's own
    /// verifier and properties, then arbitrates.
    fn judge(fb: &mut FallbackController, value: f64) -> FallbackDecision {
        let actor = constant_actor(value);
        let qc_sat = fb
            .verifier()
            .certify_all(&actor, fb.properties(), layout(), &ctx())
            .1;
        fb.arbitrate(qc_sat)
    }

    fn p1_monitor(threshold: f64) -> FallbackController {
        FallbackController::new(vec![Property::p1(&PropertyParams::default())], threshold, 5)
    }

    #[test]
    fn satisfied_controller_keeps_agent() {
        let mut fb = p1_monitor(0.9);
        // A controller that always increases satisfies P1 with QC_sat = 1.
        let d = judge(&mut fb, 0.5);
        assert!(d.use_agent);
        assert_eq!(d.qc_sat, 1.0);
        assert_eq!(fb.fallback_rate(), 0.0);
    }

    #[test]
    fn violating_controller_falls_back() {
        let mut fb = p1_monitor(0.9);
        // A controller that always decreases violates P1 everywhere.
        let d = judge(&mut fb, -0.5);
        assert!(!d.use_agent);
        assert_eq!(d.qc_sat, 0.0);
        assert_eq!(fb.fallback_rate(), 1.0);
        assert_eq!(fb.decisions(), 1);
        assert_eq!(fb.engagements(), 1);
    }

    #[test]
    fn engagements_count_transitions_not_decisions() {
        let mut fb = p1_monitor(0.9);
        // agent, fallback, fallback, agent, fallback: two excursions.
        for v in [0.5, -0.5, -0.5, 0.5, -0.5] {
            judge(&mut fb, v);
        }
        assert_eq!(fb.decisions(), 5);
        assert_eq!(fb.engagements(), 2);
        assert!((fb.fallback_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn threshold_zero_never_falls_back() {
        assert!(judge(&mut p1_monitor(0.0), -0.5).use_agent);
    }

    #[test]
    fn rate_averages_over_decisions() {
        let mut fb = p1_monitor(0.9);
        judge(&mut fb, 0.5);
        judge(&mut fb, -0.5);
        assert!((fb.fallback_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn an_observing_monitor_never_benches_the_agent() {
        let p = PropertyParams::default();
        let mut fb = FallbackController::observing(vec![Property::p1(&p)], 5);
        assert_eq!(fb.threshold(), None);
        let d = judge(&mut fb, -0.5);
        assert!(d.use_agent);
        assert_eq!(d.qc_sat, 0.0);
        for qc_sat in [f64::NAN, f64::NEG_INFINITY, -1.0, 0.0] {
            assert!(fb.arbitrate(qc_sat).use_agent, "{qc_sat}");
        }
        assert_eq!(fb.decisions(), 5);
        assert_eq!((fb.fallback_rate(), fb.engagements()), (0.0, 0));
        // An arbitrating monitor benches a NaN aggregate.
        assert!(!p1_monitor(0.0).arbitrate(f64::NAN).use_agent);
    }
}
