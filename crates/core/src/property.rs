//! The property language and the paper's five properties (Tables 2 and 3).
//!
//! A property `φ(π, X, Y)` pairs a **precondition** `X` — a region of agent
//! states, expressed as interval constraints on selected features across
//! all `k` history steps — with a **postcondition** naming the undesirable
//! action region `Y`. Canopy's verifier proves, per input component, that
//! the controller's output avoids `Y`, and scores partial satisfaction with
//! the smoothed feedback of Eq. (6).
//!
//! Following the paper's implementation (Section 5), only the variables of
//! interest are abstracted; all other state features keep their concretely
//! observed values, so the certificate tracks the worst case over exactly
//! the constrained region around the live state.

use canopy_absint::{BoxState, Interval};
use serde::{Deserialize, Serialize};

use crate::obs::{StateLayout, ACTION_IDX, DELAY_IDX, LOSS_IDX};

/// Parameters for instantiating P1–P5, with the defaults of Section 6.1.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PropertyParams {
    /// Normalized queuing-delay ceiling classifying "shallow-buffer, low
    /// delay" (`q_min_delay`).
    pub q_min_delay: f64,
    /// Normalized queuing-delay ceiling for "deep buffer, good conditions"
    /// (`q_delay`).
    pub q_delay: f64,
    /// Normalized queuing-delay floor for "deep buffer, bad conditions"
    /// (`p_delay`).
    pub p_delay: f64,
    /// Normalized loss-rate floor for "shallow buffer, bad conditions"
    /// (`p_loss`).
    pub p_loss: f64,
    /// Multiplicative observation-noise bound μ for the robustness
    /// property.
    pub mu: f64,
    /// Allowed relative output fluctuation ε for the robustness property.
    pub eps: f64,
}

impl Default for PropertyParams {
    fn default() -> PropertyParams {
        PropertyParams {
            q_min_delay: 0.01,
            q_delay: 0.25,
            p_delay: 0.75,
            p_loss: 0.75,
            mu: 0.05,
            eps: 0.01,
        }
    }
}

/// Dead zone around zero excluded from the action-sign gates.
///
/// Table 3 of the paper writes the P4 sub-cases with closed conditions
/// (`past Δcwnd ≥ 0` and `past Δcwnd ≤ 0`), which overlap at exactly
/// `Δcwnd = 0` — and at that shared point the two postconditions demand
/// contradictory outputs, making the joint property set unsatisfiable as
/// written (consistent with the low deep-buffer `QC_sat` the paper itself
/// reports). The paper's prose describes the intent as *persistent*
/// increase/decrease ("continued past non-decrease", "already decreased"),
/// so this reproduction excludes a small neutral band: `|a| <` this value
/// counts as neither increasing nor decreasing.
pub const ACTION_SIGN_DEAD_ZONE: f64 = 0.05;

/// Sign constraint on the past-action history dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionSign {
    /// Past window adjustments were persistently non-positive
    /// (`Δcwnd ≲ 0`, outside the neutral band).
    NonPositive,
    /// Past window adjustments were persistently non-negative
    /// (`Δcwnd ≳ 0`, outside the neutral band).
    NonNegative,
}

impl ActionSign {
    fn interval(self) -> Interval {
        match self {
            ActionSign::NonPositive => Interval::new(-1.0, -ACTION_SIGN_DEAD_ZONE),
            ActionSign::NonNegative => Interval::new(ACTION_SIGN_DEAD_ZONE, 1.0),
        }
    }
}

/// The precondition `X`: which features are abstracted, and to what ranges.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Precondition {
    /// Normalized queuing-delay range applied to all `k` delay dimensions.
    pub delay: Option<Interval>,
    /// Normalized loss-rate range applied to all `k` loss dimensions.
    pub loss: Option<Interval>,
    /// Sign constraint applied to all `k` past-action dimensions.
    pub past_action: Option<ActionSign>,
    /// Multiplicative noise bound μ: the delay dimensions become
    /// `s·(1 ± μ)` around the concrete state (robustness property).
    pub noise_mu: Option<f64>,
}

/// The postcondition, i.e. the complement of the undesired region `Y`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Postcondition {
    /// `Y = {Δcwnd < 0}`: the controller must not decrease the window.
    NoDecrease,
    /// `Y = {Δcwnd > 0}`: the controller must not increase the window.
    NoIncrease,
    /// `Y = {|cwnd − cwnd_i| / cwnd_i > ε}`: the output under perturbed
    /// inputs must stay within a relative band of the unperturbed output.
    BoundedChange {
        /// The relative band half-width ε.
        eps: f64,
    },
}

/// A complete property `φ(π, X, Y)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Property {
    /// Short identifier used in experiment output ("P1" … "P5" or custom).
    pub name: String,
    /// The precondition `X`.
    pub pre: Precondition,
    /// The postcondition (complement of `Y`).
    pub post: Postcondition,
    /// Relative weight of this property's certified-loss gradient during
    /// training. The paper weighs all properties equally and observes that
    /// the learner then favours the easiest ones (§6.2), suggesting
    /// designers re-weigh; this is that knob. Certificates themselves are
    /// unweighted.
    #[serde(default = "default_weight")]
    pub weight: f64,
}

fn default_weight() -> f64 {
    1.0
}

impl Property {
    /// P1 [shallow buffer, good conditions]: low delay, zero loss, past
    /// non-increase ⇒ do not decrease the window.
    pub fn p1(p: &PropertyParams) -> Property {
        Property {
            name: "P1".into(),
            pre: Precondition {
                delay: Some(Interval::new(0.0, p.q_min_delay)),
                loss: Some(Interval::point(0.0)),
                past_action: Some(ActionSign::NonPositive),
                noise_mu: None,
            },
            post: Postcondition::NoDecrease,
            weight: 1.0,
        }
    }

    /// P2 [shallow buffer, bad conditions]: low delay, high loss, past
    /// non-decrease ⇒ do not increase the window.
    pub fn p2(p: &PropertyParams) -> Property {
        Property {
            name: "P2".into(),
            pre: Precondition {
                delay: Some(Interval::new(0.0, p.q_min_delay)),
                loss: Some(Interval::new(p.p_loss, 1.0)),
                past_action: Some(ActionSign::NonNegative),
                noise_mu: None,
            },
            post: Postcondition::NoIncrease,
            weight: 1.0,
        }
    }

    /// P3 [deep buffer, good conditions]: moderate delay, zero loss, past
    /// non-increase ⇒ do not decrease the window.
    pub fn p3(p: &PropertyParams) -> Property {
        Property {
            name: "P3".into(),
            pre: Precondition {
                delay: Some(Interval::new(0.0, p.q_delay)),
                loss: Some(Interval::point(0.0)),
                past_action: Some(ActionSign::NonPositive),
                noise_mu: None,
            },
            post: Postcondition::NoDecrease,
            weight: 1.0,
        }
    }

    /// P4 case (i) [deep buffer, bad conditions, self-inflicted]: high
    /// delay with past non-decrease ⇒ do not increase further.
    pub fn p4i(p: &PropertyParams) -> Property {
        Property {
            name: "P4i".into(),
            pre: Precondition {
                delay: Some(Interval::new(p.p_delay, 1.0)),
                loss: None,
                past_action: Some(ActionSign::NonNegative),
                noise_mu: None,
            },
            post: Postcondition::NoIncrease,
            weight: 1.0,
        }
    }

    /// P4 case (ii) [deep buffer, bad conditions, cross traffic]: high
    /// delay after past decreases ⇒ do not keep decreasing.
    pub fn p4ii(p: &PropertyParams) -> Property {
        Property {
            name: "P4ii".into(),
            pre: Precondition {
                delay: Some(Interval::new(p.p_delay, 1.0)),
                loss: None,
                past_action: Some(ActionSign::NonPositive),
                noise_mu: None,
            },
            post: Postcondition::NoDecrease,
            weight: 1.0,
        }
    }

    /// P5 [noise robustness]: `±μ` multiplicative noise on the observed
    /// delay must keep the output within `±ε` of the unperturbed output.
    pub fn p5(p: &PropertyParams) -> Property {
        Property {
            name: "P5".into(),
            pre: Precondition {
                delay: None,
                loss: None,
                past_action: None,
                noise_mu: Some(p.mu),
            },
            post: Postcondition::BoundedChange { eps: p.eps },
            weight: 1.0,
        }
    }

    /// The shallow-buffer training set {P1, P2}.
    pub fn shallow_set(p: &PropertyParams) -> Vec<Property> {
        vec![Property::p1(p), Property::p2(p)]
    }

    /// The deep-buffer training set {P3, P4i, P4ii}.
    pub fn deep_set(p: &PropertyParams) -> Vec<Property> {
        vec![Property::p3(p), Property::p4i(p), Property::p4ii(p)]
    }

    /// The robustness training set {P5}.
    pub fn robust_set(p: &PropertyParams) -> Vec<Property> {
        vec![Property::p5(p)]
    }

    /// Builds the abstract input region `X` around a concrete state:
    /// constrained features become their property ranges, everything else
    /// stays at the observed value.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != layout.dim()`.
    pub fn input_region(&self, state: &[f64], layout: StateLayout) -> BoxState {
        assert_eq!(state.len(), layout.dim(), "state does not match layout");
        let mut intervals: Vec<Interval> = state.iter().map(|&x| Interval::point(x)).collect();
        if let Some(d) = self.pre.delay {
            for i in layout.feature_indices(DELAY_IDX) {
                intervals[i] = d;
            }
        }
        if let Some(l) = self.pre.loss {
            for i in layout.feature_indices(LOSS_IDX) {
                intervals[i] = l;
            }
        }
        if let Some(sign) = self.pre.past_action {
            for i in layout.feature_indices(ACTION_IDX) {
                intervals[i] = sign.interval();
            }
        }
        if let Some(mu) = self.pre.noise_mu {
            for i in layout.feature_indices(DELAY_IDX) {
                let c = state[i];
                intervals[i] = Interval::centered(c, c.abs() * mu);
            }
        }
        BoxState::from_intervals(&intervals)
    }

    /// The dimensions [`input_region`](Self::input_region) pins to ranges
    /// that do not depend on the live state — every other dimension keeps
    /// its observed value. `None` when some range is itself built from the
    /// state (the multiplicative noise box), so no part of the region can
    /// be computed ahead of the decision.
    pub fn abstracted_dims(&self, layout: StateLayout) -> Option<Vec<usize>> {
        if self.pre.noise_mu.is_some() {
            return None;
        }
        let abstracted = [
            (self.pre.delay.is_some(), DELAY_IDX),
            (self.pre.loss.is_some(), LOSS_IDX),
            (self.pre.past_action.is_some(), ACTION_IDX),
        ];
        Some(
            abstracted
                .into_iter()
                .filter(|(on, _)| *on)
                .flat_map(|(_, feature)| layout.feature_indices(feature))
                .collect(),
        )
    }

    /// The allowed output interval (the complement of `Y`) in the property's
    /// output space: `Δcwnd` for window-direction properties, the relative
    /// change fraction for robustness.
    pub fn allowed_output(&self) -> Interval {
        match self.post {
            Postcondition::NoDecrease => Interval::new(0.0, f64::INFINITY),
            Postcondition::NoIncrease => Interval::new(f64::NEG_INFINITY, 0.0),
            Postcondition::BoundedChange { eps } => Interval::new(-eps, eps),
        }
    }

    /// The axis along which QC components are sliced: the most recent
    /// step's abstracted delay dimension (all P1–P5 abstract delay).
    pub fn split_axis(&self, layout: StateLayout) -> usize {
        layout.primary_delay_idx()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::FEATURES_PER_STEP;

    fn layout() -> StateLayout {
        StateLayout::new(3)
    }

    fn concrete_state() -> Vec<f64> {
        (0..layout().dim()).map(|i| i as f64 / 100.0).collect()
    }

    #[test]
    fn all_five_properties_instantiate() {
        let p = PropertyParams::default();
        let all = [
            Property::p1(&p),
            Property::p2(&p),
            Property::p3(&p),
            Property::p4i(&p),
            Property::p4ii(&p),
            Property::p5(&p),
        ];
        let names: Vec<&str> = all.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["P1", "P2", "P3", "P4i", "P4ii", "P5"]);
        assert_eq!(Property::shallow_set(&p).len(), 2);
        assert_eq!(Property::deep_set(&p).len(), 3);
        assert_eq!(Property::robust_set(&p).len(), 1);
    }

    #[test]
    fn p1_region_abstracts_delay_loss_action() {
        let p = PropertyParams::default();
        let prop = Property::p1(&p);
        let state = concrete_state();
        let region = prop.input_region(&state, layout());
        for step in 0..3 {
            let d = region.dim_interval(layout().idx(step, DELAY_IDX));
            assert!((d.lo - 0.0).abs() < 1e-12 && (d.hi - 0.01).abs() < 1e-12);
            let l = region.dim_interval(layout().idx(step, LOSS_IDX));
            assert_eq!(l.width(), 0.0);
            assert!(l.contains(0.0));
            let a = region.dim_interval(layout().idx(step, ACTION_IDX));
            assert!((a.lo - -1.0).abs() < 1e-12 && (a.hi - -ACTION_SIGN_DEAD_ZONE).abs() < 1e-12);
        }
        // Unconstrained features stay concrete.
        let thr = region.dim_interval(layout().idx(1, crate::obs::THR_IDX));
        assert_eq!(thr.width(), 0.0);
        assert!(thr.contains(state[FEATURES_PER_STEP]));
    }

    #[test]
    fn p5_region_is_multiplicative_noise_on_delay() {
        let p = PropertyParams::default();
        let prop = Property::p5(&p);
        let mut state = concrete_state();
        let d_idx = layout().idx(0, DELAY_IDX);
        state[d_idx] = 0.4;
        let region = prop.input_region(&state, layout());
        let d = region.dim_interval(d_idx);
        assert!((d.lo - 0.4 * 0.95).abs() < 1e-12);
        assert!((d.hi - 0.4 * 1.05).abs() < 1e-12);
        // Loss dimensions are untouched for P5.
        let l = region.dim_interval(layout().idx(0, LOSS_IDX));
        assert_eq!(l.width(), 0.0);
    }

    #[test]
    fn abstracted_dims_are_exactly_the_state_independent_ones() {
        let p = PropertyParams::default();
        let a = concrete_state();
        let b: Vec<f64> = a.iter().map(|x| x + 0.5).collect();
        for prop in [Property::p1(&p), Property::p4i(&p)] {
            let dims = prop.abstracted_dims(layout()).expect("static precondition");
            let (ra, rb) = (
                prop.input_region(&a, layout()),
                prop.input_region(&b, layout()),
            );
            for i in 0..layout().dim() {
                let same = ra.dim_interval(i) == rb.dim_interval(i);
                assert_eq!(same, dims.contains(&i), "{} dim {i}", prop.name);
            }
        }
        assert!(Property::p5(&p).abstracted_dims(layout()).is_none());
    }

    #[test]
    fn allowed_outputs() {
        let p = PropertyParams::default();
        let inc = Property::p1(&p).allowed_output();
        assert!(inc.contains(5.0) && !inc.contains(-0.1));
        let dec = Property::p2(&p).allowed_output();
        assert!(dec.contains(-5.0) && !dec.contains(0.1));
        let band = Property::p5(&p).allowed_output();
        assert!(band.contains(0.005) && !band.contains(0.02));
    }

    #[test]
    fn region_contains_the_concrete_state_when_state_satisfies_pre() {
        // A state inside P1's precondition must be inside the region.
        let p = PropertyParams::default();
        let prop = Property::p1(&p);
        let mut state = concrete_state();
        for step in 0..3 {
            state[layout().idx(step, DELAY_IDX)] = 0.005;
            state[layout().idx(step, LOSS_IDX)] = 0.0;
            state[layout().idx(step, ACTION_IDX)] = -0.5;
        }
        let region = prop.input_region(&state, layout());
        assert!(region.contains(&state));
    }

    #[test]
    #[should_panic(expected = "state does not match layout")]
    fn region_rejects_mismatched_state() {
        let p = PropertyParams::default();
        Property::p1(&p).input_region(&[0.0; 5], layout());
    }
}
