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
//!
//! This file is the whole of a property: the certification engines are
//! schedules over **stage** ([`Stage`]), **enclose**
//! (`Verifier::enclose`) and **judge**
//! (the methods of [`Postcondition`]), so a new pre- or postcondition is an
//! edit here alone.

use canopy_absint::{axis_slices, BoxState, Interval};
use serde::{Deserialize, Serialize};

use crate::obs::{StateLayout, ACTION_IDX, DELAY_IDX, LOSS_IDX};
use crate::orca::{cwnd_factor, f_cwnd, f_cwnd_scaled};
use crate::qc::ComponentResult;
use crate::verifier::StepContext;

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
pub(crate) const ACTION_SIGN_DEAD_ZONE: f64 = 0.05;

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

/// Hinge margin for the certified-bound loss, in units of the final
/// layer's **pre-activation** (so an action margin of roughly
/// `tanh(0.2) ≈ 0.2`): direction properties push the relevant bound this
/// far past zero so the certificate holds with slack.
///
/// The hinge lives in pre-activation space deliberately: a policy whose
/// output tanh has saturated (which reward-seeking RL produces quickly)
/// has a vanishing output-side derivative, so a post-activation hinge can
/// never pull it back. The pre-activation bound always carries gradient,
/// and tanh's monotonicity makes the two constraints equivalent.
///
/// The margin is kept small: the certificate only needs the bound's sign,
/// and a large margin trains needlessly aggressive window swings
/// (`a = ±0.2` is already a ±32% change per interval) that cost
/// average-case utilization through bang-bang oscillation.
const QC_HINGE_MARGIN: f64 = 0.05;

/// **Judge.** What a postcondition demands of an action: its reference
/// window, its output quantity (abstract and concrete), verdict and loss.
impl Postcondition {
    /// The allowed output interval (the complement of `Y`) in the output
    /// space of [`output`](Self::output): `Δcwnd` for window-direction
    /// properties, the relative change fraction for robustness.
    pub fn allowed_output(self) -> Interval {
        match self {
            Postcondition::NoDecrease => Interval::new(0.0, f64::INFINITY),
            Postcondition::NoIncrease => Interval::new(f64::NEG_INFINITY, 0.0),
            Postcondition::BoundedChange { eps } => Interval::new(-eps, eps),
        }
    }

    /// The window the output quantity is measured against, once per
    /// (decision, property): `cwnd_{i−1}` for the direction properties; for
    /// robustness the *unperturbed* `cwnd_i`, Eq. (1) at `action()` — the
    /// actor's concrete output at `ctx.state`.
    pub(crate) fn reference_cwnd(self, ctx: &StepContext, action: impl FnOnce() -> f64) -> f64 {
        match self {
            Postcondition::NoDecrease | Postcondition::NoIncrease => ctx.cwnd_prev,
            Postcondition::BoundedChange { .. } => f_cwnd(action(), ctx.cwnd_tcp),
        }
    }

    /// The concrete output quantity of one action: `Δcwnd = cwnd −
    /// cwnd_{i−1}`, or `(cwnd − cwnd_i) / cwnd_i`.
    pub fn output(self, action: f64, ctx: &StepContext, reference: f64) -> f64 {
        let delta = f_cwnd(action, ctx.cwnd_tcp) - reference;
        match self {
            Postcondition::NoDecrease | Postcondition::NoIncrease => delta,
            Postcondition::BoundedChange { .. } => delta / reference.max(f64::MIN_POSITIVE),
        }
    }

    /// Whether one concrete action lands in `Y` — a genuine counterexample.
    pub(crate) fn violated_by(self, action: f64, ctx: &StepContext, reference: f64) -> bool {
        !self
            .allowed_output()
            .contains(self.output(action, ctx, reference))
    }

    /// One component verdict (Eq. 5–6) from its partition slice and its
    /// enclosed action interval: Eq. (5), then the arithmetic of
    /// [`output`](Self::output) outward-rounded, against the allowed region.
    pub(crate) fn judge(
        self,
        input_slice: Interval,
        action: Interval,
        ctx: &StepContext,
        reference: f64,
    ) -> ComponentResult {
        self.judge_factor(input_slice, cwnd_factor(action), ctx, reference)
    }

    /// [`judge`](Self::judge) from the action's [`cwnd_factor`], which
    /// does not depend on the flow: Eq. (5) is that factor scaled by the
    /// flow's `cwnd_tcp`.
    pub(crate) fn judge_factor(
        self,
        input_slice: Interval,
        factor: Interval,
        ctx: &StepContext,
        reference: f64,
    ) -> ComponentResult {
        let delta = f_cwnd_scaled(factor, ctx.cwnd_tcp).sub(Interval::point(reference));
        let output = match self {
            Postcondition::NoDecrease | Postcondition::NoIncrease => delta,
            Postcondition::BoundedChange { .. } => {
                delta.scale(1.0 / reference.max(f64::MIN_POSITIVE))
            }
        };
        ComponentResult::new(input_slice, output, self.allowed_output())
    }

    /// The certified-bound training loss on the final layer's
    /// pre-activation bound `[z_lo, z_hi]` (see `QC_HINGE_MARGIN` for why
    /// there): `(loss, ∂loss/∂z_lo, ∂loss/∂z_hi)`, the derivatives scaled
    /// by `weight` and both zero when the hinge is inactive.
    pub(crate) fn hinge(self, z_lo: f64, z_hi: f64, weight: f64) -> (f64, f64, f64) {
        let (loss, g_lo, g_hi) = match self {
            // Want z_lo ≥ margin (⟺ a_lo ≥ tanh(margin) > 0):
            // loss = relu(margin − z_lo).
            Postcondition::NoDecrease => (QC_HINGE_MARGIN - z_lo, -weight, 0.0),
            // Want z_hi ≤ −margin: loss = relu(z_hi + margin).
            Postcondition::NoIncrease => (z_hi + QC_HINGE_MARGIN, 0.0, weight),
            // Want 2^(2(a−a₀)) ∈ [1−ε, 1+ε] for all a in the bound. tanh is
            // 1-Lipschitz, so bounding the pre-activation width by the allowed
            // action width (log2(1+ε) − log2(1−ε)) / 2 suffices.
            Postcondition::BoundedChange { eps } => {
                let allowed = ((1.0 + eps).log2() - (1.0 - eps).log2()) / 2.0;
                ((z_hi - z_lo) - allowed, -weight, weight)
            }
        };
        if loss > 0.0 {
            (loss, g_lo, g_hi)
        } else {
            (0.0, 0.0, 0.0)
        }
    }
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

    /// [`Postcondition::allowed_output`] of this property.
    pub fn allowed_output(&self) -> Interval {
        self.post.allowed_output()
    }

    /// The axis along which QC components are sliced: the most recent
    /// step's abstracted delay dimension (all P1–P5 abstract delay).
    pub fn split_axis(&self, layout: StateLayout) -> usize {
        layout.primary_delay_idx()
    }

    /// Compiles the precondition for boxes cut into `n_components` along
    /// the partition axis (the lo/hi writer stages the whole region).
    pub fn stage(&self, layout: StateLayout, n_components: usize) -> Stage {
        let axis = self.split_axis(layout);
        let zero = self.input_region(&vec![0.0; layout.dim()], layout);
        // The template needs the partition axis pinned too: a concrete
        // axis is sliced around the live value.
        let live = self
            .abstracted_dims(layout)
            .filter(|pinned| pinned.contains(&axis))
            .map(|pinned| (0..layout.dim()).filter(|i| !pinned.contains(i)).collect());
        let (zero_lo, zero_hi) = zero.to_intervals().iter().map(|i| (i.lo, i.hi)).unzip();
        Stage {
            property: self.clone(),
            layout,
            axis,
            live,
            zero_lo,
            zero_hi,
            parts: zero.split_dim(axis, n_components),
        }
    }
}

/// **Stage.** A property's precondition compiled against a layout
/// ([`Property::stage`]): the decision-independent part of writing its
/// input boxes. P1–P4 pin their variables of interest to constant ranges,
/// so a box is the region around an all-zero state with the remaining
/// dimensions set to the live state; a region whose ranges are built from
/// the state (P5's noise box), or whose partition axis stays concrete, is
/// rebuilt per decision. Both routes write the bits of
/// [`Property::input_region`], point → box → interval round trips included.
#[derive(Clone, Debug)]
pub struct Stage {
    property: Property,
    layout: StateLayout,
    axis: usize,
    /// The dimensions that take the live state's value; `None` when the
    /// region is rebuilt from the live state.
    live: Option<Vec<usize>>,
    /// The region around an all-zero state: as bound rows, and cut into
    /// the partition's components.
    zero_lo: Vec<f64>,
    zero_hi: Vec<f64>,
    parts: Vec<BoxState>,
}

impl Stage {
    /// The components of the region around an all-zero state, ascending
    /// along the partition axis, whose deviations every box of this stage
    /// shares; `None` when the region is rebuilt per decision.
    pub(crate) fn templates(&self) -> Option<&[BoxState]> {
        self.live.as_ref().map(|_| &self.parts[..])
    }

    /// Writes component `k` of the region around `state` in
    /// centre/deviation form; returns its slice of the partition axis.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not match the layout.
    pub(crate) fn write_center_dev(
        &self,
        state: &[f64],
        k: usize,
        c: &mut [f64],
        d: &mut [f64],
    ) -> Interval {
        assert_eq!(state.len(), c.len(), "state does not match layout");
        let axis = self.axis;
        match &self.live {
            Some(live) => {
                c.copy_from_slice(&self.parts[k].center);
                d.copy_from_slice(&self.parts[k].dev);
                for &i in live {
                    c[i] = Interval::point(state[i]).center();
                }
            }
            None => {
                let region = self.property.input_region(state, self.layout);
                let slice = axis_slices(region.dim_interval(axis), self.parts.len())
                    .nth(k)
                    .expect("component index below n");
                c.copy_from_slice(&region.center);
                d.copy_from_slice(&region.dev);
                c[axis] = slice.center();
                d[axis] = slice.deviation();
            }
        }
        Interval::centered(c[axis], d[axis])
    }

    /// Writes the whole region around `state` as lower/upper bound rows.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not match the layout.
    pub(crate) fn write_lo_hi(&self, state: &[f64], lo: &mut [f64], hi: &mut [f64]) {
        assert_eq!(state.len(), lo.len(), "state does not match layout");
        match &self.live {
            Some(live) => {
                lo.copy_from_slice(&self.zero_lo);
                hi.copy_from_slice(&self.zero_hi);
                for &i in live {
                    let point = Interval::point(state[i]);
                    let iv = Interval::centered(point.center(), point.deviation());
                    (lo[i], hi[i]) = (iv.lo, iv.hi);
                }
            }
            None => {
                let region = self.property.input_region(state, self.layout);
                for (i, iv) in region.to_intervals().iter().enumerate() {
                    (lo[i], hi[i]) = (iv.lo, iv.hi);
                }
            }
        }
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

    /// Both writers of a compiled precondition reproduce `input_region`
    /// bit for bit — pinned everywhere (P1, P4i), rebuilt from the state
    /// (P5), and pinned except on the partition axis.
    #[test]
    fn stage_writes_the_bits_of_input_region() {
        let p = PropertyParams::default();
        let mut loss_only = Property::p2(&p);
        loss_only.pre.delay = None;
        let state: Vec<f64> = concrete_state().iter().map(|x| x * 3.0 - 0.2).collect();
        let (n, dim) = (4, layout().dim());
        for prop in [
            Property::p1(&p),
            Property::p4i(&p),
            Property::p5(&p),
            loss_only,
        ] {
            let stage = prop.stage(layout(), n);
            let axis = prop.split_axis(layout());
            let region = prop.input_region(&state, layout());
            let pinned = prop.abstracted_dims(layout());
            let axis_pinned = pinned.is_some_and(|dims| dims.contains(&axis));
            assert_eq!(stage.templates().is_some(), axis_pinned, "{}", prop.name);

            let parts = region.split_dim(axis, n);
            for (k, part) in parts.iter().enumerate() {
                let (mut c, mut d) = (vec![f64::NAN; dim], vec![f64::NAN; dim]);
                let slice = stage.write_center_dev(&state, k, &mut c, &mut d);
                assert_eq!(
                    (&c, &d),
                    (&part.center, &part.dev),
                    "{} part {k}",
                    prop.name
                );
                assert_eq!(slice, part.dim_interval(axis));
            }
            let (mut lo, mut hi) = (vec![f64::NAN; dim], vec![f64::NAN; dim]);
            stage.write_lo_hi(&state, &mut lo, &mut hi);
            let want = region.to_intervals();
            assert!(want
                .iter()
                .zip(lo.iter().zip(&hi))
                .all(|(iv, (&l, &h))| (iv.lo, iv.hi) == (l, h)));
        }
    }

    /// The two sides of `judge` agree: the abstract output quantity of an
    /// action interval contains the concrete quantity of every action in
    /// it, a concrete action violates exactly when its quantity leaves
    /// `allowed_output()`, and so a satisfied verdict admits no violation.
    #[test]
    fn abstract_and_concrete_judgements_agree() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(24);
        let posts = [
            Postcondition::NoDecrease,
            Postcondition::NoIncrease,
            Postcondition::BoundedChange { eps: 0.01 },
            Postcondition::BoundedChange { eps: 0.4 },
        ];
        let (mut satisfied, mut violated) = (0, 0);
        for case in 0..2_000 {
            let post = posts[case % posts.len()];
            let ctx = StepContext {
                state: Vec::new(),
                cwnd_tcp: rng.random_range(1.0..3_000.0),
                cwnd_prev: rng.random_range(2.0..3_000.0),
            };
            let lo = rng.random_range(-1.2..1.2);
            let hi: f64 = lo + rng.random_range(0.0..0.3) * rng.random_range(0.0..1.0);
            let reference = post.reference_cwnd(&ctx, || rng.random_range(lo..=hi));
            let slice = Interval::new(0.0, 1.0);
            let verdict = post.judge(slice, Interval::new(lo, hi), &ctx, reference);
            satisfied += verdict.satisfied as usize;
            for i in 0..=8 {
                let action = match i {
                    0 => lo,
                    1 => hi,
                    _ => rng.random_range(lo..=hi),
                };
                let output = post.output(action, &ctx, reference);
                assert!(
                    verdict.output.contains(output),
                    "{post:?}: {output} escapes {:?} at action {action} in [{lo}, {hi}]",
                    verdict.output
                );
                let violates = post.violated_by(action, &ctx, reference);
                assert_eq!(violates, !post.allowed_output().contains(output));
                assert!(
                    !(verdict.satisfied && violates),
                    "{post:?}: proof with a violation"
                );
                violated += violates as usize;
            }
        }
        // Both outcomes are exercised, not vacuously absent.
        assert!(
            satisfied > 100 && violated > 1_000,
            "{satisfied} / {violated}"
        );
    }

    #[test]
    #[should_panic(expected = "state does not match layout")]
    fn region_rejects_mismatched_state() {
        let p = PropertyParams::default();
        Property::p1(&p).input_region(&[0.0; 5], layout());
    }
}
