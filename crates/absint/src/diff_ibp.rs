//! Differentiable interval bound propagation (IBP training).
//!
//! The certificates in `canopy-core` need more than a score: training must
//! be able to *move* the bounds. Following the IBP-training line of work
//! the paper builds on (Gowal et al. 2018; Zhang et al. 2019), this module
//! computes the network's output bounds as a differentiable function of the
//! weights and backpropagates a loss on those bounds into the same gradient
//! accumulators the optimizer consumes — so a hinge on "the lower action
//! bound must stay above 0 on this input region" directly reshapes the
//! policy network.
//!
//! Bound semantics here are the plain (round-to-nearest) IBP used for
//! training; the *sound* outward-rounded propagation for proofs lives in
//! [`crate::ibp`]. The two agree to floating-point slack.

use canopy_nn::{Activation, Matrix, Mlp};

/// Output units whose two accumulators the forward kernel holds in
/// registers across the fan-in reduction.
const LANES: usize = 8;

/// One dense layer as the engine reads it, with the bounds it produced.
#[derive(Clone, Debug)]
struct BoundLayer {
    /// Transposed weights, `in × out`: unit stride across output units.
    wt: Matrix,
    bias: Vec<f64>,
    activation: Activation,
    /// Pre- and post-activation `[lower, upper]` bounds, one row per box.
    pre: [Matrix; 2],
    post: [Matrix; 2],
}

/// The batched differentiable-IBP engine — the one implementation of the
/// bound computation and its gradient.
///
/// [`bind`](Self::bind) it to a network, [`stage`](Self::stage) one input
/// box per row, run [`forward`](Self::forward), read the bounds, then call
/// [`backward_row`](Self::backward_row) for every row whose loss is active.
/// All buffers are resident, so steady-state use allocates nothing.
///
/// **Bitwise contract.** Every row carries exactly the bounds the one-row
/// [`forward_bounds`] computes for the same box: each bound is the bias
/// plus the ascending-`j` sum of unfused `w·x` products, the `w ≥ 0` choice
/// between the two input bounds made by a select instead of a branch.
/// `backward_row` adds one term per weight, so calling it for rows in
/// ascending order accumulates into `grad_weights` exactly as a per-sample
/// loop over those rows would.
#[derive(Clone, Debug, Default)]
pub struct DiffIbp {
    layers: Vec<BoundLayer>,
    /// The staged `[lower, upper]` input bounds.
    input: [Matrix; 2],
}

/// Gradient ping-pong buffers of [`DiffIbp::backward_row`]; after a call
/// `lo`/`hi` hold the gradients with respect to the row's input bounds.
#[derive(Clone, Debug, Default)]
pub struct BoundGrads {
    /// Gradient with respect to the input lower bounds.
    pub lo: Vec<f64>,
    /// Gradient with respect to the input upper bounds.
    pub hi: Vec<f64>,
    next_lo: Vec<f64>,
    next_hi: Vec<f64>,
}

impl DiffIbp {
    /// Binds the engine to `net`'s current weights (transposing them into
    /// resident buffers). Call again whenever the weights change.
    pub fn bind(&mut self, net: &Mlp) {
        self.layers.resize_with(net.layers().len(), || BoundLayer {
            wt: Matrix::default(),
            bias: Vec::new(),
            activation: Activation::Identity,
            pre: Default::default(),
            post: Default::default(),
        });
        for (bound, layer) in self.layers.iter_mut().zip(net.layers()) {
            layer.weights.transpose_into(&mut bound.wt);
            bound.bias.clone_from(&layer.bias);
            bound.activation = layer.activation;
        }
    }

    /// Sizes the input staging matrices to `n` boxes of the bound network's
    /// input width and hands them out (lower bounds, upper bounds) for the
    /// caller to fill row by row; contents are unspecified until written.
    pub fn stage(&mut self, n: usize) -> (&mut Matrix, &mut Matrix) {
        let dim = self.layers.first().map_or(0, |l| l.wt.rows());
        let [lo, hi] = &mut self.input;
        lo.reshape(n, dim);
        hi.reshape(n, dim);
        (lo, hi)
    }

    /// The number of staged boxes.
    pub fn rows(&self) -> usize {
        self.input[0].rows()
    }

    /// Propagates every staged box through the bound network.
    ///
    /// # Panics
    ///
    /// Panics if any staged `lo[i] > hi[i]` (or either is NaN).
    pub fn forward(&mut self) {
        let [lo, hi] = &self.input;
        assert!(
            lo.as_slice().iter().zip(hi.as_slice()).all(|(l, h)| l <= h),
            "inverted input bounds"
        );
        let n = self.rows();
        for i in 0..self.layers.len() {
            let (done, rest) = self.layers.split_at_mut(i);
            let [in_lo, in_hi] = done.last().map_or(&self.input, |prev| &prev.post);
            let layer = &mut rest[0];
            for m in layer.pre.iter_mut().chain(&mut layer.post) {
                m.reshape(n, layer.bias.len());
            }
            let ([zl, zh], [al, ah]) = (&mut layer.pre, &mut layer.post);
            for r in 0..n {
                let (lo, hi) = (in_lo.row(r), in_hi.row(r));
                affine_bounds(&layer.wt, &layer.bias, lo, hi, zl.row_mut(r), zh.row_mut(r));
                for (post, pre) in [(&mut *al, &*zl), (&mut *ah, &*zh)] {
                    for (a, &z) in post.row_mut(r).iter_mut().zip(pre.row(r)) {
                        *a = layer.activation.apply(z);
                    }
                }
            }
        }
    }

    /// `(lower, upper)` output bounds of staged box `row`, after the output
    /// activation.
    pub fn out_bounds(&self, row: usize) -> (&[f64], &[f64]) {
        let [lo, hi] = &self.layers.last().expect("at least one layer").post;
        (lo.row(row), hi.row(row))
    }

    /// The final layer's **pre-activation** bounds of staged box `row`.
    ///
    /// Hinge losses for certified training are best expressed here: a
    /// saturated output tanh has a vanishing derivative, so a loss on the
    /// post-activation bound cannot pull a saturated policy back, while
    /// the pre-activation bound always carries gradient.
    pub fn pre_out_bounds(&self, row: usize) -> (&[f64], &[f64]) {
        let [lo, hi] = &self.layers.last().expect("at least one layer").pre;
        (lo.row(row), hi.row(row))
    }

    /// Backpropagates a loss gradient on staged box `row`'s output bounds
    /// into `net`'s gradient accumulators (adding on top of whatever is
    /// there, so the certified loss composes with a policy-gradient
    /// update), leaving the input-bound gradients in `grads`. `net` must be
    /// the network the engine is bound to. With `from_pre_activation` the
    /// gradients are with respect to the final layer's pre-activation
    /// bounds, skipping the output activation's derivative.
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes mismatch the network output.
    pub fn backward_row(
        &self,
        net: &mut Mlp,
        row: usize,
        grad_out_lo: &[f64],
        grad_out_hi: &[f64],
        from_pre_activation: bool,
        grads: &mut BoundGrads,
    ) {
        assert_eq!(grad_out_lo.len(), net.output_dim(), "grad shape mismatch");
        assert_eq!(grad_out_hi.len(), net.output_dim(), "grad shape mismatch");
        let BoundGrads {
            lo: g_lo,
            hi: g_hi,
            next_lo,
            next_hi,
        } = grads;
        g_lo.clear();
        g_lo.extend_from_slice(grad_out_lo);
        g_hi.clear();
        g_hi.extend_from_slice(grad_out_hi);
        let n_layers = self.layers.len();
        for i in (0..n_layers).rev() {
            let layer = &mut net.layers_mut()[i];
            layer.ensure_grads();
            // Through the activation (skipped at the top when the caller's
            // gradient is already with respect to the pre-activation).
            if !(from_pre_activation && i == n_layers - 1) {
                let bound = &self.layers[i];
                for (g, side) in [(&mut *g_lo, 0), (&mut *g_hi, 1)] {
                    let (pre, post) = (bound.pre[side].row(row), bound.post[side].row(row));
                    for ((g, &z), &a) in g.iter_mut().zip(pre).zip(post) {
                        *g *= layer.activation.derivative(z, a);
                    }
                }
            }
            let [in_lo, in_hi] = match i {
                0 => &self.input,
                _ => &self.layers[i - 1].post,
            };
            let fan_in = layer.fan_in();
            let (in_lo, in_hi) = (in_lo.row(row), in_hi.row(row));
            for next in [&mut *next_lo, &mut *next_hi] {
                next.clear();
                next.resize(fan_in, 0.0);
            }
            for (r, (&gl, &gh)) in g_lo.iter().zip(&*g_hi).enumerate() {
                layer.grad_bias[r] += gl + gh;
                let (w, gw) = (layer.weights.row(r), layer.grad_weights.row_mut(r));
                backward_unit(w, gl, gh, in_lo, in_hi, gw, next_lo, next_hi);
            }
            std::mem::swap(g_lo, next_lo);
            std::mem::swap(g_hi, next_hi);
        }
    }
}

/// One output unit's share of the backward pass: its weight row `w` and
/// bound gradients `[g_lo, g_hi]` against the layer's input bounds `x`,
/// added into the unit's weight-gradient row `gw` and the input-bound
/// gradients `next`. A function of its own so the slices are provably
/// disjoint and the loop vectorizes.
#[allow(clippy::too_many_arguments)]
fn backward_unit(
    w: &[f64],
    gl: f64,
    gh: f64,
    x_lo: &[f64],
    x_hi: &[f64],
    gw: &mut [f64],
    next_lo: &mut [f64],
    next_hi: &mut [f64],
) {
    let n = w.len();
    let (x_lo, x_hi, gw) = (&x_lo[..n], &x_hi[..n], &mut gw[..n]);
    let (next_lo, next_hi) = (&mut next_lo[..n], &mut next_hi[..n]);
    for j in 0..n {
        // lo' uses (w⁺·lo + w⁻·hi); hi' uses (w⁺·hi + w⁻·lo): a negative
        // weight swaps which bound each gradient reaches. Selecting the
        // gradients, not the inputs, keeps every load unconditional.
        let (to_lo, to_hi) = if w[j] >= 0.0 { (gl, gh) } else { (gh, gl) };
        gw[j] += to_lo * x_lo[j] + to_hi * x_hi[j];
        next_lo[j] += to_lo * w[j];
        next_hi[j] += to_hi * w[j];
    }
}

/// `zl = W⁺·lo + W⁻·hi + b`, `zh = W⁺·hi + W⁻·lo + b` for one box, `wt`
/// being `Wᵀ`. Vectorized across output units; each unit's reduction runs
/// over the inputs in ascending order with an unfused multiply then add.
fn affine_bounds(
    wt: &Matrix,
    bias: &[f64],
    lo: &[f64],
    hi: &[f64],
    zl: &mut [f64],
    zh: &mut [f64],
) {
    /// `L` adjacent output units, their accumulators held in registers.
    #[inline(always)]
    fn reduce<const L: usize>(
        wt: &Matrix,
        at: usize,
        lo: &[f64],
        hi: &[f64],
        bias: &[f64],
    ) -> [[f64; L]; 2] {
        let bias: [f64; L] = bias[at..at + L].try_into().expect("L biases");
        let (mut zl, mut zh) = (bias, bias);
        for (j, (&l, &h)) in lo.iter().zip(hi).enumerate() {
            let w: &[f64; L] = wt.row(j)[at..at + L].try_into().expect("L weights");
            for k in 0..L {
                let (for_lo, for_hi) = if w[k] >= 0.0 { (l, h) } else { (h, l) };
                zl[k] += w[k] * for_lo;
                zh[k] += w[k] * for_hi;
            }
        }
        [zl, zh]
    }
    let mut at = 0;
    while at + LANES <= bias.len() {
        let [l, h] = reduce::<LANES>(wt, at, lo, hi, bias);
        zl[at..at + LANES].copy_from_slice(&l);
        zh[at..at + LANES].copy_from_slice(&h);
        at += LANES;
    }
    for at in at..bias.len() {
        [[zl[at]], [zh[at]]] = reduce::<1>(wt, at, lo, hi, bias);
    }
}

/// The bounds of one box, from [`forward_bounds`], consumed by
/// [`backward_bounds`]: a one-row [`DiffIbp`].
#[derive(Clone, Debug)]
pub struct BoundsTrace(DiffIbp);

impl BoundsTrace {
    /// The output lower bounds.
    pub fn out_lo(&self) -> &[f64] {
        self.0.out_bounds(0).0
    }

    /// The output upper bounds.
    pub fn out_hi(&self) -> &[f64] {
        self.0.out_bounds(0).1
    }

    /// The final layer's **pre-activation** lower bounds (see
    /// [`DiffIbp::pre_out_bounds`]).
    pub fn pre_out_lo(&self) -> &[f64] {
        self.0.pre_out_bounds(0).0
    }

    /// The final layer's pre-activation upper bounds.
    pub fn pre_out_hi(&self) -> &[f64] {
        self.0.pre_out_bounds(0).1
    }
}

/// Propagates an input box `[lo, hi]` through the network, returning the
/// output bounds and the trace needed for the backward pass.
///
/// For an affine layer, `lo' = W⁺·lo + W⁻·hi + b` and
/// `hi' = W⁺·hi + W⁻·lo + b` (`W⁺`/`W⁻` the positive/negative parts);
/// monotone activations map bounds to bounds.
///
/// # Panics
///
/// Panics if `lo`/`hi` lengths mismatch the network input, or any
/// `lo[i] > hi[i]`.
pub fn forward_bounds(net: &Mlp, lo: &[f64], hi: &[f64]) -> BoundsTrace {
    assert_eq!(lo.len(), net.input_dim(), "lower-bound shape mismatch");
    assert_eq!(hi.len(), net.input_dim(), "upper-bound shape mismatch");
    let mut engine = DiffIbp::default();
    engine.bind(net);
    let (in_lo, in_hi) = engine.stage(1);
    in_lo.set_row(0, lo);
    in_hi.set_row(0, hi);
    engine.forward();
    BoundsTrace(engine)
}

/// Backpropagates a loss gradient on the output bounds into the network's
/// gradient accumulators (adding on top of whatever is there, so the
/// certified loss composes with a policy-gradient update), and returns the
/// gradients with respect to the input bounds.
///
/// # Panics
///
/// Panics if gradient shapes mismatch the network output.
pub fn backward_bounds(
    net: &mut Mlp,
    trace: &BoundsTrace,
    grad_out_lo: &[f64],
    grad_out_hi: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let mut grads = BoundGrads::default();
    let engine = &trace.0;
    engine.backward_row(net, 0, grad_out_lo, grad_out_hi, false, &mut grads);
    (grads.lo, grads.hi)
}

/// Like [`backward_bounds`], but the gradients are with respect to the
/// final layer's **pre-activation** bounds (see
/// [`BoundsTrace::pre_out_lo`]), skipping the output activation's
/// derivative — the entry point certified training uses to stay clear of
/// tanh saturation.
pub fn backward_bounds_pre(
    net: &mut Mlp,
    trace: &BoundsTrace,
    grad_pre_lo: &[f64],
    grad_pre_hi: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    let mut grads = BoundGrads::default();
    let engine = &trace.0;
    engine.backward_row(net, 0, grad_pre_lo, grad_pre_hi, true, &mut grads);
    (grads.lo, grads.hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopy_nn::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64, widths: &[usize], act: Activation) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(&mut rng, widths, act)
    }

    #[test]
    fn forward_bounds_match_sound_ibp() {
        // The training-time bounds must agree with the sound propagation
        // up to its deliberate outward rounding.
        let net = net(0, &[3, 16, 16, 1], Activation::Tanh);
        let lo = [0.0, -0.5, 0.25];
        let hi = [0.5, 0.0, 0.25];
        let trace = forward_bounds(&net, &lo, &hi);
        let boxed = crate::boxdom::BoxState::from_intervals(&[
            crate::interval::Interval::new(lo[0], hi[0]),
            crate::interval::Interval::new(lo[1], hi[1]),
            crate::interval::Interval::new(lo[2], hi[2]),
        ]);
        let sound = crate::ibp::propagate_mlp(&net, &boxed).dim_interval(0);
        assert!((trace.out_lo()[0] - sound.lo).abs() < 1e-9);
        assert!((trace.out_hi()[0] - sound.hi).abs() < 1e-9);
        // And the sound interval contains the training interval.
        assert!(sound.lo <= trace.out_lo()[0] + 1e-12);
        assert!(sound.hi >= trace.out_hi()[0] - 1e-12);
    }

    #[test]
    fn degenerate_box_equals_forward() {
        let net = net(1, &[4, 8, 2], Activation::Tanh);
        let x = [0.1, -0.3, 0.7, 0.0];
        let trace = forward_bounds(&net, &x, &x);
        let y = net.forward(&x);
        for (k, &yk) in y.iter().enumerate() {
            assert!((trace.out_lo()[k] - yk).abs() < 1e-12);
            assert!((trace.out_hi()[k] - yk).abs() < 1e-12);
        }
    }

    /// The load-bearing test: analytic bound gradients match central
    /// finite differences for every weight and bias.
    #[test]
    fn bound_gradients_match_finite_differences() {
        for act in [Activation::Tanh, Activation::Relu] {
            let mut network = net(2, &[3, 8, 8, 1], act);
            let lo = [0.0, -0.4, 0.2];
            let hi = [0.3, -0.1, 0.6];
            // Loss = 2·hi_out − 3·lo_out (arbitrary linear functional).
            let loss = |n: &Mlp| {
                let t = forward_bounds(n, &lo, &hi);
                2.0 * t.out_hi()[0] - 3.0 * t.out_lo()[0]
            };
            network.zero_grads();
            let trace = forward_bounds(&network, &lo, &hi);
            backward_bounds(&mut network, &trace, &[-3.0], &[2.0]);
            let analytic = network.grads_flat();
            let params = network.params_flat();
            let eps = 1e-6;
            let mut max_err: f64 = 0.0;
            for i in 0..params.len() {
                let mut probe = network.clone();
                let mut p = params.clone();
                p[i] += eps;
                probe.set_params_flat(&p);
                let up = loss(&probe);
                p[i] -= 2.0 * eps;
                probe.set_params_flat(&p);
                let down = loss(&probe);
                let numeric = (up - down) / (2.0 * eps);
                let err = (numeric - analytic[i]).abs();
                // Kinks (w crossing 0, ReLU pre-activation crossing 0) have
                // subgradients; allow rare small mismatches there.
                if err > max_err {
                    max_err = err;
                }
            }
            assert!(max_err < 1e-4, "{act:?}: max gradient error {max_err}");
        }
    }

    #[test]
    fn input_bound_gradients_match_finite_differences() {
        let mut network = net(3, &[2, 8, 1], Activation::Tanh);
        let lo = [0.0, -0.5];
        let hi = [0.5, 0.5];
        network.zero_grads();
        let trace = forward_bounds(&network, &lo, &hi);
        let (g_lo, g_hi) = backward_bounds(&mut network, &trace, &[1.0], &[1.0]);
        let eps = 1e-6;
        let loss = |lo: &[f64; 2], hi: &[f64; 2]| {
            let t = forward_bounds(&network, lo, hi);
            t.out_lo()[0] + t.out_hi()[0]
        };
        for i in 0..2 {
            let mut lp = lo;
            lp[i] += eps;
            let mut lm = lo;
            lm[i] -= eps;
            let numeric = (loss(&lp, &hi) - loss(&lm, &hi)) / (2.0 * eps);
            assert!((numeric - g_lo[i]).abs() < 1e-5, "lo[{i}]");
            let mut hp = hi;
            hp[i] += eps;
            let mut hm = hi;
            hm[i] -= eps;
            let numeric = (loss(&lo, &hp) - loss(&lo, &hm)) / (2.0 * eps);
            assert!((numeric - g_hi[i]).abs() < 1e-5, "hi[{i}]");
        }
    }

    #[test]
    fn hinge_descent_raises_lower_bound() {
        // Minimizing relu(margin − lo_out) by gradient descent must push
        // the certified lower bound up — the exact mechanism Canopy's
        // certified training relies on.
        let mut network = net(4, &[3, 16, 1], Activation::Tanh);
        let lo = [0.0, 0.0, 0.0];
        let hi = [0.2, 0.2, 0.2];
        let margin = 0.3;
        let bound = |n: &Mlp| forward_bounds(n, &lo, &hi).out_lo()[0];
        let before = bound(&network);
        let mut opt = canopy_nn::Adam::new(network.param_count(), 5e-3);
        for _ in 0..200 {
            network.zero_grads();
            let trace = forward_bounds(&network, &lo, &hi);
            let l = trace.out_lo()[0];
            if l < margin {
                // d relu(margin − lo)/d lo = −1.
                backward_bounds(&mut network, &trace, &[-1.0], &[0.0]);
            }
            opt.step(&mut network, 1.0);
        }
        let after = bound(&network);
        assert!(
            after > before && after > margin - 0.05,
            "lower bound before {before:.4}, after {after:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "inverted input bounds")]
    fn rejects_inverted_bounds() {
        let network = net(5, &[2, 2], Activation::Identity);
        forward_bounds(&network, &[1.0, 0.0], &[0.0, 0.0]);
    }

    /// Pre-activation gradients must also match finite differences.
    #[test]
    fn pre_activation_gradients_match_finite_differences() {
        let mut network = net(6, &[3, 8, 1], Activation::Tanh);
        let lo = [0.0, -0.4, 0.2];
        let hi = [0.3, -0.1, 0.6];
        let loss = |n: &Mlp| {
            let t = forward_bounds(n, &lo, &hi);
            t.pre_out_hi()[0] - 2.0 * t.pre_out_lo()[0]
        };
        network.zero_grads();
        let trace = forward_bounds(&network, &lo, &hi);
        backward_bounds_pre(&mut network, &trace, &[-2.0], &[1.0]);
        let analytic = network.grads_flat();
        let params = network.params_flat();
        let eps = 1e-6;
        let mut max_err: f64 = 0.0;
        for i in 0..params.len() {
            let mut probe = network.clone();
            let mut p = params.clone();
            p[i] += eps;
            probe.set_params_flat(&p);
            let up = loss(&probe);
            p[i] -= 2.0 * eps;
            probe.set_params_flat(&p);
            let down = loss(&probe);
            max_err = max_err.max(((up - down) / (2.0 * eps) - analytic[i]).abs());
        }
        assert!(max_err < 1e-4, "max gradient error {max_err}");
    }

    /// The saturation scenario that motivates the pre-activation hinge: a
    /// policy pushed deep into tanh saturation still receives usable
    /// gradient through the pre-activation bound, and descent pulls its
    /// certified upper bound negative.
    #[test]
    fn pre_activation_hinge_recovers_saturated_policy() {
        let mut network = net(7, &[3, 16, 1], Activation::Tanh);
        // Saturate: huge positive output bias.
        let n_layers = network.layers().len();
        network.layers_mut()[n_layers - 1].bias[0] = 8.0;
        let lo = [0.0, 0.0, 0.0];
        let hi = [0.5, 0.5, 0.5];
        let out_hi = |n: &Mlp| forward_bounds(n, &lo, &hi).out_hi()[0];
        assert!(out_hi(&network) > 0.999, "policy starts saturated");
        // Adam's per-step movement is ≈ lr under a consistent gradient, so
        // crossing from bias +8 to below the margin needs lr·steps ≫ 8.
        let mut opt = canopy_nn::Adam::new(network.param_count(), 3e-2);
        for _ in 0..1000 {
            network.zero_grads();
            let trace = forward_bounds(&network, &lo, &hi);
            if trace.pre_out_hi()[0] > -0.2 {
                backward_bounds_pre(&mut network, &trace, &[0.0], &[1.0]);
            }
            opt.step(&mut network, 1.0);
        }
        assert!(
            out_hi(&network) < 0.0,
            "certified upper bound should go negative, got {}",
            out_hi(&network)
        );
    }
}
